"""Traced in-process run: the public calls behind ``analyze``, ``probe`` and
``simulate alternating``, each timed from outside, in the order the CLI
makes them.

Usage: ``python bench/traced.py SPEC.json`` with ``tracebind`` importable.
Prints one JSON object: the layer metrics plus the rendered analyze and
probe reports and the written trace's bytes digest, which ``run.py``
compares with the CLI children's outputs to prove the same path ran.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracebind.cli import parse_trace, state_record, write_trace
from tracebind.identity import load_identity_file
from tracebind.metrics import (
    MetricParams,
    MetricsReport,
    consistency,
    continuity,
    gap_ratio,
    identifiability,
    persistence,
    render_json,
)
from tracebind.simulator import scenario_alternating
from tracebind.windows import INFINITE, WindowConfig


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Layers:
    """Wall time (and optionally peak-RSS growth) of each timed call."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}

    def call(self, name: str, fn, *args, rss: bool = False):
        before = _peak_mb()
        start = time.perf_counter()
        result = fn(*args)
        self.metrics[f"{name}.s"] = time.perf_counter() - start
        if rss:
            self.metrics[f"{name}.rss_mb"] = _peak_mb() - before
        return result


def analyze(spec: dict, layers: Layers) -> str:
    start = time.perf_counter()
    trace = layers.call("cli.parse_trace", parse_trace, spec["trace"], rss=True)
    identity, _ = layers.call("identity.load_identity_file", load_identity_file, spec["identity"])
    activations = layers.call("identity.activate", trace.to_activations, identity, rss=True)
    cfg = WindowConfig.all_valid(spec["delta"], 1, len(activations), spec["horizon_max"])
    params = MetricParams()
    pers = layers.call("metrics.persistence", persistence, activations, identity, cfg)
    gap = layers.call(
        "metrics.gap_ratio", gap_ratio,
        activations, identity, cfg.stride, cfg.eval_indices, cfg.horizon_max,
    )
    _, continuity_mean = layers.call("metrics.continuity", continuity, activations, identity.k)
    reference = activations[0]

    def identifiability_all():
        return [
            identifiability(activations[cfg.stride * t], reference, identity.k, params.delta_i)
            for t in cfg.eval_indices
        ]

    indicators = layers.call("metrics.identifiability", identifiability_all)
    report = MetricsReport(
        p_weak=pers.p_weak,
        p_strong=pers.p_strong,
        gap=gap,
        continuity_mean=continuity_mean,
        identifiability_rate=sum(indicators) / len(indicators),
        consistency=None,
        recovery=None,
        params=params,
        horizon_max=cfg.horizon_max,
        ref_index=0,
        window_delta=cfg.horizon,
        window_stride=cfg.stride,
        t_count=len(cfg.eval_indices),
    )
    text = layers.call("cli.render", lambda: render_json(report.to_document()) + "\n")
    total = time.perf_counter() - start

    n = len(activations)
    scan_steps = 0
    unbound = 0
    for t, _, w_strong in gap.per_t:
        if w_strong == INFINITE:
            unbound += 1
            scan_steps += min(cfg.horizon_max, n - 1 - t) + 1
        else:
            scan_steps += w_strong + 1
    layers.metrics.update({
        "cli.parse_trace.steps": n,
        "metrics.persistence.windows": len(pers.per_window),
        "metrics.gap_ratio.windows": len(gap.per_t),
        "metrics.gap_ratio.undefined": gap.undefined_count,
        "windows.scan_steps": scan_steps,
        "windows.unbound_share": unbound / len(gap.per_t),
        "traced.analyze_total_s": total,
    })
    return text


def probe(spec: dict, layers: Layers) -> str:
    lines = Path(spec["outputs"]).read_text(encoding="utf-8").splitlines()
    score = layers.call("metrics.consistency", consistency, lines)
    pairs = len(lines) * (len(lines) - 1) // 2
    layers.metrics["metrics.consistency.pairs"] = pairs
    return render_json({"consistency": score, "pairs": pairs, "delta_cons": 0.5}) + "\n"


def simulate(spec: dict, layers: Layers) -> str:
    states, _, _ = layers.call(
        "simulator.scenario_alternating", scenario_alternating, spec["sim_length"]
    )
    path = Path(spec["sim_trace"])
    layers.call("cli.write_trace", lambda: write_trace(path, [state_record(s) for s in states]))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    layers = Layers()
    result = {
        "analyze_report": analyze(spec, layers),
        "probe_report": probe(spec, layers),
        "sim_trace_sha256": simulate(spec, layers),
    }
    result["layers"] = layers.metrics
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
