"""Command-line front end: trace ingestion, metric reports, scenario traces.

Commands:

- ``analyze``  compute the metrics report for a trace + identity spec
- ``simulate`` write a scenario trace, its identity spec, and a sidecar of
  expected values
- ``probe``    score consistency over a file of recorded outputs

Trace files are read and written by :mod:`tracebind.trace`.  Each command
imports what only it runs when it runs: ``analyze`` the identity, trace and
window modules, and each scenario adapter those and :mod:`tracebind.simulator`,
which loads :mod:`tracebind.sets`.  So ``analyze`` loads neither of the last
two, and ``probe`` loads none of them.

Exit codes: 0 success, 2 input/usage errors, 3 metric errors.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import DEFAULT_HORIZON_MAX, MetricError, ParameterError, TracebindError, _text_lines
from .metrics import (
    MetricParams,
    MetricsReport,
    changed_bits,
    counted_consistency,
    counted_gap,
    counted_persistence,
    identifiable_count,
    output_pairs,
    render_json,
    render_number,
    render_text,
    token_set_counts,
    window_counts,
)

if TYPE_CHECKING:
    from .simulator import ScenarioFiles
    from .windows import WindowConfig

# the names bench/ imports from this module, by their home modules
_SERVED = {"parse_trace": "sets", "state_record": "trace", "write_trace": "trace"}


def __getattr__(name: str):
    # served on first use, so no command loads a module for bench/ (PEP 562)
    if name not in _SERVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SERVED[name]}", __package__), name)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def integer(text: str) -> int:
    """An optional ``-`` and ASCII digits, spaces around allowed: the rule of every integer
    flag and ``--eval`` entry, where ``int`` alone also takes ``1_0``, ``+1`` and ``٣``."""
    body = text.strip(" ")
    digits = body[1:] if body[:1] == "-" else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(body)


def _parse_eval_selector(value: str) -> tuple[int, ...] | None:
    if value == "all":
        return None
    if not value.replace(",", "").strip(" "):
        raise ParameterError("--eval list is empty")
    try:
        return tuple(map(integer, value.split(",")))
    except ValueError as exc:
        raise ParameterError(f"--eval must be 'all' or a comma-separated list: {exc}")


def build_report(
    masks: Sequence[int],
    k: int,
    cfg: WindowConfig,
    params: MetricParams,
    ref_index: int,
) -> MetricsReport:
    """Protocol run over the step masks of a trace: persistence and the gap
    from one minimal-horizon pass, and the trace-computable auxiliary
    metrics.  None keeps a record per window beyond one chunk of windows."""
    from .windows import window_starts

    counts = window_counts(masks, k, cfg)
    p_weak, p_strong = counted_persistence(counts, cfg.horizon)
    gap = counted_gap(counts, cfg.horizon_max)
    n = len(masks)
    if n < 2:
        raise MetricError("continuity is undefined for a one-step trace")
    continuity_mean = (k * (n - 1) - sum(changed_bits(masks, k, range(1, n)))) / (k * (n - 1))
    hits = identifiable_count(masks, ref_index, k, params.delta_i, window_starts(cfg))
    return MetricsReport(
        p_weak=p_weak,
        p_strong=p_strong,
        gap=gap,
        continuity_mean=continuity_mean,
        identifiability_rate=hits / len(cfg.eval_indices),
        consistency=None,
        recovery=None,
        params=params,
        horizon_max=cfg.horizon_max,
        ref_index=ref_index,
        window_delta=cfg.horizon,
        window_stride=cfg.stride,
        t_count=len(cfg.eval_indices),
    )


def _emit(doc: dict, args: argparse.Namespace) -> None:
    """Write ``doc`` in the ``--format`` rendering to ``--out``, or stdout."""
    text = (render_json if args.format == "json" else render_text)(doc) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    from .identity import load_identity_file
    from .trace import _checked_records, read_masks
    from .windows import WindowConfig

    try:
        identity, _layers = load_identity_file(args.identity)
    except (TracebindError, OSError):
        # a faulty trace is reported ahead of a faulty identity spec
        for _ in _checked_records(args.trace):
            pass
        raise
    masks = read_masks(args.trace, identity)
    # with --eval all, T stays a range, which holds no int per layer time
    times = _parse_eval_selector(args.eval) or range(len(masks))
    cfg = WindowConfig(args.delta, args.stride, times, args.horizon_max).restrict_to(len(masks))
    if not cfg.eval_indices:
        raise ParameterError(
            "no evaluation window fits inside the trace; shrink --delta or the "
            "--eval list"
        )
    params = MetricParams(
        delta_i=args.delta_i,
        delta_cons=args.delta_cons,
        epsilon=args.epsilon,
        alpha=args.alpha,
    )
    report = build_report(masks, identity.k, cfg, params, args.ref_index)
    _emit(report.to_document(), args)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _noncommutation(args: argparse.Namespace) -> ScenarioFiles:
    from .simulator import ScenarioFiles, scenario_noncommutation
    from .trace import state_lines

    states, identity, cfg = scenario_noncommutation()
    return ScenarioFiles(
        {"": state_lines(states)},
        identity,
        cfg,
        tail={"expect": {"occurs": True, "coinstantiated": False, "gap_ratio": "inf"}},
    )


def _alternating(args: argparse.Namespace) -> ScenarioFiles:
    from .simulator import ScenarioFiles, scenario_alternating
    from .trace import state_lines

    states, identity, cfg = scenario_alternating(args.length)
    return ScenarioFiles(
        {"": state_lines(states)}, identity, cfg, tail={"expect": {"gap_ratio": "inf"}}
    )


def _capacity(args: argparse.Namespace) -> ScenarioFiles:
    from .simulator import ScenarioFiles, scenario_capacity_limited
    from .trace import state_lines
    from .windows import WindowConfig

    states, identity = scenario_capacity_limited(args.c, args.k, args.length)
    cfg = WindowConfig.all_valid(args.delta, 1, len(states), DEFAULT_HORIZON_MAX)
    if not cfg.eval_indices:
        raise ParameterError("--delta must be less than --length")
    return ScenarioFiles({"": state_lines(states)}, identity, cfg)


def _rag_displacement(args: argparse.Namespace) -> ScenarioFiles:
    from .simulator import ScenarioFiles, scenario_rag_displacement
    from .trace import state_lines

    without_rag, with_rag, identity, cfg = scenario_rag_displacement(
        baseline_block_tokens=args.block,
        passage_tokens=args.passage,
        capacity=args.capacity,
    )
    return ScenarioFiles(
        {"without": state_lines(without_rag), "with": state_lines(with_rag)},
        identity,
        cfg,
        tail={"expect": {"p_strong_strictly_drops": True, "p_weak_preserved": True}},
    )


def _drift_recover(args: argparse.Namespace) -> ScenarioFiles:
    from .sets import recovery, recovery_bound
    from .simulator import ScenarioFiles, context_identity, scenario_drift_recover
    from .trace import activation_lines
    from .windows import WindowConfig

    if args.k < 1:
        raise ParameterError("--k must be >= 1")
    if not 0 <= args.drift <= args.k:
        raise ParameterError("--drift must be between 0 and --k")
    if not 0 <= args.controllable <= args.k:
        raise ParameterError("--controllable must be between 0 and --k")
    universe = [f"g{i}" for i in range(args.k)]
    removed = universe[-args.drift:] if args.drift else []
    controllable = universe[: args.controllable]
    reference, drifted, recovered = scenario_drift_recover(
        universe, removed, controllable, args.interventions
    )
    bound = recovery_bound(reference, drifted, controllable, args.k, args.epsilon)
    measured = recovery(reference, drifted, recovered, args.k, args.epsilon)
    return ScenarioFiles(
        {"": activation_lines((reference, drifted, recovered))},
        context_identity(universe),
        WindowConfig.all_valid(0, 1, 3, DEFAULT_HORIZON_MAX),
        tail={
            "derived": {
                "recovery_bound": render_number(bound),
                "recovery_measured": render_number(measured),
                "recovery_le_bound": measured <= bound + 1e-9,
                "epsilon": render_number(args.epsilon),
            }
        },
    )


def _preset_probe(args: argparse.Namespace) -> ScenarioFiles:
    from .simulator import PROBE_IDENTITY, ScenarioFiles, probe_presets, probe_script, probe_window, run
    from .trace import state_lines

    presets = probe_presets()
    if args.preset not in presets:
        raise ParameterError(
            f"unknown preset {args.preset!r}; choose from {', '.join(sorted(presets))}"
        )
    states = run(presets[args.preset], probe_script(args.cycles), skip_unsupported=True)
    return ScenarioFiles(
        {"": state_lines(states)},
        PROBE_IDENTITY,
        probe_window(len(states)),
        head={"preset": args.preset},
    )


SCENARIOS = {
    "noncommutation": _noncommutation,
    "alternating": _alternating,
    "capacity": _capacity,
    "rag-displacement": _rag_displacement,
    "drift-recover": _drift_recover,
    "preset-probe": _preset_probe,
}


def _window_doc(cfg: WindowConfig) -> dict:
    return {
        "delta": cfg.horizon,
        "stride": cfg.stride,
        "eval": list(cfg.eval_indices),
        "horizon_max": cfg.horizon_max,
    }


def _write_scenario(scenario: str, files: ScenarioFiles, base: Path) -> None:
    """Write the traces, the identity spec, and the expected-values sidecar.

    The sidecar's persistence expectations come from re-reading each written
    trace and scoring it as ``analyze`` does, so they describe the bytes on disk.
    """
    from .identity import identity_to_document
    from .trace import read_masks, write_lines

    base.parent.mkdir(parents=True, exist_ok=True)
    sidecar: dict = {"scenario": scenario, **files.head}
    written = []
    for label, lines in files.traces.items():
        name = f"{base.name}.{label}" if label else base.name
        suffix = f"_{label}" if label else ""
        path = base.with_name(f"{name}.trace.jsonl")
        write_lines(path, lines)
        sidecar[f"trace{suffix}"] = path.name
        written.append((suffix, path))
    identity_path = base.with_name(base.name + ".identity.json")
    identity_path.write_text(
        render_json(identity_to_document(files.identity)) + "\n", encoding="utf-8"
    )
    sidecar["identity"] = identity_path.name
    sidecar["window"] = _window_doc(files.cfg)
    for suffix, path in written:
        masks = read_masks(path, files.identity)
        counts = window_counts(masks, files.identity.k, files.cfg)
        p_weak, p_strong = counted_persistence(counts, files.cfg.horizon)
        sidecar[f"expect{suffix}"] = {
            "p_weak": render_number(p_weak),
            "p_strong": render_number(p_strong),
        }
    for section, fields in files.tail.items():
        sidecar.setdefault(section, {}).update(fields)
    sidecar_path = base.with_name(base.name + ".expect.json")
    sidecar_path.write_text(render_json(sidecar) + "\n", encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = args.scenario_name or args.scenario
    if scenario is None:
        raise ParameterError("simulate needs a scenario name")
    if scenario not in SCENARIOS:
        raise ParameterError(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
        )
    base = Path(args.out) if args.out else Path(scenario)
    _write_scenario(scenario, SCENARIOS[scenario](args), base)
    sys.stdout.write(f"wrote {scenario} scenario files next to {base}\n")
    return 0


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def cmd_probe(args: argparse.Namespace) -> int:
    # the lines stream: only each distinct token set and its count are kept
    counts = token_set_counts(_text_lines(args.outputs))
    score = counted_consistency(counts, delta_cons=args.delta_cons)
    doc = {
        "consistency": score,
        "pairs": output_pairs(counts.total()),
        "delta_cons": args.delta_cons,
    }
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracebind",
        description=(
            "Decide whether identity ingredients merely occur across evaluation "
            "windows or actually co-instantiate at single steps, and compute the "
            "derived identity metrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    params = MetricParams()

    analyze = sub.add_parser("analyze", help="compute a metrics report for a trace")
    analyze.add_argument("--trace", required=True, help="trace file (JSONL)")
    analyze.add_argument("--identity", required=True, help="identity spec file (JSON)")
    analyze.add_argument("--delta", type=integer, default=1, help="window horizon")
    analyze.add_argument("--stride", type=integer, default=1, help="window stride")
    analyze.add_argument(
        "--eval",
        default="all",
        help="'all' for every valid layer time, or a comma-separated index list",
    )
    analyze.add_argument(
        "--horizon-max",
        type=integer,
        default=DEFAULT_HORIZON_MAX,
        help="search cap for minimal horizons in the gap ratio",
    )
    analyze.add_argument("--delta-i", type=float, default=params.delta_i)
    analyze.add_argument("--delta-cons", type=float, default=params.delta_cons)
    analyze.add_argument("--epsilon", type=float, default=params.epsilon)
    analyze.add_argument("--alpha", type=float, default=params.alpha)
    analyze.add_argument(
        "--ref-index",
        type=integer,
        default=0,
        help="objective step used as the identifiability reference state",
    )
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.add_argument("--out", default=None, help="write the report here")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="write a scenario trace plus expected-values sidecar"
    )
    simulate.add_argument(
        "scenario_name",
        nargs="?",
        default=None,
        metavar="scenario",
        help=f"one of: {', '.join(SCENARIOS)}",
    )
    simulate.add_argument("--scenario", default=None, help="alternative to the positional name")
    simulate.add_argument("--length", type=integer, default=100)
    simulate.add_argument("--c", type=integer, default=2, help="capacity scenario: max concurrent ingredients")
    simulate.add_argument("--k", type=integer, default=3, help="ingredient count")
    simulate.add_argument("--delta", type=integer, default=1, help="capacity scenario: window horizon")
    simulate.add_argument("--block", type=integer, default=3, help="identity block tokens")
    simulate.add_argument("--passage", type=integer, default=10, help="retrieved passage tokens")
    simulate.add_argument("--capacity", type=integer, default=12, help="context capacity")
    simulate.add_argument("--drift", type=integer, default=3, help="drifted ingredient count")
    simulate.add_argument(
        "--controllable", type=integer, default=1, help="prompt-controllable ingredient count"
    )
    simulate.add_argument("--interventions", type=integer, default=5)
    simulate.add_argument("--epsilon", type=float, default=0.0)
    simulate.add_argument(
        "--preset", default="controller", help="preset-probe scenario: preset name"
    )
    simulate.add_argument(
        "--cycles", type=integer, default=6, help="preset-probe scenario: probe cycles"
    )
    simulate.add_argument("--out", default=None, help="base path for the written files")
    simulate.set_defaults(func=cmd_simulate)

    probe = sub.add_parser("probe", help="consistency over recorded outputs")
    probe.add_argument("outputs", help="file of line-delimited outputs")
    probe.add_argument("--delta-cons", type=float, default=params.delta_cons)
    probe.add_argument("--format", choices=("json", "text"), default="text")
    probe.add_argument("--out", default=None)
    probe.set_defaults(func=cmd_probe)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MetricError as exc:
        print(f"tracebind: metric error: {exc}", file=sys.stderr)
        return 3
    except (TracebindError, OSError) as exc:
        print(f"tracebind: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
