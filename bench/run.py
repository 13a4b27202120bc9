"""End-to-end benchmark of the tracebind CLI, with per-layer timings.

    python3 bench/run.py --workload activation-k8 --seed 1 --seconds 40 --trace 0

Generates the workload's fixtures from ``--seed``, computes the expected
outputs without the production path, then runs ``python -m tracebind``
children one at a time (a closed loop with one client) for ``--seconds``:
each cycle times ``setup`` (``analyze`` on a two-step prefix), ``analyze``,
``probe`` and ``simulate alternating`` and checks every output.  With
``--trace 1`` each cycle also runs ``bench/traced.py``, which times the
public calls behind the same commands in-process and must render the same
bytes.  ``--workload all`` runs every workload in turn.

Every time is host-normalised: a call of ``bench/reference.py`` (fixed work,
no tracebind code) runs before and after each measured call, and the call's
wall time is scaled by ``REFERENCE_S`` over the mean of those two.  A time
metric is the median of the scaled samples: the wall time on a host where
one reference call takes ``REFERENCE_S``.  Raw wall times are recorded too.

Prints a table per workload (every metric of BENCHMARK.json with
``--trace 1``), writes ``bench/out/result-*.json`` and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or its per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    WORKLOADS,
    analyze_document,
    check_against_oracle,
    generate,
    normalized,
    probe_document,
    simulate_expected,
    sized,
    write_fixture,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
PINNED = BENCH / "pinned.json"
DEFAULT_SEED = 1
MIN_CYCLES = 3
SETUP_REPS = 3  # setup calls per cycle; they are short
REFERENCE_S = 0.1  # nominal wall time of one reference call
COMMANDS = ("setup", "analyze", "probe", "simulate")
SIM_BASE = "sim"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Launcher:
    """Client of ``bench/launcher.py``, the small process that spawns every
    measured child so that its peak RSS is the child's own."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class WorkloadRun:
    """Fixtures, expected outputs, checks and samples of one workload."""

    def __init__(self, name: str, seed: int, size: str, work: Path, pins: dict | None = None) -> None:
        started = time.perf_counter()
        self.workload = sized(WORKLOADS[name], size)
        self.work = work
        fixture = generate(self.workload, seed)
        self.paths = write_fixture(fixture, work)
        k = len(fixture.ingredient_ids)
        wl = self.workload
        self.expected = {
            "setup": normalized(analyze_document(fixture.masks[:2], k, 1, wl.horizon_max)),
            "analyze": normalized(analyze_document(fixture.masks, k, wl.delta, wl.horizon_max)),
            "probe": normalized(probe_document(fixture.outputs)),
        }
        self.sim_expected = simulate_expected(wl.sim_length, SIM_BASE)
        check_against_oracle(fixture, wl, seed)
        self.fixture_sha = {
            key: sha256(self.paths[key].read_bytes()) for key in ("trace", "identity", "outputs")
        }
        self.digests: dict[str, str | dict[str, str]] = {}
        self.pins = pins
        if pins is not None and pins["fixture"] != self.fixture_sha:
            raise RuntimeError(f"{name}: default-seed fixture differs from {PINNED.name}")
        self.prepare_s = time.perf_counter() - started

        cli = [sys.executable, "-m", "tracebind"]
        window = ["--identity", str(self.paths["identity"]), "--horizon-max", str(wl.horizon_max)]
        self.sim_dir = work / "sim"
        self.argv = {
            "setup": cli + ["analyze", "--trace", str(self.paths["setup_trace"]), *window, "--delta", "1"],
            "analyze": cli + ["analyze", "--trace", str(self.paths["trace"]), *window, "--delta", str(wl.delta)],
            "probe": cli + ["probe", str(self.paths["outputs"]), "--format", "json"],
            "simulate": cli + [
                "simulate", "alternating", "--length", str(wl.sim_length),
                "--out", str(self.sim_dir / SIM_BASE),
            ],
        }
        self.argv["reference"] = [sys.executable, str(BENCH / "reference.py")]
        self.samples = {kind: {"s": [], "wall_s": [], "rss_mb": []} for kind in COMMANDS}
        self.reference_s: list[float] = []
        # walls of the calls since the last reference call, and layer times
        # of a traced run there, both waiting for the next reference call
        self.pending: list[tuple[str, float]] = []
        self.pending_layers: list[dict[str, float]] = []
        self.layers: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.traced_runs = 0
        self.traced_mismatches = 0
        self.errors: list[str] = []

    def sim_files(self) -> dict[str, bytes]:
        return {
            part: (self.sim_dir / f"{SIM_BASE}.{suffix}").read_bytes()
            for part, suffix in (
                ("trace", "trace.jsonl"), ("identity", "identity.json"), ("sidecar", "expect.json"),
            )
        }

    def check(self, kind: str, stdout: bytes) -> str | None:
        """Compare one call's output with the reference; None when it agrees."""
        if kind == "simulate":
            files = self.sim_files()
            want = self.sim_expected
            if files["trace"] != want["trace"]:
                return "simulated trace differs from the alternating construction"
            if json.loads(files["identity"]) != want["identity"]:
                return "simulated identity differs"
            if json.loads(files["sidecar"]) != want["sidecar"]:
                return "simulate sidecar differs"
            digest = {part: sha256(data) for part, data in files.items()}
        else:
            try:
                parsed = json.loads(stdout)
            except ValueError:
                return "output is not valid JSON"
            if normalized(parsed) != self.expected[kind]:
                return f"report differs from the reference: {parsed!r}"
            digest = sha256(stdout)
        self.digests[kind] = digest
        if self.pins is not None and digest != self.pins[kind]:
            return f"output bytes differ from {PINNED.name}"
        return None

    def call(self, launcher: Launcher, kind: str, timed: bool = True) -> bytes | None:
        stdout_path = self.work / f"{kind}.stdout"
        stderr_path = self.work / f"{kind}.stderr"
        reply = launcher.run(self.argv[kind], stdout_path, stderr_path)
        self.attempted += 1
        stdout = stdout_path.read_bytes()
        if reply["exit"] != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-300:]
            problem = f"exit code {reply['exit']}: {tail.strip()}"
        else:
            problem = self.check(kind, stdout)
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{kind}: {problem}"[:500])
            return None
        if timed:
            self.pending.append((kind, reply["wall_s"]))
            self.samples[kind]["rss_mb"].append(reply["maxrss_kb"] / 1024)
        return stdout

    def reference(self, launcher: Launcher) -> None:
        """Run the reference call and scale the calls made since the last one
        by ``REFERENCE_S`` over the mean of the two reference times."""
        stdout_path = self.work / "reference.stdout"
        stderr_path = self.work / "reference.stderr"
        reply = launcher.run(self.argv["reference"], stdout_path, stderr_path)
        if reply["exit"] != 0:
            raise RuntimeError("reference call failed: " + stderr_path.read_text()[-300:])
        wall = reply["wall_s"]
        if self.reference_s:
            scale = REFERENCE_S / ((self.reference_s[-1] + wall) / 2)
            for kind, raw in self.pending:
                self.samples[kind]["s"].append(raw * scale)
                self.samples[kind]["wall_s"].append(raw)
            for layers in self.pending_layers:
                for name, value in layers.items():
                    self.layers.setdefault(name, []).append(
                        value * scale if name.endswith((".s", "_s")) else value
                    )
        self.pending.clear()
        self.pending_layers.clear()
        self.reference_s.append(wall)

    def traced(self, launcher: Launcher, outputs: dict[str, bytes | None]) -> None:
        spec_path = self.work / "traced.spec.json"
        spec = {
            "trace": str(self.paths["trace"]),
            "identity": str(self.paths["identity"]),
            "delta": self.workload.delta,
            "horizon_max": self.workload.horizon_max,
            "outputs": str(self.paths["outputs"]),
            "sim_length": self.workload.sim_length,
            "sim_trace": str(self.work / "traced.sim.trace.jsonl"),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        stdout_path = self.work / "traced.stdout"
        stderr_path = self.work / "traced.stderr"
        reply = launcher.run(
            [sys.executable, str(BENCH / "traced.py"), str(spec_path)], stdout_path, stderr_path
        )
        self.traced_runs += 1
        if reply["exit"] != 0:
            self.traced_mismatches += 1
            self.errors.append("traced: " + stderr_path.read_text(encoding="utf-8")[-300:])
            return
        result = json.loads(stdout_path.read_bytes())
        same = (
            outputs["analyze"] is not None
            and result["analyze_report"].encode() == outputs["analyze"]
            and outputs["probe"] is not None
            and result["probe_report"].encode() == outputs["probe"]
            and result["sim_trace_sha256"] == sha256(self.sim_expected["trace"])
        )
        if not same:
            self.traced_mismatches += 1
            self.errors.append("traced: in-process outputs differ from the CLI's")
            return
        self.pending_layers.append(result["layers"])

    def measure(self, launcher: Launcher, seconds: float, trace: bool) -> None:
        self.call(launcher, "setup", timed=False)  # compiles bytecode, fills caches
        started = time.perf_counter()
        self.cycles = 0
        while True:
            elapsed = time.perf_counter() - started
            # stop before a cycle that would, at the mean pace, end past the budget
            if self.cycles >= MIN_CYCLES and elapsed * (self.cycles + 1) / self.cycles > seconds:
                break
            self.reference(launcher)
            for _ in range(SETUP_REPS):
                self.call(launcher, "setup")
            outputs = {}
            for kind in COMMANDS[1:]:
                self.reference(launcher)
                outputs[kind] = self.call(launcher, kind)
            if trace:
                self.reference(launcher)
                self.traced(launcher, outputs)
            self.cycles += 1
        self.reference(launcher)
        self.measure_s = time.perf_counter() - started

    def end_to_end(self) -> dict[str, list[float]]:
        values = {"setup_s": self.samples["setup"]["s"]}
        for kind in ("analyze", "probe", "simulate"):
            values[f"{kind}_s"] = self.samples[kind]["s"]
            values[f"{kind}_rss_mb"] = self.samples[kind]["rss_mb"]
        return values

    def per_layer(self) -> dict[str, list[float]]:
        values = dict(self.layers)
        totals = values.pop("traced.analyze_total_s", [])
        if totals and self.samples["analyze"]["s"] and self.samples["setup"]["s"]:
            cli_work = (
                statistics.median(self.samples["analyze"]["s"])
                - statistics.median(self.samples["setup"]["s"])
            )
            values["traced.overhead_s"] = [statistics.median(totals) - cli_work]
        values["fixture.trace_bytes"] = [self.paths["trace"].stat().st_size]
        values["fixture.outputs_bytes"] = [self.paths["outputs"].stat().st_size]
        return values


def summarize(samples: dict[str, list[float]], wanted: list[dict]) -> tuple[dict, list[str]]:
    """Median of each wanted metric, with its sample count and quartiles."""
    summary = {}
    missing = []
    for metric in wanted:
        values = samples.get(metric["name"], [])
        if not values:
            missing.append(metric["name"])
            continue
        entry = {"value": statistics.median(values), "unit": metric["unit"], "samples": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["q1"], entry["q3"] = q1, q3
        summary[metric["name"]] = entry
    return summary, missing


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_table(name: str, run: WorkloadRun, summary: dict) -> None:
    print(f"== {name}: {run.cycles} cycles in {run.measure_s:.1f} s, "
          f"prepare {run.prepare_s:.1f} s, error_rate {run.failed}/{run.attempted}")
    raw = ", ".join(
        f"{kind} {statistics.median(run.samples[kind]['wall_s']):.3f}"
        for kind in COMMANDS if run.samples[kind]["wall_s"]
    )
    print(f"  median wall s: {raw}; reference {statistics.median(run.reference_s):.3f}")
    for metric, entry in summary.items():
        print(f"  {metric:34s} {entry['value']:14.6f} {entry['unit']:6s} (n={entry['samples']})")
    for error in run.errors[:5]:
        print(f"  ERROR {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same shapes at a few hundred steps (smoke tests)")
    parser.add_argument("--pin", action="store_true",
                        help="record the default seed's fixture and output digests in bench/pinned.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tracebind" / "cli.py").is_file():
        print(f"bench: no tracebind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    default_run = args.seed == DEFAULT_SEED and args.size == "full"
    if args.pin and not (default_run and args.workload == "all"):
        print("bench: --pin needs the default seed, full size and every workload", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the reference check imports tracebind.oracle
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = config["per_layer"] if args.trace else config["end_to_end"]
    # a traced run also times the CLI children, so it prints every metric
    wanted = config["end_to_end"] + (config["per_layer"] if args.trace else [])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    pins = {}
    if default_run and not args.pin:
        pins = json.loads(PINNED.read_text(encoding="utf-8"))["workloads"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work_root = OUT / f"work-{os.getpid()}"
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }
    results = {}
    launcher = Launcher(env)
    try:
        for name in names:
            load_before = os.getloadavg()
            run = WorkloadRun(name, args.seed, args.size, work_root / name, pins.get(name))
            run.measure(launcher, args.seconds, bool(args.trace))
            samples = run.end_to_end()
            if args.trace:
                samples.update(run.per_layer())
            summary, missing = summarize(samples, wanted)
            print_table(name, run, summary)
            results[name] = {
                "run": run,
                "summary": summary,
                "missing": missing,
                "record": {
                    "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg(),
                    "prepare_s": run.prepare_s,
                    "cycles": run.cycles,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "error_rate": run.failed / run.attempted,
                    "traced_runs": run.traced_runs,
                    "traced_mismatches": run.traced_mismatches,
                    "errors": run.errors,
                    "metrics": summary,
                    "samples": samples,
                    "wall_s": {kind: run.samples[kind]["wall_s"] for kind in COMMANDS},
                    "reference_s": run.reference_s,
                },
            }
    finally:
        launcher.close()
        shutil.rmtree(work_root, ignore_errors=True)

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    document = {"meta": meta, "workloads": {n: r["record"] for n, r in results.items()}}
    result_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {result_path.relative_to(ROOT)}")

    missing = [f"{n}:{m}" for n, r in results.items() for m in r["missing"]]
    if missing:
        print(f"bench: no successful samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.pin:
        return pin(results)

    correct = all(
        r["run"].failed == 0 and r["run"].traced_mismatches == 0 for r in results.values()
    )
    metrics = {}
    for n, r in results.items():
        for metric in reported:
            entry = r["summary"][metric["name"]]
            key = metric["name"] if len(names) == 1 else f"{n}/{metric['name']}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["run"].attempted for r in results.values()),
        "failed": sum(r["run"].failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def pin(results: dict) -> int:
    """Store the default seed's digests, once every output matched the reference."""
    pins = {}
    for name, r in results.items():
        run = r["run"]
        if run.failed:
            print(f"bench: {name} has failed calls; nothing pinned", file=sys.stderr)
            return 1
        pins[name] = {"fixture": run.fixture_sha, **run.digests}
    PINNED.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": pins}, indent=1) + "\n")
    print(f"wrote {PINNED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
