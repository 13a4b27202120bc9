"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import REFERENCE_S, WorkloadRun
from workloads import WORKLOADS, generate, sized

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = sized(WORKLOADS[name], "tiny")
    first, again, other = generate(workload, 3), generate(workload, 3), generate(workload, 4)
    assert (first.trace_lines, first.outputs) == (again.trace_lines, again.outputs)
    assert first.trace_lines != other.trace_lines
    assert first.outputs != other.outputs


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_smoke_run_of_every_workload(trace, section):
    done = run_bench("--size", "tiny", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = {f"{w}/{m['name']}" for w in WORKLOADS for m in CONFIG[section]}
    assert set(result["metrics"]) == wanted

    record = json.loads((ROOT / f"bench/out/result-all-seed1-trace{trace}.json").read_text())
    for name in WORKLOADS:
        workload = record["workloads"][name]
        assert workload["error_rate"] == 0
        if trace:
            # every traced run rendered the same bytes as the CLI children
            assert workload["traced_runs"] >= 3
            assert workload["traced_mismatches"] == 0


def test_check_rejects_a_wrong_report(tmp_path):
    run = WorkloadRun("activation-k8", 5, "tiny", tmp_path)
    assert run.check("analyze", b"not json") is not None
    assert run.check("analyze", b'{"p_weak": 1.000000}') is not None
    assert run.check("probe", b'{"consistency": 0.0, "pairs": 780, "delta_cons": 0.5}') is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = run_bench("--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class FakeLauncher:
    """Answers every request with the next of the given wall times."""

    def __init__(self, walls):
        self.walls = list(walls)

    def run(self, argv, stdout, stderr):
        Path(stdout).write_bytes(b"")
        return {"wall_s": self.walls.pop(0), "maxrss_kb": 1024, "exit": 0}


def test_times_are_scaled_by_the_bracketing_reference_calls(tmp_path):
    run = WorkloadRun("activation-k8", 5, "tiny", tmp_path)
    launcher = FakeLauncher([0.1, 0.2])
    run.reference(launcher)
    run.pending.append(("analyze", 0.6))
    run.pending_layers.append({"metrics.persistence.s": 0.3, "metrics.persistence.windows": 7})
    run.reference(launcher)
    scale = REFERENCE_S / 0.15
    assert run.samples["analyze"]["s"] == [pytest.approx(0.6 * scale)]
    assert run.samples["analyze"]["wall_s"] == [0.6]
    assert run.layers["metrics.persistence.s"] == [pytest.approx(0.3 * scale)]
    assert run.layers["metrics.persistence.windows"] == [7]
    assert run.reference_s == [0.1, 0.2] and not run.pending
