"""``python -m tracebind`` in a fresh interpreter, and what each command loads.

Each CLI run here is a child process started with ``PYTHONPATH=src`` and
``-X importtime``, so its stdout is the command's real output and its stderr
lists every module the run imported.  ``analyze`` and ``probe`` must print
their committed goldens without loading ``tracebind.simulator`` or
``tracebind.oracle``; only ``simulate`` loads the simulator.  The package
serves the simulator's names on first use (PEP 562), and the last tests pin
that contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracebind

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
UNUSED_BY_SCORING = {"tracebind.simulator", "tracebind.oracle"}

SIMULATOR_NAMES = [
    "Action", "ArchitecturePreset", "RetrievalPolicy", "infer", "make_preset",
    "preset_probe", "retrieve", "run", "scenario_alternating", "scenario_capacity_limited",
    "scenario_drift_recover", "scenario_noncommutation", "scenario_rag_displacement",
    "step", "store", "tool",
]


def fresh_python(*args: str, cwd: Path = ROOT) -> tuple[int, bytes, str, set[str]]:
    """Run ``python -X importtime *args`` with ``PYTHONPATH=src``: its exit
    code, stdout, the stderr lines that are not import timings, and the
    names of the modules it imported."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, env=env, cwd=cwd
    )
    messages, modules = [], set()
    for line in proc.stderr.decode("utf-8").splitlines():
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            messages.append(line)
    return proc.returncode, proc.stdout, "\n".join(messages), modules


def window_flags(case: str) -> list[str]:
    window = json.loads((GOLDEN / case / f"{case}.expect.json").read_text())["window"]
    return [
        "--delta", str(window["delta"]),
        "--stride", str(window["stride"]),
        "--eval", ",".join(str(t) for t in window["eval"]),
        "--horizon-max", str(window["horizon_max"]),
    ]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", ["capacity", "drift-recover"])  # state form, activation form
def test_analyze_prints_its_golden_without_the_simulator(case, fmt):
    trace = GOLDEN / case / f"{case}.trace.jsonl"
    code, out, err, modules = fresh_python(
        "-m", "tracebind", "analyze",
        "--trace", str(trace),
        "--identity", str(GOLDEN / case / f"{case}.identity.json"),
        *window_flags(case),
        "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert out == Path(f"{trace}.analyze.{fmt}").read_bytes()
    assert "tracebind.cli" in modules
    assert modules.isdisjoint(UNUSED_BY_SCORING)


def test_analyze_with_a_faulty_identity_loads_no_simulator(tmp_path):
    identity = tmp_path / "identity.json"
    identity.write_text("{\n", encoding="utf-8")
    code, out, err, modules = fresh_python(
        "-m", "tracebind", "analyze",
        "--trace", str(GOLDEN / "capacity" / "capacity.trace.jsonl"),
        "--identity", str(identity),
    )
    assert (code, out) == (2, b"")
    assert err.startswith(f"tracebind: {identity}")
    assert "tracebind.cli" in modules
    assert modules.isdisjoint(UNUSED_BY_SCORING)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("delta", ["default", "0", "1"])
def test_probe_prints_its_golden_without_the_simulator(delta, fmt):
    folder = GOLDEN / "probe"
    flags = [] if delta == "default" else ["--delta-cons", delta]
    code, out, err, modules = fresh_python(
        "-m", "tracebind", "probe", str(folder / "outputs.txt"), *flags, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == (folder / f"outputs.probe.{delta}.{fmt}").read_bytes()
    assert "tracebind.cli" in modules
    assert modules.isdisjoint(UNUSED_BY_SCORING)


def test_simulate_loads_the_simulator(tmp_path):
    code, out, err, modules = fresh_python(
        "-m", "tracebind", "simulate", "alternating", "--out", "alternating", cwd=tmp_path
    )
    assert (code, err) == (0, "")
    assert out == b"wrote alternating scenario files next to alternating\n"
    assert "tracebind.simulator" in modules
    for name in ("alternating.trace.jsonl", "alternating.identity.json", "alternating.expect.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / "alternating" / name).read_bytes()


def test_simulator_names_load_on_first_use():
    code, out, err, _ = fresh_python(
        "-c",
        "import json, sys, tracebind\n"
        "lazy = sorted(set(tracebind.__all__) - set(vars(tracebind)))\n"
        "before = 'tracebind.simulator' in sys.modules\n"
        "served = tracebind.simulator is sys.modules['tracebind.simulator']\n"
        "print(json.dumps([lazy, before, served, tracebind.simulator.__name__]))\n",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == [sorted(SIMULATOR_NAMES), False, True, "tracebind.simulator"]


@pytest.mark.parametrize("name", SIMULATOR_NAMES)
def test_simulator_names_are_the_simulator_objects(name):
    import tracebind.simulator

    assert name in tracebind.__all__
    assert getattr(tracebind, name) is getattr(tracebind.simulator, name)


def test_dir_lists_every_exported_name():
    assert set(tracebind.__all__) | {"simulator"} <= set(dir(tracebind))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tracebind import *", namespace)
    assert set(tracebind.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'tracebind' has no attribute 'no_such_name'$"):
        tracebind.no_such_name
