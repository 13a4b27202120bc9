"""Byte-for-byte goldens for every ``simulate`` scenario and its ``analyze``
reports, and for the ``probe`` reports of one outputs file.

The files under ``tests/golden/<case>/`` were captured once from a known-good
build and are never rewritten by the suite.  Each case runs ``simulate`` with
its flags, then ``analyze`` on every trace the scenario wrote, using the
window recorded in the sidecar, once per report format.  A report is pinned
as ``<trace>.analyze.<format>``; a run that exits non-zero also pins its exit
code and message as ``<trace>.analyze.<format>.exit``.  Every file must match
its golden exactly, and no file may be missing or extra.

``tests/golden/probe/outputs.txt`` holds repeated lines, case-fold variants,
blank and whitespace-only lines, and a pair at Jaccard exactly 1/2.  Its
``probe`` report at each ``--delta-cons`` of ``PROBE_DELTAS`` is pinned as
``outputs.probe.<delta>.<format>``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from tracebind.cli import main
from tracebind.simulator import PRESET_NAMES

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "noncommutation": ["noncommutation"],
    "alternating": ["alternating"],
    "capacity": ["capacity"],
    "rag-displacement": ["rag-displacement"],
    "drift-recover": ["drift-recover"],
    "drift-recover-epsilon": ["drift-recover", "--epsilon", "0.01"],
    **{
        f"preset-probe-{preset}": ["preset-probe", "--preset", preset]
        for preset in PRESET_NAMES
    },
}


def produce(name: str, workdir: Path) -> dict[str, bytes]:
    """Run the case's ``simulate`` and ``analyze`` calls inside ``workdir``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *CASES[name], "--out", str(workdir / name)]) == 0
    sidecar = json.loads((workdir / f"{name}.expect.json").read_text())
    window = sidecar["window"]
    traces = [value for key, value in sidecar.items() if key.startswith("trace")]
    for trace in traces:
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(
                    [
                        "analyze",
                        "--trace", str(workdir / trace),
                        "--identity", str(workdir / sidecar["identity"]),
                        "--delta", str(window["delta"]),
                        "--stride", str(window["stride"]),
                        "--eval", ",".join(str(t) for t in window["eval"]),
                        "--horizon-max", str(window["horizon_max"]),
                        "--format", fmt,
                    ]
                )
            report = workdir / f"{trace}.analyze.{fmt}"
            report.write_text(out.getvalue(), encoding="utf-8")
            if code != 0:
                Path(f"{report}.exit").write_text(
                    f"{code}\n{err.getvalue()}", encoding="utf-8"
                )
    return {path.name: path.read_bytes() for path in workdir.iterdir()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    produced = produce(name, tmp_path)
    expected = {path.name: path.read_bytes() for path in (GOLDEN / name).iterdir()}
    assert sorted(produced) == sorted(expected)
    for filename, data in expected.items():
        assert produced[filename] == data, filename


PROBE_DELTAS = {"default": [], "0": ["--delta-cons", "0"], "1": ["--delta-cons", "1"]}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("delta", sorted(PROBE_DELTAS))
def test_probe_matches_golden(delta, fmt, capsys):
    folder = GOLDEN / "probe"
    code = main(["probe", str(folder / "outputs.txt"), *PROBE_DELTAS[delta], "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (
        folder / f"outputs.probe.{delta}.{fmt}"
    ).read_bytes()


def test_probe_golden_files():
    expected = {"outputs.txt"} | {
        f"outputs.probe.{delta}.{fmt}" for delta in PROBE_DELTAS for fmt in ("json", "text")
    }
    assert {path.name for path in (GOLDEN / "probe").iterdir()} == expected
