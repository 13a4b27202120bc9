"""What the benchmark harness under ``bench/`` needs of the package.

``bench/`` is outside the tier-1 test paths, so a refactor could break
``bench/run.py --trace 1`` without a failing test here.  These tests import
every name the bench scripts take from ``tracebind``, pin the names of
``tracebind.sets`` that the modules which held them before still serve for
the bench alone, and the names ``cli`` serves on first use from modules
``probe`` does not load, and pin the module layout ``bench/run.py`` checks
before it runs.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import tracebind.cli
import tracebind.sets
import tracebind.trace

ROOT = Path(__file__).resolve().parent.parent


def bench_imports() -> list[tuple[str, str]]:
    """``(module, name)`` for each ``from tracebind... import name`` in the
    bench scripts, at module level or inside a function."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tracebind"):
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_the_bench_scripts_are_scanned():
    modules = {module for module, _ in bench_imports()}
    assert {"tracebind.cli", "tracebind.identity", "tracebind.oracle", "tracebind.windows"} <= modules


@pytest.mark.parametrize("module, name", bench_imports())
def test_every_name_the_bench_imports_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module", ["tracebind.cli", "tracebind.identity", "tracebind.metrics", "tracebind.trace",
               "tracebind.windows"]
)
def test_old_homes_serve_only_the_names_the_bench_imports(module):
    # the names of tracebind.sets a module serves on first use are exactly
    # those the bench takes from it; repointing the bench empties both
    served = importlib.import_module(module)
    lazy = {name for name in dir(tracebind.sets) if name not in vars(served) and hasattr(served, name)}
    bench = {name for found, name in bench_imports() if found == module and name not in vars(served)}
    assert lazy == bench & set(dir(tracebind.sets))


def test_cli_serves_on_first_use_only_the_names_the_bench_imports():
    # of the names of the sets and the trace module, which probe never
    # loads, cli binds none the bench takes from it and serves no other
    homes = {*dir(tracebind.sets), *dir(tracebind.trace)}
    lazy = {name for name in homes if name not in vars(tracebind.cli) and hasattr(tracebind.cli, name)}
    bench = {name for found, name in bench_imports() if found == "tracebind.cli"}
    assert lazy == bench == {"parse_trace", "state_record", "write_trace"}


@pytest.mark.parametrize("name", ["parse_trace", "state_record", "write_trace"])
def test_cli_serves_the_trace_module_objects(name):
    home = tracebind.sets if name == "parse_trace" else tracebind.trace
    assert getattr(tracebind.cli, name) is getattr(home, name)


def test_cli_source_file_exists():
    # bench/run.py refuses to run without it
    assert (ROOT / "src" / "tracebind" / "cli.py").is_file()
