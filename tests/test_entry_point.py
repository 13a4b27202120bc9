"""``python -m tracebind`` in a fresh interpreter, and what each command loads.

Each CLI run here is a child process started with ``PYTHONPATH=src`` and
``-X importtime``, so its stdout is the command's real output and its stderr
lists every module the run imported.  ``analyze`` must print its committed
goldens loading exactly the mask path, and ``probe`` its own loading only
the package, ``errors``, ``metrics`` and ``cli``; neither loads
``tracebind.sets``, ``tracebind.simulator`` or ``tracebind.oracle``, nor
``dataclasses`` or ``inspect``, and only ``simulate`` loads the simulator
and the sets.  The package serves every exported name on first use from
its home module (PEP 562), so ``import tracebind`` loads no other module of
it, and three modules serve the few names that ``bench/`` still imports from
them.  The last tests pin that contract, that the tests import each name
from its one home, and, by reading each command-path module's imports
without running anything, that those modules load no library module, that
the modules of ``probe`` load no module beyond its own, and that no source
of ``analyze`` and ``probe`` imports ``dataclasses``.  Every name a package
module imports is used there, exported by the package, or imported from
that module by ``bench/``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tracebind
from test_bench_imports import bench_imports

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
UNUSED_BY_SCORING = {"tracebind.sets", "tracebind.simulator", "tracebind.oracle"}
# modules whose import alone costs analyze and probe milliseconds of start-up;
# the value classes derive from errors.Frozen so that neither loads
SLOW_TO_IMPORT = {"dataclasses", "inspect"}
# every tracebind module that analyze loads, with no other
SCORING_MODULES = {
    "tracebind", "tracebind.cli", "tracebind.errors", "tracebind.identity",
    "tracebind.metrics", "tracebind.trace", "tracebind.windows",
}
# every tracebind module that probe loads: it compiles none of the trace path
PROBE_MODULES = {"tracebind", "tracebind.cli", "tracebind.errors", "tracebind.metrics"}
# every tracebind module that simulate loads
SIMULATE_MODULES = SCORING_MODULES | {"tracebind.sets", "tracebind.simulator"}

SIMULATOR_NAMES = [
    "Action", "ArchitecturePreset", "RetrievalPolicy", "infer", "make_preset",
    "preset_probe", "retrieve", "run", "scenario_alternating", "scenario_capacity_limited",
    "scenario_drift_recover", "scenario_noncommutation", "scenario_rag_displacement",
    "step", "store", "tool",
]

# each name of tracebind.sets, by a module that serves it on first use: the
# package, and the old homes for the names bench/ still imports from them
MOVED_NAMES = {
    "tracebind": [
        "ActivationSet", "PersistenceResult", "ScaffoldArchitecture", "ScaffoldState",
        "WindowSegment", "activation_set", "activation_sets", "coinstantiated", "continuity",
        "detect_grounding_failures", "diamond", "evaluate_ingredient", "gap_ratio",
        "identifiability", "minimal_horizons", "occurs", "persistence", "persistence_streaming",
        "recovery", "recovery_bound", "state_distance", "window", "window_horizons",
    ],
    "tracebind.identity": ["ActivationSet"],
    "tracebind.metrics": ["continuity", "gap_ratio", "identifiability", "persistence"],
    "tracebind.cli": ["parse_trace"],
}
# the names of tracebind.sets the old homes served before, and serve no more
RETIRED_NAMES = {
    "tracebind.identity": [
        "ScaffoldArchitecture", "ScaffoldState", "activation_mask", "activation_masks",
        "activation_set", "activation_sets", "detect_grounding_failures", "evaluate_ingredient",
        "state_distance",
    ],
    "tracebind.windows": [
        "ActivationSet", "WindowSegment", "activation_masks", "coinstantiated", "diamond",
        "minimal_horizons", "occurs", "window", "window_horizons",
    ],
    "tracebind.metrics": [
        "ActivationSet", "PersistenceResult", "activation_masks", "persistence_streaming",
        "recovery", "recovery_bound", "state_distance", "window_horizons",
    ],
    "tracebind.trace": [
        "ActivationSet", "ScaffoldArchitecture", "ScaffoldState", "TraceData", "activation_sets",
        "parse_trace",
    ],
    "tracebind.cli": ["recovery", "recovery_bound"],
}


def pairs(table: dict[str, list[str]]) -> list[tuple[str, str]]:
    return [(module, name) for module, names in table.items() for name in names]


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
    assert {name for name in modules if name.startswith("tracebind")} == SCORING_MODULES
    assert modules.isdisjoint(UNUSED_BY_SCORING | SLOW_TO_IMPORT)


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
    assert {name for name in modules if name.startswith("tracebind")} == SCORING_MODULES
    assert modules.isdisjoint(UNUSED_BY_SCORING | SLOW_TO_IMPORT)


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
    assert {name for name in modules if name.startswith("tracebind")} == PROBE_MODULES
    assert modules.isdisjoint(UNUSED_BY_SCORING | SLOW_TO_IMPORT)


def test_simulate_loads_the_simulator(tmp_path):
    code, out, err, modules = fresh_python(
        "-m", "tracebind", "simulate", "alternating", "--out", "alternating", cwd=tmp_path
    )
    assert (code, err) == (0, "")
    assert out == b"wrote alternating scenario files next to alternating\n"
    # the oracle, or any other module, joining this path fails here
    assert {name for name in modules if name.startswith("tracebind")} == SIMULATE_MODULES
    for name in ("alternating.trace.jsonl", "alternating.identity.json", "alternating.expect.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / "alternating" / name).read_bytes()


def test_import_loads_the_package_alone():
    code, out, err, modules = fresh_python("-c", "import tracebind")
    assert (code, out, err) == (0, b"", "")
    assert {name for name in modules if name.startswith("tracebind")} == {"tracebind"}


def test_simulator_names_load_on_first_use():
    # the package binds no exported name; a name of the sets loads the sets
    # alone, and a simulator name loads both
    code, out, err, _ = fresh_python(
        "-c",
        "import json, sys, tracebind\n"
        "lazy = sorted(set(tracebind.__all__) - set(vars(tracebind)))\n"
        "loaded = lambda: [m for m in ('tracebind.sets', 'tracebind.simulator') if m in sys.modules]\n"
        "before = loaded()\n"
        "tracebind.persistence\n"
        "after_sets = loaded()\n"
        "tracebind.run\n"
        "served = [tracebind.sets is sys.modules['tracebind.sets'],\n"
        "          tracebind.simulator is sys.modules['tracebind.simulator']]\n"
        "print(json.dumps([lazy, before, after_sets, loaded(), served]))\n",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == [
        sorted(tracebind.__all__),
        [],
        ["tracebind.sets"],
        ["tracebind.sets", "tracebind.simulator"],
        [True, True],
    ]


@pytest.mark.parametrize("name", tracebind.__all__)
def test_exported_names_are_their_home_objects(name):
    # served, not bound, and defined in the module that holds it; only
    # INFINITE, a float, names no module, and its home is errors
    served = getattr(tracebind, name)
    home = import_module(getattr(served, "__module__", "tracebind.errors"))
    assert home.__name__.startswith("tracebind.")
    assert name not in vars(tracebind)
    assert vars(home)[name] is served


@pytest.mark.parametrize("name", SIMULATOR_NAMES)
def test_simulator_names_are_the_simulator_objects(name):
    import tracebind.simulator

    assert name in tracebind.__all__
    assert getattr(tracebind, name) is getattr(tracebind.simulator, name)


@pytest.mark.parametrize("module, name", pairs(MOVED_NAMES) + pairs(RETIRED_NAMES))
def test_moved_names_are_the_sets_objects(module, name):
    # each has its one home in tracebind.sets; a module that still serves it
    # serves that object, and none binds it
    import tracebind.sets

    served = import_module(module)
    assert name not in vars(served)
    assert getattr(vars(tracebind.sets)[name], "__module__", "tracebind.sets") == "tracebind.sets"
    if name in MOVED_NAMES.get(module, ()):
        assert getattr(served, name) is getattr(tracebind.sets, name)


@pytest.mark.parametrize("module, name", pairs(RETIRED_NAMES))
def test_retired_names_are_attribute_errors(module, name):
    served = import_module(module)
    with pytest.raises(AttributeError, match=f"^module '{module}' has no attribute '{name}'$"):
        getattr(served, name)


def test_dir_lists_every_exported_name():
    homes = {"errors", "identity", "metrics", "windows", "sets", "simulator"}
    assert set(tracebind.__all__) | homes <= set(dir(tracebind))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tracebind import *", namespace)
    assert set(tracebind.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'tracebind' has no attribute 'no_such_name'$"):
        tracebind.no_such_name


@pytest.mark.parametrize("module", sorted({*MOVED_NAMES, *RETIRED_NAMES}))
def test_unknown_name_of_a_serving_module_is_an_attribute_error(module):
    served = import_module(module)
    with pytest.raises(AttributeError, match=f"^module '{module}' has no attribute 'no_such_name'$"):
        served.no_such_name


def test_the_tests_import_each_name_from_its_home():
    # from tracebind import ... is the public API, and exempt
    strays = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tracebind."):
                namespace = vars(import_module(node.module))
                strays += [
                    f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name not in namespace
                    or getattr(namespace[alias.name], "__module__", node.module) != node.module
                ]
    assert strays == []


COMMAND_PATH = ["__init__", "__main__", "errors", "identity", "windows", "metrics", "trace", "cli"]


def imported_at_load(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` for each module, and each ``module.name``, that the
    source's import statements name where they run as the module loads: at
    top level or in a class body, ``if``, ``try`` or ``with``, but not in a
    function or under ``if TYPE_CHECKING:``.  A relative import names a
    ``tracebind`` module."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            todo += node.orelse
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["tracebind" if node.level else "", node.module]))
            found += [(node.lineno, name) for name in [module, *(f"{module}.{a.name}" for a in node.names)]]
        for field in ("body", "orelse", "finalbody", "handlers"):
            todo += getattr(node, field, [])
    return found


def test_the_guard_sees_what_runs_at_load():
    source = (
        "from .sets import persistence\n"
        "from . import simulator\n"
        "import tracebind.oracle\n"
        "if TYPE_CHECKING:\n    from .sets import ActivationSet\n"
        "def f():\n    from .simulator import run\n"
        "try:\n    pass\nexcept ImportError:\n    from .oracle import oracle_persistence\n"
    )
    found = {(line, module) for line, module in imported_at_load(source) if module in UNUSED_BY_SCORING}
    assert found == {(1, "tracebind.sets"), (2, "tracebind.simulator"), (3, "tracebind.oracle"),
                     (11, "tracebind.oracle")}


# the sources that probe runs as it loads
PROBE_PATH = ["__main__", *(name.partition(".")[2] or "__init__" for name in sorted(PROBE_MODULES))]


@pytest.mark.parametrize("module", PROBE_PATH)
def test_probe_path_modules_import_only_probe_modules_at_load(module):
    # so a trace-path module joining probe's path fails here, with no child run
    package = {f"tracebind.{path.stem}" for path in (ROOT / "src" / "tracebind").glob("*.py")}
    source = (ROOT / "src" / "tracebind" / f"{module}.py").read_text(encoding="utf-8")
    assert [(line, name) for line, name in imported_at_load(source) if name in package - PROBE_MODULES] == []


@pytest.mark.parametrize("module", COMMAND_PATH)
def test_command_path_modules_import_no_library_module_at_load(module):
    source = (ROOT / "src" / "tracebind" / f"{module}.py").read_text(encoding="utf-8")
    assert [(line, name) for line, name in imported_at_load(source) if name in UNUSED_BY_SCORING] == []
    # nor dataclasses, anywhere in a source of analyze and probe
    if f"tracebind.{module}".removesuffix(".__init__") in SCORING_MODULES:
        imports = [
            (node.lineno, name)
            for node in ast.walk(ast.parse(source))
            for name in (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                else []
            )
        ]
        assert [(line, name) for line, name in imports if name.split(".")[0] == "dataclasses"] == []


def unused_imports(source: str, kept: set[str]) -> list[tuple[int, str]]:
    """``(line, name)`` for each name that the source's imports bind, at any
    depth, which the source never reads and ``kept`` does not hold; a
    ``from __future__`` import binds no name."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [
        (node.lineno, alias.asname or alias.name.partition(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    return [(line, name) for line, name in bound if name not in read | kept]


def test_the_import_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from itertools import islice, repeat\n"
        "def f():\n"
        "    from operator import lt\n"
        "    return repeat(os.path)\n"
    )
    assert unused_imports(source, {"islice"}) == [(3, "system"), (6, "lt")]


@pytest.mark.parametrize("stem", sorted(path.stem for path in (ROOT / "src" / "tracebind").glob("*.py")))
def test_every_imported_name_is_used(stem):
    # or exported by the package, or imported from the module by bench/
    module = "tracebind" if stem == "__init__" else f"tracebind.{stem}"
    kept = {name for found, name in bench_imports() if found == module}
    if module == "tracebind":
        kept |= set(tracebind.__all__)
    source = (ROOT / "src" / "tracebind" / f"{stem}.py").read_text(encoding="utf-8")
    assert unused_imports(source, kept) == []
