"""README's examples run as written: its Python block, and each shell line
that calls ``tracebind``, with ``/tmp/`` replaced by a test directory.  The
names it quotes exist, and its Library table names code its functions call."""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import shlex
from pathlib import Path

import tracebind
from tracebind.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def tracebind_commands() -> list[str]:
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("tracebind"):
                commands.append(line)
    return commands


def test_python_blocks_give_the_stated_scores():
    blocks = fenced_blocks("python")
    assert blocks
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, "README.md", "exec"), namespace)
        # the block's comment: p_weak=1.0, p_strong=0.0
        assert namespace["result"].p_weak == 1.0
        assert namespace["result"].p_strong == 0.0


def test_shell_lines_exit_zero(tmp_path, monkeypatch, capsys):
    commands = tracebind_commands()
    assert {command.split()[1] for command in commands} == {"analyze", "simulate", "probe"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outputs.txt").write_text("I am Alice\nI am Alice, an analyst\n")
    for command in commands:
        argv = shlex.split(command.replace("/tmp/", f"{tmp_path}/"), comments=True)
        assert main(argv[1:]) == 0, command
        capsys.readouterr()


MODULES = {
    name: importlib.import_module(f"tracebind.{name}")
    for name in ("cli", "errors", "trace", "identity", "metrics", "windows", "simulator", "oracle")
}


def quoted_names() -> tuple[set[str], set[str]]:
    """The backticked qualified names (``metrics.X``, ``tracebind.X``, ...),
    without any call arguments, and the bare names of backticked calls."""
    spans = re.findall(r"`([^`\n]+)`", README)
    qualified_name = re.compile(rf"(?:tracebind|{'|'.join(MODULES)})\.\w+(?:\.\w+)*")
    qualified = {m[0] for span in spans if (m := qualified_name.match(span))}
    calls = {m[1] for span in spans if (m := re.match(r"(\w+)\(", span))}
    return qualified, calls


def test_quoted_names_resolve():
    qualified, calls = quoted_names()
    assert qualified and calls
    missing = []
    for name in sorted(qualified):
        head, *rest = name.split(".")
        obj = tracebind if head == "tracebind" else MODULES[head]
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    homes = [builtins, tracebind, *MODULES.values()]
    for name in sorted(calls):
        if not any(callable(getattr(home, name, None)) for home in homes):
            missing.append(f"{name}(")
    assert missing == []


def call_graph() -> dict[str, set[str]]:
    """``module.function`` -> the ``module.function`` names it calls by bare
    name, for every top-level function of the package, by an ``ast`` walk: a
    bare name resolves to the module's own function or to what it imports
    from a sibling module, at load or inside a function."""
    graph: dict[str, set[str]] = {}
    for source in Path(tracebind.__file__).parent.glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        names = {node.name: f"{source.stem}.{node.name}" for node in functions}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        for node in functions:
            graph[names[node.name]] = {
                names[call.func.id]
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in names
            }
    return graph


def library_table() -> list[tuple[list[str], list[str]]]:
    """The Library table's rows: the backticked names of each column."""
    section = README.split("## Library", 1)[1]
    rows = re.findall(r"^\| (.+) \| (.+) \|$", section, re.M)
    return [(re.findall(r"`(\w+)`", left), re.findall(r"`([\w.]+)`", right)) for left, right in rows[1:]]


def test_library_table_names_the_code_each_function_runs():
    graph = call_graph()
    rows = library_table()
    assert len(rows) == 5
    unreached = []
    for lefts, rights in rows:
        assert lefts and rights
        for left in lefts:
            function = getattr(tracebind, left)
            reached, todo = set(), [f"{function.__module__.split('.')[-1]}.{left}"]
            while todo:
                for callee in graph.get(todo.pop(), ()):
                    if callee not in reached:
                        reached.add(callee)
                        todo.append(callee)
            unreached += [(left, right) for right in rights if right not in reached]
    assert unreached == []
