"""README's examples run as written: its Python block, and each shell line
that calls ``tracebind``, with ``/tmp/`` replaced by a test directory.  The
names it quotes exist."""

from __future__ import annotations

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
    for name in ("cli", "trace", "identity", "metrics", "windows", "simulator", "oracle")
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
