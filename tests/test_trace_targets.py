"""The benchmark's traced runs wrap primeaudit's module attributes by name
(bench/tracing.py TARGETS), and its self-test reads each one from its
owner's own __dict__. A rename or a deleted import in src/ that would break
traced benchmark runs fails here, without running the benchmark. The
converse holds too: a module imports no name it never reads, unless the
tracer wraps it there."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
MODULES = sorted(p for p in (ROOT / "src" / "primeaudit").glob("*.py") if p.name != "__init__.py")


@pytest.fixture
def targets(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)      # leave bench/ as it is
    return importlib.import_module("tracing").TARGETS


def unread_imports(source: str) -> set[str]:
    """The names a module's imports bind and its code never loads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_unread_imports_are_trace_targets(targets):
    extra = {}
    for path in MODULES:
        wrapped = {attr for mod, attr, _, _ in targets if mod == f"primeaudit.{path.stem}"}
        unread = unread_imports(path.read_text(encoding="utf-8")) - wrapped
        if unread:
            extra[path.name] = sorted(unread)
    assert extra == {}


def test_unread_imports_are_found():
    assert unread_imports("from __future__ import annotations\nimport os, numpy as np\n"
                          "from .m import a, b as c, d\nx: int = a(np)\n") == {"os", "c", "d"}


def test_every_trace_target_resolves(targets):
    missing = []
    for mod_name, attr, _, _ in targets:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if leaf not in owner.__dict__:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
