"""The benchmark's traced runs wrap primeaudit's module attributes by name
(bench/tracing.py TARGETS), and its self-test reads each one from its
owner's own __dict__. A rename or a deleted import in src/ that would break
traced benchmark runs fails here, without running the benchmark."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)      # leave bench/ as it is
    tracing = importlib.import_module("tracing")
    missing = []
    for mod_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if leaf not in owner.__dict__:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
