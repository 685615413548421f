"""The test modules import no name they never read, by the same check
tests/test_trace_targets.py makes of src/: an import left behind when the
code that read it went is dead weight, and can hide which layer a test
really exercises."""

from pathlib import Path

from test_trace_targets import unread_imports

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_test_modules_read_every_import():
    unread = {path.name: sorted(names) for path in TESTS if (names := unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}
