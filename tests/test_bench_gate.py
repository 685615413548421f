"""The benchmark's output gate, run as a test: the requests of the audit
workloads whose records bench/expected.json pins must still produce exactly
those records, so a change to a report fails here, not only in a benchmark
run. bench/ is imported read-only, as in test_trace_targets.py."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from primeaudit import build_sieve

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)      # leave bench/ as it is
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["algebra-suite", "search-sweep"])
def test_audit_workload_records_match_the_expected_digests(workloads, workload):
    reqs = workloads.inputs(workload, seed=1)
    ps = build_sieve(workloads.sieve_limit(workload, reqs))
    answers = [workloads.run_request(workload, req, ps) for req in reqs]
    verdict = workloads.check(workload, reqs, answers)
    expected = json.loads(workloads.EXPECTED_FILE.read_text())[workload]
    assert (verdict["attempted"], verdict["failed"], verdict["problems"]) == (len(expected), 0, [])
