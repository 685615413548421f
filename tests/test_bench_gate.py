"""The benchmark's output gate, run as a test: the requests of the audit
workloads whose records bench/expected.json pins must still produce exactly
those records, and the other workloads' answers must pass their oracle
checks, so a change to an answer fails here, not only in a benchmark run.
bench/ is imported read-only, as in test_trace_targets.py."""

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


def _verdict(workloads, workload: str) -> dict:
    """The output check of one seed-1 repetition of the workload."""
    reqs = workloads.inputs(workload, seed=1)
    ps = build_sieve(workloads.sieve_limit(workload, reqs))
    answers = [workloads.run_request(workload, req, ps) for req in reqs]
    return workloads.check(workload, reqs, answers)


@pytest.mark.parametrize("workload", ["algebra-suite", "search-sweep"])
def test_audit_workload_records_match_the_expected_digests(workloads, workload):
    verdict = _verdict(workloads, workload)
    expected = json.loads(workloads.EXPECTED_FILE.read_text())[workload]
    assert (verdict["attempted"], verdict["failed"], verdict["problems"]) == (len(expected), 0, [])


@pytest.mark.parametrize("workload", ["point-queries", "equiv-band"])
def test_workload_answers_match_the_plain_sieve_oracle(workloads, workload):
    # these workloads pin no digests: check() recomputes every answer from
    # the benchmark's own plain Eratosthenes sieve
    verdict = _verdict(workloads, workload)
    assert verdict["attempted"] > 0
    assert (verdict["failed"], verdict["problems"]) == (0, [])
