"""Details built only for kept records, and G-/D-C1's table scan widened
O(log) times per process.

G-/D-EQUIV hand their agreement-path detail back unbuilt, as G-/D-C1,
C0, BEZ2 and DEG hand back their FAIL details, and audit._Tally.record
builds it only for a record it keeps. The eager predicates the audit ran
before are kept below as the oracle, with conftest's old_c1 and old_beta
for the chunk checks that replaced G-/D-C1 and D-BETA.
"""

import dataclasses
import math
import time
from types import SimpleNamespace

import pytest

from primeaudit import algebra, audit
from primeaudit.algebra import Variant, smoothness_factorization
from primeaudit.audit import CLAIMS, AuditConfig, _AuditContext, deterministic_body, emit_report, run_suite
from primeaudit.errors import ClaimCheckError
from primeaudit.partitions import _partners

from conftest import OracleState, marked_set, over_states, per_a, table_oracle, td_primes_upto

EQUIV = ["G-EQUIV", "D-EQUIV"]


# --- the eager oracle ----------------------------------------------------------

def eager_equiv(st: OracleState, ctx: _AuditContext):
    ps = ctx.ps
    if st.variant is Variant.SUM and ps.is_prime(st.a):
        return ("skip", None)
    two_a, sign = 2 * st.a, (-1 if st.variant is Variant.SUM else 1)
    pairs = [[p, two_a + sign * p] for p in _partners(ps, two_a, sign, st.k)]
    ends = (st.primes[0], st.primes[st.k - 1]) if st.k else ()   # the largest complement is at an end
    if ctx.agreement(st.a) >= max([st.a + 1, *(two_a + sign * p for p in ends)]):
        residue = math.prod([q for _, q in pairs])
    else:
        rep = smoothness_factorization(st.product, st.a, ps)
        residue = rep.above_bound_part if st.variant is Variant.SUM else rep.leftover
    key = "partitions" if st.variant is Variant.SUM else "pairs"
    detail = {"leftover": residue, key: pairs}
    if (residue == 1) == (not pairs):
        return ("ok", detail)
    detail["product"] = st.product
    return ("fail", detail)


EAGER = {"G-EQUIV": (Variant.SUM, eager_equiv), "D-EQUIV": (Variant.DIFF, eager_equiv)}
TABLE = ["G-C1", "D-C1", "D-BETA"]


# --- reports -----------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("limit", [0, 1, 16, 10**6])
def test_reports_match_the_eager_predicates(eager_pool, jobs, limit):
    # 4..1100 crosses an algebra chunk boundary, so jobs = 2 runs a real pool
    codes, config = [*EQUIV, *TABLE], AuditConfig(witness_limit=limit)
    got = deterministic_body(emit_report(run_suite(codes, 4, 1100, jobs=jobs, config=config)))
    with pytest.MonkeyPatch.context() as mp:
        for code, (variant, predicate) in EAGER.items():
            mp.setitem(CLAIMS, code, dataclasses.replace(CLAIMS[code],
                                                         check_chunk=per_a(code, over_states(variant, predicate))))
        for code in TABLE:
            mp.setitem(CLAIMS, code, dataclasses.replace(CLAIMS[code], check_chunk=table_oracle(code)))
        want = deterministic_body(emit_report(run_suite(codes, 4, 1100, jobs=jobs, config=config)))
    assert eager_pool == ([2, 2] if jobs == 2 else [])
    assert got == want


def cut_after_the_first_task(monkeypatch):
    """A stub clock on which the first chunk task takes 1 s, so that a run
    at jobs = 2 with two tasks or more after it pools every later task."""
    clock = iter([0.0, 0.0])
    monkeypatch.setattr(audit, "time", SimpleNamespace(perf_counter=lambda: next(clock, 1.0),
                                                       monotonic=time.monotonic))
    monkeypatch.setattr(audit, "_POOL_AFTER_S", 1.0)
    monkeypatch.setattr(audit, "_cpus", lambda: 2)


# --- what is built -----------------------------------------------------------

def test_no_detail_past_the_limit_is_built(monkeypatch, pools):
    partner_calls = []

    def counted(ps, n, sign, k):
        partner_calls.append(n)
        return _partners(ps, n, sign, k)

    monkeypatch.setattr(audit, "_partners", counted)
    results = run_suite(EQUIV, 4, 2000, config=AuditConfig(witness_limit=0)).results
    assert [(r.status, r.witness_count) for r in results] == [("PASS", 0)] * 2
    assert sum(r.info_count for r in results) > 3000 and partner_calls == []
    # a chunk records into tallies with only the room the run has left, so
    # a second chunk (1028..2000) builds nothing once 16 are kept
    results = run_suite(EQUIV, 4, 2000).results
    assert [r.witness_count for r in results] == [16, 16]
    assert len(partner_calls) == 2 * 16
    # a pooled chunk records the same way: after the first chunk of 4..3000
    # the pool takes the two others, and they build nothing either
    partner_calls.clear()
    cut_after_the_first_task(monkeypatch)
    report = run_suite(EQUIV, 4, 3000, jobs=2)
    assert pools == [2] and report.pooled == 2
    assert [r.witness_count for r in report.results] == [16, 16]
    assert len(partner_calls) == 2 * 16


@pytest.mark.parametrize("codes, hi, limit, workers_keep", [
    (EQUIV, 3000, 16, False),                    # the first task fills each kind that records
    (["G-EQUIV", "G-DEG"], 5000, 1000, True),    # it fills G-DEG's gaps, not G-EQUIV's infos
])
def test_a_worker_keeps_only_the_room_left_at_the_cut(monkeypatch, eager_pool, codes, hi, limit, workers_keep):
    # a forked worker inherits the merged tallies as they stood when the pool
    # took over, so what it keeps, and builds, of each kind is bounded by
    # what the run had room for then
    config = AuditConfig(witness_limit=limit)
    serial = deterministic_body(emit_report(run_suite(codes, 4, hi, config=config)))
    calls, merge = [], audit._Tally.merge

    def watched(self, later):
        calls.append((id(self), {key: limit - len(kept) for key, kept in self.kept.items()}, later))
        merge(self, later)

    monkeypatch.setattr(audit._Tally, "merge", watched)
    cut_after_the_first_task(monkeypatch)
    report = run_suite(codes, 4, hi, jobs=2, config=config)
    assert eager_pool == [2] and report.pooled > 0
    assert deterministic_body(emit_report(report)) == serial
    # the run merges in task order and the pool takes a suffix of the tasks
    pooled, at_cut = calls[-report.pooled * len(codes):], {}
    for merged, room, later in pooled:
        room = at_cut.setdefault(merged, room)       # what the run had room for when the pool took over
        assert any(later.counts.values()) and all(len(later.kept[key]) <= room[key] for key in room)
    assert any(later.kept["info"] for _, _, later in pooled) == workers_keep


def test_pooled_tasks_keep_at_most_a_window_past_the_limit(monkeypatch, eager_pool):
    # the runner hands each pooled task the room the run has left with at
    # most 2 * jobs tasks out past the last one merged, so the infos the
    # pooled tallies keep, and build, pass the limit by at most that many
    # chunks
    config = AuditConfig(witness_limit=2000)
    serial = deterministic_body(emit_report(run_suite(["G-EQUIV"], 4, 20000, config=config)))
    later, merge = [], audit._Tally.merge

    def watched(self, tally):
        later.append(tally)
        merge(self, tally)

    monkeypatch.setattr(audit._Tally, "merge", watched)
    cut_after_the_first_task(monkeypatch)
    report = run_suite(["G-EQUIV"], 4, 20000, jobs=2, config=config)
    assert eager_pool == [2] and report.pooled == len(later) - 1 == 19
    assert sum(len(tally.kept["info"]) for tally in later[1:]) <= 2000 + 2 * 2 * audit.ALGEBRA_CHUNK
    assert deterministic_body(emit_report(report)) == serial


def test_a_pooled_task_is_handed_the_room_left_before_the_window(monkeypatch, pools):
    # every task pooled at jobs = 2: task i is handed what the limit leaves
    # of the records of every task but the last 2 * 2 handed out before it,
    # so of tasks 0 .. i - 5, counted here one task at a time
    codes, hi, limit = ["G-EMP", "G-EQUIV", "G-DEG"], 12000, 3000
    ps = audit.build_sieve(2 * hi)
    tasks = audit._tasks([(code, 4, hi) for code in codes])
    counts = []
    for task_codes, lo, top in tasks:
        results = run_suite(list(task_codes), lo, top, ps=ps, config=AuditConfig(witness_limit=0)).results
        counts.append({r.claim: {"fail": r.fail_count, "gap": r.gap_count, "info": r.info_count} for r in results})
    handed, eval_chunk = [], audit._eval_chunk

    def watched(task, room):
        handed.append((task, room))
        return eval_chunk(task, room)

    monkeypatch.setattr(audit, "_eval_chunk", watched)
    monkeypatch.setattr(audit, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(audit, "_cpus", lambda: 2)
    report = run_suite(codes, 4, hi, jobs=2, ps=ps, config=AuditConfig(witness_limit=limit))
    assert pools == [2] and report.pooled == len(tasks) == 13 and [task for task, _ in handed] == tasks
    for i, (task, room) in enumerate(handed):
        merged = counts[:max(i - 4, 0)]
        want = {code: {key: limit - min(limit, sum(c[code][key] for c in merged if code in c))
                       for key in ("fail", "gap", "info")} for code in task[0]}
        assert room == want
    assert {room["G-DEG"]["gap"] for _, room in handed[1:]} > {0, limit}      # some rooms partly spent
    serial = run_suite(codes, 4, hi, ps=ps, config=AuditConfig(witness_limit=limit))
    assert deterministic_body(emit_report(report)) == deterministic_body(emit_report(serial))


@pytest.mark.parametrize("code, a, limit", [("G-EQUIV", 4, 1), ("D-EQUIV", 9, 16)])
def test_a_detail_that_raises_names_the_claim_and_a(monkeypatch, code, a, limit):
    def planted(ps, n, sign, k):
        if n == 2 * a:
            raise ZeroDivisionError("planted")
        return _partners(ps, n, sign, k)

    monkeypatch.setattr(audit, "_partners", planted)
    with pytest.raises(ClaimCheckError) as exc:
        run_suite([code], 4, 30, config=AuditConfig(witness_limit=limit))
    assert (exc.value.claim, exc.value.a) == (code, a)
    assert str(exc.value) == f"claim {code} raised at a = {a}: ZeroDivisionError: planted"
    # past the limit the detail is never built, so nothing raises
    assert run_suite([code], 4, 30, config=AuditConfig(witness_limit=0)).results[0].status == "PASS"


def test_c1_scans_the_table_log_times_per_process(monkeypatch):
    # in chunks of 1024 over 4..1e5, both variants read one scan per window
    # of the context, each over the primes up to half the window, and the
    # window at least doubles from one to the next up to the sieve limit, so
    # the run scans the table 8 times
    halves, simple_sieve = [], audit._simple_sieve

    def counted(limit):
        halves.append(limit)
        return simple_sieve(limit)

    monkeypatch.setattr(audit, "_simple_sieve", counted)
    for code in ("G-C1", "D-C1"):
        monkeypatch.setitem(CLAIMS, code, dataclasses.replace(CLAIMS[code], chunk=audit.ALGEBRA_CHUNK))
    results = run_suite(["G-C1", "D-C1"], 4, 10**5).results
    assert [(r.status, r.checked) for r in results] == [("PASS", 10**5 - 3)] * 2
    assert len(halves) == 1 + math.ceil(math.log2(10**5 / audit.ALGEBRA_CHUNK)) and halves[-1] == 10**5 // 2
    assert all(later >= 2 * half for half, later in zip(halves, halves[1:-1]))


@pytest.mark.parametrize("limit", [1, 16])
def test_no_fail_detail_past_the_limit_forms_the_product(monkeypatch, limit):
    # a table without 3 breaks gcd(2a, c1) = 1 at 236 a per variant over
    # 4..2000. C0's detail prints gcd(2a, D/2a), BEZ2's D and DEG's D/2a, so
    # each kept record forms the product of its complements, once per
    # (a, variant) since C0, BEZ2 and DEG fail at the same a and the context
    # keeps D for the chunk; a record past the limit forms none
    products = []
    int64_product = algebra._int64_product

    def product(values):
        products.append(values.tolist())
        return int64_product(values)

    monkeypatch.setattr(algebra, "_int64_product", product)
    ps = marked_set(set(td_primes_upto(6003)) - {3}, 6003)
    codes = [f"{v}-{c}" for v in "GD" for c in ("CONG", "BEZ2", "DEG", "C1", "C0")]
    report = run_suite(codes, 4, 2000, ps=ps, config=AuditConfig(witness_limit=limit))
    results = {r.claim: r for r in report.results}
    for v in "GD":
        assert [results[f"{v}-{c}"].fail_count for c in ("CONG", "BEZ2", "DEG", "C1", "C0")] == [0, 236, 236, 0, 236]
        kept = [w["a"] for w in results[f"{v}-BEZ2"].witnesses]
        assert kept == [w["a"] for w in results[f"{v}-DEG"].witnesses if w["kind"] == "fail"]
        assert kept == [w["a"] for w in results[f"{v}-C0"].witnesses]
        assert len(kept) == limit
    assert sorted(products) == sorted([2 * w["a"] + (-p if v == "G" else p) for p in ps.prime_list if p <= w["a"]]
                                      for v in "GD" for w in results[f"{v}-BEZ2"].witnesses)
