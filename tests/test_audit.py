import dataclasses
import json
import os
import pickle
import re
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from primeaudit import algebra, audit, build_sieve, has_goldbach, prime_pi
from primeaudit.audit import (
    CLAIMS,
    AuditConfig,
    AuditReport,
    ClaimResult,
    ClaimSpec,
    claim_codes,
    deterministic_body,
    emit_report,
    run_claim,
    run_suite,
)
from primeaudit.algebra import Variant, q_and_c1
from primeaudit.errors import CapacityError, ClaimCheckError, GcdMismatchError, NoDecompositionError
from primeaudit.primes import PrimeSet

from conftest import EXPANDING, digit_limit, marked_set, per_a, refuse_state, td_primes_upto


def test_catalog_is_complete():
    assert claim_codes() == [
        "G-CLOSE", "G-EQUIV", "G-CONG", "G-C1", "G-QDIV", "G-C0", "G-BEZ2",
        "G-DEG", "G-EMP", "G-PRP", "G-TERN",
        "D-CLOSE", "D-EQUIV", "D-CONG", "D-C1", "D-QDIV", "D-C0", "D-BEZ2",
        "D-DEG", "D-EMP", "D-BETA",
        "P-CENSUS", "B-PRIMO",
    ]


def test_congruence_claim_over_range():
    r = run_claim("G-CONG", 4, 5000)
    assert r.status == "PASS"
    assert r.checked == 4997
    assert r.skipped == 0
    assert r.witnesses == []


def test_degree_claim_gap_witnesses():
    r = run_claim("G-DEG", 10, 10)
    assert r.status == "GAP-WITNESSED"
    assert r.witnesses == [{"a": 10, "kind": "gap",
                            "detail": {"deg": 3, "unit_bezout_verified": True}}]
    # pi(4) = 2 means degree 1: the degree conclusion holds there
    assert run_claim("G-DEG", 4, 4).status == "PASS"


def test_equivalence_claim_info_witness():
    r = run_claim("G-EQUIV", 4, 4)
    assert r.status == "PASS"
    assert r.witnesses == [{"a": 4, "kind": "info",
                            "detail": {"leftover": 5, "partitions": [[3, 5]]}}]


def test_skip_accounting():
    r = run_claim("G-EQUIV", 4, 30)
    primes_in_range = prime_pi(30, build_sieve(30)) - 2
    assert r.skipped == primes_in_range == 8
    assert r.checked + r.skipped == 27


def test_ternary_claim_counts_odd_n_only():
    r = run_claim("G-TERN", 4, 99)
    assert r.status == "PASS"
    assert r.checked == len(range(9, 100, 2))
    assert r.checked + r.skipped == 96


def test_census_claim_accounting():
    cfg = AuditConfig(census_limit=20_000, census_max_gap=10)
    r = run_claim("P-CENSUS", 4, 40, config=cfg)
    assert r.status == "PASS"
    assert r.checked == 4          # gaps 4, 6, 8, 10
    assert r.skipped == 33


def test_census_claim_with_tiny_window():
    # checkpoints stay inside the window; an over-small window fails
    # positivity honestly instead of crashing
    r = run_claim("P-CENSUS", 4, 6, config=AuditConfig(census_limit=1000, census_max_gap=10))
    assert r.status == "PASS"
    r = run_claim("P-CENSUS", 4, 4, config=AuditConfig(census_limit=6, census_max_gap=10))
    assert r.status == "FAIL"
    assert r.witnesses[0]["detail"]["counts"][-1] == 0


def test_bertrand_primorial_claim():
    r = run_claim("B-PRIMO", 4, 2000)
    assert r.status == "PASS" and r.checked == 1997


def test_unknown_claim_and_bad_ranges():
    with pytest.raises(ValueError):
        run_claim("NOPE", 4, 10)
    with pytest.raises(ValueError):
        run_claim("all", 4, 10)
    with pytest.raises(ValueError):
        run_claim("G-CONG", 3, 10)
    with pytest.raises(ValueError):
        run_claim("G-CONG", 10, 4)
    with pytest.raises(CapacityError):
        run_claim("G-QDIV", 4, 20_000)


def test_fail_witnesses_revalidate_standalone():
    # a sieve whose table marks nothing prime makes every even number a
    # "counterexample"; the recorded witnesses must agree with the
    # standalone search over the same inputs
    real = build_sieve(64)
    broken = PrimeSet(limit=64, table=bytes(len(real.table)))
    r = run_claim("G-EMP", 4, 9, ps=broken)
    assert r.status == "FAIL"
    assert [w["a"] for w in r.witnesses] == [4, 5, 6, 7, 8, 9]
    for w in r.witnesses:
        assert w["kind"] == "fail"
        assert not has_goldbach(w["a"], broken)
        assert has_goldbach(w["a"], real)


def test_injected_claim_drives_fail_status(monkeypatch):
    def make(ctx, lo, hi):
        def check(a):
            return ("fail", {"square": a * a}) if a % 7 == 0 else ("ok", None)
        return check

    spec = ClaimSpec(code="T-FAIL", summary="synthetic",
                     check_chunk=per_a("T-FAIL", make), sieve_need=lambda hi, cfg: hi,
                     suite_cap=100, chunk=4)
    monkeypatch.setitem(CLAIMS, "T-FAIL", spec)
    r = run_claim("T-FAIL", 4, 30)
    assert r.status == "FAIL"
    assert [w["a"] for w in r.witnesses] == [7, 14, 21, 28]
    assert all(w["detail"]["square"] == w["a"] ** 2 for w in r.witnesses)


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_error_names_claim_and_a(monkeypatch, eager_pool, jobs):
    def make(ctx, lo, hi):
        def check(a):
            if a == 11:
                raise ZeroDivisionError("boom")
            return ("ok", None)
        return check

    spec = ClaimSpec(code="T-BOOM", summary="synthetic",
                     check_chunk=per_a("T-BOOM", make), sieve_need=lambda hi, cfg: hi,
                     suite_cap=100, chunk=4)
    monkeypatch.setitem(CLAIMS, "T-BOOM", spec)
    with pytest.raises(ClaimCheckError) as exc:
        run_claim("T-BOOM", 4, 30, jobs=jobs)
    assert eager_pool == ([2] if jobs == 2 else [])
    assert (exc.value.claim, exc.value.a) == ("T-BOOM", 11)
    assert str(exc.value) == "claim T-BOOM raised at a = 11: ZeroDivisionError: boom"


def test_claim_spec_needs_one_check():
    # every claim is a chunk check: a spec takes one, and no predicate or
    # variant besides
    common = dict(summary="synthetic", sieve_need=lambda hi, cfg: hi, suite_cap=100, chunk=4)
    with pytest.raises(TypeError, match="check_chunk"):
        ClaimSpec(code="T-NONE", **common)
    assert [field.name for field in dataclasses.fields(ClaimSpec)] == [
        "code", "summary", "sieve_need", "suite_cap", "chunk", "check_chunk"]
    assert all(callable(spec.check_chunk) for spec in CLAIMS.values())


@pytest.mark.parametrize("exc", [GcdMismatchError("2a does not divide D", 5, {"d_mod_2a": 1}),
                                 NoDecompositionError("21 has no decomposition", 21),
                                 ClaimCheckError("G-EMP", 4, "ValueError: x")])
def test_errors_survive_pickling(exc):
    # a pool worker ships exceptions to the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_config_is_validated():
    AuditConfig(algebra_cap=4, census_limit=1, census_max_gap=2, witness_limit=0)
    for field, value in (("algebra_cap", 3), ("census_limit", 0),
                         ("census_max_gap", 1), ("witness_limit", -1)):
        with pytest.raises(ValueError, match=field):
            AuditConfig(**{field: value})


def test_witness_cap_is_ordered_prefix():
    full = run_claim("G-DEG", 8, 400)
    capped = run_claim("G-DEG", 8, 400, config=AuditConfig(witness_limit=5))
    assert capped.witnesses == full.witnesses[:5]
    assert capped.status == full.status == "GAP-WITNESSED"
    assert capped.checked == full.checked


def test_jobs_below_one_fail_before_the_sieve(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("the sieve was built before jobs was checked")

    monkeypatch.setattr(audit, "build_sieve", no_sieve)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_suite(["G-EMP"], 4, 100, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_claim("G-EQUIV", 4, 100, jobs=jobs)


def test_pool_is_capped_at_cpu_count(monkeypatch, pools):
    # checked without starting a process: one core means no pool at all
    ps, cpus = build_sieve(64), audit._cpus
    monkeypatch.setattr(audit, "_cpus", lambda: 4)
    assert audit._Runner(ps, AuditConfig(), 8).jobs == 4
    assert audit._Runner(ps, AuditConfig(), 3).jobs == 3
    monkeypatch.setattr(audit, "_cpus", lambda: 1)
    assert run_suite(["G-EMP"], 4, 70000, jobs=8).jobs == 1     # two chunks
    assert pools == []
    # the trailer reports the capped worker count, not the request
    assert run_suite(["G-EMP"], 4, 100, jobs=8).jobs == 1
    # without an affinity mask the count is os.cpu_count(), 1 when unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cores, want in ((4, 4), (1, 1), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert cpus() == want


def test_pool_is_capped_at_the_affinity_mask(monkeypatch, pools):
    # as under `taskset -c 0` on a machine of 4 CPUs: the process may run
    # on one, so a run at jobs = 8 starts no pool and reports jobs 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report = run_suite(["G-EMP"], 4, 70000, jobs=8)                 # two chunks
    assert (report.jobs, report.pooled, pools) == (1, 0, [])


def test_pool_starts_only_for_two_chunk_tasks(monkeypatch, pools):
    monkeypatch.setattr(audit, "_cpus", lambda: 2)
    ps = build_sieve(2 * 1048579)
    # with _POOL_AFTER_S = 0 the pool takes every task of a run of two or more
    with monkeypatch.context() as m:
        m.setattr(audit, "_POOL_AFTER_S", 0)
        one = run_suite(["G-EQUIV"], 9000, 9100, jobs=2)          # one 1024-wide chunk
        assert pools == [] and (one.jobs, one.pooled) == (2, 0) and one.overall_status == "PASS"
        two = run_suite(["G-EQUIV"], 8900, 10000, jobs=2)         # two chunks
        assert pools == [2] and two.pooled == 2 and two.overall_status == "PASS"
    # at the default a run shorter than what the pool costs never starts it
    pools.clear()
    sweep = run_suite(["G-EMP"], 4, 1048579, jobs=2, ps=ps)       # 16 chunks in about 12 ms
    assert pools == [] and (sweep.jobs, sweep.pooled) == (2, 0) and sweep.overall_status == "PASS"
    # a stub clock advances by the next of `costs` per task: once the run has
    # spent _POOL_AFTER_S, and the tasks left would take that long too at the
    # mean cost so far, with two tasks or more left, the pool takes the rest
    import multiprocessing

    serial = deterministic_body(emit_report(run_suite(["G-EMP"], 4, 1048579, jobs=1, ps=ps)))
    tasks = audit._tasks([("G-EMP", 4, 1048579)])
    clock, ran, handed, eval_chunk = [0.0], [], [], audit._eval_chunk

    def timed(task, room):
        clock[0] += next(steps)
        ran.append(task)
        return eval_chunk(task, room)

    stand_in = multiprocessing.get_context()

    def watched(jobs):                       # the stand-in Pool, keeping the tasks its apply_async is handed
        pool = stand_in.Pool(jobs)
        apply_async = pool.apply_async

        def kept(fn, args):
            handed.append(args[0])
            return apply_async(fn, args)

        pool.apply_async = kept
        return pool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: SimpleNamespace(Pool=watched))
    monkeypatch.setattr(audit, "_eval_chunk", timed)
    monkeypatch.setattr(audit, "time", SimpleNamespace(perf_counter=lambda: clock[0], monotonic=time.monotonic))
    default = audit._POOL_AFTER_S
    for after, costs, cut in ((default, [default] * 16, 1),    # after one task, with 15 times as long left
                              # 10 s spent after 10 tasks, but 6 left would take 6 s;
                              # after the 12 s 11th, 5 left would take 5 * 22 / 11 = 10 s
                              (10.0, [1.0] * 10 + [12.0] + [1.0] * 5, 11),
                              (9.0, [1.0] * 16, 16),             # once 9 s are spent, never 9 s left
                              (1.0, [0.0] * 14 + [100.0, 0.0], 16)):  # it pays, but one left: no pool
        pools.clear()
        ran.clear()
        handed.clear()
        steps = iter(costs)
        monkeypatch.setattr(audit, "_POOL_AFTER_S", after)
        report = run_suite(["G-EMP"], 4, 1048579, jobs=2, ps=ps)
        assert len(tasks) == 16 and ran == tasks and handed == tasks[cut:]
        assert pools == ([2] if cut < 16 else []) and report.pooled == 16 - cut
        assert deterministic_body(emit_report(report)) == serial


def test_no_worker_outlives_a_run(monkeypatch, eager_pool):
    import multiprocessing

    report = run_suite(["G-EQUIV"], 8900, 10000, jobs=2)        # two chunks: a real pool
    assert report.jobs == 2 and report.pooled == 2 and report.overall_status == "PASS"
    assert multiprocessing.active_children() == []
    real = CLAIMS["G-EQUIV"].check_chunk

    def planted(ctx, lo, hi, record):
        # the record raises past a = 9500, inside the chunk check and a worker
        def raising(a, kind, detail):
            if a > 9500:
                raise RuntimeError("planted")
            record(a, kind, detail)

        return real(ctx, lo, hi, raising)

    monkeypatch.setitem(CLAIMS, "G-EQUIV", dataclasses.replace(CLAIMS["G-EQUIV"], check_chunk=planted))
    with pytest.raises(ClaimCheckError, match="planted"):
        run_suite(["G-EQUIV"], 8900, 10000, jobs=2)
    assert eager_pool == [2, 2] and multiprocessing.active_children() == []


def test_jobs_do_not_change_results(eager_pool):
    for claims in (["G-DEG", "G-EQUIV", "P-CENSUS"], "all"):
        cfg = AuditConfig(census_limit=20_000)
        seq = run_suite(claims, 4, 90, jobs=1, config=cfg)
        par = run_suite(claims, 4, 90, jobs=3, config=cfg)
        assert (seq.pooled, par.jobs) == (0, 2) and par.pooled > 1
        assert deterministic_body(emit_report(seq)) == deterministic_body(emit_report(par))
        assert deterministic_body(emit_report(seq, "csv")) == deterministic_body(emit_report(par, "csv"))


@pytest.mark.parametrize("offered, method", [(["fork", "spawn", "forkserver"], "fork")])
def test_jobs_do_not_change_results_under_either_start_method(monkeypatch, eager_pool, offered, method):
    # CPython offers forkserver only where it offers fork, so the pool forks
    import multiprocessing

    started = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: offered)
    monkeypatch.setattr(multiprocessing, "get_context", lambda m=None: started.append(m) or get_context(m))
    cfg = AuditConfig(census_limit=20_000)
    seq = run_suite("all", 4, 1500, jobs=1, config=cfg)
    par = run_suite("all", 4, 1500, jobs=2, config=cfg)
    assert started == [method] and eager_pool == [2] and par.jobs == 2 and par.pooled > 1
    assert deterministic_body(emit_report(seq)) == deterministic_body(emit_report(par))


def test_suite_results_sorted_and_aggregated():
    rep = run_suite(["G-DEG", "B-PRIMO", "D-CONG"], 4, 60)
    assert [r.claim for r in rep.results] == ["B-PRIMO", "D-CONG", "G-DEG"]
    assert rep.overall_status == "GAP-WITNESSED"
    assert rep.exit_code == 0


def test_empty_suite_is_pass():
    rep = run_suite([], 4, 10)
    assert rep.results == []
    assert rep.overall_status == "PASS"
    assert rep.exit_code == 0
    assert emit_report(rep).count("\n") == 2     # meta + trailer


def test_suite_clamps_all_to_caps():
    rep = run_suite("all", 2001, 2100)
    by_code = {r.claim: r for r in rep.results}
    assert by_code["G-C1"].status == "SKIPPED"
    assert by_code["G-C1"].a_hi == 2000
    assert by_code["G-EMP"].status == "PASS"
    assert by_code["G-EMP"].a_hi == 2100
    # explicit listing does not clamp
    r = run_claim("G-C1", 2001, 2100)
    assert r.status == "PASS" and r.checked == 100


def test_all_obeys_the_algebra_cap():
    # under 'all' a claim that expands runs to the least of a_hi, its suite
    # cap and the configured algebra cap; every other claim keeps its suite cap
    cfg = AuditConfig(algebra_cap=100, census_limit=10**4)
    by_code = {r.claim: r for r in run_suite("all", 4, 300, config=cfg).results}
    for code, r in by_code.items():
        if code in EXPANDING:
            assert (r.a_hi, r.checked + r.skipped) == (100, 97), code
        else:
            assert r.a_hi == 300, code
        assert r.status != "FAIL", code
    # a cap below a_lo leaves every claim that expands unrun, and only those
    by_code = {r.claim: r for r in run_suite("all", 200, 300, config=cfg).results}
    for code, r in by_code.items():
        if code in EXPANDING:
            assert (r.a_hi, r.status, r.checked, r.skipped) == (100, "SKIPPED", 0, 0), code
        else:
            assert r.a_hi == 300 and r.checked, code


ALGEBRA = [c for c in claim_codes() if CLAIMS[c].suite_cap == audit.ALGEBRA_SUITE_CAP]


def test_only_the_capped_predicates_read_the_coefficient_list(ps_small, monkeypatch):
    # the algebra cap stays on G-/D-QDIV and C0, but no algebra claim reads a
    # coefficient list any more: on a true table each claim run alone, with
    # every record kept, and the four capped claims up to the cap give the
    # same bodies when the library refuses to expand the polynomial,
    # evaluate it or multiply out a product
    assert audit._ALGEBRA_CAPPED == set(EXPANDING)
    runs = [([code], a, a, ps_small, AuditConfig(witness_limit=10**6)) for code in ALGEBRA for a in (4, 30, 97, 1000)]
    runs.append((EXPANDING, 4, 10_000, None, AuditConfig()))

    def bodies():
        return [deterministic_body(emit_report(run_suite(claims, lo, hi, ps=ps, config=config)))
                for claims, lo, hi, ps, config in runs]

    want = bodies()

    def refuse(*args):
        raise LookupError("an expansion, an evaluation or a product was formed")

    refuse_state(monkeypatch, refuse, ("_mul_linear", "_q_and_c1_from", "vieta_coefficients", "_int64_product"))
    assert bodies() == want


def test_close_and_equiv_build_no_state_on_a_true_table(monkeypatch):
    # on a true table CLOSE and EQUIV are decided by the facts they reduce
    # to, an ordered prime array and the table's agreement with the primes,
    # so a run of them alone expands, evaluates and forms D nowhere
    def refuse(*args):
        raise LookupError("an expansion, an evaluation or D was formed")

    refuse_state(monkeypatch, refuse)
    results = run_suite(["G-CLOSE", "D-CLOSE", "G-EQUIV", "D-EQUIV"], 4, 3000).results
    assert [(r.claim, r.status, r.checked + r.skipped) for r in results] == [
        (code, "PASS", 2997) for code in ("D-CLOSE", "D-EQUIV", "G-CLOSE", "G-EQUIV")]


def test_cong_bez2_and_deg_form_neither_the_product_nor_d(monkeypatch):
    # on a true table CONG, BEZ2 and DEG are decided by the facts they
    # reduce to, an identity in the roots and the table's agreement with the
    # primes, so a run of them alone expands, evaluates and forms no
    # product, below the algebra cap and past it
    def refuse(*args):
        raise LookupError("an expansion, an evaluation or a product was formed")

    refuse_state(monkeypatch, refuse, ("_mul_linear", "_q_and_c1_from", "vieta_coefficients", "_int64_product"))
    codes = [f"{v}-{c}" for v in "GD" for c in ("CONG", "BEZ2", "DEG")]
    for lo, hi in ((4, 3000), (99_000, 99_100)):
        results = run_suite(codes, lo, hi).results
        assert [(r.claim, r.status, r.checked, r.fail_count) for r in results] == [
            (code, "GAP-WITNESSED" if code.endswith("DEG") else "PASS", hi - lo + 1, 0) for code in sorted(codes)]


TRUE_PRIMES = set(td_primes_upto(1000))


@pytest.mark.parametrize("marked, falls_back", [
    (TRUE_PRIMES | {9, 25}, True),
    (TRUE_PRIMES - {997}, False),          # wrong only past 3a + 3 at every a <= 300
    ({2, 3, 5, 7, 11, 13}, True),
], ids=["composites marked", "997 missed", "primes missed"])
def test_close_and_equiv_build_no_state_on_a_marked_table(monkeypatch, marked, falls_back):
    # CLOSE holds on every table PrimeSet accepts, and where the table
    # disagrees with the primes too early, EQUIV trial-divides a product it
    # forms from the prime array; neither expands, evaluates or forms D
    def refuse(*args):
        raise LookupError("an expansion, an evaluation or D was formed")

    products, int64_product = [], audit._int64_product

    def counted(values):
        products.append(values.size)
        return int64_product(values)

    refuse_state(monkeypatch, refuse)
    monkeypatch.setattr(audit, "_int64_product", counted)
    results = run_suite(["G-CLOSE", "D-CLOSE", "G-EQUIV", "D-EQUIV"], 4, 300, ps=marked_set(marked, 1000),
                        config=AuditConfig(witness_limit=10**6)).results
    assert [(r.claim, r.checked + r.skipped) for r in results] == [
        (code, 297) for code in ("D-CLOSE", "D-EQUIV", "G-CLOSE", "G-EQUIV")]
    assert [r.status for r in results if r.claim.endswith("CLOSE")] == ["PASS", "PASS"]
    assert bool(products) == falls_back


@pytest.mark.parametrize("code", [c for c in ALGEBRA if c not in EXPANDING])
def test_a_claim_that_expands_nothing_runs_past_the_algebra_cap(code):
    # listed, it runs past the default cap as it runs under a raised one:
    # each is a chunk check that reads the table, and only DEG records gaps
    assert 10_001 > AuditConfig().algebra_cap
    got = run_claim(code, 10_001, 12_000)
    assert got == run_claim(code, 10_001, 12_000, config=AuditConfig(algebra_cap=10**5))
    assert got.status == ("GAP-WITNESSED" if code.endswith("DEG") else "PASS")
    assert got.checked + got.skipped == 2000


def test_counts_are_true_past_the_witness_limit():
    # 19 composite a in 4..30, each an info record; one is kept
    r = run_claim("G-EQUIV", 4, 30, config=AuditConfig(witness_limit=1))
    assert r.witness_count == len(r.witnesses) == 1
    assert (r.fail_count, r.gap_count, r.info_count) == (0, 0, 19)
    rec = json.loads(emit_report(AuditReport([r], {}, 0.0, 1)).splitlines()[1])
    assert [rec[k] for k in ("witness_count", "fail_count", "gap_count", "info_count")] == [1, 0, 0, 19]
    # each claim counts its own kinds: G-DEG has a gap at every a >= 5 (pi(a) >= 3)
    cong, deg = run_suite(["G-DEG", "G-CONG"], 4, 60, config=AuditConfig(witness_limit=2)).results
    assert [(r.claim, r.witness_count, r.fail_count, r.gap_count, r.info_count) for r in (cong, deg)] == [
        ("G-CONG", 0, 0, 0, 0), ("G-DEG", 2, 0, len(range(5, 61)), 0)]


def test_jsonl_record_shape():
    rep = run_suite(["G-DEG"], 10, 10)
    lines = emit_report(rep).splitlines()
    assert lines[0].startswith('{"meta":')
    meta = json.loads(lines[0])["meta"]
    assert meta["tool"] == "primeaudit" and meta["claims"] == ["G-DEG"]
    rec = json.loads(lines[1])
    assert list(rec) == ["claim", "a_lo", "a_hi", "status", "checked", "skipped",
                         "witness_count", "fail_count", "gap_count", "info_count", "witnesses"]
    assert [rec[k] for k in ("witness_count", "fail_count", "gap_count", "info_count")] == [1, 0, 1, 0]
    trailer = json.loads(lines[2])["trailer"]
    assert list(trailer) == ["elapsed_s", "jobs", "pooled"]
    assert (trailer["jobs"], trailer["pooled"]) == (1, 0)


@pytest.mark.parametrize("limit", [640, 4300])
def test_emit_report_writes_ints_of_any_size(limit):
    # a 5000-digit leftover, as G-/D-EQUIV info records carry near a = 10^5,
    # next to every other JSON type a record can hold
    big = 3**10478
    detail = {"leftover": big, "negative": -big, "pairs": [[3, 7], (5, 11)], "small": 12,
              "flag": True, "none": None, "ratio": 0.5, "text": "é\n", 7: "int key"}
    res = ClaimResult("G-EQUIV", 4, 4, "PASS", 1, 0, [{"a": 4, "kind": "info", "detail": detail}])
    rep = AuditReport(results=[res], meta={"tool": "primeaudit"}, elapsed_s=0.0, jobs=1)
    with digit_limit(limit):
        text = emit_report(rep)
        assert sys.get_int_max_str_digits() == limit
    with digit_limit(0):
        assert len(str(big)) == 5000
        assert text == emit_report(rep)          # byte for byte what json.dumps writes without a limit
        rec = json.loads(text.splitlines()[1])
    assert rec["witnesses"][0]["detail"]["leftover"] == big
    assert rec["witnesses"][0]["detail"]["negative"] == -big


@given(n=st.integers(-10**20_000, 10**20_000)
       | st.builds(lambda k, d, sign: sign * (10**k + d), st.integers(590, 9000), st.integers(0, 10**6),
                   st.sampled_from([1, -1])))
def test_decimal_writes_any_int_exactly(n):
    # the second strategy's long runs of zeros need every split's low part padded
    with digit_limit(640):
        text = audit._decimal(n)
    with digit_limit(0):
        assert text == str(n)


def test_csv_schema():
    rep = run_suite(["G-CONG"], 4, 50)
    lines = emit_report(rep, "csv").splitlines()
    assert lines[0] == "claim,a_lo,a_hi,status,checked,witness_count,fail_count,gap_count,info_count"
    assert lines[1] == "G-CONG,4,50,PASS,47,0,0,0,0"
    assert re.fullmatch(r"# elapsed_s=\d+\.\d{3} jobs=1 pooled=0", lines[2])
    with pytest.raises(ValueError):
        emit_report(rep, "xml")


def test_emit_report_takes_only_json_and_csv():
    rep = run_suite(["G-CONG"], 4, 10)
    with pytest.raises(ValueError, match="expected json or csv"):
        emit_report(rep, "jsonl")


def test_deterministic_body_strips_only_trailer():
    rep = run_suite(["G-CONG"], 4, 10)
    body = deterministic_body(emit_report(rep))
    assert "trailer" not in body
    assert body.startswith('{"meta":')
    body = deterministic_body(emit_report(rep, "csv"))
    assert "#" not in body


def test_round_trip_witnesses_revalidate():
    rep = run_suite(["G-DEG", "D-DEG"], 8, 40)
    ps = build_sieve(200)
    for line in emit_report(rep).splitlines()[1:-1]:
        rec = json.loads(line)
        assert rec["status"] == "GAP-WITNESSED"
        for w in rec["witnesses"]:
            a = w["a"]
            assert w["detail"]["deg"] == prime_pi(a, ps) - 1
            variant = Variant.SUM if rec["claim"].startswith("G") else Variant.DIFF
            q_value, c1 = q_and_c1(a, variant, ps)
            assert w["detail"]["unit_bezout_verified"]
            # the recorded premise re-verifies: gcd(2a, Q + c1) = 1
            import math
            assert math.gcd(2 * a, q_value + c1) == 1


def test_equivalence_cross_oracle_over_range():
    assert run_claim("G-EQUIV", 4, 600).status == "PASS"
    assert run_claim("D-EQUIV", 4, 600).status == "PASS"


def test_full_catalog_expected_statuses():
    rep = run_suite("all", 4, 2000, config=AuditConfig(census_limit=100_000))
    statuses = {r.claim: r.status for r in rep.results}
    assert statuses.pop("G-DEG") == "GAP-WITNESSED"
    assert statuses.pop("D-DEG") == "GAP-WITNESSED"
    assert set(statuses.values()) == {"PASS"}
    assert rep.exit_code == 0
