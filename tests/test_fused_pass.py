"""The algebra claims against the per-claim oracle. Every algebra claim is
a chunk check of the table facts it reduces to: G-/D-CLOSE, CONG and QDIV
are identities in the roots (audit._identity); G-/D-C1 and D-BETA read
where the table marks two multiples of a prime, or a + 1 (audit._c1,
audit._beta); G-/D-C0, BEZ2 and DEG hold exactly where gcd(2a, c1) = 1,
which audit._nonunits decides from the primes of 2a where the table
disagrees with the primes too early (audit._unit_bracket); G-/D-EQUIV
trusts the table as far as it agrees with the primes and trial-divides
each a past that (audit._equivalence).

The oracle is the per-claim path the audit ran before: conftest.over_states
builds one conftest.OracleState per claim and a, each of its objects
computed the plain way, and the old_* predicates run on it. The predicates
are kept verbatim below, renamed with the old_ prefix; old_qdiv and old_c0
read the expansion, and old_bez2 and old_deg solve the witness. conftest
keeps old_c1, old_beta and the residue_* predicates that CONG, BEZ2 and DEG
ran in the fused walk before. The differential test runs any subset of the
17 algebra claims both ways, with every record kept.
"""

import dataclasses
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from primeaudit import algebra, audit, build_sieve
from primeaudit.algebra import (
    Variant,
    _q_and_c1_from,
    smoothness_factorization,
    solve_quadratic_bezout,
    solve_unit_bezout,
)
from primeaudit.audit import (
    ALGEBRA_SUITE_CAP,
    CLAIMS,
    AuditConfig,
    _AuditContext,
    claim_codes,
    deterministic_body,
    emit_report,
    run_suite,
)
from primeaudit.errors import ClaimCheckError, GcdMismatchError
from primeaudit.partitions import _partners

from conftest import (
    TABLE_ORACLES,
    OracleState,
    is_rough_part,
    marked_set,
    old_beta,
    old_c1,
    over_states,
    per_a,
    refuse_state,
    td_primes_upto,
)

EVERY_RECORD = AuditConfig(witness_limit=10**6)
ALGEBRA = [c for c in claim_codes() if CLAIMS[c].suite_cap == ALGEBRA_SUITE_CAP]
MARKED_LIMIT = 1000              # past 3a + 3 at every a <= 300, so run_suite keeps the marked table
TRUE_PRIMES = set(td_primes_upto(MARKED_LIMIT))


# --- the per-claim oracle ----------------------------------------------------

def old_close(st: OracleState, ctx: _AuditContext):
    a, k, two_a = st.a, st.k, 2 * st.a
    plist, qs = st.primes, st.complements
    problems = {}
    if st.variant is Variant.SUM:
        if any(q + p != two_a for p, q in zip(plist, qs)):
            problems["pair_identity"] = False
        if any(qs[i] <= qs[i + 1] for i in range(len(qs) - 1)):
            problems["strictly_decreasing"] = False
        if qs and not (a <= qs[-1] and qs[0] <= two_a - 2):
            problems["bounds"] = [qs[-1], qs[0]]
    else:
        if any(q - p != two_a for p, q in zip(plist, qs)):
            problems["pair_identity"] = False
        if any(qs[i] >= qs[i + 1] for i in range(len(qs) - 1)):
            problems["strictly_increasing"] = False
        if qs and not (two_a + 2 <= qs[0] and qs[-1] <= 3 * a):
            problems["bounds"] = [qs[0], qs[-1]]
    if len(qs) != k:
        problems["count"] = [len(qs), k]
    return ("fail", problems) if problems else ("ok", None)


def old_equiv(st: OracleState, ctx: _AuditContext):
    """Every complement is below 3a, so its only possible prime factor above a
    is itself, or a+1 in the diff variant (2a + 2 = 2(a+1)). The residue is
    therefore the product of the prime complements, certified against the
    primes <= a (and a+1 in the diff variant). Trial division runs only when
    the certificate rejects it, as on a table that marks a composite prime,
    so the leftover never depends on the table."""
    ps = ctx.ps
    if st.variant is Variant.SUM and ps.is_prime(st.a):
        return ("skip", None)
    two_a, sign = 2 * st.a, (-1 if st.variant is Variant.SUM else 1)
    pairs = [[p, two_a + sign * p] for p in _partners(ps, two_a, sign, st.k)]
    residue = math.prod(q for _, q in pairs)
    base = abs(st.c0)
    if st.variant is Variant.DIFF and ps.is_prime(st.a + 1):
        base *= st.a + 1
    if not is_rough_part(st.product, residue, base):
        rep = smoothness_factorization(st.product, st.a, ps)
        residue = rep.above_bound_part if st.variant is Variant.SUM else rep.leftover
    key = "partitions" if st.variant is Variant.SUM else "pairs"
    detail = {"leftover": residue, key: pairs}
    if (residue == 1) == (not pairs):
        return ("ok", detail)
    detail["product"] = st.product
    return ("fail", detail)


def old_cong(st: OracleState, ctx: _AuditContext):
    m = 2 * st.a
    lhs = 1
    for q in st.complements:         # reducing as it goes beats reducing the full product
        lhs = lhs * q % m
    rhs = st.c0 % m
    if lhs == rhs:
        return ("ok", None)
    return ("fail", {"product_mod_2a": lhs, "signed_primorial_mod_2a": rhs})


def old_qdiv(st: OracleState, ctx: _AuditContext):
    c = st.coeffs
    two_a = 2 * st.a
    q_value, c1 = _q_and_c1_from(c, two_a)
    problems = {}
    if c[0] + two_a * (q_value + c1) != st.product:
        problems["expansion_identity"] = False
    if q_value % two_a:
        problems["q_mod_2a"] = q_value % two_a
    return ("fail", problems) if problems else ("ok", None)


def old_c0(st: OracleState, ctx: _AuditContext):
    two_a = 2 * st.a
    d = st.difference
    q_value, c1 = _q_and_c1_from(st.coeffs, two_a)
    bracket = q_value + c1
    problems = {}
    if d == 0:
        problems["d_zero"] = True
    if d % two_a:
        problems["d_mod_2a"] = d % two_a
    elif math.gcd(two_a, d // two_a) != 1:
        problems["gcd_2a_d_over_2a"] = math.gcd(two_a, d // two_a)
    if abs(d) != two_a * abs(bracket):
        problems["d_vs_bracket"] = [abs(d), abs(bracket)]
    if abs(d) <= abs(bracket):
        problems["d_not_larger"] = True
    return ("fail", problems) if problems else ("ok", None)


def old_bez2(st: OracleState, ctx: _AuditContext):
    two_a = 2 * st.a
    try:
        u, v = solve_quadratic_bezout(two_a, st.difference)
    except GcdMismatchError as exc:
        return ("fail", dict(exc.detail))
    if two_a * two_a * u - st.difference * v != two_a:
        return ("fail", {"u": u, "v": v, "identity": False})
    return ("ok", None)


def old_deg(st: OracleState, ctx: _AuditContext):
    two_a = 2 * st.a
    try:
        b, rem = divmod(st.difference, two_a)
        if rem:
            raise GcdMismatchError(f"2a = {two_a} does not divide D", st.a, {"d_mod_2a": rem})
        u, v = solve_unit_bezout(two_a, b)
    except GcdMismatchError as exc:
        return ("fail", dict(exc.detail))
    if two_a * u + b * v != 1:
        return ("fail", {"u": u, "v": v, "identity": False})
    deg = st.k - 1
    if deg > 1:
        return ("gap", {"deg": deg, "unit_bezout_verified": True})
    return ("ok", None)


OLD = {"CLOSE": old_close, "EQUIV": old_equiv, "CONG": old_cong, "C1": old_c1, "QDIV": old_qdiv,
       "C0": old_c0, "BEZ2": old_bez2, "DEG": old_deg, "BETA": old_beta}
# old_equiv's certificate and the audit's trial division part ways on a table
# that marks a composite: with only 4 marked, the product 8 at a = 6 is
# 4-smooth to the one and leaves 2 to the other. There EQUIV's chunk check is
# held to the per-a check it falls back to, run at every a, and its fails to
# an independent prediction
PER_A = {**OLD, "EQUIV": lambda st, ctx: audit._equiv(ctx, st.a, st.variant)}


def _oracle(code: str, chunk: int, old: dict = OLD):
    """The claim as it ran before: a per-a factory, one state per claim and chunk."""
    make = over_states(Variant.SUM if code.startswith("G-") else Variant.DIFF, old[code.split("-", 1)[1]])
    return dataclasses.replace(CLAIMS[code], code=f"O-{code}", chunk=chunk, check_chunk=per_a(f"O-{code}", make))


def both_ways(codes, lo: int, hi: int, ps, chunks: dict[str, int], jobs: int = 1, old: dict = OLD):
    """The results of codes over lo..hi with every record kept, run by their
    chunk checks and by the oracle, each claim in chunks of its own width;
    they must agree."""
    with pytest.MonkeyPatch.context() as mp:
        for c in codes:
            mp.setitem(CLAIMS, c, dataclasses.replace(CLAIMS[c], chunk=chunks[c]))
            mp.setitem(CLAIMS, f"O-{c}", _oracle(c, chunks[c], old))
        got = run_suite(codes, lo, hi, jobs=jobs, ps=ps, config=EVERY_RECORD).results
        want = run_suite([f"O-{c}" for c in codes], lo, hi, ps=ps, config=EVERY_RECORD).results
    assert [r.claim for r in got] == sorted(codes)
    assert [dataclasses.replace(r, claim=r.claim[2:]) for r in want] == got
    return got


@pytest.fixture(scope="module")
def ps_alg():
    return build_sieve(3 * 2000 + 10)


# --- the chunk checks against the oracle --------------------------------------

@settings(max_examples=80)
@given(codes=st.lists(st.sampled_from(ALGEBRA), min_size=1, max_size=len(ALGEBRA), unique=True),
       lo=st.integers(4, 600), width=st.integers(0, 40), data=st.data())
@example(codes=ALGEBRA, lo=4, width=40, data=None)
@example(codes=["G-C1", "D-C1", "G-QDIV", "D-C0"], lo=1990, width=10, data=None)
def test_fused_pass_matches_the_per_claim_oracle(ps_alg, codes, lo, width, data):
    # chunk widths 1-7, drawn per claim: claims that share a width share each
    # chunk's task, the others get tasks of their own; every range of 8 or
    # more a crosses a chunk boundary
    chunks = {c: data.draw(st.integers(1, 7), label=c) if data else 1 + i % 7 for i, c in enumerate(codes)}
    hi = min(lo + width, 2000)
    got = both_ways(codes, lo, hi, ps_alg, chunks)
    # both sides merge through the same tallies, so check the counts on their own too
    primes_in_range = sum(1 for a in range(lo, hi + 1) if ps_alg.is_prime(a))
    for r in got:
        assert r.checked + r.skipped == hi - lo + 1
        assert r.skipped == (primes_in_range if r.claim == "G-EQUIV" else 0)


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_witness_cap_holds_across_merged_chunks(monkeypatch, chunk):
    # G-DEG records a gap at every composite a >= 8: 5 kept of many, over
    # chunks of 1 and 3 (many merges) and 1024 (none)
    for code in ("G-DEG", "G-CLOSE"):
        monkeypatch.setitem(CLAIMS, code, dataclasses.replace(CLAIMS[code], chunk=chunk))
    full = run_suite(["G-DEG", "G-CLOSE"], 8, 60, config=EVERY_RECORD).results
    capped = run_suite(["G-DEG", "G-CLOSE"], 8, 60, config=AuditConfig(witness_limit=5)).results
    assert capped[1].witnesses == full[1].witnesses[:5] and len(full[1].witnesses) > 5
    assert (capped[1].status, capped[1].checked) == (full[1].status, full[1].checked)


def refused_bodies_match(monkeypatch, names, runs):
    """Asserts that run_suite over each (claims, lo, hi) in runs, at one job,
    exits 0 and gives the same body when each named library kernel refuses."""
    def body(claims, lo, hi):
        report = run_suite(claims, lo, hi, jobs=1)
        assert report.exit_code == 0, claims
        return deterministic_body(emit_report(report))

    want = [body(*run) for run in runs]

    def refuse(*args):
        raise LookupError(f"one of {', '.join(names)} was called")

    refuse_state(monkeypatch, refuse, names)
    assert [body(*run) for run in runs] == want


def test_all_expands_and_evaluates_each_state_once(monkeypatch):
    # --claims all over 4..2000: every algebra claim is decided by the table
    # facts it reduces to, so on a true table no state is formed, and none is
    # expanded or evaluated
    refused_bodies_match(monkeypatch, ("_mul_linear", "vieta_coefficients", "_q_and_c1_from"), [("all", 4, 2000)])


C6 = [f"{v}-{c}" for v in "GD" for c in ("CONG", "BEZ2", "DEG")]


def test_all_forms_each_product_once_and_reduces_none(monkeypatch):
    # --claims all over 4..2000, and CONG, BEZ2 and DEG listed alone: C0, BEZ2
    # and DEG form D only for a kept detail, and a true table fails nowhere,
    # so no product is formed, and none is reduced mod (2a)^2
    refused_bodies_match(monkeypatch, ("_int64_product", "realized_difference"), [("all", 4, 2000), (C6, 4, 200)])


@pytest.mark.parametrize("marked", [None, "without 3"])
def test_bodies_do_not_depend_on_the_order_claims_are_listed(ps_alg, marked):
    # a task runs its chunk checks in the listed order, and C0, BEZ2 and DEG
    # read one decision and one D per (a, variant) for the chunk; on a table
    # without 3, gcd(2a, c1) = 1 breaks, with details kept
    ps = ps_alg if marked is None else marked_set(set(td_primes_upto(ps_alg.limit)) - {3}, ps_alg.limit)
    for codes in (["G-CONG", "G-QDIV", "G-C0"], ["G-BEZ2", "D-DEG", "D-C0", "G-CONG", "D-QDIV", "G-DEG"]):
        forward = run_suite(codes, 4, 400, ps=ps, config=EVERY_RECORD).results
        assert forward == run_suite(codes[::-1], 4, 400, ps=ps, config=EVERY_RECORD).results
        assert any(r.fail_count for r in forward) == (marked is not None)


def plant_difference(monkeypatch, at: int):
    """realized_difference, under the name audit reads it by, raising at a = at."""
    realized = audit.realized_difference

    def planted(a, variant, ps, cap):
        if a == at:
            raise ZeroDivisionError("planted")
        return realized(a, variant, ps, cap=cap)

    monkeypatch.setattr(audit, "realized_difference", planted)


def test_a_raising_product_names_the_claim_that_forms_it(monkeypatch):
    # on a table that also marks 9 and 25, gcd(2a, c1) = 1 first breaks at
    # a = 9, where 3 divides the roots 3 and 9. C0's kept fail detail forms
    # D there, inside C0's error handling, so a D planted to raise at 9 is
    # G-C0's, though G-CONG is listed ahead of it; G-CONG forms no D, and
    # past the witness limit C0 forms none either
    ps = marked_set(TRUE_PRIMES | {9, 25}, MARKED_LIMIT)
    plant_difference(monkeypatch, 9)
    with pytest.raises(ClaimCheckError) as exc:
        run_suite(["G-CONG", "G-C0"], 4, 30, ps=ps)
    assert (exc.value.claim, exc.value.a) == ("G-C0", 9)
    assert str(exc.value) == "claim G-C0 raised at a = 9: ZeroDivisionError: planted"
    assert run_suite(["G-CONG"], 4, 30, ps=ps).exit_code == 0
    unbuilt = run_suite(["G-C0"], 4, 30, ps=ps, config=AuditConfig(witness_limit=0)).results[0]
    assert (unbuilt.status, unbuilt.witnesses) == ("FAIL", [])


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_error_in_a_fused_task_names_claim_and_a(monkeypatch, eager_pool, jobs):
    # G-C0's fail detail at a = 12 raises, inside a task it shares with
    # G-CLOSE, G-QDIV and G-DEG, which fails at 12 too but is listed after
    # it; at jobs = 2 in a real pool
    for code in ("G-CLOSE", "G-QDIV", "G-C0", "G-DEG"):
        monkeypatch.setitem(CLAIMS, code, dataclasses.replace(CLAIMS[code], chunk=4))
    plant_difference(monkeypatch, 12)
    with pytest.raises(ClaimCheckError) as exc:
        run_suite(["G-CLOSE", "G-QDIV", "G-C0", "G-DEG"], 4, 30, jobs=jobs,
                  ps=marked_set(TRUE_PRIMES | {9, 25}, MARKED_LIMIT))
    assert eager_pool == ([2] if jobs == 2 else [])
    assert (exc.value.claim, exc.value.a) == ("G-C0", 12)
    assert str(exc.value) == "claim G-C0 raised at a = 12: ZeroDivisionError: planted"


# --- the cheaper kernels against the predicates they replace -----------------

def built(outcome):
    """A predicate's (kind, detail) with an unbuilt detail built, as the
    tally builds a kept one."""
    kind, detail = outcome
    return kind, detail() if callable(detail) else detail


@settings(max_examples=40)
@given(a=st.integers(4, 2000), variant=st.sampled_from(list(Variant)))
def test_c1_gcd_decides_as_the_prime_scan(ps_alg, a, variant):
    # the table scan against the gcd of the expansion's c1 and c0, on the
    # true table and on tables that also mark a composite m <= a, which
    # shares its primes with the roots, so C1 fails from m on
    code = ("G-" if variant is Variant.SUM else "D-") + "C1"
    lo = max(4, a - 10)
    assert both_ways([code], lo, a, ps_alg, {code: 3})[0].status == "PASS"
    p = max(q for q in ps_alg.prime_list if 2 * q <= a)
    for m in (2 * p, a - ps_alg.is_prime(a)):
        got = both_ways([code], lo, a, marked_set({*ps_alg.prime_list, m}, ps_alg.limit), {code: 3})
        assert [w["a"] for w in got[0].witnesses] == list(range(max(lo, m), a + 1))


def old_c1_detail(roots: list[int], a: int) -> dict:
    """C1's fail detail as it was built before the product tree."""
    whole = math.prod(roots)
    c1 = sum(whole // p for p in roots)
    return {"shared_primes": [p for p in roots if c1 % p == 0][:8], "gcd_2a_c1": math.gcd(2 * a, c1)}


@given(marked=st.sets(st.integers(2, 3000), max_size=300))
@example(marked=set())
@example(marked={7})
@example(marked={2, 4})
@example(marked=set(td_primes_upto(3000)) | {2 * 1499})
@example(marked={6, 10, 15, 77, 91, 143})             # no two share every factor
def test_cofactor_sum_matches_the_division_formula(marked):
    roots = sorted(marked)
    whole = math.prod(roots)
    c1 = sum(whole // p for p in roots)
    assert audit._cofactor_sum(roots) == (c1, [c1 % p for p in roots])


def test_c1_details_match_the_old_formula_once_per_set_of_roots(monkeypatch):
    # a true table to 3e4 that also marks 2 * 9973 fails C1 from 19946 on;
    # the kept details are of consecutive a, and one tree serves each run of
    # a with the same roots
    calls, cofactor_sum = [], audit._cofactor_sum

    def counted(roots):
        calls.append(len(roots))
        return cofactor_sum(roots)

    monkeypatch.setattr(audit, "_cofactor_sum", counted)
    ps = marked_set(set(td_primes_upto(30_000)) | {2 * 9973}, 30_000)
    result = run_suite(["G-C1"], 19_900, 20_100, ps=ps, config=AuditConfig(witness_limit=40)).results[0]
    assert (result.fail_count, len(result.witnesses)) == (20_100 - 19_946 + 1, 40)
    roots = ps.prime_list
    for w in result.witnesses:
        assert w["detail"] == old_c1_detail([p for p in roots if p <= w["a"]], w["a"]), w["a"]
    assert calls == sorted({sum(p <= w["a"] for p in roots) for w in result.witnesses})
    assert len(calls) < len(result.witnesses) // 4


def test_c1_with_no_prime_up_to_a_records_a_verdict():
    # a table that marks no prime <= a leaves c1 = 0 and c0 = 1 (the empty
    # product), so the verdict is gcd(0, 1) = 1 up to the first marked prime,
    # and from there the roots 31 and 37 are coprime
    ps = marked_set({31, 37}, 200)
    results = run_suite(["G-C1", "D-C1"], 4, 60, ps=ps, config=EVERY_RECORD).results
    assert [(r.claim, r.status, r.checked, r.witnesses) for r in results] == [
        ("D-C1", "PASS", 57, []), ("G-C1", "PASS", 57, [])]


@settings(max_examples=40)
@given(a=st.integers(4, 2000), variant=st.sampled_from(list(Variant)))
@example(a=4, variant=Variant.SUM)                   # degree 1: DEG is ok, not a gap
def test_bez2_and_deg_decide_as_the_witness_solve(ps_alg, a, variant):
    # CONG, BEZ2 and DEG as the walk decided them off the divisibility field
    # (conftest's residue_* oracles, which the chunk checks match record for
    # record on true and marked tables) against the predicates that solved
    # and checked the witness, and against CONG's old loop mod 2a, on the
    # true D and on D's that break each condition in turn. The state reads
    # D = product - c0, so each D is planted as c0 = product - D
    st_ = OracleState(variant, ps_alg, a)
    ctx = _AuditContext(ps_alg, EVERY_RECORD)
    d = st_.difference
    shapes = set()
    for value in (d, d + 1, 2 * d, 0, -d, a * d, d + 2 * a):
        st_.c0 = st_.product - value
        for code, old in (("BEZ2", old_bez2), ("DEG", old_deg), ("CONG", old_cong)):
            got = built(TABLE_ORACLES[code](st_, ctx))
            assert got == old(st_, ctx), (code, value)
            if got[0] == "fail":
                shapes.add(tuple(got[1]))
        assert st_.difference == value
    assert shapes == {("two_a", "D", "gcd"), ("d_mod_2a",), ("two_a", "q_plus_c1", "gcd"),
                      ("product_mod_2a", "signed_primorial_mod_2a")}


@pytest.mark.parametrize("variant", list(Variant))
def test_qdiv_and_c0_decide_as_the_old_predicates(variant):
    # QDIV and C0 against old_qdiv and old_c0, which expand the polynomial,
    # at a few a on the true table, on tables without 3 or 2 or with 9 and
    # 25, and on the empty table: QDIV never fails, and C0 fails where
    # gcd(2a, c1) != 1 with every row a table can give it, the gcd and,
    # where no root is marked so that D = 0, d_zero and d_not_larger
    codes = [("G-" if variant is Variant.SUM else "D-") + c for c in ("QDIV", "C0")]
    shapes = set()
    for marked in (TRUE_PRIMES, TRUE_PRIMES - {3}, TRUE_PRIMES - {2}, TRUE_PRIMES | {9, 25}, set()):
        ps = marked_set(marked, MARKED_LIMIT)
        for a in (4, 5, 30, 97, 300):
            got = both_ways(codes, a, a, ps, dict.fromkeys(codes, 1))
            assert got[1].fail_count == 0, (a, got[1].claim)
            shapes.update(tuple(w["detail"]) for w in got[0].witnesses)
    assert shapes == {("gcd_2a_d_over_2a",), ("d_zero", "gcd_2a_d_over_2a", "d_not_larger")}


SAME_FACT = [f"{v}-{c}" for v in "GD" for c in ("CONG", "C0", "BEZ2", "DEG", "QDIV")]
TABLE_FACT = ["G-CLOSE", "D-CLOSE", "G-C1", "D-C1", "D-BETA"]


@settings(max_examples=60)
@given(marked=st.sets(st.integers(2, 400), max_size=80), lo=st.integers(4, 300), width=st.integers(0, 60),
       data=st.data())
@example(marked=set(), lo=4, width=20, data=None)                          # no prime at all: D = 0
@example(marked={2, 3, 5, 7, 11, 13, 15, 21}, lo=4, width=30, data=None)   # composites marked
@example(marked={3, 5, 7, 11, 13, 17}, lo=4, width=30, data=None)          # 2 missing
def test_same_fact_group_fails_together_on_any_table(marked, lo, width, data):
    # on a table that marks any set, the fused pass and the chunk checks
    # (CLOSE's among them) still match the oracle record for record, at chunk
    # widths drawn per claim, and the claims that read one
    # fact, 2a | D and gcd(2a, D/2a) = 1, fail at the same a: CONG exactly
    # where C0 finds d_mod_2a, BEZ2 exactly where DEG fails, and DEG exactly
    # where C0 finds either divisibility row. CLOSE, CONG and QDIV are
    # identities in the roots, so no table makes them fail; C1's gcd(c1, c0)
    # = 1 holds exactly when the roots <= a are pairwise coprime
    hi = min(lo + width, 400)
    chunks = {c: data.draw(st.integers(1, 7), label=c) if data else 1 + i % 7
              for i, c in enumerate(SAME_FACT + TABLE_FACT)}
    # D-BETA reads a + 1, so the table reaches 401
    got = both_ways(SAME_FACT + TABLE_FACT, lo, hi, marked_set(marked, 401), chunks)
    fails = {(r.claim, w["a"]): w["detail"] for r in got for w in r.witnesses if w["kind"] == "fail"}
    for v in "GD":
        for a in range(lo, hi + 1):
            c0 = fails.get((f"{v}-C0", a), {})
            cong, bez2, deg = ((f"{v}-{c}", a) in fails for c in ("CONG", "BEZ2", "DEG"))
            assert cong == ("d_mod_2a" in c0), (v, a)
            assert bez2 == deg == ("d_mod_2a" in c0 or "gcd_2a_d_over_2a" in c0), (v, a)
            assert not any((f"{v}-{c}", a) in fails for c in ("CLOSE", "CONG", "QDIV")), (v, a)
            shared = any(math.gcd(x, y) > 1 for x, y in combinations([m for m in marked if m <= a], 2))
            assert ((f"{v}-C1", a) in fails) == shared, (v, a)


EQUIV_BETA = ["G-EQUIV", "D-EQUIV", "D-BETA"]


@settings(max_examples=60)
@given(marked=st.sets(st.integers(2, MARKED_LIMIT), max_size=120), lo=st.integers(4, 300),
       width=st.integers(0, 60), data=st.data())
@example(marked=TRUE_PRIMES, lo=4, width=60, data=None)             # a true table: nothing fails
@example(marked=TRUE_PRIMES - {2}, lo=4, width=60, data=None)       # D-BETA fails at each prime a+1
@example(marked=TRUE_PRIMES | {9, 25}, lo=4, width=60, data=None)   # composites marked
@example(marked=TRUE_PRIMES - {997}, lo=240, width=60, data=None)   # wrong only past 3a at a < 333
@example(marked={2, 3, 5, 7, 11, 13}, lo=4, width=60, data=None)    # primes missed
def test_equiv_and_beta_fail_exactly_where_the_table_predicts(marked, lo, width, data):
    # the chunk checks match the per-a oracle record for record, at chunk
    # widths drawn per claim, where G-/D-EQUIV and D-BETA can fail on a table
    # that marks any set.
    # EQUIV never fails where the table agrees with the primes up to its
    # largest complement (and a+1); elsewhere it fails exactly where "no
    # marked partner" differs from "the product of the complements divides
    # away to 1 by the marked numbers <= a", then by a+1 when marked in the
    # diff variant. The product, not each complement, is divided: a marked
    # composite can take its factors from two complements. D-BETA fails
    # exactly where a+1 is marked but 2 is not: 2a + 2 is the only
    # complement in [2a + 2, 3a] that a+1 divides
    hi = min(lo + width, 300)
    chunks = {c: data.draw(st.integers(1, 7), label=c) if data else 1 + i % 7 for i, c in enumerate(EQUIV_BETA)}
    results = both_ways(EQUIV_BETA, lo, hi, marked_set(marked, MARKED_LIMIT), chunks, old=PER_A)
    fails = {(r.claim, w["a"]) for r in results for w in r.witnesses if w["kind"] == "fail"}
    wrong = min([n for n in range(MARKED_LIMIT + 1) if (n in marked) != (n in TRUE_PRIMES)], default=None)
    for a in range(lo, hi + 1):
        roots = sorted(m for m in marked if m <= a)
        for v, sign in (("G", -1), ("D", 1)):
            qs = [2 * a + sign * r for r in roots]
            if v == "G" and a in marked:                       # skipped
                predicted = False
            elif wrong is None or wrong > max([a + 1, *qs]):
                predicted = False
            else:
                t = math.prod(qs)
                for m in roots + ([a + 1] if v == "D" and a + 1 in marked else []):
                    while t % m == 0:
                        t //= m
                predicted = (t == 1) != (not any(q in marked for q in qs))
            assert ((f"{v}-EQUIV", a) in fails) == predicted, (v, a)
        assert (("D-BETA", a) in fails) == (a + 1 in marked and 2 not in marked), a


@pytest.mark.parametrize("jobs", [1, 2])
def test_close_and_equiv_match_the_oracle_on_a_true_table(eager_pool, jobs):
    # on a true table; at jobs = 2 in a real pool
    ps = marked_set(TRUE_PRIMES, MARKED_LIMIT)
    codes = ["G-CLOSE", "D-CLOSE", "G-EQUIV", "D-EQUIV"]
    got = both_ways(codes, 4, 300, ps, dict(zip(codes, (7, 64, 100, 33))), jobs, PER_A)
    assert eager_pool == ([2] if jobs == 2 else [])
    closes = [r for r in got if r.claim.endswith("CLOSE")]
    assert not any(r.fail_count for r in closes)


BRACKETS = [f"{v}-{c}" for v in "GD" for c in ("CONG", "BEZ2", "DEG", "QDIV", "C0")]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("marked, fails", [
    (TRUE_PRIMES, False),
    (TRUE_PRIMES | {9, 25}, True),          # 3 divides the roots 3 and 9
    (TRUE_PRIMES - {997}, False),           # wrong only past 3a + 3 at every a <= 300
    ({2, 3, 5, 7, 11, 13}, False),          # no prime r | 2a past 13 divides c1
    (set(), True),                          # no root: D = 0 and c1 = 0 at every a
], ids=["true", "composites marked", "997 missed", "primes missed", "empty"])
def test_cong_bez2_and_deg_match_the_per_a_oracle(eager_pool, marked, fails, jobs):
    # CONG, BEZ2, DEG, QDIV and C0 of both variants against the predicates
    # the fused walk ran before (conftest's residue_*, old_qdiv and old_c0),
    # record for record over 4..300, at chunk widths of their own; at jobs = 2
    # in a real pool. C0, BEZ2 and DEG fail together, CONG and QDIV never
    oracles = {**TABLE_ORACLES, "QDIV": old_qdiv, "C0": old_c0}
    widths = dict(zip(BRACKETS, (7, 64, 100, 33, 300, 1, 5, 16, 2, 1024)))
    got = both_ways(BRACKETS, 4, 300, marked_set(marked, MARKED_LIMIT), widths, jobs, oracles)
    assert eager_pool == ([2] if jobs == 2 else [])
    assert [r.fail_count > 0 for r in got] == [fails and r.claim[2:] in ("C0", "BEZ2", "DEG") for r in got]


def test_bez2_and_deg_solve_no_witness(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the audit solved a Bezout witness")

    for owner, name in [(algebra, "bezout_quadratic"), (algebra, "bezout_unit"),
                        *((m, n) for m in (algebra, audit) for n in ("solve_quadratic_bezout", "solve_unit_bezout"))]:
        monkeypatch.setattr(owner, name, no_solve)
    results = run_suite(["G-BEZ2", "D-BEZ2", "G-DEG", "D-DEG"], 4, 500).results
    assert [(r.claim, r.status, r.checked) for r in results] == [
        ("D-BEZ2", "PASS", 497), ("D-DEG", "GAP-WITNESSED", 497),
        ("G-BEZ2", "PASS", 497), ("G-DEG", "GAP-WITNESSED", 497)]
