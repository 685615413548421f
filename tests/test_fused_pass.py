"""The fused algebra pass: G-/D-QDIV and G-/D-C0, the claims that expand
the polynomial, read their variant's evaluation, one per a and variant over
one shared expansion (audit._fused), with one paired Horner pass per a for
both variants, C0's divisibility rows off one residue of D mod (2a)^2, and
the complement products of a block of a, both variants, formed in one int64
matrix (algebra._complement_rows). G-/D-CLOSE, G-/D-EQUIV, G-/D-CONG,
G-/D-C1, G-/D-BEZ2, G-/D-DEG and D-BETA are chunk checks of the table facts
they reduce to (audit._closure, audit._equivalence, audit._congruence,
audit._c1, audit._unit_bracket, audit._beta); EQUIV trial-divides each a,
and BEZ2 and DEG read the primes of 2a, with no state, where the table
disagrees with the primes too early.

The oracle is the per-claim path the audit ran before: conftest.over_states
builds one conftest.OracleState per claim and a, each of its objects
computed the plain way, and the old_* predicates run on it. The predicates
are kept verbatim below, renamed with the old_ prefix; old_bez2 and old_deg
solve the witness. conftest keeps old_c1, old_beta and the residue_* predicates
that CONG, BEZ2 and DEG ran in the walk before. The differential test runs
any subset of the 17 algebra claims both ways, with every record kept.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
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
from primeaudit.audit import ALGEBRA_SUITE_CAP, CLAIMS, AuditConfig, _AuditContext, claim_codes, run_suite
from primeaudit.errors import ClaimCheckError, GcdMismatchError
from primeaudit.partitions import _partners

from conftest import (
    EXPANDING,
    TABLE_ORACLES,
    OracleState,
    evaluation,
    is_rough_part,
    marked_set,
    old_beta,
    old_c1,
    over_states,
    per_a,
    td_primes_upto,
)

EVERY_RECORD = AuditConfig(witness_limit=10**6)
ALGEBRA = [c for c in claim_codes() if CLAIMS[c].suite_cap == ALGEBRA_SUITE_CAP]


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
    return dataclasses.replace(CLAIMS[code], code=f"O-{code}", chunk=chunk, variant=None, predicate=None,
                               check_chunk=per_a(f"O-{code}", make))


def both_ways(codes, lo: int, hi: int, ps, chunks: dict[str, int], jobs: int = 1, old: dict = OLD):
    """The results of codes over lo..hi with every record kept, run fused (or
    by their chunk checks) and by the oracle, each claim in chunks of its own
    width; they must agree."""
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


# --- the fused pass against the oracle ---------------------------------------

@settings(max_examples=80)
@given(codes=st.lists(st.sampled_from(ALGEBRA), min_size=1, max_size=len(ALGEBRA), unique=True),
       lo=st.integers(4, 600), width=st.integers(0, 40), data=st.data())
@example(codes=ALGEBRA, lo=4, width=40, data=None)
@example(codes=["G-C1", "D-C1", "G-QDIV", "D-C0"], lo=1990, width=10, data=None)
def test_fused_pass_matches_the_per_claim_oracle(ps_alg, codes, lo, width, data):
    # chunk widths 1-7, drawn per claim: claims of one variant that share a
    # width share a state, the others get states of their own; every range
    # of 8 or more a crosses a chunk boundary
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


def test_all_expands_and_evaluates_each_state_once(monkeypatch):
    # --claims all over 4..2000 at one job: the two variants' states share one
    # expansion, which the run's two chunks share too, so it multiplies each
    # prime up to 2000 in once (pi(2000) = 303), and one paired Horner pass
    # per a evaluates both variants
    expansions, horner = [], []
    mul_linear, horner_pair = algebra._mul_linear, algebra._horner_pair

    def counted_mul(c, s):
        expansions.append(s)
        return mul_linear(c, s)

    def counted_horner(coeffs, x):
        horner.append(x)
        return horner_pair(coeffs, x)

    monkeypatch.setattr(algebra, "_mul_linear", counted_mul)
    monkeypatch.setattr(algebra, "_horner_pair", counted_horner)
    report = run_suite("all", 4, 2000, jobs=1, config=AuditConfig(census_limit=10**4))
    assert report.exit_code == 0
    assert len(expansions) == 303
    assert len(horner) == len(set(horner)) == 2000 - 4 + 1


C6 = [f"{v}-{c}" for v in "GD" for c in ("CONG", "BEZ2", "DEG")]


def test_all_forms_each_product_once_and_reduces_none(monkeypatch):
    # --claims all over 4..2000: the walk runs only QDIV and C0, and forms
    # one evaluation per (a, variant), which multiplies its own row products
    # into its product; one matrix of at most _BLOCK_ENTRIES entries forms
    # them for a block of a and both variants, and the blocks tile the
    # range. No product is formed off a complement array of its own
    # (_int64_product), so none is reduced mod (2a)^2 on its own either
    products, blocks, arrays = [], [], []
    formed, complement_rows, int64_product = audit._evaluation, audit._complement_rows, algebra._int64_product

    def product(expansion, variant, a, rows):
        products.append((variant, a))
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64, (variant, a)
        return formed(expansion, variant, a, rows)

    def rows(primes, lo, hi, signs):
        blocks.append((lo, hi, tuple(signs), int(np.searchsorted(primes, hi, side="right"))))
        return complement_rows(primes, lo, hi, signs)

    def counted(values):
        arrays.append(values.size)
        return int64_product(values)

    monkeypatch.setattr(audit, "_evaluation", product)
    monkeypatch.setattr(audit, "_complement_rows", rows)
    monkeypatch.setattr(algebra, "_int64_product", counted)
    monkeypatch.setattr(audit, "_int64_product", counted)
    report = run_suite("all", 4, 2000, jobs=1, config=AuditConfig(census_limit=10**4))
    assert report.exit_code == 0
    assert sorted(products, key=lambda va: (va[0].value, va[1])) == [
        (v, a) for v in (Variant.DIFF, Variant.SUM) for a in range(4, 2001)]
    assert [a for lo, hi, _, _ in blocks for a in range(lo, hi + 1)] == list(range(4, 2001))
    assert {signs for _, _, signs, _ in blocks} == {(-1, 1)}
    assert all((hi - lo + 1) * 2 * k <= audit._BLOCK_ENTRIES for lo, hi, _, k in blocks)
    assert len(blocks) < 2000 // 16 and arrays == []
    # listed without QDIV and C0, CONG, BEZ2 and DEG form no product at all
    products.clear()
    blocks.clear()
    assert run_suite(C6, 4, 200).exit_code == 0
    assert products == blocks == arrays == []


@pytest.mark.parametrize("marked", [None, "without 3"])
def test_bodies_do_not_depend_on_the_order_claims_are_listed(ps_alg, marked):
    # the walk runs QDIV and C0 at each state in the listed order, and the
    # chunk checks after it; on a table without 3 the divisibility rows
    # fail, with details kept
    ps = ps_alg if marked is None else marked_set(set(td_primes_upto(ps_alg.limit)) - {3}, ps_alg.limit)
    for codes in (["G-CONG", "G-QDIV", "G-C0"], ["G-BEZ2", "D-DEG", "D-C0", "G-CONG", "D-QDIV", "G-DEG"]):
        forward = run_suite(codes, 4, 400, ps=ps, config=EVERY_RECORD).results
        assert forward == run_suite(codes[::-1], 4, 400, ps=ps, config=EVERY_RECORD).results
        assert any(r.fail_count for r in forward) == (marked is not None)


class _Planted(int):
    """A row product that raises when it is multiplied."""

    def __mul__(self, other):
        raise ZeroDivisionError("planted")

    __rmul__ = __mul__


def test_a_raising_product_names_the_claim_that_forms_it(monkeypatch):
    # the block of 4..30 forms the row products of every a before the walk
    # reaches them, and each evaluation multiplies its own, in the error
    # handling of the first claim of its variant: G-C0's, as G-CONG is a
    # chunk check now. So a product planted to raise at a = 11 is G-C0's at
    # 11, though G-CONG is listed ahead of it; G-CONG alone forms no product
    complement_rows = audit._complement_rows

    def planted(primes, lo, hi, signs):
        rows = complement_rows(primes, lo, hi, signs)
        if lo <= 11 <= hi:
            rows[11 - lo][0] = np.array([_Planted(q) for q in rows[11 - lo][0].tolist()], dtype=object)
        return rows

    monkeypatch.setattr(audit, "_complement_rows", planted)
    with pytest.raises(ClaimCheckError) as exc:
        run_suite(["G-CONG", "G-C0"], 4, 30)
    assert (exc.value.claim, exc.value.a) == ("G-C0", 11)
    assert str(exc.value) == "claim G-C0 raised at a = 11: ZeroDivisionError: planted"
    assert run_suite(["G-CONG"], 4, 30).exit_code == 0


def test_the_context_keeps_one_expansion_while_walks_move_forward(ps_small):
    # a fused walk from lo reuses the context's expansion while it has taken
    # in no more than pi(lo) primes, by its coefficients or its primorial
    ctx = _AuditContext(ps=ps_small, config=AuditConfig())
    first = ctx.expansion(4)
    first.upto(25)                                # pi(100) = 25, pi(96) = 24
    assert ctx.expansion(100) is first
    again = ctx.expansion(96)
    assert again is not first and again.multiplied == 0
    again.primorial(25)
    assert ctx.expansion(541) is again            # pi(541) = 100
    assert ctx.expansion(96) is not again


def _boom(ev):
    if ev.a == 11:
        raise ZeroDivisionError("boom")
    return {}


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_error_in_a_fused_task_names_claim_and_a(monkeypatch, eager_pool, jobs):
    # G-QDIV raises at a = 11, inside a task it shares with G-C0 and with the
    # chunk checks of G-DEG and G-CLOSE, which run after the fused walk
    for code in ("G-CLOSE", "G-QDIV", "G-C0", "G-DEG"):
        spec = CLAIMS[code]
        monkeypatch.setitem(CLAIMS, code, dataclasses.replace(
            spec, chunk=4, predicate=_boom if code == "G-QDIV" else spec.predicate))
    with pytest.raises(ClaimCheckError) as exc:
        run_suite(["G-CLOSE", "G-QDIV", "G-C0", "G-DEG"], 4, 30, jobs=jobs)
    assert eager_pool == ([2] if jobs == 2 else [])
    assert (exc.value.claim, exc.value.a) == ("G-QDIV", 11)
    assert str(exc.value) == "claim G-QDIV raised at a = 11: ZeroDivisionError: boom"


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
def test_qdiv_and_c0_decide_as_the_old_predicates(ps_alg, variant):
    # QDIV and C0 against old_qdiv and old_c0 on the true state and on
    # planted values that fire each of their fail rows. A higher coefficient
    # of the expansion moves Q, so the expansion no longer evaluates back to
    # the product and |D| leaves 2a |Q + c1|. A planted c0 moves D = product
    # - c0 off the multiples of 2a. Q = 2a S(+-2a) is a multiple of 2a by its
    # construction, so QDIV reads "2a divides Q" off the product side, Q =
    # D/2a - c1, and q_mod_2a fires on a planted product moved by 2a. There
    # old_qdiv still reads Horner's Q, so QDIV is held to product_side_qdiv.
    # The predicates read the evaluation of the oracle state's values, which
    # is the walk's on the true state
    ctx = _AuditContext(ps_alg, EVERY_RECORD)
    prefix = "G-" if variant is Variant.SUM else "D-"
    shapes = set()

    def fresh(a):
        return OracleState(variant, ps_alg, a)

    def check(st_, qdiv=old_qdiv):
        rows = set()
        for code, old in (("QDIV", qdiv), ("C0", old_c0)):
            got = CLAIMS[prefix + code].predicate(st_.evaluation())
            assert (("fail", got) if got else ("ok", None)) == old(st_, ctx), (code, st_.a)
            rows.update(got)
        shapes.update(rows)
        return rows

    for a in (4, 5, 30, 97, 1000):
        assert evaluation(variant, ps_alg, a) == fresh(a).evaluation(), a
        assert check(fresh(a)) == set(), a
        st_ = fresh(a)
        st_.coeffs[2] += 1                         # k >= 2 at a >= 4
        check(st_)
        st_ = fresh(a)
        st_.c0 += 1
        check(st_)
        st_ = fresh(a)
        st_.product += 2 * a
        assert "q_mod_2a" in check(st_, product_side_qdiv), a
        for plant in range(3):                     # the two oracles agree off a planted product
            st_ = fresh(a)
            if plant == 1:
                st_.coeffs[2] += 1
            elif plant == 2:
                st_.c0 += 1
            assert product_side_qdiv(st_, ctx) == old_qdiv(st_, ctx), (a, plant)
    # D/2a moved by 1 also shares a factor with 2a at some a
    assert shapes == {"expansion_identity", "q_mod_2a", "d_mod_2a", "gcd_2a_d_over_2a", "d_vs_bracket"}


def product_side_qdiv(st: OracleState, ctx: _AuditContext):
    """old_qdiv with "2a divides Q" read off the whole D: Q = D/2a - c1 where 2a | D."""
    kind, problems = old_qdiv(st, ctx)
    problems = {key: value for key, value in (problems or {}).items() if key != "q_mod_2a"}
    two_a, d = 2 * st.a, st.difference
    if d % two_a == 0 and (d // two_a - st.c1) % two_a:
        problems["q_mod_2a"] = (d // two_a - st.c1) % two_a
    return ("fail", problems) if problems else ("ok", None)


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


MARKED_LIMIT = 1000              # past 3a + 3 at every a <= 300, so run_suite keeps the marked table
TRUE_PRIMES = set(td_primes_upto(MARKED_LIMIT))


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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("marked, fails", [
    (TRUE_PRIMES, False),
    (TRUE_PRIMES | {9, 25}, True),          # 3 divides the roots 3 and 9
    (TRUE_PRIMES - {997}, False),           # wrong only past 3a + 3 at every a <= 300
    ({2, 3, 5, 7, 11, 13}, False),          # no prime r | 2a past 13 divides c1
], ids=["true", "composites marked", "997 missed", "primes missed"])
def test_cong_bez2_and_deg_match_the_per_a_oracle(eager_pool, marked, fails, jobs):
    # the chunk checks against the predicates the walk ran before
    # (conftest's residue_*), record for record over 4..300, at chunk widths
    # of their own; at jobs = 2 in a real pool
    got = both_ways(C6, 4, 300, marked_set(marked, MARKED_LIMIT), dict(zip(C6, (7, 64, 100, 33, 300, 1))), jobs,
                    TABLE_ORACLES)
    assert eager_pool == ([2] if jobs == 2 else [])
    assert [r.fail_count > 0 for r in got] == [fails and not r.claim.endswith("CONG") for r in got]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("table", ["true", "with 9 and 25"])
def test_the_walk_forms_each_product_off_its_block(monkeypatch, eager_pool, ps_alg, table, jobs):
    # QDIV and C0 of both variants over 2040..2100 in chunks of 16 and
    # blocks of 2 or 3 a: every product the walk forms equals math.prod of
    # its complements, once per (a, variant), across block and chunk edges,
    # where a block's last a reaches a new prime, and where the block's
    # largest complement passes 6208, so its rows go from 5 values to 4. At
    # jobs = 2 in a real pool, a product that came out wrong would raise
    # where its evaluation is formed and surface as ClaimCheckError
    ps = ps_alg if table == "true" else marked_set(set(td_primes_upto(ps_alg.limit)) | {9, 25}, ps_alg.limit)
    formed, blocks = [], []
    form, complement_rows = audit._evaluation, audit._complement_rows

    def product(expansion, variant, a, rows):
        ev = form(expansion, variant, a, rows)
        if ev.product != math.prod(OracleState(variant, ps, a).complements):
            raise ArithmeticError(f"the block product of {variant}, {a} came out wrong")
        formed.append((variant.value, a))
        return ev

    def rows(primes, lo, hi, signs):
        blocks.append((lo, hi, algebra._row_width(2 * hi + int(primes[np.searchsorted(primes, hi, "right") - 1]))))
        return complement_rows(primes, lo, hi, signs)

    monkeypatch.setattr(audit, "_evaluation", product)
    monkeypatch.setattr(audit, "_complement_rows", rows)
    # blocks of 3 a in the first chunk, 2040..2055, and of 2 in the others
    monkeypatch.setattr(audit, "_BLOCK_ENTRIES", 2 * 3 * int(np.searchsorted(ps.primes, 2055, "right")))
    for code in EXPANDING:
        monkeypatch.setitem(CLAIMS, code, dataclasses.replace(CLAIMS[code], chunk=16))
    results = run_suite(EXPANDING, 2040, 2100, jobs=jobs, ps=ps, config=EVERY_RECORD).results
    assert eager_pool == ([2] if jobs == 2 else [])
    assert table != "true" or [r.status for r in results] == ["PASS"] * 4
    if jobs == 1:
        assert sorted(formed) == sorted((v, a) for v in ("sum", "diff") for a in range(2040, 2101))
        assert [a for lo, hi, _ in blocks for a in range(lo, hi + 1)] == list(range(2040, 2101))
        assert {hi - lo + 1 for lo, hi, _ in blocks} >= {2, 3}
        assert any(lo < hi and ps.is_prime(hi) for lo, hi, _ in blocks)
        assert [g for _, _, g in blocks] == sorted((g for _, _, g in blocks), reverse=True)
        assert {g for _, _, g in blocks} == {5, 4}


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
