import ast
import builtins
import functools
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import primeaudit
from primeaudit import CapacityError, GcdMismatchError, build_sieve, primorial
from primeaudit import algebra
from primeaudit.algebra import (
    Variant,
    _ProductState,
    beta,
    bezout_quadratic,
    bezout_unit,
    complement_product,
    complement_set,
    q_and_c1,
    realized_difference,
    smoothness_factorization,
    solve_quadratic_bezout,
    solve_unit_bezout,
    vieta_coefficients,
)
from primeaudit.partitions import diff_representations, goldbach_partitions
from primeaudit.primes import primes_upto

from conftest import marked_set, td_is_prime, td_primes_upto

SUM, DIFF = Variant.SUM, Variant.DIFF


# --- oracles -------------------------------------------------------------

def conv_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def naive_vieta(plist, variant):
    """Repeated-convolution expansion, structurally independent of the
    incremental in-place route used by the implementation."""
    poly = [1]
    for p in plist:
        poly = conv_mul(poly, [-p, 1] if variant is SUM else [p, 1])
    return poly


_ORACLE_PRIMES = td_primes_upto(600)


@functools.cache
def naive_vieta_prefix(variant, k):
    """naive_vieta over the first k trial-division primes, one convolution
    on top of the k - 1 result."""
    if k == 0:
        return [1]
    p = _ORACLE_PRIMES[k - 1]
    return conv_mul(naive_vieta_prefix(variant, k - 1), [-p, 1] if variant is SUM else [p, 1])


def plain_horner(coeffs, x):
    """sum_j coeffs[j] x^j, one coefficient per step."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def esp(vals, k):
    """Elementary symmetric polynomial by direct combination sums."""
    return sum(math.prod(c) for c in combinations(vals, k))


# --- frozen examples -------------------------------------------------------

def test_vieta_examples(ps_small):
    assert vieta_coefficients(10, SUM, ps_small).coeffs == [210, -247, 101, -17, 1]
    assert vieta_coefficients(10, DIFF, ps_small).coeffs == [210, 247, 101, 17, 1]
    assert vieta_coefficients(4, SUM, ps_small).coeffs == [6, -5, 1]
    assert naive_vieta([2, 3, 5, 7], SUM) == [210, -247, 101, -17, 1]


def test_c1_at_degree_0_reads_0():
    # a table that marks no prime <= a leaves the expansion [1]; c1 reads 0,
    # as q_and_c1 and the audit's G-/D-C1 read it there
    ps = marked_set({31, 37}, 200)
    for variant in (SUM, DIFF):
        vc = vieta_coefficients(10, variant, ps)
        assert (vc.coeffs, vc.degree, vc.c0, vc.c1) == ([1], 0, 1, 0)
        assert q_and_c1(10, variant, ps) == (0, 0)


def test_complement_set_shape(ps_small):
    cs = complement_set(10, SUM, ps_small)
    assert cs.values == [18, 17, 15, 13]
    cs = complement_set(10, DIFF, ps_small)
    assert cs.values == [22, 23, 25, 27]


def test_complement_product_examples(ps_small):
    assert complement_product(10, SUM, ps_small) == 18 * 17 * 15 * 13 == 59670
    assert complement_product(10, DIFF, ps_small) == 27 * 25 * 23 * 22 == 341550
    assert complement_product(3, SUM, ps_small) == 4 * 3 == 12
    assert complement_product(3, DIFF, ps_small) == 9 * 8 == 72


def test_q_and_c1_examples(ps_small):
    assert q_and_c1(10, SUM, ps_small) == (8000 - 17 * 400 + 101 * 20, -247) == (3220, -247)
    assert 3220 % 20 == 0
    # diff-variant Q recomputed from the coefficient sum: 8000 + 17*400 + 101*20
    assert q_and_c1(10, DIFF, ps_small) == (8000 + 17 * 400 + 101 * 20, 247) == (16820, 247)
    assert q_and_c1(4, SUM, ps_small) == (8, -5)


def test_realized_difference_examples(ps_small):
    assert realized_difference(10, SUM, ps_small) == 59670 - 210 == 59460
    assert 59460 // 20 == 2973
    assert realized_difference(10, DIFF, ps_small) == 341550 - 210 == 341340
    assert 341340 // 20 == 17067
    assert realized_difference(3, SUM, ps_small) == 12 - 6 == 6


def test_beta_examples():
    assert beta(4) == 0
    assert beta(11) == 1
    assert beta(2) == 1
    assert beta(1_000_003) == 1


def test_smoothness_examples(ps_small):
    rep = smoothness_factorization(59670, 10, ps_small)
    assert rep.exponents == {2: 1, 3: 3, 5: 1}
    assert rep.a_plus_1_exponent == 0
    assert rep.leftover == 13 * 17 == 221
    assert rep.reconstruct() == 59670

    rep = smoothness_factorization(341550, 10, ps_small)
    assert rep.exponents == {2: 1, 3: 3, 5: 2}
    assert rep.a_plus_1_exponent == 1
    assert rep.leftover == 23
    assert rep.above_bound_part == 11 * 23

    rep = smoothness_factorization(72, 3, ps_small)
    assert rep.exponents == {2: 3, 3: 2}
    assert rep.a_plus_1_exponent == 0
    assert rep.leftover == 1


def test_bezout_examples(ps_small):
    w = bezout_quadratic(10, SUM, ps_small)
    assert (w.u, w.v, w.coefficient) == (446, 3, -59460)
    assert 400 * 446 - 59460 * 3 == 20
    assert w.verified

    w = bezout_quadratic(10, DIFF, ps_small)
    assert w.verified
    assert math.gcd(400, 341340) == 20

    w = bezout_unit(10, SUM, ps_small)
    assert (w.u, w.v, w.coefficient) == (446, -3, 2973)
    assert 20 * 446 - 2973 * 3 == 1

    w = bezout_unit(10, DIFF, ps_small)
    assert w.verified and math.gcd(20, 17067) == 1

    # a = 4: normalized witness for 8u + 3v = 1 is (2, -5); (-1, 3) also solves it
    w = bezout_unit(4, SUM, ps_small)
    assert (w.u, w.v) == (2, -5)
    assert 8 * -1 + 3 * 3 == 1

    w = bezout_quadratic(4, SUM, ps_small)
    assert realized_difference(4, SUM, ps_small) == (8 - 2) * (8 - 3) - 6 == 24
    assert math.gcd(64, 24) == 8
    assert w.verified


# --- cross-checks against the oracles ---------------------------------------

def test_vieta_matches_naive_convolution(ps_small):
    for a in range(2, 120):
        plist = primes_upto(a, ps_small)
        for variant in (SUM, DIFF):
            assert vieta_coefficients(a, variant, ps_small).coeffs == naive_vieta(plist, variant), a


def test_vieta_matches_combination_sums(ps_small):
    for a in (5, 11, 20, 37):
        plist = primes_upto(a, ps_small)
        k = len(plist)
        for variant in (SUM, DIFF):
            coeffs = vieta_coefficients(a, variant, ps_small).coeffs
            sign = -1 if variant is SUM else 1
            for deg in range(k + 1):
                assert coeffs[deg] == sign ** (k - deg) * esp(plist, k - deg), (a, deg)


def test_constant_term_is_signed_primorial(ps_small):
    for a in range(2, 300):
        plist = primes_upto(a, ps_small)
        primorial = math.prod(plist)
        k = len(plist)
        assert vieta_coefficients(a, SUM, ps_small).c0 == (-1) ** k * primorial
        assert vieta_coefficients(a, DIFF, ps_small).c0 == primorial


@given(st.integers(min_value=2, max_value=150), st.integers(min_value=-60, max_value=60),
       st.sampled_from([SUM, DIFF]))
def test_evaluation_equals_direct_product(ps_small, a, x, variant):
    vc = vieta_coefficients(a, variant, ps_small)
    sign = -1 if variant is SUM else 1
    direct = math.prod(x + sign * p for p in primes_upto(a, ps_small))
    assert vc.evaluate(x) == direct


@given(marked=st.sets(st.integers(2, 400), max_size=60), a=st.integers(2, 400),
       x=st.integers(-10**6, 10**6))
@example(marked=set(), a=2, x=4)                              # k = 0
@example(marked={2}, a=2, x=4)                                # k = 1: S = 0
@example(marked={2, 3, 5}, a=5, x=10)                         # odd k
@example(marked={2, 3, 5, 7}, a=10, x=0)                      # even k, x = 0
def test_paired_evaluation_matches_plain_horner(marked, a, x):
    # roots read off a marked table, k = 0..60 of either parity: the paired
    # pass gives S(x) and S(-x) of the sum expansion, S = sum_{j>=2} c_j x^(j-2),
    # and both variants' states on one shared expansion give each
    # orientation's own (Q, c1) at 2a, Q = sum_{j>=2} c_j (2a)^(j-1)
    ps = marked_set(marked, 400)
    roots = sorted(m for m in marked if m <= a)
    expansion = algebra._Expansion(ps)
    for variant in (SUM, DIFF):
        state = _ProductState(variant, expansion, a)
        coeffs = naive_vieta(roots, variant)
        assert state.coeffs == coeffs
        assert state.q_and_c1 == (2 * a * plain_horner(coeffs[2:], 2 * a), coeffs[1] if roots else 0)
    s = naive_vieta(roots, SUM)[2:]
    assert algebra._horner_pair(expansion.upto(len(roots)), x) == (plain_horner(s, x), plain_horner(s, -x))


def test_expansion_identity_at_2a(ps_small):
    for a in range(2, 300):
        for variant in (SUM, DIFF):
            vc = vieta_coefficients(a, variant, ps_small)
            assert vc.evaluate(2 * a) == complement_product(a, variant, ps_small), (a, variant)


def test_congruence_mod_2a(ps_small):
    for a in range(4, 300):
        k = len(primes_upto(a, ps_small))
        primorial = math.prod(primes_upto(a, ps_small))
        assert complement_product(a, SUM, ps_small) % (2 * a) == ((-1) ** k * primorial) % (2 * a)
        assert complement_product(a, DIFF, ps_small) % (2 * a) == primorial % (2 * a)


def test_c1_coprime_to_primes_and_2a(ps_small):
    for a in range(4, 300):
        for variant in (SUM, DIFF):
            c1 = vieta_coefficients(a, variant, ps_small).c1
            assert math.gcd(2 * a, c1) == 1, (a, variant)
            for p in primes_upto(a, ps_small):
                assert c1 % p != 0, (a, variant, p)


def test_bracket_identity_and_divisibility(ps_small):
    for a in range(4, 300):
        for variant in (SUM, DIFF):
            q_value, c1 = q_and_c1(a, variant, ps_small)
            d = realized_difference(a, variant, ps_small)
            assert q_value % (2 * a) == 0
            assert d == 2 * a * (q_value + c1)
            assert d != 0 and d % (2 * a) == 0
            assert math.gcd(2 * a, d // (2 * a)) == 1
            assert abs(d) == 2 * a * abs(q_value + c1) > abs(q_value + c1)


@given(st.integers(min_value=4, max_value=400), st.sampled_from([SUM, DIFF]))
def test_bezout_witnesses_verify_and_normalize(ps_small, a, variant):
    w = bezout_quadratic(a, variant, ps_small)
    d = realized_difference(a, variant, ps_small)
    assert w.verified
    assert (2 * a) ** 2 * w.u + (-d) * w.v == 2 * a
    assert 0 <= w.u < abs(d) // (2 * a)

    w = bezout_unit(a, variant, ps_small)
    q_value, c1 = q_and_c1(a, variant, ps_small)
    assert w.verified
    assert 2 * a * w.u + (q_value + c1) * w.v == 1
    assert 0 <= w.u < max(abs(q_value + c1), 1)


@given(st.tuples(st.integers(2, 600), st.integers(2, 600)).map(sorted),
       st.integers(1, 4), st.sampled_from([SUM, DIFF]))
def test_product_state_matches_oracles(ps_small, bounds, every, variant):
    # one state per a over one expansion walked from lo, as an audit chunk
    # walks it; the expansion and the primorial are read only every few a,
    # so they must catch up
    lo, hi = bounds
    expansion = algebra._Expansion(ps_small)
    for a in range(lo, hi + 1):
        state = _ProductState(variant, expansion, a)
        plist = [p for p in _ORACLE_PRIMES if p <= a]
        k = len(plist)
        qs = [2 * a - p if variant is SUM else 2 * a + p for p in plist]
        assert (state.a, state.k, state.primes) == (a, k, plist)
        assert state.complements == qs
        assert state.product == math.prod(qs)
        if (a - lo) % every and a != hi:
            continue
        signed_primorial = (-1) ** k * primorial(a, ps_small) if variant is SUM else primorial(a, ps_small)
        assert state.coeffs == naive_vieta_prefix(variant, k)
        assert state.c0 == signed_primorial
        d = math.prod(qs) - signed_primorial
        assert state.difference == d
        assert state.divisibility == (d % (2 * a), math.gcd(2 * a, d // (2 * a)) if d % (2 * a) == 0 else 0)


def test_a_shared_expansion_cannot_move_back(ps_small):
    # two states share an expansion only when they stand at one a: a state
    # behind the other cannot read the longer expansion or primorial
    expansion = algebra._Expansion(ps_small)
    ahead, behind = _ProductState(SUM, expansion, 100), _ProductState(DIFF, expansion, 50)
    assert (ahead.coeffs, ahead.c0) == (naive_vieta(primes_upto(100, ps_small), SUM), -primorial(100, ps_small))
    for field in ("coeffs", "c0", "q_and_c1"):
        with pytest.raises(ValueError, match="cannot move back"):
            getattr(behind, field)


@given(bounds=st.tuples(st.integers(2, 1500), st.integers(2, 1500)).map(sorted),
       marked=st.none() | st.sets(st.integers(2, 1500), max_size=120))
@example(bounds=[2, 2], marked=None)                          # the same a twice
@example(bounds=[10, 600], marked=set())                      # k = 0 throughout
def test_a_walked_expansion_gives_every_field_of_a_fresh_one(ps_small, bounds, marked):
    # states of both variants at a2, over an expansion whose states at a
    # have read every field, equal states at a2 over a fresh expansion, field
    # for field (an ndarray field compares by np.array_equal), on the true
    # sieve (marked None) and on a marked table
    names = {name for name, v in vars(_ProductState).items() if isinstance(v, algebra._per_a)}
    assert "divisibility" in names
    ps = ps_small if marked is None else marked_set(marked, 1500)
    a, a2 = bounds
    walked = algebra._Expansion(ps)
    for variant in (SUM, DIFF):
        earlier = _ProductState(variant, walked, a)
        for name in names:
            getattr(earlier, name)
    for variant in (SUM, DIFF):
        later, fresh = _ProductState(variant, walked, a2), _ProductState(variant, algebra._Expansion(ps), a2)
        for name in sorted(names):
            assert np.array_equal(getattr(later, name), getattr(fresh, name)), (variant, name)


def test_divisibility_forms_neither_the_product_nor_d(ps_small):
    for variant in (SUM, DIFF):
        expansion = algebra._Expansion(ps_small)
        for a in (2, 3, 10, 997, 2000):
            state = _ProductState(variant, expansion, a)
            assert state.divisibility == (0, 1)
            assert "product" not in vars(state) and "difference" not in vars(state)


@pytest.mark.parametrize("variant", [SUM, DIFF])
@pytest.mark.parametrize("table", ["true", "without 3", "with 9 and 25"])
def test_divisibility_reads_the_same_off_a_held_product(ps_small, variant, table):
    # one state reduces the complements mod (2a)^2, the other reads the
    # residue off the product it already holds; on a table without 3, 2a | D
    # or gcd(2a, D/2a) = 1 breaks at some a
    marked = set(td_primes_upto(6003))
    ps = {"true": ps_small, "without 3": marked_set(marked - {3}, 6003),
          "with 9 and 25": marked_set(marked | {9, 25}, 6003)}[table]
    seen = set()
    for a in (2, 3, 10, 997, 2000, *range(4, 40)):
        loop, held = (_ProductState(variant, algebra._Expansion(ps), a) for _ in range(2))
        assert held.product == math.prod(held.complements)
        assert (loop.residue, loop.divisibility) == (held.residue, held.divisibility), a
        assert "product" not in vars(loop)
        assert held.residue == held.difference % (4 * a * a)
        seen.add(held.divisibility != (0, 1))
    assert seen == ({False} if table == "true" else {False, True})


def _block_boundary(g: int) -> int:
    """The largest t with t^g < 2^63, so that t + 1 needs rows shorter than g."""
    t = round(2 ** (63 / g))
    while t ** g >= 1 << 63:
        t -= 1
    while (t + 1) ** g < 1 << 63:
        t += 1
    return t


@pytest.mark.parametrize("k", [0, 1, 2, 7, 64, 127, 128, 129, 130, 301, 303])
def test_blocked_product_of_any_length(ps_small, k):
    # 2000's diff complements reach 6000, rows of 5; k = 303 = 60 rows and 3
    # over. Below algebra._INT64_ROWS_FROM (128) values take no rows
    values = 4000 + ps_small.primes[:k]
    assert algebra._int64_product(values) == math.prod(values.tolist())
    assert algebra._int64_product(-values) == math.prod((-values).tolist())


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 12, 31, 62, 63])
def test_blocked_product_at_each_side_of_a_row_boundary(g):
    # arrays whose largest |q| is the largest that rows of g take, and one
    # past it, with every value at that size so that a row reaches top^g:
    # a row one too long would overflow int64 and the product come out wrong
    rng = np.random.default_rng(g)
    rows_from = algebra._INT64_ROWS_FROM
    for top in {_block_boundary(g), min(_block_boundary(g) + 1, 2**63 - 1)}:
        for n in (1, rows_from, rows_from + 1, rows_from + g + 1, 3 * rows_from + 2):
            values = rng.choice([-top, top, top - 1], size=n)
            values[0] = top if g % 2 else -top
            assert algebra._int64_product(values.astype(np.int64)) == math.prod(values.tolist()), (g, top, n)
    for values in ([-2**63] * rows_from, [3, -2**63, 5] * rows_from, [2**63 - 1] * rows_from, [0, 1, -1] * rows_from):
        assert algebra._int64_product(np.array(values, dtype=np.int64)) == math.prod(values)


def test_difference_and_witnesses_make_no_expansion(ps_small, monkeypatch):
    calls = []
    expand = algebra._mul_linear
    monkeypatch.setattr(algebra, "_mul_linear", lambda c, s: (calls.append(s), expand(c, s)))
    for variant in (SUM, DIFF):
        realized_difference(500, variant, ps_small)
        bezout_quadratic(500, variant, ps_small)
        bezout_unit(500, variant, ps_small)
    assert calls == []
    vieta_coefficients(10, SUM, ps_small)
    assert calls == [-2, -3, -5, -7]       # the counter does see an expansion


def test_inexact_bezout_solve_raises(monkeypatch):
    # a wrong inverse leaves v inexact; the check must survive python -O
    monkeypatch.setattr(algebra, "pow", lambda b, e, m: builtins.pow(b, e, m) + 1, raising=False)
    with pytest.raises(GcdMismatchError) as exc:
        solve_quadratic_bezout(8, 24)
    assert exc.value.detail["remainder"] != 0
    with pytest.raises(GcdMismatchError) as exc:
        solve_unit_bezout(8, 3)
    assert exc.value.detail["remainder"] != 0


def test_package_has_no_assert_statements():
    # python -O strips assert, so no correctness check may rest on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(primeaudit.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_bezout_gcd_mismatch_paths():
    with pytest.raises(GcdMismatchError):
        solve_quadratic_bezout(8, 10)       # gcd(64, 10) = 2 != 8
    with pytest.raises(GcdMismatchError):
        solve_unit_bezout(8, 4)             # gcd(8, 4) = 4 != 1
    assert solve_unit_bezout(8, 3) == (2, -5)
    assert solve_quadratic_bezout(8, 24) == (2, 5)
    # |d/2a| = 1: the inverse mod 1 is 0
    assert solve_unit_bezout(8, 1) == (0, 1)
    assert solve_quadratic_bezout(8, 8) == (0, -1)
    # a negative d: the same u, and the quadratic v is the unit v negated
    assert solve_unit_bezout(8, -3) == (2, 5)
    assert solve_quadratic_bezout(8, -24) == (2, -5)


def ext_gcd(x, y):
    """Textbook iterative extended Euclid: x*u + y*v = g."""
    old_r, r, old_u, u, old_v, v = x, y, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


@given(st.integers(min_value=4, max_value=300), st.sampled_from([SUM, DIFF]))
def test_bezout_matches_extended_euclid_oracle(ps_small, a, variant):
    two_a = 2 * a
    d = realized_difference(a, variant, ps_small)
    g, u0, _ = ext_gcd(two_a * two_a, d)
    assert g == two_a
    # solutions of (2a)^2 u + (-d) v = 2a have u == u0 (mod |d| / 2a)
    m = abs(d) // two_a
    assert solve_quadratic_bezout(two_a, d)[0] == u0 % m

    b = d // two_a
    g, u0, _ = ext_gcd(two_a, b)
    assert g == 1
    assert solve_unit_bezout(two_a, b)[0] == u0 % abs(b)


@given(st.integers(min_value=1, max_value=10**24), st.integers(min_value=2, max_value=120))
@example(value=11**5, bound=10)              # exponents {}, a_plus_1_exponent 5, leftover 1
@example(value=1, bound=2)
def test_smoothness_reconstruction(ps_small, value, bound):
    rep = smoothness_factorization(value, bound, ps_small)
    assert rep.reconstruct() == value
    for p in td_primes_upto(bound):
        assert rep.leftover % p != 0
    if rep.a_plus_1_exponent:
        assert beta(bound + 1) == 1
        assert rep.leftover % (bound + 1) != 0
    # bound + 1 is never a key of exponents: its multiplicity has its own field
    assert set(rep.exponents) <= set(td_primes_upto(bound))
    e1, t = 0, value
    while td_is_prime(bound + 1) and t % (bound + 1) == 0:
        e1, t = e1 + 1, t // (bound + 1)
    assert rep.a_plus_1_exponent == e1


def test_counterexample_equivalence_sum(ps_small):
    # composite a only: the sum product keeps a prime factor above a
    # exactly when 2a splits into two primes
    for a in range(4, 400):
        if ps_small.is_prime(a):
            continue
        rep = smoothness_factorization(complement_product(a, SUM, ps_small), a, ps_small)
        has_pairs = bool(goldbach_partitions(a, ps_small).pairs)
        assert (rep.above_bound_part == 1) == (not has_pairs), a


def test_counterexample_equivalence_diff(ps_small):
    for a in range(4, 400):
        rep = smoothness_factorization(complement_product(a, DIFF, ps_small), a, ps_small)
        has_pairs = bool(diff_representations(a, ps_small).pairs)
        assert (rep.leftover == 1) == (not has_pairs), a


def test_a_plus_1_exponent_is_exactly_one(ps_small):
    hits = 0
    for a in range(4, 500):
        rep = smoothness_factorization(complement_product(a, DIFF, ps_small), a, ps_small)
        expected = beta(a + 1)
        assert rep.a_plus_1_exponent == expected, a
        hits += expected
    assert hits > 0


def test_prime_a_keeps_identities(ps_small):
    # when a is prime, q_pi(a) = a cancels: identities hold unchanged
    for a in (5, 7, 11, 13, 97):
        vc = vieta_coefficients(a, SUM, ps_small)
        assert vc.evaluate(2 * a) == complement_product(a, SUM, ps_small)
        assert bezout_quadratic(a, SUM, ps_small).verified


def test_algebra_cap_and_argument_errors(ps_small):
    with pytest.raises(CapacityError):
        vieta_coefficients(201, SUM, ps_small, cap=200)
    with pytest.raises(CapacityError):
        complement_product(10**4 + 1, SUM, ps_small)
    with pytest.raises(ValueError):
        vieta_coefficients(1, SUM, ps_small)
    with pytest.raises(ValueError):
        smoothness_factorization(0, 10, ps_small)
