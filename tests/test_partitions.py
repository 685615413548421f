import pytest
from hypothesis import example, given, strategies as st

from primeaudit import NoDecompositionError, SieveRangeError, build_sieve
from primeaudit.partitions import (
    _bits,
    _census_counts,
    diff_representations,
    goldbach_partitions,
    has_diff_representation,
    has_goldbach,
    min_prime_reflective_point,
    polignac_census,
    prime_reflective_points,
    ternary_decomposition,
)
from primeaudit.primes import PrimeSet, prime_pi

from conftest import td_is_prime, td_primes_upto


# --- brute-force oracles -----------------------------------------------------

def bf_partitions(a):
    return [(p, 2 * a - p) for p in td_primes_upto(a) if td_is_prime(2 * a - p)]


def bf_diffs(a):
    return [(p, 2 * a + p) for p in td_primes_upto(a) if td_is_prime(2 * a + p)]


def bf_prp(a):
    return [b for b in range(1, a - 1) if td_is_prime(a - b) and td_is_prime(a + b)]


def bf_census(gap, limit):
    primes = set(td_primes_upto(limit))
    return sum(1 for p in primes if p + gap <= limit and (p + gap) in primes)


def old_census(gap, limit, ps):
    """The census as polignac_census counted it before the word kernel: one
    gather of the table bits of p + gap over the primes p <= limit - gap."""
    p = ps.primes[:prime_pi(max(limit - gap, 0), ps)]
    return int(_bits(ps.table_view, p + gap).sum())


def bf_ternary(n):
    m = n - 3
    for p in td_primes_upto(m // 2):
        if p != 2 and td_is_prime(m - p):
            return (3, p, m - p)
    return None


# --- frozen examples ---------------------------------------------------------

def test_goldbach_partition_examples(ps_small):
    assert goldbach_partitions(10, ps_small).pairs == [(3, 17), (7, 13)]
    assert goldbach_partitions(3, ps_small).pairs == [(3, 3)]
    assert goldbach_partitions(4, ps_small).pairs == [(3, 5)]
    assert goldbach_partitions(2, ps_small).pairs == [(2, 2)]


def test_has_goldbach_examples(ps_small):
    assert has_goldbach(10, ps_small)
    assert has_goldbach(2, ps_small)
    assert has_goldbach(3, ps_small)


def test_diff_representation_examples(ps_small):
    assert diff_representations(10, ps_small).pairs == [(3, 23)]
    assert diff_representations(3, ps_small).pairs == []
    assert diff_representations(4, ps_small).pairs == [(3, 11)]


def test_prp_examples(ps_small):
    assert prime_reflective_points(4, ps_small).min_point == 1
    assert prime_reflective_points(5, ps_small).min_point == 2
    res = prime_reflective_points(10, ps_small)
    assert res.min_point == 3 and res.points == [3, 7]


def test_ternary_examples(ps_small):
    assert ternary_decomposition(9, ps_small) == (3, 3, 3)
    assert ternary_decomposition(11, ps_small) == (3, 3, 5)
    assert ternary_decomposition(21, ps_small) == (3, 5, 13)
    assert bf_ternary(21) == (3, 5, 13)


def test_polignac_census_examples(ps_small):
    assert polignac_census(2, 100, ps_small).count == bf_census(2, 100) == 8
    assert polignac_census(4, 100, ps_small).count == bf_census(4, 100) == 8
    assert polignac_census(6, 50, ps_small).count == bf_census(6, 50) == 9


# --- oracle sweeps and properties --------------------------------------------

def test_partitions_match_brute_force(ps_small):
    for a in range(2, 260):
        got = goldbach_partitions(a, ps_small).pairs
        assert got == bf_partitions(a), a
        for p, q in got:
            assert td_is_prime(p) and td_is_prime(q) and p + q == 2 * a and p <= q


def test_diffs_match_brute_force(ps_small):
    for a in range(2, 260):
        got = diff_representations(a, ps_small).pairs
        assert got == bf_diffs(a), a
        for p, q in got:
            assert td_is_prime(p) and td_is_prime(q) and q - p == 2 * a and p <= a


def test_prp_matches_brute_force(ps_small):
    for a in range(4, 260):
        res = prime_reflective_points(a, ps_small)
        assert res.points == bf_prp(a), a
        assert res.min_point == (res.points[0] if res.points else None)
        assert min_prime_reflective_point(a, ps_small) == res.min_point


def test_ternary_matches_brute_force(ps_small):
    for n in range(9, 500, 2):
        assert ternary_decomposition(n, ps_small) == bf_ternary(n), n


def test_census_matches_brute_force(ps_small):
    for gap in (2, 4, 6, 10, 30):
        for limit in (10, 50, 300, 1000):
            assert polignac_census(gap, limit, ps_small).count == bf_census(gap, limit), (gap, limit)


def census_edges(top):
    """(gap, limit) pairs at the word kernel's edges, for a sieve to top:
    gaps that are whole words, last = limit - gap with last + 1 a whole
    number of words, one bit more or one less, windows of fewer than two
    numbers, and pairs whose upper member is the sieve's top."""
    gaps = [2, 4, 62, 64, 66, 126, 128, 130, 640, 1000]
    edges = set()
    for gap in gaps:
        for last in (-2, -1, 0, 1, 62, 63, 64, 127, 128, 64 * 37 - 1, 64 * 37, 64 * 37 + 62,
                     top - 2 * gap, top - 2 * gap - 1, top - 2 * gap - 64):
            if last >= -gap and last + 2 * gap <= top:
                edges.add((gap, last + gap))
    return sorted(edges)


@pytest.fixture(scope="module")
def ps_2m():
    """A table of 250001 bytes: its last word is partial."""
    return build_sieve(2_000_003)


@pytest.fixture(scope="module")
def ps_words():
    """A table of 128 bytes: whole words to its end."""
    return build_sieve(1016)


def test_census_kernel_edges(ps_small, ps_words, ps_2m):
    for ps in (ps_small, ps_words, build_sieve(40)):        # the last one has no whole word
        for gap, limit in census_edges(ps.limit):
            got = polignac_census(gap, limit, ps).count
            assert got == bf_census(gap, limit) == old_census(gap, limit, ps), (ps.limit, gap, limit)
    for gap, limit in census_edges(ps_2m.limit):
        assert polignac_census(gap, limit, ps_2m).count == old_census(gap, limit, ps_2m), (gap, limit)
    # the pinned shapes all occur
    pairs = census_edges(ps_small.limit)
    assert any(g % 64 == 0 for g, _ in pairs)
    assert {(lim - g + 1) % 64 for g, lim in pairs} >= {0, 1, 63}
    assert {lim - g for g, lim in pairs} >= {-2, -1, 0, 1}
    assert any(lim + g == ps_small.limit for g, lim in pairs)


@given(half_gap=st.integers(1, 600), data=st.data())
def test_census_kernel_matches_the_oracles(ps_small, ps_words, half_gap, data):
    gap = 2 * half_gap
    for ps in (ps_small, ps_words):
        if gap > ps.limit:
            continue
        limit = data.draw(st.integers(0, ps.limit - gap), label="limit")
        got = polignac_census(gap, limit, ps).count
        assert got == bf_census(gap, limit) == old_census(gap, limit, ps), (ps.limit, gap, limit)


@given(half_gap=st.integers(1, 5000), data=st.data())
def test_census_kernel_matches_the_gather_on_a_large_sieve(ps_2m, half_gap, data):
    gap = 2 * half_gap
    limit = data.draw(st.integers(0, ps_2m.limit - gap), label="limit")
    assert polignac_census(gap, limit, ps_2m).count == old_census(gap, limit, ps_2m)


@given(st.integers(min_value=4, max_value=2000))
def test_mirror_symmetry(ps_small, a):
    # each partition (p, q) with p < a reflects to the point b = a - p,
    # and the central pair (a, a) exists exactly when a is prime
    pairs = goldbach_partitions(a, ps_small).pairs
    points = prime_reflective_points(a, ps_small).points
    assert sorted(a - p for p, _ in pairs if p != a) == points
    assert ((a, a) in pairs) == ps_small.is_prime(a)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=20))
def test_census_monotone_in_limit(ps_small, n1, delta, half_gap):
    gap = 2 * half_gap
    lo = polignac_census(gap, n1, ps_small).count
    hi = polignac_census(gap, n1 + delta, ps_small).count
    assert lo <= hi


WHOLE_WORDS_END = 64 * ((20_000 + 8) // 8 // 8)       # ps_small's table: the first bit past its whole words


@given(gap=st.sampled_from([2, 4, 6, 62, 64, 66, 128, 192, 254, 256, 1000]),
       limits=st.lists(st.integers(0, 20_000), min_size=1, max_size=4), data=st.data())
@example(gap=64, limits=[10, 63, 64, 129], data=None)                              # below the gap, a word
@example(gap=2, limits=[WHOLE_WORDS_END - 1 - 2, WHOLE_WORDS_END - 2, 20_000 - 2], data=None)
@example(gap=128, limits=[WHOLE_WORDS_END - 1 - 128, 20_000 - 128], data=None)    # last whole word, the end
@example(gap=1000, limits=[999, 1000, 1001, 20_000 - 1000], data=None)
def test_census_counts_at_ascending_limits(ps_small, gap, limits, data):
    # one AND at the largest limit against polignac_census at each limit
    # and the brute-force count; limits past the table's end are cut to it
    limits = sorted(min(x, ps_small.limit - gap) for x in limits)
    if data is not None and data.draw(st.booleans(), label="add the end"):
        limits.append(ps_small.limit - gap)
    got = _census_counts(gap, limits, ps_small)
    assert got == [polignac_census(gap, x, ps_small).count for x in limits]
    assert got == [bf_census(gap, x) for x in limits]
    assert got == sorted(got)


def test_early_exit_helpers_agree(ps_small):
    for a in range(2, 2000):
        assert has_goldbach(a, ps_small) == bool(goldbach_partitions(a, ps_small).pairs)
        assert has_diff_representation(a, ps_small) == bool(diff_representations(a, ps_small).pairs)


def test_diff_nonempty_desk_slice(ps_small):
    assert not has_diff_representation(3, ps_small)
    for a in range(4, 2000):
        assert has_diff_representation(a, ps_small), a


def test_argument_errors(ps_small):
    with pytest.raises(ValueError):
        goldbach_partitions(1, ps_small)
    with pytest.raises(ValueError):
        prime_reflective_points(3, ps_small)
    with pytest.raises(ValueError):
        ternary_decomposition(10, ps_small)
    with pytest.raises(ValueError):
        ternary_decomposition(7, ps_small)
    with pytest.raises(ValueError):
        polignac_census(3, 100, ps_small)
    with pytest.raises(SieveRangeError):
        goldbach_partitions(ps_small.limit, ps_small)
    with pytest.raises(SieveRangeError):
        diff_representations(ps_small.limit // 2, ps_small)
    with pytest.raises(SieveRangeError):
        polignac_census(2, ps_small.limit, ps_small)


def test_ternary_none_is_an_error():
    # a sieve stub whose table marks nothing prime forces the error path
    broken = PrimeSet(limit=40, table=bytes(6))
    with pytest.raises(NoDecompositionError):
        ternary_decomposition(9, broken)
