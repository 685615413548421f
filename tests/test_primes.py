import dataclasses
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from primeaudit import CapacityError, SieveRangeError, build_sieve, is_prime, prime_pi, primes, primorial
from primeaudit.algebra import smoothness_factorization
from primeaudit.primes import PrimeSet, _simple_sieve, primes_upto

from conftest import td_is_prime, td_primes_upto


def test_small_sieves():
    assert build_sieve(10).primes.tolist() == [2, 3, 5, 7]
    assert build_sieve(1).primes.tolist() == []
    assert build_sieve(0).primes.tolist() == []
    assert build_sieve(2).primes.tolist() == [2]


def test_sieve_matches_trial_division_exhaustively():
    ps = build_sieve(10_000)
    for n in range(10_001):
        assert ps.is_prime(n) == td_is_prime(n), n


def test_simple_sieve_matches_trial_division():
    # G-/D-EQUIV check the table against it up to 3A + 3, here for A at the
    # default algebra cap
    assert np.flatnonzero(_simple_sieve(30_003)).tolist() == td_primes_upto(30_003)


def test_prime_count_to_100_against_trial_division():
    oracle = len(td_primes_upto(100))
    assert oracle == 25
    assert len(build_sieve(100).primes) == 25


def test_segmentation_is_invisible(monkeypatch):
    whole = build_sieve(100_000)
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT", 1 << 10)
    segmented = build_sieve(100_000)
    assert whole.table == segmented.table
    assert np.array_equal(whole.primes, segmented.primes)


def test_table_bits_align_with_prime_list():
    ps = build_sieve(5_000)
    from_table = [n for n in range(5_001) if ps.is_prime(n)]
    assert from_table == ps.primes.tolist()


def test_sieve_capacity_and_argument_errors(monkeypatch):
    monkeypatch.setattr(primes, "_physical_memory", lambda: 8 << 30)     # the same answer on any machine
    with pytest.raises(CapacityError):
        build_sieve(2**36)
    with pytest.raises(ValueError):
        build_sieve(-1)


def test_prime_pi_examples(ps_small):
    assert prime_pi(10, ps_small) == 4
    assert prime_pi(1, ps_small) == 0
    assert prime_pi(0, ps_small) == 0
    assert prime_pi(100, ps_small) == 25
    assert prime_pi(2, ps_small) == 1
    with pytest.raises(SieveRangeError):
        prime_pi(ps_small.limit + 1, ps_small)


def test_primorial_examples(ps_small):
    assert primorial(10, ps_small) == 2 * 3 * 5 * 7 == 210
    assert primorial(7, ps_small) == 210
    assert primorial(1, ps_small) == 1
    assert primorial(0, ps_small) == 1
    assert primorial(2, ps_small) == 2
    with pytest.raises(CapacityError):
        primorial(10**6 + 1, ps_small)
    with pytest.raises(SieveRangeError):
        primorial(ps_small.limit + 1, ps_small)


def test_primorial_growth_beats_2a():
    # holds for every a > 4 (fails at a = 4: 8 > 6)
    ps = build_sieve(10_000)
    running = 1
    idx = 0
    plist = ps.prime_list
    assert 2 * 4 > 2 * 3
    for a in range(5, 10_001):
        while idx < len(plist) and plist[idx] <= a:
            running *= plist[idx]
            idx += 1
        if running <= 20_000:
            assert 2 * a < running, a
    assert running > 20_000


def test_bertrand_prime_in_every_window():
    # a < q < 2a for every 2 <= a <= 10^6; at a = 1 the open window (1, 2)
    # contains no integer at all, so the scan starts at 2
    ps = build_sieve(2_000_001)
    p = ps.primes
    below = p[p <= 10**6]
    nxt = p[1 : len(below) + 1]
    assert np.all(nxt < 2 * below)


def test_is_prime_uses_sieve_then_witnesses(ps_small):
    for n in list(range(0, 2_000)) + [65_537, 99_991]:
        assert is_prime(n, ps_small) == td_is_prime(n), n
    # beyond the sieve limit the witness path answers
    assert is_prime(ps_small.limit + 7, ps_small) == td_is_prime(ps_small.limit + 7)


def test_is_prime_witness_path_known_values():
    assert is_prime(1) is False
    assert is_prime(11) is True
    assert is_prime(2**61 - 1) is True          # Mersenne exponent 61
    assert (2**61 - 1) == 2305843009213693951
    assert is_prime(2**64 - 59) is True          # largest prime below 2^64
    assert is_prime(2047) is False               # 23 * 89, strong pseudoprime base 2
    assert 23 * 89 == 2047
    assert is_prime(3215031751) is False         # 151 * 751 * 28351
    assert 151 * 751 * 28351 == 3215031751
    assert is_prime(561) is False                # Carmichael
    # beyond 2^64 the extended witness set answers
    assert is_prime(18446744073709551629) is True    # first prime past 2^64
    assert 274177 * 67280421310721 == 2**64 + 1      # Fermat F6 splits
    assert is_prime(2**64 + 1) is False
    assert is_prime((2**61 - 1) * 1000003) is False


def test_is_prime_beyond_proven_bound_refuses():
    # easy factors still answer exactly past the bound; only inputs that
    # would need unproven witnesses refuse
    n = 3317044064679887385961981
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    while any(n % p == 0 for p in small):
        n += 2
    with pytest.raises(CapacityError):
        is_prime(n)


@given(st.integers(min_value=0, max_value=300_000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == td_is_prime(n)


@pytest.mark.parametrize("limit", [10**5, 10**7, 10**12])
def test_a_sieve_past_physical_memory_is_refused_before_allocating(monkeypatch, limit):
    # the peak is the table twice and the prime array twice, with
    # pi(n) <= 1.25506 n / ln n (1.7 MB at 10^6): a memory figure just below
    # it refuses, with next to nothing allocated, and one just above builds
    peak = 2 * ((limit + 8) // 8) + 16 * 1.25506 * limit / np.log(limit)
    monkeypatch.setattr(primes, "_physical_memory", lambda: int(peak) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"sieve limit {limit} exceeds physical memory"):
            build_sieve(limit)
        _, allocated = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allocated < 10**4
    if limit <= 10**7:
        monkeypatch.setattr(primes, "_physical_memory", lambda: int(peak) + 1)
        assert prime_pi(limit, build_sieve(limit)) == {10**5: 9592, 10**7: 664579}[limit]


def test_physical_memory_is_the_machines():
    assert primes._physical_memory() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") > 0


def test_primes_upto_slices(ps_small):
    assert primes_upto(10, ps_small) == [2, 3, 5, 7]
    assert primes_upto(2, ps_small) == [2]
    assert primes_upto(1, ps_small) == []


def test_primeset_is_frozen_and_keeps_lazy_caches():
    ps = build_sieve(100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ps.limit = 50
    assert ps.prime_list is ps.prime_list
    assert ps.table_view is ps.table_view
    assert ps.primes is ps.primes
    assert {"primes", "prime_list", "table_view"} <= ps.__dict__.keys()
    clone = pickle.loads(pickle.dumps(ps))
    assert "primes" not in clone.__dict__ and "prime_list" not in clone.__dict__   # rebuilt, not shipped
    assert (clone.limit, clone.table) == (ps.limit, ps.table)
    assert clone.prime_list == ps.prime_list == td_primes_upto(100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        clone.table = b""


@pytest.mark.parametrize("limit, marked, table_bytes, error", [
    (64, [0, 8], 9, "primes must lie in"),     # p = 0 would pass G-PRP at a = 4 through 2a - p = 8
    (64, [3, 70], 9, "primes must lie in"),    # past the limit
    (64, [3, 5], 8, "table must hold 9 bytes"),
    (-1, [], 0, "limit must be non-negative"),
])
def test_primeset_rejects_a_misshapen_set(limit, marked, table_bytes, error):
    table = bytearray(table_bytes)
    for m in marked:
        table[m >> 3] |= 1 << (m & 7)
    with pytest.raises(ValueError, match=error):
        PrimeSet(limit=limit, table=bytes(table))


def _table(marked, limit: int) -> bytes:
    table = bytearray((limit + 8) // 8)
    for m in marked:
        table[m >> 3] |= 1 << (m & 7)
    return bytes(table)


@pytest.mark.parametrize("limit", [*range(18), 63, 64, 71, 72, 200])
def test_a_table_marking_0_1_or_past_the_limit_is_rejected(limit):
    # every bit the table holds outside [2, limit] alone, then every bit inside
    for bit in [0, 1, *range(limit + 1, 8 * ((limit + 8) // 8))]:
        with pytest.raises(ValueError, match="primes must lie in"):
            PrimeSet(limit, _table([bit], limit))
    inside = range(2, limit + 1)
    assert PrimeSet(limit, _table(inside, limit)).prime_list == list(inside)


@given(limit=st.integers(2, 700), data=st.data())
def test_the_prime_array_is_the_tables_set_bits(limit, data):
    marked = data.draw(st.sets(st.integers(2, limit)))
    ps = PrimeSet(limit, _table(marked, limit))
    assert ps.primes.dtype == np.int64
    assert ps.primes.tolist() == ps.prime_list == sorted(marked)


def test_the_sieve_caches_the_array_a_fresh_set_reads_off_its_table(monkeypatch):
    sieves = [build_sieve(n) for n in range(200)]
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT", 1 << 10)
    sieves.append(build_sieve(100_000))
    for ps in sieves:
        fresh = PrimeSet(ps.limit, ps.table)
        assert "primes" in ps.__dict__ and "primes" not in fresh.__dict__
        assert ps.primes.dtype == fresh.primes.dtype
        assert np.array_equal(ps.primes, fresh.primes)


def test_primesets_compare_and_hash_by_limit_and_table():
    ps = build_sieve(100)
    assert [f.name for f in dataclasses.fields(PrimeSet)] == ["limit", "table"]
    assert ps == build_sieve(100) == PrimeSet(100, ps.table)
    assert hash(ps) == hash(build_sieve(100)) and len({ps, build_sieve(100)}) == 1
    assert ps != build_sieve(101) and ps != PrimeSet(100, _table([2, 3], 100))


def test_a_pickled_set_ships_only_its_limit_and_table():
    ps = build_sieve(1000)
    ps.prime_list, ps.table_view                     # fill every cache first
    smoothness_factorization(math.factorial(500), 997, ps)
    assert ps.trial_blocks.blocks
    clone = pickle.loads(pickle.dumps(ps))
    assert clone.__dict__.keys() == {"limit", "table"}
    assert clone == ps and np.array_equal(clone.primes, ps.primes)


@pytest.mark.parametrize("n", [1, 5, 168, 189, 700, 1229])
def test_trial_blocks_tile_the_prime_list(n):
    # a request for the first n primes forms blocks from the list's start
    # up to the first block end at or past n, none further; each modulus,
    # of a block or of a sub-block, is the product of its primes
    ps = build_sieve(10_000)
    blocks = ps.trial_blocks.cover(n)
    plist = ps.prime_list
    assert blocks[0][0] == 0 and blocks[-1][0] < n <= blocks[-1][1]
    for (lo, hi, modulus, subs, coprime), nxt in zip(blocks, blocks[1:] + [(blocks[-1][1],)]):
        assert hi == nxt[0] and modulus == math.prod(plist[lo:hi]) and coprime
        assert modulus.bit_length() >= primes._BLOCK_BITS or hi == len(plist)
        assert [s[0] for s in subs] == [lo] + [s[1] for s in subs[:-1]] and subs[-1][1] == hi
        for s_lo, s_hi, m in subs:
            assert m == math.prod(plist[s_lo:s_hi]) and (m.bit_length() <= primes._SUB_BITS or s_hi - s_lo == 1)
    count = len(blocks)
    assert len(ps.trial_blocks.cover(n)) == len(ps.trial_blocks.cover(n // 2 + 1)) == count   # kept
    assert ps.trial_blocks.cover(len(plist) + 1)[-1][1] == len(plist)              # a request past the list


def test_a_block_whose_primes_share_a_factor_is_not_coprime():
    # a table marking 3 and 9 puts both in the first block; 9 and 1203 = 3 * 401
    # on a table missing 3 and 401 fall in different blocks, each coprime
    true = set(td_primes_upto(3000))
    first = PrimeSet(3000, _table(true | {9}, 3000)).trial_blocks.cover(1)[0]
    assert not first[4]
    ps = PrimeSet(3000, _table(true - {3, 401} | {9, 1203}, 3000))
    blocks = ps.trial_blocks.cover(len(ps.prime_list))
    assert [b[4] for b in blocks] == [True] * len(blocks)
    at = [next(k for k, b in enumerate(blocks) if b[0] <= ps.prime_list.index(m) < b[1]) for m in (9, 1203)]
    assert at[0] < at[1]



def test_a_mutable_table_is_copied():
    # a bytearray table is copied to bytes: the set hashes, and a later
    # write to the caller's buffer reaches neither the table nor the primes
    buffer = bytearray(_table([2, 3, 5], 64))
    ps = PrimeSet(64, buffer)
    assert hash(ps) == hash(PrimeSet(64, _table([2, 3, 5], 64))) and ps == PrimeSet(64, _table([2, 3, 5], 64))
    assert ps.primes.tolist() == [2, 3, 5]
    buffer[0] |= 1 << 7
    assert type(ps.table) is bytes and not ps.is_prime(7) and ps.prime_list == [2, 3, 5]
    table = _table([2, 3, 5], 64)
    assert PrimeSet(64, table).table is table                    # bytes are kept, not copied
