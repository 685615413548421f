"""Direct searches for additive prime structure of even numbers 2a:
sum partitions, difference representations, reflective points around a,
three-prime decompositions of odd numbers, and fixed-gap pair censuses.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NoDecompositionError, SieveRangeError
from .primes import PrimeSet, prime_pi


@dataclass
class GoldbachPartition:
    a: int
    pairs: list[tuple[int, int]]   # (p, q), p <= q, p + q = 2a, both prime, ascending in p


@dataclass
class DiffRepresentation:
    a: int
    pairs: list[tuple[int, int]]   # (p, q), q - p = 2a, p prime <= a, q prime, ascending in p


@dataclass
class PrpResult:
    a: int
    points: list[int]              # ascending b with a-b and a+b both prime, 0 < b <= a-2
    min_point: int | None


@dataclass
class GapCensus:
    gap: int
    limit: int
    count: int                     # prime pairs (p, p + gap) with both members <= limit


# A check formats its message only when it raises: an f-string per call was a tenth of a first-hit query.
def _check_a(ps: PrimeSet, a: int, least: int, needed: int, what: str) -> None:
    if a < least:
        _check_least(a, least)
    _require_range(ps, needed, what)


def _check_least(a: int, least: int) -> None:
    if a < least:
        raise ValueError(f"a must be >= {least}, got {a}")


def _check_ternary(n: int) -> None:
    if n < 9 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 9, got {n}")


def _check_census(gap: int, limit: int) -> None:
    if gap < 2 or gap % 2:
        raise ValueError(f"gap must be even and >= 2, got {gap}")
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")


def _require_range(ps: PrimeSet, needed: int, what: str) -> None:
    if needed > ps.limit:
        raise SieveRangeError(f"{what} needs sieve limit >= {needed}, have {ps.limit}")


def _bits(view: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Table bits of q, 1 where prime; a uint8 shift count keeps the lookup
    in bytes. A q past either end of the table reads a bit of the table's
    first or last byte, so a caller must not count it."""
    return (np.take(view, q >> 3, mode="clip") >> (q & 7).astype(np.uint8)) & 1


# The first 48 primes leave about 130 targets of a 65536-target chunk
# unresolved near a = 1e6 and about 220 near 5e6, and each of them reads
# every target, so the search runs them densely: each prime tests the whole
# chunk with one slice of a parity plane of the table. _sweep takes the
# targets left. Over the 28 kernel calls of the benchmark's search-sweep
# (a up to 1.05e6) a head of 48 took 4-11 % less time than one of 40, 56
# or 64, and 21 % less than one of 32 (medians of 100 alternating rounds).
_DENSE_PRIMES = 48

# A _sweep gather tests at most _GATHER_CELLS targets against at most
# _BLOCK_PRIMES primes, and at most _GATHER_CELLS (target, prime) cells in
# all, so its int64 index array stays within 64 KiB, below glibc's 128 KiB
# mmap threshold. The planes of the head also reach the _BLOCK_PRIMES primes
# after it, so _sweep's first block reads them in place of the table; near
# a = 1e6 that block settles every target the head leaves.
_BLOCK_PRIMES = 64
_GATHER_CELLS = 1 << 13

# _NOT_PRIME[r][b] holds the bits r, r + 2, r + 4, r + 6 of the byte b,
# inverted (True where not prime), as the four bytes of one uint32.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little") == 0
_NOT_PRIME = tuple(np.ascontiguousarray(_BYTE_BITS[:, r::2]).view(np.uint32).ravel() for r in (0, 1))


def _sweep(view: np.ndarray, pos: np.ndarray, n0: int, pmax0: int, sign: int, primes: np.ndarray,
           plane: np.ndarray | None = None, b0: int = 0, reach: int = 0) -> np.ndarray:
    """The targets of pos (ascending; values n0 + 2*pos, bounds pmax0 + pos)
    that no prime of primes within its bound settles, ascending.

    Slabs of at most _GATHER_CELLS targets meet the primes a block at a
    time: one gather reads n0 + 2*pos + sign*p for every target of the slab
    and every p of the block, and a hit counts only where p is within the
    target's bound (a read past either end of the table is never counted).
    A block within the first reach primes reads plane, whose index k holds
    bit b0 + 2k (+1) of the table inverted, in place of the table. A target
    whose bound is below the block's first prime is done; those are the
    smallest targets left, so the result stays ascending.
    """
    out = []
    for start in range(0, pos.size, _GATHER_CELLS):
        rows = pos[start:start + _GATHER_CELLS]
        i = 0
        while rows.size and i < primes.size:
            cut = int(np.searchsorted(rows, primes[i] - pmax0))      # pmax0 + rows < primes[i]
            if cut:
                out.append(rows[:cut])
                rows = rows[cut:]
            if not rows.size:
                break
            block = primes[i:i + min(_BLOCK_PRIMES, max(1, _GATHER_CELLS // rows.size))]
            i += block.size
            bound = block <= (pmax0 + rows)[:, None]
            if i <= reach:
                notp = np.take(plane, rows[:, None] + ((n0 + sign * block - b0) >> 1), mode="clip")
                hit = np.greater(bound, notp)                         # within the bound and prime
            else:
                hit = _bits(view, (n0 + 2 * rows)[:, None] + sign * block) & bound
            rows = rows[~hit.any(axis=1)]
        out.append(rows)                          # left when the primes ran out
    return np.concatenate(out) if out else pos


def _unresolved(ps: PrimeSet, n0: int, count: int, pmax0: int, sign: int, first: int = 0) -> np.ndarray:
    """Positions i < count for which no prime p with p <= pmax0 + i, taken
    from the first-th prime on, makes n0 + 2i + sign*p prime; ascending.

    The minimal-p search run over a progression of targets at once, each
    bound one above the last, so the targets that a prime p passes are a
    prefix (cut = p - pmax0, clipped to [0, count]) and p tests the rest,
    n0 + 2i + sign*p for i >= cut: a contiguous run of the table's even or
    odd plane, by the parity of n0 + sign*p. The first _DENSE_PRIMES primes
    clear their hits from a mask of the chunk with one slice each; _sweep
    tests the targets left against blocks of the later primes, one gather
    per block, and its blocks within the next _BLOCK_PRIMES primes gather
    from the same planes. Reads ps.primes only, never ps.prime_list.
    """
    if not count:
        return np.arange(0)
    view = ps.table_view
    primes = ps.primes[first:]
    # the primes the planes serve, the head and one block, up to the last bound
    near = primes[:_DENSE_PRIMES + _BLOCK_PRIMES].tolist()
    near = near[:bisect_right(near, pmax0 + count - 1)]
    if not near:
        return _sweep(view, np.arange(count), n0, pmax0, sign, primes)
    # near[:k] test every target, and the lowest number they read is at i = 0
    # (the largest of them for sign -1); the rest read from their cut on, and
    # near[k] reads the lowest number there
    k = bisect_right(near, pmax0)
    low = [n0 + sign * near[k - 1 if sign < 0 else 0]] if k else []
    if k < len(near):
        low.append(n0 - 2 * pmax0 + (2 + sign) * near[k])
    b0 = min(low) >> 3                                 # the window's first byte: the lowest bit read
    window = view[b0:(n0 + 2 * (count - 1) + max(sign * near[0], sign * near[-1]) >> 3) + 1]
    # a plane with no prime in the window settles nothing, so it is not unpacked
    planes = [np.take(bits, window).view(bool) if np.bitwise_and(window, mask).any() else None
              for bits, mask in zip(_NOT_PRIME, (0x55, 0xAA))]
    b0 *= 8                                            # plane k is bit b0 + 2k (+1)
    head = near[:_DENSE_PRIMES]
    un = np.ones(count, dtype=bool)
    for j, p in enumerate(head):
        at = n0 + sign * p                             # the number p reads at i = 0
        plane = planes[at & 1]
        if plane is None:
            continue
        s = (at - b0) >> 1
        if j < k:
            np.logical_and(un, plane[s:s + count], un)
        else:
            cut = p - pmax0
            np.logical_and(un[cut:], plane[s + cut:s + count], un[cut:])
    block = near[len(head):]
    sides = {(n0 + sign * p) & 1 for p in block}       # the planes the block reads
    plane = planes[sides.pop()] if len(sides) == 1 else None
    return _sweep(view, np.flatnonzero(un), n0, pmax0, sign, primes[len(head):],
                  plane, b0, len(block) if plane is not None else 0)


def _partners(ps: PrimeSet, n: int, sign: int, k: int) -> list[int]:
    """The primes p among the first k with n + sign*p prime, ascending, as
    Python ints: one table lookup over all k primes at once."""
    p = ps.primes[:k]
    return p[_bits(ps.table_view, n + sign * p).astype(bool)].tolist()


def _first_partner(ps: PrimeSet, n: int, sign: int, lo: int, pmax: int) -> int | None:
    """The smallest prime p <= pmax, from the lo-th prime on, with n + sign*p
    prime, or None. A walk that stops at the first hit: it usually settles
    within a few primes, where a numpy call's fixed cost would dominate."""
    tbl = ps.table
    plist = ps.prime_list
    for i in range(lo, len(plist)):
        p = plist[i]
        if p > pmax:
            break
        q = n + sign * p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return p
    return None


def goldbach_partitions(a: int, ps: PrimeSet) -> GoldbachPartition:
    """All unordered prime pairs (p, q) with p + q = 2a.

    An empty list is a legal outcome; it would be a counterexample for
    the even number 2a.
    """
    _check_a(ps, a, 2, 2 * a, "goldbach_partitions")
    two_a = 2 * a
    return GoldbachPartition(a=a, pairs=[(p, two_a - p) for p in _partners(ps, two_a, -1, prime_pi(a, ps))])


def has_goldbach(a: int, ps: PrimeSet) -> bool:
    """True iff some prime p <= a has 2a - p prime (early exit, p ascending)."""
    _check_a(ps, a, 2, 2 * a, "has_goldbach")
    return _first_partner(ps, 2 * a, -1, 0, a) is not None


def diff_representations(a: int, ps: PrimeSet) -> DiffRepresentation:
    """All (p, 2a + p) with p prime <= a and 2a + p prime."""
    _check_a(ps, a, 2, 3 * a, "diff_representations")
    two_a = 2 * a
    return DiffRepresentation(a=a, pairs=[(p, two_a + p) for p in _partners(ps, two_a, 1, prime_pi(a, ps))])


def has_diff_representation(a: int, ps: PrimeSet) -> bool:
    """Early-exit version of diff_representations emptiness."""
    _check_a(ps, a, 2, 3 * a, "has_diff_representation")
    return _first_partner(ps, 2 * a, 1, 0, a) is not None


def prime_reflective_points(a: int, ps: PrimeSet) -> PrpResult:
    """All b in 1..a-2 with a - b and a + b both prime, plus the minimum.

    b = 0 is excluded by definition; the upper bound keeps a - b >= 2.
    Each point is a partition of 2a with the prime p = a - b below a.
    """
    _check_a(ps, a, 4, 2 * a, "prime_reflective_points")
    points = [a - p for p in reversed(_partners(ps, 2 * a, -1, prime_pi(a - 1, ps)))]
    return PrpResult(a=a, points=points, min_point=points[0] if points else None)


def min_prime_reflective_point(a: int, ps: PrimeSet) -> int | None:
    """Smallest b > 0 with a +- b both prime, or None (early exit)."""
    _check_a(ps, a, 4, 2 * a, "min_prime_reflective_point")
    q = _first_partner(ps, 2 * a, -1, prime_pi(a, ps), 2 * a - 2)    # the smallest a + b above a
    return None if q is None else q - a


def ternary_decomposition(n: int, ps: PrimeSet) -> tuple[int, int, int]:
    """First three-odd-prime decomposition (3, p, q) of odd n, fixing the
    leading prime at 3 and taking the partition of n - 3 with smallest p."""
    _check_ternary(n)
    _require_range(ps, n, "ternary_decomposition")
    m = n - 3
    p = _first_partner(ps, m, -1, 1, m // 2)     # from the second prime, the first odd one
    if p is None:
        raise NoDecompositionError(f"{n} has no decomposition 3 + p + q with odd primes p, q", n)
    return (3, p, m - p)


def polignac_census(gap: int, limit: int, ps: PrimeSet) -> GapCensus:
    """Count prime pairs (p, p + gap) that fit below the limit.

    Both members must be <= limit, so the census counts whole pairs in
    the window and is monotone in the limit (see _census_counts).
    """
    return GapCensus(gap=gap, limit=limit, count=_census_counts(gap, [limit], ps)[0])


def _census_counts(gap: int, limits: list[int], ps: PrimeSet) -> list[int]:
    """polignac_census's counts at each of the ascending limits, from one AND
    of the table at the largest.

    A count at limit L is of the n <= L - gap with bits n and n + gap of the
    table both set: the table's uint64 words ANDed with the same words
    shifted down by gap bits, by popcount. Each limit counts a prefix of the
    words' popcounts, the words wholly below L - gap whose shifted reads stay
    within the table's whole words; the few bits left (the last partial
    word, and up to two words at the table's end) go through Python ints.
    No bit past L is counted, and the table is never copied.
    """
    for limit in limits:
        _check_census(gap, limit)
    _require_range(ps, limits[-1] + gap, "polignac_census")
    q, r = divmod(gap, 64)
    view = ps.table_view
    words = view[: view.size & -8].view("<u8")
    ends = [max(min((limit - gap + 1) >> 6, words.size - q - 1), 0) for limit in limits]
    m = ends[-1]
    if r:
        high = words[q:q + m] >> r
        high |= words[q + 1:q + m + 1] << (64 - r)
        high &= words[:m]
    else:
        high = words[q:q + m] & words[:m]
    hits = np.bitwise_count(high)
    counts = []
    for limit, end in zip(limits, ends):
        count = int(hits[:end].sum())
        lo, last = 64 * end, limit - gap
        if lo <= last:
            x = int.from_bytes(ps.table[lo >> 3:(last >> 3) + 1], "little")
            y = int.from_bytes(ps.table[(lo + gap) >> 3:(limit >> 3) + 1], "little") >> (gap & 7)
            count += (x & y & ((1 << (last - lo + 1)) - 1)).bit_count()
        counts.append(count)
    return counts
