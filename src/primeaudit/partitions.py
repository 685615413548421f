"""Direct searches for additive prime structure of even numbers 2a:
sum partitions, difference representations, reflective points around a,
three-prime decompositions of odd numbers, and fixed-gap pair censuses.
"""

from __future__ import annotations

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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_range(ps: PrimeSet, needed: int, what: str) -> None:
    if needed > ps.limit:
        raise SieveRangeError(f"{what} needs sieve limit >= {needed}, have {ps.limit}")


# The first primes (2..37) settle more than four targets in five and touch
# every target; the search runs them block by block, so each temporary stays at
# 64 KiB and is served from the heap instead of freshly faulted pages. The
# few targets left then meet the remaining primes together.
_HEAD_PRIMES = 12
_HEAD_BLOCK = 8192


def _sweep(view: np.ndarray, pos: np.ndarray, n: np.ndarray, pmax: np.ndarray, sign: int,
           primes: np.ndarray, out: list) -> tuple[np.ndarray, np.ndarray]:
    """Tests targets pos (with values n) against each prime in turn; a hit
    drops the target, and a target whose pmax the prime passes goes to out.
    Returns the targets left and their values."""
    for p in primes:
        p = int(p)
        cut = int(np.searchsorted(pos, np.searchsorted(pmax, p)))  # pmax[pos] < p: every prime tried
        if cut:
            out.append(pos[:cut])
            pos, n = pos[cut:], n[cut:]
        if not pos.size:
            break
        q = n + sign * p                         # a uint8 shift count keeps the lookup in bytes
        miss = np.flatnonzero(((view[q >> 3] >> (q & 7).astype(np.uint8)) & 1) == 0)
        pos, n = pos[miss], n[miss]
    return pos, n


def _unresolved(ps: PrimeSet, n: np.ndarray, pmax: np.ndarray, sign: int, first: int = 0) -> np.ndarray:
    """Positions i for which no prime p with p <= pmax[i], taken from the
    first-th prime on, makes n[i] + sign*p prime; ascending.

    The minimal-p search run over many targets at once: at each ascending
    prime, one table lookup tests every target still unresolved and drops
    the hits. pmax must ascend, so the targets that p passes are a prefix
    of those left, and out collects them in ascending order. Reads
    ps.primes only, never ps.prime_list.
    """
    if not n.size:
        return np.arange(0)
    view = ps.table_view
    primes = ps.primes[first:]
    head, tail = primes[:_HEAD_PRIMES], primes[_HEAD_PRIMES:]
    out: list[np.ndarray] = []
    left = [_sweep(view, np.arange(s, min(s + _HEAD_BLOCK, n.size)), n[s:s + _HEAD_BLOCK], pmax, sign, head, out)
            for s in range(0, n.size, _HEAD_BLOCK)]
    pos, _ = _sweep(view, np.concatenate([b[0] for b in left]), np.concatenate([b[1] for b in left]),
                    pmax, sign, tail, out)
    out.append(pos)                               # left when the primes ran out
    return np.concatenate(out)


def goldbach_partitions(a: int, ps: PrimeSet) -> GoldbachPartition:
    """All unordered prime pairs (p, q) with p + q = 2a.

    An empty list is a legal outcome; it would be a counterexample for
    the even number 2a.
    """
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 2 * a, "goldbach_partitions")
    tbl = ps.table
    two_a = 2 * a
    pairs = []
    for p in ps.prime_list[: prime_pi(a, ps)]:
        q = two_a - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            pairs.append((p, q))
    return GoldbachPartition(a=a, pairs=pairs)


def has_goldbach(a: int, ps: PrimeSet) -> bool:
    """True iff some prime p <= a has 2a - p prime (early exit, p ascending)."""
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 2 * a, "has_goldbach")
    tbl = ps.table
    two_a = 2 * a
    for p in ps.prime_list:
        if p > a:
            return False
        q = two_a - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return True
    return False


def diff_representations(a: int, ps: PrimeSet) -> DiffRepresentation:
    """All (p, 2a + p) with p prime <= a and 2a + p prime."""
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 3 * a, "diff_representations")
    tbl = ps.table
    two_a = 2 * a
    pairs = []
    for p in ps.prime_list[: prime_pi(a, ps)]:
        q = two_a + p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            pairs.append((p, q))
    return DiffRepresentation(a=a, pairs=pairs)


def has_diff_representation(a: int, ps: PrimeSet) -> bool:
    """Early-exit version of diff_representations emptiness."""
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 3 * a, "has_diff_representation")
    tbl = ps.table
    two_a = 2 * a
    for p in ps.prime_list:
        if p > a:
            return False
        q = two_a + p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return True
    return False


def _reflective_points(a: int, ps: PrimeSet):
    """Yields b = a - p for each prime p < a with 2a - p prime; p descends,
    so b ascends."""
    tbl = ps.table
    plist = ps.prime_list
    two_a = 2 * a
    for i in range(prime_pi(a - 1, ps) - 1, -1, -1):
        p = plist[i]
        q = two_a - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            yield a - p


def prime_reflective_points(a: int, ps: PrimeSet) -> PrpResult:
    """All b in 1..a-2 with a - b and a + b both prime, plus the minimum.

    b = 0 is excluded by definition; the upper bound keeps a - b >= 2.
    Each point is a partition of 2a with the prime p = a - b below a.
    """
    _require(a >= 4, f"a must be >= 4, got {a}")
    _require_range(ps, 2 * a, "prime_reflective_points")
    points = list(_reflective_points(a, ps))
    return PrpResult(a=a, points=points, min_point=points[0] if points else None)


def min_prime_reflective_point(a: int, ps: PrimeSet) -> int | None:
    """Smallest b > 0 with a +- b both prime, or None (early exit)."""
    _require(a >= 4, f"a must be >= 4, got {a}")
    _require_range(ps, 2 * a, "min_prime_reflective_point")
    return next(_reflective_points(a, ps), None)


def ternary_decomposition(n: int, ps: PrimeSet) -> tuple[int, int, int]:
    """First three-odd-prime decomposition (3, p, q) of odd n, fixing the
    leading prime at 3 and taking the partition of n - 3 with smallest p."""
    _require(n >= 9 and n % 2 == 1, f"n must be odd and >= 9, got {n}")
    _require_range(ps, n, "ternary_decomposition")
    tbl = ps.table
    m = n - 3
    for p in ps.prime_list:
        if p == 2:
            continue
        if 2 * p > m:
            break
        q = m - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return (3, p, q)
    raise NoDecompositionError(f"{n} has no decomposition 3 + p + q with odd primes p, q", n)


def polignac_census(gap: int, limit: int, ps: PrimeSet) -> GapCensus:
    """Count prime pairs (p, p + gap) that fit below the limit.

    Both members must be <= limit, so the census counts whole pairs in
    the window and is monotone in the limit.
    """
    _require(gap >= 2 and gap % 2 == 0, f"gap must be even and >= 2, got {gap}")
    _require(limit >= 0, f"limit must be non-negative, got {limit}")
    _require_range(ps, limit + gap, "polignac_census")
    k = prime_pi(max(limit - gap, 0), ps)
    p = ps.primes[:k]
    q = p + gap
    bits = (ps.table_view[q >> 3] >> (q & 7).astype(np.uint8)) & 1
    return GapCensus(gap=gap, limit=limit, count=int(bits.sum()))
