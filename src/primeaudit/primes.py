"""Prime generation and primality services shared by the whole toolkit.

The sieve is built in fixed-size segments so only one segment's boolean
scratch array is live at a time; the finished product is a packed bit
table (bit n set iff n prime). A PrimeSet is that table; its prime array
and list are read off it, so they cannot disagree with it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, SieveRangeError

DEFAULT_SEGMENT = 1 << 20          # numbers per sieve segment; a multiple of 8, so segments pack into whole bytes
DEFAULT_PRIMORIAL_CAP = 10**6      # primorial(a) is ~O(a) bits; cap keeps it desk-scale

# Deterministic strong-pseudoprime witness sets.
# 7-base set covering all n < 2^64 (Sinclair, via miller-rabin.appspot.com).
_WITNESSES_U64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# First 12 primes: deterministic for n < 3317044064679887385961981
# (Sorenson & Webster bound).
_WITNESSES_EXT = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXT_BOUND = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

_DIGIT = 1 << 30                   # one CPython digit: t % m below it is one pass that forms no quotient


class _DigitRuns:
    """A prime list cut, greedily from its start, into runs of consecutive
    primes whose product, the run's modulus, stays below _DIGIT, and the
    largest power below _DIGIT of each prime asked for. Both are formed as
    far as calls ask and kept for later calls. A prefix of the list takes
    the runs that end inside it and the next run cut at its end."""

    def __init__(self, plist: list[int]):
        self.plist, self.ends, self.moduli = plist, [], []
        self._powers: dict[int, tuple[int, int]] = {}

    def cover(self, n: int) -> None:
        """Forms runs until they cover the first n primes."""
        plist, size = self.plist, len(self.plist)
        i = self.ends[-1] if self.ends else 0
        while i < n:
            m, i = plist[i], i + 1
            while i < size and m * plist[i] < _DIGIT:
                m *= plist[i]
                i += 1
            self.ends.append(i)
            self.moduli.append(m)

    def power(self, p: int) -> tuple[int, int]:
        """(p^w, w) for the largest w with p^w < _DIGIT, or (p, 1) where p^2 passes it."""
        if p not in self._powers:
            pk, w = p, 1
            while pk * p < _DIGIT:
                pk, w = pk * p, w + 1
            self._powers[p] = pk, w
        return self._powers[p]


@dataclass(frozen=True)
class PrimeSet:
    """Primality bit table up to `limit` (inclusive), and the primes read off it.

    Frozen; the cached properties write to __dict__, and a pickle ships only limit and table.
    """

    limit: int
    table: bytes                   # bit (table[n >> 3] >> (n & 7)) & 1 marks n prime

    def __post_init__(self):
        # bytes() copies a mutable buffer, so the set hashes and its caches stay its table's; bytes pass as is
        object.__setattr__(self, "table", bytes(self.table))
        # O(1): the table has the limit's shape and marks nothing at 0, at 1 or past the limit
        if self.limit < 0:
            raise ValueError(f"limit must be non-negative, got {self.limit}")
        if len(self.table) != (self.limit + 8) // 8:
            raise ValueError(f"table must hold {(self.limit + 8) // 8} bytes, got {len(self.table)}")
        if self.table[0] & 3 or self.table[-1] >> (self.limit & 7) + 1:
            raise ValueError(f"the table's primes must lie in [2, {self.limit}]")

    def is_prime(self, n: int) -> bool:
        """Bit-table lookup; only valid for 0 <= n <= limit."""
        return bool((self.table[n >> 3] >> (n & 7)) & 1)

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.limit and self.is_prime(n)

    @cached_property
    def table_view(self) -> np.ndarray:
        """uint8 view of the bit table for vectorized lookups (zero-copy)."""
        return np.frombuffer(self.table, dtype=np.uint8)

    @cached_property
    def primes(self) -> np.ndarray:
        """Ascending int64 primes <= limit: the table's set bits."""
        return np.flatnonzero(np.unpackbits(self.table_view, bitorder="little"))

    @cached_property
    def prime_list(self) -> list[int]:
        """Primes as plain Python ints (used by big-integer code)."""
        return self.primes.tolist()

    @cached_property
    def digit_runs(self) -> _DigitRuns:
        """The prime list in runs of one-digit product, for trial division."""
        return _DigitRuns(self.prime_list)

    def __getstate__(self):
        return {"limit": self.limit, "table": self.table}


def _simple_sieve(limit: int) -> np.ndarray:
    """Plain boolean sieve used for the base primes up to sqrt(limit)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def build_sieve(limit: int) -> PrimeSet:
    """Sieve all n <= limit into a PrimeSet.

    Runs segment by segment so peak scratch memory is O(DEFAULT_SEGMENT)
    on top of the packed output table. Its peak holds the table twice and
    the int64 prime array twice (the segments' arrays and their join), with
    pi(n) <= 1.25506 n / ln n (Rosser and Schoenfeld, 1962); a limit whose
    peak would pass physical memory is refused before anything is allocated.
    """
    if limit < 0:
        raise ValueError(f"sieve limit must be non-negative, got {limit}")
    peak = 2 * ((limit + 8) // 8) + (16 * 1.25506 * limit / math.log(limit) if limit > 1 else 0)
    memory = _physical_memory()
    if peak > memory:
        raise CapacityError(f"sieve limit {limit} exceeds physical memory: its build would peak at "
                            f"{peak / 2**30:.1f} GiB of {memory / 2**30:.1f} GiB")
    n_cells = limit + 1
    table = bytearray((n_cells + 7) >> 3)
    base_flags = _simple_sieve(max(math.isqrt(limit), 2)) if limit >= 4 else None
    base_primes = np.flatnonzero(base_flags) if base_flags is not None else np.array([], dtype=np.int64)

    prime_chunks: list[np.ndarray] = []
    for lo in range(0, n_cells, DEFAULT_SEGMENT):
        hi = min(lo + DEFAULT_SEGMENT, n_cells)  # exclusive
        seg = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            seg[: min(2, hi)] = False
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        prime_chunks.append(np.flatnonzero(seg).astype(np.int64) + lo)
        if seg.size % 8:
            seg = np.concatenate([seg, np.zeros(8 - seg.size % 8, dtype=bool)])
        table[lo >> 3 : (lo >> 3) + (seg.size >> 3)] = np.packbits(seg, bitorder="little").tobytes()

    ps = PrimeSet(limit=limit, table=table)
    ps.__dict__["primes"] = np.concatenate(prime_chunks)     # the table's set bits, already found
    return ps


def _mr_witness_composite(n: int, d: int, s: int, a: int) -> bool:
    """True iff witness a proves n composite (n - 1 = d * 2^s, d odd)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, ps: PrimeSet | None = None) -> bool:
    """Exact primality test.

    Uses the sieve table when available and in range, otherwise a
    deterministic Miller-Rabin witness set (proven exhaustive below
    2^64, and below ~3.3e24 with the extended set). Inputs beyond the
    proven bound raise CapacityError rather than degrade to a
    probabilistic answer.
    """
    if n < 2:
        return False
    if ps is not None and n <= ps.limit:
        return ps.is_prime(n)
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 63 * 63:
        return True
    if n >= _EXT_BOUND:
        raise CapacityError(f"no deterministic witness set configured for n >= {_EXT_BOUND}")
    witnesses = _WITNESSES_U64 if n < 1 << 64 else _WITNESSES_EXT
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(_mr_witness_composite(n, d, s, a) for a in witnesses)


def prime_pi(a: int, ps: PrimeSet) -> int:
    """Number of primes <= a."""
    if a > ps.limit:
        raise SieveRangeError(f"prime_pi({a}) exceeds sieve limit {ps.limit}")
    if a < 2:
        return 0
    return int(np.searchsorted(ps.primes, a, side="right"))


def primes_upto(a: int, ps: PrimeSet) -> list[int]:
    """Ascending primes <= a as Python ints."""
    if a > ps.limit:
        raise SieveRangeError(f"primes_upto({a}) exceeds sieve limit {ps.limit}")
    return ps.prime_list[: prime_pi(a, ps)]


def _product(vals: list[int], lo: int, hi: int) -> int:
    # balanced product tree keeps intermediate operands similar-sized; below
    # 64 factors math.prod's running product is cheaper than more levels
    if hi - lo <= 64:
        return math.prod(vals[lo:hi])
    mid = (lo + hi) // 2
    return _product(vals, lo, mid) * _product(vals, mid, hi)


def primorial(a: int, ps: PrimeSet) -> int:
    """Product of all primes <= a (1 for a < 2)."""
    if a > DEFAULT_PRIMORIAL_CAP:
        raise CapacityError(f"primorial argument {a} exceeds cap {DEFAULT_PRIMORIAL_CAP}")
    if a > ps.limit:
        raise SieveRangeError(f"primorial({a}) exceeds sieve limit {ps.limit}")
    vals = primes_upto(a, ps)
    return _product(vals, 0, len(vals))
