import math

import numpy as np
import pytest
from hypothesis import settings

from primeaudit import build_sieve
from primeaudit.primes import PrimeSet

settings.register_profile("batch", deadline=None, max_examples=60)
settings.load_profile("batch")


def td_is_prime(n: int) -> bool:
    """Trial-division oracle, independent of the sieve and witness tests."""
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def td_primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if td_is_prime(n)]


def marked_set(marked, limit: int) -> PrimeSet:
    """A PrimeSet whose table and array both hold exactly `marked`, the
    arbitrary "primes" of a differential test. PrimeSet checks only its
    shape, so the agreement is asserted here: no test runs on a set whose
    answers would depend on which of the two an algorithm reads."""
    table = bytearray(limit // 8 + 1)
    for m in marked:
        table[m >> 3] |= 1 << (m & 7)
    ps = PrimeSet(limit=limit, table=bytes(table), primes=np.array(sorted(marked), dtype=np.int64))
    bits = np.unpackbits(ps.table_view, bitorder="little")[: limit + 1]
    assert np.flatnonzero(bits).tolist() == ps.primes.tolist(), "table and array disagree"
    return ps


@pytest.fixture(scope="session")
def ps_small():
    """Sieve big enough for diff-variant work at a <= 2000 (3a = 6000)."""
    return build_sieve(20_000)


@pytest.fixture(scope="session")
def ps_mid():
    """Sieve for range scans up to a = 50_000 or so."""
    return build_sieve(200_000)
