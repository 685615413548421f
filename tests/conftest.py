import contextlib
import math
import multiprocessing
import os
import sys
from types import SimpleNamespace

import pytest
from hypothesis import settings

from primeaudit import algebra, audit, build_sieve
from primeaudit.algebra import Variant, _ProductState
from primeaudit.errors import ClaimCheckError
from primeaudit.primes import PrimeSet, _product

settings.register_profile("batch", deadline=None, max_examples=60)
settings.load_profile("batch")


# the algebra claims that read the coefficient list, so the only ones held to the algebra cap
EXPANDING = [f"{v}-{c}" for v in "GD" for c in ("QDIV", "C0")]


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
    """A PrimeSet whose table marks exactly `marked`, the arbitrary "primes"
    of a differential test; its prime array is read off that table."""
    table = bytearray(limit // 8 + 1)
    for m in marked:
        table[m >> 3] |= 1 << (m & 7)
    return PrimeSet(limit=limit, table=bytes(table))


def per_a(code: str, make_check):
    """A chunk check that calls a per-a factory's check(a) -> (kind, detail)
    once for each a of the chunk, as the audit once ran every claim: a
    factory receives (ctx, chunk_lo, chunk_hi) and owns any per-chunk state.
    "skip" is counted, "ok" with a detail is recorded as info, and an
    exception surfaces as ClaimCheckError(code, a)."""
    def check_chunk(ctx, lo: int, hi: int, record):
        check = make_check(ctx, lo, hi)
        skipped = 0
        for a in range(lo, hi + 1):
            try:
                kind, detail = check(a)
                if kind == "skip":
                    skipped += 1
                elif kind != "ok" or detail is not None:
                    record(a, "info" if kind == "ok" else kind, detail)
            except Exception as exc:
                raise ClaimCheckError(code, a, f"{type(exc).__name__}: {exc}") from exc
        return hi - lo + 1 - skipped, skipped

    return check_chunk


def over_states(variant: Variant, predicate):
    """A per-a factory (see per_a) for predicate(state, ctx) over one fresh
    product state per a, over one expansion walked through the chunk."""
    def make(ctx, lo: int, hi: int):
        expansion = algebra._Expansion(ctx.ps)
        return lambda a: predicate(_ProductState(variant, expansion, a), ctx)

    return make


# G-/D-C1 and D-BETA as the audit decided them at each a before they read the
# table facts they reduce to, kept as their oracles.
def old_c1(st: _ProductState, ctx):
    """gcd(c1, c0) over the expansion; c1 = 0 with no prime <= a."""
    c1 = st.coeffs[1] if st.k else 0
    if math.gcd(c1, st.c0) == 1:
        return ("ok", None)
    bad = [p for p in st.primes if c1 % p == 0]
    return ("fail", {"shared_primes": bad[:8], "gcd_2a_c1": math.gcd(2 * st.a, c1)})


def old_beta(st: _ProductState, ctx):
    """The (a+1)-exponent of the diff product, against 1 for a marked a+1."""
    ap1 = st.a + 1
    expected = 1 if ctx.ps.is_prime(ap1) else 0
    exponent = 0
    if expected:
        for q in st.complements:
            while q % ap1 == 0:
                exponent += 1
                q //= ap1
    if exponent == expected:
        return ("ok", None)
    return ("fail", {"beta": expected, "exponent": exponent})


def table_oracle(code: str):
    """G-/D-C1 or D-BETA's check_chunk as it ran before: its old predicate
    over fresh states, one a at a time."""
    variant = Variant.SUM if code.startswith("G-") else Variant.DIFF
    return per_a(code, over_states(variant, old_c1 if code.endswith("C1") else old_beta))


@contextlib.contextmanager
def digit_limit(digits: int):
    """Sets sys.set_int_max_str_digits for the block (0 lifts the limit)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# The blocked smoothness certificate G-/D-EQUIV once ran, kept verbatim as
# an oracle.
def is_rough_part(value: int, rough: int, base: int, blocks: list[int] | None = None) -> bool:
    """True exactly when rough is the part of value made of the primes that
    do not divide base, decided without factoring (D. J. Bernstein, "How to
    find smooth parts of integers", 2004). value and rough are >= 1.

    The checks are value == rough * s exactly, gcd(rough, base) == 1, and
    base^(2^e) == 0 (mod m) with 2^e > log2(m) for each block m of s. A prime
    power dividing m has an exponent below log2(m), so the last check holds
    iff every prime of m divides base, i.e. m is base-smooth. Smoothness is
    multiplicative, so s is base-smooth iff every block is: blocks, positive
    factors whose product is s, prove the same statement as s itself, with
    squarings modulo a few hundred bits instead of modulo all of s. Without
    blocks s is one block.
    """
    if blocks is None:
        s, r = divmod(value, rough)
        if r:
            return False
        blocks = [s]
    elif value != rough * _product(blocks, 0, len(blocks)):
        return False
    if math.gcd(rough, base) != 1:
        return False
    return all(pow(base % m, 1 << m.bit_length().bit_length(), m) == 0 for m in blocks)


@pytest.fixture(scope="session")
def ps_small():
    """Sieve big enough for diff-variant work at a <= 2000 (3a = 6000)."""
    return build_sieve(20_000)


@pytest.fixture(scope="session")
def ps_mid():
    """Sieve for range scans up to a = 50_000 or so."""
    return build_sieve(200_000)


@pytest.fixture
def pools(monkeypatch):
    """A stand-in context records each Pool's worker count and runs each
    apply_async call in this process when its result is asked for, so no
    worker starts."""
    class Pool:
        def __init__(self, jobs):
            started.append(jobs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            return SimpleNamespace(get=lambda: fn(*args))

    started = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda m=None: SimpleNamespace(Pool=Pool))
    return started


@pytest.fixture
def eager_pool(monkeypatch):
    """Runs every chunk task of a run at jobs > 1 in a real pool of two
    workers, started before the first task (audit._POOL_AFTER_S = 0), for the
    tests that compare pooled output with serial output or check worker
    clean-up. Returns the worker count of each pool started, so a test can
    assert that one did."""
    monkeypatch.setattr(audit, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(audit, "_cpus", lambda: 2)
    started = []
    get_context = multiprocessing.get_context

    def counted(method=None):
        ctx = get_context(method)
        return SimpleNamespace(Pool=lambda jobs: started.append(jobs) or ctx.Pool(jobs))

    monkeypatch.setattr(multiprocessing, "get_context", counted)
    return started
