import contextlib
import functools
import math
import multiprocessing
import os
import sys
from types import SimpleNamespace

import pytest
from hypothesis import settings

from primeaudit import algebra, audit, build_sieve
from primeaudit.algebra import Variant
from primeaudit.errors import ClaimCheckError
from primeaudit.primes import PrimeSet, _product, is_prime, primes_upto

settings.register_profile("batch", deadline=None, max_examples=60)
settings.load_profile("batch")


# the algebra claims held to the algebra cap: they once expanded the polynomial, and
# the cap stays on them so that reports and refusals stay as they were
EXPANDING = [f"{v}-{c}" for v in "GD" for c in ("QDIV", "C0")]


def refuse_state(monkeypatch, refuse, names=("_mul_linear", "_q_and_c1_from", "vieta_coefficients",
                                            "realized_difference")):
    """Plants refuse for each named library kernel, in algebra and under the
    name audit reads it by: by default each one that expands the polynomial,
    evaluates it or forms D."""
    for name in names:
        for owner in (algebra, audit):
            monkeypatch.setattr(owner, name, refuse, raising=owner is algebra)


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
        poly = conv_mul(poly, [-p, 1] if variant is Variant.SUM else [p, 1])
    return poly


_WALKED: dict = {}      # variant -> (roots, coefficients) of the last expansion walked_vieta gave


def walked_vieta(roots: list[int], variant) -> list[int]:
    """naive_vieta(roots, variant), continued by one convolution per root
    from the variant's last expansion where its roots are a prefix of these,
    as they are along ascending a."""
    done, poly = _WALKED.get(variant, ((), [1]))
    if tuple(roots[: len(done)]) != done:
        done, poly = (), [1]
    for p in roots[len(done):]:
        poly = conv_mul(poly, [-p, 1] if variant is Variant.SUM else [p, 1])
    _WALKED[variant] = (tuple(roots), poly)
    return list(poly)


class OracleState:
    """The objects of one (a, variant) of a table, each computed the plain
    way, independent of the audit: the primes <= a read off the table,
    their complements, math.prod of the complements, the coefficients by
    naive convolution and c0 = +-math.prod of the primes.
    product, coeffs and c0 are computed on first read, and a test may plant
    any of them; the fields derived from them read the planted value."""

    def __init__(self, variant: Variant, ps: PrimeSet, a: int):
        self.variant, self.a = variant, a
        self.primes = [p for p in ps.prime_list if p <= a]
        self.k = len(self.primes)
        self.complements = [2 * a - p if variant is Variant.SUM else 2 * a + p for p in self.primes]

    @functools.cached_property
    def product(self) -> int:
        return math.prod(self.complements)

    @functools.cached_property
    def coeffs(self) -> list[int]:
        return walked_vieta(self.primes, self.variant)

    @functools.cached_property
    def c0(self) -> int:
        return (-1 if self.variant is Variant.SUM and self.k % 2 else 1) * math.prod(self.primes)

    @property
    def c1(self) -> int:
        return self.coeffs[1] if self.k else 0

    @property
    def difference(self) -> int:
        return self.product - self.c0

    @property
    def divisibility(self) -> tuple[int, int]:
        """(D mod 2a, gcd(2a, D/2a) if 2a | D else 0)."""
        two_a, d = 2 * self.a, self.difference
        return d % two_a, 0 if d % two_a else math.gcd(two_a, d // two_a)


def over_states(variant: Variant, predicate):
    """A per-a factory (see per_a) for predicate(state, ctx) over one
    OracleState per a."""
    def make(ctx, lo: int, hi: int):
        return lambda a: predicate(OracleState(variant, ctx.ps, a), ctx)

    return make


# G-/D-C1 and D-BETA as the audit decided them at each a before they read the
# table facts they reduce to, kept as their oracles.
def old_c1(st: OracleState, ctx):
    """gcd(c1, c0) over the expansion; c1 = 0 with no prime <= a."""
    c1 = st.coeffs[1] if st.k else 0
    if math.gcd(c1, st.c0) == 1:
        return ("ok", None)
    bad = [p for p in st.primes if c1 % p == 0]
    return ("fail", {"shared_primes": bad[:8], "gcd_2a_c1": math.gcd(2 * st.a, c1)})


def old_beta(st: OracleState, ctx):
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


# G-/D-CONG, BEZ2 and DEG as the fused walk once decided them at each a, off the
# residue D mod (2a)^2 of the state's product, before they read the table
# facts they reduce to, kept as their oracles.
def residue_cong(st: OracleState, ctx):
    if st.divisibility[0] == 0:      # 2a divides D = product - c0
        return ("ok", None)
    two_a = 2 * st.a
    return ("fail", lambda: {"product_mod_2a": st.product % two_a, "signed_primorial_mod_2a": st.c0 % two_a})


def residue_bez2(st: OracleState, ctx):
    """(2a)^2 u - D v = 2a is solvable exactly when gcd((2a)^2, D) = 2a: 2a | D and gcd(2a, D/2a) = 1."""
    if st.divisibility == (0, 1):
        return ("ok", None)
    two_a = 2 * st.a
    return ("fail", lambda: {"two_a": two_a, "D": st.difference, "gcd": math.gcd(two_a * two_a, st.difference)})


def residue_deg(st: OracleState, ctx):
    """(2a) u + (D/2a) v = 1 is solvable exactly when 2a | D and gcd(2a, D/2a) = 1."""
    rem, g = st.divisibility
    if rem:
        return ("fail", {"d_mod_2a": rem})
    if g != 1:
        return ("fail", lambda: {"two_a": 2 * st.a, "q_plus_c1": st.difference // (2 * st.a), "gcd": g})
    deg = st.k - 1
    if deg > 1:
        return ("gap", {"deg": deg, "unit_bezout_verified": True})
    return ("ok", None)


# the per-a oracle of each claim that is now a chunk check of table facts
TABLE_ORACLES = {"C1": old_c1, "BETA": old_beta, "CONG": residue_cong, "BEZ2": residue_bez2, "DEG": residue_deg}


def table_oracle(code: str):
    """The check_chunk of G-/D-C1, D-BETA, G-/D-CONG, BEZ2 or DEG as it ran
    before: its old predicate over fresh states, one a at a time."""
    variant = Variant.SUM if code.startswith("G-") else Variant.DIFF
    return per_a(code, over_states(variant, TABLE_ORACLES[code.split("-", 1)[1]]))


# q_and_c1 and smoothness_factorization as the library computed them before
# the product tree and the one-digit runs of trial primes, kept as their
# oracles: Horner on the full expansion, and one divmod per trial prime and
# one more per unit of exponent.
def old_q_and_c1(a: int, variant: Variant, ps: PrimeSet, cap: int = algebra.DEFAULT_ALGEBRA_CAP) -> tuple[int, int]:
    return algebra._q_and_c1_from(algebra.vieta_coefficients(a, variant, ps, cap).coeffs, 2 * a)


def old_smoothness_factorization(value: int, bound: int, ps: PrimeSet) -> algebra.SmoothnessReport:
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    t = value
    exponents: dict[int, int] = {}
    trial = primes_upto(bound, ps)
    if is_prime(bound + 1, ps):
        trial.append(bound + 1)
    for p in trial:
        if t == 1:
            break
        q, r = divmod(t, p)          # one big division per trial, hit or miss
        if r == 0:
            e = 0
            while r == 0:
                t = q
                e += 1
                q, r = divmod(t, p)
            exponents[p] = e
    e1 = exponents.pop(bound + 1, 0)
    return algebra.SmoothnessReport(value=value, bound=bound, exponents=exponents,
                                    a_plus_1_exponent=e1, leftover=t)


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
