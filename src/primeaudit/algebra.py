"""Exact big-integer algebra on the prime-product polynomials.

For a given a, both variants expand a monic integer polynomial whose
roots are the primes up to a:

    sum variant    prod (x - p_i)   evaluated at x = 2a gives prod (2a - p_i)
    diff variant   prod (x + p_i)   evaluated at x = 2a gives prod (2a + p_i)

prod (x + p_i) = (-1)^pi(a) prod (-x - p_i), so the diff polynomial is the
sum polynomial read at -x: its coefficients are c_j^D = (-1)^(pi(a)-j) c_j.

Everything here is exact integer arithmetic; nothing is approximated.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, GcdMismatchError, SieveRangeError
from .primes import PrimeSet, _product, is_prime, primes_upto

DEFAULT_ALGEBRA_CAP = 10**4     # pi(10^4) = 1229 coefficients keeps full expansions fast


class Variant(enum.Enum):
    SUM = "sum"
    DIFF = "diff"


@dataclass
class ComplementSet:
    a: int
    variant: Variant
    values: list[int]            # q_i = 2a - p_i (sum) or 2a + p_i (diff), indexed like p_i


@dataclass
class VietaCoefficients:
    a: int
    variant: Variant
    coeffs: list[int]            # ascending by degree; coeffs[-1] == 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def c0(self) -> int:
        return self.coeffs[0]

    @property
    def c1(self) -> int:
        return self.coeffs[1] if len(self.coeffs) > 1 else 0

    def evaluate(self, x: int) -> int:
        return self.coeffs[0] + x * sum(_q_and_c1_from(self.coeffs, x))


@dataclass
class SmoothnessReport:
    value: int                   # the factored integer T
    bound: int                   # trial-division bound a
    exponents: dict[int, int]    # prime p <= bound -> multiplicity (only p | T)
    a_plus_1_exponent: int       # multiplicity of bound+1 when bound+1 is prime, else 0
    leftover: int                # cofactor with no prime factor <= bound and != bound+1

    def reconstruct(self) -> int:
        out = self.leftover * (self.bound + 1) ** self.a_plus_1_exponent
        for p, e in self.exponents.items():
            out *= p**e
        return out

    @property
    def above_bound_part(self) -> int:
        """Portion of value made of prime factors > bound (bound+1 included)."""
        return self.leftover * (self.bound + 1) ** self.a_plus_1_exponent


@dataclass
class BezoutWitness:
    a: int
    variant: Variant
    kind: str                    # "quadratic" or "unit"
    coefficient: int             # solved against: c0 = -D (quadratic) or Q + c1 = D/2a (unit)
    u: int
    v: int
    verified: bool


def _check_a(a: int, cap: int) -> None:
    """The library's bounds on a, checked before any sieve or product is built."""
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    if a > cap:
        raise CapacityError(f"a = {a} exceeds algebra cap {cap}")


def _mul_linear(c: list[int], s: int) -> None:
    """In-place multiply the ascending coefficient list by (x + s)."""
    c.append(c[-1])
    for k in range(len(c) - 2, 0, -1):
        c[k] = c[k - 1] + s * c[k]
    c[0] = s * c[0]


def _horner_pair(coeffs: list[int], x: int) -> tuple[int, int]:
    """(S(x), S(-x)) for S = sum_{j>=2} c_j x^(j-2), from one Horner pass in
    y = x^2 over the even and the odd part of S together: S(+-x) = E(y) +- x O(y)
    (Knuth, TAOCP Vol. 2, 4.6.4)."""
    s = coeffs[2:]
    if len(s) % 2:
        s.append(0)
    y, even, odd = x * x, 0, 0
    top = reversed(s)
    for o, e in zip(top, top):          # from the top: an odd and an even power per step
        even = even * y + e
        odd = odd * y + o
    odd *= x
    return even + odd, even - odd


def _q_and_c1_from(coeffs: list[int], two_a: int) -> tuple[int, int]:
    return two_a * _horner_pair(coeffs, two_a)[0], coeffs[1] if len(coeffs) > 1 else 0


# Below this many values numpy's fixed cost, about 5 us a call, passes what
# the int64 rows of _int64_product save: the two cross near 120 values
# (complements of a near 650; best of 7 rounds of 1000 calls, 2 shared vCPUs).
_INT64_ROWS_FROM = 128


def _row_width(top: int) -> int:
    """The largest g with top^g < 2^63, so that no row of g values of
    magnitude at most top overflows int64 (top < 2^63)."""
    g = 63 // max(top.bit_length() - 1, 1)       # 2^((b-1) g) <= top^g, so no larger g fits
    while top ** g >= 1 << 63:
        g -= 1
    return g


def _int64_product(values: np.ndarray) -> int:
    """The exact product of an int64 array. Rows of g values (_row_width of
    the largest |v|) are multiplied in int64, where no partial product can
    overflow; the row products and the values past the last whole row are
    multiplied as Python ints by _product, as are fewer than
    _INT64_ROWS_FROM values."""
    # |-2^63| reads 2^63 unsigned, which no row takes; few values take no rows
    top = int(np.abs(values).view(np.uint64).max()) if values.size >= _INT64_ROWS_FROM else 1 << 63
    if top >= 1 << 63:
        return _product(values.tolist(), 0, values.size)
    g = _row_width(top)
    cut = values.size - values.size % g
    blocks = np.multiply.reduce(values[:cut].reshape(-1, g), axis=1).tolist() + values[cut:].tolist()
    return _product(blocks, 0, len(blocks))


# A walk's block of a takes at most about this many complements, 64 KiB of
# int64, or one a where that holds fewer. --claims all 4..2000 ran no faster
# with 2^15, whose matrices raised the run's traced peak by 0.5 MiB.
_BLOCK_ENTRIES = 1 << 13


def _complement_rows(primes: np.ndarray, lo: int, hi: int, signs: list[int]) -> list[list[np.ndarray]]:
    """rows[i][j]: an int64 array of row products whose product, as Python
    ints, is that of the complements 2a + signs[j] p over the primes p <= a,
    a = lo + i. Every a of lo..hi and every sign share one matrix, 1 past
    pi(a), reduced in rows of g values, g the _row_width of the largest
    complement, as _int64_product reduces one array; each a keeps a view of
    the rows that reach pi(a). The largest complement is that of hi at an
    end of its primes. The row products are the bottom level of a product
    tree (Bernstein, "Fast multiplication and its applications", 2008)."""
    a = np.arange(lo, hi + 1, dtype=np.int64)[:, None]
    p = primes[: np.searchsorted(primes, hi, side="right")]
    g = _row_width(max(2 * hi + s * int(end) for s in signs for end in p[[0, -1]]) if p.size else 1)
    p = np.concatenate([p, np.full(-p.size % g, hi + 1)])      # whole rows: a pad past every a reads 1
    past = p > a
    m = np.stack([np.where(past, 1, 2 * a + s * p) for s in signs], axis=1)      # (a, sign, prime)
    reduced = np.multiply.reduce(m.reshape(a.size, len(signs), -1, g), axis=3)
    width = (-(-np.count_nonzero(~past, axis=1) // g)).tolist()    # ceil(pi(a) / g)
    return [[row[:n] for row in per_a] for per_a, n in zip(reduced, width)]


class _per_a:
    """functools.cached_property without its per-read lock (Python < 3.12):
    computed on first read and kept for the life of the state."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, state, owner=None):
        if state is None:
            return self
        value = state.__dict__[self.name] = self.compute(state)
        return value


class _Expansion:
    """prod (x - p) over the first k primes of ps, ascending by degree, and
    the primorial of those primes: running products that a walk along
    ascending a extends, shared by the states of both variants at each a so
    that each prime is multiplied into each once."""

    def __init__(self, ps: PrimeSet):
        self.plist = ps.prime_list
        self.parray = ps.primes
        self.coeffs = [1]
        self._primorial = 1          # product of the first _multiplied primes
        self._multiplied = 0
        self._paired = (None, None)  # (x, _horner_pair(coeffs, x)) of the last x asked

    @property
    def multiplied(self) -> int:
        """The most primes the expansion or the primorial has taken in."""
        return max(len(self.coeffs) - 1, self._multiplied)

    def upto(self, k: int) -> list[int]:
        """The coefficients over the first k primes. The list is extended in
        place by later calls."""
        if len(self.coeffs) > k + 1:
            raise ValueError(f"an expansion over {len(self.coeffs) - 1} primes cannot move back to {k}")
        while len(self.coeffs) <= k:
            _mul_linear(self.coeffs, -self.plist[len(self.coeffs) - 1])
        return self.coeffs

    def primorial(self, k: int) -> int:
        if k < self._multiplied:
            raise ValueError(f"a primorial over {self._multiplied} primes cannot move back to {k}")
        if k > self._multiplied:             # at the same k the running product is returned as it is
            self._primorial *= _product(self.plist, self._multiplied, k)
            self._multiplied = k
        return self._primorial

    def paired(self, k: int, x: int) -> tuple[int, int]:
        """(S(x), S(-x)) of the expansion over the first k primes (see
        _horner_pair), kept for the last x, so the two variants at one a
        share one pass."""
        if self._paired[0] != x:
            self._paired = (x, _horner_pair(self.upto(k), x))
        return self._paired[1]


class _ProductState:
    """The objects of one (a, variant), over an expansion of the primes.

    k = pi(a) is set at construction. Every other field is computed on first
    read and kept for the life of the state. The expansion and the primorial
    are the running products of the _Expansion, which the states of both
    variants at each a of a walk share; a state reads them only at its own
    a, so one that falls behind the walk cannot read them. The expansion is
    kept in the sum variant's orientation; the diff variant reads it with
    the signs c_j^D = (-1)^(k-j) c_j and evaluates it at -2a. A walk hands
    each state the row products of its complements, which one matrix forms
    for a block of a and both variants (_complement_rows).
    """

    def __init__(self, variant: Variant, expansion: _Expansion, a: int, rows: np.ndarray | None = None):
        self.variant = variant
        self.expansion = expansion
        self.plist = expansion.plist     # ascending primes, at least up to a
        self.a = a
        self.k = bisect_right(self.plist, a)
        self.rows = rows                 # the complements' row products, from _complement_rows

    @_per_a
    def primes(self) -> list[int]:
        return self.plist[: self.k]

    @_per_a
    def complement_array(self) -> np.ndarray:
        """q_i = 2a - p_i (sum) or 2a + p_i (diff) as int64, indexed like p_i,
        off an int64 view of the expansion's prime array."""
        p = self.expansion.parray[: self.k]
        return 2 * self.a - p if self.variant is Variant.SUM else p + 2 * self.a

    @_per_a
    def complements(self) -> list[int]:
        """The complements as Python ints, for the big-integer fields."""
        return self.complement_array.tolist()

    @_per_a
    def product(self) -> int:
        """The product of the complements: of the state's own row products
        when it was given them, else of the complement array."""
        if self.rows is None:
            return _int64_product(self.complement_array)
        return _product(self.rows.tolist(), 0, self.rows.size)

    def coeff(self, j: int) -> int:
        """c_j of prod (x -+ p_i), read off the expansion with the variant's sign."""
        c = self.expansion.upto(self.k)[j]
        return -c if self.variant is Variant.DIFF and (self.k - j) % 2 else c

    @property
    def coeffs(self) -> list[int]:
        """Coefficients of prod (x -+ p_i), ascending by degree: the expansion
        itself for the sum variant, a copy with the signs of the diff variant."""
        c = self.expansion.upto(self.k)
        if self.variant is Variant.SUM:
            return c
        return [-x if (self.k - j) % 2 else x for j, x in enumerate(c)]

    @property
    def c1(self) -> int:
        """The degree-1 coefficient, 0 when no prime is <= a."""
        return self.coeff(1) if self.k else 0

    @_per_a
    def c0(self) -> int:
        """The constant term: (-1)^pi(a) primorial(a) (sum), primorial(a) (diff)."""
        primorial = self.expansion.primorial(self.k)
        return -primorial if self.variant is Variant.SUM and self.k % 2 else primorial

    @_per_a
    def difference(self) -> int:
        """D = product - c0 = 2a (Q + c1)."""
        return self.product - self.c0

    @_per_a
    def residue(self) -> int:
        """D mod (2a)^2, which is 2a (D/2a mod 2a) when 2a | D."""
        return self.difference % (4 * self.a * self.a)

    @_per_a
    def divisibility(self) -> tuple[int, int]:
        """(D mod 2a, gcd(2a, D/2a) if 2a | D else 0), off the residue."""
        two_a, r = 2 * self.a, self.residue
        return r % two_a, 0 if r % two_a else math.gcd(two_a, r // two_a)

    @_per_a
    def q_and_c1(self) -> tuple[int, int]:
        """(Q_value, c1) of the expansion at x = 2a (see q_and_c1): Q is
        2a S(2a) for the sum variant and (-1)^k 2a S(-2a) for the diff
        variant, both off the expansion's one paired pass at 2a."""
        two_a = 2 * self.a
        s_plus, s_minus = self.expansion.paired(self.k, two_a)
        if self.variant is Variant.SUM:
            return two_a * s_plus, self.c1
        q = two_a * s_minus
        return (-q if self.k % 2 else q), self.c1


def _state(a: int, variant: Variant, ps: PrimeSet, cap: int) -> _ProductState:
    _check_a(a, cap)
    if a > ps.limit:
        raise SieveRangeError(f"a = {a} exceeds sieve limit {ps.limit}")
    return _ProductState(variant, _Expansion(ps), a)


def complement_set(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> ComplementSet:
    """The q_i paired with each prime p_i <= a so that q_i +- p_i = 2a."""
    return ComplementSet(a=a, variant=variant, values=_state(a, variant, ps, cap).complements)


def complement_product(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> int:
    """Exact product of the complements q_i."""
    return _state(a, variant, ps, cap).product


def vieta_coefficients(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> VietaCoefficients:
    """Coefficients of prod (x -+ p_i), ascending by degree, via incremental
    multiplication by one linear factor per prime."""
    return VietaCoefficients(a=a, variant=variant, coeffs=_state(a, variant, ps, cap).coeffs)


def q_and_c1(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> tuple[int, int]:
    """The degree-split of the expansion at x = 2a.

    Returns (Q_value, c1) where Q_value = sum_{k>=2} c_k (2a)^(k-1), so the
    full evaluation equals c0 + 2a*(Q_value + c1). Q_value is divisible by
    2a by construction (every term carries at least one factor of 2a).
    """
    return _state(a, variant, ps, cap).q_and_c1


def realized_difference(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> int:
    """D = complement product minus the polynomial's constant term.

    D equals 2a * (Q_value + c1) exactly; the constant term is
    (-1)^pi(a) * primorial(a) for the sum variant and +primorial(a) for
    the diff variant, so no expansion is needed.
    """
    return _state(a, variant, ps, cap).difference


def beta(n: int) -> int:
    """1 if n is prime else 0."""
    return 1 if is_prime(n) else 0


def smoothness_factorization(value: int, bound: int, ps: PrimeSet) -> SmoothnessReport:
    """Trial-divide value by every prime <= bound, then by bound+1 if prime.

    The leftover cofactor is kept unfactored; the report satisfies
    value == leftover * (bound+1)^e * prod p^alpha exactly.
    """
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
    return SmoothnessReport(value=value, bound=bound, exponents=exponents,
                            a_plus_1_exponent=e1, leftover=t)


def solve_quadratic_bezout(two_a: int, d: int) -> tuple[int, int]:
    """Least-non-negative-u solution of (2a)^2 u + (-d) v = 2a.

    Divided by 2a it is the unit identity (2a) u + (d/2a) v' = 1 with
    v = -v', so u and v come from solve_unit_bezout. Requires
    gcd((2a)^2, d) == 2a; raises GcdMismatchError otherwise, which would
    falsify the realized divisibility facts, and also when v does not come
    out exact.
    """
    g = math.gcd(two_a * two_a, d)
    if g != two_a:
        raise GcdMismatchError(
            f"gcd((2a)^2, D) = {g} != 2a = {two_a}", two_a // 2,
            {"two_a": two_a, "D": d, "gcd": g})
    u, v = solve_unit_bezout(two_a, d // two_a)
    return u, -v


def solve_unit_bezout(two_a: int, b: int) -> tuple[int, int]:
    """Least-non-negative-u solution of (2a) u + b v = 1.

    Requires gcd(2a, b) == 1; raises GcdMismatchError otherwise, and also
    when v does not come out exact.
    """
    g = math.gcd(two_a, b)
    if g != 1:
        raise GcdMismatchError(
            f"gcd(2a, Q + c1) = {g} != 1", two_a // 2,
            {"two_a": two_a, "q_plus_c1": b, "gcd": g})
    u = pow(two_a, -1, abs(b))          # 0 when |b| = 1
    v, rem = divmod(1 - two_a * u, b)
    if rem:
        raise GcdMismatchError(
            f"(2a) u + (Q + c1) v = 1 leaves remainder {rem} at u = {u}", two_a // 2,
            {"two_a": two_a, "q_plus_c1": b, "u": u, "remainder": rem})
    return u, v


def _quadratic_witness(state: _ProductState) -> BezoutWitness:
    two_a = 2 * state.a
    c0 = -state.difference
    u, v = solve_quadratic_bezout(two_a, state.difference)
    return BezoutWitness(a=state.a, variant=state.variant, kind="quadratic", coefficient=c0,
                         u=u, v=v, verified=two_a * two_a * u + c0 * v == two_a)


def _unit_witness(state: _ProductState) -> BezoutWitness:
    two_a = 2 * state.a
    b, rem = divmod(state.difference, two_a)
    if rem:
        raise GcdMismatchError(f"2a = {two_a} does not divide D", state.a, {"d_mod_2a": rem})
    u, v = solve_unit_bezout(two_a, b)
    return BezoutWitness(a=state.a, variant=state.variant, kind="unit", coefficient=b,
                         u=u, v=v, verified=two_a * u + b * v == 1)


def bezout_quadratic(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> BezoutWitness:
    """Witness for (2a)^2 u + c0 v = 2a on the realized c0 = -D."""
    return _quadratic_witness(_state(a, variant, ps, cap))


def bezout_unit(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> BezoutWitness:
    """Witness for (2a) u + (Q + c1) v = 1, with Q + c1 = D / 2a."""
    return _unit_witness(_state(a, variant, ps, cap))
