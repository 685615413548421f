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
from .primes import PrimeSet, _product, is_prime

DEFAULT_ALGEBRA_CAP = 10**4     # pi(10^4) = 1229 coefficients keeps full expansions fast


class Variant(enum.Enum):
    SUM = "sum"
    DIFF = "diff"

    @property
    def sign(self) -> int:
        """s of the complements 2a + s p and of the factors x + s p."""
        return -1 if self is Variant.SUM else 1


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


def _pi(a: int, ps: PrimeSet, cap: int) -> int:
    """pi(a), once a passes the library's bounds and the sieve reaches it."""
    _check_a(a, cap)
    if a > ps.limit:
        raise SieveRangeError(f"a = {a} exceeds sieve limit {ps.limit}")
    return bisect_right(ps.prime_list, a)


def _mul_linear(c: list[int], s: int) -> None:
    """In-place multiply the ascending coefficient list by (x + s)."""
    c.append(c[-1])
    for k in range(len(c) - 2, 0, -1):
        c[k] = c[k - 1] + s * c[k]
    c[0] = s * c[0]


def _q_and_c1_from(coeffs: list[int], two_a: int) -> tuple[int, int]:
    """(Q, c1) of an ascending coefficient list at x = 2a, Q = sum_{j>=2} c_j x^(j-1),
    by one Horner pass over the coefficients from the top."""
    s = 0
    for c in reversed(coeffs[2:]):
        s = s * two_a + c
    return two_a * s, coeffs[1] if len(coeffs) > 1 else 0


# Up to this many roots a node takes them one at a time, which costs less
# than more levels of calls: 3-5x less at 62 roots, 1.5x at 1229 (best of 5
# rounds, 2 shared vCPUs); 32 and 64 were within noise of each other.
_TREE_LEAF = 32


def _cofactor_tree(roots: list[int]) -> tuple:
    """The product tree over the roots, each node (P, S, children): P the
    product of its roots and S = sum_i prod_{j != i} p_j over them, so that
    up each node P = P_L P_R and S = S_L P_R + P_L S_R (Bernstein, "Fast
    multiplication and its applications", 2008). A node's children are two
    nodes that halve its roots by count, so each level's operands are of
    one size, or, at a leaf of at most _TREE_LEAF roots, the roots
    themselves, taken in one at a time as P, S = P p, S p + P. No roots give
    (1, 0, []), the empty product and sum."""
    def up(lo: int, hi: int) -> tuple:
        if hi - lo <= _TREE_LEAF:
            product, cofactors = 1, 0
            for p in roots[lo:hi]:
                product, cofactors = product * p, cofactors * p + product
            return product, cofactors, roots[lo:hi]
        mid = (lo + hi) // 2
        left, right = up(lo, mid), up(mid, hi)
        return left[0] * right[0], left[1] * right[0] + left[0] * right[1], (left, right)

    return up(0, len(roots))


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


def complement_set(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> ComplementSet:
    """The q_i paired with each prime p_i <= a so that q_i +- p_i = 2a."""
    values = 2 * a + variant.sign * ps.primes[: _pi(a, ps, cap)]
    return ComplementSet(a=a, variant=variant, values=values.tolist())


def complement_product(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> int:
    """Exact product of the complements q_i."""
    return _int64_product(2 * a + variant.sign * ps.primes[: _pi(a, ps, cap)])


def vieta_coefficients(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> VietaCoefficients:
    """Coefficients of prod (x -+ p_i), ascending by degree, via incremental
    multiplication by one linear factor per prime."""
    coeffs, sign = [1], variant.sign
    for p in ps.prime_list[: _pi(a, ps, cap)]:
        _mul_linear(coeffs, sign * p)
    return VietaCoefficients(a=a, variant=variant, coeffs=coeffs)


def q_and_c1(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> tuple[int, int]:
    """The degree-split of the polynomial at x = 2a, without expanding it.

    Returns (Q_value, c1) where Q_value = sum_{k>=2} c_k (2a)^(k-1), so the
    full evaluation equals c0 + 2a*(Q_value + c1); every term of Q_value
    carries a factor of 2a, so 2a divides it. One product tree over
    the k = pi(a) roots (_cofactor_tree) gives their product, |c0|, and
    |c1| = sum_i prod_{j != i} p_j; c1 is negative in the sum variant when
    k - 1 is odd. Q_value is then D/2a - c1, D = product - c0 as
    realized_difference forms it: x divides P(x) - P(0) for any roots, so
    2a divides D exactly.
    """
    k = _pi(a, ps, cap)
    primorial, s, _ = _cofactor_tree(ps.prime_list[:k])
    c1 = -s if variant is Variant.SUM and not k % 2 else s
    return _difference(a, variant, ps, k, primorial) // (2 * a) - c1, c1


def _difference(a: int, variant: Variant, ps: PrimeSet, k: int, primorial: int) -> int:
    """D = prod (2a -+ p_i) - c0 over the first k primes, c0 = (-1)^k primorial
    (sum) or +primorial (diff)."""
    product = _int64_product(2 * a + variant.sign * ps.primes[:k])
    return product - (-primorial if variant is Variant.SUM and k % 2 else primorial)


def realized_difference(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> int:
    """D = complement product minus the polynomial's constant term.

    D equals 2a * (Q_value + c1) exactly; the constant term is
    (-1)^pi(a) * primorial(a) for the sum variant and +primorial(a) for
    the diff variant, so no expansion is needed.
    """
    k = _pi(a, ps, cap)
    return _difference(a, variant, ps, k, _product(ps.prime_list, 0, k))


def beta(n: int) -> int:
    """1 if n is prime else 0."""
    return 1 if is_prime(n) else 0


def smoothness_factorization(value: int, bound: int, ps: PrimeSet) -> SmoothnessReport:
    """Trial-divide value by every prime <= bound, then by bound+1 if prime.

    The leftover cofactor is kept unfactored; the report satisfies
    value == leftover * (bound+1)^e * prod p^alpha exactly.

    The trial primes are taken in runs of one digit (PrimeSet.digit_runs):
    one t % m, with no quotient, tests a whole run, and only a prime that
    divides that remainder is divided into t. Its exponent is found by
    dividing out p^w, the largest power of p below one digit, while it
    divides, and reading the rest off t mod p^w, so an exponent 1 costs one
    division and one remainder. A run's remainder is of t before its first
    hit; where the table marks two numbers sharing a factor, such as 3 and
    9, it may no longer hold after that hit, so each hit is confirmed by
    the division itself.
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if bound > ps.limit:
        raise SieveRangeError(f"bound = {bound} exceeds sieve limit {ps.limit}")
    t = value
    exponents: dict[int, int] = {}
    plist = ps.prime_list
    n = bisect_right(plist, bound)
    past = is_prime(bound + 1, ps)      # bound + 1 past the table is divided apart, last
    if past and bound + 1 <= ps.limit:  # a marked bound + 1 is the list's next prime
        n, past = n + 1, False
    runs = ps.digit_runs
    runs.cover(n)
    i = 0
    for j, m in zip(runs.ends, runs.moduli):
        if i >= n or t == 1:
            break
        if j > n:
            j, m = n, math.prod(plist[i:n])
        r = t % m
        for p in plist[i:j]:
            if r % p:
                continue
            q, rem = divmod(t, p)
            if rem:                     # a stale remainder: p shares a factor with an earlier hit
                continue
            t = q
            if t % p:
                exponents[p] = 1
                continue
            pk, w = runs.power(p)
            e, rem = 1, t % pk
            while not rem:
                t //= pk
                e += w
                rem = t % pk
            rest = 0                    # p's exponent in t, now below w, is its exponent in rem
            while not rem % p:
                rem //= p
                rest += 1
            if rest:
                t //= p**rest
            exponents[p] = e + rest
        i = j
    e1 = exponents.pop(bound + 1, 0)
    if past:
        while t % (bound + 1) == 0:
            t //= bound + 1
            e1 += 1
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


def bezout_quadratic(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> BezoutWitness:
    """Witness for (2a)^2 u + c0 v = 2a on the realized c0 = -D."""
    two_a, d = 2 * a, realized_difference(a, variant, ps, cap)
    u, v = solve_quadratic_bezout(two_a, d)
    return BezoutWitness(a=a, variant=variant, kind="quadratic", coefficient=-d,
                         u=u, v=v, verified=two_a * two_a * u - d * v == two_a)


def bezout_unit(a: int, variant: Variant, ps: PrimeSet, cap: int = DEFAULT_ALGEBRA_CAP) -> BezoutWitness:
    """Witness for (2a) u + (Q + c1) v = 1, with Q + c1 = D / 2a."""
    two_a = 2 * a
    b, rem = divmod(realized_difference(a, variant, ps, cap), two_a)
    if rem:
        raise GcdMismatchError(f"2a = {two_a} does not divide D", a, {"d_mod_2a": rem})
    u, v = solve_unit_bezout(two_a, b)
    return BezoutWitness(a=a, variant=variant, kind="unit", coefficient=b,
                         u=u, v=v, verified=two_a * u + b * v == 1)
