"""Claim registry and range-audit harness.

Every audited statement has a short code (G-* for the sum variant, D-*
for the difference variant, plus P-CENSUS and B-PRIMO). run_suite walks
a range of a-values for a list of claims, recording per-a outcomes, and
assembles a deterministic report; run_claim runs one claim through it.

Determinism: ranges are cut into fixed-size chunks independent of the
job count, chunk results are merged in range order, and witness lists
are capped per kind after the ordered merge, so --jobs never changes
the deterministic report body.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from itertools import accumulate
from operator import add, gt, lt, mul, sub
from typing import Callable

import numpy as np

from . import __version__
from .algebra import (  # noqa: F401  bench/tracing.py wraps the layer kernels by name here too
    DEFAULT_ALGEBRA_CAP,
    Variant,
    _Expansion,
    _mul_linear,
    _ProductState,
    _q_and_c1_from,
    smoothness_factorization,
    solve_quadratic_bezout,
    solve_unit_bezout,
)
from .errors import CapacityError, ClaimCheckError
from .partitions import _census_counts, _partners, _unresolved, polignac_census  # noqa: F401  bench/tracing.py wraps it
from .primes import PrimeSet, _product, _simple_sieve, build_sieve, prime_pi, primes_upto

PASS = "PASS"
FAIL = "FAIL"
GAP_WITNESSED = "GAP-WITNESSED"
SKIPPED = "SKIPPED"

_STATUS_RANK = {SKIPPED: 0, PASS: 1, GAP_WITNESSED: 2, FAIL: 3}

ALGEBRA_SUITE_CAP = 2000     # big-integer claims clamp here when running --claims all
SEARCH_SUITE_CAP = 10**6     # search claims clamp here when running --claims all
ALGEBRA_CHUNK = 1024
SEARCH_CHUNK = 65536


@dataclass(frozen=True)
class AuditConfig:
    algebra_cap: int = DEFAULT_ALGEBRA_CAP   # hard ceiling for the claims that expand: QDIV, C0
    census_limit: int = 10**6        # pair-census window for P-CENSUS
    census_max_gap: int = 1000       # gaps above this are SKIPPED by P-CENSUS
    witness_limit: int = 16          # recorded witnesses per kind per claim

    def __post_init__(self):
        for name, least in (("algebra_cap", 4), ("census_limit", 1),
                            ("census_max_gap", 2), ("witness_limit", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class ClaimResult:
    claim: str
    a_lo: int
    a_hi: int
    status: str
    checked: int
    skipped: int
    witnesses: list[dict]            # {"a": int, "kind": "fail"|"gap"|"info", "detail": {...}}
    fail_count: int = 0              # records of each kind, kept or not
    gap_count: int = 0
    info_count: int = 0

    @property
    def witness_count(self) -> int:
        return len(self.witnesses)


@dataclass
class AuditReport:
    results: list[ClaimResult]
    meta: dict
    elapsed_s: float
    jobs: int                        # the capped worker count
    pooled: int = 0                  # chunk tasks the pool ran, 0 when none started

    @property
    def overall_status(self) -> str:
        worst = SKIPPED
        for r in self.results:
            if _STATUS_RANK[r.status] > _STATUS_RANK[worst]:
                worst = r.status
        return worst if self.results else PASS

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == FAIL for r in self.results) else 0


@dataclass
class _AuditContext:
    ps: PrimeSet
    config: AuditConfig
    _agreed = (-1, -1)               # (top, m) of the last check, not a field
    _shared = (-1, 0)                # (top, m) of the last scan, not a field
    _expansion = None                # the last fused walk's _Expansion, not a field

    def agreement(self, a: int) -> int:
        """For G-/D-EQUIV: the largest m <= min(top, ps.limit) such that the
        table of ps agrees with primes._simple_sieve on [0, m], or -1. The
        window [0, top] is checked on first use and again only for an a with
        3a + 3 > top; it then grows to at least 3a + 3 and at least doubles,
        so a run up to A checks O(3A) numbers."""
        if 3 * a + 3 > self._agreed[0]:
            top = max(3 * a + 3, 2 * self._agreed[0])
            self._agreed = (top, _trusted(self.ps, min(top, self.ps.limit)))
        return self._agreed[1]

    def shared(self, a: int) -> int:
        """For G-/D-C1: the least m at which the table marks two multiples <= m of
        one prime r of primes._simple_sieve (the second set bit of marked[r::r]) if
        m <= a, else a number past a. The window grows as agreement's does until it holds m."""
        top, first = self._shared
        if a > top and first > top:
            top = min(max(a, 2 * top), self.ps.limit)
            marked, first = np.unpackbits(self.ps.table_view[: top // 8 + 1], bitorder="little")[: top + 1], top + 1
            for r in np.flatnonzero(_simple_sieve(top // 2)).tolist():
                hits = np.flatnonzero(marked[r::r])          # r, 2r, ... by index
                first = min(first, (int(hits[1]) + 1) * r) if hits.size > 1 else first
            self._shared = (top, first)
        return first

    def expansion(self, lo: int) -> _Expansion:
        """For a fused walk from lo on: the last walk's expansion while it has
        taken in no more than pi(lo) primes, else a fresh one. A run's
        in-process tasks walk each range in order, and a forked worker
        inherits the context and takes later chunks, so one expansion serves
        a process; _Expansion refuses to move back."""
        if self._expansion is None or self._expansion.multiplied > prime_pi(lo, self.ps):
            self._expansion = _Expansion(self.ps)
        return self._expansion


def _trusted(ps: PrimeSet, top: int) -> int:
    """The largest m <= top such that the table of ps marks exactly the
    primes of [0, m] that primes._simple_sieve marks, or -1."""
    marked = np.unpackbits(ps.table_view[: top // 8 + 1], bitorder="little")[: top + 1].astype(bool)
    bad = np.flatnonzero(marked != _simple_sieve(top))
    return int(bad[0]) - 1 if bad.size else top


# ---------------------------------------------------------------------------
# per-claim checks
#
# A claim takes one of two shapes. A chunk check(ctx, chunk_lo, chunk_hi,
# record) reads the prime table over a whole chunk at once: the search kernel,
# P-CENSUS's gap counts, B-PRIMO's arrays, and the table facts that G-/D-C1 and
# D-BETA reduce to. A predicate(state, ctx) -> (kind, detail), kind in {"ok",
# "fail", "skip", "gap"}, reads the _ProductState of its variant at one a: the
# fused pass (_fused) builds one state per a and variant as it walks a chunk
# and runs every requested predicate on its variant's state. The states share
# the process's one expansion and primorial, and one paired Horner pass per a
# evaluates both variants, so each prime is multiplied in once per process,
# each (a, variant) multiplied out at most once, and each a evaluated once.
# QDIV and C0, which form the product, run first at each state, so the
# divisibility fact that CONG, BEZ2, DEG and C0 read is read off it.
# Both report each a whose outcome is not a plain ok by record(a, kind,
# detail), kind in {"fail", "gap", "info"}, in ascending a, and return
# (checked, skipped). Records stream out, so a detail past the witness limit is
# let go at once. A detail may come unbuilt, as a zero-argument callable:
# _Tally.record builds it only for a record it keeps. A state holds one (a,
# variant), so a predicate's callable may capture it. _fused records at once,
# inside its error handling: a detail is built before the walk moves the shared
# expansion on, and a predicate or a build that raises names the claim and the
# a.
# ---------------------------------------------------------------------------


def _fused(ctx: _AuditContext, codes: tuple[str, ...], lo: int, hi: int,
           records: dict[str, Callable]) -> dict[str, tuple[int, int]]:
    """Runs the predicates of codes, algebra claims of either variant, on one
    product state per a and variant, built over the context's expansion,
    which the walk through the chunk extends, and records every outcome but
    a plain ok. Returns (checked, skipped) per code."""
    expansion = ctx.expansion(lo)
    variants = list(dict.fromkeys(CLAIMS[code].variant for code in codes))
    # a row reads its state by list index: a Variant hashes in Python code
    rows = [(code, CLAIMS[code].predicate, records[code], variants.index(CLAIMS[code].variant)) for code in codes]
    # QDIV and C0 form the product first, so the divisibility fact is read off it
    rows.sort(key=lambda row: row[1] not in _EXPANDING)
    skipped = dict.fromkeys(codes, 0)
    for a in range(lo, hi + 1):
        states = [_ProductState(v, expansion, a) for v in variants]
        for code, predicate, record, i in rows:
            try:
                kind, detail = predicate(states[i], ctx)
                if kind == "skip":
                    skipped[code] += 1
                elif kind != "ok" or detail is not None:
                    record(a, "info" if kind == "ok" else kind, detail)     # builds a kept unbuilt detail
            except Exception as exc:
                raise ClaimCheckError(code, a, f"{type(exc).__name__}: {exc}") from exc
    return {code: (hi - lo + 1 - n, n) for code, n in skipped.items()}


def _search(n: Callable, pmax: Callable, sign: int, fail: Callable, first: int = 0,
            start: Callable = lambda lo: lo, step: int = 1) -> Callable:
    """Chunk check of a minimal-p search: each a of the chunk's domain
    s = start(lo), s + step, ... <= hi needs a prime p <= pmax(a), from the
    first-th prime on, with n(a) + sign*p prime.

    n and pmax map one a to its target and its bound; along the domain n
    must grow by 2 per step and pmax by 1, so the targets n(s) + 2i and their
    bounds pmax(s) + i are the progression the kernel takes. An a outside
    the domain is skipped, and an a without such a p fails with detail fail(a).
    """
    def check_chunk(ctx: _AuditContext, lo: int, hi: int, record: Callable):
        s = start(lo)
        count = len(range(s, hi + 1, step))
        for a in (s + step * _unresolved(ctx.ps, n(s), count, pmax(s), sign, first)).tolist():
            record(a, "fail", fail(a))
        return count, hi - lo + 1 - count

    return check_chunk


def _census(ctx: _AuditContext, lo: int, hi: int, record: Callable):
    """P-CENSUS over the gaps lo..hi: the pair counts of each even gap
    <= census_max_gap at the checkpoints never fall and end above 0. The
    other gaps are skipped."""
    cfg = ctx.config
    checkpoints = sorted({cfg.census_limit // 100, cfg.census_limit // 10, cfg.census_limit})
    gaps = range(lo + lo % 2, min(hi, cfg.census_max_gap) + 1, 2)
    for gap in gaps:
        counts = _census_counts(gap, checkpoints, ctx.ps)
        if counts != sorted(counts) or not counts[-1]:
            record(gap, "fail", {"checkpoints": checkpoints, "counts": counts})
    return len(gaps), hi - lo + 1 - len(gaps)


def _bprimo(ctx: _AuditContext, lo: int, hi: int, record: Callable):
    """B-PRIMO over lo..hi: the first prime past a, primes[pi(a)], lies
    below 2a, and for a > 4 the primorial of the pi(a) primes passes 2a.
    Every prime is at least 2, so the primorials of the first
    (2*hi).bit_length() primes, exact ints, reach past 2*hi."""
    primes = ctx.ps.primes
    a = np.arange(lo, hi + 1, dtype=np.int64)
    k = np.searchsorted(primes, a, side="right")
    has_next = k < primes.size
    no_prime = ~has_next
    no_prime[has_next] = primes[k[has_next]] >= 2 * a[has_next]
    primorials = list(accumulate(primes[:(2 * hi).bit_length()].tolist(), mul, initial=1))
    m = np.minimum(k, len(primorials) - 1)           # past the list every primorial passes 2*hi
    low = (a > 4) & (np.array([min(x, 2 * hi + 1) for x in primorials])[m] <= 2 * a)
    for i in np.flatnonzero(no_prime | low).tolist():
        problems = {}
        if no_prime[i]:
            problems["prime_between_a_and_2a"] = int(primes[k[i]]) if has_next[i] else None
        if low[i]:
            problems["primorial"] = primorials[m[i]]
        record(lo + i, "fail", problems)
    return hi - lo + 1, 0


def _close(st: _ProductState, ctx: _AuditContext):
    """Decided on the int64 complements by array comparisons."""
    a, two_a, qs = st.a, 2 * st.a, st.complement_array
    if st.variant is Variant.SUM:      # q = 2a - p falls along the primes, within [a, 2a - 2]
        pair, order, key, low, high, ends = add, gt, "strictly_decreasing", a, two_a - 2, [-1, 0]
    else:                              # q = 2a + p rises along the primes, within [2a + 2, 3a]
        pair, order, key, low, high, ends = sub, lt, "strictly_increasing", two_a + 2, 3 * a, [0, -1]
    n = min(qs.size, st.k)
    problems = {}
    if not (pair(qs[:n], st.prime_array[:n]) == two_a).all():
        problems["pair_identity"] = False
    if not order(qs[:-1], qs[1:]).all():
        problems[key] = False
    if qs.size and not (low <= qs[ends[0]] and qs[ends[1]] <= high):
        problems["bounds"] = qs[ends].tolist()
    if qs.size != st.k:
        problems["count"] = [qs.size, st.k]
    return ("fail", problems) if problems else ("ok", None)


def _equiv(st: _ProductState, ctx: _AuditContext):
    """Every complement is at most 3a, so its only possible prime factor above
    a is itself, or a+1 in the diff variant (2a + 2 = 2(a+1)). Where the
    table agrees with a plain sieve up to the largest complement, the
    residue is therefore the product of the complements the table marks
    prime, and the product itself is never multiplied out.
    Otherwise, as on a table that marks a composite prime or misses a prime,
    trial division gives it, so the leftover never depends on the table."""
    ps = ctx.ps
    if st.variant is Variant.SUM and ps.is_prime(st.a):
        return ("skip", None)
    two_a, sign, k = 2 * st.a, (-1 if st.variant is Variant.SUM else 1), st.k
    key = "partitions" if st.variant is Variant.SUM else "pairs"
    ends = (st.plist[0], st.plist[k - 1]) if k else ()     # the largest complement is at an end
    if ctx.agreement(st.a) >= max([st.a + 1, *(two_a + sign * p for p in ends)]):
        # the residue is the product of the pair complements, so
        # (residue == 1) == (not pairs) holds and the detail can wait
        def detail():
            pairs = _pairs(ps, two_a, sign, k)
            return {"leftover": _product([q for _, q in pairs], 0, len(pairs)), key: pairs}

        return ("ok", detail)
    rep = smoothness_factorization(st.product, st.a, ps)
    residue = rep.above_bound_part if st.variant is Variant.SUM else rep.leftover
    pairs = _pairs(ps, two_a, sign, k)
    detail = {"leftover": residue, key: pairs}
    if (residue == 1) == (not pairs):
        return ("ok", detail)
    detail["product"] = st.product
    return ("fail", detail)


def _pairs(ps: PrimeSet, two_a: int, sign: int, k: int) -> list[list[int]]:
    """[p, 2a + sign*p] for each of the first k primes p that pairs with a prime."""
    return [[p, two_a + sign * p] for p in _partners(ps, two_a, sign, k)]


def _cong(st: _ProductState, ctx: _AuditContext):
    if st.divisibility[0] == 0:      # 2a divides D = product - c0
        return ("ok", None)
    two_a = 2 * st.a
    return ("fail", lambda: {"product_mod_2a": st.product % two_a, "signed_primorial_mod_2a": st.c0 % two_a})


def _cofactor_sum(roots: list[int]) -> tuple[int, list[int]]:
    """|c1| = sum_i prod_{j != i} p_j over the roots, and |c1| mod each root.

    A product tree carries (P, S), S the sum of P / p over its leaves, up each
    node: S = S_L P_R + P_L S_R. A remainder tree takes |c1| mod P down the
    same nodes to the leaves (Bernstein, "Fast multiplication and its
    applications", 2008). Both halve the roots by count, so each level's
    operands are of one size."""
    def up(lo: int, hi: int) -> tuple:
        if hi - lo == 1:
            return roots[lo], 1, ()
        mid = (lo + hi) // 2
        left, right = up(lo, mid), up(mid, hi)
        return left[0] * right[0], left[1] * right[0] + left[0] * right[1], (left, right)

    def down(node: tuple, rem: int) -> None:
        rem %= node[0]
        if node[2]:
            for child in node[2]:
                down(child, rem)
        else:
            rems.append(rem)

    if not roots:
        return 0, []
    rems: list[int] = []
    top = up(0, len(roots))
    down(top, top[1])
    return top[1], rems


def _c1(ctx: _AuditContext, lo: int, hi: int, record: Callable):
    """c0 = +-prod p_j and c1 = +-sum_i prod_{j != i} p_j over the marked roots
    p_j <= a, so a prime divides both exactly when it divides two roots: from
    the context's shared point on. gcd(2a, c1) = 1 itself is the BEZ2/DEG fact.
    The kept details are of consecutive a, which mostly share their roots, so
    the last roots' |c1| and shared roots are kept for the next detail."""
    last = (-1, 0, [])                  # (number of roots, |c1|, shared roots) of the last detail

    def detail(a: int) -> dict:
        nonlocal last
        roots = primes_upto(a, ctx.ps)
        if len(roots) != last[0]:
            c1, rems = _cofactor_sum(roots)
            last = (len(roots), c1, [p for p, r in zip(roots, rems) if not r][:8])
        _, c1, shared = last
        return {"shared_primes": list(shared), "gcd_2a_c1": math.gcd(2 * a, c1)}

    for a in range(max(lo, ctx.shared(hi)), hi + 1):
        record(a, "fail", lambda a=a: detail(a))
    return hi - lo + 1, 0


def _qdiv(st: _ProductState, ctx: _AuditContext):
    """Horner's Q is a multiple of 2a by its construction, so "2a divides Q"
    is read off the product side, Q = D/2a - c1: where 2a | D, the residue
    D mod (2a)^2 over 2a is D/2a mod 2a."""
    two_a = 2 * st.a
    q_value, c1 = st.q_and_c1
    problems = {}
    if st.coeff(0) + two_a * (q_value + c1) != st.product:
        problems["expansion_identity"] = False
    r = st.residue
    q_mod_2a = (r // two_a - c1) % two_a
    if r % two_a == 0 and q_mod_2a:
        problems["q_mod_2a"] = q_mod_2a
    return ("fail", problems) if problems else ("ok", None)


def _c0(st: _ProductState, ctx: _AuditContext):
    two_a = 2 * st.a
    d = st.difference
    q_value, c1 = st.q_and_c1
    bracket = q_value + c1
    problems = {}
    if d == 0:
        problems["d_zero"] = True
    rem, g = st.divisibility
    if rem:
        problems["d_mod_2a"] = rem
    elif g != 1:
        problems["gcd_2a_d_over_2a"] = g
    if abs(d) != two_a * abs(bracket):
        problems["d_vs_bracket"] = [abs(d), abs(bracket)]
    if abs(d) <= abs(bracket):
        problems["d_not_larger"] = True
    return ("fail", problems) if problems else ("ok", None)


_EXPANDING = (_qdiv, _c0)           # they read the coefficient list: the claims held to config.algebra_cap


def _bez2(st: _ProductState, ctx: _AuditContext):
    """(2a)^2 u - D v = 2a is solvable exactly when gcd((2a)^2, D) = 2a: 2a | D and gcd(2a, D/2a) = 1."""
    if st.divisibility == (0, 1):
        return ("ok", None)
    two_a = 2 * st.a
    return ("fail", lambda: {"two_a": two_a, "D": st.difference, "gcd": math.gcd(two_a * two_a, st.difference)})


def _deg(st: _ProductState, ctx: _AuditContext):
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


def _beta(ctx: _AuditContext, lo: int, hi: int, record: Callable):
    """2a + p = p - 2 (mod a+1) and 2a + p <= 3a < (a+1)^2, so a marked a+1 divides only 2a + 2, once."""
    if not ctx.ps.is_prime(2):
        for a in (ctx.ps.primes[prime_pi(lo, ctx.ps):prime_pi(hi + 1, ctx.ps)] - 1).tolist():   # marked a + 1
            record(a, "fail", {"beta": 1, "exponent": 0})
    return hi - lo + 1, 0


@dataclass(frozen=True)
class ClaimSpec:
    """One audited statement, checked by exactly one of check_chunk (a chunk
    check) and predicate (over the product state of variant, in the fused
    pass)."""

    code: str
    summary: str
    sieve_need: Callable[[int, AuditConfig], int]
    suite_cap: int
    chunk: int
    check_chunk: Callable | None = None
    variant: Variant | None = None
    predicate: Callable | None = None

    def __post_init__(self):
        if (self.check_chunk is None) == (self.predicate is None):
            raise ValueError(f"claim {self.code} needs exactly one of check_chunk and predicate")
        if (self.variant is None) != (self.predicate is None):
            raise ValueError(f"claim {self.code} needs a variant exactly when it has a predicate")


def _algebra_claim(code, summary, variant, predicate, need=lambda hi, cfg: hi):
    return ClaimSpec(code, summary, need, ALGEBRA_SUITE_CAP, ALGEBRA_CHUNK,
                     variant=variant, predicate=predicate)


def _search_claim(code, summary, need, check_chunk):
    return ClaimSpec(code, summary, need, SEARCH_SUITE_CAP, SEARCH_CHUNK,
                     check_chunk=check_chunk)


_CLAIM_LIST = [
    _algebra_claim("G-CLOSE", "sum complements pair with every prime <= a and stay in [a, 2a-2]",
                   Variant.SUM, _close),
    _algebra_claim("G-EQUIV", "sum product has a prime factor > a iff 2a is a sum of two primes (composite a)",
                   Variant.SUM, _equiv, need=lambda hi, cfg: 2 * hi),
    _algebra_claim("G-CONG", "prod(2a - p) is congruent to (-1)^pi(a) primorial(a) mod 2a",
                   Variant.SUM, _cong),
    ClaimSpec("G-C1", "sum-variant degree-1 coefficient c1 is coprime to c0, so to every prime <= a",
              lambda hi, cfg: hi, ALGEBRA_SUITE_CAP, SEARCH_CHUNK, check_chunk=_c1),
    _algebra_claim("G-QDIV", "sum expansion evaluates back to the product and 2a divides Q",
                   Variant.SUM, _qdiv),
    _algebra_claim("G-C0", "sum realized difference D: nonzero, 2a | D, gcd(2a, D/2a) = 1, |D| = 2a|Q+c1|",
                   Variant.SUM, _c0),
    _algebra_claim("G-BEZ2", "sum quadratic Bezout identity (2a)^2 u + c0 v = 2a verifies",
                   Variant.SUM, _bez2),
    _algebra_claim("G-DEG", "sum bracket degree is pi(a) - 1 while the unit Bezout identity verifies",
                   Variant.SUM, _deg),
    _search_claim("G-EMP", "every even 2a is a sum of two primes",
                  need=lambda hi, cfg: 2 * hi,
                  check_chunk=_search(n=lambda a: 2 * a, pmax=lambda a: a, sign=-1,
                                      fail=lambda a: {"partitions": []})),
    # a point b is the partition p = a - b of 2a with p < a; only its existence is audited
    _search_claim("G-PRP", "every a > 3 has a non-zero b with a - b and a + b both prime",
                  need=lambda hi, cfg: 2 * hi,
                  check_chunk=_search(n=lambda a: 2 * a, pmax=lambda a: a - 1, sign=-1,
                                      fail=lambda a: {"points": []})),
    _search_claim("G-TERN", "every odd n >= 9 splits as 3 + p + q with odd primes p, q",
                  need=lambda hi, cfg: hi,
                  check_chunk=_search(n=lambda n: n - 3, pmax=lambda n: (n - 3) // 2, sign=-1,
                                      fail=lambda n: {"n": n}, first=1,
                                      start=lambda lo: max(lo, 9) | 1, step=2)),
    _algebra_claim("D-CLOSE", "diff complements pair with every prime <= a and stay in [2a+2, 3a]",
                   Variant.DIFF, _close),
    _algebra_claim("D-EQUIV", "diff product keeps a prime factor > a (beyond a+1) iff 2a is a prime difference",
                   Variant.DIFF, _equiv, need=lambda hi, cfg: 3 * hi),
    _algebra_claim("D-CONG", "prod(2a + p) is congruent to primorial(a) mod 2a",
                   Variant.DIFF, _cong),
    ClaimSpec("D-C1", "diff-variant degree-1 coefficient c1 is coprime to c0, so to every prime <= a",
              lambda hi, cfg: hi, ALGEBRA_SUITE_CAP, SEARCH_CHUNK, check_chunk=_c1),
    _algebra_claim("D-QDIV", "diff expansion evaluates back to the product and 2a divides Q",
                   Variant.DIFF, _qdiv),
    _algebra_claim("D-C0", "diff realized difference D: nonzero, 2a | D, gcd(2a, D/2a) = 1, |D| = 2a|Q+c1|",
                   Variant.DIFF, _c0),
    _algebra_claim("D-BEZ2", "diff quadratic Bezout identity (2a)^2 u + c0 v = 2a verifies",
                   Variant.DIFF, _bez2),
    _algebra_claim("D-DEG", "diff bracket degree is pi(a) - 1 while the unit Bezout identity verifies",
                   Variant.DIFF, _deg),
    _search_claim("D-EMP", "every even 2a is a difference q - p of primes with p <= a",
                  need=lambda hi, cfg: 3 * hi,
                  check_chunk=_search(n=lambda a: 2 * a, pmax=lambda a: a, sign=1,
                                      fail=lambda a: {"pairs": []})),
    ClaimSpec("D-BETA", "(a+1)-exponent of the diff product is exactly beta(a+1)",
              lambda hi, cfg: hi + 1, ALGEBRA_SUITE_CAP, SEARCH_CHUNK, check_chunk=_beta),
    _search_claim("P-CENSUS", "pair census for each even gap is positive and monotone in the window",
                  need=lambda hi, cfg: cfg.census_limit + min(hi, cfg.census_max_gap),
                  check_chunk=_census),
    _search_claim("B-PRIMO", "a prime lies strictly between a and 2a; 2a < primorial(a) for a > 4",
                  need=lambda hi, cfg: 2 * hi, check_chunk=_bprimo),
]

CLAIMS: dict[str, ClaimSpec] = {spec.code: spec for spec in _CLAIM_LIST}


def claim_codes() -> list[str]:
    """Catalog codes in registry order."""
    return [spec.code for spec in _CLAIM_LIST]


# ---------------------------------------------------------------------------
# range execution
# ---------------------------------------------------------------------------

# A run's chunk tasks start in this process. The pool is bought only once
# the run has spent _POOL_AFTER_S in them and the tasks left, at the mean
# cost of those done, would take that long too, so a run that ends sooner,
# or nearly has, never pays for it (rent or buy; Karlin, Manasse, Rudolph
# and Sleator, "Competitive snoopy caching", Algorithmica 3, 1988).
# Measured on 2 shared vCPUs: G-EMP 4..1048579 (16 tasks) takes 18-32 ms
# at jobs=2 with every task pooled, against 5.5-9 ms in this process, so a
# 2-worker fork pool costs 14-28 ms (median 21) to start, warm up and tear
# down beyond the half of the work it takes over; a bare start and
# teardown is 10 ms of that. The constant prices the pool, not the work:
# it was set at about twice an earlier reading of 29-47 ms (median 34). 0
# starts the pool before the first task.
_POOL_AFTER_S = 0.06

_CTX: _AuditContext | None = None     # the run's context, which a forked worker inherits


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Tally:
    """One claim's outcome over a chunk, or over its range once the chunks
    are merged in range order: checked and skipped counts, the count of each
    record kind, and the first records of each kind up to its room. A
    merged tally's room is the witness limit; a chunk's is what the runner
    hands its task (see _Runner._room)."""

    def __init__(self, room: dict[str, int]):
        self.room = room
        self.checked = self.skipped = 0
        self.counts = dict.fromkeys(room, 0)
        self.kept: dict[str, list[dict]] = {key: [] for key in room}

    def record(self, a: int, key: str, detail) -> None:
        """Counts the record and keeps it while its kind has room. An unbuilt
        detail, a callable, is built only for a record that is kept."""
        self.counts[key] += 1
        if len(self.kept[key]) < self.room[key]:
            self.kept[key].append({"a": a, "kind": key, "detail": detail() if callable(detail) else detail})

    def merge(self, later: _Tally) -> None:
        self.checked += later.checked
        self.skipped += later.skipped
        for key, kept in self.kept.items():
            self.counts[key] += later.counts[key]
            kept.extend(later.kept[key][: self.room[key] - len(kept)])

    def result(self, code: str, lo: int, hi: int) -> ClaimResult:
        if self.counts["fail"]:
            status = FAIL
        elif self.counts["gap"]:
            status = GAP_WITNESSED
        elif self.checked:
            status = PASS
        else:
            status = SKIPPED
        witnesses = sorted(self.kept["fail"] + self.kept["gap"] + self.kept["info"], key=lambda w: w["a"])
        return ClaimResult(claim=code, a_lo=lo, a_hi=hi, status=status,
                           checked=self.checked, skipped=self.skipped, witnesses=witnesses,
                           fail_count=self.counts["fail"], gap_count=self.counts["gap"],
                           info_count=self.counts["info"])


def _eval_chunk(task: tuple[tuple[str, ...], int, int],
                room: dict[str, dict[str, int]]) -> dict[str, _Tally]:
    """One chunk of the claims in codes: one claim, or the fused algebra
    claims of both variants. Records into fresh tallies with the room the
    runner hands it, per code and record kind, so it keeps, and builds the
    details of, only the records the run still has room for, and returns
    them. It reads nothing of the run's tallies."""
    codes, lo, hi = task
    tallies = {code: _Tally(room[code]) for code in codes}
    spec = CLAIMS[codes[0]]
    if spec.predicate is not None:
        counts = _fused(_CTX, codes, lo, hi, {code: tallies[code].record for code in codes})
    else:
        counts = {spec.code: spec.check_chunk(_CTX, lo, hi, tallies[spec.code].record)}
    for code in codes:
        checked, skipped = counts[code]
        tallies[code].checked += checked
        tallies[code].skipped += skipped
    return tallies


def _tasks(requests: list[tuple[str, int, int]]) -> list[tuple[tuple[str, ...], int, int]]:
    """Chunk tasks of (code, lo, hi) requests: the algebra claims, of either
    variant, that share a range and a chunk width share each chunk's task.
    The chunk checks come first, so the runner's mean cost per task, which
    decides whether the pool pays, is not read off a heavy algebra chunk."""
    groups: dict[tuple, list[str]] = {}
    for code, lo, hi in requests:
        spec = CLAIMS[code]
        key = ("algebra" if spec.predicate is not None else code, lo, hi, spec.chunk)
        groups.setdefault(key, []).append(code)
    order = sorted(groups.items(), key=lambda group: group[0][0] == "algebra")
    return [(tuple(codes), c, min(c + size - 1, hi))
            for (_, lo, hi, size), codes in order for c in range(lo, hi + 1, size)]


class _Runner:
    """Runs chunk tasks over one shared context: in this process, and in a
    pool of at most _cpus() workers once a run has outlasted what the pool
    costs (see _POOL_AFTER_S). The pool ends with the run."""

    def __init__(self, ps: PrimeSet, config: AuditConfig, jobs: int):
        self.ctx = _AuditContext(ps=ps, config=config)
        self.jobs = min(jobs, _cpus())
        self.pooled = 0                  # chunk tasks the pool ran

    def run(self, requests: list[tuple[str, int, int]]) -> list[ClaimResult]:
        """One ClaimResult per (code, lo, hi) request, in request order. The
        chunk tasks of all requests run in one sequence, each claim's in
        range order, and each task's tallies are merged in that order, so the
        report does not depend on where the pool takes over (see _outs)."""
        global _CTX
        _CTX = self.ctx
        limit = self.ctx.config.witness_limit
        self.merged = {code: _Tally(dict.fromkeys(("fail", "gap", "info"), limit)) for code, _, _ in requests}
        for out in self._outs(_tasks([r for r in requests if r[1] <= r[2]])):
            for code, tally in out.items():
                self.merged[code].merge(tally)
        return [self.merged[code].result(code, lo, hi) for code, lo, hi in requests]

    def _room(self, task) -> dict[str, dict[str, int]]:
        """Per code of the task and record kind, the records the merged tallies can still keep."""
        return {code: {key: self.merged[code].room[key] - len(kept) for key, kept in self.merged[code].kept.items()}
                for code in task[0]}

    def _outs(self, tasks):
        """The tasks' tallies in task order. The tasks run in this process
        until the run has spent _POOL_AFTER_S in them and the tasks left
        would take that long too at the mean cost so far; then, at jobs > 1
        with two tasks or more left, the pool takes the rest. Each task is
        handed its room (see _room) when it is handed out, so an in-process
        task's room is exact. A pooled task is handed out with at most
        2 * jobs tasks out past the last one merged, which keeps each worker
        a task or more ahead, so its room misses at most the records of
        those 2 * jobs tasks."""
        start = time.perf_counter()
        for done, task in enumerate(tasks):
            elapsed, left = time.perf_counter() - start, len(tasks) - done
            pays = elapsed >= _POOL_AFTER_S and elapsed * left >= _POOL_AFTER_S * done
            if self.jobs > 1 and left > 1 and pays:
                import multiprocessing          # imported only when the pool is bought
                self.pooled = left
                # fork workers inherit _CTX, sieve included, without pickling
                with multiprocessing.get_context("fork").Pool(self.jobs) as pool:
                    handed = []                 # the tasks out, oldest first
                    for task in tasks[done:]:
                        handed.append(pool.apply_async(_eval_chunk, (task, self._room(task))))
                        if len(handed) > 2 * self.jobs:
                            yield handed.pop(0).get()
                    yield from (out.get() for out in handed)
                return
            yield _eval_chunk(task, self._room(task))


def _resolve_claims(claims: list[str] | str) -> tuple[list[str], bool]:
    """Returns (codes, clamp_to_suite_caps)."""
    if claims == "all" or claims == ["all"]:
        return claim_codes(), True
    if isinstance(claims, str):
        claims = [claims]
    if "all" in claims:
        raise ValueError("'all' cannot be combined with claim codes; give one or the other")
    seen = []
    for code in claims:
        if code not in CLAIMS:
            raise ValueError(f"unknown claim code {code!r}; known: {', '.join(claim_codes())} or 'all'")
        if code not in seen:
            seen.append(code)
    return seen, False


def run_claim(claim: str, a_lo: int, a_hi: int, jobs: int = 1,
              ps: PrimeSet | None = None, config: AuditConfig = AuditConfig()) -> ClaimResult:
    """Check one claim for every applicable a in [a_lo, a_hi]."""
    codes, clamp = _resolve_claims(claim)
    if clamp or len(codes) != 1:
        raise ValueError("run_claim takes exactly one claim code; use run_suite for several")
    return run_suite(codes, a_lo, a_hi, jobs, ps, config).results[0]


def run_suite(claims: list[str] | str, a_lo: int, a_hi: int, jobs: int = 1,
              ps: PrimeSet | None = None, config: AuditConfig = AuditConfig()) -> AuditReport:
    """Run a list of claims (or 'all') and assemble a deterministic report.

    With 'all', each claim's upper bound is clamped to its suite cap, and
    that of a claim that expands (QDIV, C0) also to config.algebra_cap;
    listed claims run the requested range, but one that expands raises past it.
    """
    start = time.monotonic()
    codes, clamp = _resolve_claims(claims)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if codes and not 3 < a_lo <= a_hi:
        raise ValueError(f"need 3 < a_lo <= a_hi, got [{a_lo}, {a_hi}]")
    bounds = {}
    for code in codes:
        spec = CLAIMS[code]
        cap = config.algebra_cap if spec.predicate in _EXPANDING else math.inf
        if not clamp and a_hi > cap:
            raise CapacityError(f"{code} is capped at a <= {cap} (full expansions); requested {a_hi}")
        bounds[code] = min(a_hi, spec.suite_cap, cap) if clamp else a_hi
    active = [c for c in codes if bounds[c] >= a_lo]
    if active:
        need = max(CLAIMS[c].sieve_need(bounds[c], config) for c in active)
        if ps is None or ps.limit < need:
            ps = build_sieve(max(need, 64))
    runner = _Runner(ps, config, jobs)
    results = runner.run([(code, a_lo, bounds[code]) for code in codes])
    results.sort(key=lambda r: (r.claim, r.a_lo, r.a_hi))
    meta = {
        "tool": "primeaudit",
        "version": __version__,
        "claims": codes if not clamp else ["all"],
        "a_lo": a_lo,
        "a_hi": a_hi,
        "sieve_limit": ps.limit if ps is not None else 0,
        "algebra_cap": config.algebra_cap,
        "census_limit": config.census_limit,
        "census_max_gap": config.census_max_gap,
        "witness_limit": config.witness_limit,
    }
    return AuditReport(results=results, meta=meta,
                       elapsed_s=time.monotonic() - start, jobs=runner.jobs, pooled=runner.pooled)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _decimal(n: int) -> str:
    """The exact decimal digits of n at any size. str() sees only parts of
    at most 600 digits, under the least limit sys.set_int_max_str_digits
    takes (640), so no process-wide setting is read or changed."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() < 1990:
        return str(n)
    half = n.bit_length() * 3 // 20          # about half the digits: log10(2) > 0.3
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _json(obj) -> str:
    """json.dumps(obj, separators=(",", ":")) with every int written by _decimal."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k if isinstance(k, str) else json.dumps(k)) + ":" + _json(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_json, obj)) + "]"
    if isinstance(obj, int) and not isinstance(obj, bool):
        return _decimal(obj)
    return json.dumps(obj)


def _dumps(obj) -> str:
    """Compact JSON. An int past the interpreter's digit limit (4300 by
    default), which json.dumps refuses, sends the record through _json.
    A report record is a tree the audit builds, so json.dumps skips its
    check for reference cycles."""
    try:
        return json.dumps(obj, separators=(",", ":"), check_circular=False)
    except ValueError:
        return _json(obj)


def emit_report(report: AuditReport, fmt: str = "json") -> str:
    """Serialize a report; the deterministic body is every line except the
    final timing trailer (see deterministic_body)."""
    if fmt == "json":
        lines = [_dumps({"meta": report.meta})]
        for r in report.results:
            rec = {"claim": r.claim, "a_lo": r.a_lo, "a_hi": r.a_hi, "status": r.status,
                   "checked": r.checked, "skipped": r.skipped, "witness_count": r.witness_count,
                   "fail_count": r.fail_count, "gap_count": r.gap_count, "info_count": r.info_count}
            if r.witnesses:
                rec["witnesses"] = r.witnesses
            lines.append(_dumps(rec))
        lines.append(_dumps({"trailer": {"elapsed_s": f"{report.elapsed_s:.3f}", "jobs": report.jobs,
                                         "pooled": report.pooled}}))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["claim,a_lo,a_hi,status,checked,witness_count,fail_count,gap_count,info_count"]
        for r in report.results:
            lines.append(f"{r.claim},{r.a_lo},{r.a_hi},{r.status},{r.checked},{r.witness_count},"
                         f"{r.fail_count},{r.gap_count},{r.info_count}")
        lines.append(f"# elapsed_s={report.elapsed_s:.3f} jobs={report.jobs} pooled={report.pooled}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r} (expected json or csv)")


def deterministic_body(text: str) -> str:
    """Strip the timing trailer so outputs can be compared byte-for-byte."""
    kept = [ln for ln in text.splitlines()
            if not (ln.startswith('{"trailer"') or ln.startswith("#"))]
    return "\n".join(kept) + "\n"
