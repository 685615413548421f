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
from operator import mul
from typing import Callable

import numpy as np

from . import __version__
from .algebra import (  # noqa: F401  bench/tracing.py wraps the layer kernels by name here too
    DEFAULT_ALGEBRA_CAP,
    Variant,
    _cofactor_tree,
    _int64_product,
    _mul_linear,
    _q_and_c1_from,
    realized_difference,
    smoothness_factorization,
    solve_quadratic_bezout,
    solve_unit_bezout,
)
from .errors import CapacityError, ClaimCheckError
from .partitions import _bits, _census_counts, _partners, _require_range, _unresolved, polignac_census  # noqa: F401  bench/tracing.py wraps it
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

# The claims config.algebra_cap holds. They once expanded the polynomial; the
# cap stays on them so that every report and every refusal stays as it was.
_ALGEBRA_CAPPED = frozenset({"G-QDIV", "G-C0", "D-QDIV", "D-C0"})


@dataclass(frozen=True)
class AuditConfig:
    algebra_cap: int = DEFAULT_ALGEBRA_CAP   # hard ceiling for G-/D-QDIV and C0 (_ALGEBRA_CAPPED)
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
    _units = (None, frozenset(), None)      # ((lo, hi), nonunits, differences) of the last chunk, not a field

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

    def nonunits(self, lo: int, hi: int) -> set[int]:
        """For G-/D-C0, BEZ2 and DEG: the a of lo..hi at which gcd(2a, c1) != 1
        (see _nonunits), kept for the chunk, so the claims of both variants
        read one decision."""
        if self._units[0] != (lo, hi):
            self._units = ((lo, hi), _nonunits(self, lo, hi), {})
        return self._units[1]

    def difference(self, a: int, variant: Variant) -> int:
        """For a kept fail detail of G-/D-C0, BEZ2 or DEG at an a of the chunk
        nonunits last read: D, as realized_difference forms it, once per
        (a, variant), so the details of the three claims share it."""
        differences = self._units[2]
        if (a, variant) not in differences:
            differences[a, variant] = realized_difference(a, variant, self.ps, cap=a)
        return differences[a, variant]


def _trusted(ps: PrimeSet, top: int) -> int:
    """The largest m <= top such that the table of ps marks exactly the
    primes of [0, m] that primes._simple_sieve marks, or -1."""
    marked = np.unpackbits(ps.table_view[: top // 8 + 1], bitorder="little")[: top + 1].astype(bool)
    bad = np.flatnonzero(marked != _simple_sieve(top))
    return int(bad[0]) - 1 if bad.size else top


# ---------------------------------------------------------------------------
# per-claim checks
#
# Every claim is a chunk check(ctx, chunk_lo, chunk_hi, tally) that reads the
# prime table over a whole chunk at once: the search kernel, which settles
# P-CENSUS's gaps too, B-PRIMO's arrays, and the table facts the algebra
# claims reduce to. G-/D-CLOSE, CONG and QDIV are identities in the roots
# (_identity); C1 and D-BETA read where the table marks two multiples of a
# prime, or a + 1; C0, BEZ2 and DEG hold exactly where gcd(2a, c1) = 1
# (_nonunits); EQUIV holds where the table agrees with the primes far enough,
# and else trial-divides each a (_equiv). A check reports each a whose
# outcome is not a plain ok to its _Tally, kind in {"fail", "gap", "info"},
# in ascending a per kind: one a by tally.record(a, kind, detail), or an
# ascending run of a by tally.record_run(run, kind, build), which counts the
# whole run at once. It returns (checked, skipped). A detail is built only
# for a record the tally keeps, so past the witness limit a record only
# counts, and a build that raises surfaces as ClaimCheckError(code, a).
# ---------------------------------------------------------------------------


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
    def check_chunk(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
        s = start(lo)
        count = len(range(s, hi + 1, step))
        tally.record_run(s + step * _unresolved(ctx.ps, n(s), count, pmax(s), sign, first), "fail", fail)
        return count, hi - lo + 1 - count

    return check_chunk


def _census(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
    """P-CENSUS over the gaps lo..hi: the pair counts of each even gap
    <= census_max_gap at the checkpoints never fall and end above 0. The
    other gaps are skipped.

    A larger window counts every pair a smaller one does, so the counts
    never fall, and they end above 0 exactly when some prime p has p + gap
    prime and <= census_limit. The search kernel looks for one such p for
    all the gaps at once, gap i bounded by pmax0 + i <= census_limit - gaps[i];
    only the gaps it leaves take their counts (_census_counts), which decide
    them and make their fail details."""
    cfg, ps = ctx.config, ctx.ps
    gaps = range(lo + lo % 2, min(hi, cfg.census_max_gap) + 1, 2)
    if gaps:
        _require_range(ps, cfg.census_limit + gaps[-1], "polignac_census")
        checkpoints = sorted({cfg.census_limit // 100, cfg.census_limit // 10, cfg.census_limit})
        pmax0 = cfg.census_limit - gaps[-1] - (len(gaps) - 1)
        for gap in (gaps.start + 2 * _unresolved(ps, gaps.start, len(gaps), pmax0, 1)).tolist():
            counts = _census_counts(gap, checkpoints, ps)
            if counts != sorted(counts) or not counts[-1]:
                tally.record(gap, "fail", {"checkpoints": checkpoints, "counts": counts})
    return len(gaps), hi - lo + 1 - len(gaps)


def _bprimo(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
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
        tally.record(lo + i, "fail", problems)
    return hi - lo + 1, 0


def _identity(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
    """G-/D-CLOSE, CONG and QDIV over lo..hi, which hold at every a on any
    table PrimeSet accepts, so the chunk counts every a checked and records
    none. The roots p_i are the table's set bits <= a, ascending, and the
    table marks neither 0 nor 1.
    - CLOSE: the roots rise strictly from at least 2, and the complements
      2a -+ p are exact int64 sums, so each pairs with its root, they fall
      (sum) or rise (diff) strictly, and p_0 >= 2 and p_{k-1} <= a hold them
      in [a, 2a - 2] (sum) or [2a + 2, 3a] (diff).
    - CONG: prod(2a -+ p_i) = prod(-+p_i) = c0 (mod 2a), an identity in the
      roots.
    - QDIV: the expansion of prod(x -+ p_i) evaluates at 2a to
      c0 + 2a (Q + c1), Q = sum_{j>=2} c_j (2a)^(j-1), which is the product
      itself, and every term of Q is a multiple of 2a."""
    return hi - lo + 1, 0


def _equivalence(code: str, variant: Variant) -> Callable:
    """Chunk check of G-/D-EQUIV. The bound _equiv holds the table's
    agreement to, a + 1 and the largest complement, does not fall as a
    grows, so its value at hi holds for the whole chunk: where the table
    agrees that far, the a checked are one run of infos with _equiv's
    detail, else _equiv decides each a. The prime a of the sum variant are
    skipped."""
    sign, key = (-1, "partitions") if variant is Variant.SUM else (1, "pairs")

    def check_chunk(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
        ps = ctx.ps
        checked = np.arange(lo, hi + 1)
        if variant is Variant.SUM:
            checked = checked[_bits(ps.table_view, checked) == 0]
        if _table_decides(ctx, hi, sign, prime_pi(hi, ps)):
            tally.record_run(checked, "info", lambda a: _table_detail(ps, 2 * a, sign, prime_pi(a, ps), key))
        else:
            for a in checked.tolist():
                try:
                    kind, detail = _equiv(ctx, a, variant)
                except Exception as exc:
                    raise ClaimCheckError(code, a, f"{type(exc).__name__}: {exc}") from exc
                tally.record(a, "info" if kind == "ok" else kind, detail)
        return checked.size, hi - lo + 1 - checked.size

    return check_chunk


def _table_decides(ctx: _AuditContext, a: int, sign: int, k: int) -> bool:
    """Whether the table agrees with the primes up to a + 1 and the
    complements 2a + sign*p of the first and the k-th prime, the ends of
    the k primes <= a: the largest complement is at an end."""
    ends = (int(ctx.ps.primes[0]), int(ctx.ps.primes[k - 1])) if k else ()
    return ctx.agreement(a) >= max([a + 1, *(2 * a + sign * p for p in ends)])


def _table_detail(ps: PrimeSet, two_a: int, sign: int, k: int, key: str) -> dict:
    """EQUIV's detail where the table decides: the residue is the product of
    the pair complements."""
    pairs = _pairs(ps, two_a, sign, k)
    return {"leftover": _product([q for _, q in pairs], 0, len(pairs)), key: pairs}


def _equiv(ctx: _AuditContext, a: int, variant: Variant):
    """EQUIV at one a. Every complement is at most 3a, so its only possible
    prime factor above a is itself, or a+1 in the diff variant (2a + 2 =
    2(a+1)). Where the table agrees with a plain sieve up to the largest
    complement, the residue is therefore the product of the complements the
    table marks prime, and the product itself is never multiplied out.
    Otherwise, as on a table that marks a composite prime or misses a prime,
    trial division of the product gives it, so the leftover never depends
    on the table."""
    ps = ctx.ps
    if variant is Variant.SUM and ps.is_prime(a):
        return ("skip", None)
    two_a, k = 2 * a, prime_pi(a, ps)
    sign, key = (-1, "partitions") if variant is Variant.SUM else (1, "pairs")
    if _table_decides(ctx, a, sign, k):
        # the residue is the product of the pair complements, so
        # (residue == 1) == (not pairs) holds and the detail can wait
        return ("ok", lambda: _table_detail(ps, two_a, sign, k, key))
    product = _int64_product(two_a + sign * ps.primes[:k])       # as complement_product forms it
    rep = smoothness_factorization(product, a, ps)
    residue = rep.above_bound_part if variant is Variant.SUM else rep.leftover
    pairs = _pairs(ps, two_a, sign, k)
    detail = {"leftover": residue, key: pairs}
    if (residue == 1) == (not pairs):
        return ("ok", detail)
    detail["product"] = product
    return ("fail", detail)


def _pairs(ps: PrimeSet, two_a: int, sign: int, k: int) -> list[list[int]]:
    """[p, 2a + sign*p] for each of the first k primes p that pairs with a prime."""
    return [[p, two_a + sign * p] for p in _partners(ps, two_a, sign, k)]


def _cofactor_sum(roots: list[int]) -> tuple[int, list[int]]:
    """|c1| = sum_i prod_{j != i} p_j over the roots, and |c1| mod each root.

    algebra._cofactor_tree carries (P, S), S the sum of P / p over a node's
    roots, up a product tree; a remainder tree takes |c1| mod P down the
    same nodes to the roots of each leaf (Bernstein, "Fast multiplication
    and its applications", 2008)."""
    def down(node: tuple, rem: int) -> None:
        rem %= node[0]
        for child in node[2]:           # two nodes, or a leaf's roots
            if isinstance(child, tuple):
                down(child, rem)
            else:
                rems.append(rem % child)

    rems: list[int] = []
    top = _cofactor_tree(roots)
    down(top, top[1])
    return top[1], rems


def _c1(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
    """c0 = +-prod p_j and c1 = +-sum_i prod_{j != i} p_j over the marked roots
    p_j <= a, so a prime divides both exactly when it divides two roots: from
    the context's shared point on. gcd(2a, c1) = 1 itself is the fact of
    C0, BEZ2 and DEG, which _nonunits decides for the primes of 2a.
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

    tally.record_run(range(max(lo, ctx.shared(hi)), hi + 1), "fail", detail)
    return hi - lo + 1, 0


def _nonunits(ctx: _AuditContext, lo: int, hi: int) -> set[int]:
    """The a of lo..hi at which gcd(2a, c1) != 1, c1 = +-sum_i prod_{j != i} p_j
    over the marked roots p_j <= a. Each prime r | 2a is at most a. Where the
    table agrees with the primes up to a, r is a root and divides no other,
    so r does not divide c1. Past that, r divides c1 when it divides two
    roots or more, not when it divides one, and when it divides none, c1 =
    +-P sum_i p_i^-1 (mod r), P = prod p_j prime to r."""
    ps, start = ctx.ps, max(lo, ctx.agreement(hi) + 1)
    if start > hi:
        return set()
    primes = np.flatnonzero(_simple_sieve(hi))
    pi = np.searchsorted(ps.primes, np.arange(start, hi + 1), side="right").tolist()
    out = set()
    for a, k in zip(range(start, hi + 1), pi):
        roots = ps.primes[:k]
        for r in primes[2 * a % primes == 0].tolist():
            hits = np.count_nonzero(roots % r == 0)
            if hits > 1 or (not hits and sum(pow(q, -1, r) for q in (roots % r).tolist()) % r == 0):
                out.add(a)
                break
    return out


def _c0_detail(two_a: int, d: int) -> dict:
    """C0's fail: gcd(2a, D/2a), and where D = 0 that D is zero and not
    larger than D/2a."""
    g = {"gcd_2a_d_over_2a": math.gcd(two_a, d // two_a)}
    return {"d_zero": True, **g, "d_not_larger": True} if d == 0 else g


_BRACKET_DETAILS = {
    "C0": _c0_detail,
    "BEZ2": lambda two_a, d: {"two_a": two_a, "D": d, "gcd": math.gcd(two_a * two_a, d)},
    "DEG": lambda two_a, d: {"two_a": two_a, "q_plus_c1": d // two_a, "gcd": math.gcd(two_a, d // two_a)},
}


def _unit_bracket(code: str, variant: Variant) -> Callable:
    """Chunk check of G-/D-C0, BEZ2 or DEG. On any table D = prod(2a -+ p_i)
    - c0 = 2a (Q + c1) with 2a | Q, so 2a | D, |D| = 2a |Q + c1|, and
    gcd(2a, D/2a) = gcd(2a, c1). So C0's D/2a prime to 2a, (2a)^2 u + c0 v =
    2a, which needs gcd((2a)^2, D) = 2a, and (2a) u + (D/2a) v = 1 all hold
    exactly where gcd(2a, c1) = 1 (_AuditContext.nonunits). D = 0, and with
    it c1 = 0, only where the table marks no root <= a. DEG records the
    bracket degree pi(a) - 1 as a gap at every other a where it passes 1,
    from the third marked prime on. A fail's detail is built for a kept
    record, off the context's D."""
    build, deg = _BRACKET_DETAILS[code[2:]], code.endswith("DEG")

    def check_chunk(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
        ps, fails = ctx.ps, ctx.nonunits(lo, hi)
        tally.record_run(sorted(fails), "fail", lambda a: build(2 * a, ctx.difference(a, variant)))
        if deg:
            gaps = range(max(lo, int(ps.primes[2]) if ps.primes.size > 2 else hi + 1), hi + 1)
            tally.record_run([a for a in gaps if a not in fails] if fails else gaps, "gap",
                             lambda a: {"deg": prime_pi(a, ps) - 1, "unit_bezout_verified": True})
        return hi - lo + 1, 0

    return check_chunk


def _beta(ctx: _AuditContext, lo: int, hi: int, tally: _Tally):
    """2a + p = p - 2 (mod a+1) and 2a + p <= 3a < (a+1)^2, so a marked a+1 divides only 2a + 2, once."""
    if not ctx.ps.is_prime(2):
        marked = ctx.ps.primes[prime_pi(lo, ctx.ps):prime_pi(hi + 1, ctx.ps)]      # the marked a + 1
        tally.record_run(marked - 1, "fail", lambda a: {"beta": 1, "exponent": 0})
    return hi - lo + 1, 0


@dataclass(frozen=True)
class ClaimSpec:
    """One audited statement, checked chunk by chunk by check_chunk."""

    code: str
    summary: str
    sieve_need: Callable[[int, AuditConfig], int]
    suite_cap: int
    chunk: int
    check_chunk: Callable


def _algebra_claim(code, summary, check_chunk, need=lambda hi, cfg: hi, chunk=ALGEBRA_CHUNK):
    """A claim clamped to ALGEBRA_SUITE_CAP under --claims all."""
    return ClaimSpec(code, summary, need, ALGEBRA_SUITE_CAP, chunk, check_chunk)


def _search_claim(code, summary, need, check_chunk):
    return ClaimSpec(code, summary, need, SEARCH_SUITE_CAP, SEARCH_CHUNK, check_chunk)


_CLAIM_LIST = [
    _algebra_claim("G-CLOSE", "sum complements pair with every prime <= a and stay in [a, 2a-2]",
                   check_chunk=_identity),
    _algebra_claim("G-EQUIV", "sum product has a prime factor > a iff 2a is a sum of two primes (composite a)",
                   need=lambda hi, cfg: 2 * hi, check_chunk=_equivalence("G-EQUIV", Variant.SUM)),
    _algebra_claim("G-CONG", "prod(2a - p) is congruent to (-1)^pi(a) primorial(a) mod 2a",
                   check_chunk=_identity),
    _algebra_claim("G-C1", "sum-variant degree-1 coefficient c1 is coprime to c0, so to every prime <= a",
                   chunk=SEARCH_CHUNK, check_chunk=_c1),
    _algebra_claim("G-QDIV", "sum expansion evaluates back to the product and 2a divides Q",
                   check_chunk=_identity),
    _algebra_claim("G-C0", "sum realized difference D: nonzero, 2a | D, gcd(2a, D/2a) = 1, |D| = 2a|Q+c1|",
                   check_chunk=_unit_bracket("G-C0", Variant.SUM)),
    _algebra_claim("G-BEZ2", "sum quadratic Bezout identity (2a)^2 u + c0 v = 2a verifies",
                   check_chunk=_unit_bracket("G-BEZ2", Variant.SUM)),
    _algebra_claim("G-DEG", "sum bracket degree is pi(a) - 1 while the unit Bezout identity verifies",
                   check_chunk=_unit_bracket("G-DEG", Variant.SUM)),
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
                   check_chunk=_identity),
    _algebra_claim("D-EQUIV", "diff product keeps a prime factor > a (beyond a+1) iff 2a is a prime difference",
                   need=lambda hi, cfg: 3 * hi, check_chunk=_equivalence("D-EQUIV", Variant.DIFF)),
    _algebra_claim("D-CONG", "prod(2a + p) is congruent to primorial(a) mod 2a",
                   check_chunk=_identity),
    _algebra_claim("D-C1", "diff-variant degree-1 coefficient c1 is coprime to c0, so to every prime <= a",
                   chunk=SEARCH_CHUNK, check_chunk=_c1),
    _algebra_claim("D-QDIV", "diff expansion evaluates back to the product and 2a divides Q",
                   check_chunk=_identity),
    _algebra_claim("D-C0", "diff realized difference D: nonzero, 2a | D, gcd(2a, D/2a) = 1, |D| = 2a|Q+c1|",
                   check_chunk=_unit_bracket("D-C0", Variant.DIFF)),
    _algebra_claim("D-BEZ2", "diff quadratic Bezout identity (2a)^2 u + c0 v = 2a verifies",
                   check_chunk=_unit_bracket("D-BEZ2", Variant.DIFF)),
    _algebra_claim("D-DEG", "diff bracket degree is pi(a) - 1 while the unit Bezout identity verifies",
                   check_chunk=_unit_bracket("D-DEG", Variant.DIFF)),
    _search_claim("D-EMP", "every even 2a is a difference q - p of primes with p <= a",
                  need=lambda hi, cfg: 3 * hi,
                  check_chunk=_search(n=lambda a: 2 * a, pmax=lambda a: a, sign=1,
                                      fail=lambda a: {"pairs": []})),
    _algebra_claim("D-BETA", "(a+1)-exponent of the diff product is exactly beta(a+1)",
                   need=lambda hi, cfg: hi + 1, chunk=SEARCH_CHUNK, check_chunk=_beta),
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
    hands its task (see _Runner._room). A chunk check records into its
    chunk's tally; a detail is built only for a record the tally keeps, so
    past the room a record, or a whole run of them, only counts."""

    def __init__(self, code: str, room: dict[str, int]):
        self.code, self.room = code, room
        self.checked = self.skipped = 0
        self.counts = dict.fromkeys(room, 0)
        self.kept: dict[str, list[dict]] = {key: [] for key in room}

    def record(self, a: int, key: str, detail) -> None:
        """record_run of the one a, with detail, or with what an unbuilt
        detail, a zero-argument callable, builds."""
        self.record_run((a,), key, lambda a: detail() if callable(detail) else detail)

    def record_run(self, run, key: str, build: Callable) -> None:
        """Counts a record of kind key at each a of run, an ascending range,
        list or int array, and keeps the first while the kind has room, each
        with detail build(a), which is called for a kept record only. A build
        that raises surfaces as ClaimCheckError(code, a)."""
        kept = self.kept[key]
        self.counts[key] += len(run)
        for a in map(int, run[: self.room[key] - len(kept)]):
            try:
                detail = build(a)
            except Exception as exc:
                raise ClaimCheckError(self.code, a, f"{type(exc).__name__}: {exc}") from exc
            kept.append({"a": a, "kind": key, "detail": detail})

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
    """One chunk of the claims in codes: one claim, or the algebra claims
    of both variants, whose chunk checks run in the order listed. Records
    into fresh tallies with the room the runner hands it, per code and
    record kind, so it keeps, and builds the details of, only the records
    the run still has room for, and returns them. It reads nothing of the
    run's tallies."""
    codes, lo, hi = task
    tallies = {code: _Tally(code, room[code]) for code in codes}
    for code in codes:
        tallies[code].checked, tallies[code].skipped = CLAIMS[code].check_chunk(_CTX, lo, hi, tallies[code])
    return tallies


def _tasks(requests: list[tuple[str, int, int]]) -> list[tuple[tuple[str, ...], int, int]]:
    """Chunk tasks of (code, lo, hi) requests: the algebra claims, of either
    variant, that share a range and a chunk width share each chunk's task,
    so C0, BEZ2 and DEG read one decision per chunk."""
    groups: dict[tuple, list[str]] = {}
    for code, lo, hi in requests:
        spec = CLAIMS[code]
        key = ("algebra" if spec.suite_cap == ALGEBRA_SUITE_CAP else code, lo, hi, spec.chunk)
        groups.setdefault(key, []).append(code)
    return [(tuple(codes), c, min(c + size - 1, hi))
            for (_, lo, hi, size), codes in groups.items() for c in range(lo, hi + 1, size)]


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
        self.merged = {code: _Tally(code, dict.fromkeys(("fail", "gap", "info"), limit)) for code, _, _ in requests}
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
    that of G-/D-QDIV and C0 (_ALGEBRA_CAPPED) also to config.algebra_cap;
    listed claims run the requested range, but QDIV or C0 raises past it.
    """
    start = time.monotonic()
    codes, clamp = _resolve_claims(claims)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if codes and not 3 < a_lo <= a_hi:
        raise ValueError(f"need 3 < a_lo <= a_hi, got [{a_lo}, {a_hi}]")
    bounds = {}
    for code in codes:
        cap = config.algebra_cap if code in _ALGEBRA_CAPPED else math.inf
        if not clamp and a_hi > cap:
            raise CapacityError(f"{code} is capped at a <= {cap} (full expansions); requested {a_hi}")
        bounds[code] = min(a_hi, CLAIMS[code].suite_cap, cap) if clamp else a_hi
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
