"""The four workloads: the inputs each draws from its seed, the requests one
repetition makes into primeaudit, and the checks of every answer.

Requests reach primeaudit through its submodules' attributes at call time,
so the wrappers a traced repetition installs see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from primeaudit import algebra, audit, partitions

CHUNK = 65536                 # search chunk width: the sweep ranges below are whole chunks
EMP_HI = 3 + 16 * CHUNK       # G-EMP over 4..EMP_HI, 16 chunks
SWEEP_HI = 3 + 4 * CHUNK      # G-PRP, D-EMP and G-TERN over 4..SWEEP_HI, 4 chunks each
SUITE_HI = 2000               # `audit --claims all --from 4 --to 2000`, the README headline
EQUIV_WIDTH = 48
EQUIV_STARTS = (9850, 9900)   # seeded window start: every window holds 42-44 composite a, below the cap 1e4
QUERIES_PER_KIND = 32

# The configuration `primeaudit audit` builds from its default flags; its
# algebra cap is also the default `--algebra-cap` of the algebra subcommands.
CONFIG = audit.AuditConfig()
JOBS = {"search-sweep": 2, "algebra-suite": 1, "equiv-band": 1, "point-queries": 1}
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Argument ranges of the point queries (README.md and ROADMAP.md of the
# repository). Each runs from the value in the README's CLI example of the
# subcommand to the largest value the README's acceptance suite sweeps for
# the same search, or to an algebra cap of primeaudit's. `goldbach` stops at
# ROADMAP's G-EMP range 4..1e6, not at the acceptance sweep's 5e6: with
# 5e6 and the 1e7 sieve it needs, peak RSS followed the seed's largest
# arguments and set-up time was less steady (bench/README.md).
GOLDBACH_A = (10, 10**6)      # `goldbach --a 10`; ROADMAP times G-EMP over 4..1e6
DIFF_A = (10, 10**5)          # `diff --a 10`; difference representations to 1e5
PRP_A = (10, 10**6)           # `prp --a 10`; reflective points to 1e6
TERNARY_N = (21, 10**5)       # `ternary --n 21`; ternary splits to 1e5
POLIGNAC_GAPS = (2, 100)      # `polignac --gap 2 ...` and `--max-gap 100`,
POLIGNAC_LIMIT = 10**6        # both with `--limit 1e6`
# `product --a 10 --factor` up to the default `--algebra-cap` 1e4; `vieta`
# and `bezout` (`--a 10`) up to the cap of `--claims all`, 2000. One full
# expansion near 1e4 takes 0.5-1 s, so a few such calls would make up most
# of a repetition.
PRODUCT_A = (10, CONFIG.algebra_cap)
EXPANSION_A = (10, audit.ALGEBRA_SUITE_CAP)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _spread(rng: random.Random, lo: int, hi: int, k: int, log: bool = True) -> list[int]:
    """k values in [lo, hi). The range, on a log scale when `log`, is cut
    into k equal strata, and each value is drawn from the middle fifth of
    its own stratum. Seeds then differ in every argument but not in the
    scale of the queries, whose cost grows steeply with the argument, so one
    seed's queries cost about what another's do."""
    to, back = (math.log, math.exp) if log else (float, float)
    base, width = to(lo), (to(hi) - to(lo)) / k
    return [int(back(base + (i + 0.4 + 0.2 * rng.random()) * width)) for i in range(k)]


def _point_queries(rng: random.Random) -> list[tuple]:
    k = QUERIES_PER_KIND
    variants = ["sum", "diff"] * (k // 2)
    gaps = [2 * g for g in _spread(rng, POLIGNAC_GAPS[0] // 2, POLIGNAC_GAPS[1] // 2 + 1, k, log=False)]
    kinds = [
        [("goldbach", a) for a in _spread(rng, *GOLDBACH_A, k)],
        [("diff", a) for a in _spread(rng, *DIFF_A, k)],
        [("prp", a) for a in _spread(rng, *PRP_A, k)],
        [("ternary", n | 1) for n in _spread(rng, *TERNARY_N, k)],
        [("polignac", g, POLIGNAC_LIMIT) for g in gaps],
    ]
    kinds += [[(kind, a, v) for a, v in zip(_spread(rng, *(PRODUCT_A if kind == "product" else EXPANSION_A), k),
                                            variants)]
              for kind in ("vieta", "product", "bezout-quadratic", "bezout-unit")]
    return [q for round_ in zip(*kinds) for q in round_]


def inputs(workload: str, seed: int) -> list[tuple]:
    """The requests of one repetition; the same seed gives the same list.

    An audit request is (claims, a_lo, a_hi); a point query is (kind, *args).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search-sweep":
        return [(["G-EMP"], 4, EMP_HI), (["G-PRP", "D-EMP", "G-TERN"], 4, SWEEP_HI)]
    if workload == "algebra-suite":
        return [("all", 4, SUITE_HI)]
    if workload == "equiv-band":
        lo = rng.randint(*EQUIV_STARTS)
        return [(["G-EQUIV", "D-EQUIV"], lo, lo + EQUIV_WIDTH - 1)]
    if workload == "point-queries":
        return _point_queries(rng)
    raise ValueError(f"unknown workload {workload!r}")


def sieve_limit(workload: str, reqs: list[tuple]) -> int:
    """The sieve the requests need, built before the timed phase.

    For audits it is the sieve run_suite would build, worked out from the
    claim registry as run_suite does. Point queries share the sieve that
    the CLI subcommands (cli._cmd_*) build for the tops of their argument
    ranges, so that it does not depend on the seed.
    """
    if workload == "point-queries":
        return max(2 * GOLDBACH_A[1], 3 * DIFF_A[1], 2 * PRP_A[1], TERNARY_N[1],
                   POLIGNAC_LIMIT + POLIGNAC_GAPS[1], PRODUCT_A[1] + 1)
    need = 64
    for claims, _, hi in reqs:
        if claims == "all":
            bounds = {c: min(hi, audit.CLAIMS[c].suite_cap) for c in audit.claim_codes()}
        else:
            bounds = dict.fromkeys(claims, hi)
        need = max(need, *(audit.CLAIMS[c].sieve_need(b, CONFIG) for c, b in bounds.items()))
    return need


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _q_product(a, v, ps):
    prod = algebra.complement_product(a, algebra.Variant(v), ps, cap=CONFIG.algebra_cap)
    return prod, algebra.smoothness_factorization(prod, a, ps)


def _q_bezout_quadratic(a, v, ps):
    cap = CONFIG.algebra_cap
    w = algebra.bezout_quadratic(a, algebra.Variant(v), ps, cap=cap)
    return w, algebra.realized_difference(a, algebra.Variant(v), ps, cap=cap)


def _q_bezout_unit(a, v, ps):
    cap = CONFIG.algebra_cap
    w = algebra.bezout_unit(a, algebra.Variant(v), ps, cap=cap)
    q_value, c1 = algebra.q_and_c1(a, algebra.Variant(v), ps, cap=cap)
    return w, q_value + c1


# One entry per CLI subcommand, making the library calls that subcommand makes.
_QUERIES = {
    "goldbach": lambda a, ps: partitions.goldbach_partitions(a, ps).pairs,
    "diff": lambda a, ps: partitions.diff_representations(a, ps).pairs,
    "prp": lambda a, ps: partitions.prime_reflective_points(a, ps),
    "ternary": lambda n, ps: partitions.ternary_decomposition(n, ps),
    "polignac": lambda gap, limit, ps: partitions.polignac_census(gap, limit, ps).count,
    "vieta": lambda a, v, ps: algebra.vieta_coefficients(a, algebra.Variant(v), ps,
                                                        cap=CONFIG.algebra_cap).coeffs,
    "product": _q_product,
    "bezout-quadratic": _q_bezout_quadratic,
    "bezout-unit": _q_bezout_unit,
}


def run_request(workload: str, req: tuple, ps):
    """Make one request; an audit request returns the emitted report text."""
    if workload == "point-queries":
        return _QUERIES[req[0]](*req[1:], ps)
    claims, lo, hi = req
    report = audit.run_suite(claims, lo, hi, jobs=JOBS[workload], ps=ps,
                             config=CONFIG)
    return audit.emit_report(report, "json")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Oracle:
    """Primes from a plain Eratosthenes sieve, independent of primeaudit's
    segmented bit table."""

    def __init__(self, limit: int):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = False
        self.flags = flags
        self.primes = np.flatnonzero(flags)

    def is_prime(self, n: int) -> bool:
        return bool(self.flags[n])

    def primes_upto(self, a: int) -> np.ndarray:
        return self.primes[: np.searchsorted(self.primes, a, side="right")]

    def pairs(self, a: int, sign: int) -> list[tuple[int, int]]:
        """(p, 2a + sign*p) for primes p <= a whose partner is prime."""
        p = self.primes_upto(a)
        q = 2 * a + sign * p
        hit = self.flags[q]
        return list(zip(p[hit].tolist(), q[hit].tolist()))


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _product_facts(a: int, v: str, oracle: Oracle) -> tuple[int, int, int]:
    """(complement product, primorial, realized difference D) from the oracle."""
    plist = oracle.primes_upto(a).tolist()
    sign = -1 if v == "sum" else 1
    prod = math.prod(2 * a + sign * p for p in plist)
    primorial = math.prod(plist)
    c0 = primorial if sign > 0 or len(plist) % 2 == 0 else -primorial
    return prod, primorial, prod - c0


def check_query(q: tuple, ans, oracle: Oracle) -> list[str]:
    """Problems with one point-query answer; an empty list means correct."""
    kind, x = q[0], q[1]
    bad = []
    if kind in ("goldbach", "diff"):
        if [tuple(t) for t in ans] != oracle.pairs(x, -1 if kind == "goldbach" else 1):
            bad.append("pairs")
    elif kind == "prp":
        b = np.arange(1, x - 1)
        points = b[oracle.flags[x - b] & oracle.flags[x + b]].tolist()
        if ans.points != points or ans.min_point != (points[0] if points else None):
            bad.append("points")
    elif kind == "ternary":
        m = x - 3
        p = next(int(p) for p in oracle.primes[1:] if oracle.is_prime(m - int(p)))
        if tuple(ans) != (3, p, m - p) or 2 * p > m:
            bad.append("triple")
    elif kind == "polignac":
        gap, limit = x, q[2]
        want = int(np.count_nonzero(oracle.flags[: limit - gap + 1] & oracle.flags[gap: limit + 1]))
        if ans != want:
            bad.append("count")
    else:
        v = q[2]
        prod, primorial, d = _product_facts(x, v, oracle)
        two_a = 2 * x
        if kind == "vieta":
            roots = oracle.primes_upto(x)[[0, -1]].tolist()
            root_sign = 1 if v == "sum" else -1
            if (len(ans) != len(oracle.primes_upto(x)) + 1 or ans[-1] != 1
                    or _horner(ans, two_a) != prod
                    or any(_horner(ans, root_sign * r) for r in roots)):
                bad.append("coeffs")
        elif kind == "product":
            value, rep = ans
            if value != prod or rep.value != prod or rep.reconstruct() != prod:
                bad.append("product")
            if math.gcd(rep.leftover, primorial) != 1 or any(
                    p > x or not oracle.is_prime(p) for p in rep.exponents):
                bad.append("factorization")
        elif kind == "bezout-quadratic":
            w, realized = ans
            if realized != d:
                bad.append("realized_difference")
            if not (w.verified and two_a * two_a * w.u - d * w.v == two_a
                    and 0 <= w.u < abs(d) // two_a):
                bad.append("witness")
        elif kind == "bezout-unit":
            w, bracket = ans
            if d % two_a or bracket != d // two_a:
                bad.append("q_plus_c1")
            b = d // two_a
            if not (w.verified and two_a * w.u + b * w.v == 1 and 0 <= w.u < max(abs(b), 1)):
                bad.append("witness")
    return bad


def _canon(x) -> str:
    """Stable text of an answer; integers go out in hex, which has no digit limit."""
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return format(x, "x")
    if isinstance(x, Enum):
        return _canon(x.value)
    if isinstance(x, str):
        return json.dumps(x)
    if is_dataclass(x):
        return _canon({f.name: getattr(x, f.name) for f in fields(x)})
    if isinstance(x, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in x.items()) + "}"
    return "[" + ",".join(_canon(v) for v in x) + "]"


def audit_records(text: str) -> dict[str, list]:
    """claim -> [claim, a_lo, a_hi, status, checked, skipped, witnesses] from a
    JSON report; witness_count and the timing trailer are left out."""
    out = {}
    for line in text.splitlines():
        rec = json.loads(line)
        if "claim" in rec:
            out[rec["claim"]] = [rec["claim"], rec["a_lo"], rec["a_hi"], rec["status"],
                                 rec["checked"], rec["skipped"], rec.get("witnesses", [])]
    return out


def record_digest(rec: list) -> str:
    return hashlib.sha256(json.dumps(rec, separators=(",", ":")).encode()).hexdigest()


def _equiv_expected(lo: int, hi: int, oracle: Oracle) -> dict[str, str]:
    """Digests of the G-EQUIV and D-EQUIV records the oracle predicts.

    Every complement lies below 3a, so its only possible prime factor above a
    (a+1 aside) is itself: the factor above the bound is the product of the
    prime complements, and it is 1 exactly when no pair exists.
    """
    out = {}
    for code, sign, key in (("G-EQUIV", -1, "partitions"), ("D-EQUIV", 1, "pairs")):
        checked = skipped = 0
        witnesses = []
        for a in range(lo, hi + 1):
            if sign < 0 and oracle.is_prime(a):
                skipped += 1
                continue
            checked += 1
            if len(witnesses) < CONFIG.witness_limit:
                pairs = [list(t) for t in oracle.pairs(a, sign)]
                witnesses.append({"a": a, "kind": "info",
                                  "detail": {"leftover": math.prod(q for _, q in pairs), key: pairs}})
        out[code] = record_digest([code, lo, hi, "PASS", checked, skipped, witnesses])
    return out


def check(workload: str, reqs: list[tuple], answers: list) -> dict:
    """Compare a repetition's answers with the expected ones.

    An answer that is an exception counts as failed. Returns attempted and
    failed results, the first problems found, a fingerprint of the answers,
    and for audits the items audited, witness records and report bytes.
    """
    oracle = Oracle(sieve_limit(workload, reqs))
    problems: list[str] = []
    if workload == "point-queries":
        digest = hashlib.sha256()
        failed = 0
        for q, ans in zip(reqs, answers):
            bad = [repr(ans)] if isinstance(ans, Exception) else check_query(q, ans, oracle)
            digest.update(_canon(ans if not bad else None).encode() + b"\n")
            if bad:
                failed += 1
                problems.append(f"{q}: {', '.join(bad)}")
        return {"attempted": len(reqs), "failed": failed, "problems": problems[:8],
                "fingerprint": digest.hexdigest(), "items": len(reqs)}

    if workload == "equiv-band":
        expected = {}
        for _, lo, hi in reqs:
            expected.update(_equiv_expected(lo, hi, oracle))
    else:
        expected = json.loads(EXPECTED_FILE.read_text())[workload]
    got: dict[str, str] = {}
    items = witnesses = report_bytes = 0
    for req, ans in zip(reqs, answers):
        if isinstance(ans, Exception):
            problems.append(f"{req}: {ans!r}")
            continue
        report_bytes += len(ans.encode())
        for code, rec in audit_records(ans).items():
            got[code] = record_digest(rec)
            items += rec[4] + rec[5]
            witnesses += len(rec[6])
    codes = sorted(set(expected) | set(got))
    wrong = [c for c in codes if got.get(c) != expected.get(c)]
    problems += [f"{c}: {'missing' if c not in got else 'differs'}" for c in wrong]
    fingerprint = hashlib.sha256(json.dumps(sorted(got.items())).encode()).hexdigest()
    return {"attempted": len(codes), "failed": len(wrong), "problems": problems[:8],
            "fingerprint": fingerprint, "items": items, "witness_records": witnesses,
            "report_bytes": report_bytes}
