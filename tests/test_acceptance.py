"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole file is part of the default pytest run.
"""

import json
import time

from primeaudit import (
    Variant,
    beta,
    build_sieve,
    complement_product,
    diff_representations,
    goldbach_partitions,
    has_goldbach,
    polignac_census,
    prime_pi,
    smoothness_factorization,
    vieta_coefficients,
)
from primeaudit.audit import AuditConfig, run_claim, run_suite
from primeaudit.cli import main
from primeaudit.primes import primes_upto

SUM, DIFF = Variant.SUM, Variant.DIFF


def announce(tag, ok, extra=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {extra}".rstrip()
    print(line)
    assert ok, line


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_01_worked_example_sum(capsys):
    t0 = time.monotonic()
    code, out = run_cli(capsys, "product", "--a", "10", "--variant", "sum", "--factor")
    rec = json.loads(out)
    elapsed = time.monotonic() - t0
    ok = (code == 0
          and rec["product"] == 59670 == 2 * 3**3 * 5 * 13 * 17
          and rec["exponents"] == {"2": 1, "3": 3, "5": 1}
          and rec["a_plus_1_exponent"] == 0
          and rec["leftover"] == 221)
    ps = build_sieve(64)
    ok = ok and goldbach_partitions(10, ps).pairs == [(3, 17), (7, 13)]
    ok = ok and elapsed < 1.0
    announce("01 sum worked example", ok, f"({elapsed:.2f}s)")


def test_02_worked_example_diff(capsys):
    t0 = time.monotonic()
    code, out = run_cli(capsys, "product", "--a", "10", "--variant", "diff", "--factor")
    rec = json.loads(out)
    elapsed = time.monotonic() - t0
    ok = (code == 0
          and rec["product"] == 341550 == 2 * 3**3 * 5**2 * 11 * 23
          and rec["exponents"] == {"2": 1, "3": 3, "5": 2}
          and rec["a_plus_1_exponent"] == 1
          and rec["leftover"] == 23)
    ps = build_sieve(64)
    ok = ok and diff_representations(10, ps).pairs == [(3, 23)]
    ok = ok and elapsed < 1.0
    announce("02 diff worked example", ok, f"({elapsed:.2f}s)")


def test_03_boundary_solutions_at_a3():
    ps = build_sieve(64)
    sum_prod = complement_product(3, SUM, ps)
    sum_rep = smoothness_factorization(sum_prod, 3, ps)
    diff_prod = complement_product(3, DIFF, ps)
    diff_rep = smoothness_factorization(diff_prod, 3, ps)
    ok = (sum_prod == 12 == 2**2 * 3
          and sum_rep.exponents == {2: 2, 3: 1} and sum_rep.leftover == 1
          and diff_prod == 72 == 2**3 * 3**2
          and diff_rep.exponents == {2: 3, 3: 2} and diff_rep.leftover == 1
          and diff_rep.a_plus_1_exponent == 0 == beta(4)
          and diff_representations(3, ps).pairs == [])
    announce("03 boundary a=3", ok)


def test_04_equivalence_oracle_to_5000():
    t0 = time.monotonic()
    g = run_claim("G-EQUIV", 4, 5000)
    d = run_claim("D-EQUIV", 4, 5000)
    elapsed = time.monotonic() - t0
    composites = 4997 - (prime_pi(5000, build_sieve(5000)) - 2)
    ok = (g.status == "PASS" and g.checked == composites
          and d.status == "PASS" and d.checked == 4997
          and elapsed < 60.0)
    announce("04 equivalence to 5000", ok, f"({elapsed:.1f}s)")


def test_05_identity_suite_to_2000():
    claims = ["G-CONG", "G-C1", "G-QDIV", "G-C0", "G-BEZ2", "G-DEG",
              "D-CONG", "D-C1", "D-QDIV", "D-C0", "D-BEZ2", "D-DEG"]
    t0 = time.monotonic()
    rep = run_suite(claims, 4, 2000)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    for r in rep.results:
        expected = "GAP-WITNESSED" if r.claim.endswith("DEG") else "PASS"
        ok = ok and r.status == expected and r.checked == 1997
        ok = ok and not any(w["kind"] == "fail" for w in r.witnesses)
    announce("05 identity suite to 2000", ok, f"({elapsed:.1f}s)")


def test_06_vieta_against_naive_convolution():
    def conv_mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    ps = build_sieve(300)
    ok = True
    cache = {}
    for a in range(4, 301):
        plist = tuple(primes_upto(a, ps))
        for variant in (SUM, DIFF):
            if (plist, variant) not in cache:
                poly = [1]
                for p in plist:
                    poly = conv_mul(poly, [-p, 1] if variant is SUM else [p, 1])
                cache[(plist, variant)] = poly
            ok = ok and vieta_coefficients(a, variant, ps).coeffs == cache[(plist, variant)]
    announce("06 vieta vs naive expansion", ok)


def test_07_empirical_ranges(capsys):
    t0 = time.monotonic()
    code, out = run_cli(capsys, "audit", "--claims", "G-EMP",
                        "--from", "4", "--to", "5000000", "--jobs", "8")
    goldbach_elapsed = time.monotonic() - t0
    rec = json.loads(out.splitlines()[1])
    ok = code == 0 and rec["status"] == "PASS" and rec["checked"] == 4999997
    ok = ok and goldbach_elapsed < 300.0
    ps = build_sieve(16)
    ok = ok and has_goldbach(2, ps) and has_goldbach(3, ps)

    code, out = run_cli(capsys, "audit", "--claims", "D-EMP", "--from", "4", "--to", "100000")
    ok = ok and code == 0 and json.loads(out.splitlines()[1])["status"] == "PASS"

    code, out = run_cli(capsys, "audit", "--claims", "G-PRP", "--from", "4", "--to", "1000000")
    ok = ok and code == 0 and json.loads(out.splitlines()[1])["status"] == "PASS"

    code, out = run_cli(capsys, "audit", "--claims", "G-TERN", "--from", "4", "--to", "100000")
    rec = json.loads(out.splitlines()[1])
    ok = ok and code == 0 and rec["status"] == "PASS" and rec["checked"] == 49996

    announce("07 empirical ranges", ok, f"(goldbach sweep {goldbach_elapsed:.1f}s)")


def test_08_polignac_census_against_oracle():
    limit = 10**6
    ps = build_sieve(limit + 100)

    # independent oracle: pure-python sieve + set membership
    flags = bytearray([1]) * (limit + 101)
    flags[0] = flags[1] = 0
    n = 2
    while n * n <= limit + 100:
        if flags[n]:
            flags[n * n :: n] = bytearray(len(flags[n * n :: n]))
        n += 1
    oracle_primes = [i for i, f in enumerate(flags) if f]
    oracle_set = set(oracle_primes)

    ok = True
    for gap in range(2, 101, 2):
        expected = sum(1 for p in oracle_primes
                       if p + gap <= limit and (p + gap) in oracle_set)
        got = polignac_census(gap, limit, ps).count
        ok = ok and got == expected and got > 0
        c1 = polignac_census(gap, 10**4, ps).count
        c2 = polignac_census(gap, 10**5, ps).count
        ok = ok and c1 <= c2 <= got
    announce("08 polignac census", ok)


def test_09_gap_witnessed_degree_reports():
    # every composite a >= 8 records the gap deg = pi(a) - 1, with every record kept
    ps = build_sieve(6000)
    cfg = AuditConfig(witness_limit=10**4)
    ok = True
    for code in ("G-DEG", "D-DEG"):
        result = run_claim(code, 8, 2000, ps=ps, config=cfg)
        ok = ok and result.status == "GAP-WITNESSED"
        ok = ok and not any(w["kind"] == "fail" for w in result.witnesses)
        gaps = {w["a"]: w["detail"] for w in result.witnesses}
        for a in range(8, 2001):
            if ps.is_prime(a):
                continue
            ok = ok and gaps.get(a) == {"deg": prime_pi(a, ps) - 1, "unit_bezout_verified": True}
            if not ok:
                break
    announce("09 degree gap witnesses", ok)


def test_10_determinism_across_jobs(capsys, eager_pool):
    args = ("audit", "--claims", "all", "--from", "4", "--to", "500")
    code1, out1 = run_cli(capsys, *args, "--jobs", "1")
    code8, out8 = run_cli(capsys, *args, "--jobs", "8")
    body1 = [ln for ln in out1.splitlines() if not ln.startswith('{"trailer"')]
    body8 = [ln for ln in out8.splitlines() if not ln.startswith('{"trailer"')]
    ok = code1 == code8 == 0 and body1 == body8 and len(body1) == 24
    ok = ok and eager_pool == [2] and json.loads(out8.splitlines()[-1])["trailer"]["pooled"] > 1
    announce("10 determinism across jobs", ok)
