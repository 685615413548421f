import json
import re
import subprocess
import sys

import pytest

from primeaudit import audit
from primeaudit.algebra import DEFAULT_ALGEBRA_CAP
from primeaudit.audit import AuditConfig
from primeaudit.cli import build_parser, main

from conftest import EXPANDING


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def lines_of(text):
    return [json.loads(ln) for ln in text.splitlines()]


def test_goldbach_single(capsys):
    code, out, _ = run_cli(capsys, "goldbach", "--a", "10")
    assert code == 0
    assert lines_of(out) == [{"a": 10, "n": 20, "pairs": [[3, 17], [7, 13]]}]


def test_goldbach_range_and_count_only(capsys):
    code, out, _ = run_cli(capsys, "goldbach", "--from", "2", "--to", "6", "--count-only")
    assert code == 0
    recs = lines_of(out)
    assert [r["a"] for r in recs] == [2, 3, 4, 5, 6]
    assert all(r["count"] >= 1 for r in recs)


def test_diff_subcommand(capsys):
    code, out, _ = run_cli(capsys, "diff", "--a", "3")
    assert code == 0                      # a = 3 legitimately has no representation
    assert lines_of(out) == [{"a": 3, "n": 6, "pairs": []}]
    code, out, _ = run_cli(capsys, "diff", "--from", "4", "--to", "8")
    assert code == 0
    assert all(r["pairs"] for r in lines_of(out))


def test_prp_subcommand(capsys):
    code, out, _ = run_cli(capsys, "prp", "--a", "10")
    assert code == 0
    assert lines_of(out) == [{"a": 10, "min_point": 3, "points": [3, 7]}]
    code, out, _ = run_cli(capsys, "prp", "--from", "4", "--to", "12")
    assert code == 0
    assert all(r["min_point"] is not None for r in lines_of(out))


def test_ternary_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ternary", "--n", "21")
    assert code == 0
    assert lines_of(out) == [{"n": 21, "triple": [3, 5, 13]}]
    code, out, _ = run_cli(capsys, "ternary", "--from", "9", "--to", "19")
    assert code == 0
    assert [r["n"] for r in lines_of(out)] == [9, 11, 13, 15, 17, 19]
    code, _, err = run_cli(capsys, "ternary", "--n", "10")
    assert code == 2 and "odd" in err


def test_polignac_subcommand(capsys):
    code, out, _ = run_cli(capsys, "polignac", "--gap", "2", "--limit", "100")
    assert code == 0
    assert lines_of(out) == [{"gap": 2, "limit": 100, "count": 8}]
    code, out, _ = run_cli(capsys, "polignac", "--max-gap", "8", "--limit", "100")
    assert [r["gap"] for r in lines_of(out)] == [2, 4, 6, 8]


def test_vieta_subcommand(capsys):
    code, out, _ = run_cli(capsys, "vieta", "--a", "10", "--variant", "sum")
    assert code == 0
    assert lines_of(out) == [{"a": 10, "variant": "sum", "coeffs": [210, -247, 101, -17, 1]}]


def test_product_subcommand(capsys):
    code, out, _ = run_cli(capsys, "product", "--a", "10", "--variant", "sum", "--factor")
    assert code == 0
    rec = lines_of(out)[0]
    assert rec["product"] == 59670
    assert rec["exponents"] == {"2": 1, "3": 3, "5": 1}
    assert rec["a_plus_1_exponent"] == 0
    assert rec["leftover"] == 221


def test_product_prints_ints_past_the_digit_limit(capsys):
    # the sum product at a = 9000 has about 4700 digits, past the
    # interpreter's default limit of 4300 for int-to-str conversion
    from conftest import digit_limit
    from primeaudit import build_sieve, complement_product
    from primeaudit.algebra import Variant

    with digit_limit(4300):
        code, out, _ = run_cli(capsys, "product", "--a", "9000", "--variant", "sum")
    assert code == 0
    with digit_limit(0):
        rec = json.loads(out)
    assert rec["product"] == complement_product(9000, Variant.SUM, build_sieve(18_000))
    assert len(out.split('"product":')[1]) > 4300


def test_bezout_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bezout", "--a", "10", "--variant", "sum", "--kind", "quadratic")
    assert code == 0
    rec = lines_of(out)[0]
    assert (rec["u"], rec["v"], rec["c0"], rec["verified"]) == (446, 3, -59460, True)
    code, out, _ = run_cli(capsys, "bezout", "--a", "10", "--variant", "diff", "--kind", "unit")
    rec = lines_of(out)[0]
    assert rec["q_plus_c1"] == 17067 and rec["verified"]


def test_sieve_subcommand_sci_notation(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--limit", "1e4")
    assert code == 0
    assert lines_of(out) == [{"limit": 10000, "count": 1229, "largest": 9973}]


def test_audit_subcommand(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "G-CONG", "--from", "4", "--to", "200")
    assert code == 0
    recs = out.splitlines()
    assert json.loads(recs[1])["status"] == "PASS"


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    args = parse(["audit", "--claims", "all", "--from", "4", "--to", "5"])
    flags = {"algebra_cap": args.algebra_cap, "census_limit": args.census_limit,
             "census_max_gap": args.max_gap, "witness_limit": args.witness_limit}
    assert flags == vars(AuditConfig())
    for command in (["vieta"], ["product"], ["bezout", "--kind", "unit"]):
        assert parse(command + ["--a", "10", "--variant", "sum"]).algebra_cap == DEFAULT_ALGEBRA_CAP


def test_audit_csv_and_out_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "audit", "--claims", "G-CONG,G-DEG", "--from", "4", "--to", "40",
                           "--format", "csv", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
    assert out.splitlines()[0] == "claim,a_lo,a_hi,status,checked,witness_count,fail_count,gap_count,info_count"
    assert out.splitlines()[1:3] == ["G-CONG,4,40,PASS,37,0,0,0,0", "G-DEG,4,40,GAP-WITNESSED,37,16,0,36,0"]
    assert re.fullmatch(r"# elapsed_s=\d+\.\d{3} jobs=1 pooled=0", out.splitlines()[3])


def test_audit_reports_true_counts_past_the_witness_limit(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "G-EQUIV", "--from", "4", "--to", "30",
                           "--witness-limit", "1")
    assert code == 0
    rec = lines_of(out)[1]
    assert [rec[k] for k in ("checked", "witness_count", "fail_count", "gap_count", "info_count")] == [
        19, 1, 0, 0, 19]
    assert len(rec["witnesses"]) == 1


def test_audit_all_obeys_the_algebra_cap(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "all", "--from", "4", "--to", "3000",
                           "--algebra-cap", "100", "--census-limit", "10000")
    assert code == 0
    recs = {rec["claim"]: rec for rec in lines_of(out)[1:-1]}
    assert len(recs) == len(audit.CLAIMS)
    for code_, rec in recs.items():
        if code_ in EXPANDING:
            assert rec["a_hi"] == 100, code_
        else:       # the other algebra claims stop at their suite cap, the search claims run on
            assert rec["a_hi"] == (2000 if audit.CLAIMS[code_].predicate else 3000), code_
    # a listed claim that expands past the cap stays a usage error
    for argv in (("G-QDIV", "--to", "3000", "--algebra-cap", "100"), ("G-C1", "--to", "10001")):
        code, out, err = run_cli(capsys, "audit", "--claims", argv[0], "--from", "4", *argv[1:])
        assert (code, out) == (2, "") and "capped at a <=" in err


def test_audit_jobs_flag_changes_only_trailer(capsys):
    _, out1, _ = run_cli(capsys, "audit", "--claims", "G-DEG,G-EQUIV", "--from", "4", "--to", "64")
    _, out8, _ = run_cli(capsys, "audit", "--claims", "G-DEG,G-EQUIV", "--from", "4", "--to", "64",
                         "--jobs", "8")
    body1 = [ln for ln in out1.splitlines() if not ln.startswith('{"trailer"')]
    body8 = [ln for ln in out8.splitlines() if not ln.startswith('{"trailer"')]
    assert body1 == body8
    # jobs is the capped worker count; pooled counts the chunk tasks the
    # pool ran, none for a run of one task
    trailers = [lines_of(out)[-1]["trailer"] for out in (out1, out8)]
    assert [list(t) for t in trailers] == [["elapsed_s", "jobs", "pooled"]] * 2
    assert [(t["jobs"], t["pooled"]) for t in trailers] == [(1, 0), (min(8, audit._cpus()), 0)]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["goldbach", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["goldbach", "--a", "ten"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["goldbach", "--from", "4"])       # missing --to
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "audit", "--claims", "BOGUS", "--from", "4", "--to", "9")
    assert code == 2 and "unknown claim" in err
    code, _, err = run_cli(capsys, "sieve", "--limit", "1e12")
    assert code == 2 and "exceeds" in err
    for argv, message in ((("goldbach", "--from", "10", "--to", "5"), "goldbach: --to must be >= --from"),
                          (("goldbach", "--from", "4", "--to", "1.5"), "not an exact integer: '1.5'"),
                          (("vieta", "--a", "10", "--variant", "both"),
                           "variant must be 'sum' or 'diff', got 'both'")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "") and message in out.err, argv


@pytest.mark.parametrize("argv", [("goldbach", "--a", "5", "--to", "10"),
                                  ("diff", "--a", "5", "--to", "10"),
                                  ("prp", "--a", "5", "--to", "10"),
                                  ("ternary", "--n", "9", "--to", "11")])
def test_to_without_from_exits_2(capsys, argv):
    # --to bounds a range only; with a single --a or --n it is refused, not dropped
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{argv[0]}: --to goes with --from" in out.err


def test_audit_all_stands_alone(capsys):
    code, out, err = run_cli(capsys, "audit", "--claims", "all,G-EMP", "--from", "4", "--to", "10")
    assert code == 2 and out == ""
    assert "'all' cannot be combined with claim codes" in err


@pytest.mark.parametrize("flags", [("--claims", "P-CENSUS", "--census-limit", "0"),
                                   ("--claims", "G-CONG", "--witness-limit", "-1"),
                                   ("--claims", "G-EMP", "--jobs", "0")])
def test_audit_bad_config_exits_2(capsys, flags):
    # a bad configuration is a usage error, never a FAIL or a silent PASS
    code, out, err = run_cli(capsys, "audit", "--from", "4", "--to", "10", *flags)
    assert code == 2
    assert out == ""
    assert "must be >=" in err


@pytest.mark.parametrize("argv, message", [
    (("polignac", "--gap", "3", "--limit", "5e7"), "gap must be even and >= 2, got 3"),
    (("ternary", "--n", "20000000"), "n must be odd and >= 9, got 20000000"),
    (("polignac", "--max-gap", "1"), "max-gap must be >= 2, got 1"),
    (("polignac", "--gap", "2", "--limit", "-5"), "limit must be non-negative, got -5"),
    (("audit", "--claims", "", "--from", "4", "--to", "10"), "--claims names no claim"),
    (("audit", "--claims", ",", "--from", "4", "--to", "10"), "--claims names no claim"),
    *((("vieta", "--a", a, "--variant", "sum"), message) for a, message in (
        ("1", "a must be >= 2, got 1"), ("20001", "a = 20001 exceeds algebra cap 10000"))),
    *((("product", "--a", a, "--variant", "diff", "--factor"), message) for a, message in (
        ("1", "a must be >= 2, got 1"), ("20001", "a = 20001 exceeds algebra cap 10000"))),
    *((("bezout", "--a", a, "--variant", "sum", "--kind", "unit"), message) for a, message in (
        ("1", "a must be >= 2, got 1"), ("20001", "a = 20001 exceeds algebra cap 10000"))),
    *((("audit", "--claims", code, "--from", "4", "--to", "10001"),        # the claims that expand
       f"{code} is capped at a <= 10000 (full expansions); requested 10001") for code in EXPANDING),
    (("audit", "--claims", "G-EMP", "--from", "4", "--to", "10", "--out", "no-such-dir/report.json"),
     "cannot write --out no-such-dir/report.json: No such file or directory"),
    (("audit", "--claims", "G-EMP", "--from", "4", "--to", "10", "--out", "."),
     "cannot write --out .: Is a directory"),
])
def test_bad_arguments_exit_2_before_the_sieve(capsys, monkeypatch, argv, message):
    import primeaudit.cli as cli

    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve was built before the arguments were checked")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    monkeypatch.setattr(audit, "build_sieve", no_sieve)     # audit builds its own
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("goldbach", "--from", "1", "--to", "1e7"), "a must be >= 2, got 1"),
    (("goldbach", "--a", "-5"), "a must be >= 2, got -5"),
    (("diff", "--from", "0", "--to", "1e6"), "a must be >= 2, got 0"),
    (("prp", "--from", "2", "--to", "1e6"), "a must be >= 4, got 2"),
    (("prp", "--a", "3"), "a must be >= 4, got 3"),
])
def test_low_a_exits_2_before_the_sieve(capsys, monkeypatch, argv, message):
    # the range's low end is checked against the query's bound before the
    # sieve for its top end is built; the message is the query's own
    import primeaudit.cli as cli

    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve was built before the range was checked")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"primeaudit {argv[0]}: {message}\n"


def test_counterexample_exit_code(capsys, monkeypatch):
    # a ternary decomposition failure is a reportable finding (exit 1)
    import primeaudit.cli as cli
    from primeaudit.errors import NoDecompositionError

    def fake_ternary(n, ps):
        raise NoDecompositionError("none", n)

    monkeypatch.setattr(cli, "ternary_decomposition", fake_ternary)
    code, out, _ = run_cli(capsys, "ternary", "--n", "9")
    assert code == 1
    assert lines_of(out) == [{"n": 9, "triple": None}]


def test_records_round_trip_and_revalidate(capsys):
    from conftest import td_is_prime

    _, out, _ = run_cli(capsys, "goldbach", "--from", "4", "--to", "40")
    for rec in lines_of(out):
        assert rec["n"] == 2 * rec["a"]
        for p, q in rec["pairs"]:
            assert td_is_prime(p) and td_is_prime(q) and p + q == rec["n"] and p <= q
    _, out, _ = run_cli(capsys, "diff", "--from", "4", "--to", "40")
    for rec in lines_of(out):
        for p, q in rec["pairs"]:
            assert td_is_prime(p) and td_is_prime(q) and q - p == rec["n"] and p <= rec["a"]


def test_audit_fail_exits_1(capsys, monkeypatch):
    import primeaudit.cli as cli
    from primeaudit.audit import AuditReport, ClaimResult

    fake = AuditReport(
        results=[ClaimResult(claim="G-EMP", a_lo=4, a_hi=9, status="FAIL",
                             checked=6, skipped=0,
                             witnesses=[{"a": 4, "kind": "fail", "detail": {}}])],
        meta={}, elapsed_s=0.0, jobs=1)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "audit", "--claims", "G-EMP", "--from", "4", "--to", "9")
    assert code == 1
    assert '"status":"FAIL"' in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "primeaudit", "goldbach", "--a", "10"],
        capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"a": 10, "n": 20, "pairs": [[3, 17], [7, 13]]}
    proc = subprocess.run([sys.executable, "-m", "primeaudit", "--version"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.startswith("primeaudit ")


def test_start_up_imports_no_multiprocessing():
    # the pool's module is imported only when a run buys the pool, so a
    # start-up of the package and its CLI does not pay for it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, primeaudit, primeaudit.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
