"""Command-line front end. One JSON record per line on stdout.

Exit codes: 0 all checks passed, 1 a counterexample or FAIL was found,
2 usage or capacity error (diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .algebra import (
    DEFAULT_ALGEBRA_CAP,
    Variant,
    _check_a,
    bezout_quadratic,
    bezout_unit,
    complement_product,
    smoothness_factorization,
    vieta_coefficients,
)
from .audit import AuditConfig, _dumps, emit_report, run_suite
from .errors import CapacityError, NoDecompositionError, SieveRangeError
from .partitions import (
    _check_census,
    _check_least,
    _check_ternary,
    diff_representations,
    goldbach_partitions,
    min_prime_reflective_point,
    polignac_census,
    prime_reflective_points,
    ternary_decomposition,
)
from .primes import build_sieve, prime_pi

DEFAULT_SIEVE_LIMIT = 10**7


def _int_arg(text: str) -> int:
    """Integer flag value; scientific notation like 1e7 is accepted."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not val.is_integer() or abs(val) > 2**53:
        raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}")
    return int(val)


def _variant_arg(text: str) -> Variant:
    try:
        return Variant(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"variant must be 'sum' or 'diff', got {text!r}")


def _emit(record: dict) -> None:
    sys.stdout.write(_dumps(record) + "\n")


def _a_range(args) -> range:
    if args.a is not None:
        return range(args.a, args.a + 1)
    return range(getattr(args, "from"), args.to + 1)


def _add_a_or_range(sub, what="a"):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{what}", type=_int_arg, dest="a", metavar=what.upper())   # args.a, whatever its flag
    group.add_argument("--from", type=_int_arg, dest="from")
    sub.add_argument("--to", type=_int_arg)


def _add_algebra_cap(sub) -> None:
    sub.add_argument("--algebra-cap", type=_int_arg, default=DEFAULT_ALGEBRA_CAP)


def build_parser() -> argparse.ArgumentParser:
    defaults = AuditConfig()
    parser = argparse.ArgumentParser(
        prog="primeaudit",
        description="Exact-arithmetic partition searches, product-polynomial identities, "
                    "and range audits over even numbers 2a.")
    parser.add_argument("--version", action="version", version=f"primeaudit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sieve", help="build a sieve and report its prime count")
    p.add_argument("--limit", type=_int_arg, default=DEFAULT_SIEVE_LIMIT)

    p = subs.add_parser("goldbach", help="prime pairs p + q = 2a")
    _add_a_or_range(p)
    p.add_argument("--count-only", action="store_true")

    p = subs.add_parser("diff", help="prime pairs q - p = 2a with p <= a")
    _add_a_or_range(p)

    p = subs.add_parser("prp", help="reflective points b with a - b and a + b prime")
    _add_a_or_range(p)

    p = subs.add_parser("ternary", help="three-odd-prime decomposition 3 + p + q of odd n")
    _add_a_or_range(p, what="n")

    p = subs.add_parser("polignac", help="census of prime pairs with a fixed even gap")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gap", type=_int_arg)
    group.add_argument("--max-gap", type=_int_arg)
    p.add_argument("--limit", type=_int_arg, default=10**6)

    p = subs.add_parser("vieta", help="coefficients of prod (x -+ p) over primes p <= a")
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--variant", type=_variant_arg, required=True)
    _add_algebra_cap(p)

    p = subs.add_parser("product", help="exact complement product prod (2a -+ p)")
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--variant", type=_variant_arg, required=True)
    p.add_argument("--factor", action="store_true",
                   help="also trial-divide by primes <= a and by a+1 when prime")
    _add_algebra_cap(p)

    p = subs.add_parser("bezout", help="Bezout witnesses on the realized polynomial values")
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--variant", type=_variant_arg, required=True)
    p.add_argument("--kind", choices=("quadratic", "unit"), required=True)
    _add_algebra_cap(p)

    p = subs.add_parser("audit", help="run registered claims over a range of a")
    p.add_argument("--claims", required=True,
                   help="comma-separated claim codes, or 'all'")
    p.add_argument("--from", type=_int_arg, dest="from", required=True)
    p.add_argument("--to", type=_int_arg, required=True)
    p.add_argument("--jobs", type=_int_arg, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="also write the identical bytes to this file")
    p.add_argument("--census-limit", type=_int_arg, default=defaults.census_limit)
    p.add_argument("--max-gap", type=_int_arg, default=defaults.census_max_gap,
                   help="largest even gap P-CENSUS checks")
    p.add_argument("--witness-limit", type=_int_arg, default=defaults.witness_limit)
    _add_algebra_cap(p)

    return parser


# A query handler checks its arguments before it builds its sieve, then
# yields one (record, found) pair per answer. found is False for a
# counterexample or a failed identity; main prints the records and turns
# any such answer into exit code 1.


def _cmd_sieve(args):
    ps = build_sieve(args.limit)
    count = prime_pi(args.limit, ps)
    largest = int(ps.primes[-1]) if count else None
    yield {"limit": args.limit, "count": count, "largest": largest}, True


def _cmd_goldbach(args):
    rng = _a_range(args)
    _check_least(rng[0], 2)             # goldbach_partitions' bound, before the sieve for the top
    ps = build_sieve(max(2 * rng[-1], 16))
    for a in rng:
        pairs = goldbach_partitions(a, ps).pairs
        answer = {"count": len(pairs)} if args.count_only else {"pairs": [list(t) for t in pairs]}
        yield {"a": a, "n": 2 * a, **answer}, bool(pairs)


def _cmd_diff(args):
    rng = _a_range(args)
    _check_least(rng[0], 2)             # diff_representations' bound
    ps = build_sieve(max(3 * rng[-1], 16))
    for a in rng:
        pairs = diff_representations(a, ps).pairs
        yield {"a": a, "n": 2 * a, "pairs": [list(t) for t in pairs]}, bool(pairs) or a <= 3


def _cmd_prp(args):
    rng = _a_range(args)
    _check_least(rng[0], 4)             # the bound of both reflective-point queries
    ps = build_sieve(max(2 * rng[-1], 16))
    for a in rng:
        if args.a is not None:
            res = prime_reflective_points(a, ps)
            rec = {"a": a, "min_point": res.min_point, "points": res.points}
        else:
            rec = {"a": a, "min_point": min_prime_reflective_point(a, ps)}
        yield rec, rec["min_point"] is not None


def _cmd_ternary(args):
    rng = _a_range(args)
    if args.a is not None:
        _check_ternary(args.a)
    ps = build_sieve(max(rng[-1], 16))
    for n in range(max(rng.start, 9) | 1, rng.stop, 2):     # the odd n >= 9
        try:
            triple = list(ternary_decomposition(n, ps))
        except NoDecompositionError:
            triple = None
        yield {"n": n, "triple": triple}, triple is not None


def _cmd_polignac(args):
    if args.gap is None and args.max_gap < 2:
        raise ValueError(f"max-gap must be >= 2, got {args.max_gap}")
    gaps = [args.gap] if args.gap is not None else list(range(2, args.max_gap + 1, 2))
    _check_census(gaps[-1], args.limit)
    ps = build_sieve(args.limit + gaps[-1])
    for gap in gaps:
        res = polignac_census(gap, args.limit, ps)
        yield {"gap": gap, "limit": args.limit, "count": res.count}, True


def _algebra_sieve(args):
    _check_a(args.a, args.algebra_cap)      # the library's bounds, before the sieve to a + 1
    return build_sieve(max(args.a + 1, 16))


def _cmd_vieta(args):
    ps = _algebra_sieve(args)
    vc = vieta_coefficients(args.a, args.variant, ps, cap=args.algebra_cap)
    yield {"a": args.a, "variant": args.variant.value, "coeffs": vc.coeffs}, True


def _cmd_product(args):
    ps = _algebra_sieve(args)
    prod = complement_product(args.a, args.variant, ps, cap=args.algebra_cap)
    rec = {"a": args.a, "variant": args.variant.value, "product": prod}
    if args.factor:
        rep = smoothness_factorization(prod, args.a, ps)
        rec["exponents"] = {str(p): e for p, e in sorted(rep.exponents.items())}
        rec["a_plus_1_exponent"] = rep.a_plus_1_exponent
        rec["leftover"] = rep.leftover
    yield rec, True


def _cmd_bezout(args):
    ps = _algebra_sieve(args)
    solve = bezout_quadratic if args.kind == "quadratic" else bezout_unit
    w = solve(args.a, args.variant, ps, cap=args.algebra_cap)
    yield {"a": args.a, "variant": args.variant.value, "kind": w.kind, "u": w.u, "v": w.v,
           "c0" if w.kind == "quadratic" else "q_plus_c1": w.coefficient, "verified": w.verified}, w.verified


def _cmd_audit(args) -> int:
    claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    if not claims:
        raise ValueError("--claims names no claim; give claim codes or 'all'")
    config = AuditConfig(algebra_cap=args.algebra_cap, census_limit=args.census_limit,
                         census_max_gap=args.max_gap, witness_limit=args.witness_limit)
    if args.out:
        try:                            # before the run; append mode leaves a refused run's file as it was
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    report = run_suite(claims, getattr(args, "from"), args.to, jobs=args.jobs, config=config)
    text = emit_report(report, args.format)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return report.exit_code


_QUERIES = {
    "sieve": _cmd_sieve,
    "goldbach": _cmd_goldbach,
    "diff": _cmd_diff,
    "prp": _cmd_prp,
    "ternary": _cmd_ternary,
    "polignac": _cmd_polignac,
    "vieta": _cmd_vieta,
    "product": _cmd_product,
    "bezout": _cmd_bezout,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rng_from, rng_to = getattr(args, "from", None), getattr(args, "to", None)
    if rng_from is not None and rng_to is None:
        parser.error(f"{args.command}: --from requires --to")
    if rng_from is None and rng_to is not None:
        parser.error(f"{args.command}: --to goes with --from")
    if rng_from is not None and rng_to < rng_from:
        parser.error(f"{args.command}: --to must be >= --from")
    try:
        if args.command == "audit":
            return _cmd_audit(args)
        exit_code = 0
        for record, found in _QUERIES[args.command](args):
            _emit(record)
            exit_code = exit_code if found else 1
        return exit_code
    except (CapacityError, SieveRangeError, ValueError) as exc:
        print(f"primeaudit {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
