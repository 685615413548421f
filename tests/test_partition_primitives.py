"""The partition queries and G-/D-EQUIV's pair list, each a view over
partitions._partners (all pairs, one gather) or partitions._first_partner
(an early-exit walk), against the scalar table scans they replaced.

The old_* functions below are those scans, kept verbatim as the oracle.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from primeaudit import partitions
from primeaudit.algebra import Variant
from primeaudit.audit import AuditConfig, _AuditContext, _equiv
from primeaudit.errors import NoDecompositionError
from primeaudit.partitions import DiffRepresentation, GoldbachPartition, PrpResult, _require_range
from primeaudit.primes import prime_pi

from conftest import OracleState, marked_set


# --- the scalar oracle -------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def old_goldbach_partitions(a, ps):
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 2 * a, "goldbach_partitions")
    tbl = ps.table
    two_a = 2 * a
    pairs = []
    for p in ps.prime_list[: prime_pi(a, ps)]:
        q = two_a - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            pairs.append((p, q))
    return GoldbachPartition(a=a, pairs=pairs)


def old_has_goldbach(a, ps):
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 2 * a, "has_goldbach")
    tbl = ps.table
    two_a = 2 * a
    for p in ps.prime_list:
        if p > a:
            return False
        q = two_a - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return True
    return False


def old_diff_representations(a, ps):
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 3 * a, "diff_representations")
    tbl = ps.table
    two_a = 2 * a
    pairs = []
    for p in ps.prime_list[: prime_pi(a, ps)]:
        q = two_a + p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            pairs.append((p, q))
    return DiffRepresentation(a=a, pairs=pairs)


def old_has_diff_representation(a, ps):
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require_range(ps, 3 * a, "has_diff_representation")
    tbl = ps.table
    two_a = 2 * a
    for p in ps.prime_list:
        if p > a:
            return False
        q = two_a + p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return True
    return False


def _old_reflective_points(a, ps):
    tbl = ps.table
    plist = ps.prime_list
    two_a = 2 * a
    for i in range(prime_pi(a - 1, ps) - 1, -1, -1):
        p = plist[i]
        q = two_a - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            yield a - p


def old_prime_reflective_points(a, ps):
    _require(a >= 4, f"a must be >= 4, got {a}")
    _require_range(ps, 2 * a, "prime_reflective_points")
    points = list(_old_reflective_points(a, ps))
    return PrpResult(a=a, points=points, min_point=points[0] if points else None)


def old_min_prime_reflective_point(a, ps):
    _require(a >= 4, f"a must be >= 4, got {a}")
    _require_range(ps, 2 * a, "min_prime_reflective_point")
    return next(_old_reflective_points(a, ps), None)


def old_ternary_decomposition(n, ps):
    _require(n >= 9 and n % 2 == 1, f"n must be odd and >= 9, got {n}")
    _require_range(ps, n, "ternary_decomposition")
    tbl = ps.table
    m = n - 3
    for p in ps.prime_list:
        if p == 2:
            continue
        if 2 * p > m:
            break
        q = m - p
        if (tbl[q >> 3] >> (q & 7)) & 1:
            return (3, p, q)
    raise NoDecompositionError(f"{n} has no decomposition 3 + p + q with odd primes p, q", n)


def old_equiv_pairs(st, ps):
    tbl = ps.table
    return [[p, q] for p, q in zip(st.primes, st.complements) if (tbl[q >> 3] >> (q & 7)) & 1]


def equiv_pairs(variant):
    """_equiv's partitions (sum) or pairs (diff) detail, or None where it skips.
    A detail _equiv hands back unbuilt is built here, as the tally builds a
    kept one."""
    def query(a, ps):
        kind, detail = _equiv(_AuditContext(ps=ps, config=AuditConfig()), a, variant)
        if callable(detail):
            detail = detail()
        return None if kind == "skip" else detail["partitions" if variant is Variant.SUM else "pairs"]
    return query


def old_equiv(variant):
    def query(a, ps):
        if variant is Variant.SUM and ps.is_prime(a):
            return None
        st = OracleState(variant, ps, a)
        return old_equiv_pairs(st, ps)
    return query


# name -> (new, old, the largest a that a sieve to `limit` serves); ternary_decomposition takes n = 2a + 1
QUERIES = {
    "goldbach_partitions": (partitions.goldbach_partitions, old_goldbach_partitions, lambda lim: lim // 2),
    "has_goldbach": (partitions.has_goldbach, old_has_goldbach, lambda lim: lim // 2),
    "diff_representations": (partitions.diff_representations, old_diff_representations, lambda lim: lim // 3),
    "has_diff_representation": (partitions.has_diff_representation, old_has_diff_representation,
                                lambda lim: lim // 3),
    "prime_reflective_points": (partitions.prime_reflective_points, old_prime_reflective_points,
                                lambda lim: lim // 2),
    "min_prime_reflective_point": (partitions.min_prime_reflective_point, old_min_prime_reflective_point,
                                   lambda lim: lim // 2),
    "ternary_decomposition": (lambda a, ps: partitions.ternary_decomposition(2 * a + 1, ps),
                              lambda a, ps: old_ternary_decomposition(2 * a + 1, ps), lambda lim: (lim - 1) // 2),
    "G-EQUIV": (equiv_pairs(Variant.SUM), old_equiv(Variant.SUM), lambda lim: lim // 2),
    "D-EQUIV": (equiv_pairs(Variant.DIFF), old_equiv(Variant.DIFF), lambda lim: lim // 3),
}


def outcome(query, a, ps):
    try:
        return query(a, ps)
    except (ValueError, NoDecompositionError) as exc:      # SieveRangeError is a ValueError
        return {"raised": type(exc), "message": str(exc)}


def numbers(value):
    """Every number a query result holds."""
    if isinstance(value, (GoldbachPartition, DiffRepresentation)):
        return [x for pair in value.pairs for x in pair]
    if isinstance(value, PrpResult):
        return value.points + [value.min_point]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in numbers(item)]
    return [value]


def agree(name, a, ps):
    new, old, _ = QUERIES[name]
    got, want = outcome(new, a, ps), outcome(old, a, ps)
    assert got == want, (name, a)
    if not isinstance(got, dict):
        # a numpy integer would break json.dumps in the CLI
        assert all(type(x) in (int, bool, type(None)) for x in numbers(got)), (name, a, got)


# --- differential tests ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(QUERIES))
@given(a=st.integers(2, 60_000))
@example(a=2)
@example(a=3)
@example(a=4)
@example(a=59_999)          # prime
@example(a=59_998)          # a + 1 prime
@example(a=None)            # the largest a the sieve serves, and one past it
def test_queries_match_the_scalar_scans(ps_mid, name, a):
    if a is None:
        a = QUERIES[name][2](ps_mid.limit)
        agree(name, a + 1, ps_mid)
    agree(name, a, ps_mid)


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(QUERIES)), marked=st.sets(st.integers(2, 600), max_size=60),
       a=st.integers(2, 300))
@example(name="has_diff_representation", marked={5, 15}, a=5)    # the only partner is p = a
@example(name="has_goldbach", marked={5}, a=5)
@example(name="ternary_decomposition", marked={3, 8}, a=6)      # 13 - 3 = 2 + 8, but 2 is no odd prime
def test_queries_match_the_scalar_scans_on_any_table(name, marked, a):
    # a sparse set of arbitrary "primes" whose table agrees with the array,
    # as in test_search_kernel; few partners, so the bounds decide answers.
    # ternary_decomposition starts from the second prime, as G-TERN does,
    # and the scan skipped the value 2: the same when 2 is in the set
    if name == "ternary_decomposition":
        marked = marked | {2}
    ps = marked_set(marked, 600)
    agree(name, min(a, QUERIES[name][2](ps.limit)), ps)
