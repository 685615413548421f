"""G-EQUIV and D-EQUIV read the residue off the complements the table
marks prime, instead of trial-dividing the product, wherever the table
agrees with a plain sieve up to the largest complement
(audit._AuditContext.agreement). Every complement is at most 3a, so its
only possible prime factor above a is itself, or a+1 in the diff variant:
the residue is then the product of the prime complements.

_trial_equiv is the predicate the audit ran before any certificate, kept
verbatim as the oracle: it trial-divides the whole product by every prime
<= a. The differential tests run both through the same harness and compare
every record, leftover included, on true sieves and on tables that drop
primes or mark composites.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from primeaudit import algebra, audit, build_sieve
from primeaudit.algebra import Variant, smoothness_factorization
from primeaudit.audit import (
    CLAIMS,
    AuditConfig,
    _AuditContext,
    deterministic_body,
    emit_report,
    run_claim,
    run_suite,
)
from primeaudit.primes import PrimeSet

from conftest import OracleState, is_rough_part, marked_set, over_states, per_a, td_is_prime, td_primes_upto

EVERY_RECORD = AuditConfig(witness_limit=10**6)
VARIANTS = {"G-EQUIV": Variant.SUM, "D-EQUIV": Variant.DIFF}


# --- the trial-division oracle -----------------------------------------------

def _trial_equiv(st: OracleState, ctx: _AuditContext):
    ps = ctx.ps
    if st.variant is Variant.SUM and ps.is_prime(st.a):
        return ("skip", None)
    rep = smoothness_factorization(st.product, st.a, ps)
    tbl = ps.table
    pairs = [[p, q] for p, q in zip(st.primes, st.complements) if (tbl[q >> 3] >> (q & 7)) & 1]
    if st.variant is Variant.SUM:
        residue = rep.above_bound_part
        detail = {"leftover": residue, "partitions": pairs}
    else:
        residue = rep.leftover
        detail = {"leftover": residue, "pairs": pairs}
    if (residue == 1) == (not pairs):
        return ("ok", detail)
    detail["product"] = st.product
    return ("fail", detail)


def against_oracle(code: str, lo: int, hi: int, ps: PrimeSet, chunk: int | None = None,
                   config: AuditConfig = EVERY_RECORD):
    """Runs the claim and its trial-division oracle; both results must agree
    in status, counts and every record."""
    spec = CLAIMS[code] if chunk is None else dataclasses.replace(CLAIMS[code], chunk=chunk)
    oracle = dataclasses.replace(spec, code="T-ORACLE",
                                 check_chunk=per_a("T-ORACLE", over_states(VARIANTS[code], _trial_equiv)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(CLAIMS, code, spec)
        mp.setitem(CLAIMS, "T-ORACLE", oracle)
        got = run_claim(code, lo, hi, ps=ps, config=config)
        want = run_claim("T-ORACLE", lo, hi, ps=ps, config=config)
    assert (got.status, got.checked, got.skipped) == (want.status, want.checked, want.skipped)
    assert got.witnesses == want.witnesses
    return got


@pytest.fixture(scope="module")
def ps_cap():
    """Reaches 3a at the default algebra cap a = 10^4."""
    return build_sieve(30_000)


# --- the blocked smoothness certificate, now an oracle (conftest) ------------

_SMALL = td_primes_upto(120)


@given(exponents=st.lists(st.integers(0, 70), min_size=len(_SMALL), max_size=len(_SMALL)),
       smooth=st.integers(0, len(_SMALL)))
def test_certificate_accepts_exactly_the_rough_part(exponents, smooth):
    # base is the product of the first `smooth` primes; the rough part of
    # value is made of the others, multiplicities up to 70 test the 2^e bound
    base = math.prod(_SMALL[:smooth])
    value = math.prod(p**e for p, e in zip(_SMALL, exponents))
    rough = math.prod(p**e for p, e in zip(_SMALL[smooth:], exponents[smooth:]))
    assert is_rough_part(value, rough, base)
    for i, (p, e) in enumerate(zip(_SMALL, exponents)):
        if e:
            # one prime too many or one too few in the claimed rough part
            wrong = rough * p if i < smooth else rough // p
            assert not is_rough_part(value, wrong, base), p
    assert not is_rough_part(value, rough * 127, base)


def _rough_truth(st_: OracleState, ps: PrimeSet) -> tuple[int, int]:
    """(base, the part of the product prime to base) as G-/D-EQUIV state
    them, by trial division."""
    base = abs(st_.c0)
    rep = smoothness_factorization(st_.product, st_.a, ps)
    if st_.variant is Variant.SUM:
        return base, rep.above_bound_part
    if ps.is_prime(st_.a + 1):
        base *= st_.a + 1
    return base, rep.leftover


@settings(max_examples=60)
@given(a=st.integers(4, 3000), variant=st.sampled_from(list(Variant)),
       mode=st.sampled_from(["truth", "one off", "any"]), data=st.data())
@example(a=30, variant=Variant.SUM, mode="truth", data=None)
@example(a=9972, variant=Variant.DIFF, mode="one off", data=None)
def test_blocks_decide_as_the_whole_cofactor_and_trial_division(ps_cap, a, variant, mode, data):
    # the complements of a, some of them claimed as the rough part: the
    # prime ones, the prime ones with one complement added or dropped, or
    # any subset; the others are certified in blocks of 1..all of them
    st_ = OracleState(variant, ps_cap, a)
    qs = st_.complements
    base, truth = _rough_truth(st_, ps_cap)
    claimed = {i for i, q in enumerate(qs) if td_is_prime(q) and q > a}
    if mode == "one off":
        claimed ^= {data.draw(st.integers(0, len(qs) - 1)) if data else 0}
    elif mode == "any":
        claimed = data.draw(st.sets(st.integers(0, len(qs) - 1)))
    rough = math.prod(qs[i] for i in claimed)
    rest = [q for i, q in enumerate(qs) if i not in claimed]
    whole = is_rough_part(st_.product, rough, base)
    assert whole == (rough == truth)
    drawn = data.draw(st.integers(1, max(len(rest), 1))) if data else 7
    for size in sorted({1, 2, drawn, max(len(rest), 1)}):
        blocks = [math.prod(rest[i:i + size]) for i in range(0, len(rest), size)]
        assert is_rough_part(st_.product, rough, base, blocks) == whole, size
    # blocks that do not multiply out to the cofactor are refused
    if rest:
        assert not is_rough_part(st_.product, rough, base, [rest[0] * 2] + rest[1:])


# --- differential tests against the oracle -----------------------------------

@settings(max_examples=80)
@given(code=st.sampled_from(sorted(VARIANTS)), lo=st.integers(4, 3000), width=st.integers(0, 6),
       chunk=st.integers(1, 4))
@example(code="G-EQUIV", lo=9930, width=0, chunk=1)       # a - 1 and a + 1 are twin primes
@example(code="D-EQUIV", lo=9972, width=0, chunk=1)       # a + 1 is prime
@example(code="G-EQUIV", lo=9994, width=6, chunk=3)
@example(code="D-EQUIV", lo=9994, width=6, chunk=3)
@example(code="G-EQUIV", lo=4, width=30, chunk=4)
@example(code="D-EQUIV", lo=4, width=30, chunk=4)
def test_certificate_matches_trial_division(ps_cap, code, lo, width, chunk):
    against_oracle(code, lo, min(lo + width, 10**4), ps_cap, chunk)


@pytest.mark.parametrize("code, a", [("G-EQUIV", 9930), ("G-EQUIV", 12), ("D-EQUIV", 9972), ("D-EQUIV", 10)])
def test_a_plus_1_prime_is_counted_on_the_right_side(ps_cap, code, a):
    # sum: q = a + 1 is a complement and part of the residue; diff: a + 1
    # divides 2a + 2 and belongs to the smooth side
    assert td_is_prime(a + 1) and (code == "D-EQUIV" or td_is_prime(a - 1))
    rec = against_oracle(code, a, a, ps_cap).witnesses[0]["detail"]
    if code == "G-EQUIV":
        assert [a - 1, a + 1] in rec["partitions"]
        assert rec["leftover"] % (a + 1) == 0
    else:
        assert rec["leftover"] % (a + 1) != 0
    key = "partitions" if code == "G-EQUIV" else "pairs"
    assert rec["leftover"] == math.prod(q for _, q in rec[key])


# --- independence from the table ---------------------------------------------

@pytest.mark.parametrize("code, fake", [("G-EQUIV", 49), ("D-EQUIV", 77)])
def test_composite_marked_prime_is_caught_by_the_agreement_check(code, fake):
    # at a = 30 the table marks one composite complement (60 - 11 = 49,
    # 60 + 17 = 77) prime: it becomes a pair, but the leftover stays the
    # trial-division residue, not the product of the pair complements
    real = build_sieve(200)
    ps = marked_set(set(real.prime_list) | {fake}, 200)
    rec = against_oracle(code, 30, 30, ps).witnesses[0]["detail"]
    key = "partitions" if code == "G-EQUIV" else "pairs"
    assert fake in [q for _, q in rec[key]]
    product = math.prod(2 * 30 + (p if code == "D-EQUIV" else -p) for p in real.prime_list if p <= 30)
    rep = smoothness_factorization(product, 30, real)
    assert rec["leftover"] == (rep.above_bound_part if code == "G-EQUIV" else rep.leftover)
    assert rec["leftover"] * fake == math.prod(q for _, q in rec[key])


@pytest.mark.parametrize("code, fake, missing", [("G-EQUIV", 49, None), ("D-EQUIV", 77, None),
                                                 ("G-EQUIV", None, 31), ("D-EQUIV", None, 67)])
def test_a_wrong_table_falls_back_to_trial_division(monkeypatch, code, fake, missing):
    # at a = 30 the table marks a composite complement prime (60 - 11 = 49,
    # 60 + 17 = 77) or misses a prime one (60 - 29 = 31, 60 + 7 = 67): the
    # agreement check fails, and the leftover is trial division's
    real = build_sieve(200)
    ps = marked_set((set(real.prime_list) | {fake}) - {missing, None}, 200)
    calls = []

    def counted(value, bound, ps):
        calls.append(bound)
        return smoothness_factorization(value, bound, ps)

    monkeypatch.setattr(audit, "smoothness_factorization", counted)
    rec = against_oracle(code, 30, 30, ps).witnesses[0]["detail"]
    assert calls == [30]
    product = math.prod(2 * 30 + (p if code == "D-EQUIV" else -p) for p in real.prime_list if p <= 30)
    rep = smoothness_factorization(product, 30, real)
    assert rec["leftover"] == (rep.above_bound_part if code == "G-EQUIV" else rep.leftover)
    key = "partitions" if code == "G-EQUIV" else "pairs"
    assert (fake in [q for _, q in rec[key]]) == (fake is not None)
    assert missing not in [q for _, q in rec[key]]


@pytest.mark.parametrize("code, a, marked", [("G-EQUIV", 6, {3, 9}), ("D-EQUIV", 12, {3, 27})])
def test_composite_marked_prime_drives_fail(code, a, marked):
    # over the true primes no table error can flip these claims (every
    # composite a has a partition), so the set is thinned to {3}: the product
    # 9 = 2*6 - 3 (or 27 = 2*12 + 3) is then 3-smooth, and only the table's
    # false pair speaks for a partition
    ps = marked_set(marked, 64)
    r = against_oracle(code, a, a, ps)
    assert r.status == "FAIL"
    detail = r.witnesses[0]["detail"]
    product = max(marked)
    rep = smoothness_factorization(product, a, ps)
    assert detail["leftover"] == (rep.above_bound_part if code == "G-EQUIV" else rep.leftover) == 1
    assert detail["product"] == product


_PRIMES_300 = td_primes_upto(300)
_PRIMES_900 = td_primes_upto(900)
_COMPOSITES_450 = [n for n in range(4, 451) if not td_is_prime(n)]


@settings(max_examples=150)
@given(a=st.integers(4, 300), dropped=st.sets(st.sampled_from(_PRIMES_300), max_size=3),
       marked=st.sets(st.sampled_from(_COMPOSITES_450), max_size=3))
@example(a=90, dropped={3}, marked={54, 104, 154})
def test_any_wrong_table_gives_the_trial_division_records(a, dropped, marked):
    # at a = 90 with 3 dropped and 54 marked, the complement 180 - 54 =
    # 126 = 2 * 3^2 * 7 is smooth over a base that 54 divides, but trial
    # division has no 3 and keeps the 9: the agreement check must notice
    # that the table disagrees with a sieve below a+1
    ps = marked_set((set(_PRIMES_900) - dropped) | marked, 900)
    for code in VARIANTS:
        against_oracle(code, a, a, ps)


@pytest.mark.parametrize("code", sorted(VARIANTS))
@pytest.mark.parametrize("past, factored", [(1, []), (0, [30])])
def test_the_agreement_window_ends_at_the_largest_complement(monkeypatch, code, past, factored):
    # at a = 30 the largest complement is 60 - 2 = 58 (60 + 29 = 89 in the
    # diff variant): a table wrong only at the number just past it
    # keep the product of the marked complements, one wrong at it falls back
    real = build_sieve(200)
    top = 58 if code == "G-EQUIV" else 89
    ps = marked_set(set(real.prime_list) ^ {top + past}, 200)
    assert _AuditContext(ps, EVERY_RECORD).agreement(30) == top + past - 1
    calls = []

    def counted(value, bound, ps):
        calls.append(bound)
        return smoothness_factorization(value, bound, ps)

    monkeypatch.setattr(audit, "smoothness_factorization", counted)
    against_oracle(code, 30, 30, ps)
    assert calls == factored


def test_a_true_sieve_is_certified_without_factoring_or_the_product(monkeypatch, ps_cap):
    # the equiv-band window: no trial division, and the product of the
    # complements is never multiplied out
    calls, products = [], []
    int64_product = audit._int64_product

    def product(values):
        products.append(values.size)
        return int64_product(values)

    def counted(value, bound, ps):
        calls.append(bound)
        return smoothness_factorization(value, bound, ps)

    for owner in (algebra, audit):
        monkeypatch.setattr(owner, "_int64_product", product)
    monkeypatch.setattr(audit, "smoothness_factorization", counted)
    report = run_suite(["G-EQUIV", "D-EQUIV"], 9850, 9897, ps=ps_cap, config=EVERY_RECORD)
    assert [(r.status, r.checked + r.skipped) for r in report.results] == [("PASS", 48)] * 2
    assert calls == [] and products == []
    assert audit._int64_product(20 - ps_cap.primes[:4]) == 18 * 17 * 15 * 13 and products == [4]    # the hook counts


@pytest.fixture(scope="module")
def ps_1e5():
    """Reaches 3a at a = 10^5."""
    return build_sieve(300_003)


@pytest.mark.parametrize("code, a", [("G-EQUIV", 20_001), ("D-EQUIV", 47_058), ("D-EQUIV", 99_990)])
def test_certificate_matches_trial_division_past_the_expansion_cap(ps_1e5, code, a):
    # 47058 + 1 and 99990 + 1 are prime; trial division at 99990 alone takes
    # about a second, so the points are few
    assert td_is_prime(a + 1) == (code == "D-EQUIV")
    against_oracle(code, a, a, ps_1e5)


def test_no_trial_division_unless_the_certificate_fails(monkeypatch):
    calls = []

    def counted(value, bound, ps):
        calls.append(bound)
        return smoothness_factorization(value, bound, ps)

    monkeypatch.setattr(audit, "smoothness_factorization", counted)
    normal = run_suite(["G-EQUIV", "D-EQUIV"], 4, 2000, config=EVERY_RECORD)
    assert calls == []
    monkeypatch.setattr(_AuditContext, "agreement", lambda ctx, a: -1)
    forced = run_suite(["G-EQUIV", "D-EQUIV"], 4, 2000, config=EVERY_RECORD)
    assert len(calls) == sum(r.checked for r in forced.results)
    assert deterministic_body(emit_report(forced)) == deterministic_body(emit_report(normal))


def test_the_agreement_check_stays_small_on_a_large_sieve(monkeypatch):
    # the sieve --claims all builds for its search claims reaches 3 * 10^6;
    # the check covers 3a + 3 and at least doubles as a grows, so a run to
    # 2000 checks a window of a few times 3 * 2000 + 3 in all, never the sieve
    tops = []
    trusted = audit._trusted

    def recorded(ps, top):
        tops.append(top)
        return trusted(ps, top)

    monkeypatch.setattr(audit, "_trusted", recorded)
    report = run_suite(["G-EQUIV", "D-EQUIV"], 4, 2000, ps=build_sieve(3 * 10**6))
    assert report.overall_status == "PASS"
    assert tops and max(tops) <= 2 * (3 * 2000 + 3) and sum(tops) <= 4 * (3 * 2000 + 3)


@pytest.mark.parametrize("top", [2, 7, 8, 58, 89, 199, 200])
def test_the_agreement_check_reads_its_window_to_the_last_number(top):
    # a table wrong only at the window's last number agrees up to the one
    # before it, and a window that ends before the wrong number agrees in full
    ps = marked_set(set(build_sieve(200).prime_list) ^ {top}, 200)
    assert audit._trusted(ps, top) == top - 1
    assert audit._trusted(ps, top - 1) == top - 1
