"""P-CENSUS and B-PRIMO as chunk checks (audit._census, audit._bprimo)
against the per-a checks the audit ran before.

_mk_census and _mk_bprimo are those per-a factories, kept verbatim as the
oracle; conftest.per_a runs them as the audit's per-a walk did. The
differential tests run both through the same harness, on true sieves and
on tables that mark arbitrary numbers, and compare every record.
"""

import dataclasses
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from primeaudit import build_sieve
from primeaudit.audit import CLAIMS, AuditConfig, ClaimSpec, _AuditContext, _bprimo, run_claim
from primeaudit.partitions import polignac_census

from conftest import marked_set, per_a


# --- the per-a oracle --------------------------------------------------------

def _mk_census(ctx: _AuditContext, lo: int, hi: int):
    cfg = ctx.config
    checkpoints = sorted({cfg.census_limit // 100, cfg.census_limit // 10, cfg.census_limit})

    def check(gap: int):
        if gap % 2 or gap > cfg.census_max_gap:
            return ("skip", None)
        counts = [polignac_census(gap, cl, ctx.ps).count for cl in checkpoints]
        if all(counts[i] <= counts[i + 1] for i in range(len(counts) - 1)) and counts[-1] > 0:
            return ("ok", None)
        return ("fail", {"checkpoints": checkpoints, "counts": counts})

    return check


def _mk_bprimo(ctx: _AuditContext, lo: int, hi: int):
    plist = ctx.ps.prime_list
    k = 0
    primorial = 1        # exact until it passes 2*hi; past that only "> 2a" matters

    def check(a: int):
        nonlocal k, primorial
        while k < len(plist) and plist[k] <= a:
            if primorial <= 2 * hi:
                primorial *= plist[k]
            k += 1
        problems = {}
        nxt = plist[k] if k < len(plist) else None
        if nxt is None or nxt >= 2 * a:
            problems["prime_between_a_and_2a"] = nxt
        if a > 4 and primorial <= 2 * a:
            problems["primorial"] = primorial
        return ("fail", problems) if problems else ("ok", None)

    return check


ORACLES = {"P-CENSUS": _mk_census, "B-PRIMO": _mk_bprimo}


def against_oracle(code, lo, hi, chunk, ps, **config):
    """Runs the claim and its oracle with the given chunk width and every
    record kept; both results must agree in status, counts and every record."""
    cfg = AuditConfig(witness_limit=10**6, **config)
    spec = dataclasses.replace(CLAIMS[code], chunk=chunk)
    oracle = ClaimSpec(code="T-ORACLE", summary="per-a oracle", check_chunk=per_a("T-ORACLE", ORACLES[code]),
                       sieve_need=spec.sieve_need, suite_cap=spec.suite_cap, chunk=chunk)
    assert ps.limit >= spec.sieve_need(hi, cfg)          # the run must not build a sieve of its own
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(CLAIMS, code, spec)
        mp.setitem(CLAIMS, "T-ORACLE", oracle)
        got = run_claim(code, lo, hi, ps=ps, config=cfg)
        want = run_claim("T-ORACLE", lo, hi, ps=ps, config=cfg)
    assert dataclasses.replace(want, claim=code) == got
    for w in got.witnesses:                              # as the report's JSON writer needs them
        assert all(type(v) in (int, type(None), list) for v in w["detail"].values()), w
    return got


# --- P-CENSUS ----------------------------------------------------------------

@settings(max_examples=40)
@given(lo=st.integers(4, 250), width=st.integers(0, 300), chunk=st.integers(1, 64),
       census_limit=st.integers(1, 3000), max_gap=st.integers(2, 200))
@example(lo=4, width=40, chunk=3, census_limit=20_000 // 10, max_gap=10)
@example(lo=5, width=0, chunk=1, census_limit=6, max_gap=10)              # one odd gap
@example(lo=4, width=0, chunk=1, census_limit=6, max_gap=10)              # an over-small window fails
def test_census_matches_the_per_a_oracle(ps_small, lo, width, chunk, census_limit, max_gap):
    against_oracle("P-CENSUS", lo, lo + width, chunk, ps_small,
                   census_limit=census_limit, census_max_gap=max_gap)


@settings(max_examples=100)
@given(marked=st.sets(st.integers(2, 400), max_size=80), lo=st.integers(4, 120), width=st.integers(0, 60),
       chunk=st.integers(1, 20), census_limit=st.integers(1, 300), max_gap=st.integers(2, 100))
@example(marked=set(), lo=4, width=20, chunk=7, census_limit=300, max_gap=100)                   # no primes
@example(marked={3, 5, 7, 9, 11}, lo=4, width=10, chunk=2, census_limit=300, max_gap=100)       # counts stall
def test_census_matches_the_per_a_oracle_on_any_table(marked, lo, width, chunk, census_limit, max_gap):
    against_oracle("P-CENSUS", lo, lo + width, chunk, marked_set(marked, 400),
                   census_limit=census_limit, census_max_gap=max_gap)


# --- B-PRIMO -----------------------------------------------------------------

@settings(max_examples=40)
@given(lo=st.integers(4, 5000), width=st.integers(0, 1500), chunk=st.integers(1, 700))
@example(lo=4, width=40, chunk=1)
@example(lo=4, width=5000, chunk=65536)
def test_bprimo_matches_the_per_a_oracle(ps_small, lo, width, chunk):
    # ps_small reaches 20000, enough for 2a at a <= 6500
    assert against_oracle("B-PRIMO", lo, lo + width, chunk, ps_small).status == "PASS"


@settings(max_examples=200)
@given(marked=st.sets(st.integers(2, 600), max_size=60), lo=st.integers(4, 150), width=st.integers(0, 149),
       chunk=st.integers(1, 40))
@example(marked=set(), lo=4, width=30, chunk=7)                     # no primes at all: no next prime, primorial 1
@example(marked={2, 3}, lo=4, width=30, chunk=4)                    # too few primes for every a
@example(marked={2, 3, 5, 7, 11, 13}, lo=4, width=40, chunk=9)      # the primes run out inside the range
@example(marked={2, 300, 301, 599}, lo=4, width=149, chunk=40)      # a primorial past 2*hi, then a gap
def test_bprimo_matches_the_per_a_oracle_on_any_table(marked, lo, width, chunk):
    against_oracle("B-PRIMO", lo, lo + width, chunk, marked_set(marked, 600))


def test_bprimo_reads_the_prime_array_without_copying_it():
    # a chunk near 10^6 reads a few thousand primes of the ~149k in the array
    ps = build_sieve(2 * 10**6)
    ctx = _AuditContext(ps=ps, config=AuditConfig())
    records = []
    tracemalloc.start()
    try:
        assert _bprimo(ctx, 10**6 - 1023, 10**6, lambda *rec: records.append(rec)) == (1024, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records == []
    assert peak < ps.primes.nbytes // 8
