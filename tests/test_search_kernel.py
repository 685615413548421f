"""The search claims' vectorized minimal-p kernel against the scalar loops
it replaced.

_mk_emp, _mk_demp, _mk_prp and _mk_tern are the per-a checks the audit ran
before the kernel, kept verbatim as the oracle; the differential tests run
both through the same harness and compare every record.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primeaudit import build_sieve, partitions
from primeaudit.audit import CLAIMS, AuditConfig, ClaimSpec, _AuditContext, deterministic_body, run_claim
from primeaudit.cli import main
from primeaudit.primes import PrimeSet

from conftest import marked_set, per_a


# --- the scalar oracle -------------------------------------------------------

def _mk_emp(ctx: _AuditContext, lo: int, hi: int):
    tbl = ctx.ps.table
    plist = ctx.ps.prime_list

    def check(a: int):
        two_a = 2 * a
        for p in plist:
            if p > a:
                break
            q = two_a - p
            if (tbl[q >> 3] >> (q & 7)) & 1:
                return ("ok", None)
        return ("fail", {"partitions": []})

    return check


def _mk_demp(ctx: _AuditContext, lo: int, hi: int):
    tbl = ctx.ps.table
    plist = ctx.ps.prime_list

    def check(a: int):
        two_a = 2 * a
        for p in plist:
            if p > a:
                break
            q = two_a + p
            if (tbl[q >> 3] >> (q & 7)) & 1:
                return ("ok", None)
        return ("fail", {"pairs": []})

    return check


def _mk_prp(ctx: _AuditContext, lo: int, hi: int):
    tbl = ctx.ps.table

    def check(a: int):
        for b in range(1, a - 1):
            pl = a - b
            ph = a + b
            if (tbl[pl >> 3] >> (pl & 7)) & 1 and (tbl[ph >> 3] >> (ph & 7)) & 1:
                return ("ok", None)
        return ("fail", {"points": []})

    return check


def _mk_tern(ctx: _AuditContext, lo: int, hi: int):
    tbl = ctx.ps.table
    plist = ctx.ps.prime_list

    def check(n: int):
        if n % 2 == 0 or n < 9:
            return ("skip", None)
        m = n - 3
        for i in range(1, len(plist)):
            p = plist[i]
            if 2 * p > m:
                break
            q = m - p
            if (tbl[q >> 3] >> (q & 7)) & 1:
                return ("ok", None)
        return ("fail", {"n": n})

    return check


ORACLES = {"G-EMP": _mk_emp, "G-PRP": _mk_prp, "D-EMP": _mk_demp, "G-TERN": _mk_tern}
EVERY_RECORD = AuditConfig(witness_limit=10**6)


def against_oracle(code: str, lo: int, hi: int, chunk: int, ps: PrimeSet):
    """Runs the claim and its oracle with the given chunk width; both results
    must agree in status, counts and every record."""
    spec = dataclasses.replace(CLAIMS[code], chunk=chunk)
    oracle = ClaimSpec(code="T-ORACLE", summary="scalar oracle",
                       check_chunk=per_a("T-ORACLE", ORACLES[code]), sieve_need=spec.sieve_need,
                       suite_cap=spec.suite_cap, chunk=chunk)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(CLAIMS, code, spec)
        mp.setitem(CLAIMS, "T-ORACLE", oracle)
        got = run_claim(code, lo, hi, ps=ps, config=EVERY_RECORD)
        want = run_claim("T-ORACLE", lo, hi, ps=ps, config=EVERY_RECORD)
    assert (got.status, got.checked, got.skipped) == (want.status, want.checked, want.skipped)
    assert got.witnesses == want.witnesses
    return got


# --- differential tests ------------------------------------------------------

@given(code=st.sampled_from(sorted(ORACLES)), lo=st.integers(4, 5000),
       width=st.integers(0, 1500), chunk=st.integers(1, 700))
@example(code="G-TERN", lo=4, width=6, chunk=3)       # even and odd n < 9, a = 4..10
@example(code="G-EMP", lo=4, width=6, chunk=2)
@example(code="G-PRP", lo=4, width=6, chunk=1)
@example(code="D-EMP", lo=4, width=6, chunk=5)
def test_kernel_matches_scalar_oracle(ps_small, code, lo, width, chunk):
    # ps_small reaches 20000, enough for D-EMP's 3a at a <= 6500
    against_oracle(code, lo, lo + width, chunk, ps_small)


@settings(max_examples=300)
@given(code=st.sampled_from(sorted(ORACLES)), marked=st.sets(st.integers(2, 600), max_size=60),
       lo=st.integers(4, 150), width=st.integers(0, 49), chunk=st.integers(1, 20))
def test_kernel_matches_scalar_oracle_on_any_table(code, marked, lo, width, chunk):
    # a sparse set of arbitrary "primes" leaves many a unresolved, so the
    # bound p <= pmax, the first prime and the skip rule all decide records;
    # like real primes they are >= 2, which G-PRP's b = a - p <= a - 2 needs
    ps = marked_set(marked, 600)
    against_oracle(code, lo, lo + width, chunk, ps)


@settings(max_examples=200)
@given(marked=st.sets(st.integers(2, 300), max_size=40), pmax0=st.integers(0, 240), size=st.integers(0, 60),
       sign=st.sampled_from((-1, 1)), offset=st.integers(0, 300), first=st.integers(0, 3), head=st.integers(0, 5),
       block=st.integers(1, 6), cells=st.integers(1, 40))
@example(marked={2, 3, 4, 8, 9, 16, 64}, pmax0=10, size=60, sign=-1, offset=7, first=0, head=4,    # even "primes"
         block=64, cells=1 << 13)
@example(marked={3, 5, 200, 299, 600}, pmax0=141, size=60, sign=1, offset=282, first=0, head=5,    # D-EMP, 3*hi == limit
         block=64, cells=1 << 13)
@example(marked={2, 3, 5, 7, 11, 13, 17, 19, 23}, pmax0=0, size=11, sign=-1, offset=0, first=1, head=8,  # head past pmax
         block=64, cells=1 << 13)
@example(marked={2, 3, 5, 7}, pmax0=5, size=1, sign=-1, offset=3, first=0, head=2,                  # one target
         block=64, cells=1 << 13)
@example(marked={2, 3, 5, 7}, pmax0=5, size=1, sign=-1, offset=7, first=0, head=0,   # settled by its bound, in the sweep
         block=64, cells=1 << 13)
@example(marked={2, 3, 5, 7, 11, 13, 198}, pmax0=3, size=6, sign=-1, offset=200, first=0, head=0,  # bounds 3..8 end
         block=4, cells=40)                            # inside the block 2, 3, 5, 7, whose 5 would settle i = 0
@example(marked={2, 3, 5, 7, 11, 13, 17, 19, 200}, pmax0=20, size=3, sign=-1, offset=199, first=0, head=0,  # only the
         block=3, cells=40)                                                       # third block's 19 settles i = 0
@example(marked={2, 3, 5, 7, 11}, pmax0=20, size=4, sign=1, offset=150, first=0, head=1,   # the primes run out in the
         block=3, cells=40)                                                       # middle of the second block
@example(marked={3, 5, 7, 200}, pmax0=100, size=6, sign=1, offset=220, first=0, head=0,   # 200 reads past the
         block=6, cells=40)                                                       # table's end, clipped (3*hi == limit)
@example(marked={2, 3, 5, 7, 11, 13, 17, 19}, pmax0=4, size=10, sign=-1, offset=0, first=0, head=0,  # reads below 0,
         block=5, cells=40)                                                       # clipped
@example(marked={2, 3, 5, 7, 11, 13, 17}, pmax0=2, size=12, sign=-1, offset=5, first=1, head=0,   # from the second prime
         block=2, cells=7)                                                        # on; slabs of 7 targets
def test_kernel_against_brute_force_across_head_blocks(marked, pmax0, size, sign, offset, first, head, block, cells):
    # targets n0 + 2i with bounds pmax0 + i; a short dense head, narrow
    # blocks and a small gather budget, so the dense head, the blocks and
    # the slabs of targets split the primes and the targets anywhere. The
    # table ends at the largest number a prime p <= pmax0 + i can reach, and
    # for sign -1 the smallest such reach is offset, so the reads may pass
    # either end of the table
    n0 = offset + (pmax0 if sign < 0 else 0)
    top = n0 + 2 * max(size - 1, 0) + (pmax0 + size - 1 if sign > 0 and size else 0)
    ps = marked_set(marked, max(300, top))
    primes = sorted(marked)[first:]
    want = [i for i in range(size)
            if not any(p <= pmax0 + i and ps.is_prime(n0 + 2 * i + sign * p) for p in primes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_DENSE_PRIMES", head)
        mp.setattr(partitions, "_BLOCK_PRIMES", block)
        mp.setattr(partitions, "_GATHER_CELLS", cells)
        got = partitions._unresolved(ps, n0, size, pmax0, sign, first)
    assert got.tolist() == want


@pytest.fixture
def bit_reads(monkeypatch):
    """The number of cells of every partitions._bits call, in call order."""
    reads = []
    bits = partitions._bits
    monkeypatch.setattr(partitions, "_bits", lambda view, q: reads.append(q.size) or bits(view, q))
    return reads


def test_no_gather_reads_more_than_its_budget(bit_reads):
    # a 65536-target chunk on a table whose 200 "primes" are the small odd
    # numbers, so no target ever resolves: the dense head leaves all 65536
    # to the sweep, which must still read at most _GATHER_CELLS cells per
    # gather, one prime per round for a slab of 8192 targets
    marked = set(range(3, 403, 2))
    n0, count, pmax0 = 200_000, 65536, 1000
    got = partitions._unresolved(marked_set(marked, n0 + 2 * count), n0, count, pmax0, -1)
    assert got.tolist() == list(range(count))
    assert max(bit_reads) <= partitions._GATHER_CELLS == 1 << 13
    assert sum(bit_reads) == count * (len(marked) - partitions._DENSE_PRIMES)


@pytest.mark.parametrize("size", [1, 5])
def test_the_sweep_stops_once_the_primes_pass_every_bound(monkeypatch, bit_reads, size):
    # 200 "primes" that settle nothing and bounds 10.. below the first
    # block's last prime: one gather, however many primes are left
    monkeypatch.setattr(partitions, "_DENSE_PRIMES", 0)
    got = partitions._unresolved(marked_set(set(range(3, 403, 2)), 2000), 1500, size, 10, -1)
    assert got.tolist() == list(range(size))
    assert bit_reads == [size * partitions._BLOCK_PRIMES]


@pytest.fixture(scope="module")
def ps_without_3_5():
    # a true sieve past 3 * 3065535 (D-EMP's need) with 3 and 5 cleared
    real = build_sieve(9_200_000)
    table = bytearray(real.table)
    table[0] &= ~(1 << 3 | 1 << 5)
    return PrimeSet(limit=real.limit, table=bytes(table))


@pytest.mark.parametrize("code", sorted(ORACLES))
def test_kernel_matches_scalar_oracle_over_one_full_chunk(ps_without_3_5, code):
    # one 65536-wide chunk near a = 3e6 on a table without 3 and 5, so the
    # dense head leaves dozens (G-TERN) to hundreds of targets to the sweep
    swept = []
    sweep = partitions._sweep

    def counted(view, pos, *args):
        swept.append(pos.size)
        return sweep(view, pos, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_sweep", counted)
        against_oracle(code, 3_000_000, 3_065_535, 65536, ps_without_3_5)
    assert len(swept) == 1 and swept[0] >= 16


@pytest.mark.parametrize("code", sorted(ORACLES))
def test_kernel_fails_every_a_on_a_sieve_without_primes(code):
    # a table that marks nothing prime leaves every a in the domain without
    # a partner prime, as in test_fail_witnesses_revalidate_standalone
    real = build_sieve(64)
    broken = PrimeSet(limit=64, table=bytes(len(real.table)))
    r = against_oracle(code, 4, 20, 5, broken)
    domain = [n for n in range(4, 21) if n % 2 and n >= 9] if code == "G-TERN" else list(range(4, 21))
    assert r.status == "FAIL"
    assert [w["a"] for w in r.witnesses] == domain
    assert r.checked == len(domain) and r.skipped == 17 - len(domain)


def test_search_claims_deterministic_across_jobs(capsys, eager_pool):
    # four 65536-wide chunks per claim, so the pool shares them out
    args = ["audit", "--claims", "G-EMP,G-PRP,D-EMP,G-TERN", "--from", "4", "--to", "200000",
            "--witness-limit", "3"]
    bodies = []
    for jobs in ("1", "2"):
        assert main(args + ["--jobs", jobs]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[-1])["trailer"]["pooled"] == (16 if jobs == "2" else 0)
        bodies.append(deterministic_body(out))
    assert eager_pool == [2] and bodies[0] == bodies[1]
    assert bodies[0].count('"status":"PASS"') == 4


def test_search_claims_never_build_the_prime_list():
    # the kernel walks ps.primes; the Python list would cost every forked
    # worker ~665k ints at a 1e7 sieve
    ps = build_sieve(30_000)
    for code in sorted(ORACLES):
        assert run_claim(code, 4, 10_000, ps=ps).status == "PASS"
    assert "prime_list" not in ps.__dict__
