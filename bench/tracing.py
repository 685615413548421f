"""Spans around the calls into primeaudit's layers, and the per-layer
metrics computed from them.

A traced repetition replaces the module attributes listed in TARGETS with
wrappers that record one span per call and restores the originals
afterwards. Spans stay in memory until the repetition ends. Pool workers
are forked after the wrappers are installed, so they record their own
spans; each chunk's spans travel back to the parent with the chunk's
result (see _Shipped).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time

import manifest


def _chunk_note(args, result):
    code, lo, hi = args[0]
    return {"claim": code, "lo": lo, "hi": hi}


def _run_note(args, result):
    return {"claim": args[1], "lo": args[2], "hi": args[3]}


# (module, attribute, span name, note): the attributes through which the audit
# harness, the library's own helpers and the benchmark reach each layer. The
# same function appears once per module that calls it, because each module
# resolves it through its own globals.
TARGETS = [
    ("primeaudit.primes", "build_sieve", "primes.build_sieve", None),
    ("primeaudit.audit", "build_sieve", "primes.build_sieve", None),
    *[("primeaudit.partitions", fn, f"partitions.{fn}", None) for fn in manifest.PARTITION_QUERIES],
    ("primeaudit.audit", "polignac_census", "partitions.polignac_census", None),
    *[(mod, attr, f"algebra.{attr.lstrip('_')}", note)
      for mod in ("primeaudit.algebra", "primeaudit.audit")
      for attr, note in (("_mul_linear", None), ("_q_and_c1_from", None),
                         ("solve_quadratic_bezout", None), ("solve_unit_bezout", None),
                         ("smoothness_factorization",
                          lambda args, result: {"bits": args[0].bit_length()}))],
    *[("primeaudit.algebra", fn, f"algebra.{fn}", None) for fn in manifest.ALGEBRA_QUERIES + ["q_and_c1"]],
    ("primeaudit.audit", "_Runner.run", "audit.run", _run_note),
    ("primeaudit.audit", "_eval_chunk", "audit.eval_chunk", _chunk_note),
    ("primeaudit.audit", "emit_report", "audit.emit_report",
     lambda args, result: {"bytes": len(result.encode())}),
]

_ACTIVE: "Tracer | None" = None   # the tracer that receives spans shipped from pool workers


class _Shipped:
    """A worker's chunk result together with the spans recorded while
    computing it. Unpickling it in the parent hands the spans to the
    parent's tracer and yields the plain result."""

    def __init__(self, result, spans):
        self.result = result
        self.spans = spans

    def __reduce__(self):
        return (_receive, (self.result, self.spans))


def _receive(result, spans):
    _ACTIVE.spans.extend(spans)
    return result


class Tracer:
    """Span recorder. A span is (id, parent id, name, pid, start, end, note)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.stack_pid = self.pid
        self.count = 0
        self.originals: list[tuple] = []   # (owner, attribute, original) in install order

    def _enter(self) -> tuple[str, str | None]:
        pid = os.getpid()
        if pid != self.stack_pid:   # first call in a forked worker: the inherited stack is the parent's
            self.stack, self.stack_pid = [], pid
        parent = self.stack[-1] if self.stack else None
        self.count += 1
        sid = f"{pid}:{self.count}"
        self.stack.append(sid)
        return sid, parent

    def wrap(self, fn, name, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = len(tracer.spans)
            sid, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
            try:
                extra = note(args, result) if note else None
            except (TypeError, ValueError, IndexError, AttributeError):
                extra = None   # a later primeaudit changed the call's shape
            tracer.spans.append((sid, parent, name, os.getpid(), start, end, extra))
            if parent is None and os.getpid() != tracer.pid:
                shipped = tracer.spans[mark:]
                del tracer.spans[mark:]
                return _Shipped(result, shipped)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name, note=None):
        """A span the benchmark itself opens around a request or a setup step."""
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, os.getpid(), start, end, note))

    def install(self):
        global _ACTIVE
        for mod_name, attr, name, note in TARGETS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(leaf)
            if original is None:
                continue   # not defined by this version of primeaudit
            self.originals.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, note))
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for owner, leaf, original in reversed(self.originals):
            setattr(owner, leaf, original)
        self.originals = []
        _ACTIVE = None


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[tuple], wall_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; a layer the workload does
    not reach reads 0. The benchmark's own query spans are named bench.query,
    and p50_us counts only the calls a query makes directly."""
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    queries = {s[0] for s in by_name.get("bench.query", [])}
    out = {name: 0 for name, _, _ in manifest.PER_LAYER}

    def total(name):
        return sum(s[5] - s[4] for s in by_name.get(name, []))

    def p50_us(name):
        direct = [s[5] - s[4] for s in by_name.get(name, []) if s[1] in queries]
        return statistics.median(direct) * 1e6 if direct else 0

    out["primes.build_sieve.s"] = total("primes.build_sieve")
    out["primes.prime_list.s"] = total("primes.prime_list")
    for fn in manifest.PARTITION_QUERIES:
        out[f"partitions.{fn}.calls"] = len(by_name.get(f"partitions.{fn}", []))
        out[f"partitions.{fn}.p50_us"] = p50_us(f"partitions.{fn}")
    out["partitions.polignac_census.s"] = total("partitions.polignac_census")
    out["algebra.mul_linear.calls"] = len(by_name.get("algebra.mul_linear", []))
    for fn in ("mul_linear", "q_and_c1_from", "solve_quadratic_bezout", "solve_unit_bezout",
               "smoothness_factorization"):
        out[f"algebra.{fn}.s"] = total(f"algebra.{fn}")
    smooth = by_name.get("algebra.smoothness_factorization", [])
    out["algebra.smoothness_factorization.calls"] = len(smooth)
    out["algebra.smoothness_factorization.input_bits"] = sum((s[6] or {}).get("bits", 0) for s in smooth)
    for fn in manifest.ALGEBRA_QUERIES:
        out[f"algebra.{fn}.p50_us"] = p50_us(f"algebra.{fn}")

    # Claim self time: the claim's span minus the algebra and partitions calls
    # inside it in the same process.
    inner = [s for s in spans if s[2].startswith(("algebra.", "partitions."))]
    chunks = by_name.get("audit.eval_chunk", [])
    merge = 0.0
    for run in by_name.get("audit.run", []):
        if not run[6]:
            continue
        code, lo, hi = run[6]["claim"], run[6]["lo"], run[6]["hi"]
        dur = run[5] - run[4]
        nested = [(s[4], s[5]) for s in inner if s[3] == run[3] and run[4] <= s[4] and s[5] <= run[5]]
        mine = [s[5] for s in chunks if s[6] and s[6]["claim"] == code and run[4] <= s[4] <= run[5]]
        if f"audit.{code}.s" in out:
            out[f"audit.{code}.s"] += dur
            out[f"audit.{code}.ns_per_a"] = out[f"audit.{code}.s"] / (hi - lo + 1) * 1e9
            out[f"audit.{code}.self_s"] += dur - _covered(nested)
        if mine:
            merge += run[5] - max(mine)
    out["audit.chunks"] = len(chunks)
    out["audit.chunk_busy_s"] = sum(s[5] - s[4] for s in chunks)
    out["audit.pool_busy_ratio"] = out["audit.chunk_busy_s"] / (jobs * wall_s)
    out["audit.merge_s"] = merge
    out["audit.emit_report.s"] = total("audit.emit_report")
    return out
