"""One repetition of a workload, in a process of its own.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1 [--trace-out FILE]

Users start the CLI cold on every invocation, so `run.py` runs every
repetition as a new process. This one sets up (imports, sieve, prime
list), makes the workload's requests back to back, checks every answer
and prints one JSON object. With --trace 1 it wraps primeaudit's layers,
adds the per-layer metrics and writes its spans to FILE.
"""

# numpy and the modules only the benchmark uses load before the clock
# starts; setup_s covers what a CLI start loads besides, primeaudit's own
# imports, the sieve and the first prime_list. numpy's import is the same
# for every version of primeaudit, and measured against the reference
# kernel below its time drifted by up to a half between runs minutes apart.
import hashlib  # noqa: F401
import resource
import statistics
import time

import numpy

T0 = time.perf_counter()

import argparse  # noqa: E402  (the CLI loads these too)
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import primeaudit  # noqa: E402
from primeaudit import primes  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import workloads  # noqa: E402  (benchmark code, outside setup_s)

REFERENCE_SAMPLES = 12   # reference kernel runs before and after the timed phase


def reference_kernel() -> int:
    """Fixed work of the kinds primeaudit does: an interpreted integer loop
    with list indexing, a growing big-integer product, and big-integer
    remainders by small odd numbers. It does not touch primeaudit, so no
    change to the program moves its time; only the machine's speed does."""
    acc = 0
    table = list(range(1024))
    for i in range(120_000):
        acc += table[i & 1023] * i % 7
    big = 1
    for k in range(1, 1400):
        big = big * (16_007 - k) + 1
    for p in range(3, 3000, 2):
        acc += big % p
    return acc


def time_reference() -> list[float]:
    out = []
    for _ in range(REFERENCE_SAMPLES):
        t = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t)
    return out


def timed_phase(workload: str, reqs: list, ps, tracer) -> tuple[list, list[float], float]:
    """Make every request; returns answers (an exception stands for a failed
    request), per-request latencies and the phase's wall time."""
    span_name = "bench.query" if workload == "point-queries" else "bench.request"
    answers, latencies = [], []
    start = time.perf_counter()
    for req in reqs:
        t = time.perf_counter()
        span = tracer.span(span_name, {"kind": req[0]}) if tracer else contextlib.nullcontext()
        try:
            with span:
                ans = workloads.run_request(workload, req, ps)
        except Exception as exc:  # counted as a failed result by the check
            ans = exc
        latencies.append(time.perf_counter() - t)
        answers.append(ans)
    return answers, latencies, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its finished pool workers."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def run(workload: str, seed: int, trace: bool, trace_out: str | None = None) -> dict:
    reqs = workloads.inputs(workload, seed)
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracer = None
    try:
        start = time.perf_counter()
        ps = primes.build_sieve(workloads.sieve_limit(workload, reqs))
        with tracer.span("primes.prime_list") if tracer else contextlib.nullcontext():
            ps.prime_list
        setup_s = IMPORT_S + time.perf_counter() - start
        reference = time_reference()
        answers, latencies, wall_s = timed_phase(workload, reqs, ps, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    rss = peak_rss_mb()
    reference += time_reference()
    verdict = workloads.check(workload, reqs, answers)
    out = {"setup_s": setup_s, "wall_s": wall_s, "latencies_s": latencies, "peak_rss_mb": rss,
           "reference_s": statistics.fmean(reference),
           "numpy": numpy.__version__, **verdict}
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, wall_s, workloads.JOBS[workload])
        layers["primes.sieve_limit"] = ps.limit
        layers["primes.table_bytes"] = len(ps.table)
        layers["audit.report_bytes"] = verdict.get("report_bytes", 0)
        layers["audit.witness_records"] = verdict.get("witness_records", 0)
        out["layers"] = layers
        if trace_out:
            spans = [{"id": s[0], "parent": s[1], "name": s[2], "pid": s[3], "start_s": s[4] - T0,
                      "end_s": s[5] - T0, "note": s[6]} for s in tracer.spans]
            Path(trace_out).write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    if Path(primeaudit.__file__).resolve().parent != ROOT / "src" / "primeaudit":
        print(f"rep.py: primeaudit imported from {primeaudit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, bool(args.trace), args.trace_out)
    out["loadavg"] = os.getloadavg()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
