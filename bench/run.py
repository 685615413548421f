"""Benchmark entry point: runs one workload for a fixed time and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program under test is the
checkout's `src/primeaudit`. Repetitions run back to back, one client in a
closed loop, each in a fresh `bench/rep.py` process, until S seconds have
passed. With --trace 1 traced and untraced repetitions alternate: the
per-layer metrics come from the traced ones, the tracing overhead from
the difference. The second-to-last line of stdout is the run record
(machine, load, commit, seed, fingerprints); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import manifest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 175   # a run must end within 180 s
# Mean time of one reference-kernel call (rep.reference_kernel) on the
# two-core machine the figures in bench/README.md come from; normalized
# seconds are seconds at that speed.
REFERENCE_NOMINAL_S = 0.024


def run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh process (and process group, so that a
    timed-out repetition takes its pool workers with it)."""
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--trace-out", str(OUT / f"{workload}-seed{seed}.trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}"}
    try:
        out = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line"}
    out["traced"] = traced
    return out


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(workload: str, reps: list[dict]) -> tuple[dict, dict, int]:
    """End-to-end metrics, the same figures in raw seconds, and the number of
    latency samples behind the percentiles.

    Times are normalized: the run's seconds are scaled by
    REFERENCE_NOMINAL_S over the median reference-kernel time of its
    repetitions, which cancels the drift in machine speed between runs. On
    point-queries a query is one library call; on the audit workloads it is
    one repetition's audit requests.
    """
    def figures(scale):
        if workload == "point-queries":
            samples = [t * scale * 1e3 for r in reps for t in r["latencies_s"]]
        else:
            samples = [r["wall_s"] * scale * 1e3 for r in reps]
        return {
            "setup_s": statistics.median(r["setup_s"] for r in reps) * scale,
            "wall_s": statistics.median(r["wall_s"] for r in reps) * scale,
            "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps) / scale,
            "query_p50_ms": statistics.median(samples),
            "query_p90_ms": _p90(samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }, len(samples)

    reference_s = statistics.median(r["reference_s"] for r in reps)
    normalized, n = figures(REFERENCE_NOMINAL_S / reference_s)
    raw, _ = figures(1.0)
    raw["reference_s"] = reference_s
    return normalized, raw, n


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Layer values in raw seconds; the trace.* wall times are normalized
    per repetition, because the machine's drift between two neighbouring
    repetitions is as large as the tracing overhead."""
    def wall(r):
        return r["wall_s"] * REFERENCE_NOMINAL_S / r["reference_s"]

    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _, _ in manifest.PER_LAYER if not name.startswith("trace.")}
    values["trace.wall_s"] = statistics.median(wall(r) for r in traced)
    values["trace.untraced_wall_s"] = statistics.median(wall(r) for r in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; the benchmark's own
    checkouts are not. The search for a repository stops at the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in manifest.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "primeaudit" / "__init__.py").is_file():
        print(f"run.py: no primeaudit sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    load_before = os.getloadavg()
    start = time.perf_counter()
    reps = []
    while True:
        elapsed = time.perf_counter() - start
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args.workload, args.seed, traced, max(RUN_LIMIT_S - elapsed, 1)))
        done = time.perf_counter() - start >= args.seconds and (not args.trace or len(reps) >= 2)
        if done or "error" in reps[-1]:
            break
    good = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in good) + len(reps) - len(good)
    failed = sum(r["failed"] for r in good) + len(reps) - len(good)
    fingerprints = sorted({r["fingerprint"] for r in good})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": good[0]["numpy"] if good else None,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "repetitions": len(reps), "errors": [r["error"] for r in reps if "error" in r],
        "rep_loadavg": [r["loadavg"] for r in good],
        "fingerprints": fingerprints, "mismatch_ratio": failed / attempted,
        "problems": [p for r in good for p in r["problems"]][:8],
    }
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    if not untraced or (args.trace and not traced):
        print(json.dumps({"record": record}))
        print("run.py: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in manifest.PER_LAYER}
    else:
        metrics, record["raw"], record["latency_samples"] = end_to_end(args.workload, untraced)
        units = {name: unit for name, unit, _, _ in manifest.END_TO_END}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and len(fingerprints) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
