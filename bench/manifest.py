"""Names, units and bounds of the benchmark's workloads and metrics.

This is the one place they are defined: `run.py` and `rep.py` report
exactly these names, and running this file writes them to the
`BENCHMARK.json` at the root of the repository:

    python3 bench/manifest.py
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = [
    ("search-sweep",
     "G-EMP, G-PRP, D-EMP and G-TERN sweeps at jobs=2: the minimal-p search kernel and the fork pool "
     "do all the work, no algebra"),
    ("algebra-suite",
     "--claims all over 4..2000 at jobs=1: every claim, incremental expansion, Horner, Bezout, "
     "smoothness and the census; no pool"),
    ("equiv-band",
     "G-EQUIV and D-EQUIV on a seeded window just below the algebra cap: trial-division smoothness and "
     "a large report, no search, no expansion"),
    ("point-queries",
     "seeded one-shot library calls as the CLI subcommands make them: partitions and the non-incremental "
     "algebra path, no audit"),
]

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

CLAIMS = [
    "G-CLOSE", "G-EQUIV", "G-CONG", "G-C1", "G-QDIV", "G-C0", "G-BEZ2", "G-DEG",
    "G-EMP", "G-PRP", "G-TERN",
    "D-CLOSE", "D-EQUIV", "D-CONG", "D-C1", "D-QDIV", "D-C0", "D-BEZ2", "D-DEG",
    "D-EMP", "D-BETA", "P-CENSUS", "B-PRIMO",
]

# Functions the point-queries workload calls directly, by layer.
PARTITION_QUERIES = ["goldbach_partitions", "diff_representations", "prime_reflective_points",
                     "ternary_decomposition", "polignac_census"]
ALGEBRA_QUERIES = ["vieta_coefficients", "complement_product", "realized_difference",
                   "bezout_quadratic", "bezout_unit"]


def _per_layer() -> list[tuple[str, str, str]]:
    out = [
        ("primes.build_sieve.s", "s", "lower"),
        ("primes.prime_list.s", "s", "lower"),
        ("primes.sieve_limit", "count", "lower"),
        ("primes.table_bytes", "bytes", "lower"),
    ]
    for fn in PARTITION_QUERIES:
        out += [(f"partitions.{fn}.calls", "count", "lower"),
                (f"partitions.{fn}.p50_us", "us", "lower")]
    out.append(("partitions.polignac_census.s", "s", "lower"))
    out += [
        ("algebra.mul_linear.calls", "count", "lower"),
        ("algebra.mul_linear.s", "s", "lower"),
        ("algebra.q_and_c1_from.s", "s", "lower"),
        ("algebra.solve_quadratic_bezout.s", "s", "lower"),
        ("algebra.solve_unit_bezout.s", "s", "lower"),
        ("algebra.smoothness_factorization.calls", "count", "lower"),
        ("algebra.smoothness_factorization.s", "s", "lower"),
        ("algebra.smoothness_factorization.input_bits", "bits", "lower"),
    ]
    out += [(f"algebra.{fn}.p50_us", "us", "lower") for fn in ALGEBRA_QUERIES]
    for code in CLAIMS:
        out += [(f"audit.{code}.s", "s", "lower"),
                (f"audit.{code}.ns_per_a", "ns", "lower"),
                (f"audit.{code}.self_s", "s", "lower")]
    out += [
        ("audit.chunks", "count", "lower"),
        ("audit.chunk_busy_s", "s", "lower"),
        ("audit.pool_busy_ratio", "1", "higher"),
        ("audit.merge_s", "s", "lower"),
        ("audit.emit_report.s", "s", "lower"),
        ("audit.report_bytes", "bytes", "lower"),
        ("audit.witness_records", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
