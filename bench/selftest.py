"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that inputs follow the seed, that a wrong answer is counted,
that tracing leaves primeaudit as it found it and reports its overhead on
every workload, and that the benchmark refuses to run without the sources.
Takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from primeaudit.primes import build_sieve  # noqa: E402

import manifest  # noqa: E402
import rep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [name for name, _ in manifest.WORKLOADS]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=180)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(workloads.inputs(name, 7), workloads.inputs(name, 7), name)

    def test_seed_moves_only_the_seeded_inputs(self):
        for name in ("equiv-band", "point-queries"):
            self.assertNotEqual(workloads.inputs(name, 7), workloads.inputs(name, 8), name)
        for name in ("search-sweep", "algebra-suite"):
            self.assertEqual(workloads.inputs(name, 7), workloads.inputs(name, 8), name)


class InjectedFaults(unittest.TestCase):
    def test_wrong_point_answers_are_failed(self):
        reqs = workloads.inputs("point-queries", 1)[:9]   # one query of each kind
        ps = build_sieve(workloads.sieve_limit("point-queries", reqs))
        answers = [workloads.run_request("point-queries", q, ps) for q in reqs]
        self.assertEqual(workloads.check("point-queries", reqs, answers)["failed"], 0)
        kinds = [q[0] for q in reqs]
        bad = list(answers)
        bad[kinds.index("goldbach")] = answers[kinds.index("goldbach")][:-1]          # a dropped pair
        vieta = answers[kinds.index("vieta")]
        bad[kinds.index("vieta")] = [vieta[0] + 1] + vieta[1:]                         # a wrong coefficient
        bad[kinds.index("ternary")] = RuntimeError("injected")                        # an exception
        verdict = workloads.check("point-queries", reqs, bad)
        self.assertEqual(verdict["failed"], 3)
        self.assertGreater(verdict["failed"] / verdict["attempted"], 0)

    def test_wrong_audit_records_are_failed(self):
        reqs = workloads.inputs("equiv-band", 1)
        ps = build_sieve(workloads.sieve_limit("equiv-band", reqs))
        text = workloads.run_request("equiv-band", reqs[0], ps)
        self.assertEqual(workloads.check("equiv-band", reqs, [text])["failed"], 0)
        flipped = text.replace('"status":"PASS"', '"status":"FAIL"', 1)
        self.assertEqual(workloads.check("equiv-band", reqs, [flipped])["failed"], 1)
        dropped = "\n".join(ln for ln in text.splitlines() if '"claim":"D-EQUIV"' not in ln)
        verdict = workloads.check("equiv-band", reqs, [dropped])
        self.assertEqual((verdict["attempted"], verdict["failed"]), (2, 1))


class Tracing(unittest.TestCase):
    def test_wrapped_attributes_are_restored(self):
        import importlib
        before = {}
        for mod_name, attr, _, _ in tracing.TARGETS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            before[(mod_name, attr)] = (owner, leaf, owner.__dict__[leaf])
        out = rep.run("search-sweep", 1, trace=True)   # jobs=2: worker spans come back
        for key, (owner, leaf, original) in before.items():
            self.assertIs(owner.__dict__[leaf], original, key)
        self.assertIsNone(tracing._ACTIVE)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(out["layers"]["audit.chunks"], 16 + 3 * 4)

    def test_traced_runs_report_overhead_on_every_workload(self):
        names = {name for name, _, _ in manifest.PER_LAYER}
        for name in WORKLOADS:
            proc = _run("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            # one untraced and one traced repetition with equal fingerprints
            self.assertTrue(result["correct"], name)
            self.assertEqual(set(result["metrics"]), names)
            self.assertIn("trace.overhead_s", result["metrics"])


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_manifest(self):
        self.assertEqual(json.loads((ROOT / "BENCHMARK.json").read_text()), manifest.benchmark_json())

    def test_refuses_to_run_without_the_sources(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for f in BENCH.iterdir():
                if f.is_file():
                    shutil.copy(f, bare / "bench")
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "equiv-band", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, cwd=bare, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
