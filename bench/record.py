"""Record the expected audit records of the fixed-range workloads.

    python3 bench/record.py

Runs the search-sweep and algebra-suite requests once at jobs=1 and
writes the digest of each claim's (claim, a_lo, a_hi, status, checked,
skipped, witnesses) to bench/expected.json. The benchmark's untraced
search-sweep runs at jobs=2, so matching these digests also shows that the
pool changes no answer. Re-record only in a change that means to alter
audit output.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from primeaudit import audit, build_sieve  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    expected = {}
    for name in ("search-sweep", "algebra-suite"):
        reqs = workloads.inputs(name, 0)
        ps = build_sieve(workloads.sieve_limit(name, reqs))
        digests = {}
        for claims, lo, hi in reqs:
            report = audit.run_suite(claims, lo, hi, jobs=1, ps=ps, config=workloads.CONFIG)
            for code, rec in workloads.audit_records(audit.emit_report(report, "json")).items():
                digests[code] = workloads.record_digest(rec)
        expected[name] = dict(sorted(digests.items()))
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
