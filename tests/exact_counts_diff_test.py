#!/usr/bin/env python3
"""Runs tools/exact_counts_diff.py on the fixture reports in
tests/exact_counts_fixtures/ and checks its exit status and output.

Usage: python3 tests/exact_counts_diff_test.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "exact_counts_diff.py"
FIXTURES = ROOT / "tests" / "exact_counts_fixtures"
BASE = FIXTURES / "base" / "report_fleet_idle_5_trace1.json"


def run(change, *extra):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(BASE), str(change), *extra],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    def expect(label, got_status, want_status, output, must_contain=()):
        if got_status != want_status:
            failures.append(f"{label}: exit {got_status}, want {want_status}"
                            f"\n{output}")
        for text in must_contain:
            if text not in output:
                failures.append(f"{label}: output lacks {text!r}\n{output}")

    same = FIXTURES / "same" / "report_fleet_idle_5_trace1.json"
    changed = FIXTURES / "changed" / "report_fleet_idle_5_trace1.json"
    other_seed = FIXTURES / "other_seed" / "report_fleet_idle_6_trace1.json"

    # Equal exact counts (only a timing differs) -> 0.
    status, out = run(same)
    expect("identical", status, 0, out)
    # One exact count differs -> 1, printed with both medians.
    status, out = run(changed)
    expect("differing", status, 1, out,
           ("core.vehicles_examined_per_match", "302.18", "30.9"))
    # The same difference, allowed -> 0, still printed.
    status, out = run(changed, "--allow", "core.vehicles_examined_per_match")
    expect("allowed", status, 0, out, ("302.18",))
    # Different seeds are not comparable -> 2.
    status, out = run(other_seed)
    expect("other seed", status, 2, out, ("seed differs",))

    for f in failures:
        print(f"FAIL {f}")
    print("exact_counts_diff_test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
