#!/usr/bin/env python3
"""Compare the exact per-layer counts of two traced benchmark reports.

Usage:
  tools/exact_counts_diff.py BASE CHANGE [--allow NAME ...]

BASE and CHANGE are `report_<workload>_<seed>_trace1.json` files written by
`bench/ptrider_bench/run.py --trace 1`. Only the counts that
bench/ptrider_bench/README.md marks *exact* are compared: they repeat bit
for bit for the same workload, seed and --seconds, so any difference is a
change in the work done, not noise.

Exit status:
  0  every exact count is equal, or differs only where --allow names it;
  1  a count not named by --allow differs;
  2  the reports are not comparable: different workload, traced flag,
     repetition count or seed (the seed is read from the file name; the
     report body does not record it), or a malformed input.
Every differing median is printed with both values.
"""

import argparse
import json
import re
import sys
from pathlib import Path

# The rows bench/ptrider_bench/README.md marks exact, in its order.
EXACT_COUNTS = (
    "roadnet.heap_pops_per_query",
    "vehicle.trial_insert.seq.occ0",
    "vehicle.trial_insert.seq.occ1",
    "vehicle.trial_insert.seq.occ2",
    "vehicle.trial_insert.seq.occ3plus",
    "vehicle.trial_insert.exact_ratio",
    "vehicle.trial_insert.accept_ratio",
    "vehicle.tree_branches.mean",
    "vehicle.tree_branches.max",
    "vehicle.index.updates",
    "vehicle.index.rebalances",
    "core.vehicles_examined_per_match",
    "core.vehicles_pruned_per_match",
    "core.prune_ratio",
    "core.cells_visited_per_match",
    "core.options_per_match",
    "core.insertion.sequences_per_match",
    "core.insertion.bound_pruned_per_match",
    "core.insertion.exact_per_match",
    "core.insertion.accepted_per_match",
    "dispatch.rematches",
    "dispatch.reprobes",
    "dispatch.wavefronts",
    "dispatch.fallbacks",
    "dispatch.rematch_ratio",
)

REPORT_NAME = re.compile(r"report_(?P<workload>.+)_(?P<seed>\d+)_trace1\.json")


class NotComparable(Exception):
    pass


def load(path):
    """The report at `path` and the seed its file name carries."""
    match = REPORT_NAME.fullmatch(path.name)
    if not match:
        raise NotComparable(f"{path}: not a report_<workload>_<seed>_trace1"
                            ".json file")
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise NotComparable(f"{path}: {e}")
    if not isinstance(report.get("metrics"), dict):
        raise NotComparable(f"{path}: no metrics")
    return report, int(match["seed"])


def median(report, name):
    stats = report["metrics"].get(name)
    return None if stats is None else stats.get("median")


def compare(base_path, change_path, allowed):
    """Prints the differing exact counts; returns the exit status."""
    base, base_seed = load(base_path)
    change, change_seed = load(change_path)
    for key in ("workload", "traced", "repetitions"):
        if base.get(key) != change.get(key):
            raise NotComparable(f"{key} differs: {base.get(key)!r} vs "
                                f"{change.get(key)!r}")
    if base_seed != change_seed:
        raise NotComparable(f"seed differs: {base_seed} vs {change_seed}")

    status = 0
    for name in EXACT_COUNTS:
        a, b = median(base, name), median(change, name)
        if a == b:
            continue
        note = "allowed" if name in allowed else "NOT ALLOWED"
        print(f"{name}: {a!r} -> {b!r} ({note})")
        if name not in allowed:
            status = 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--allow", nargs="+", action="extend", default=[],
                    metavar="NAME", help="exact counts allowed to differ")
    args = ap.parse_args()
    unknown = sorted(set(args.allow) - set(EXACT_COUNTS))
    if unknown:
        ap.error(f"--allow: not an exact count: {', '.join(unknown)}")
    try:
        status = compare(args.base, args.change, set(args.allow))
    except NotComparable as e:
        print(f"not comparable: {e}", file=sys.stderr)
        return 2
    if status == 0:
        print("exact counts: no disallowed difference")
    return status


if __name__ == "__main__":
    sys.exit(main())
