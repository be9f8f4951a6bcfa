#!/usr/bin/env python3
"""PTRider benchmark: builds bench_ptrider, runs repetitions, aggregates.

Usage (from the repository root):
  python3 bench/ptrider_bench/run.py --workload city_peak --seed 1 \
      --seconds 30 --trace 0
  python3 bench/ptrider_bench/run.py --smoke

--workload takes one name or a comma-separated list; several workloads run
interleaved (A B C A B C ...). --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones and writes Chrome trace files.
Every repetition is a fresh bench_ptrider process, so peak RSS and
allocator state belong to one repetition. The last line of stdout is the
result as JSON; a detailed report (median, quartiles, min, max and count of
every metric, host facts, knobs, checks) is written next to the build.
See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORKLOADS = ("city_peak", "fleet_idle", "service_open")
# Never let one invocation approach the 180 s limit a run is held to.
HARD_LIMIT_S = 170.0
# Nominal wall seconds of one repetition (untraced, traced) on a 4-thread
# x86 host. --seconds divided by these fixes the repetition count, so two
# runs with the same --seed and --seconds use the same inputs and their
# exact counts repeat bit for bit; a host more than 1.2x slower stops early.
REP_SECONDS = {
    "city_peak": (3.6, 9.5),
    "fleet_idle": (3.3, 8.0),
    "service_open": (7.5, 25.0),
}
MIN_UNTRACED_REPS = 3

# Outcome rates pooled across repetitions: summed numerator over summed
# denominator of each repetition's report counts.
RATIOS = {
    "service_rate": ("assigned", "submitted"),
    "sharing_rate": ("shared", "completed"),
}

# Metrics computed from samples pooled across repetitions (the percentile
# needs more samples than one repetition yields); every other metric is the
# median of the repetitions' values.
POOLED = {
    "response_p50_ms": ("response_ms", 0.50),
    "response_p99_ms": ("response_ms", 0.99),
    "roadnet.distance_us.p50": ("roadnet.distance_us", 0.50),
    "roadnet.distance_us.p99": ("roadnet.distance_us", 0.99),
    "core.match_us.p50": ("core.match_us", 0.50),
    "core.match_us.p99": ("core.match_us", 0.99),
    "sim.step_window_ms.p50": ("sim.step_window_ms", 0.50),
    "sim.step_window_ms.p99": ("sim.step_window_ms", 0.99),
    "sim.advance_tick_ms.p50": ("sim.advance_tick_ms", 0.50),
    "sim.advance_tick_ms.p99": ("sim.advance_tick_ms", 0.99),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "ptrider_bench"


def build(out):
    """Configures (once) and builds bench_ptrider; build output to stderr."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = out / "bench_ptrider"
    return binary if binary.exists() else None


def input_seed(seed, index):
    """The input of repetition `index` of a run with --seed `seed`."""
    x = (seed * 0x9E3779B97F4A7C15 + index + 1) % 2**64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % 2**64
    return x ^ (x >> 31)


def quantile(values, q):
    """Linear-interpolation quantile, as the C++ side computes it."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = q * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] * (1 - (rank - lo)) + v[hi] * (rank - lo)


def summary(values):
    v = sorted(values)
    out = {"median": statistics.median(v), "min": v[0], "max": v[-1],
           "n": len(v)}
    if len(v) >= 2:
        q = statistics.quantiles(v, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


class Runner:
    def __init__(self, binary, out, smoke):
        self.binary = binary
        self.out = out
        self.smoke = smoke
        self.start = time.monotonic()
        self.problems = []  # failed operations outside the repetitions

    def elapsed(self):
        return time.monotonic() - self.start

    def rep(self, workload, seed, traced, trace_file=None):
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed)]
        if traced:
            cmd.append("--traced")
        if self.smoke:
            cmd.append("--smoke")
        if trace_file:
            cmd += ["--trace-file", str(trace_file)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(5.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{workload}: repetition timed out")
            return None
        if proc.returncode != 0:
            self.problems.append(f"{workload}: bench_ptrider exited "
                                 f"{proc.returncode}: {proc.stderr.strip()}")
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.problems.append(f"{workload}: unreadable repetition record")
            return None


def schedule(runner, workloads, seed, seconds, traced):
    """A discarded warm-up per workload (untraced runs only), then the
    repetitions interleaved across workloads (A B C A B C ...), repetition i
    on input i. Returns {workload: [records]} and the warm-up records."""
    kind = 1 if traced else 0
    floor = 1 if traced or runner.smoke else MIN_UNTRACED_REPS
    count = {w: 1 if runner.smoke else
             max(floor, int(seconds / REP_SECONDS[w][kind]))
             for w in workloads}
    warmups = {}
    if not traced and not runner.smoke:
        for w in workloads:
            warmups[w] = runner.rep(w, input_seed(seed, 0), False)
    budget = 1.2 * seconds * len(workloads)
    reps = {w: [] for w in workloads}
    for i in range(max(count.values())):
        for w in workloads:
            if i >= count[w] or (i >= floor and runner.elapsed() > budget):
                continue
            trace_file = runner.out / f"trace_{w}_{seed}.json" \
                if traced and i == 0 else None
            rec = runner.rep(w, input_seed(seed, i), traced, trace_file)
            if rec is not None:
                reps[w].append(rec)
    return reps, warmups


def aggregate(workload, records, warmup, spec, traced, problems):
    """The metrics of one workload plus its detailed report."""
    names = spec["per_layer" if traced else "end_to_end"]
    metrics, stats = {}, {}
    for m in names:
        name, unit = m["name"], m["unit"]
        if name in POOLED:
            key, q = POOLED[name]
            pooled = [x for r in records for x in r["samples"].get(key, [])]
            per_rep = [quantile(r["samples"].get(key, []), q) for r in records]
            value = quantile(pooled, q)
            stats[name] = dict(summary(per_rep), pooled=value,
                               samples=len(pooled))
        elif name in RATIOS:
            num, den = RATIOS[name]
            per_rep = [r["counts"][num] / max(1, r["counts"][den])
                       for r in records]
            value = (sum(r["counts"][num] for r in records) /
                     sum(r["counts"][den] for r in records))
            stats[name] = dict(summary(per_rep), pooled=value)
        else:
            per_rep = [r["metrics"][name] for r in records
                       if name in r["metrics"]]
            if len(per_rep) != len(records):
                problems.append(f"{workload}: metric {name} missing")
                continue
            value = statistics.median(per_rep)
            stats[name] = summary(per_rep)
        metrics[name] = {"value": value, "unit": unit}

    # Determinism: a repetition's signature depends on its input only, so
    # the warm-up (input 0) and the first repetition must agree.
    if warmup and records and warmup["signature"] != records[0]["signature"]:
        problems.append(f"{workload}: signature differs between two runs "
                        "of the same input")
    for r in ([warmup] if warmup else []) + records:
        problems += [f"{workload}: {f}" for f in r["check_failures"]]
    shape = sorted({r["shape_problem"] for r in records if r["shape_problem"]})
    for s in shape:
        log(f"WARNING {workload}: the workload no longer isolates its "
            f"layer: {s}")
    report = {
        "workload": workload,
        "traced": traced,
        "repetitions": len(records),
        "metrics": stats,
        "signatures": [r["signature"] for r in records],
        "shape_problems": shape,
        "host": records[0]["host"] if records else {},
        "knobs": records[0]["knobs"] if records else {},
        "detail": [r["detail"] for r in records],
    }
    return metrics, report


def print_table(workload, metrics, report):
    print(f"== {workload} ({report['repetitions']} repetitions"
          f"{', traced' if report['traced'] else ''})")
    for name, m in metrics.items():
        s = report["metrics"][name]
        spread = (f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else "")
        pooled = f"  ({s['samples']} samples)" if "samples" in s else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s}{spread}{pooled}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes of every workload, one repetition "
                         "each, checks only")
    args = ap.parse_args()
    workloads = args.workload.split(",")
    if any(w not in WORKLOADS for w in workloads):
        ap.error(f"--workload: expected names from {', '.join(WORKLOADS)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)
    if binary is None:
        log("run.py: building bench_ptrider failed")
        return 1

    runner = Runner(binary, out, args.smoke)
    if args.smoke:
        problems, attempted = [], 0
        for traced in (False, True):
            reps, _ = schedule(runner, list(WORKLOADS), args.seed, 0, traced)
            for w, records in reps.items():
                if not records:
                    continue
                attempted += sum(r["attempted"] for r in records)
                problems += [f"{w}: {f}" for r in records
                             for f in r["check_failures"]]
        problems += runner.problems
        for p in problems:
            log(f"FAILED {p}")
        log(f"smoke: {'ok' if not problems else 'FAILED'} "
            f"in {runner.elapsed():.1f} s")
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": len(problems), "metrics": {}}))
        return 0 if not problems else 1

    traced = args.trace == 1
    reps, warmups = schedule(runner, workloads, args.seed, args.seconds,
                             traced)
    problems = list(runner.problems)
    metrics, attempted, failed = {}, 0, 0
    for w in workloads:
        records = reps[w]
        if not records:
            problems.append(f"{w}: no repetition completed")
            continue
        m, report = aggregate(w, records, warmups.get(w), spec, traced,
                              problems)
        print_table(w, m, report)
        prefix = f"{w}/" if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += sum(r["attempted"] for r in records)
        failed += sum(r["failed"] for r in records)
        path = out / f"report_{w}_{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
    for p in problems:
        log(f"FAILED {p}")
    failed += len(problems)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
