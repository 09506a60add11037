#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload sim --seeds 1-10 [--seconds 30]

Run it from the repository root.  For every end-to-end metric it prints
the median over the runs and the spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median.  A run that fails or reports correct: false stops the sweep
with a non-zero exit.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d: run failed with exit code %d" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: correct is false" % seed)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        print("seed %d done" % seed, file=sys.stderr)

    print("%-40s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name in runs[0]:
        xs = [r[name] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-40s %14.6g %8.4f %8s" % (name, med, spread, bounds[name]))


if __name__ == "__main__":
    main()
