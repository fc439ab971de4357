#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

For every metric, prints the median of the per-seed values and the
distance between their first and third quartiles (Python's
`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. A run that fails or prints an
incorrect result is reported and stops the sweep.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw", action="store_true", help="also print every per-seed value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result: %s" % (seed, lines[-1]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-24s %14s %10s %8s" % ("metric", "median", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-24s %14.6g %10.4f %8s" % (name, med, spread, "" if bound is None else bound))
        if args.raw:
            print("    " + " ".join("%.6g" % v for v in vs))


if __name__ == "__main__":
    main()
