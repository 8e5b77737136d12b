#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed0 1]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) for every
workload, with --trace 0 and the run_seconds of BENCHMARK.json, and
prints, per workload and metric, the median and the distance between
the first and third quartiles as a share of the median (the quartiles
of Python's statistics.quantiles(values, n=4)). A spread above a third
of the metric's bound is flagged; setup_s is reported but not flagged.
Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values):
    """(median, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}\n"
                           f"{out.stderr}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            result = run_once(workload, args.seed0 + i, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload}: run {i} incorrect")
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            med, spread = quartile_spread(vals)
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"{workload:14s} {name:22s} median {med:14.6g} "
                  f"spread {spread:7.2%} bound {bounds[name]:.0%}{flag}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
