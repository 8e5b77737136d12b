#!/usr/bin/env python3
"""Run one workload of the end-to-end provenance benchmark.

    python3 perfbench/run.py --workload ingest|point_inmem|mixed_routed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds the library, the query server and the benchmark binary from
source into .bench_build/; later runs only re-check the build. The
benchmark's report lines go to stdout; the last stdout line is one JSON
object with the gate metrics that BENCHMARK.json names: its end_to_end
list with --trace 0, its per_layer list with --trace 1. Exit status is
nonzero, and no JSON line is printed, if the build fails or the source
tree is missing; it is nonzero with the JSON line printed if an output
check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
# The benchmark, its server and the server's workers all run on this many
# CPUs. On a small VM, handing a request between threads on different
# vCPUs costs a vCPU wake-up whose latency swings with the host's load;
# two pinned CPUs halve the round-trip time of cheap requests, remove
# most of that swing, and still leave a CPU per closed-loop client.
PINNED_CPUS = 2


def build():
    """Configure once, then build the two targets; False on failure."""
    log = sys.stderr
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", CMAKE_BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            shutil.rmtree(CMAKE_BUILD, ignore_errors=True)
            return False
    rc = subprocess.call(
        ["cmake", "--build", CMAKE_BUILD, "--target", "perfbench",
         "inspector_query", "-j", "3"], stdout=log, stderr=log)
    return rc == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    gate = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        print("build failed", file=sys.stderr)
        return 1

    cpus = sorted(os.sched_getaffinity(0))[:PINNED_CPUS]
    os.sched_setaffinity(0, cpus)
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(CMAKE_BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(CMAKE_BUILD, "inspector", "inspector_query"),
           "--work", work,
           "--metrics", ",".join(f'{m["name"]}:{m["unit"]}' for m in gate)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        rc = 1
    # Keep the span files of traced runs; drop stores, CPGs and sockets.
    traces = os.path.join(BUILD, "traces")
    for name in os.listdir(work):
        if name.startswith("trace_"):
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(work, name),
                        os.path.join(traces, f"{args.seed}-{name}"))
    shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
