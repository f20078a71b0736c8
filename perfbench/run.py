#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload poisson --seed 1 --seconds 55 --trace 0

The first call configures and builds perfbench (a CMake project that
pulls in the repository's own libraries) under .bench_build/perfbench;
later calls rebuild incrementally. The benchmark's human-readable report
goes to stdout, followed by one JSON line holding exactly the metrics
BENCHMARK.json declares for the mode: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Per-run records and the
traced run's spans are kept under .bench_build/perfbench-out.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    """Run one build step; on failure show its output and stop."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["poisson", "bursty"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("last line is not JSON (exit %d)" % proc.returncode)

    measured = result["metrics"]
    missing = [n for n in declared if n not in measured]
    wrong_unit = [n for n in declared
                  if n in measured and measured[n]["unit"] != declared[n]]
    if missing or wrong_unit:
        sys.stdout.write(proc.stdout)
        fail("metrics missing %s, with another unit %s"
             % (missing, wrong_unit))

    for line in lines[:-1]:
        print(line)
    result["metrics"] = {n: measured[n] for n in declared}
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
