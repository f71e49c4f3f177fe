#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload <table5|verdict|rs|field> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds perfbench/ (which builds the library
through the repository's own CMakeLists.txt) into .bench_build/perfbench,
times set-up in separate --setup-only processes, runs the workload, and
prints the program's report followed, as the last line, by one JSON object
with the keys correct / attempted / failed / metrics.  Exits nonzero when the
build fails, the program fails, or a known-answer check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gfr_perfbench")
SETUP_RUNS = 11  # set-up processes per run; setup_s is their median
TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gfr_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT,
                              timeout=840)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def setup_seconds(workload):
    """Median wall time of set-up processes, each rescaled by the host-speed
    factor the process measured right after its set-up."""
    samples = []
    for _ in range(SETUP_RUNS):
        # No timeout here: waiting with a timeout polls, which rounds the
        # measured wall time up to the poll interval.
        t0 = time.perf_counter()
        done = subprocess.run([BINARY, "--workload", workload, "--setup-only"],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            fail("set-up process failed")
        samples.append(wall * json.loads(done.stdout)["speed"])
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["table5", "verdict", "rs", "field"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    setup_s = setup_seconds(args.workload)
    done = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no output from the workload (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print("metric setup_s = %.9g s" % setup_s)
    expected = declared_metrics(args.trace)
    if sorted(expected) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(expected) ^ set(result["metrics"])))
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
