#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload plan-geant --seed 1 --seconds 10 --trace 0

Run from the root of a COYOTE source tree. The program is built (CMake,
Release) into .bench_build/ at the root on first use; later runs only
rebuild what changed. Build output goes to stderr. The program's stdout is
passed through: its last line is the JSON result. With --trace 1 the spans
of the traced pass are written to .bench_build/traces/<workload>-seed<N>.json
(Chrome trace-event format).

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        sys.exit(f"run.py: perfbench exited with {run.returncode}")
    json.loads(lines[-1])  # a result line, or an exception and exit 1
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
