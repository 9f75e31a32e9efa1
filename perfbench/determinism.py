#!/usr/bin/env python3
"""Checks that the benchmark's deterministic counts repeat exactly.

    python3 perfbench/determinism.py [--seeds 1 2] [--workloads plan-geant ...]

The counts are the "# counts {...}" line perfbench prints before its result:
per timed call its call count, LP solves and LP pivots, plus split.iters,
lies.fake_nodes, lies.routers_lied_to, the saved reoptimize iterations and
te_ratio / te_ratio_exact. For every workload and seed they must be
identical
  * between two untraced runs,
  * between an untraced and a traced run (the traced run also compares its
    own untraced and traced pass, and reports correct=false on a mismatch),
and on plan-fattree12 also between COYOTE_THREADS=4 (the workload's
setting) and COYOTE_THREADS=1. Every run must report correct=true.

Builds the program with run.py's build step first. Takes a few minutes per
seed (serve-geant dominates). Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

WORKLOADS = ["plan-geant", "serve-geant", "plan-fattree12"]


def counts(workload, seed, trace, threads=None):
    cmd = [os.path.join(bench.BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=bench.RUN_TIMEOUT_S).stdout.splitlines()
    result = json.loads(out[-1])
    line = next(l for l in out if l.startswith("# counts "))
    return result["correct"], line[len("# counts "):]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS)
    args = ap.parse_args()
    bench.build()

    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            runs = {"untraced": counts(workload, seed, 0),
                    "untraced again": counts(workload, seed, 0),
                    "traced": counts(workload, seed, 1)}
            if workload == "plan-fattree12":
                runs["COYOTE_THREADS=1"] = counts(workload, seed, 0, threads=1)
            ref = runs["untraced"][1]
            for name, (correct, c) in runs.items():
                same = c == ref
                ok = ok and correct and same
                print(f"{workload} seed {seed} {name}: "
                      f"correct={correct} counts {'match' if same else 'DIFFER'}")
                if not same:
                    print(f"  want {ref}\n  got  {c}")
    print("determinism: " + ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
