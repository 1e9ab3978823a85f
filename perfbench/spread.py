#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds S]

Runs the benchmark --runs times, each with another seed, and prints for
every end-to-end metric its median, quartiles and interquartile spread as
a share of the median, next to the metric's bound in BENCHMARK.json. This
is how the bounds were chosen, and how a steady benchmark is told from a
noisy one before comparing two commits.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit("run with seed %d failed" % seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4f" % (n, v[-1]) for n, v in values.items())),
            flush=True)

    print("%-18s %12s %12s %12s %8s %8s" % (
        "metric", "q1", "median", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = metrics.quartiles(v)
        print("%-18s %12.5f %12.5f %12.5f %8.4f %8.4f" % (
            m["name"], q1, q2, q3, metrics.relative_spread(v), m["bound"]))


if __name__ == "__main__":
    main()
