#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed for each named workload and prints,
for every end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of that median — the
figure BENCHMARK.json's bounds are set against.

    python3 perfbench/spread.py --workloads serve_ingest batch_sql --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, "0") for s in args.seeds]
        print(f"{workload}: {len(runs)} runs, "
              f"all correct: {all(r['correct'] for r in runs)}")
        ok = ok and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread < bound / 3 else "  <-- over a third of bound"
            print(f"  {name:18s} median {median:14.4f}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
