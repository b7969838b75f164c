"""Steadiness check: run each workload with several seeds, print the spread.

Usage, from the repository root:
    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [workload ...]

For every end-to-end metric it prints the median and the quartile distance
as a share of the median (stats.spread) over the runs, next to a third of the
metric's bound from BENCHMARK.json, the level the spread should stay below.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            print(
                f"{workload:9s} {m['name']:12s} median={statistics.median(v):.6g} "
                f"spread={stats.spread(v):.4f} bound/3={m['bound'] / 3:.4f} "
                f"values={[round(x, 4) for x in v]}",
                flush=True,
            )


if __name__ == "__main__":
    main()
