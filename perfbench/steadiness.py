"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads paper_ycsb fleet_sparse \\
        --seeds 1 2 3 4 5 --seconds 8

For each workload and end-to-end metric it prints the median over the
seeds and the quartile distance over the median, next to the bound that
``BENCHMARK.json`` fixes for the metric. A spread above a third of its
bound means the metric is not steady enough to judge a change by.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                status = 1
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, series in values.items():
            q1, mid, q3 = quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:22s} median {median(series):12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in series))
    return status


if __name__ == "__main__":
    sys.exit(main())
