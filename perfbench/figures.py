"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/figures.py [--runs 10] [--seconds 40] [--workload NAME ...]

Runs the benchmark --runs times per workload with --trace 0, seeds 1..runs,
taking the workloads in turn for each seed, then once per workload with
--trace 1 (seed 1), and prints Markdown tables:
the median and the quartile spread (Q3 - Q1) / median of each end-to-end
metric, as statistics.quantiles(values, n=4) gives them, and the per-layer
metrics of the traced run.  Takes about (runs + 1) * seconds per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {json.dumps(result)}", file=sys.stderr, flush=True)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    results = {w: [] for w in args.workload}
    for seed in range(1, args.runs + 1):
        for w in args.workload:
            results[w].append(bench(w, seed, args.seconds, 0))
    traced = {w: bench(w, 1, args.seconds, 1)["metrics"] for w in args.workload}

    print("| workload | metric | median | (Q3 - Q1) / median | min | max | failed share |")
    print("|---|---|---|---|---|---|---|")
    for w, runs in results.items():
        shares = sorted({f"{r['failed'] / r['attempted']:g}" for r in runs})
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {w} | {name} ({first['unit']}) | {med:.4g} | "
                  f"{(q3 - q1) / med:.4f} | {min(vals):.4g} | {max(vals):.4g} | "
                  f"{', '.join(shares)} |")

    print()
    print("| metric | unit | " + " | ".join(args.workload) + " |")
    print("|---|---|" + "---|" * len(args.workload))
    first = traced[args.workload[0]]
    for name, m in first.items():
        vals = " | ".join(f"{traced[w][name]['value']:.4g}" for w in args.workload)
        print(f"| {name} | {m['unit']} | {vals} |")


if __name__ == "__main__":
    main()
