#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed and reports, for each
metric, the median and the interquartile spread as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload rt_ring --seeds 1-10 [--trace 0]

A spread above a third of the bound is flagged; above the bound, the
benchmark is not steady enough to gate on that metric.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        if run.returncode != 0:
            print(f"seed {seed}: run failed ({run.returncode})")
            continue
        lines = run.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", flush=True)
        for line in lines:
            if line.startswith("CHECK FAILED") or line.startswith("host:"):
                print(f"  {line}", flush=True)
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])

    print(f"\n{args.workload}: {'metric':30} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{args.workload}: {name:30} {median:12.6g} {spread:8.2%} "
              f"{'' if bound is None else bound:>6}{flag}")
        print(f"{'':{len(args.workload) + 2}}  values: "
              + " ".join(f"{v:.5g}" for v in vals))


if __name__ == "__main__":
    main()
