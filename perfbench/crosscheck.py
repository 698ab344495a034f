#!/usr/bin/env python3
"""Cross-checks sim_paper against the paper-figure benches.

For one seed, every per-point p99.9 slowdown sim_paper computes must equal
what bench/fig03_high_bimodal_policies (High Bimodal: c-FCFS, DARC) and
bench/fig06_tpcc (TPC-C: Shenango c-FCFS, DARC) print for the same seed and
window, and its EDF point's miss rate must equal bench/fig_deadline's EDF row
at 80% load. This proves the benchmark drives the same code paths as the
figures. Run from the root of a checkout after perfbench/run.py has built:

    python3 perfbench/crosscheck.py --seed 1

Exits 1 on any mismatch.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
# Windows sim_paper uses (perfbench/src/sim.cc: kPointDuration, kEdfDuration).
POINT_MS = 500
EDF_MS = 8000


def csv_rows(binary, seed, duration_ms):
    env = dict(os.environ, PSP_BENCH_SEED=str(seed),
               PSP_BENCH_DURATION_MS=str(duration_ms), PSP_BENCH_CSV="1")
    out = subprocess.run([str(binary)], env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    header = None
    rows = []
    for line in out.splitlines():
        cells = line.split(",")
        if header is None:
            if "p999_slowdown" in cells:
                header = cells
            continue
        if len(cells) == len(header):
            rows.append(dict(zip(header, cells)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target / "perfbench-cmake"
    if not (build_dir / "perfbench").exists():
        sys.exit("build perfbench first: python3 perfbench/run.py ...")
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "fig03_high_bimodal_policies", "fig06_tpcc",
                    "fig_deadline", "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL)

    bench = subprocess.run(
        [str(build_dir / "perfbench"), "--workload", "sim_paper", "--seed",
         str(args.seed), "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    ours = {}
    for line in bench.splitlines():
        if line.startswith("point "):
            _, sweep, policy, load, p999, miss = line.split()
            ours[(sweep, policy, load)] = (p999, miss)

    theirs = {}
    for row in csv_rows(build_dir / "fig03_high_bimodal_policies", args.seed,
                        POINT_MS):
        if row["policy"] in ("c-FCFS", "DARC"):
            theirs[("hb", row["policy"], row["load"])] = row["p999_slowdown"]
    names = {"shenango-c-FCFS": "c-FCFS", "persephone-DARC": "DARC"}
    for row in csv_rows(build_dir / "fig06_tpcc", args.seed, POINT_MS):
        if row["system"] in names:
            theirs[("tpcc", names[row["system"]], row["load"])] = \
                row["p999_slowdown"]
    edf_theirs = None
    for row in csv_rows(build_dir / "fig_deadline", args.seed, EDF_MS):
        if row["policy"] == "EDF" and row["load"] == "0.80" and \
                row["workload"] == "high-bimodal":
            edf_theirs = row["miss_rate_pct"]

    mismatches = 0
    compared = 0
    for key, figure_value in sorted(theirs.items()):
        mine = ours.get(key, (None, None))[0]
        compared += 1
        if mine != figure_value:
            mismatches += 1
            print(f"MISMATCH {key}: sim_paper {mine} vs figure {figure_value}")
    edf_ours = ours.get(("hb", "EDF", "0.80"), (None, None))[1]
    compared += 1
    if edf_ours != edf_theirs:
        mismatches += 1
        print(f"MISMATCH EDF miss rate: sim_paper {edf_ours} vs "
              f"fig_deadline {edf_theirs}")
    print(f"seed {args.seed}: {compared} values compared, "
          f"{mismatches} mismatches")
    sys.exit(1 if mismatches or compared < 41 else 0)


if __name__ == "__main__":
    main()
