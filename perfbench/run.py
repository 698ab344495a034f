#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim_paper --seed 1 --seconds 20 \
        --trace 0

Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md
explains them. The build goes to $CARGO_TARGET_DIR (default .bench_build)
under the checkout. Everything the C++ program prints is passed through; the
last line of stdout is the run's JSON result, checked here against
BENCHMARK.json. Exits non-zero, without a result line, when the build or the
run fails or the result does not match the declared metrics.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    build_dir = target_dir / "perfbench-cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
            check=False)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        check=False)
    if compile_.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def check_result(line, expected_names):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing attempted")
    metrics = result["metrics"]
    if list(metrics) != expected_names:
        missing = set(expected_names) - set(metrics)
        extra = set(metrics) - set(expected_names)
        fail(f"metric set differs from BENCHMARK.json: missing "
             f"{sorted(missing)} extra {sorted(extra)}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} is not a finite number")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = pathlib.Path("BENCHMARK.json")
    if not spec_path.exists():
        spec_path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    section = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}

    target_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--span-dir", str(target_dir / "spans")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"perfbench exited with {run.returncode}")
    result = check_result(lines[-1], expected)
    for name, entry in result["metrics"].items():
        if entry.get("unit") != units[name]:
            fail(f"{name} unit {entry.get('unit')!r} != {units[name]!r}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
