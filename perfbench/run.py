#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the perfbench executables and the
anthill library from source into .bench_build/ (incremental after the
first run), runs one workload — untraced on perfbench, traced on
perfbench-traced, which adds the counting allocator — and prints the
report of the run; the last line of stdout is the result JSON: {"correct",
"attempted", "failed", "metrics"}. BENCHMARK.json is the one list of
metric names and units: the reported metrics are checked against it, and
a per-layer metric of a layer the workload does not exercise reads 0.
Build output goes to stderr. Exits non-zero, without a result line, when
the checkout lacks the library sources or anything fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "anthill.hpp").is_file():
        fail(f"{root} is not an anthill checkout (no CMakeLists.txt or src/anthill.hpp)")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "perfbench-traced", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def checked_metrics(reported, listed, fill_missing):
    """The listed metrics, in list order, with the reported values.

    A reported metric that is not listed, or has another unit, is a bug. A
    listed one that was not reported reads 0 if `fill_missing`, else is a bug.
    """
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in reported.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not listed in BENCHMARK.json")
    metrics = {}
    for name, unit in units.items():
        if name not in reported and not fill_missing:
            fail(f"{name} was not reported")
        metrics[name] = reported.get(name, {"value": 0.0, "unit": unit})
    return metrics


def main():
    root = Path(__file__).resolve().parent.parent
    try:
        benchmark = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = root / ".bench_build"
    build_dir = bench_dir / "perfbench"
    build(root, build_dir)
    traced = args.trace == "1"
    binary = build_dir / ("perfbench-traced" if traced else "perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(bench_dir / "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        fail("the last line of perfbench's output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    listed = benchmark["per_layer" if traced else "end_to_end"]
    result["metrics"] = checked_metrics(result["metrics"], listed, fill_missing=traced)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
