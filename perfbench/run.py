#!/usr/bin/env python3
"""End-to-end shedding benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload sim_fig14|rt_web|cluster_ingress \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark and the libraries under src/ into .bench_build/ (a Release
build); later calls only rebuild what changed. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the traced replay,
whose spans land in perfbench-out/. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every output check passed. --self-test runs the unit
tests of the checks and statistics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("sim_fig14", "rt_web", "cluster_ingress")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write(f"perfbench: {' '.join(cmd)}: {err}\n")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: the run timed out\n")
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(f"perfbench: no result (exit code {proc.returncode})\n")
        return proc.returncode or 4
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
