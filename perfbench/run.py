#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library and the driver in .bench_build/perfbench (Release); later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the driver's JSON result. The exit code is the driver's: 0
when every correctness check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("plan-cold", "serve-mix", "elastic-recovery")
# The driver must exit within 180 s; leave room for the build check.
DRIVER_TIMEOUT_S = 170


def run_checked(cmd, **kwargs):
    """Run @p cmd with stdout sent to stderr; exit 1 if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: %s failed (exit %d)\n"
                         % (" ".join(cmd), proc.returncode))
        sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the driver and waits for it on timeout.
        sys.stderr.write("perfbench: driver exceeded %d s\n"
                         % DRIVER_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
