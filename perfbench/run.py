#!/usr/bin/env python3
"""Builds the pqidx service benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 30 --trace 0

Every run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; only the first run compiles everything.
Stores and span files go to .../perfbench-work. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits nonzero, without a result
line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def run_step(cmd, timeout):
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an up-to-date build directory is quick and changes
    # nothing; running it every time also repairs an interrupted one.
    run_step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")
    try:
        binary = build(os.path.join(base, "perfbench"))
    except (OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(base, "perfbench-work")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
