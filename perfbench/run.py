#!/usr/bin/env python3
"""Builds the MISSL benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-interactive --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds the repository's own CMake project
(only the library, the shipped missl_serve binary and missl_perfbench)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
rebuild incrementally. Build output goes to stderr. The stdout of
missl_perfbench is passed through unchanged: its last line is the JSON
result. The exit code is that of missl_perfbench (non-zero when any
operation failed), or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-interactive", "serve-catalog", "train-eval")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds missl_perfbench; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "missl_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        return 2
    cmd = [os.path.join(build_dir, "missl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(ROOT, ".bench_run")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
