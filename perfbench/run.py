#!/usr/bin/env python3
"""Builds the warpc benchmark from this checkout and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold_large --seed 1 --seconds 10 --trace 0

The program (warpc, warpd, warp-worker) and the benchmark driver are built
from source into .bench_build (or $CARGO_TARGET_DIR when set) on the first
run; later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the driver's JSON result. Every other argument
is passed to the driver unchanged; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TARGETS = ["warpbench"]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("perfbench: no warpc sources in %s\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", HERE, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
        ]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + BUILD_TARGETS
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(build_dir, "warpbench")
    sys.stdout.flush()
    return subprocess.call([binary, "--root", ROOT] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
