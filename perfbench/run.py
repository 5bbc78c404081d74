#!/usr/bin/env python3
"""Build and run the serving-path benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src)
under .bench_build/perfbench; later calls rebuild only what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. --self-test builds and runs the benchmark's own tests instead.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "cluster.hpp")):
        fail("program sources not found under ./src (run from the repository root)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_tests")], timeout=RUN_TIMEOUT_S).returncode
        binary = build("perfbench")
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        return subprocess.run([binary, *argv, "--out", OUT_DIR],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
