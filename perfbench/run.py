#!/usr/bin/env python3
"""Build and run the spec-to-report benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload capping_week --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the harness
(perfbench/CMakeLists.txt) under .bench_build/perfbench; later calls only
re-check the build. The harness's last stdout line is the JSON result.
Build output goes to stderr, so stdout holds only the harness's report.
A checkout without the library sources fails here, before any result.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build(targets):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from a checkout root holding CMakeLists.txt and src/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets)
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run(argv):
    """Run a built binary, relaying its output; returns its exit code."""
    sys.stdout.flush()
    return subprocess.run(argv).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the C++ and Python self-tests and exit")
    args = parser.parse_args()

    if args.selftest:
        build(["xp_perfbench", "perfbench_selftest"])
        code = run([os.path.join(BUILD_DIR, "perfbench_selftest")])
        if code == 0:
            code = run([sys.executable, os.path.join(BENCH_DIR, "test_perfbench.py")])
        return code

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build(["xp_perfbench"])
    return run([os.path.join(BUILD_DIR, "xp_perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
