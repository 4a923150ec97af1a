#!/usr/bin/env python3
"""Builds and runs the ASTRAL benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which builds the analyzer
library from the checkout's sources) into .bench_build/; later runs only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
        if rc != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, target)


def main():
    selftest = sys.argv[1:] == ["--selftest"]
    binary = build("perfbench_selftest" if selftest else "perfbench")
    if binary is None:
        return 1
    args = [] if selftest else sys.argv[1:]
    try:
        return subprocess.run([binary] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
