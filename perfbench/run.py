#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload replay|sessions|txn|all \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (CMake, Release, -O3 -DNDEBUG);
build output goes to standard error so the binary's last line of
standard output stays its JSON result.  The protocol is named here, not
taken from $THINLOCKS_PROTOCOL: ThinLock, the registry default.
"""

import argparse
import os
import subprocess
import sys

PROTOCOL = "ThinLock"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; the binary's own work is bounded
# by --seconds, so this only catches a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: "
                  f"{' '.join(step)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "sessions", "txn", "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--protocol", PROTOCOL]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
