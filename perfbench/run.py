#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Build output goes to stderr; the binary's standard output is passed
through, so the last line printed is its JSON result. The exit code is the
binary's, or non-zero (with no result line) when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TESTDATA = os.path.join(ROOT, "tools", "testdata")
# The binary measures for --seconds; set-up, the warm-up op and the
# golden checks come on top, and the whole run must end within 180 s.
BINARY_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as err:
            print("perfbench: cannot run %s: %s" % (cmd[0], err),
                  file=sys.stderr)
            return False
        if rc != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--testdata", TESTDATA]
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: binary exceeded %d s" % BINARY_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
