#!/usr/bin/env python3
"""Builds ldb_bench and runs it (bench/e2e/README.md).

Every argument goes to ldb_bench:

    python3 bench/e2e/run.py --workload lookup --seed 1 --seconds 20 --trace 0

The first run configures and builds bench/e2e, which pulls in the whole
repository, into bench/e2e/.build (a few minutes); later runs rebuild only
what changed. Build output goes to stderr, so the last line on stdout stays
ldb_bench's JSON result. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "ldb_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(1)


def main():
    build()
    exe = os.path.join(BUILD, "ldb_bench")
    sys.stdout.flush()
    os.execv(exe, [exe, "--out", os.path.join(BUILD, "out")] + sys.argv[1:])


if __name__ == "__main__":
    main()
