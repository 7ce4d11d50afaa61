#!/usr/bin/env python3
"""Build the Nimble benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a Nimble source tree.  The executable is built
with dune into .perfbench_build/ (release profile, dune cache off, so
nothing is written outside the tree); its standard output, whose last
line is the JSON result, passes through unchanged.  Build output goes to
standard error.  Exits non-zero without a result when the tree holds no
Nimble sources or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no Nimble sources (dune-project, lib/) under " + ROOT,
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet", "perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    return done.returncode


def main():
    status = build()
    if status != 0:
        return status
    try:
        done = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
