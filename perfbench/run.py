#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the libraries under src/)
into .bench_build/perfbench below the repository root, then runs the
perfbench binary with the same arguments. Build output goes to stderr, so
the last line of stdout is the benchmark's result JSON. Exits nonzero
without a result if the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_JOBS = "3"


def build(root, here, build_dir):
    generated = [os.path.join(build_dir, name)
                 for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", here, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=root, stdout=sys.stderr).returncode:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", BUILD_JOBS]
    return subprocess.run(compile_cmd, cwd=root,
                          stdout=sys.stderr).returncode == 0


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(root))
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=root,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
