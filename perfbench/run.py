#!/usr/bin/env python3
"""Build the benchmark on a release profile and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (dune's shared cache off, so nothing is
written outside the checkout); the benchmark's own output follows, its
last line a JSON object. Exits non-zero without a result when the
checkout holds no source to build, the build fails, or the run fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env, **kw):
    """Run [cmd] to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, env=env, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd), 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("no %s here: run from the root of a full checkout" % path, 2)
    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, TARGET]
    if run(build, BUILD_TIMEOUT_S, env, stdout=sys.stderr) != 0:
        fail("build failed", 1)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.exit(run([exe] + sys.argv[1:], RUN_TIMEOUT_S, env))


if __name__ == "__main__":
    main()
