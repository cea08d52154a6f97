#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

    python3 bench/e2e/run.py --workload W --seed N [--seconds S] [--trace 0|1]

Configures and builds bench/e2e (which compiles the engine from src/)
into .bench_build/e2e at the repository root, then runs the binary with
the given arguments. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")


def build():
    # The compiler's temporary files stay in the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j",
             str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
