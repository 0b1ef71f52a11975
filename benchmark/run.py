#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --seed 0     # every workload, one child each
    python3 benchmark/run.py --quick      # smoke run of every workload

Run it from the root of a checkout; every argument passes through to
benchmark/run.exe.  The build keeps dune's shared cache off so that
nothing is written outside the checkout.
"""

import os
import subprocess
import sys

# A single-workload run must end well within three minutes.
WORKLOAD_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "./benchmark/run.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "benchmark", "run.exe")
    timeout = WORKLOAD_TIMEOUT_S if "--workload" in sys.argv else None
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("benchmark: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
