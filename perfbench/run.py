#!/usr/bin/env python3
"""Build the repository and run one benchmark workload.

    python3 perfbench/run.py --workload table5 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It builds the gpuwmm CLI and the
harness with dune (output on stderr), removes every GPUWMM_* variable
from the environment, and runs the harness, whose last line of standard
output is the JSON result.  The harness is a child, not an exec of this
process: the peak resident set it reports for itself and its children
must not include dune's.  A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")


def main():
    build = subprocess.run(
        [
            "dune",
            "build",
            "--root",
            ".",
            "./bin/gpuwmm_cli.exe",
            "./perfbench/harness.exe",
            "./perfbench/hostspeed.exe",
        ],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(HARNESS):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUWMM_")}
    sys.stdout.flush()
    return subprocess.run([HARNESS] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
