#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the repository root:

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go to perf.exe unchanged (see README.md).  The build uses
dune's default build directory with its shared cache off and its
temporary files inside the build directory, so nothing outside the
checkout is read or written.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXE = os.path.join(ROOT, "_build", "default", "bench", "perf", "perf.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("run.py: %s is not a checkout of the simulator\n" % ROOT)
        return 2
    tmp = os.path.join(ROOT, "_build", ".perf-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./bench/perf/perf.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
