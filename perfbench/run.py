#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe (and the simulator libraries it links) with dune,
then runs it with the same arguments. Its last line of standard output is
the JSON result; the exit code is the benchmark's (1 when an output check
fails). Exits 2 without printing a result when the checkout lacks the
simulator sources or the build fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ not found)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
