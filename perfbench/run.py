#!/usr/bin/env python3
"""Run one workload of the flow benchmark.

Builds the benchmark (perfbench/flowbench.exe) and the compile daemon
(bin/amdreld.exe) from source with dune, then runs the workload and
passes its output through; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload route-heavy --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("route-heavy", "place-timing", "edit-serve")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(os.path.join(ROOT, p))
               for p in ("dune-project", "lib", "bin/amdreld.ml")):
        print("run.py: no AMDREL source tree beside perfbench/ "
              "(dune-project, lib/, bin/amdreld.ml)", file=sys.stderr)
        return 2

    # the dune cache lives outside the tree; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2",
         "./perfbench/flowbench.exe", "./bin/amdreld.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "flowbench.exe")
    daemon = os.path.join(ROOT, "_build", "default", "bin", "amdreld.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon]
    # With address-space layout randomisation one compile's time moves by
    # up to +-15 % from one process to the next (heap and code alignment).
    # The benchmark and every process it starts run with it off, so runs
    # differ by code, not by layout.
    if shutil.which("setarch"):
        cmd = ["setarch", "-R"] + cmd
    else:
        print("run.py: setarch not found; layout randomisation stays on "
              "and times spread more", file=sys.stderr)
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
