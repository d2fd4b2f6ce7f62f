#!/usr/bin/env python3
"""Served-repair benchmark entry point.

Builds `tml serve` and the load generator from source with dune, then runs
one workload and passes its output through; the last stdout line is the
JSON result.  Run from the repository root:

    python3 perfbench/run.py --workload repair-mix --seed 1 --seconds 20 --trace 0

Workloads: repair-mix, serve-hot, watch-stream (see perfbench/README.md).
"""

import argparse
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
TML = "_build/default/bin/tml_cli.exe"
RUN_TIMEOUT_S = 170


def commit():
    # only a checkout of its own: never let git walk up to a parent repo
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["repair-mix", "serve-hot", "watch-stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run from the root of a tml checkout (dune-project and lib/ missing)",
              file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "--root", ".", BENCH, TML],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tml", TML, "--commit", commit()]
    # its own process group, so a timeout also reaches the servers it started
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        print("benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
