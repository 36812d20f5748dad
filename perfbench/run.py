#!/usr/bin/env python3
"""Build and run the srp benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper-sweep, fuzz-matrix or serve-batch (see perfbench/README.md).
The script builds perfbench/srpbench.exe with dune, runs it, adds the peak
resident memory of the benchmark process to its metrics (trace 0), and
prints the result object as the last line of stdout.  It exits non-zero,
without a result, when the checkout, the build or the run fails.
Extra arguments (--size tiny, --perturb-ref) are passed to the program.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

# A run measures for --seconds plus at most one pass; beyond this it hangs.
RUN_LIMIT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "srpbench.exe")
NEEDED = ["dune-project", "lib", "bench/baseline.json", "perfbench/dune"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["paper-sweep", "fuzz-matrix", "serve-batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = ap.parse_known_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        die("run from the root of an srp checkout; missing: " + ", ".join(missing))

    # dune's shared cache lives outside the checkout: keep the build inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    # serve-batch's domain pool leaves one core to the rest of the host: on
    # two shared cores, a pool on both stalled whenever the host took either
    # core, and over ten runs its median batch time spread by up to 0.25
    env.setdefault("SRP_BENCH_JOBS", str(max(1, len(os.sched_getaffinity(0)) - 1)))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/srpbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        die(f"dune build failed (exit {build.returncode})")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(RUN_LIMIT_S, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read()
        # wait4, not wait: it also returns the child's own peak RSS
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        child.stdout.close()
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"srpbench exited with {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("srpbench printed no result line")
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        print(f"{'peak_rss_mb':<26} {peak_mb:16.6f} MB")
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
