#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload frontend --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds bin/sufdec.exe and perfbench/bench.exe
with dune (release profile, build directory .bench_build), then runs the
benchmark, which prints one JSON result line last on standard output.
Spans of traced runs and the serve workload's sockets live in .bench_out.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("frontend", "search", "certified", "serve")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here")
    cmd = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR,
        "./perfbench/bench.exe", "./bin/sufdec.exe",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    exe = os.path.join(BUILD_DIR, "default")
    cmd = [
        os.path.join(exe, "perfbench", "bench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--sufdec", os.path.join(exe, "bin", "sufdec.exe"),
        "--out", OUT_DIR,
    ]
    # Its own process group, so a stuck run and any server it spawned can
    # be stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
