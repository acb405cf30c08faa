#!/usr/bin/env python3
"""Runs one workload of the monitor's end-to-end benchmark.

    python3 perfbench/run.py --workload net_quiet|sim_churn|engine_bursty \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the library and the
benchmark binary from source into .bench_build/perfbench (CMake, Release);
later calls reuse that build. The binary's table goes to stdout, and the last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of the
traced pass with --trace 1.

Exit status: 0 with a result line; 1 without one (build failure, a
crash before anything was measured, or a traced run that did not finish).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BINARY_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary. Returns False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind: the next call starts over.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", BUILD_JOBS]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def valid_result(obj):
    return (isinstance(obj, dict) and set(obj) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(obj["attempted"], int) and obj["attempted"] >= 1
            and isinstance(obj["metrics"], dict) and obj["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log(f"build ready after {time.monotonic() - started:.1f} s")

    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", spans_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {BINARY_TIMEOUT_S} s and was killed")
        return 1
    lines = proc.stdout.splitlines()

    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if valid_result(result):
            for line in lines[:-1]:
                print(line)
            print(json.dumps(result), flush=True)
            return 0
        log("benchmark binary printed no valid result line")
        return 1

    for line in lines:
        print(line)
    log(f"benchmark binary exited with status {proc.returncode}")
    # A verification pass that aborts (strict mode's Oracle check failed)
    # leaves the end-to-end metrics behind: every step then counts as failed.
    measured = [l for l in lines if l.startswith("measured: ")]
    if args.trace == 0 and measured:
        partial = json.loads(measured[-1][len("measured: "):])
        partial["correct"] = False
        partial["failed"] = partial["attempted"]
        if valid_result(partial):
            print(json.dumps(partial), flush=True)
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
