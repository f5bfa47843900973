#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <llc-demand|kv-tier|serve-sweeps> \
        --seed <n> --seconds <s> --trace <0|1>

The program is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`) and run with the same arguments. Its standard output is
passed through; the last line is the JSON result. The exit code is the
program's, or 1 when the build fails or the result line is malformed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run ends well within 180 s on the reference host; a hung daemon or
# sim is stopped rather than left running.
RUN_TIMEOUT_S = 170
# glibc raises its mmap threshold after freeing a large block, so whether
# a simulator's multi-MB arrays come from mmap or a thread's heap, and
# with them the peak resident set, drifts from run to run (25 to 118 MB
# for serve-sweeps). Pinning the threshold at its initial 128 KiB makes
# peak_rss_mb a property of the program's allocations.
RUN_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def build(target_dir):
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    try:
        proc = subprocess.run(
            [binary] + sys.argv[1:],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            env=dict(os.environ, **RUN_ENV),
        )
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"perfbench: result keys {sorted(result)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
