#!/usr/bin/env python3
"""Steadiness self-check: two interleaved sets of runs of the same code.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

For every workload it makes ten runs in set A and ten in set B,
alternating A and B, each with its own seed from 4000 up, through
`perfbench/run.py` with the `run_seconds` of BENCHMARK.json. It prints
every run's end-to-end metrics with the host diagnostics line
(`host.clock_ns`, `host.calib_ms`, `host.cache_probe_ms`), so a run
taken in a slow host phase can be tied to it, and then, per workload
and metric: each set's median and IQR/median, and the set-to-set
difference of the medians, all against the metric's bound. A spread or
a set-to-set difference over the bound is marked FAIL, the rule
BENCHMARK.json's bounds promise; `setup_s` is held only to the
set-to-set rule.
"""

import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SEED_BASE = 4000
HOST_RE = re.compile(
    r"host: clock_ns=([0-9.]+) calib_ms=([0-9.]+) cache_probe_ms=([0-9.]+)"
)


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((HOST_RE.search(l) for l in lines if HOST_RE.search(l)), None)
    result["host"] = (
        {
            "clock_ns": float(host.group(1)),
            "calib_ms": float(host.group(2)),
            "cache_probe_ms": float(host.group(3)),
        }
        if host
        else {}
    )
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for j, label in enumerate("AB" if i % 2 == 0 else "BA"):
                seed = SEED_BASE + 2 * i + j
                r = run_once(w, seed, seconds)
                sets[label].append(r)
                vals = " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                )
                print(
                    f"{w} set {label} seed {seed}: correct={r['correct']} "
                    f"failed={r['failed']}/{r['attempted']} {vals} "
                    f"host.clock_ns={r['host'].get('clock_ns')} "
                    f"host.calib_ms={r['host'].get('calib_ms')} "
                    f"host.cache_probe_ms={r['host'].get('cache_probe_ms')}",
                    flush=True,
                )
                failed |= not r["correct"]
        print(f"\n{w}: {RUNS} runs per set, {seconds} s each")
        print(f"  {'metric':<18} {'bound':>6} {'med A':>12} {'iqr A':>7} "
              f"{'med B':>12} {'iqr B':>7} {'A->B':>7}")
        for name, bound in bounds.items():
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            (ma, sa), (mb, sb) = spread(a), spread(b)
            diff = abs(mb - ma) / ma
            bad = diff > bound or (name != "setup_s" and max(sa, sb) > bound)
            failed |= bad
            print(f"  {name:<18} {bound:>6.3f} {ma:>12.6g} {sa:>7.4f} "
                  f"{mb:>12.6g} {sb:>7.4f} {diff:>7.4f} {'FAIL' if bad else 'ok'}")
        print(flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
