#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs each workload N times with consecutive seeds and prints, for every
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives them.  A
metric whose spread exceeds its bound is flagged FAIL; one above a third
of its bound is flagged "wide".  Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1

Every workload in BENCHMARK.json runs at its run_seconds.  Exits 1 when
a run fails, reports incorrect output, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw, ok = {}, True
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else None
            took = time.time() - t0
            if p.returncode != 0 or not res or not res["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {p.returncode})\n{p.stderr[-2000:]}", file=sys.stderr)
                continue
            print(f"{name} seed {seed}: {took:.1f}s", file=sys.stderr)
            runs.append(res)
        raw[name] = runs

    for name in names:
        runs = raw[name]
        print(f"\n{name}: {len(runs)} runs")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            if len(vals) < 2:
                print(f"  {metric:<20} (too few values)")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "FAIL"
                ok = False
            elif spread > bound / 3:
                flag = "wide"
            print(f"  {metric:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
