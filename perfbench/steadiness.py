#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly and compares its spread
with the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload <name> [--runs 10] [--first-seed 1] [--sets 1]

Each run uses the next seed. For every end-to-end metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), and the
spread (Q3 - Q1) / median next to the metric's bound. A spread at most a
third of the bound is "steady", at most the bound "ok", above it "OVER"
(setup_s is exempt from the spread rule). With --sets 2 the runs are
repeated with the same seeds and the two medians compared against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"run failed (seed {seed}):\n{out.stdout}")
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        sys.exit(f"incorrect results (seed {seed}): {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric, first, second):
    """Relative worsening of `second` against `first` (negative = better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    medians = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(args.workload, args.first_seed + i, args.seconds))
            print(f"set {s + 1} run {i + 1}/{args.runs}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        print(f"\n{args.workload}, set {s + 1}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':24} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}  verdict")
        med = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            med[m["name"]] = q2
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "OVER"
            print(f"{m['name']:24} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{m['bound']:6.3f}  {verdict}")
        medians.append(med)
    if args.sets == 2:
        print("\nsecond set against first (positive = worse):")
        for m in spec["end_to_end"]:
            w = worse(m, medians[0][m["name"]], medians[1][m["name"]])
            verdict = "ok" if w <= m["bound"] else "OVER"
            print(f"{m['name']:24} {w:+8.4f} bound {m['bound']:.3f}  {verdict}")


if __name__ == "__main__":
    main()
