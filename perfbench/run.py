#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt into
.bench_build/perfbench at the repository root; later calls rebuild only what
changed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A
per-layer metric whose layer a workload does not exercise reports 0 and is
named on the line before. Exits non-zero, printing no result, when the build
or the run fails.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170  # every run must end within 180 s


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    binary = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + generator, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0 or not os.path.exists(binary):
        fail("build failed", 2)
    return binary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    t0 = time.monotonic()
    binary = build()

    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"]).returncode)

    work = os.path.join(BUILD, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    limit = max(30.0, RUN_LIMIT_S - (time.monotonic() - t0))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {limit:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"benchmark exited with {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("benchmark printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} missing")
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']} in BENCHMARK.json")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = sorted(set(raw["metrics"]) - set(metrics))
    if extra:
        fail(f"metrics not declared in BENCHMARK.json: {', '.join(extra)}")

    for line in lines[:-1]:
        print(line)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"# not exercised on {args.workload} (reported as 0): {', '.join(absent)}")
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
