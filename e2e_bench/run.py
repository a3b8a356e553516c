#!/usr/bin/env python3
"""Builds and runs the end-to-end transaction benchmark (e2e_bench/).

    python3 e2e_bench/run.py --workload cached_mixed --seed 1 --seconds 25 --trace 0

Builds the BeSS library from this checkout's sources together with the
benchmark (Release, under .bench_build/), runs the benchmark's statistics
self-test, then runs one workload in a fresh scratch directory under
.bench_build/ and removes it afterwards. The last line of stdout is the
benchmark's JSON result; it is printed only when its metric names and units
match BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
Exits non-zero, printing no result, when the build, the self-test or the run
fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally after the first run); output
    goes to stderr."""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def valid(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    return got == expected and all(
        isinstance(m.get("value"), (int, float))
        for m in result["metrics"].values())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "e2e_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        log("statistics self-test failed")
        return 1

    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "e2e_bench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=work, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or not valid(result, expected_metrics(args.trace)):
        log("benchmark printed no valid result (exit %d)" % proc.returncode)
        return 1
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
