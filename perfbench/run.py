#!/usr/bin/env python3
"""Builds and runs the TelegraphCQ end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload filter_fanout --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The engine (../src) and tcq_bench are compiled
in Release mode into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); work files and traces go to <that root>/work. The
last stdout line is the JSON result; with --workload all, each workload's
line is printed and the last line merges them, metrics prefixed by workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("filter_fanout", "join_durable", "window_sliding")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds; returns the tcq_bench path or None."""
    exe = os.path.join(build_dir, "tcq_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                        "--target", "tcq_bench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(exe):
        return None
    return exe


def run_one(exe, work, workload, a):
    """Runs one workload; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run(
            [exe, "--workload", workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4, []
    return r.returncode, r.stdout.splitlines()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(os.path.join(out_root, "perfbench"))
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 3
    work = os.path.join(out_root, "work")
    os.makedirs(work, exist_ok=True)

    if a.workload != "all":
        code, lines = run_one(exe, work, a.workload, a)
        for line in lines:
            print(line)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines = run_one(exe, work, workload, a)
        worst = worst or code
        if code != 0 or not lines:
            merged["correct"] = False
            continue
        print(f"{workload}: {lines[-1]}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    if worst != 0:
        return worst
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
