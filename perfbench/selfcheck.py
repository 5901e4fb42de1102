#!/usr/bin/env python3
"""Self-check of the benchmark: determinism of its machine-independent
counters, and the traced ledger's bookkeeping.

    python3 perfbench/selfcheck.py [--seed 7] [--heldout-seed 9001] [--seconds 2]

For each workload and for each of the two seeds, runs the perfbench binary twice
untraced and requires identical counters (logs, commits, fsyncs, bytes
written and read, cache hits and misses, rescans, answer digests), then
once traced and requires that the layer self times plus the residual equal
the op wall time.  Every run must report correct == true.  Exits non-zero
on the first failure.  Builds the binary like run.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build() and paths)

WORKLOADS = ["ingest", "scan", "serve"]


def drive(exe, workload, seed, seconds, trace):
    work = os.path.join(run.ROOT, ".bench_build", "perfbench-selfcheck", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = subprocess.run([exe, "--workload", workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", str(trace), "--work-dir", work],
                         stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = json.loads(lines[-2][len("counters: "):])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: incorrect run")
    return result, counters


def check_ledger(workload, seed, metrics):
    wall = metrics["trace.op_wall_s"]["value"]
    parts = sum(v["value"] for k, v in metrics.items()
                if k.endswith("_s") and k != "trace.op_wall_s")
    if abs(wall - parts) > 1e-6 * max(wall, 1.0):
        raise SystemExit(f"FAIL {workload} seed {seed}: layer self times + residual = {parts}, "
                         f"op wall = {wall}")


def main():
    ap = argparse.ArgumentParser(description="benchmark self-check")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--heldout-seed", type=int, default=9001)
    ap.add_argument("--seconds", type=int, default=2)
    a = ap.parse_args()
    exe = run.build()
    for workload in WORKLOADS:
        for seed in (a.seed, a.heldout_seed):
            _, first = drive(exe, workload, seed, a.seconds, 0)
            _, second = drive(exe, workload, seed, a.seconds, 0)
            if first != second:
                diff = {k: (first.get(k), second.get(k)) for k in set(first) | set(second)
                        if first.get(k) != second.get(k)}
                raise SystemExit(f"FAIL {workload} seed {seed}: counters differ {diff}")
            traced, _ = drive(exe, workload, seed, a.seconds, 1)
            check_ledger(workload, seed, traced["metrics"])
            print(f"ok {workload} seed {seed}: {len(first)} counters identical, ledger balanced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
