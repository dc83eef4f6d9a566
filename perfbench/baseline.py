#!/usr/bin/env python3
"""Record the benchmark baseline into perfbench/baseline.json.

    python3 perfbench/baseline.py

For each workload: ten untraced runs, with seeds 1 to 10, give the median and
quartiles of every end-to-end metric; two traced runs give the per-layer
metrics, whose exact counts must agree.  Every run lasts ``run_seconds`` of
BENCHMARK.json and goes through ``run.py`` exactly as an outside caller's
would, one run at a time.  One more traced pass per CLI command (seed 1)
records which kernels each command calls.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

RUNS = 10
OUT = os.path.join(HERE, "baseline.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def calls_by_command(name: str) -> dict:
    """Non-zero kernel call counts of one traced pass of each command's invocations."""
    by_command = {}
    for argv, _ in workloads.inputs(name, 1):
        by_command.setdefault(argv[0], []).append(argv)
    out = {}
    for command, argvs in by_command.items():
        calls = run.run_pass(argvs, True, run.Deadline(600))["trace"]["calls"]
        out[command] = {k: n for k, n in calls.items() if n}
    return out


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"machine": machine(), "seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [bench(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = [bench(name, 1, seconds, 1) for _ in range(2)]
        end_to_end = {
            metric: spread([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        counts = {
            k: m["value"] for k, m in traced[0]["metrics"].items() if m["unit"] != "s"
        }
        repeat = counts == {k: m["value"] for k, m in traced[1]["metrics"].items() if m["unit"] != "s"}
        layers = {
            k: statistics.median(t["metrics"][k]["value"] for t in traced)
            for k, m in traced[0]["metrics"].items() if m["unit"] == "s"
        }
        report["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs + traced),
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": end_to_end,
            "pinned_counts": counts,
            "counts_repeat": repeat,
            "layer_seconds": layers,
            "calls_by_command": calls_by_command(name),
        }
        for metric, s in end_to_end.items():
            print(f"{name} {metric} median {s['median']:.4g} iqr/median {s['iqr_over_median']:.3f}")
        print(f"{name} correct {report['workloads'][name]['all_correct']} counts_repeat {repeat}")
        sys.stdout.flush()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
