#!/usr/bin/env python3
"""Seconds-scale check of the benchmark itself.

Runs every workload of BENCHMARK.json in --quick mode, untraced and
traced, through run.py, and checks each result against the contract: the
four result keys, exactly the declared metrics with their units, a
correct run with no failures, and no checksum failures.  Run from the
repository root: python3 perfbench/selftest.py
"""
import json
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "7",
                                   "--seconds", "2", "--trace", str(trace),
                                   "--quick"],
                capture_output=True, text=True)
            where = f"{workload} trace={trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}: {run.stderr}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            units = {name: m["unit"] for name, m in metrics.items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if units != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                problems.append(f"{where}: an end-to-end metric is not > 0")
            if trace == 1 and metrics["storage.checksum_failures"]["value"]:
                problems.append(f"{where}: checksum failures")
            print(f"{where}: attempted={result['attempted']} ok", flush=True)
    for problem in problems:
        print("FAIL", problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
