#!/usr/bin/env python3
"""Runs tools/bench_diff.py on small hand-written perfbench records: an
improvement, a regression, a changed exact counter and mismatched runs.

Usage: tests/bench_diff_test.py   (exit 0 when every case behaves)
"""
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_diff.py"

BASE = {
    "workload": "search_ooc", "seed": 1, "seconds": 50, "trace": 0,
    "quick": False, "attempted": 1000, "failed": 0,
    "facts": {"search.pass_levels": 1872, "search.pass_messages": 5616},
    "end_to_end": {"setup_s": 0.25, "peak_rss_mb": 99.0,
                   "store_bytes_per_edge": 34.96, "p50_ms": 44.0,
                   "tail_ms": 56.0, "second_p50_ms": 48.0,
                   "edges_per_s": 18.0e6},
    "per_layer": {"query.bfs.counter_drift": 0,
                  "storage.checksum_failures": 0},
}
# Ten pairs of run-to-run noise, in parts per thousand.
NOISE = [-9, 4, 0, 7, -3, 11, -6, 2, -1, 5]


def record(**end_to_end):
    """BASE with some end-to-end metrics scaled; returns ten runs."""
    runs = []
    for noise in NOISE:
        run = copy.deepcopy(BASE)
        for name, value in run["end_to_end"].items():
            run["end_to_end"][name] = (
                value * end_to_end.get(name, 1.0) * (1 + noise / 1000))
        runs.append(run)
    return runs


def run(tmp, name, parents, changes):
    paths = {"parent": [], "change": []}
    for side, runs in (("parent", parents), ("change", changes)):
        for i, data in enumerate(runs):
            path = Path(tmp) / f"{name}-{side}-{i}.json"
            path.write_text(json.dumps(data))
            paths[side].append(str(path))
    result = subprocess.run(
        [sys.executable, str(TOOL), "--parent", *paths["parent"],
         "--change", *paths["change"],
         "--benchmark", str(ROOT / "BENCHMARK.json")],
        capture_output=True, text=True)
    return result.returncode, result.stdout + result.stderr


def line_of(output, metric):
    return next(l for l in output.splitlines() if l.startswith(metric))


def main():
    failures = []

    def check(condition, what, output):
        if not condition:
            failures.append(f"{what}\n{output}")

    with tempfile.TemporaryDirectory() as tmp:
        code, out = run(tmp, "gain", record(),
                        record(edges_per_s=1.33, p50_ms=0.75))
        check(code == 0, "an improvement must exit 0", out)
        check("improved" in line_of(out, "edges_per_s"),
              "edges_per_s +33% must read improved", out)
        check("within" in line_of(out, "setup_s"),
              "an unmoved metric must read within", out)

        code, out = run(tmp, "slow", record(), record(p50_ms=1.4))
        check(code == 1, "a regression must exit 1", out)
        check("regressed" in line_of(out, "p50_ms"),
              "p50_ms +40% against a 0.25 bound must read regressed", out)

        changed = record(edges_per_s=1.33)
        changed[3]["facts"]["search.pass_levels"] = 1873
        code, out = run(tmp, "counter", record(), changed)
        check(code == 1, "a changed exact counter must exit 1", out)
        check("FLAG: search.pass_levels" in out,
              "a changed search.pass_levels must be flagged", out)

        other_seed = record()
        other_seed[0]["seed"] = 7
        code, out = run(tmp, "mixed", record(), other_seed)
        check(code == 2, "records from different seeds must be refused", out)

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
