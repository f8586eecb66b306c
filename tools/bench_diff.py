#!/usr/bin/env python3
"""Compare parent and change perfbench records under BENCHMARK.json's bounds.

Usage:
    tools/bench_diff.py --parent p1.json p2.json ... --change c1.json c2.json ...

The records are the ones perfbench writes to .bench_build/results/; the
i-th parent record and the i-th change record form pair i, so give them
in the order they ran.  Every record must share workload, seed, seconds,
trace and quick setting.

For each end-to-end metric the tool prints the parent median and
quartiles, the change median, the ratio change/parent and the pairs the
change won (ties count for neither side), then a verdict:

  improved    at least ten pairs, the change won at least nine tenths of
              them, and the medians differ, in the better direction, by
              more than the parent's interquartile range;
  regressed   the change median is worse than the parent median by more
              than the metric's bound;
  unresolved  the parent's own spread (interquartile range over median)
              is wider than the bound, and not every change run beats
              every parent run;
  within      none of the above.

It also flags a change in the exact counters search.pass_levels and
search.pass_messages, a nonzero query.bfs.counter_drift or
storage.checksum_failures in a change record, and a rise in the failed
share (failed over attempted).  The exit status is 1 when anything
regressed or was flagged, 2 on bad input, 0 otherwise.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

SAME_KEYS = ("workload", "seed", "seconds", "trace", "quick")
EXACT_FACTS = ("search.pass_levels", "search.pass_messages")
MUST_BE_ZERO = ("query.bfs.counter_drift", "storage.checksum_failures")
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load(paths):
    records = []
    for path in paths:
        try:
            records.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as err:
            raise SystemExit(f"bench_diff: cannot read {path}: {err}") from err
    return records


def quartiles(values):
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = len(parent)
    won = sum(better(c, p, direction) for p, c in zip(parent, change))
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if p_med != 0 and worse / abs(p_med) > bound:
        return "regressed", won
    if (pairs >= MIN_PAIRS_FOR_GAIN and won >= WIN_SHARE_FOR_GAIN * pairs
            and -worse > q3 - q1):
        return "improved", won
    spread = (q3 - q1) / abs(p_med) if p_med != 0 else 0.0
    if spread > bound and not all(
            better(c, p, direction) for p in parent for c in change):
        return "unresolved", won
    return "within", won


def failed_share(records):
    attempted = sum(r.get("attempted", 0) for r in records)
    return sum(r.get("failed", 0) for r in records) / attempted if attempted else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    if len(args.parent) != len(args.change):
        print("bench_diff: --parent and --change need the same number of "
              "records (one per pair)", file=sys.stderr)
        return 2
    parents, changes = load(args.parent), load(args.change)
    first = parents[0]
    for path, record in zip(args.parent + args.change, parents + changes):
        for key in SAME_KEYS:
            if record.get(key) != first.get(key):
                print(f"bench_diff: {path}: {key} is {record.get(key)!r}, "
                      f"not {first.get(key)!r}; records must share "
                      f"{', '.join(SAME_KEYS)}", file=sys.stderr)
                return 2
    benchmark = json.loads(Path(args.benchmark).read_text())

    print(f"workload {first['workload']}, seed {first['seed']}, "
          f"{first['seconds']} s, trace {first['trace']}, "
          f"{len(parents)} pairs")
    print(f"{'metric':<22}{'parent median [q1, q3]':>36}{'change':>14}"
          f"{'ratio':>8}{'won':>8}  verdict")
    bad = False
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        try:
            parent = [r["end_to_end"][name] for r in parents]
            change = [r["end_to_end"][name] for r in changes]
        except KeyError:
            print(f"{name:<22} missing from a record")
            bad = True
            continue
        q1, p_med, q3 = quartiles(parent)
        c_med = statistics.median(change)
        result, won = verdict(parent, change, spec["better"], spec["bound"])
        ratio = c_med / p_med if p_med else float("nan")
        bracket = f"{p_med:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"{name:<22}{bracket:>36}{c_med:>14.4g}{ratio:>8.3f}"
              f"{f'{won}/{len(parent)}':>8}  {result}"
              f" ({spec['better']} is better, bound {spec['bound']})")
        bad |= result == "regressed"

    flags = []
    for fact in EXACT_FACTS:
        seen = {r.get("facts", {}).get(fact) for r in parents + changes}
        if len(seen) > 1:
            flags.append(f"{fact} differs between records: "
                         f"{sorted(seen, key=str)}")
    for metric in MUST_BE_ZERO:
        values = [r.get("per_layer", {}).get(metric, 0) for r in changes]
        if any(values):
            flags.append(f"{metric} is nonzero in the change: {values}")
    if failed_share(changes) > failed_share(parents):
        flags.append(f"failed share rose: {failed_share(parents):.4g} -> "
                     f"{failed_share(changes):.4g}")
    for flag in flags:
        print(f"FLAG: {flag}")
    return 1 if bad or flags else 0


if __name__ == "__main__":
    sys.exit(main())
