#!/usr/bin/env python3
"""Compare two sets of VDX benchmark results (a parent and a change).

    python3 vdxbench/compare.py parent.jsonl change.jsonl [--benchmark BENCHMARK.json]

Each file holds the records that `run.py --out FILE` appends. Collect them
with the same benchmark code and settings on both commits: at least ten
untraced runs per workload, alternating which commit runs first, plus traced
runs for the per-layer split.

For untraced records it prints one row per workload and end-to-end metric:
the median and quartiles of each side, the relative change of the median, the
pair wins of the change (pairs match runs of equal seed, in order), and a
verdict by the rules of the choosing-metrics method:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither), the medians differ by more than the parent's
              interquartile range, and no more operations failed than on the
              parent;
  regression  the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the metric's own spread (interquartile range over median, the
              wider of the two sides) exceeds the bound, and not every run of
              the change beats every run of the parent;
  within      none of the above.

For traced records it prints the median of each per-layer metric on both
sides and their difference, per workload.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(records, trace):
    grouped = {}
    for r in records:
        if r["trace"] == trace:
            grouped.setdefault(r["workload"], []).append(r)
    return grouped


def pairs(parent, change):
    """Runs of equal seed, matched in order of appearance."""
    pending = {}
    for r in parent:
        pending.setdefault(r["seed"], []).append(r)
    matched = []
    for r in change:
        if pending.get(r["seed"]):
            matched.append((pending[r["seed"]].pop(0), r))
    return matched


def verdict(metric, a, b, matched, more_failures):
    higher = metric["better"] == "higher"
    sign = 1.0 if higher else -1.0
    q1a, meda, q3a = quartiles(a)
    q1b, medb, q3b = quartiles(b)
    wins = sum(1 for pa, pb in matched if sign * (pb - pa) > 0)
    better = sign * (medb - meda) > 0
    all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
    spread = max((q3a - q1a) / abs(meda) if meda else 0.0,
                 (q3b - q1b) / abs(medb) if medb else 0.0)
    if matched and better and wins >= 0.9 * len(matched) and abs(medb - meda) > q3a - q1a:
        return wins, "no gain: more operations failed" if more_failures else "gain"
    if spread > metric["bound"] and not all_better:
        return wins, "unresolved"
    if meda and -sign * (medb - meda) / abs(meda) > metric["bound"]:
        return wins, "REGRESSION"
    return wins, "within"


def metric_values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]]


def end_to_end(bench, parent, change):
    print("End-to-end (untraced): median [q1, q3] per side; pairs match seeds")
    header = "%-15s %-16s %-30s %-30s %8s %7s  %s" % (
        "workload", "metric", "parent", "change", "change", "wins", "verdict")
    print(header)
    print("-" * len(header))
    a_by, b_by = by_workload(parent, 0), by_workload(change, 0)
    for workload in [w["name"] for w in bench["workloads"]]:
        a_runs, b_runs = a_by.get(workload, []), b_by.get(workload, [])
        if not a_runs or not b_runs:
            print("%-15s (no untraced runs on %s)" % (
                workload, "either side" if not a_runs and not b_runs else
                "the parent" if not a_runs else "the change"))
            continue
        matched_runs = pairs(a_runs, b_runs)
        more_failures = (sum(r["result"]["failed"] for r in b_runs) >
                         sum(r["result"]["failed"] for r in a_runs))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a, b = metric_values(a_runs, name), metric_values(b_runs, name)
            if not a or not b:
                continue
            matched = [(pa["result"]["metrics"][name]["value"],
                        pb["result"]["metrics"][name]["value"]) for pa, pb in matched_runs]
            wins, result = verdict(metric, a, b, matched, more_failures)
            qa, qb = quartiles(a), quartiles(b)
            change_pct = 100.0 * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print("%-15s %-16s %-30s %-30s %+7.2f%% %3d/%-3d  %s%s" % (
                workload, name,
                "%.5g [%.5g, %.5g] n=%d" % (qa[1], qa[0], qa[2], len(a)),
                "%.5g [%.5g, %.5g] n=%d" % (qb[1], qb[0], qb[2], len(b)),
                change_pct, wins, len(matched), result,
                "" if len(matched) >= 10 else " (fewer than 10 pairs)"))


def per_layer(bench, parent, change):
    a_by, b_by = by_workload(parent, 1), by_workload(change, 1)
    for workload in [w["name"] for w in bench["workloads"]]:
        a_runs, b_runs = a_by.get(workload, []), b_by.get(workload, [])
        if not a_runs or not b_runs:
            continue
        print("\nPer-layer (traced) %s: median of %d vs %d runs" % (
            workload, len(a_runs), len(b_runs)))
        print("%-26s %14s %14s %14s %9s" % ("metric", "parent", "change", "delta", "delta%"))
        for metric in bench["per_layer"]:
            a, b = metric_values(a_runs, metric["name"]), metric_values(b_runs, metric["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            pct = "%+8.2f%%" % (100.0 * (mb - ma) / ma) if ma else "%9s" % "-"
            print("%-26s %14.6g %14.6g %+14.6g %s  %s" % (
                metric["name"], ma, mb, mb - ma, pct, metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    end_to_end(bench, parent, change)
    per_layer(bench, parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
