#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

Usage:

    python3 bench/perf/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds the JSON files perf.exe writes to bench/perf/out/
(<workload>.json for --trace 0, <workload>.layers.json for --trace 1),
copied under distinct names, e.g. stream-miss.03.json.  Runs of one
workload are paired in file-name order, so name the k-th run of both
commits alike.  Prints one row per (workload, metric) with both medians
and quartiles, the change's pair wins, and a verdict for each end-to-end
metric (README.md, "Comparing two commits"):

  better      the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range
  unresolved  either side's spread (IQR / median) exceeds the bound
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict.  Exits 1 when any
verdict is "worse".
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(mode, workload): [run, ...]} with runs in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if not isinstance(run, dict) or "workload" not in run or "metrics" not in run:
            continue
        runs.setdefault((run["mode"], run["workload"]), []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "better", wins, len(pairs)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        return "unresolved", wins, len(pairs)
    if pm and sign * (pm - cm) / abs(pm) > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    specs = {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    header = "%-12s %-28s %-36s %-36s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "delta", "wins", "verdict")
    print(header)
    worse = False
    for key in sorted(set(parent) & set(change)):
        mode, workload = key
        p_runs, c_runs = parent[key], change[key]
        drift = [p["provenance"]["seed"] for p, c in zip(p_runs, c_runs)
                 if p["provenance"]["seed"] == c["provenance"]["seed"]
                 and p["sim_digest"] != c["sim_digest"]]
        if drift:
            print("%-12s sim_digest differs at seeds %s: the simulated results changed"
                  % (workload, drift))
        for spec in specs[mode]:
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                print("%-12s %-28s missing" % (workload, name))
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            delta = "%+.2f%%" % (100.0 * (cm - pm) / abs(pm)) if pm else "-"
            if "bound" in spec:
                v, wins, n = verdict(p, c, spec["better"], spec["bound"])
                worse |= v == "worse"
                wins = "%d/%d" % (wins, n)
            else:
                v, wins = "-", ""
            print("%-12s %-28s %-36s %-36s %8s %6s  %s" % (
                workload, name, fmt(p), fmt(c), delta, wins, v))
    for key in sorted(set(parent) ^ set(change)):
        print("%-12s %s runs on one side only" % (key[1], key[0]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
