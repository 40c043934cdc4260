#!/usr/bin/env python3
"""Check the benchmark trajectory in BENCH_history.jsonl.

Usage:

    python3 bench/check_history.py BENCHMARK.json BENCH_history.jsonl

Each line of the history is one JSON object, appended per change:

    {"pr": N, "parent": "<commit>", "host_cores": C, "fleet_wall_s": W,
     "workloads": {"<name>": {"runs": R, "sim_digest": "<md5>",
                              "<metric>": [q1, median, q3], ...}, ...},
     "cause": "<why a regression is accepted>"}      # optional

The metrics are the end-to-end metrics that BENCHMARK.json declares, each
taken over R runs of bench/perf/run.py.  A line is worse than its
predecessor when, on a workload both lines measure, a metric's median is
beyond its BENCHMARK.json bound in the metric's bad direction, or the
sim_digest changed.  Such a line is refused unless it carries a "cause".

Exit 0 when every line passes, 1 when a line is refused, 2 when a line is
malformed or a file cannot be read.
"""

import json
import sys


def load_history(path, metrics):
    lines = []
    with open(path) as f:
        for n, text in enumerate(f, 1):
            if not text.strip():
                continue
            line = json.loads(text)
            for key in ("pr", "parent", "host_cores", "workloads"):
                if key not in line:
                    raise ValueError("line %d: no %r" % (n, key))
            for w, rec in line["workloads"].items():
                for key in ("runs", "sim_digest"):
                    if key not in rec:
                        raise ValueError("line %d: %s has no %r" % (n, w, key))
                for m in metrics:
                    if len(rec.get(m["name"], ())) != 3:
                        raise ValueError("line %d: %s %s is not [q1, median, q3]"
                                         % (n, w, m["name"]))
            lines.append((n, line))
    return lines


def regressions(prev, cur, metrics):
    """What makes [cur] worse than [prev], one string per finding."""
    found = []
    for w, rec in sorted(cur["workloads"].items()):
        old = prev["workloads"].get(w)
        if old is None:
            continue
        if rec["sim_digest"] != old["sim_digest"]:
            found.append("%s sim_digest %s -> %s" % (w, old["sim_digest"], rec["sim_digest"]))
        for m in metrics:
            before, after = old[m["name"]][1], rec[m["name"]][1]
            change = (after - before) / before if before else 0.0
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                found.append("%s %s median %g -> %g (%.1f%% worse, bound %.1f%%)"
                             % (w, m["name"], before, after, 100 * change, 100 * m["bound"]))
    return found


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    try:
        with open(argv[1]) as f:
            metrics = json.load(f)["end_to_end"]
        lines = load_history(argv[2], metrics)
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write("check_history: %s: %s\n" % (argv[2], e))
        return 2
    refused = 0
    for (pn, prev), (n, cur) in zip(lines, lines[1:]):
        found = regressions(prev, cur, metrics)
        if found and "cause" not in cur:
            refused += 1
            print("%s line %d (pr %s) is worse than line %d and has no cause:"
                  % (argv[2], n, cur["pr"], pn))
            for f in found:
                print("  " + f)
    print("%s: %d line(s), %d refused" % (argv[2], len(lines), refused))
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
