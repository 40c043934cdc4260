#!/bin/sh
# Compare a fresh bench report against the committed CI baseline.
#
#   bench/check_perf.sh <report.json> [baseline.json]
#
# Fails when:
#   - the report's sequential events/sec regresses more than 25% below the
#     baseline (guards the scheduler hot path against accidental slowdowns;
#     the slack absorbs runner-to-runner noise), or
#   - the total event count differs from the baseline at all (the sweep is
#     deterministic, so any drift means the simulation itself changed and
#     the baseline must be regenerated deliberately), or
#   - the report's sequential/parallel results were not bit-identical, or
#   - the report's traced verification run diverged from the untraced one
#     (schema spandex-bench-sweep/3 runs one cell with the transaction
#     trace enabled and asserts bit-identical results), or
#   - the report's minor_words_per_event exceeds the baseline's by more
#     than 10% (guards the allocation diet on the message/event path; the
#     counters are deterministic, the slack only absorbs GC-version noise), or
#   - the parallel sweep was slower than the sequential one (speedup < 1.0)
#     on a machine that actually has cores to parallelize over
#     (recommended_domains > 1 and more than one worker used; single-core
#     runners skip this gate because domains just time-slice there), or
#   - the report's metrics-enabled verification run diverged from the
#     metrics-off one (schema spandex-bench-sweep/6+ runs one cell with the
#     time-series registry sampling and asserts bit-identical results).
#
# Refresh the baseline with:
#   dune exec bin/spandex_cli.exe -- bench --jobs 2 --scale 0.25 \
#     --workloads rsct,tqh,bc,trns --repeat 3 -o bench/ci_baseline.json
set -eu

report=${1:?usage: check_perf.sh <report.json> [baseline.json]}
baseline=${2:-$(dirname "$0")/ci_baseline.json}

python3 - "$report" "$baseline" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

failures = []

if not report.get("identical", False):
    failures.append("sequential and parallel sweeps were not bit-identical")

# Schema v3 reports carry a traced verification run; older baselines may
# not, so only the report is checked.
if "trace_identical" in report and not report["trace_identical"]:
    failures.append("traced run diverged from the untraced run")

# Schema v6 reports carry a metrics-enabled verification run: the inline
# sampler must not perturb simulated results.
if "metrics_identical" in report and not report["metrics_identical"]:
    failures.append("metrics-enabled run diverged from the metrics-off run")

if report["total_events"] != baseline["total_events"]:
    failures.append(
        "total_events drifted: baseline %d, report %d — the simulation "
        "changed; regenerate bench/ci_baseline.json if intended"
        % (baseline["total_events"], report["total_events"])
    )

# total_events covers the paper's six baseline configurations; reports and
# baselines that sweep the extended set (SDA, SAA) also carry the full
# total, compared when both sides have it.
if "total_events_extended" in report and "total_events_extended" in baseline:
    if report["total_events_extended"] != baseline["total_events_extended"]:
        failures.append(
            "total_events_extended drifted: baseline %d, report %d"
            % (
                baseline["total_events_extended"],
                report["total_events_extended"],
            )
        )

base = baseline["events_per_sec_sequential"]
got = report["events_per_sec_sequential"]
floor = 0.75 * base
print(
    "perf: %d events/sec sequential (baseline %d, floor %d)"
    % (got, base, floor)
)
if got < floor:
    failures.append(
        "events/sec regressed >25%%: %d < %d (baseline %d)"
        % (got, floor, base)
    )

# Allocation-rate gate (schema v4): minor words per event is deterministic
# for a given sweep, so a >10% rise over the baseline means the allocation
# diet on the message/event path regressed.
if "minor_words_per_event" in report and "minor_words_per_event" in baseline:
    base_mw = baseline["minor_words_per_event"]
    got_mw = report["minor_words_per_event"]
    ceil_mw = 1.10 * base_mw
    print(
        "alloc: %.2f minor words/event (baseline %.2f, ceiling %.2f)"
        % (got_mw, base_mw, ceil_mw)
    )
    if got_mw > ceil_mw:
        failures.append(
            "minor_words_per_event regressed >10%%: %.2f > %.2f "
            "(baseline %.2f)" % (got_mw, ceil_mw, base_mw)
        )

# Parallel-speedup gate: on a multi-core runner, a parallel sweep slower
# than the sequential one means domain coordination or GC interference is
# eating the win.  Skipped on single-core machines (and --jobs 1 reports),
# where extra domains can only time-slice.
if (
    report.get("recommended_domains", 1) > 1
    and report.get("jobs_used", 1) > 1
    and "speedup" in report
):
    print("speedup: %.3fx with %d jobs" % (report["speedup"], report["jobs_used"]))
    if report["speedup"] < 1.0:
        failures.append(
            "parallel sweep slower than sequential: speedup %.3f < 1.0 "
            "with %d jobs on %d recommended domains"
            % (report["speedup"], report["jobs_used"], report["recommended_domains"])
        )

if failures:
    for f in failures:
        print("FAIL: " + f, file=sys.stderr)
    sys.exit(1)
print("perf check passed")
EOF
