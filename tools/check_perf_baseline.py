#!/usr/bin/env python3
"""Gate bench_smt's perf-smoke output against the committed baseline.

Usage: check_perf_baseline.py [--tolerance X] [--latency-tolerance Y]
                              CURRENT.json BASELINE.json

Both files are bench_smt --json outputs. The current format is an object
`{"records": [...], "metrics": {...}}` where `records` holds the
per-(study, mode) measurements and `metrics` is the obs::Metrics
process snapshot (docs/OBSERVABILITY.md); the older bare-array form is
still accepted so historical baselines keep working.

Four gates run, all deliberately narrow:

 1. Clause DB: for every incremental record present in both files, the
    smoke workload's peak learned-clause count (`peak_learnts`) must not
    exceed `--tolerance` times the committed baseline (default 2.0).
    Peak clause counts are a property of the solver's clause-DB
    management, not of runner speed, so they are stable enough on shared
    CI runners to gate on.
 2. Solve latency: when both files carry a metrics snapshot, the p95 of
    the `smt.solve_micros` histogram must not exceed `--latency-tolerance`
    times the baseline p95 (default 5.0), with an absolute slack of
    +2000us so microsecond-scale baselines never gate on scheduler
    noise. The wide multiplier is intentional — this catches order-of-
    magnitude latency regressions (an accidental O(n^2) in the hot
    path), not runner jitter.
 3. Batched round-trips: for every `batched`-mode record present in
    both files, the physical check-sat round-trip count (`round_trips`)
    must not exceed `--tolerance` times the baseline. Round-trips are
    fully deterministic (answers decide the batch refinement layers,
    and answers are schedule-independent), so a creep back toward the
    query count means the --goal-batch machinery silently stopped
    sharing rounds — exactly the regression this gate exists to catch.
 4. Decisions per SAT answer: for every record present in both files
    whose baseline has SAT solves, `sat_decisions / sat_solves` must not
    exceed `--tolerance` times the baseline, with an absolute slack of
    +4 decisions. CDCL decisions are deterministic for a given query
    sequence, so this catches the solver deciding variables that no live
    clause mentions again (a retired goal's, say) without gating on
    runner speed.

Everything else in the JSON is archived for bisection, not gated, but on
failure the full per-metric diff of the offending record is printed so
the regression can be read straight off the CI log.

A study present only in the current output (new workload) or only in the
baseline (retired workload) is reported but does not fail the gate; the
baseline should be refreshed in the same PR that changes the workload.
"""

import argparse
import json
import sys

# The deterministic clause-DB metrics worth showing in a failure diff, in
# display order. Only peak_learnts is *gated*; the rest give the reader
# the shape of the regression (e.g. "deletion stopped running" shows up
# as clauses_deleted cratering while peak_learnts doubles).
DIFF_METRICS = [
    "peak_learnts",
    "arena_peak_bytes",
    "clauses_deleted",
    "reduce_db_runs",
    "session_restarts",
    "session_premises",
    "premise_cache_hits",
    "queries",
    "round_trips",
    "sat_solves",
    "sat_decisions",
    "sat_propagations",
    "sat_conflicts",
    "unsat_solves",
    "unsat_decisions",
]

# The histogram the latency gate reads from the metrics snapshot.
LATENCY_HISTOGRAM = "smt.solve_micros"


def key(record):
    return (record["study"], record["mode"])


def load(path):
    """Returns (records, metrics-or-None) from either JSON form."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, list):  # pre-metrics bare-array form
        return doc, None
    return doc["records"], doc.get("metrics")


def solve_p95(metrics):
    """p95 upper bound of the solve-latency histogram, or None."""
    if not metrics:
        return None
    hist = metrics.get("histograms", {}).get(LATENCY_HISTOGRAM)
    if not hist or not hist.get("count"):
        return None
    return hist["p95"]


def decisions_per_sat(record):
    """Decisions per SAT solve of one record, or None without SAT solves
    (or from a baseline that predates the counters)."""
    solves = record.get("sat_solves", 0)
    if not solves:
        return None
    return record["sat_decisions"] / solves


def print_metric_diff(cur, base):
    """Readable per-metric comparison of one (study, mode) record."""
    print(f"    {'metric':<20} {'baseline':>12} {'current':>12} {'delta':>10}")
    for metric in DIFF_METRICS:
        if metric not in cur and metric not in base:
            continue
        b = base.get(metric, 0)
        c = cur.get(metric, 0)
        if b:
            delta = f"{100.0 * (c - b) / b:+.1f}%"
        else:
            delta = "new" if c else "-"
        print(f"    {metric:<20} {b:>12} {c:>12} {delta:>10}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed growth factor over the baseline of peak_learnts, "
        "batched round_trips and decisions per SAT answer (default: "
        "2.0); small absolute slacks always apply so near-zero "
        "baselines don't gate on noise",
    )
    parser.add_argument(
        "--latency-tolerance",
        type=float,
        default=5.0,
        help="allowed smt.solve_micros p95 growth factor over the "
        "baseline (default: 5.0); an absolute slack of +2000us always "
        "applies so microsecond-scale baselines don't gate on noise",
    )
    parser.add_argument("current", help="bench_smt --json output to check")
    parser.add_argument("baseline", help="committed baseline JSON")
    args = parser.parse_args()

    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if args.latency_tolerance <= 0:
        parser.error("--latency-tolerance must be positive")

    current_records, current_metrics = load(args.current)
    baseline_records, baseline_metrics = load(args.baseline)
    current = {key(r): r for r in current_records}
    baseline = {key(r): r for r in baseline_records}

    # (mode, gated metric, absolute slack): the per-record gates. The
    # slack keeps near-zero baselines from gating on noise; round_trips
    # gets a smaller one because it is deterministic.
    RECORD_GATES = {
        "incremental": ("peak_learnts", 8),
        "batched": ("round_trips", 4),
    }
    failures = []
    for k, cur in sorted(current.items()):
        gate = RECORD_GATES.get(cur["mode"])
        if gate is None:
            continue
        metric, slack = gate
        base = baseline.get(k)
        if base is None:
            print(f"NOTE: {k[0]}/{cur['mode']} has no baseline entry "
                  f"(new workload?)")
            continue
        if metric not in base:
            print(f"NOTE: {k[0]}/{cur['mode']} baseline predates the "
                  f"{metric} gate; refresh the baseline")
            continue
        cur_val = cur[metric]
        base_val = base[metric]
        limit = max(base_val * args.tolerance, base_val + slack)
        status = "ok" if cur_val <= limit else "REGRESSION"
        print(
            f"{k[0]:<28} {metric} {base_val:>6} -> {cur_val:>6} "
            f"(limit {limit:.0f})  [{status}]"
        )
        if cur_val > limit:
            failures.append(f"{k[0]} {metric}")
            print_metric_diff(cur, base)
    for k, cur in sorted(current.items()):
        base = baseline.get(k)
        base_val = decisions_per_sat(base) if base else None
        cur_val = decisions_per_sat(cur)
        if base_val is None or cur_val is None:
            continue
        limit = max(base_val * args.tolerance, base_val + 4)
        status = "ok" if cur_val <= limit else "REGRESSION"
        label = f"{k[0]}/{k[1]}"
        print(
            f"{label:<40} decisions/sat {base_val:>6.1f} -> "
            f"{cur_val:>6.1f} (limit {limit:.1f})  [{status}]"
        )
        if cur_val > limit:
            failures.append(f"{label} decisions per SAT answer")
            print_metric_diff(cur, base)
    for k in sorted(baseline.keys() - current.keys()):
        if baseline[k]["mode"] in RECORD_GATES:
            print(f"NOTE: {k[0]}/{baseline[k]['mode']} only in baseline "
                  f"(retired workload?)")

    cur_p95 = solve_p95(current_metrics)
    base_p95 = solve_p95(baseline_metrics)
    if cur_p95 is not None and base_p95 is not None:
        limit = max(base_p95 * args.latency_tolerance, base_p95 + 2000)
        status = "ok" if cur_p95 <= limit else "REGRESSION"
        print(
            f"{'(all smoke queries)':<28} solve p95us {base_p95:>6} -> "
            f"{cur_p95:>6} (limit {limit:.0f})  [{status}]"
        )
        if cur_p95 > limit:
            failures.append("solve-latency p95")
    elif cur_p95 is None:
        print("NOTE: current output has no metrics snapshot; latency gate skipped")
    else:
        print("NOTE: baseline has no metrics snapshot; latency gate skipped")

    if failures:
        print(
            f"FAIL: regressed beyond tolerance on: {', '.join(failures)}"
        )
        return 1
    print(
        f"perf baseline check passed (tolerance {args.tolerance}x, "
        f"latency {args.latency_tolerance}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
