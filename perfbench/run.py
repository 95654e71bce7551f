#!/usr/bin/env python3
"""leapfrog-cc benchmark: builds the program from source, runs one workload
and prints one JSON result line (see perfbench/README.md).

    python3 perfbench/run.py --workload table2-seq --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); run records, traces and temporary certificate
stores go to .bench_out and are removed when the run ends.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
MANIFEST = "perfbench/expected.txt"
CORPUS = "examples/corpus"
OUT = ".bench_out"

WORKLOADS = ("table2-seq", "tv-prefix", "serve-certify")

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
}

# Per-layer figures, by module. A layer a workload does not exercise
# reads 0 there (no serve layer in table2-seq, no pgen in serve-certify).
PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.elaborate_s": "s",
    "p4a.typecheck_s": "s",
    "p4a.fingerprint_s": "s",
    "pgen.build_s": "s",
    "core.reach_s": "s",
    "check.iterations": "count",
    "check.extends": "count",
    "check.skips": "count",
    "check.smt_queries": "count",
    "check.final_conjuncts": "count",
    "check.formula_nodes": "count",
    "check.peak_frontier": "count",
    "check.reach_pairs": "count",
    "check.wall_s": "s",
    "check.solver_s": "s",
    "check.self_s": "s",
    "check.wall_share": "ratio",
    "smt.solve_p50_us": "us",
    "smt.solve_p99_us": "us",
    "span.check_run.self_s": "s",
    "span.solver_query.self_s": "s",
    "span.solver_blast_premise.self_s": "s",
    "span.solver_batch.self_s": "s",
    "span.serve_request.self_s": "s",
    "trace.verdict_s": "s",
    "trace.overhead": "ratio",
    "cert.streams": "count",
    "cert.goals": "count",
    "cert.lemmas": "count",
    "cert.inputs": "count",
    "cert.deletions": "count",
    "cert.store_mb": "MB",
    "cert.fetched_mb": "MB",
    "cert.check_s": "s",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.coalesced": "count",
    "serve.cache_entries": "count",
    "serve.request_p50_us": "us",
    "serve.request_p99_us": "us",
    "serve.read_per_s": "1/s",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.cert_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "host.unit_us": "us",
}

SPANS = ("check.run", "solver.query", "solver.blast_premise", "solver.batch",
         "serve.request")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds lfbench and the two tools; returns
    the build directory. Raises CalledProcessError when the checkout
    cannot be built."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4", "--target",
                    "lfbench", "leapfrog-serve", "leapfrog-certcheck"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return build_dir


def read_manifest():
    """{(workload, pair): expected verdict}."""
    expected = {}
    for line in (ROOT / MANIFEST).read_text().splitlines():
        cols = line.split()
        if not cols or cols[0].startswith("#"):
            continue
        expected[(cols[0], cols[1])] = cols[6]
    return expected


def run_lfbench(build_dir, workload, seed, seconds, trace_out, quick):
    """Runs lfbench; returns (op lines, summary)."""
    tag = f"{workload}-{os.getpid()}"
    args = [str(build_dir / "lfbench"), workload, "--seed", str(seed),
            "--seconds", str(seconds), "--corpus", CORPUS,
            "--manifest", MANIFEST,
            "--serve", str(build_dir / "leapfrog" / "leapfrog-serve"),
            "--certcheck", str(build_dir / "leapfrog" / "leapfrog-certcheck"),
            "--out", f"{OUT}/{tag}"]
    if trace_out:
        args += ["--trace-out", trace_out]
    if quick:
        args.append("--quick")
    # Own process group, so that a hung run is stopped with every process
    # it started (the daemon included).
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"lfbench {workload} did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"lfbench {workload} exited {proc.returncode}")
    lines = [json.loads(l) for l in stdout.splitlines() if l.strip()]
    summaries = [l for l in lines if l.get("op") == "summary"]
    if len(summaries) != 1:
        raise RuntimeError(f"lfbench {workload} printed no summary")
    return [l for l in lines if l.get("op") != "summary"], summaries[0]


def failures(workload, ops, expected):
    """Operations that fail a check: an error lfbench found (packet
    oracle, cache bit-identity, certificate verification, budget) or a
    verdict other than the manifest's."""
    bad = []
    for op in ops:
        want = expected.get((workload, op["pair"]))
        got = op.get("verdict")
        if "error" in op:
            bad.append((op, op["error"]))
        elif want is None:
            bad.append((op, "pair missing from the manifest"))
        elif got is not None and got != want and not (
                want == "budget" and got == "equivalent"):
            bad.append((op, f"verdict {got}, expected {want}"))
    return bad


def span_self_seconds(trace_path):
    """Self time per span name (duration minus the child spans it covers)."""
    events = json.loads(pathlib.Path(trace_path).read_text())["traceEvents"]
    stacks, self_us = {}, {}
    for e in events:
        stack = stacks.setdefault(e.get("tid"), [])
        if e.get("ph") == "B":
            stack.append([e["name"], e["ts"], 0])
        elif e.get("ph") == "E" and stack:
            name, start, child = stack.pop()
            dur = e["ts"] - start
            self_us[name] = self_us.get(name, 0) + dur - child
            if stack:
                stack[-1][2] += dur
    return {name: us / 1e6 for name, us in self_us.items()}


def layer_metrics(workload, summary, trace_path):
    m = {name: float(summary.get(name, 0)) for name in PER_LAYER}
    if workload == "serve-certify":
        stats = summary.get("daemon_stats", {})
        daemon = summary.get("daemon_metrics", {})
        hist = daemon.get("histograms", {})
        cache = stats.get("cache", {})
        m["serve.hits"] = cache.get("hits", 0)
        m["serve.misses"] = cache.get("misses", 0)
        m["serve.coalesced"] = stats.get("coalesced", 0)
        m["serve.cache_entries"] = cache.get("entries", 0)
        req = hist.get("serve.request_micros", {})
        m["serve.request_p50_us"] = req.get("p50", 0)
        m["serve.request_p99_us"] = req.get("p99", 0)
        solve = hist.get("smt.solve_micros", {})
        m["smt.solve_p50_us"] = solve.get("p50", 0)
        m["smt.solve_p99_us"] = solve.get("p99", 0)
    if trace_path and os.path.exists(trace_path):
        # Per round: table2-seq and tv-prefix trace one copy of every
        # operation of every round; serve-certify keeps the last traced
        # daemon's file, one round.
        rounds = 1 if workload == "serve-certify" else max(
            1, int(summary.get("rounds", 1)))
        spans = span_self_seconds(trace_path)
        for name in SPANS:
            key = "span." + name.replace(".", "_") + ".self_s"
            m[key] = spans.get(name, 0.0) / rounds
    return m


def run_workload(args):
    build_dir = build()
    expected = read_manifest()
    (ROOT / OUT).mkdir(exist_ok=True)
    trace_path = (f"{OUT}/{args.workload}-{os.getpid()}.trace.json"
                  if args.trace else None)
    try:
        ops, summary = run_lfbench(build_dir, args.workload, args.seed,
                                  args.seconds, trace_path, quick=False)
        bad = failures(args.workload, ops, expected)
        for op, why in bad[:20]:
            log(f"FAILED {op.get('op')} {op.get('pair')}: {why}")
        if args.trace:
            values = layer_metrics(args.workload, summary,
                                   ROOT / trace_path)
            units = PER_LAYER
        else:
            values = {name: float(summary[name]) for name in END_TO_END}
            units = END_TO_END
    finally:
        if trace_path and (ROOT / trace_path).exists():
            (ROOT / trace_path).unlink()
        shutil.rmtree(ROOT / OUT / f"{args.workload}-{os.getpid()}",
                      ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": summary["rounds"],
                      "host.unit_us": summary["host.unit_us"]}))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


def self_test():
    """Each workload once at reduced size, every oracle checked, plus a
    negative case: a wrong expected verdict must count as a failure."""
    build_dir = build()
    expected = read_manifest()
    (ROOT / OUT).mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        trace_path = f"{OUT}/selftest-{workload}.trace.json"
        ops, summary = run_lfbench(build_dir, workload, 1, 1, trace_path,
                                  quick=True)
        bad = failures(workload, ops, expected)
        layer_metrics(workload, summary, ROOT / trace_path)  # must parse
        (ROOT / trace_path).unlink(missing_ok=True)
        log(f"self-test {workload}: {len(ops)} operations, "
            f"{len(bad)} failed")
        for op, why in bad:
            log(f"  {op.get('pair')}: {why}")
        ok = ok and ops and not bad
        if workload == "table2-seq":
            wrong = dict(expected)
            wrong[(workload, "tunnel_bug")] = "equivalent"
            caught = [op for op, _ in failures(workload, ops, wrong)
                      if op["pair"] == "tunnel_bug"]
            log(f"self-test negative case: {len(caught)} tunnel_bug "
                f"operations counted failed under a wrong expectation")
            ok = ok and len(caught) > 0
    shutil.rmtree(ROOT / OUT, ignore_errors=True)
    log("self-test " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        run_workload(args)
        return 0
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
