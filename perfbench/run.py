"""wittenq benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload heavy_2f --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

A run imports wittenq from ./src of the checkout it lives in.  The
workloads, their metrics and the run length (--seconds, by default
run_seconds) are defined in BENCHMARK.json; the cases are in
workloads.py.  Every output is checked (see workloads.check_case); a wrong
or raising case counts as failed and makes the exit code 1.

The machine is shared, and each CPU slows by up to 2x in bursts of
milliseconds whose share of the time drifts over minutes.  The run therefore
measures every piece of work several times, on each usable CPU in turn
(one process, one thread at a time), spread over the whole run:

- set-up rounds: each round sets the workload up from a fresh import,
  once or, for a set-up of a few milliseconds, several times on the CPUs
  in turn, and keeps the fastest; setup_s is the median over rounds.  The
  rounds are interleaved with the passes.  The number of rounds and their
  size are fixed per workload (workloads.py).
- passes: each pass runs every case once, in one order drawn from the
  seed.  The number of passes is --seconds over the workload's pass time
  at the seed commit, so it does not change with the program's speed and
  neither does the bias of the minimum below.  Each case's time is its
  fastest repetition: wall_s is the sum of those, a pass with the least
  disturbance, and case_p50_s and case_tail_s are percentiles over the
  cases.

--trace 0 reports the end-to-end metrics.  --trace 1 sets up once with the
tracer installed, then alternates untraced and traced passes; it reports
the per-layer metrics of the traced set-up plus the first traced pass, and
the tracing overhead as the fastest traced minus the fastest untraced pass.

The last line of standard output is the result object; the line before it
holds the run's metadata and details (backend, CPUs, commit, percentile
used, per-case times, per-phase layer totals).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

MIN_PASSES = 2
MIN_TAIL_SAMPLES = 10
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else []


# -- one set-up, one pass ---------------------------------------------------

def set_up(workload, tracer=None):
    """Import, build the inputs, warm the caches; returns (package, cases, s)."""
    gc.collect()
    t0 = time.perf_counter()
    package = workloads.load_package()
    if tracer is not None:
        tracer.install(package)
    cases = workload.cases(package)
    if workload.warm:
        for case in cases:
            workloads.run_case(package, case)
    return package, cases, time.perf_counter() - t0


def run_pass(workload, package, cases, order, controls, turn, tracer=None):
    """Run every case once in the given order, the j-th on CPU turn + j.

    Returns (package, records, (cache hits, cache misses)); a record is
    (label, seconds, failure reason or None).
    """
    records, hits, misses = [], 0, 0
    if workload.fresh == "pass":
        package = _fresh(tracer)
    gc.collect()  # garbage of earlier imports is not billed to a case
    for j, i in enumerate(order):
        case = cases[i]
        reason = None
        pin(turn + j)
        if workload.fresh == "case":
            package = _fresh(tracer)
            gc.collect()
            if any(workloads.cache_counts(package)):
                reason = "cold case started with cache entries"
        h0, m0 = workloads.cache_counts(package)
        t0 = time.perf_counter()
        try:
            result = workloads.run_case(package, case)
            reason = workloads.check_case(case, result, controls) or reason
        except Exception as exc:  # a raising case is a failed case
            traceback.print_exc()
            reason = f"raised {exc!r}"
        dt = time.perf_counter() - t0
        h1, m1 = workloads.cache_counts(package)
        hits, misses = hits + h1 - h0, misses + m1 - m0
        if reason:
            print(f"FAIL {case.label}: {reason}", file=sys.stderr)
        records.append((case.label, dt, reason))
    return package, records, (hits, misses)


def pin(k):
    """Run on the k-th usable CPU, in turn.

    On a shared host each CPU slows down on its own, by up to 2x, when a
    neighbour loads the core it shares: in bursts of milliseconds, whose
    share of the time drifts over seconds to minutes.  Repeating the work
    on every CPU and keeping the fastest repetition measures the program
    rather than the neighbour.  Consecutive cases and consecutive
    repetitions of a case run on different CPUs.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def _fresh(tracer):
    package = workloads.load_package()
    if tracer is not None:
        tracer.install(package)
    return package


# -- statistics ---------------------------------------------------------------

def nearest_rank(sorted_values, p):
    """The p-th percentile by nearest rank: p% of the samples are at or below."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond it.

    Below 20 samples no percentile above the median qualifies, and the
    median is reported.
    """
    p = math.floor(100 * (1 - MIN_TAIL_SAMPLES / n)) if n else 50
    while p > 50 and n - math.ceil(p / 100 * n) < MIN_TAIL_SAMPLES:
        p -= 1
    return max(p, 50)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the two kinds of run -----------------------------------------------------

def passes_for(workload, seconds):
    """Passes of a run: fixed for a workload and a --seconds."""
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def set_up_round(workload, turn):
    """Set up round_size times, on the CPUs in turn; keeps the fastest.

    Returns (package, cases, seconds).
    """
    best = None
    for k in range(workload.round_size):
        pin(turn + k)
        package, cases, dt = set_up(workload)
        best = dt if best is None else min(best, dt)
    return package, cases, best


def end_to_end(workload, seed, seconds, controls):
    passes = passes_for(workload, seconds)
    rounds = workload.setup_rounds
    package, cases, first = set_up_round(workload, 0)
    setups = [first]
    # round j runs before pass (j * passes) // rounds
    due = Counter(j * passes // rounds for j in range(1, rounds))
    order = random.Random(seed).sample(range(len(cases)), len(cases))
    times = {i: [] for i in order}
    records = []
    for k in range(passes):
        for _ in range(due[k]):
            package, cases, dt = set_up_round(workload, len(setups))
            setups.append(dt)
        package, recs, _ = run_pass(workload, package, cases, order, controls,
                                    k)
        for i, rec in zip(order, recs):
            times[i].append(rec[1])
        records += recs
    best = sorted(min(ts) for ts in times.values())
    p_tail = tail_percentile(len(best))
    median = statistics.median(best)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "case_p50_s": (median, "s"),
        "case_tail_s": (nearest_rank(best, p_tail) if p_tail > 50 else median,
                        "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {"setup_rounds_s": setups, "passes": passes,
               "cases": len(best), "case_tail_percentile": p_tail,
               "case_times_s": {cases[i].label: ts for i, ts in times.items()}}
    return package, metrics, records, details


def traced(workload, seed, seconds, controls):
    tracer = Tracer()
    package, cases, _ = set_up(workload, tracer)
    setup_snap = tracer.take()
    order = random.Random(seed).sample(range(len(cases)), len(cases))
    plain, timed, records, first = [], [], [], None
    for k in range(max(1, passes_for(workload, seconds) // 2)):
        tracer.uninstall()
        package, recs, _ = run_pass(workload, package, cases, order, controls,
                                    k)
        plain.append(sum(r[1] for r in recs))
        records += recs
        tracer.install(package)
        package, recs, cache = run_pass(workload, package, cases, order,
                                        controls, k + 1, tracer)
        timed.append(sum(r[1] for r in recs))
        records += recs
        snap = tracer.take()
        if first is None:
            first, first_cache = snap, cache
    tracer.uninstall()
    metrics = layer_metrics(setup_snap, first, first_cache)
    overhead = min(timed) - min(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    details = {"untraced_pass_walls_s": plain, "traced_pass_walls_s": timed,
               "setup_layers": _layer_table(setup_snap),
               "pass_layers": _layer_table(first),
               "unpatched": sorted(tracer.missing)}
    return package, metrics, records, details


def _layer_table(snap):
    return {n: {"calls": c, "self_s": s} for n, (c, s) in snap["spans"].items()
            if c}


def layer_metrics(setup_snap, pass_snap, cache):
    """Per-layer metrics over one traced set-up plus one traced pass."""
    both = [setup_snap, pass_snap]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (sum(s["spans"][name][0] for s in both),
                                    "count")
        metrics[f"{name}.self_s"] = (sum(s["spans"][name][1] for s in both),
                                     "s")

    def count(key):
        return sum(s["counts"].get(key, 0) for s in both)

    def covered(group):
        return sum(s["covered"].get(group, 0.0) for s in both)

    hits, misses = cache
    pairs = count("nilring.poly_mul.term_pairs")
    checks = count("search.checks")
    metrics.update({
        "genera.build_s": (covered("build"), "s"),
        "genera.residue_s": (covered("residue"), "s"),
        "genera.cache.hit_ratio": (hits / (hits + misses)
                                   if hits + misses else 0.0, "ratio"),
        "qseries.mul.coeff_mults": (count("qseries.mul.coeff_mults"), "count"),
        "nilring.poly_mul.term_pairs": (pairs, "count"),
        "nilring.poly_mul.keep_ratio": (
            count("nilring.poly_mul.kept_pairs") / pairs if pairs else 0.0,
            "ratio"),
        "nilring.cap_grid": (count("nilring.cap_grid"), "count"),
        "search.accept_ratio": (count("search.found") / checks
                                if checks else 0.0, "ratio"),
        "scalar.max_bits": (max(s["counts"].get("scalar.max_bits", 0)
                                for s in both), "bits"),
    })
    return metrics


# -- metadata -----------------------------------------------------------------

def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(package, args):
    scalar = type(package.rat(0))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "scalar": f"{scalar.__module__}.{scalar.__qualname__}",
        "nproc": os.cpu_count(),
        "cpus_used": CPUS,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


# -- entry points -------------------------------------------------------------

def run_one(args):
    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no {workloads.PACKAGE} sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    controls = workloads.load_controls()
    kind = traced if args.trace else end_to_end
    package, metrics, records, details = kind(workload, args.seed,
                                              args.seconds, controls)
    meta = metadata(package, args)
    if meta["scalar"] == "fractions.Fraction":
        print("warning: gmpy2 is not installed; scalars fall back to "
              "fractions.Fraction", file=sys.stderr)
    failed = sum(1 for r in records if r[2])
    meta.update(details, fail_ratio=failed / len(records),
                failures=sorted({f"{r[0]}: {r[2]}" for r in records if r[2]}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"record": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC_FILE.read_text())["run_seconds"]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
