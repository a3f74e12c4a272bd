"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/repeat.py --runs 10 --seed0 100 [--workloads a,b]
                                [--trace 0] [--out summary.json]

Each run is `perfbench/run.py` with its own seed, one after the other.
For every metric the summary gives the median, the quartiles (as
statistics.quantiles(values, n=4) computes them) and the spread, the
distance between the quartiles as a share of the median.  An end-to-end
metric, setup_s included, is flagged when its spread is not below a third
of its bound in BENCHMARK.json.  The exit code is 1 if any run failed or
any spread was flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None, elapsed
    return json.loads(lines[-1]), json.loads(lines[-2])["record"], elapsed


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=100)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args()
    names = [w["name"] for w in spec["workloads"]] \
        if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, bad = {"runs": args.runs, "seconds": args.seconds,
                    "trace": args.trace, "workloads": {}}, 0
    for name in names:
        values, durations, meta = {}, [], None
        for i in range(args.runs):
            result, record, elapsed = run_once(name, args.seed0 + i,
                                               args.seconds, args.trace)
            durations.append(elapsed)
            if result is None or not result["correct"]:
                print(f"{name} seed {args.seed0 + i}: run failed")
                bad += 1
                continue
            meta = meta or record
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        stats = {m: summarise(v) for m, v in values.items() if len(v) >= 2}
        summary["workloads"][name] = {
            "metadata": meta, "run_seconds_wall": summarise(durations),
            "metrics": stats}
        print(f"== {name}: runs took {statistics.median(durations):.1f} s "
              f"median, {max(durations):.1f} s max")
        for metric, s in stats.items():
            flag = ""
            if metric in bounds and s["spread"] \
                    is not None and s["spread"] >= bounds[metric] / 3:
                flag = f"  SPREAD >= bound/3 ({bounds[metric] / 3:.3f})"
                bad += 1
            print(f"  {metric:36s} median {s['median']:.6g}  "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
