"""Ten interleaved parent/change benchmark pairs, summarised as one JSON file.

    git archive <parent-commit> | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent --parent-commit <sha> \
        --seed0 1001 --out BENCH_<n>.json

Run from a `git archive` of the change (whose src then holds no bytecode
cache), pass `--change-commit <sha>` too, or the output names no change.

For every workload of BENCHMARK.json, pair i runs `perfbench/run.py
--workload <w> --seed <seed0 + i> --seconds <run_seconds> --trace 0` in
the parent checkout and in this one, each with its own perfbench and src,
one after the other: the parent first in even pairs, the change first in
odd ones.  For every end-to-end metric the output gives, per workload,
both sides' values in pair order with their median and quartiles (the
`summarise` of perfbench/repeat.py), the number of pairs in which both
sides ran (a pair with a broken run is left out, so the others stay
matched), the pairs the change won (ties count for neither) and two
verdicts:

- gain: all ten pairs ran, the change won at least nine of them, and the
  medians differ by more than the parent's interquartile range;
- within_bound: the change's median is no worse than the parent's by more
  than the metric's bound.

It also records the seeds, run length, scalar backend, nproc, Python and
both commits, and the failed operations of every run.  The exit code is
1 if any run failed.

Both sides import the same way: every run has PYTHONDONTWRITEBYTECODE=1,
and the tool refuses to start (exit code 2, naming the paths) while
either checkout holds a `src/**/__pycache__`, because a bytecode cache
on one side only lowers that side's setup_s and peak_rss_mb.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from repeat import summarise  # noqa: E402

PAIRS = 10


def run(checkout, workload, seed, seconds):
    """(result, record) of one perfbench run, or (None, None) if it broke."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def git_head(checkout):
    """HEAD of a git checkout, marked '+dirty' with uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=False).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head:
        return None
    return head + ("+dirty" if git("status", "--porcelain") else "")


def both_ran(parent, change):
    """The parent and change values of the pairs in which both sides ran;
    None marks a run that broke or did not report the metric."""
    kept = [(p, c) for p, c in zip(parent, change)
            if p is not None and c is not None]
    return [p for p, _ in kept], [c for _, c in kept]


def compare(parent, change, better, bound):
    """Both sides' summaries, pairs won and verdicts for one metric."""
    par, chg = summarise(parent), summarise(change)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (par["median"] - chg["median"])
    return {
        "parent": par, "change": chg, "pairs_won": wins,
        "pairs": len(parent),
        "gain": len(parent) == PAIRS and wins >= 9
        and gap > par["q3"] - par["q1"],
        "within_bound": -gap <= bound * par["median"],
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--parent-commit", default=None,
                   help="commit of --parent when it is not a git checkout")
    p.add_argument("--change-commit", default=None,
                   help="commit of this checkout when it is not a git "
                        "checkout (default: its HEAD)")
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    caches = [str(c) for side in sides.values()
              for c in sorted((side / "src").rglob("__pycache__"))]
    if caches:
        print("bytecode caches would make the sides import differently; "
              "remove them first:\n  " + "\n  ".join(caches), file=sys.stderr)
        return 2
    out = {"meta": {
        "parent_commit": args.parent_commit or git_head(sides["parent"]),
        "change_commit": args.change_commit or git_head(ROOT),
        "seeds": list(range(args.seed0, args.seed0 + PAIRS)),
        "seconds": seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "scalar": None,
        "command": "perfbench/run.py --workload <w> --seed <s> --trace 0",
        "order": "parent first in even pairs, change first in odd pairs"},
        "workloads": {}}
    broken = 0
    for name in (w["name"] for w in spec["workloads"]):
        values = {"parent": {}, "change": {}}
        failed = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = args.seed0 + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result, record = run(sides[side], name, seed, seconds)
                if result is None:
                    broken += 1
                    failed[side].append(None)
                    continue
                out["meta"]["scalar"] = record["scalar"]
                failed[side].append(result["failed"])
                broken += bool(result["failed"])
                for metric, v in result["metrics"].items():
                    slots = values[side].setdefault(metric, [None] * PAIRS)
                    slots[i] = v["value"]
            print(f"{name} pair {i + 1}/{PAIRS} done", file=sys.stderr)
        metrics = {}
        for m in spec["end_to_end"]:
            par, chg = both_ran(values["parent"].get(m["name"], []),
                                values["change"].get(m["name"], []))
            if len(par) >= 2:
                metrics[m["name"]] = compare(par, chg, m["better"], m["bound"])
        out["workloads"][name] = {"failed": failed, "metrics": metrics}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
