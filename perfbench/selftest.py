"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that:
- a run prints every metric named in BENCHMARK.json, with its unit, in the
  result line (end-to-end with --trace 0, per-layer with --trace 1);
- a corrupted control value, or a nonzero vanishing genus, is caught;
- a copy of the benchmark without the program's sources exits nonzero
  and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUICK = "cold_build"  # the fastest workload; metric names are shared

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", QUICK,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def check_metric_names(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(proc.returncode == 0 and result["correct"],
               f"--trace {trace} run succeeds")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} result has exactly the contract's keys")
        got = result["metrics"]
        for m in spec[key]:
            entry = got.get(m["name"], {})
            expect(isinstance(entry.get("value"), (int, float))
                   and not isinstance(entry.get("value"), bool)
                   and entry.get("unit") == m["unit"],
                   f"--trace {trace} prints {m['name']} in {m['unit']}")
        expect(set(got) == {m["name"] for m in spec[key]},
               f"--trace {trace} prints no metric outside BENCHMARK.json")


def check_gates():
    controls = workloads.load_controls()
    package = workloads.load_package()
    case = next(c for c in workloads.heavy_cases(package) if c.control)
    result = workloads.run_case(package, case)
    expect(workloads.check_case(case, result, controls) is None,
           "the recorded control value passes")
    bad = json.loads(json.dumps(controls))
    values = bad["values"][case.label]
    k = next(i for i, v in enumerate(values) if v != "0")
    values[k] = str(int(values[k]) + 1)
    expect(workloads.check_case(case, result, bad) is not None,
           "a corrupted control value is caught")
    vanishing = workloads.Case(case.kind, case.n, case.D, case.C,
                               case.q_order)
    expect(workloads.check_case(vanishing, result, controls) is not None,
           "a nonzero genus is caught where zero is expected")


def check_without_sources():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(tmp, 0)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(l.startswith("{") for l in lines),
           "without the sources the run exits nonzero and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_gates()
    check_without_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
