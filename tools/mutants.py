"""Mutation check: every recorded mutant of the program must be killed.

    python tools/mutants.py

Each entry of tools/mutants.json names a file, an exact snippet in it,
the snippet's replacement, and the tests that must catch the change.
For each mutant the tool copies src/, tests/ and pyproject.toml into a
temporary directory, replaces the snippet there (it must occur exactly
once) and runs `pytest -x` on the named tests in that copy.  The mutant
is killed when pytest reports a failed test (exit code 1); any other
exit code is an error.  Before the mutants run, their named tests must
pass on an unmutated copy, so a misspelt test id cannot pass for a kill.
The mutants run in parallel, as many at once as the process may use CPUs
(and no more than there are mutants), and are reported in the order of
the file.

The exit code is 0 when every mutant is killed, 1 when one survives or
cannot be applied (its snippet no longer matches the source), and 2 when
the unmutated tests fail.  A snippet that a refactor breaks is updated
with the refactor; a survivor is a missing test.
"""
from __future__ import annotations

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "pyproject.toml")


def load():
    """The mutant entries."""
    return json.loads(MUTANTS.read_text())


def mutate(text, snippet, replacement):
    """text with its one occurrence of snippet replaced; ValueError if
    the snippet occurs other than once."""
    count = text.count(snippet)
    if count != 1:
        raise ValueError(f"snippet occurs {count} times")
    return text.replace(snippet, replacement)


def _copy(dest):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(source, dest / name)


def _pytest(cwd, tests):
    """pytest's exit code for the tests, run in the copy at cwd against
    that copy's src."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          check=False).returncode


def run(mutant):
    """'killed', 'survived', or why the mutant could not be run."""
    with tempfile.TemporaryDirectory(prefix="wittenq-mutant-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        path = tmp / mutant["file"]
        try:
            path.write_text(mutate(path.read_text(), mutant["snippet"],
                                   mutant["replacement"]))
        except ValueError as exc:
            return f"not applied: {exc}"
        code = _pytest(tmp, mutant["tests"])
    return {0: "survived", 1: "killed"}.get(code, f"pytest exit code {code}")


def _timed(mutant):
    """(verdict, seconds) of one mutant's run."""
    t0 = time.perf_counter()
    return run(mutant), time.perf_counter() - t0


def main():
    mutants = load()
    tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    with tempfile.TemporaryDirectory(prefix="wittenq-mutant-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the named tests fail unmutated (pytest exit code {code})")
        return 2
    bad = 0
    workers = min(len(os.sched_getaffinity(0)), len(mutants))
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        verdicts = pool.map(_timed, mutants)  # in the order of the file
        for mutant, (verdict, seconds) in zip(mutants, verdicts):
            bad += verdict != "killed"
            print(f"{verdict:>10}  {mutant['name']}  ({seconds:.1f} s)",
                  flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
