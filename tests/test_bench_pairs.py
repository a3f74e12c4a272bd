"""tools/bench_pairs.py keeps the two sides' values matched by pair, and
both sides import the same way."""

import importlib.util
import json
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(tmp_path):
    """The tool, with a bytecode-free stand-in for this checkout as the
    change side (running the tests leaves caches under this one's src)."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    change = tmp_path / "change"
    (change / "src").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", change)
    module.ROOT = change
    return module


def test_broken_run_drops_only_its_pair(tmp_path):
    bp = _load(tmp_path)
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    seed0, broken = 100, 3

    def fake_run(checkout, workload, seed, seconds):
        i = seed - seed0
        if checkout == bp.ROOT and i == broken:
            return None, None
        # the change is 0.5 lower in every pair; a shifted pairing loses
        value = 10.0 + i - (0.5 if checkout == bp.ROOT else 0.0)
        return ({"failed": 0,
                 "metrics": {n: {"value": value} for n in names}},
                {"scalar": "fractions.Fraction"})

    bp.run = fake_run
    out = tmp_path / "pairs.json"
    code = bp.main(["--parent", str(tmp_path), "--parent-commit", "p",
                    "--seed0", str(seed0), "--out", str(out)])
    assert code == 1  # the broken run is reported
    for workload in json.loads(out.read_text())["workloads"].values():
        assert workload["failed"]["change"][broken] is None
        assert set(workload["metrics"]) == set(names)
        for metric in workload["metrics"].values():
            assert metric["pairs"] == metric["pairs_won"] == bp.PAIRS - 1
            assert not metric["gain"]  # a gain needs every pair
            assert metric["parent"]["values"] == [
                10.0 + i for i in range(bp.PAIRS) if i != broken]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_refuses_a_checkout_with_bytecode_caches(tmp_path, capsys, side):
    bp = _load(tmp_path)
    parent = tmp_path / "parent"
    (parent / "src").mkdir(parents=True)
    cache = (parent if side == "parent" else bp.ROOT) / "src" / "pkg" / \
        "__pycache__"
    cache.mkdir(parents=True)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started despite a bytecode cache")

    bp.run = no_run
    out = tmp_path / "pairs.json"
    code = bp.main(["--parent", str(parent), "--parent-commit", "p",
                    "--seed0", "1", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert str(cache) in capsys.readouterr().err


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    bp = _load(tmp_path)
    seen = []

    def fake_subprocess_run(cmd, **kwargs):
        seen.append(kwargs["env"].get("PYTHONDONTWRITEBYTECODE"))
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(bp.subprocess, "run", fake_subprocess_run)
    assert bp.run(tmp_path, "catalog_1f", 1, 1) == (None, None)
    assert seen == ["1"]


@pytest.mark.parametrize("given", ["c0ffee", None])
def test_change_commit_reaches_meta(tmp_path, given):
    """--change-commit names the change measured from a checkout that is
    not a git repository; without it the checkout's HEAD is recorded."""
    bp = _load(tmp_path)
    bp.run = lambda *args: ({"failed": 0, "metrics": {}},
                            {"scalar": "int"})
    bp.git_head = lambda checkout: f"head of {checkout.name}"
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path), "--parent-commit", "p",
            "--seed0", "1", "--out", str(out)]
    if given:
        argv += ["--change-commit", given]
    assert bp.main(argv) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["change_commit"] == (given or "head of change")
    assert meta["parent_commit"] == "p"
