"""tools/bench_pairs.py keeps the two sides' values matched by pair."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_broken_run_drops_only_its_pair(tmp_path):
    bp = _load()
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
