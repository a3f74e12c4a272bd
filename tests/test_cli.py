"""Tests for the command-line interface: exit codes, JSON round-trips, suites."""

import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

import wittenq
from wittenq import cli
from wittenq.cli import (EXIT_INPUT, EXIT_INTEGRALITY, EXIT_OK,
                         EXIT_PRECONDITION, EXIT_SUITE, run, vanishing_cases)
from wittenq.search import SearchQuery


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_check_outputs_conditions(tmp_path, capsys):
    path = _write(tmp_path, "i.json", {"n": [4], "D": [[1], [2]]})
    assert run(["check", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["spin"] and doc["string"]
    assert doc["stringc"] is None
    assert doc["dims"] == [2, 4]


def test_check_malformed_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"n": [4]})
    assert run(["check", path]) == EXIT_INPUT
    path2 = tmp_path / "notjson.json"
    path2.write_text("{")
    assert run(["check", str(path2)]) == EXIT_INPUT
    assert run(["check", str(tmp_path / "missing.json")]) == EXIT_INPUT


def test_instance_unknown_key_refused(tmp_path, capsys):
    path = _write(tmp_path, "typo.json",
                  {"n": [4], "D": [[1], [2]], "qorder": 3})
    assert run(["check", path]) == EXIT_INPUT
    assert run(["genus", path]) == EXIT_INPUT
    assert "qorder" in capsys.readouterr().err


def test_search_lines_are_instance_files(tmp_path, capsys):
    for parity in ("string", "dim4k2"):
        assert run(["search", "--s", "1", "--t", "2", "--dmax", "3",
                    "--parity", parity, "--q-order", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for k, line in enumerate(lines):
            path = tmp_path / f"{parity}{k}.json"
            path.write_text(line)
            assert run(["check", str(path)]) == EXIT_OK
            capsys.readouterr()


def test_genus_roundtrip_report(tmp_path, capsys):
    path = _write(tmp_path, "cp2.json", {"n": [2], "D": []})
    out = str(tmp_path / "report.json")
    assert run(["genus", path, "--kind", "W", "--q-order", "8",
                "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["kind"] == "W"
    assert doc["instance"] == {"n": [2], "D": [], "q_order": 8}
    assert doc["coeffs"][0] == {"q_exp": 0, "value": "-1/8"}
    assert doc["coeffs"][2]["value"] == "3"
    assert doc["integral"] is False
    assert doc["even_q_support"] is True
    assert doc["conditions"]["spin"] is False


def test_genus_out_into_missing_directory_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "cp2.json", {"n": [2], "D": []})
    out = tmp_path / "missing" / "report.json"
    assert run(["genus", path, "--q-order", "4", "--out", str(out)]) \
        == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.parent.exists()


def test_genus_vanishing_and_modfit(tmp_path, capsys):
    path = _write(tmp_path, "ls.json", {"n": [4], "D": [[1], [2]]})
    assert run(["genus", path, "--q-order", "12", "--modfit"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(e["value"] == "0" for e in doc["coeffs"])
    assert doc["modular_fit"]["ok"]
    assert doc["modular_fit"]["weight"] == 2  # real dim 4 halved
    # weight 2 has an empty basis; only the zero series fits, trivially
    assert doc["modular_fit"]["solution"] == []


def test_genus_modfit_wc_in_dim_4k_plus_2(tmp_path, capsys):
    # W_c in real dimension 4k+2 has weight 2k, the complex dimension - 1
    path = _write(tmp_path, "wc6.json", {"n": [4], "D": [[2]], "C": [1]})
    assert run(["genus", path, "--kind", "Wc", "--q-order", "8",
                "--modfit"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(e["value"] == "0" for e in doc["coeffs"])
    assert doc["modular_fit"]["ok"] is True
    assert doc["modular_fit"]["weight"] == 2


def test_modfit_refused_for_phi2(tmp_path, capsys):
    # phi2 is a series mod 2, which has no modular-form fit
    path = _write(tmp_path, "m2.json", {"n": [7], "D": [[2], [2]]})
    assert run(["genus", path, "--kind", "phi2", "--q-order", "4",
                "--modfit"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--modfit" in captured.err


def test_genus_precondition_exit(tmp_path, capsys):
    path = _write(tmp_path, "cp3.json", {"n": [3], "D": []})
    assert run(["genus", path, "--kind", "W"]) == EXIT_PRECONDITION
    assert run(["genus", path, "--kind", "Wc"]) == EXIT_PRECONDITION  # no C


def test_genus_integrality_exit(tmp_path, capsys):
    # a non-spin instance in the right dimension: precursor not integral
    path = _write(tmp_path, "bad.json", {"n": [6], "D": [[2]]})
    assert run(["genus", path, "--kind", "phi2",
                "--q-order", "6"]) == EXIT_INTEGRALITY


def test_genus_phi2_skips_all_zero_row(tmp_path, capsys):
    # V is empty, so phi2 is 0, also with no nonzero even row left; the
    # zero row is refused as the even row
    for D in ([[0], [2], [2]], [[0], [0], [0]]):
        path = _write(tmp_path, "empty.json", {"n": [8], "D": D})
        assert run(["genus", path, "--kind", "phi2",
                    "--q-order", "4"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["coeffs"]) == 5
        assert all(e["value"] == "0" for e in doc["coeffs"])
        assert "degree row 0 is all zero: V is empty" in \
            doc["conditions"]["diagnostics"]
        assert run(["genus", path, "--kind", "phi2", "--q-order", "4",
                    "--even-row", "0"]) == EXIT_PRECONDITION


def test_even_row_refused_outside_phi2(tmp_path, capsys):
    path = _write(tmp_path, "ls.json", {"n": [4], "D": [[1], [2]], "C": [1]})
    for kind in ("W", "Wc"):
        assert run(["genus", path, "--kind", kind, "--q-order", "2",
                    "--even-row", "1"]) == EXIT_INPUT
        assert "phi2 only" in capsys.readouterr().err


def test_genus_phi2_happy_path(tmp_path, capsys):
    path = _write(tmp_path, "m2.json", {"n": [7], "D": [[2], [2]]})
    assert run(["genus", path, "--kind", "phi2",
                "--q-order", "10"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "phi2"
    assert all(e["value"] == "0" for e in doc["coeffs"])


def test_wc_kind_via_cli(tmp_path, capsys):
    path = _write(tmp_path, "wc.json",
                  {"n": [4], "D": [[1], [1]], "C": [1]})
    assert run(["genus", path, "--kind", "Wc", "--q-order", "10"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "Wc"
    assert all(e["value"] == "0" for e in doc["coeffs"])
    assert doc["conditions"]["stringc"] is True


def test_q_order_env_default(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "cp2.json", {"n": [2], "D": []})
    monkeypatch.setenv("WITTENQ_Q_ORDER", "6")
    assert run(["genus", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["q_order"] == 6
    assert len(doc["coeffs"]) == 7
    monkeypatch.setenv("WITTENQ_Q_ORDER", "not-a-number")
    with pytest.raises(ValueError):
        cli.default_q_order()


@pytest.mark.parametrize("doc", [
    {"n": [4.7], "D": [[1], [2]]},        # float, was truncated to 4
    {"n": 4, "D": [[1], [2]]},            # not a list, was a TypeError
    {"n": [4], "D": [[1], [2]], "q_order": -1},  # was a precondition exit
    {"n": [True, 3], "D": [[1, 1]]},      # bool, was read as 1
], ids=["float", "scalar_n", "negative_q_order", "bool"])
def test_malformed_instance_exits_2(tmp_path, capsys, doc):
    path = _write(tmp_path, "bad.json", doc)
    assert run(["genus", path]) == EXIT_INPUT
    assert run(["check", path]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_malformed_q_order_exits_2(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "cp2.json", {"n": [2], "D": []})
    for argv in (["genus", path, "--q-order", "-1"],
                 ["search", "--s", "1", "--t", "1", "--q-order", "-1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_INPUT
    monkeypatch.setenv("WITTENQ_Q_ORDER", "abc")  # was silently ignored
    assert run(["genus", path]) == EXIT_INPUT
    assert run(["verify", "--suite", "theta"]) == EXIT_INPUT
    assert "WITTENQ_Q_ORDER" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--s", "0"], ["--s", "-1"], ["--t", "0"], ["--dmax", "0"],
    ["--dmax", "-2"], ["--parity", "dim4k", "--cmax", "-1"],
], ids=["s0", "s-1", "t0", "dmax0", "dmax-2", "cmax-1"])
def test_bad_search_bounds_exit_2(capsys, argv):
    # each of these used to print nothing and exit 0
    with pytest.raises(SystemExit) as exc:
        run(["search"] + argv)
    assert exc.value.code == EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_instance_q_order_precedence(tmp_path, capsys):
    # explicit flag > instance file > env default
    path = _write(tmp_path, "cp2.json", {"n": [2], "D": [], "q_order": 4})
    assert run(["genus", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["q_order"] == 4
    assert run(["genus", path, "--q-order", "8"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["q_order"] == 8


def test_search_command_emits_json_lines(capsys):
    assert run(["search", "--s", "1", "--t", "2", "--dmax", "2"]) == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    match = [d for d in lines if d["n"] == [4]]
    assert match
    assert match[0]["D"] == [[1], [2]]
    assert match[0]["q_order"] == 20
    assert match[0]["conditions"]["string"]


def test_search_stringc_parity_flag(capsys):
    assert run(["search", "--s", "1", "--t", "2", "--dmax", "2",
                "--cmax", "1", "--parity", "dim4k2"]) == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert any(d["n"] == [4] and d["D"] == [[2]] and d["C"] == [1]
               for d in lines)


def test_mass_run_case_list_is_pinned():
    """The mass vanishing run's cases, without running them: labels,
    instances and order against a recorded digest."""
    cases = vanishing_cases(SearchQuery(q_order=12))
    labels = [label for label, _, _ in cases]
    assert len(cases) == 304
    assert [labels.count(k) for k in ("Wc", "W", "phi2")] == [254, 32, 18]
    assert sum(label == "Wc" and g.s == 2 for label, g, _ in cases) == 51
    h = hashlib.sha256()
    for label, g, _ in cases:
        h.update(json.dumps([label, g.n, g.D, g.C, g.q_order]).encode()
                 + b"\n")
    assert h.hexdigest() == ("e3c19e9c7c5174c0011e86b871307f4a"
                             "3c4a4fd498ba53557873ed681c8a967d")


def test_verify_theta_suite(capsys):
    assert run(["verify", "--suite", "theta", "--q-order", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[theta]" in out and "0 failed" in out


def test_verify_bundles_suite(capsys):
    assert run(["verify", "--suite", "bundles", "--q-order", "12"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_modular_suite(capsys):
    assert run(["verify", "--suite", "modular", "--q-order", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 failed" in out


@pytest.mark.parametrize("suite", ["modular", "all"])
def test_verify_modular_below_min_q_order_exits_3(monkeypatch, capsys,
                                                  suite):
    # weight 24 has three basis monomials, so its fit reads q~^0..q~^2;
    # the check comes before any suite runs
    monkeypatch.setattr(cli, "suite_theta", lambda qo: pytest.fail("ran"))
    for q in ("0", "1", "2", "3"):
        assert run(["verify", "--suite", suite, "--q-order", q]) \
            == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("precondition failure: the modular suite "
                                f"needs q-order >= 4, got {q}\n")
    assert run(["verify", "--suite", "modular", "--q-order", "4"]) == EXIT_OK
    assert "[modular] 15 passed, 0 failed" in capsys.readouterr().out


def test_suite_failure_exit_code(monkeypatch, capsys):
    # force a failing suite result to confirm the exit code contract
    monkeypatch.setattr(cli, "suite_theta", lambda qo: {"broken": False})
    assert run(["verify", "--suite", "theta"]) == EXIT_SUITE
    out = capsys.readouterr().out
    assert "FAIL broken" in out


@pytest.mark.parametrize("backend", ["gmpy2.mpq", "fractions.Fraction"])
def test_version_names_scalar_backend(capsys, backend):
    # the rational view is always fractions.Fraction, so the version line
    # names neither the deleted gmpy2 view nor the type it fell back to
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == "wittenq 0.1.0\n"
    assert backend not in captured.out
    assert captured.err == ""
    rational = type(wittenq.rat(0))
    assert f"{rational.__module__}.{rational.__qualname__}" == \
        "fractions.Fraction"


def _subprocess_env():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "wittenq", "--version"],
                          capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "wittenq 0.1.0\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_pipe_ends_quietly_by_sigpipe():
    # about 190 kB of JSON lines, more than a pipe and a write buffer hold,
    # so the writer is still writing when the reader goes away
    with subprocess.Popen(
            [sys.executable, "-m", "wittenq", "search", "--parity", "dim4k",
             "--cmax", "3", "--q-order", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
            env=_subprocess_env()) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == -signal.SIGPIPE, err
    assert json.loads(line)["conditions"]["stringc"]
    assert "Traceback" not in err
