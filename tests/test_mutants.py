"""tools/mutants.py: every recorded snippet still matches the source, so
the mutation check (its own CI step) applies every mutant."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_snippet_matches_its_source_once():
    mutants = _tool().load()
    assert len({m["name"] for m in mutants}) == len(mutants) >= 8
    for m in mutants:
        text = (ROOT / m["file"]).read_text()
        assert text.count(m["snippet"]) == 1, m["name"]
        assert m["replacement"] != m["snippet"] and m["tests"], m["name"]


def test_a_snippet_that_does_not_match_is_not_applied():
    tool = _tool()
    with pytest.raises(ValueError, match="0 times"):
        tool.mutate("abc", "x", "y")
    with pytest.raises(ValueError, match="2 times"):
        tool.mutate("xax", "x", "y")
    stale = {"name": "stale", "file": "src/wittenq/genera.py",
             "snippet": "no such line", "replacement": "x",
             "tests": ["tests/test_genera.py"]}
    assert tool.run(stale) == "not applied: snippet occurs 0 times"
