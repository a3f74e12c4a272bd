"""Exactness gate: recorded nonvanishing genera off the vanishing theorems.

`golden_nonvanishing.json` holds the exact coefficient strings of genera
that are nonzero at their q-order, recorded on both the "theta" and the
"bundle" route.  The cases are chosen to stress the places where the
theta-route assembly merges linear forms that lie on one line:

- two-factor W_c with a C off the string^c condition, in real dimension
  4k and 4k+2;
- a spin but non-string W;
- two parallel degree rows, a row parallel to an axis, C parallel to a
  row or to an axis, negative entries;
- a two-factor phi2 with another row parallel to its even row.

The file is a record, not a fixture to refresh: it must not be rewritten
to make this test pass.
`PYTHONPATH=src python tests/test_golden_nonvanishing.py` prints the values
the current code computes, in the file's format, and refuses if the two
routes disagree.
"""

import json
import pathlib
import sys

import pytest

from wittenq.gci import GCIData
from wittenq.genera import mod2_witten, wc_genus, witten_genus

GOLDEN_FILE = pathlib.Path(__file__).with_name("golden_nonvanishing.json")

ROUTES = ("theta", "bundle")

# label -> (genus, n, D, C, q_order)
CASES = {
    "Wc4k n=2,3 D=(1,1) C=(1,1)": ("Wc", [2, 3], [[1, 1]], [1, 1], 6),
    "Wc4k2 n=2,2 D=(1,1) C=(1,2)": ("Wc", [2, 2], [[1, 1]], [1, 2], 6),
    "Wc4k n=5,6 D=(1,2),(2,1),(1,1) C=(1,-1)":
        ("Wc", [5, 6], [[1, 2], [2, 1], [1, 1]], [1, -1], 8),
    "Wc4k2 n=1,1,2 D=(1,1,1) C=(1,0,1)":
        ("Wc", [1, 1, 2], [[1, 1, 1]], [1, 0, 1], 6),
    "W spin n=3,3 D=(2,2),(2,2)": ("W", [3, 3], [[2, 2], [2, 2]], None, 6),
    "W n=3,3 D=(1,1),(2,2)": ("W", [3, 3], [[1, 1], [2, 2]], None, 6),
    "W n=4,2 D=(2,0),(1,1)": ("W", [4, 2], [[2, 0], [1, 1]], None, 6),
    "W n=3,3 D=(3,0),(0,1)": ("W", [3, 3], [[3, 0], [0, 1]], None, 6),
    "Wc4k n=2,3 D=(1,1) C=(2,2)": ("Wc", [2, 3], [[1, 1]], [2, 2], 6),
    "Wc4k2 n=2,2 D=(1,1) C=(1,1)": ("Wc", [2, 2], [[1, 1]], [1, 1], 6),
    "Wc4k n=2,3 D=(1,2) C=(0,-1)": ("Wc", [2, 3], [[1, 2]], [0, -1], 6),
    "W n=3,2 D=(1,-1)": ("W", [3, 2], [[1, -1]], None, 6),
    "Wc4k n=3,2 D=(1,-1) C=(1,-1)": ("Wc", [3, 2], [[1, -1]], [1, -1], 6),
    "Wc4k2 n=2,2 D=(1,-1) C=(1,-2)": ("Wc", [2, 2], [[1, -1]], [1, -2], 6),
    "phi2 n=4,3 D=(2,2),(1,1)": ("phi2", [4, 3], [[2, 2], [1, 1]], None, 6),
    "phi2 n=4,3 D=(2,2),(-1,-1)":
        ("phi2", [4, 3], [[2, 2], [-1, -1]], None, 6),
}

GENUS_FNS = {"W": witten_genus, "Wc": wc_genus, "phi2": mod2_witten}


def _strs(series):
    return [str(c) for c in series.coeffs]


def genus_values(label, route):
    kind, n, D, C, qo = CASES[label]
    rep = GENUS_FNS[kind](GCIData(n, D, C, q_order=qo), route=route)
    if kind == "phi2":
        return {"precursor": _strs(rep.precursor), "bits": rep.coeffs.bits}
    return {"kind": rep.kind, "coeffs": _strs(rep.coeffs),
            "integral": rep.integral, "even_q_support": rep.even_q_support}


def compute_all():
    out = {}
    for label in CASES:
        by_route = {route: genus_values(label, route) for route in ROUTES}
        if by_route["theta"] != by_route["bundle"]:
            raise SystemExit(f"routes disagree on {label}")
        out[label] = by_route
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("label", list(CASES))
@pytest.mark.parametrize("route", ROUTES)
def test_nonvanishing_genus_exact(golden, label, route):
    want = golden[label][route]
    assert genus_values(label, route) == want
    values = want["precursor"] if "precursor" in want else want["coeffs"]
    assert any(c != "0" for c in values)


if __name__ == "__main__":
    json.dump(compute_all(), sys.stdout, indent=1)
    print()
