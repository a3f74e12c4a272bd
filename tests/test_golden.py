"""Exactness gate: recorded coefficients of factors, lemma reports and genera.

`golden_values.json` holds exact coefficient strings of the factor series
of both routes, the cancellation-lemma reports and a set of nonvanishing
genera.  Every value here is compared for exact equality, and each genus
on both the "theta" and the "bundle" route, so a change to the arithmetic
kernels that alters any coefficient fails this test.

The file is a record, not a fixture to refresh: it must not be rewritten
to make this test pass.  `PYTHONPATH=src python tests/test_golden.py`
prints the values the current code computes, in the file's format.
"""

import json
import pathlib

import pytest

from wittenq import bundles, theta
from wittenq.bundles import lemma42_report
from wittenq.gci import GCIData
from wittenq.genera import mod2_witten, wc_genus, witten_genus
from wittenq.theta import ThetaKind

GOLDEN_FILE = pathlib.Path(__file__).with_name("golden_values.json")

FACTOR_SIZES = [(17, 6), (8, 12)]  # (x-order, q-order)

FACTORS = {
    "x_over_phi": theta.x_over_phi,
    "phi": theta.phi,
    "psi_product": theta.psi_product,
    "psi1": lambda xo, qo: theta.psi(ThetaKind.THETA1, xo, qo),
    "root_factor": bundles.root_factor,
    "lfactor_4k": bundles.lfactor_4k,
    "lfactor_4k2": bundles.lfactor_4k2,
}

LEMMA_ORDERS = [8, 12, 20]

# label -> (genus, n, D, C, q_order); all nonzero at their q-order, and
# both phi2 cases are nonzero mod 2
GENERA = {
    "W cp2xcp2": ("W", [2, 2], [], None, 10),
    "W n=22 D=6,6,6,5": ("W", [22], [[6], [6], [6], [5]], None, 8),
    "Wc4k n=5 D=2 C=1": ("Wc", [5], [[2]], [1], 10),
    "Wc4k2 n=6 D=3 C=2": ("Wc", [6], [[3]], [2], 10),
    "phi2 n=7 D=4,4": ("phi2", [7], [[4], [4]], None, 10),
    "phi2 n=1,5 D=2,2": ("phi2", [1, 5], [[2, 2]], None, 10),
}

GENUS_FNS = {"W": witten_genus, "Wc": wc_genus, "phi2": mod2_witten}


def _strs(series):
    return [str(c) for c in series.coeffs]


def factor_values(name, x_order, q_order):
    """The factor's coefficients: one list of q-coefficients per x-degree."""
    return [_strs(c) for c in FACTORS[name](x_order, q_order)]


def lemma_values(q_order, flip_sign):
    rep = lemma42_report(q_order, flip_sign=flip_sign)
    return {k: (str(v) if k == "quotient_q2" else v) for k, v in rep.items()}


def genus_values(label, route):
    kind, n, D, C, qo = GENERA[label]
    rep = GENUS_FNS[kind](GCIData(n, D, C, q_order=qo), route=route)
    if kind == "phi2":
        return {"precursor": _strs(rep.precursor), "bits": rep.coeffs.bits}
    return {"coeffs": _strs(rep.coeffs), "integral": rep.integral,
            "even_q_support": rep.even_q_support}


def compute_all():
    return {
        "factors": {f"{name} x={xo} q={qo}": factor_values(name, xo, qo)
                    for name in FACTORS for xo, qo in FACTOR_SIZES},
        "lemma42": {f"q={qo} flip={flip}": lemma_values(qo, flip)
                    for qo in LEMMA_ORDERS for flip in (False, True)},
        "genera": {label: genus_values(label, "theta") for label in GENERA},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(FACTORS))
@pytest.mark.parametrize("x_order,q_order", FACTOR_SIZES)
def test_factor_series_exact(golden, name, x_order, q_order):
    key = f"{name} x={x_order} q={q_order}"
    assert factor_values(name, x_order, q_order) == golden["factors"][key]


@pytest.mark.parametrize("q_order", LEMMA_ORDERS)
def test_lemma42_report_exact(golden, q_order):
    for flip in (False, True):
        got = lemma_values(q_order, flip)
        assert got == golden["lemma42"][f"q={q_order} flip={flip}"]
        assert got["passed"] is not flip


@pytest.mark.parametrize("label", list(GENERA))
@pytest.mark.parametrize("route", ["theta", "bundle"])
def test_nonvanishing_genus_exact(golden, label, route):
    want = golden["genera"][label]
    assert genus_values(label, route) == want
    if "bits" in want:
        assert any(want["bits"])
    else:
        assert any(c != "0" for c in want["coeffs"])


if __name__ == "__main__":
    print(json.dumps(compute_all(), indent=1))
