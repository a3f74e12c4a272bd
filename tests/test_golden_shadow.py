"""Exactness gate: the nonzero shadow of the mass run, on both routes.

The mass run only sees zeros, so a change that keeps a zero at zero
passes it.  `golden_shadow.json` holds its two-factor W_c instances with
C shifted by e_1, none of them string^c and most of them nonzero, and
their exact coefficients at q-order 12.  `record_shadow.py` recorded the
file once with the naive ring oracle of `nilpoly_ring`, which shares no
kernel with either route.  The file is a record, not a fixture to
refresh: it must not be rewritten to make a test pass.

The theta route (the index sum) runs on every instance in tier-1; the
bundle route (the `nilring` kernels) takes about ten seconds and is
marked slow.
"""

import json
import pathlib

import pytest

from record_shadow import shadow_instances
from wittenq.gci import GCIData, condition_report
from wittenq.genera import wc_genus

GOLDEN = json.loads(pathlib.Path(__file__).with_name(
    "golden_shadow.json").read_text())


def _compare(route):
    for case in GOLDEN["cases"]:
        g = GCIData(case["n"], case["D"], case["C"],
                    q_order=GOLDEN["q_order"])
        rep = wc_genus(g, route=route)
        assert rep.kind == case["kind"], case
        assert [str(c) for c in rep.coeffs.coeffs] == case["coeffs"], case


def test_shadow_theta_route():
    # the file holds exactly the mass run's two-factor W_c instances, C
    # shifted by e_1, in its order; none stays string^c
    shifted = [(list(g.n), [list(r) for r in g.D], [g.C[0] + 1, *g.C[1:]])
               for g in shadow_instances()]
    cases = GOLDEN["cases"]
    assert [(c["n"], c["D"], c["C"]) for c in cases] == shifted
    assert len(cases) == 51 and GOLDEN["q_order"] == 12
    assert not any(condition_report(GCIData(c["n"], c["D"], c["C"]))
                   .stringc for c in cases)
    assert sum(c["coeffs"] != ["0"] * 13 for c in cases) == 48
    _compare("theta")


@pytest.mark.slow
def test_shadow_bundle_route():
    _compare("bundle")
