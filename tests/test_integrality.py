"""Integrality of the genera on every spin or spin^c instance, not only on
the vanishing ones (hypothesis, both routes).

By Atiyah-Singer each q-coefficient of W_c on a spin^c manifold (C = w2
mod 2) is the index of a twisted spin^c Dirac operator, and each
q-coefficient of W on a spin manifold (w2 = 0) that of a twisted Dirac
operator, so both are integers; in real dimension 8k+4 the twisting
bundles of W are real and its coefficients even.  The phi2 precursor of
a spin instance of real dimension 8k+2 is an integral index too.  No
recorded value is needed: a nonzero genus that is not integral is a
fault.  A control with the spin^c parity broken (C_1 shifted by 1) must
give non-integral W_c, so the property cannot pass vacuously.
"""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from wittenq.gci import GCIData, dims, even_rows, w2_vector
from wittenq.genera import mod2_witten, wc_genus, witten_genus

PROPS = settings(deadline=None, max_examples=300, derandomize=True,
                 database=None)
ROUTES = ("theta", "bundle")


@st.composite
def instances(draw):
    """(g, spin): s <= 3 factors, up to four degree rows in -3..4 (a
    nonzero all-even one in half the draws), n_b of w2's parity when
    spin, then real dimension 8k+2 if it is 2 mod 4, C = w2 + 2j,
    q-order <= 6."""
    s = draw(st.integers(1, 3))
    t = draw(st.integers(0, 4))
    D = draw(st.lists(st.lists(st.integers(-3, 4), min_size=s, max_size=s),
                      min_size=t, max_size=t))
    if t and draw(st.booleans()):
        D[0] = draw(st.lists(st.sampled_from([-2, 0, 2, 4]), min_size=s,
                             max_size=s).filter(any))
    spin = draw(st.booleans())
    k = draw(st.lists(st.integers(1, 3 if s < 3 else 2), min_size=s,
                      max_size=s))
    sums = [sum(row[b] for row in D) for b in range(s)]
    n = [2 * kb + (spin and (c + 1) % 2) for kb, c in zip(k, sums)]
    n[0] += 2 * max(0, -(-(t - sum(n)) // 2))  # codimension <= dimension
    if (sum(n) - t) % 4 == 3:  # an odd spin dimension: make it 8k+2 for phi2
        n[0] += 2
    g = GCIData(n, D, q_order=draw(st.integers(0, 6)))
    j = draw(st.lists(st.integers(-1, 1), min_size=s, max_size=s))
    C = [w + 2 * x for w, x in zip(w2_vector(g), j)]
    return GCIData(n, D, C, q_order=g.q_order), spin


def _integral(series):
    return all(c.denominator == 1 for c in series.coeffs)


def test_index_integrality():
    seen = collections.Counter()

    @PROPS
    @given(instances())
    def check(case):
        g, spin = case
        rdim = dims(g)[1]
        broken = GCIData(g.n, g.D, [g.C[0] + 1, *g.C[1:]], q_order=g.q_order)
        for route in ROUTES:
            wc = wc_genus(g, route=route)
            assert _integral(wc.coeffs), (g, route)
            seen[wc.kind] += not wc.coeffs.is_zero()
            bad = wc_genus(broken, route=route).coeffs
            seen["broken parity"] += not _integral(bad)
            if not spin:
                continue
            if rdim % 4 == 0:
                w = witten_genus(g, route=route).coeffs
                assert _integral(w), (g, route)
                if rdim % 8 == 4:
                    assert all(c % 2 == 0 for c in w.coeffs), (g, route)
                    seen["W 8k+4"] += not w.is_zero()
                seen["W"] += not w.is_zero()
            if rdim % 8 == 2 and even_rows(g):
                # mod2_witten raises NonIntegralError on a fractional one
                pre = mod2_witten(g, route=route).precursor
                assert _integral(pre), (g, route)
                seen["phi2"] += not pre.is_zero()
        seen["three factors"] += g.s == 3

    check()
    assert min(seen[k] for k in ("Wc4k", "Wc4k2", "W", "W 8k+4", "phi2",
                                 "broken parity", "three factors")) >= 10, seen
