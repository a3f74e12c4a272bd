"""Tests for the genus computations: values, vanishing, structure."""

import itertools
from fractions import Fraction

import pytest

from wittenq import genera, theta
from wittenq.errors import DimensionError, NonIntegralError
from wittenq.gci import GCIData
from wittenq.genera import (dim4_closed_form, mod2_witten, quadratic_pairing,
                            sigma1_series, wc_genus, witten_genus)
from wittenq.nilring import NilPoly
from wittenq.qseries import QSeries
from wittenq.theta import ThetaKind, direction_series


def _frac(qs, k):
    return Fraction(str(qs.coefficient(k)))


def test_witten_cp2_values_and_flags():
    rep = witten_genus(GCIData([2], [], q_order=10))
    # frozen values: -1/8, 3, 9, 12, 21, 18 at q^0, q^2, ..., q^10
    expect = {0: Fraction(-1, 8), 2: 3, 4: 9, 6: 12, 8: 21, 10: 18}
    for k, v in expect.items():
        assert _frac(rep.coeffs, k) == v
    assert not rep.integral  # CP^2 is not spin
    assert rep.even_q_support


def test_witten_cp2_matches_direct_residue_oracle():
    # brute force: coefficient of x^2 in (x/Phi)^3
    qo = 10
    cube = NilPoly.from_univariate(theta.x_over_phi(2, qo), 0, (2,), qo) ** 3
    rep = witten_genus(GCIData([2], [], q_order=qo))
    assert rep.coeffs == cube.coeffs[2]


def test_witten_k3_values():
    rep = witten_genus(GCIData([3], [[4]], q_order=8))
    assert _frac(rep.coeffs, 0) == 2  # the A-hat genus of a K3 surface
    assert _frac(rep.coeffs, 2) == -48
    assert _frac(rep.coeffs, 4) == -144
    assert rep.integral and rep.even_q_support


def test_witten_multiplicative_on_products():
    qo = 8
    w_cp2 = witten_genus(GCIData([2], [], q_order=qo)).coeffs
    w_k3 = witten_genus(GCIData([3], [[4]], q_order=qo)).coeffs
    w_prod = witten_genus(GCIData([2, 3], [[0, 4]], q_order=qo)).coeffs
    assert w_prod == w_cp2 * w_k3


def test_witten_string_vanishing():
    rep = witten_genus(GCIData([4], [[1], [2]], q_order=20))
    assert rep.coeffs.is_zero()


def test_witten_dimension_gate():
    with pytest.raises(DimensionError):
        witten_genus(GCIData([3], []))  # real dim 6


def test_wc_4k_branch_vanishing():
    rep = wc_genus(GCIData([4], [[1], [1]], C=[1], q_order=20))
    assert rep.kind == "Wc4k"
    assert rep.coeffs.is_zero()


def test_wc_4k2_branch_vanishing():
    rep = wc_genus(GCIData([4], [[2]], C=[1], q_order=20))
    assert rep.kind == "Wc4k2"
    assert rep.coeffs.is_zero()


def test_wc_requires_c():
    with pytest.raises(ValueError):
        wc_genus(GCIData([4], [[2]]))


def test_wc_reduces_to_w_at_c_zero():
    # only the 4k branch has an untwisted comparator
    for n, D in [([4], [[1], [1]]), ([3], [[4]])]:
        g = GCIData(n, D, C=[0], q_order=8)
        assert wc_genus(g).coeffs == witten_genus(GCIData(n, D, q_order=8)).coeffs


def test_wc_sign_symmetric_in_c_4k():
    # the 4k twist is even in ell_c, so C and -C agree exactly
    g1 = wc_genus(GCIData([4], [[1], [1]], C=[1], q_order=8)).coeffs
    g2 = wc_genus(GCIData([4], [[1], [1]], C=[-1], q_order=8)).coeffs
    assert g1 == g2


def test_wc_antisymmetric_in_c_4k2():
    # the 4k+2 twist is odd in ell_c, so C -> -C flips the sign
    g1 = wc_genus(GCIData([6], [[3]], C=[2], q_order=8)).coeffs
    g2 = wc_genus(GCIData([6], [[3]], C=[-2], q_order=8)).coeffs
    assert g1 == -g2


def test_mod2_theorem_instance():
    rep = mod2_witten(GCIData([7], [[2], [2]], q_order=20))
    assert rep.kind == "PHI_MOD2"
    assert rep.integral  # the rational precursor is exactly integral
    assert rep.precursor.is_integral()
    assert rep.coeffs.is_zero()


def test_mod2_even_row_independence():
    # outside the vanishing theorem the precursor may depend on the chosen
    # all-even row, but its mod 2 reduction must not
    g = GCIData([9], [[2], [4]], q_order=8)
    a = mod2_witten(g, even_row=0, strict=False)
    b = mod2_witten(g, even_row=1, strict=False)
    assert not a.coeffs.is_zero()
    assert a.coeffs == b.coeffs


def test_mod2_gates():
    with pytest.raises(DimensionError):
        mod2_witten(GCIData([4], [[2]]))  # real dim 6, strict
    with pytest.raises(ValueError):
        mod2_witten(GCIData([6], [[1], [3]]), strict=False)  # no even row
    with pytest.raises(ValueError):
        mod2_witten(GCIData([7], [[2], [2]]), even_row=5)
    with pytest.raises(ValueError):  # row 2 has an odd degree
        mod2_witten(GCIData([8], [[2], [2], [1]]), even_row=2)


@pytest.mark.parametrize("caps", [(4,), (3, 5), (2, 2, 3)],
                         ids=["s1", "s2", "s3"])
@pytest.mark.parametrize("n_specs", [0, 1, 2])
def test_residue_contraction_matches_full_product(caps, n_specs):
    # with at most one linear-form piece, _residue contracts the axis
    # factors; the oracle multiplies the whole integrand out
    qo, s, th = 4, len(caps), ThetaKind.THETA
    g = GCIData(list(caps), [], q_order=qo)
    # factors of the parities that leave the residue nonzero
    axes = [direction_series([(th, cap + 1 + b, 1)], cap % 2, cap, qo)
            for b, cap in enumerate(caps)]
    total = sum(caps)
    specs = [(direction_series([(th, 1, 1), (th, -1, 2)], 0, total, qo),
              (1, -2, 1)[:s]),
             (direction_series([(ThetaKind.THETA1, 1, 1)], 0, total, qo),
              (2, 1, 0)[:s])][:n_specs]

    def full_product(axes, specs):
        prod = NilPoly.one(caps, qo)
        for b, f in enumerate(axes):
            prod = prod * NilPoly.from_univariate(f, b, caps, qo)
        for f, d in specs:
            ell = sum((NilPoly.generator(caps, b, qo) * db
                       for b, db in enumerate(d)), NilPoly.zero(caps, qo))
            at = NilPoly.zero(caps, qo)
            for k in range(total, -1, -1):
                at = at * ell + NilPoly.constant(caps, f[k])
            prod = prod * at
        return prod.top_coeff()

    got = genera._residue(g, axes, specs)
    assert got == full_product(axes, specs)
    assert not got.is_zero()
    # one zero factor, on an axis or on a linear form, kills the residue
    zero_axis = [QSeries.zero(qo)] * (caps[0] + 1)
    assert genera._residue(g, [zero_axis] + axes[1:], specs).is_zero()
    if specs:
        zero_spec = [QSeries.zero(qo)] * (total + 1)
        assert genera._residue(g, axes, [(zero_spec, specs[0][1])]
                               + specs[1:]).is_zero()


def test_route_equivalence():
    cases = [
        (GCIData([2], [], q_order=8), witten_genus),
        (GCIData([3], [[2]], q_order=8), witten_genus),
        (GCIData([3, 2], [[1, 2]], C=[1, 0], q_order=8), wc_genus),
        (GCIData([4], [[2]], C=[2], q_order=8), wc_genus),
    ]
    for g, fn in cases:
        assert fn(g, route="theta").coeffs == fn(g, route="bundle").coeffs
    g = GCIData([7], [[2], [2]], q_order=8)
    assert (mod2_witten(g, route="theta").precursor
            == mod2_witten(g, route="bundle").precursor)


@pytest.mark.parametrize("route", ["theta", "bundle"])
def test_degree_one_row_drops_the_ambient_dimension(route):
    # a degree-1 row on CP^n cuts out CP^(n-1): the exponentials the
    # genera cache share rests on this, and each route must show it
    cases = [(witten_genus, ([5], [[1], [2], [2]], None), ([4], [[2], [2]], None)),
             (wc_genus, ([7], [[1], [3]], [1]), ([6], [[3]], [1])),
             (wc_genus, ([6], [[1], [2]], [2]), ([5], [[2]], [2]))]
    for fn, (n, D, C), (n1, D1, C1) in cases:
        big = fn(GCIData(n, D, C=C, q_order=8), route=route)
        small = fn(GCIData(n1, D1, C=C1, q_order=8), route=route)
        assert not small.coeffs.is_zero()
        assert big.coeffs == small.coeffs and big.kind == small.kind


def test_unknown_route_is_refused():
    calls = [(witten_genus, GCIData([3], [[2]], q_order=4)),
             (wc_genus, GCIData([5], [[2]], C=[1], q_order=4)),
             (mod2_witten, GCIData([7], [[2], [2]], q_order=4)),
             (mod2_witten, GCIData([8], [[0], [2], [2]], q_order=4))]
    for fn, g in calls:
        for route in ("thta", "Theta", None):
            with pytest.raises(ValueError, match="route must be"):
                fn(g, route=route)


def test_mod2_skips_all_zero_row():
    # an all-zero degree row is a nowhere-zero section, so V is empty and
    # every genus is 0, also when no nonzero even row is left; the zero
    # row must not be taken as the even row
    for D in ([[0], [2], [2]], [[0], [0], [0]], [[0], [1], [3]]):
        g = GCIData([8], D, q_order=6)
        for route in ("theta", "bundle"):
            rep = mod2_witten(g, route=route)
            assert rep.precursor.is_zero() and rep.coeffs.is_zero()
        with pytest.raises(ValueError, match="not a nonzero all-even"):
            mod2_witten(g, even_row=0)
    g = GCIData([8], [[0], [2], [2]], q_order=6)
    assert mod2_witten(g, even_row=2).coeffs.is_zero()


def test_bundle_route_builds_no_theta_factor(monkeypatch):
    # the bundle route is the independent oracle: no theta builder may run
    def refuse(*args, **kwargs):
        raise AssertionError("theta builder called on the bundle route")

    for name in ("phi", "psi", "psi_product", "x_over_phi", "eisenstein_g",
                 "direction_series"):
        monkeypatch.setattr(theta, name, refuse)
    for cached in (genera._bundle_factor_at, genera._root_power):
        cached.cache_clear()
    witten_genus(GCIData([3], [[2]], q_order=4), route="bundle")
    wc_genus(GCIData([5], [[2]], C=[1], q_order=4), route="bundle")
    wc_genus(GCIData([6], [[3]], C=[2], q_order=4), route="bundle")
    mod2_witten(GCIData([9], [[2], [4]], q_order=4), route="bundle",
                strict=False)


def test_sigma1_series_values():
    s = sigma1_series(12)
    assert _frac(s, 0) == Fraction(-1, 24)
    for n, v in {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12}.items():
        assert _frac(s, 2 * n) == v
    assert s.even_q_support()


def test_quadratic_pairing_oracle():
    # <x^2, [CP^2]> = 1, and degree rows multiply in the dual class
    assert quadratic_pairing(GCIData([2], [], q_order=4), [[1]]) == 1
    assert quadratic_pairing(GCIData([3], [[1]], q_order=4), [[1]]) == 1
    assert quadratic_pairing(GCIData([3], [[2]], q_order=4), [[1]]) == 2
    # two-factor: <x1 x2 * (x1 + x2), [CP^2 x CP^1]> = coeff of x1^2 x2 = 1
    g = GCIData([2, 1], [[1, 1]], q_order=4)
    assert quadratic_pairing(g, [[0, 1], [0, 0]]) == 1


def test_dim4_closed_form_matches_residue():
    qo = 10
    g = GCIData([2], [], q_order=qo)
    assert dim4_closed_form(g) == witten_genus(g).coeffs
    h = GCIData([4], [[1], [1]], C=[1], q_order=qo)
    assert dim4_closed_form(h, use_c=True).is_zero()
    assert dim4_closed_form(h, use_c=True) == wc_genus(h).coeffs
    with pytest.raises(DimensionError):
        dim4_closed_form(GCIData([3], [], q_order=qo))
    with pytest.raises(ValueError):
        dim4_closed_form(GCIData([2], [], q_order=qo), use_c=True)


def _dim4_instances():
    """Every real-dimension-4 instance over one or two factors with n_b <= 4,
    degree entries in -1..2 (-3..3 on one factor) and C entries in -1..1."""
    for n in ([2], [3], [4], [1, 1], [1, 2], [2, 1], [1, 3], [2, 2], [3, 1]):
        s = len(n)
        entries = range(-3, 4) if s == 1 else range(-1, 3)
        rows = list(itertools.product(entries, repeat=s))
        for D in itertools.combinations_with_replacement(rows, sum(n) - 2):
            for C in itertools.product(range(-1, 2), repeat=s):
                yield n, [list(r) for r in D], list(C)


def test_dim4_closed_form_on_enumeration():
    # p1 * G_2(q^2) is the weight-2 part of the theta-route exponential,
    # derived independently of it
    count = 0
    for n, D, C in _dim4_instances():
        g = GCIData(n, D, C, q_order=4)
        if all(c == 0 for c in C):
            assert dim4_closed_form(g) == witten_genus(g).coeffs
        assert dim4_closed_form(g, use_c=True) == wc_genus(g).coeffs
        count += 1
    assert count > 1000
