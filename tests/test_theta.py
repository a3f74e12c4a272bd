"""Tests for the theta-ratio series and the numeric transformation suite."""

import math
import random
from fractions import Fraction

import pytest

from wittenq import theta
from wittenq.nilring import NilPoly, subst_linear
from wittenq.qseries import QSeries
from wittenq.theta import ThetaKind


def _frac(qs, k):
    return Fraction(str(qs.coefficient(k)))


def _x_parities(f):
    """The parities of the x-degrees a series in x has nonzero terms in."""
    return {k % 2 for k, c in enumerate(f) if not c.is_zero()}


def test_uniseries_ring_axioms():
    # one-generator NilPolys are a ring of series in x
    rng = random.Random(7)

    def rnd():
        return NilPoly((4,), 3, {
            (k,): QSeries([rng.randint(-4, 4) for _ in range(4)], 3)
            for k in range(5)})

    for _ in range(6):
        a, b, c = rnd(), rnd(), rnd()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_uniseries_inv_and_scale():
    x = NilPoly.generator((6,), 0, 4)
    u = NilPoly.one((6,), 4) + x
    assert u * u.inv_unit() == NilPoly.one((6,), 4)
    # (1 + x) at the linear form 3x is 1 + 3x
    s = subst_linear(u.coeffs, [3], (6,), 4)
    assert s.coeffs[1] == QSeries.constant(3, 4)


def test_phi_is_odd_with_leading_x():
    p = theta.phi(7, 10)
    assert isinstance(p, tuple) and len(p) == 8
    assert _x_parities(p) == {1}
    assert p[0].is_zero()
    assert p[1].is_one()


def test_psi1_is_even_with_unit_constant():
    p = theta.psi(ThetaKind.THETA1, 6, 10)
    assert _x_parities(p) == {0}
    assert p[0].is_one()


def test_psi23_even_unit():
    for kind in (ThetaKind.THETA2, ThetaKind.THETA3):
        p = theta.psi(kind, 6, 10)
        assert _x_parities(p) == {0}
        assert p[0].is_one()
    with pytest.raises(ValueError):
        theta.psi(ThetaKind.THETA, 4, 4)


def test_x_over_phi_inverts_phi():
    xo, qo = 6, 10
    u = theta.x_over_phi(xo, qo)
    p = theta.phi(xo + 1, qo)
    prod = (NilPoly.from_univariate(p[1:], 0, (xo,), qo)
            * NilPoly.from_univariate(u, 0, (xo,), qo))
    assert prod == NilPoly.one((xo,), qo)


def test_x_over_phi_x2_coefficient_is_weight2_shape():
    # [x^2] x/Phi = -1/24 + sum sigma_1(n) q^(2n)
    qo = 20
    c2 = theta.x_over_phi(4, qo)[2]
    assert _frac(c2, 0) == Fraction(-1, 24)
    sigma1 = {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12, 7: 8, 8: 15, 9: 13, 10: 18}
    for n, v in sigma1.items():
        assert _frac(c2, 2 * n) == v
    assert c2.even_q_support()


def test_psi_product_x2_coefficient():
    # [x^2] Psi1*Psi2*Psi3 = 1/8 - 3 * sum sigma_1(n) q^(2n)
    qo = 20
    c2 = theta.psi_product(4, qo)[2]
    assert _frac(c2, 0) == Fraction(1, 8)
    for n in range(1, 11):
        s1 = sum(d for d in range(1, n + 1) if n % d == 0)
        assert _frac(c2, 2 * n) == -3 * s1


def test_jacobi_identity_and_mutated_control():
    assert theta.jacobi_check(50)
    # dropping one Euler factor breaks the identity
    assert not theta.jacobi_check(50, skip=1)


def test_numeric_theta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta.numeric_theta(ThetaKind.THETA, 0.1, 0.2 - 1j)


def test_numeric_transform_suite_passes():
    rep = theta.numeric_transform_suite()
    assert rep["passed"]
    assert all(e < 1e-9 for e in rep["errors"].values())


def test_numeric_transform_suite_rejects_low_im_tau():
    with pytest.raises(ValueError):
        theta.numeric_transform_suite(samples=[(0.1 + 0.1j, 0.5 + 0.5j)])


def test_numeric_matches_series_at_sample_point():
    # Phi as a truncated series in x approximates theta(z)/ (theta'(0)/(2 pi i))
    tau = 1.7j
    z = 0.05 + 0.02j
    import cmath
    x = 2j * math.pi * z
    qo, xo = 40, 15
    p = theta.phi(xo, qo)
    qv = cmath.exp(1j * math.pi * tau)
    val = 0
    for k in range(xo, -1, -1):
        ck = sum(float(Fraction(str(p[k].coefficient(m))))
                 * qv ** m for m in range(qo + 1))
        val = val * x + ck
    num = theta.numeric_theta(ThetaKind.THETA, z, tau)
    den = theta.numeric_theta(ThetaKind.THETA, 1e-7, tau) / (2j * math.pi * 1e-7)
    assert abs(val - num / den) < 1e-5
