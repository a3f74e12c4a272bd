"""Tests for the theta-ratio series and the numeric transformation suite."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from nilpoly_ring import add, coeffs, from_univariate, mul, one, poly
from series_inverse import inv_poly
from wittenq import cli, theta
from wittenq.nilring import rank_pair_mul
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
        return poly((4,), 3, {
            (k,): QSeries([rng.randint(-4, 4) for _ in range(4)], 3)
            for k in range(5)})

    for _ in range(6):
        a, b, c = rnd(), rnd(), rnd()
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_uniseries_inv_and_scale():
    u = from_univariate([1, 1], 0, (6,), 4)
    assert mul(u, inv_poly(u)) == one((6,), 4)
    # (1 + x) at the linear form 3x, times 1 at the zero form, is 1 + 3x
    s = rank_pair_mul(coeffs(u), [3], coeffs(one((6,), 4)), (0,), (6,), 4)
    assert coeffs(s)[1] == QSeries.constant(3, 4)


def test_phi_is_odd_with_leading_x():
    p = theta.phi(7, 10)
    assert isinstance(p, tuple) and len(p) == 8
    assert _x_parities(p) == {1}
    assert p[0].is_zero()
    assert p[1].is_one()


def test_psi1_is_even_with_unit_constant():
    p = theta.direction_series([(ThetaKind.THETA1, 1, 1)], 6, 10)
    assert _x_parities(p) == {0}
    assert p[0].is_one()


def test_x_over_phi_inverts_phi():
    xo, qo = 6, 10
    u = theta.x_over_phi(xo, qo)
    p = theta.phi(xo + 1, qo)
    prod = mul(from_univariate(p[1:], 0, (xo,), qo),
               from_univariate(u, 0, (xo,), qo))
    assert prod == one((xo,), qo)


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


def test_jacobi_identity_and_mutated_control(monkeypatch):
    assert theta.jacobi_check(50)
    # dropping one Euler factor, 1 + q^2 or the last one the truncation
    # sees, 1 + q^50, breaks the identity
    full = theta.q_product
    for drop in (0, -4):
        monkeypatch.setattr(theta, "q_product", lambda factors, order:
                            full(factors[:drop] + factors[drop + 1:], order))
        assert not theta.jacobi_check(50), drop


def test_jacobi_check_refuses_negative_orders():
    # at q-order -1 the product was an empty series that passed is_one()
    assert theta.jacobi_check(0) and theta.jacobi_check(1)
    for q_order in (-1, -4):
        with pytest.raises(ValueError, match="order must be >= 0"):
            theta.jacobi_check(q_order)


def test_numeric_theta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta.numeric_theta(ThetaKind.THETA, 0.1, 0.2 - 1j)


def test_numeric_theta_refuses_negative_terms():
    # terms=-3 returned the bare prefactor, 1 for THETA3
    for kind in ThetaKind:
        with pytest.raises(ValueError, match="terms must be >= 0"):
            theta.numeric_theta(kind, 0.1, 1j, terms=-3)
    # any other kind was evaluated as THETA3
    for kind in (0, 3, "THETA3", None):
        with pytest.raises(ValueError, match="no theta function"):
            theta.numeric_theta(kind, 0.1, 1j)


def test_numeric_theta_multiplies_exactly_terms_factors():
    z, tau = 0.3 + 0.1j, 0.2 + 0.6j
    q = cmath.exp(1j * math.pi * tau)
    e = cmath.exp(2j * math.pi * z)
    for terms in range(4):
        want = 1
        for j in range(1, terms + 1):
            t = q ** (2 * j - 1)
            want *= (1 - q ** (2 * j)) * (1 + e * t) * (1 + t / e)
        got = theta.numeric_theta(ThetaKind.THETA3, z, tau, terms=terms)
        assert abs(got - want) <= 1e-14 * abs(want)


def _theta_series(kind, z, tau, n_max=30):
    """The theta functions as Fourier series in q = e^(pi i tau):
        THETA:  2 sum_(n>=0) (-1)^n q^((n+1/2)^2) sin((2n+1) pi z)
        THETA1: 2 sum_(n>=0) q^((n+1/2)^2) cos((2n+1) pi z)
        THETA2: 1 + 2 sum_(n>=1) (-1)^n q^(n^2) cos(2n pi z)
        THETA3: 1 + 2 sum_(n>=1) q^(n^2) cos(2n pi z)
    with q^a sin(m pi z) and q^a cos(m pi z) taken as half-sums of
    e^(pi i (a tau +- m z)), so no factor overflows at large Im z."""
    def wave(a, m, sign):
        return (cmath.exp(1j * math.pi * (a * tau + m * z))
                + sign * cmath.exp(1j * math.pi * (a * tau - m * z))) / 2
    if kind in (ThetaKind.THETA, ThetaKind.THETA1):
        if kind is ThetaKind.THETA:
            terms = ((-1) ** n * wave((n + 0.5) ** 2, 2 * n + 1, -1) / 1j
                     for n in range(n_max))
        else:
            terms = (wave((n + 0.5) ** 2, 2 * n + 1, 1) for n in range(n_max))
        return 2 * sum(terms)
    sign = -1 if kind is ThetaKind.THETA2 else 1
    return 1 + 2 * sum(sign ** n * wave(n * n, 2 * n, 1)
                       for n in range(1, n_max))


def _suite_points():
    """The suite's points and the shifted ones its transformation laws
    visit."""
    points = []
    for z, tau in theta._DEFAULT_SAMPLES:
        points += [(z, tau), (z + 1, tau), (z + 3, tau), (z + tau, tau),
                   (z + 2 * tau, tau), (z, tau + 1), (z, -1 / tau),
                   (tau * z, tau)]
    return points


def _tail_terms(z, tau):
    """The fewest J with (|q|^(2J+1) (|e| + 1/|e|) + |q|^(2J+2)) / (1 - |q|^2)
    below 2^-60."""
    r = abs(cmath.exp(1j * math.pi * tau))
    a = abs(cmath.exp(2j * math.pi * z))
    J = 0
    while (r ** (2 * J + 1) * (a + 1 / a) + r ** (2 * J + 2)) / (1 - r * r) \
            >= 2.0 ** -60:
        J += 1
    return J


def test_numeric_theta_matches_theta_series():
    # the product evaluator against the independent Fourier series, at the
    # suite's points and at the shifted ones its transformation laws visit
    points = _suite_points()
    worst = 0.0
    for kind in ThetaKind:
        for z, tau in points:
            got = theta.numeric_theta(kind, z, tau)
            want = _theta_series(kind, z, tau)
            worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-12


def test_default_terms_reach_double_precision():
    # the default stops at the tail bound's J; 20 more factors move no
    # value by more than 2^-52, and J stays small at every such point
    most = 0
    for kind in ThetaKind:
        for z, tau in _suite_points():
            J = _tail_terms(z, tau)
            most = max(most, J)
            got = theta.numeric_theta(kind, z, tau)
            want = theta.numeric_theta(kind, z, tau, terms=J + 20)
            assert abs(got - want) <= 2.0 ** -52 * abs(want), (kind, z, tau)
            assert got == theta.numeric_theta(kind, z, tau, terms=J)
    assert most <= 15


def test_numeric_theta_refuses_points_past_its_factor_limit():
    # near the real line |q| -> 1; the default used to return a product
    # of 60 factors whatever the error, now it raises
    with pytest.raises(ValueError, match="needs over 2000 factors"):
        theta.numeric_theta(ThetaKind.THETA, 0.1, -1 / (100 + 1j))
    with pytest.raises(ValueError, match="needs over 2000 factors"):
        theta.numeric_theta(ThetaKind.THETA3, 0.1, 1e-20j)
    # the limit falls between -1/(16 + i), 1900 factors, and -1/(17 + i)
    z, near, far = 0.1 + 0.05j, -1 / (16 + 1j), -1 / (17 + 1j)
    assert _tail_terms(z, near) == 1900 and _tail_terms(z, far) > 2000
    theta.numeric_theta(ThetaKind.THETA, z, near)
    with pytest.raises(ValueError, match="needs over 2000 factors"):
        theta.numeric_theta(ThetaKind.THETA, z, far)
    # an explicit count is still multiplied as given
    theta.numeric_theta(ThetaKind.THETA, 0.1, -1 / (100 + 1j), terms=5)


def test_numeric_transform_suite_passes():
    rep = theta.numeric_transform_suite()
    assert rep["passed"] and rep["tol"] == 1e-9
    assert len(rep["errors"]) == 22
    assert all(e <= 1e-13 for e in rep["errors"].values())


def test_numeric_transform_suite_far_from_the_cusp(monkeypatch):
    # Im(-1/tau) is 1/26 at tau = 5 + i and 1/101 at 10 + i: 60 factors
    # left S:theta errors of 1.0e-6 and 0.10 there
    for tau in (5 + 1j, 10 + 1j):
        monkeypatch.setattr(theta, "_DEFAULT_SAMPLES", [(0.1 + 0.05j, tau)])
        rep = theta.numeric_transform_suite()
        assert rep["passed"], tau
        assert max(rep["errors"].values()) <= 1e-12, tau
    monkeypatch.setattr(theta, "_DEFAULT_SAMPLES", [(0.1 + 0.05j, 100 + 1j)])
    with pytest.raises(ValueError, match="factors"):
        theta.numeric_transform_suite()


def test_numeric_transform_suite_fails_on_a_wrong_theta(monkeypatch):
    # THETA3 off by a relative 1e-6 breaks its laws past the 1e-9
    # tolerance, and `verify --suite theta` exits 1
    exact = theta.numeric_theta

    def skewed(kind, z, tau, terms=None):
        val = exact(kind, z, tau, terms)
        return val * (1 + 1e-6) if kind is ThetaKind.THETA3 else val

    monkeypatch.setattr(theta, "numeric_theta", skewed)
    rep = theta.numeric_transform_suite()
    assert not rep["passed"]
    assert rep["errors"]["T:theta2"] > rep["tol"]
    assert rep["errors"]["z+1:theta1"] < 1e-12
    assert cli.run(["verify", "--suite", "theta"]) == 1


def test_numeric_matches_series_at_sample_point():
    # Phi as a truncated series in x approximates theta(z)/ (theta'(0)/(2 pi i))
    tau = 1.7j
    z = 0.05 + 0.02j
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
