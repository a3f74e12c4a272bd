"""Exactness grid: the log/exp theta factors against product formulas.

`theta` builds every factor as the exponential of its Eisenstein
logarithm.  Here each one is compared, coefficient for coefficient, with
a product-formula reference over a grid of x- and q-orders: the bundle
route for x/Phi, Phi, Psi_1, Psi_1Psi_2Psi_3 and the root powers, and
the product of the three Psi_i's Lambda-pair products for
Psi_1Psi_2Psi_3, which `theta` builds from x/Phi alone by the
duplication formula.  The merged one-direction factors of the
theta-route genera (`theta.direction_series`) are checked against the
same references.
"""

import math
from fractions import Fraction

import pytest

from nilpoly_ring import coeffs, from_univariate, horner, mul, scale
from wittenq import bundles, genera, theta
from wittenq.qseries import QSeries, rat
from wittenq.theta import ThetaKind

X_ORDERS = [0, 1, 2, 3, 7, 16, 33, 64]
Q_ORDERS = [0, 1, 2, 3, 5, 8, 13]


def _psi_by_products(kind, x_order, q_order):
    """Psi_i as cosh(x/2) (i = 1 only) times its Lambda pairs, the pair
    polynomial sum_d cols[d] w^d taken by Horner at w = (2 sinh(x/2))^2."""
    if kind == ThetaKind.THETA1:
        return bundles.psi1_factor(x_order, q_order)
    sign = -1 if kind == ThetaKind.THETA2 else 1
    terms = [(sign, 2 * m - 1) for m in range(1, (q_order + 1) // 2 + 1)]
    cols = bundles._pair_columns(terms, x_order // 2, q_order)
    # w = 2 cosh(x) - 2 = sum_(k >= 1) 2 x^2k / (2k)!
    w = from_univariate(
        [QSeries.constant(Fraction(2 if k and k % 2 == 0 else 0,
                                   math.factorial(k)), q_order)
         for k in range(x_order + 1)], 0, (x_order,), q_order)
    return tuple(coeffs(horner([QSeries(col, q_order) for col in cols], w)))


def _phi_by_products(x_order, q_order):
    """Phi = 2 sinh(x/2) times its Sym-type pairs, twice lfactor_4k2."""
    return tuple(c * 2 for c in bundles.lfactor_4k2(x_order, q_order))


@pytest.mark.parametrize("q_order", Q_ORDERS)
@pytest.mark.parametrize("x_order", X_ORDERS)
def test_theta_factors_equal_product_formulas(x_order, q_order):
    xo, qo = x_order, q_order
    assert theta.x_over_phi(xo, qo) == bundles.root_factor(xo, qo)
    assert theta.phi(xo, qo) == _phi_by_products(xo, qo)
    assert (theta.direction_series([(ThetaKind.THETA1, 1, 1)], xo, qo)
            == bundles.psi1_factor(xo, qo))
    psi_product = theta.psi_product(xo, qo)
    assert psi_product == bundles.lfactor_4k(xo, qo)
    psi1, psi2, psi3 = [
        from_univariate(_psi_by_products(kind, xo, qo), 0, (xo,), qo)
        for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)]
    assert psi_product == tuple(coeffs(mul(mul(psi1, psi2), psi3)))
    assert (theta.direction_series([(ThetaKind.THETA, xo + 1, 1)], xo, qo)
            == genera._root_power(xo, qo))


@pytest.mark.parametrize("q_order", Q_ORDERS)
@pytest.mark.parametrize("x_order", X_ORDERS[1:])
def test_direction_series_equal_product_formulas(x_order, q_order):
    # the theta route's merged factors: Phi = y exp(-L), the 4k twist
    # exp(L(y) - L(2y)) by the duplication formula, Psi_1 = exp(L1)
    xo, qo = x_order, q_order
    K = ThetaKind

    def direction(terms, r=0):
        # y^r times the exponential, to y^xo, as `genera` shifts it
        f = theta.direction_series(terms, max(xo - r, 0), qo)
        return ((QSeries.zero(qo),) * r + f)[:xo + 1]

    assert direction([(K.THETA, -1, 1)], r=1) == _phi_by_products(xo, qo)
    assert direction([(K.THETA, 1, 1), (K.THETA, -1, 2)]) == \
        bundles.lfactor_4k(xo, qo)
    assert direction([(K.THETA1, 1, 1)]) == bundles.psi1_factor(xo, qo)
    def ring(f):
        return from_univariate(f, 0, (xo,), qo)

    # Phi(-y) * Phi(2y) = (-1)(2) y^2 exp(-L(-y) - L(2y)): one merged
    # factor, zero at xo = 1 where y^2 truncates
    phi = _phi_by_products(xo, qo)
    at_m = [ring([c * m ** k for k, c in enumerate(phi)]) for m in (-1, 2)]
    merged = ring(direction([(K.THETA, -1, -1), (K.THETA, -1, 2)], r=2))
    assert scale(merged, -2) == mul(at_m[0], at_m[1])


def test_eisenstein_g1_is_the_x2_log_coefficient():
    # log(x/Phi) = sum_k 2 G_2k(q^2) x^2k / (2k)!, so x/Phi = exp(log(x/Phi))
    # has x^2 coefficient G_2(q^2) = -1/24 + sum sigma_1(n) q^(2n), here
    # from the divisor sums and from the product formula
    qo = 10
    g2 = QSeries([rat("-1/24")] + [
        sum(d for d in range(1, n // 2 + 1) if n // 2 % d == 0)
        if n % 2 == 0 else 0 for n in range(1, qo + 1)], qo)
    assert theta.eisenstein_g(1, qo) == g2
    assert bundles.root_factor(2, qo)[2] == g2
