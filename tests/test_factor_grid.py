"""Exactness grid: the log/exp theta factors against product formulas.

`theta` builds every factor as the exponential of its Eisenstein
logarithm.  Here each one is compared, coefficient for coefficient, with
a product-formula reference over a grid of x- and q-orders: the bundle
route for x/Phi, Phi, Psi_1Psi_2Psi_3 and the root powers, and products
of Lambda pairs for each single Psi_i.  The merged one-direction factors
of the theta-route genera (`theta.direction_series`) are checked against
the same references.
"""

import pytest

from wittenq import bundles, genera, theta
from wittenq.nilring import NilPoly
from wittenq.qseries import QSeries, rat
from wittenq.theta import ThetaKind

X_ORDERS = [0, 1, 2, 3, 7, 16, 33, 64]
Q_ORDERS = [0, 1, 2, 3, 5, 8, 13]


def _psi_by_products(kind, x_order, q_order):
    """Psi_i as cosh(x/2) (i = 1 only) times its Lambda pairs."""
    if kind == ThetaKind.THETA1:
        return bundles.psi1_factor(x_order, q_order)
    sign = -1 if kind == ThetaKind.THETA2 else 1
    terms = [(sign, 2 * m - 1) for m in range(1, (q_order + 1) // 2 + 1)]
    cols = bundles._pair_columns(terms, x_order // 2, q_order)
    return bundles._evaluate("w", cols, x_order, q_order)


def _phi_by_products(x_order, q_order):
    """Phi = 2 sinh(x/2) times its Sym-type pairs, twice lfactor_4k2."""
    return tuple(c * 2 for c in bundles.lfactor_4k2(x_order, q_order))


@pytest.mark.parametrize("q_order", Q_ORDERS)
@pytest.mark.parametrize("x_order", X_ORDERS)
def test_theta_factors_equal_product_formulas(x_order, q_order):
    xo, qo = x_order, q_order
    assert theta.x_over_phi(xo, qo) == bundles.root_factor(xo, qo)
    assert theta.phi(xo, qo) == _phi_by_products(xo, qo)
    assert theta.psi_product(xo, qo) == bundles.lfactor_4k(xo, qo)
    for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        assert theta.psi(kind, xo, qo) == _psi_by_products(kind, xo, qo)
    assert (theta.direction_series([(ThetaKind.THETA, xo + 1, 1)], 0, xo, qo)
            == genera._root_power(xo, qo))


@pytest.mark.parametrize("q_order", Q_ORDERS)
@pytest.mark.parametrize("x_order", X_ORDERS[1:])
def test_direction_series_equal_product_formulas(x_order, q_order):
    # the theta route's merged factors: Phi = y exp(-L), the 4k twist
    # exp(L(y) - L(2y)) by the duplication formula, Psi_1 = exp(L1)
    xo, qo = x_order, q_order
    K = ThetaKind

    def direction(terms, r=0):
        return theta.direction_series(terms, r, xo, qo)

    assert direction([(K.THETA, -1, 1)], r=1) == _phi_by_products(xo, qo)
    assert direction([(K.THETA, 1, 1), (K.THETA, -1, 2)]) == \
        bundles.lfactor_4k(xo, qo)
    assert direction([(K.THETA1, 1, 1)]) == bundles.psi1_factor(xo, qo)
    def ring(f):
        return NilPoly.from_univariate(f, 0, (xo,), qo)

    # Phi(-y) * Phi(2y) = (-1)(2) y^2 exp(-L(-y) - L(2y)): one merged
    # factor, zero at xo = 1 where y^2 truncates
    phi = _phi_by_products(xo, qo)
    at_m = [ring([c * m ** k for k, c in enumerate(phi)]) for m in (-1, 2)]
    merged = ring(direction([(K.THETA, -1, -1), (K.THETA, -1, 2)], r=2))
    assert merged * -2 == at_m[0] * at_m[1]


def test_sigma1_series_is_the_x2_log_coefficient():
    # log(x/Phi) = sum_k 2 G_2k(q^2) x^2k / (2k)!, so x/Phi = exp(log(x/Phi))
    # has x^2 coefficient G_2(q^2) = -1/24 + sum sigma_1(n) q^(2n), here
    # from the divisor sums and from the product formula
    qo = 10
    g2 = QSeries([rat("-1/24")] + [
        sum(d for d in range(1, n // 2 + 1) if n // 2 % d == 0)
        if n % 2 == 0 else 0 for n in range(1, qo + 1)], qo)
    assert genera.sigma1_series(qo) == g2
    assert bundles.root_factor(2, qo)[2] == g2
