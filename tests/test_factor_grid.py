"""Exactness grid: the log/exp theta factors against product formulas.

`theta` builds every factor as the exponential of its Eisenstein
logarithm.  Here each one is compared, coefficient for coefficient, with
a product-formula reference over a grid of x- and q-orders: the bundle
route for x/Phi, Phi, Psi_1Psi_2Psi_3 and the root powers, and products
of Lambda pairs for each single Psi_i.  The merged one-direction factors
of the theta-route genera (`genera._direction_series`) are checked against
the same references.
"""

import pytest

from wittenq import bundles, genera, theta
from wittenq.qseries import QSeries, rat
from wittenq.theta import ThetaKind, _x_series

X_ORDERS = [0, 1, 2, 3, 7, 16, 33, 64]
Q_ORDERS = [0, 1, 2, 3, 5, 8, 13]


def _psi_by_products(kind, x_order, q_order):
    """Psi_i as cosh(x/2) (i = 1 only) times its Lambda pairs."""
    if kind == ThetaKind.THETA1:
        return bundles.psi1_factor(x_order, q_order)
    sign = -1 if kind == ThetaKind.THETA2 else 1
    terms = [(sign, 2 * m - 1) for m in range(1, (q_order + 1) // 2 + 1)]
    pairs = bundles._pairs(terms, x_order // 2, q_order)
    return bundles._at_w(pairs, x_order, q_order)


@pytest.mark.parametrize("q_order", Q_ORDERS)
@pytest.mark.parametrize("x_order", X_ORDERS)
def test_theta_factors_equal_product_formulas(x_order, q_order):
    xo, qo = x_order, q_order
    assert theta.x_over_phi(xo, qo) == bundles.root_factor(xo, qo)
    assert theta.phi(xo, qo) == bundles.lfactor_4k2(xo, qo) * 2
    assert theta.psi_product(xo, qo) == bundles.lfactor_4k(xo, qo)
    for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        assert theta.psi(kind, xo, qo) == _psi_by_products(kind, xo, qo)
    assert (genera._direction_series([(ThetaKind.THETA, xo + 1, 1)], 0, xo, qo)
            == genera._root_power(xo, qo).coeffs)


@pytest.mark.parametrize("q_order", Q_ORDERS)
@pytest.mark.parametrize("x_order", X_ORDERS[1:])
def test_direction_series_equal_product_formulas(x_order, q_order):
    # the theta route's merged factors: Phi = y exp(-L), the 4k twist
    # exp(L(y) - L(2y)) by the duplication formula, Psi_1 = exp(L1)
    xo, qo = x_order, q_order
    K = ThetaKind

    def direction(terms, r=0):
        return genera._direction_series(terms, r, xo, qo)

    assert direction([(K.THETA, -1, 1)], r=1) == \
        (bundles.lfactor_4k2(xo, qo) * 2).coeffs
    assert direction([(K.THETA, 1, 1), (K.THETA, -1, 2)]) == \
        bundles.lfactor_4k(xo, qo).coeffs
    assert direction([(K.THETA1, 1, 1)]) == bundles.psi1_factor(xo, qo).coeffs
    # Phi(-y) * Phi(2y) = (-1)(2) y^2 exp(-L(-y) - L(2y)): one merged factor
    phi = (bundles.lfactor_4k2(xo, qo) * 2).coeffs
    at_m = [_x_series([c * m ** k for k, c in enumerate(phi)], qo)
            for m in (-1, 2)]
    merged = direction([(K.THETA, -1, -1), (K.THETA, -1, 2)], r=2)
    if xo < 2:
        assert merged is None  # y^2 truncates to 0
    else:
        assert [c * -2 for c in merged] == (at_m[0] * at_m[1]).coeffs


def test_sigma1_series_is_the_x2_log_coefficient():
    # log(x/Phi) = sum_k 2 G_2k(q^2) x^2k / (2k)!, and G_2 is sigma1_series
    qo = 10
    logs = theta.log_coeffs(ThetaKind.THETA, 2, qo)
    assert QSeries(list(logs[2]), qo) == genera.sigma1_series(qo)
    assert genera.sigma1_series(qo).coefficient(0) == rat("-1/24")
