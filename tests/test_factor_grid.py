"""Exactness grid: the log/exp theta factors against product formulas.

`theta` builds every factor as the exponential of its Eisenstein
logarithm.  Here each one is compared, coefficient for coefficient, with
a product-formula reference over a grid of x- and q-orders: the bundle
route for x/Phi, Phi, Psi_1Psi_2Psi_3 and the root powers, and products
of Lambda pairs for each single Psi_i.
"""

import pytest

from wittenq import bundles, genera, theta
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
    assert (genera._root_power(xo, qo, "theta")
            == genera._root_power(xo, qo, "bundle"))


def test_sigma1_series_is_the_x2_log_coefficient():
    # log(x/Phi) = sum_k 2 G_2k(q^2) x^2k / (2k)!, and G_2 is sigma1_series
    qo = 10
    logs = theta.log_coeffs(ThetaKind.THETA, 2, qo)
    assert QSeries(list(logs[2]), qo) == genera.sigma1_series(qo)
    assert genera.sigma1_series(qo).coefficient(0) == rat("-1/24")
