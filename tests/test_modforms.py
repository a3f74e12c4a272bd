"""Tests for Eisenstein series, the exact weight-graded fitter, and theta nulls."""

import random
from fractions import Fraction

import pytest

from wittenq import theta
from wittenq.modforms import (eisenstein, fit, lift, restrict, sigma,
                              theta_constant_e4_check, weight_basis)
from wittenq.qseries import QSeries


def _divisor_sum_oracle(k, n):
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            if d != n // d:
                total += (n // d) ** k
        d += 1
    return total


def test_sigma_against_independent_oracle():
    for k in (1, 3, 5):
        for n in range(1, 40):
            assert sigma(k, n) == _divisor_sum_oracle(k, n)
    assert sigma(1, 0) == 0
    # spot values
    assert [sigma(1, n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]


def test_eisenstein_leading_coefficients():
    e2, e4, e6 = (eisenstein(k, 4) for k in (2, 4, 6))
    assert [str(c) for c in e2.coeffs] == ['1', '-24', '-72', '-96', '-168']
    assert [str(c) for c in e4.coeffs] == ['1', '240', '2160', '6720', '17520']
    assert [str(c) for c in e6.coeffs] == ['1', '-504', '-16632', '-122976',
                                           '-532728']
    with pytest.raises(ValueError):
        eisenstein(8, 4)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_eisenstein_equals_sigma_formula(k):
    # E_k = 1 - (2k / B_k) sum sigma_(k-1)(n) q~^n, numerators and
    # denominator, against the direct divisor sums of `sigma`
    scale = {2: -24, 4: 240, 6: -504}[k]
    for order in range(41):
        ref = QSeries([1] + [scale * sigma(k - 1, n)
                             for n in range(1, order + 1)], order)
        got = eisenstein(k, order)
        assert (got.order, got.num, got.den) == (order, ref.num, ref.den)


def test_eisenstein_g_equals_sigma_formula():
    # G_2k(q^2) = -B_2k/(4k) + sum sigma_(2k-1)(N) q^(2N), read from theta's
    # x/Phi log columns
    for k in (1, 2, 3, 5, 8, 13):
        for q_order in (0, 1, 2, 9, 24):
            ref = QSeries([-theta.bernoulli(2 * k) / (4 * k)] + [
                sigma(2 * k - 1, j // 2) if j % 2 == 0 else 0
                for j in range(1, q_order + 1)], q_order)
            got = theta.eisenstein_g(k, q_order)
            assert (got.num, got.den) == (ref.num, ref.den)


def test_ramanujan_identity_e4_squared():
    # E4^2 = E8 = 1 + 480 sum sigma_7(n) q^n, a classical cross-check
    e8 = eisenstein(4, 10) ** 2
    for n in range(1, 11):
        assert Fraction(str(e8.coefficient(n))) == 480 * sigma(7, n)


def test_discriminant_is_cusp_form():
    # (E4^3 - E6^2)/1728 = q - 24q^2 + 252q^3 - 1472q^4 + ...
    order = 8
    delta = (eisenstein(4, order) ** 3 - eisenstein(6, order) ** 2) \
        * Fraction(1, 1728)
    tau_values = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480]
    assert [int(c) for c in delta.coeffs] == tau_values


def test_weight_basis_dimensions():
    # dim M_k for k = 0, 2, 4, ..., 24 (level 1, with E4^a E6^b monomials)
    expected = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1,
                16: 2, 18: 2, 20: 2, 22: 2, 24: 3}
    for w, d in expected.items():
        assert len(weight_basis(w)) == d
    assert weight_basis(12) == [(3, 0), (0, 2)]
    with pytest.raises(ValueError):
        weight_basis(5)


def test_fit_roundtrip_random_combinations():
    rng = random.Random(99)
    q_order = 20
    tilde = q_order // 2
    for weight in range(0, 26, 2):
        basis = weight_basis(weight)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in basis]
        synth = QSeries.zero(tilde)
        for (a, b), c in zip(basis, coeffs):
            synth = synth + (eisenstein(4, tilde) ** a
                             * eisenstein(6, tilde) ** b) * c
        ft = fit(lift(synth, q_order), weight)
        assert ft.ok
        assert [Fraction(str(v)) for v in ft.solution] == coeffs


def test_restrict_inverts_lift():
    rng = random.Random(7)
    for tilde_order in (0, 1, 5, 10):
        tilde = QSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         for _ in range(tilde_order + 1)], tilde_order)
        for q_order in (2 * tilde_order, 2 * tilde_order + 1):
            lifted = lift(tilde, q_order)
            assert restrict(lifted, tilde_order) == tilde
            assert lift(restrict(lifted, tilde_order), q_order) == lifted
    # odd powers of q are dropped
    assert restrict(QSeries([1, 2, 3, 4], 3), 1) == QSeries([1, 3], 1)


def test_lift_and_restrict_refuse_unknown_orders():
    # E4 to q-tilde^3 fixes q^0..q^7 and nothing beyond: q^8 holds 17520
    e4 = eisenstein(4, 3)
    assert lift(e4, 7) == lift(eisenstein(4, 10), 20).truncate(7)
    for q_order in (8, 20, -1):
        with pytest.raises(ValueError, match="q_order <= 7"):
            lift(e4, q_order)
    # q^0..q^6 fix q-tilde^0..q-tilde^3 only
    for tilde_order in (4, 9, -1):
        with pytest.raises(ValueError, match="tilde_order <= 3"):
            restrict(lift(e4, 6), tilde_order)
    with pytest.raises(ValueError, match="tilde_order <= 1"):
        restrict(QSeries([1, 2, 3, 4], 3), 2)


def test_fit_rejects_e2():
    q_order = 20
    e2 = lift(eisenstein(2, q_order // 2), q_order)
    ft = fit(e2, 2)
    assert not ft.ok
    assert ft.failure_exponent is not None


def test_fit_rejects_odd_support():
    with pytest.raises(ValueError):
        fit(QSeries([0, 1], 4), 4)


def test_fit_detects_wrong_weight():
    q_order = 20
    e4 = lift(eisenstein(4, q_order // 2), q_order)
    # weight 8 basis is [(2, 0)] alone and E4 != E4^2, so the fit must fail
    ft = fit(e4, 8)
    assert not ft.ok


def test_fit_zero_series_at_weight_two():
    ft = fit(QSeries.zero(10), 2)
    assert ft.ok and ft.solution == []


def test_theta_constant_e4_identity():
    assert theta_constant_e4_check(10)
    assert theta_constant_e4_check(16)


def test_theta_constant_negative_control():
    assert not theta_constant_e4_check(10, exponent=6)
    assert not theta_constant_e4_check(10, exponent=4)
