"""Tests for the bundle-side factors and the cancellation lemma."""

import random
from fractions import Fraction

from wittenq import bundles, theta
from wittenq.bundles import _shifted, lemma42_check, lemma42_report
from wittenq.nilring import NilPoly
from wittenq.qseries import QSeries, rat


X_ORDER = 8
Q_ORDER = 20


def test_root_factor_equals_x_over_phi():
    assert (bundles.root_factor(X_ORDER, Q_ORDER)
            == theta.x_over_phi(X_ORDER, Q_ORDER))


def test_lfactor_4k_equals_psi_product():
    assert (bundles.lfactor_4k(X_ORDER, Q_ORDER)
            == theta.psi_product(X_ORDER, Q_ORDER))


def test_lfactor_4k2_equals_half_phi():
    lhs = bundles.lfactor_4k2(X_ORDER, Q_ORDER)
    rhs = theta.phi(X_ORDER, Q_ORDER) * rat(Fraction(1, 2))
    assert lhs == rhs


def test_root_factor_constant_term_is_one():
    rf = bundles.root_factor(4, 8)
    assert rf.coeffs[0].is_one()


def _u_poly(rng, degree, cap, qo):
    """A random polynomial in u = y + 1/y, held with room up to u^cap."""
    return NilPoly((cap,), qo, {
        (k,): QSeries([rng.randint(-3, 3) for _ in range(qo + 1)], qo)
        for k in range(degree + 1)})


def test_symlaurent_mul_matches_y_expansion():
    # multiply two symmetric Laurent polynomials (polynomials in u) with a
    # cap that holds the full product, and compare against the product of
    # their values at a few integer u samples
    rng = random.Random(5)
    for _ in range(6):
        qo = 2
        a = _u_poly(rng, 2, 4, qo)
        b = _u_poly(rng, 2, 4, qo)
        prod = a * b

        def value(p, u):
            acc = QSeries.zero(qo)
            for k, c in enumerate(p.coeffs):
                acc = acc + c * (u ** k)
            return acc

        for u in (0, 1, 2, -3, 5):
            assert value(prod, u) == value(a, u) * value(b, u)


def test_symlaurent_shift_is_exact_substitution():
    rng = random.Random(6)
    qo = 2
    p = _u_poly(rng, 3, 3, qo)
    s = _shifted(p)
    # evaluating p at u = w + 2 must agree with s at w, for several w
    for w in (0, 1, -1, 3):
        lhs = QSeries.zero(qo)
        for k, c in enumerate(p.coeffs):
            lhs = lhs + c * ((w + 2) ** k)
        rhs = QSeries.zero(qo)
        for k, c in enumerate(s.coeffs):
            rhs = rhs + c * (w ** k)
        assert lhs == rhs


def test_lemma42_passes_at_order_20():
    rep = lemma42_report(20)
    assert rep["passed"]
    assert rep["const_zero"]
    assert rep["halves_integral"]
    assert rep["quotient_q2"] == -1
    assert lemma42_check(20)


def test_lemma42_negative_control_fails():
    rep = lemma42_report(20, flip_sign=True)
    assert not rep["passed"]
    assert not lemma42_check(20, flip_sign=True)


def test_lemma42_stable_across_orders():
    for qo in (8, 12, 16):
        assert lemma42_check(qo)
