"""Tests for the bundle-side factors and the cancellation lemma."""

import math
import random
from fractions import Fraction

import pytest

from wittenq import bundles, theta
from wittenq.bundles import _pair_columns, lemma42_check, lemma42_report
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
    rhs = tuple(c * Fraction(1, 2) for c in theta.phi(X_ORDER, Q_ORDER))
    assert lhs == rhs


def test_root_factor_constant_term_is_one():
    rf = bundles.root_factor(4, 8)
    assert isinstance(rf, tuple) and len(rf) == 5
    assert rf[0].is_one()


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


def test_pairs_are_lambda_pairs_in_w():
    # each factor (1 + t y)(1 + t/y)/(1 + t)^2 is linear in w = y + 1/y - 2;
    # with cap len(terms) the product keeps every w-degree, so its value at
    # any rational y is exact
    qo = 14
    terms = [(-1, 2), (1, 2), (1, 1), (-1, 3), (1, 5)]  # exponents sum to 13
    cols = _pair_columns(terms, len(terms), qo)
    assert any(cols[len(terms)])
    one = QSeries.one(qo)
    for y in (Fraction(2), Fraction(-3), Fraction(1, 3), Fraction(-5, 7)):
        w = y + 1 / y - 2
        lhs = QSeries.zero(qo)
        for k, col in enumerate(cols):
            lhs = lhs + QSeries(col, qo) * rat(w ** k)
        rhs = one
        for sign, e in terms:
            t = QSeries.monomial(sign, e, qo)
            rhs = (rhs * (one + t * rat(y)) * (one + t * rat(1 / y))
                   * ((one + t) * (one + t)).inv_unit())
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


def test_lemma42_evenness_check_fails_an_odd_entry(monkeypatch):
    # products that cancel at w^0 but differ by 1 at q^1 w^1: only the
    # evenness check can fail the lemma here
    columns = bundles._pair_columns

    def odd_first(terms, cap, q_order, inverse=False):
        res = columns(terms, cap, q_order, inverse)
        if terms[0][0] < 0:  # the first product, at -q^2m
            res[1][1] += 1
        return res

    monkeypatch.setattr(bundles, "_pair_columns", odd_first)
    rep = lemma42_report(8)
    assert rep["const_zero"]
    assert not rep["halves_integral"]
    assert not rep["passed"]


# -- the integer paths against the NilPoly formulation ----------------

def _pairs_by_products(terms, cap, qo, inverse=False):
    """The pair product as it reads: c = t/(1 + t)^2 by a series inverse,
    one NilPoly product per pair, and a NilPoly inverse for Sym pairs;
    its q-columns by w-degree."""
    caps, one = (cap,), QSeries.one(qo)
    res = NilPoly.one(caps, qo)
    for sign, e in terms:
        t = QSeries.monomial(sign, e, qo)
        c = t * ((one + t) * (one + t)).inv_unit()
        res = res * NilPoly(caps, qo, {(0,): 1, (1,): c})
    res = res.inv_unit() if inverse else res
    return [[c.coefficient(i) for i in range(qo + 1)] for c in res.coeffs]


def test_pairs_match_nilpoly_products():
    rng = random.Random(16)
    for _ in range(30):
        terms = [(rng.choice((-1, 1)), rng.randint(1, 5))
                 for _ in range(rng.randint(0, 6))]
        qo = rng.randint(0, 12)
        for cap in range(len(terms) + 1):
            assert (_pair_columns(terms, cap, qo)
                    == _pairs_by_products(terms, cap, qo))
            assert (_pair_columns(terms, cap, qo, inverse=True)
                    == _pairs_by_products(terms, cap, qo, inverse=True))


def test_pair_coefficient_is_integral():
    # t/(1 + t)^2 = sum_k (-1)^(k-1) k t^k
    qo = 15
    for sign, e in ((1, 1), (-1, 1), (1, 2), (-1, 3)):
        c = _pair_columns([(sign, e)], 1, qo)[1]
        assert all(type(a) is int for a in c)
        expect = [0] * (qo + 1)
        for k in range(1, qo // e + 1):
            expect[k * e] = (-1) ** (k - 1) * k * sign ** k
        assert c == expect


def _sinh_cosh(xo, odd):
    """2 sinh(x/2) (odd) or cosh(x/2) to x^xo at q-order 0, a one-generator
    NilPoly: 2/(2^k k!) at odd k, or 1/(2^k k!) at even k."""
    scale, parity = (2, 1) if odd else (1, 0)
    return NilPoly.from_univariate(
        [QSeries.constant(Fraction(scale if k % 2 == parity else 0,
                                   2 ** k * math.factorial(k)), 0)
         for k in range(xo + 1)], 0, (xo,), 0)


def _x_over_two_sinh(xo):
    """x / (2 sinh(x/2)) at q-order 0: the inverse of 2 sinh(x/2) / x."""
    return NilPoly.from_univariate(_sinh_cosh(xo + 1, True).coeffs[1:], 0,
                                   (xo,), 0).inv_unit()


def test_sinh_cosh_parity_and_leading_terms():
    s, c = _sinh_cosh(7, True).coeffs, _sinh_cosh(6, False).coeffs
    assert [k for k, a in enumerate(s) if not a.is_zero()] == [1, 3, 5, 7]
    assert [k for k, a in enumerate(c) if not a.is_zero()] == [0, 2, 4, 6]
    assert s[1] == 1 and s[3] == Fraction(1, 24)
    assert c[0] == 1 and c[2] == Fraction(1, 8)


def test_weight_table_matches_sinh_powers():
    # every row of `_weights` against products of the elementary series,
    # at q-order 0, and T(n, d) against its closed form
    xo = 40
    table = bundles._weights(xo)
    s = _sinh_cosh(xo, True)
    cosh = _sinh_cosh(xo, False)
    inv_sinh = _x_over_two_sinh(xo)
    half = rat(Fraction(1, 2))

    def rows(kind, d):
        return [Fraction(row[d], den) if d < len(row) else 0
                for row, den in table[kind]]

    def values(p):
        return [c.coefficient(0) for c in p.coeffs]

    power = NilPoly.one((xo,), 0)  # s^(2d)
    for d in range(xo // 2 + 1):
        assert rows("w", d) == values(power)
        assert rows("sinh", d) == values(power * s * half)
        assert rows("cosh", d) == values(power * cosh)
        assert rows("root", d) == values(power * inv_sinh)
        for n in range(xo + 1):
            T = sum((-1) ** j * math.comb(2 * d, j) * (d - j) ** n
                    for j in range(2 * d + 1))
            assert rows("w", d)[n] == Fraction(T, math.factorial(n))
        power = power * s * s


@pytest.mark.parametrize("q_order", [0, 1, 2, 5, 13])
@pytest.mark.parametrize("x_order", [0, 1])
def test_builders_below_the_first_w_degree(x_order, q_order):
    # w = x^2 + ..., so at x-order <= 1 every pair product reads 1 and the
    # factors are their prefactors: x/(2 sinh(x/2)) = 1 + O(x^2),
    # cosh(x/2) = 1 + O(x^2) and sinh(x/2) = x/2 + O(x^3)
    qo = q_order
    one = (QSeries.one(qo), QSeries.zero(qo))[:x_order + 1]
    assert bundles.root_factor(x_order, qo) == one
    assert bundles.lfactor_4k(x_order, qo) == one
    assert bundles.psi1_factor(x_order, qo) == one
    assert bundles.lfactor_4k2(x_order, qo) == (
        QSeries.zero(qo), QSeries.constant(Fraction(1, 2), qo))[:x_order + 1]


@pytest.mark.parametrize("x_order", [0, 1, 2, 7, 16, 33])
def test_builders_at_q_order_zero(x_order):
    # every pair is 1 + O(q): the factors are the elementary series
    xo = x_order
    cosh = tuple(_sinh_cosh(xo, False).coeffs)
    assert bundles.root_factor(xo, 0) == tuple(_x_over_two_sinh(xo).coeffs)
    assert bundles.lfactor_4k(xo, 0) == cosh
    assert bundles.psi1_factor(xo, 0) == cosh
    assert bundles.lfactor_4k2(xo, 0) == tuple(
        c * Fraction(1, 2) for c in _sinh_cosh(xo, True).coeffs)


@pytest.mark.parametrize("name", ["root_factor", "lfactor_4k", "lfactor_4k2",
                                  "psi1_factor"])
def test_builders_refuse_negative_sizes(name):
    build = getattr(bundles, name)
    with pytest.raises(ValueError, match=f"{name} needs x_order >= 0"):
        build(-2, 3)
    with pytest.raises(ValueError, match=f"{name} needs q_order >= 0"):
        build(3, -2)
    with pytest.raises(ValueError, match="x_order >= 0, got x_order=-1"):
        build(-1, -1)


def test_lemma42_refuses_negative_q_order():
    with pytest.raises(ValueError, match="q_order >= 0"):
        lemma42_report(-1)
