"""Unit tests for the nilpotent-generator polynomial ring."""

import itertools
import math
import random

import pytest

from wittenq.errors import (CapsMismatchError, InsufficientDegreeError,
                            NonUnitError)
from wittenq.nilring import (NilPoly, linear_weights, mul_univariate,
                             rank_pair_mul, subst_linear)
from wittenq.qseries import QSeries


def _random_poly(rng, caps, q_order, density=0.6):
    terms = {}
    for e in itertools.product(*[range(c + 1) for c in caps]):
        if rng.random() < density:
            coeffs = [rng.randint(-5, 5) for _ in range(q_order + 1)]
            terms[e] = QSeries(coeffs, q_order)
    return NilPoly(caps, q_order, terms)


def _random_uni(rng, x_order, q_order):
    return [QSeries([rng.randint(-4, 4) for _ in range(q_order + 1)], q_order)
            for _ in range(x_order + 1)]


def test_overflow_monomials_dropped():
    p = NilPoly((2,), 3, {(5,): 7})
    assert p.is_zero()
    q = NilPoly((2, 1), 3, {(2, 1): 1, (2, 2): 1})
    assert list(q.terms) == [(2, 1)]


def test_generator_nilpotence():
    x = NilPoly.generator((3, 2), 0, 4)
    assert not (x ** 3).is_zero()
    assert (x ** 4).is_zero()


def test_constant_and_top_coeff():
    p = NilPoly.one((1, 1), 3)
    assert p.constant_term().is_one()
    assert p.top_coeff().is_zero()
    xy = NilPoly.generator((1, 1), 0, 3) * NilPoly.generator((1, 1), 1, 3)
    assert xy.top_coeff().is_one()


def test_caps_mismatch_raises():
    with pytest.raises(CapsMismatchError):
        NilPoly.one((2,), 3) + NilPoly.one((3,), 3)
    with pytest.raises(CapsMismatchError):
        NilPoly.one((2,), 3) * NilPoly.one((3,), 3)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        qo = rng.randint(0, 4)
        a = _random_poly(rng, caps, qo)
        b = _random_poly(rng, caps, qo)
        c = _random_poly(rng, caps, qo)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a - a).is_zero()


def test_inv_unit_roundtrip():
    rng = random.Random(22)
    for _ in range(6):
        caps = (rng.randint(1, 3), rng.randint(1, 2))
        qo = 3
        a = _random_poly(rng, caps, qo) + 1
        if not a.constant_term().is_unit():
            continue
        prod = a * a.inv_unit()
        assert prod == NilPoly.one(caps, qo)


def test_inv_unit_requires_unit_constant():
    x = NilPoly.generator((2,), 0, 3)
    with pytest.raises(NonUnitError):
        x.inv_unit()


def test_subst_linear_against_horner_oracle():
    rng = random.Random(33)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        qo = rng.randint(0, 3)
        total = sum(caps)
        f = _random_uni(rng, total, qo)
        d = [rng.randint(-3, 3) for _ in caps]
        got = subst_linear(f, d, caps, qo)
        ell = NilPoly.zero(caps, qo)
        for b, db in enumerate(d):
            ell = ell + NilPoly.generator(caps, b, qo) * db
        expect = NilPoly.zero(caps, qo)
        for k in range(total, -1, -1):  # Horner evaluation of f at ell
            expect = expect * ell + NilPoly.constant(caps, f[k])
        assert got == expect


def test_subst_linear_insufficient_degree():
    f = [QSeries.one(2)]
    with pytest.raises(InsufficientDegreeError):
        subst_linear(f, [1, 1], (1, 1), 2)


def test_subst_linear_accepts_longer_series():
    rng = random.Random(44)
    caps, qo = (2, 1), 2
    f = _random_uni(rng, 10, qo)
    a = subst_linear(f, [2, -1], caps, qo)
    b = subst_linear(f[: sum(caps) + 1], [2, -1], caps, qo)
    assert a == b


def test_linear_weights_multinomial():
    w = linear_weights((2, 2), [1, 1])
    # weight at (i, j) is the binomial coefficient C(i+j, i)
    for (i, j), v in w.items():
        assert v == math.comb(i + j, i)
    assert linear_weights((2,), [0]) == {(0,): 1}


def test_rank_pair_mul_matches_naive_product():
    rng = random.Random(55)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        qo = rng.randint(0, 3)
        total = sum(caps)
        fa = _random_uni(rng, total, qo)
        fb = _random_uni(rng, total, qo)
        da = [rng.randint(-3, 3) for _ in caps]
        db = [rng.randint(-3, 3) for _ in caps]
        got = rank_pair_mul(fa, da, fb, db, caps, qo)
        expect = subst_linear(fa, da, caps, qo) * subst_linear(fb, db, caps, qo)
        assert got == expect


def test_mul_univariate_matches_naive_product():
    rng = random.Random(66)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        qo = rng.randint(0, 3)
        idx = rng.randrange(len(caps))
        poly = _random_poly(rng, caps, qo)
        u = _random_uni(rng, caps[idx], qo)
        got = mul_univariate(poly, u, idx)
        expect = poly * NilPoly.from_univariate(u, idx, caps, qo)
        assert got == expect


def test_top_product_matches_full_product():
    rng = random.Random(77)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        qo = rng.randint(0, 3)
        a = _random_poly(rng, caps, qo)
        b = _random_poly(rng, caps, qo)
        assert a.top_product(b) == (a * b).top_coeff()


def test_from_univariate_and_scalar_mul():
    u = [QSeries.one(2), QSeries.constant(3, 2)]
    p = NilPoly.from_univariate(u, 1, (2, 2), 2)
    assert p.terms[(0, 0)].is_one()
    assert p.terms[(0, 1)] == QSeries.constant(3, 2)
    assert (p * 0).is_zero()
    assert (2 * p).terms[(0, 1)] == QSeries.constant(6, 2)


def test_series_product_drops_terms_that_truncate_to_zero():
    # q^2 * q vanishes at q-order 2, so the product has no terms left
    p = NilPoly((1,), 2, {(0,): QSeries.monomial(1, 2, 2)})
    prod = p * QSeries.monomial(1, 1, 2)
    assert prod.is_zero()
    assert prod == NilPoly.zero((1,), 2)


def test_coeffs_of_one_generator_poly():
    p = NilPoly((3,), 1, {(1,): 2, (3,): QSeries([0, 1], 1)})
    assert p.coeffs == [QSeries.zero(1), QSeries.constant(2, 1),
                        QSeries.zero(1), QSeries([0, 1], 1)]
    with pytest.raises(ValueError):
        NilPoly.one((1, 1), 1).coeffs
