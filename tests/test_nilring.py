"""Unit tests for the nilpotent-generator polynomial ring."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoly_ring import (add, at_form, coeffs, from_univariate, mul, one,
                          poly, scale, terms, top_coeff)
from series_inverse import inv_poly
from wittenq.errors import InsufficientDegreeError, OrderMismatchError
from wittenq.nilring import NilPoly, contract_axes, mul_linear, rank_pair_mul
from wittenq.qseries import QSeries
from wittenq.theta import ThetaKind, direction_series, phi


def _random_poly(rng, caps, q_order, density=0.6):
    terms = {}
    for e in itertools.product(*[range(c + 1) for c in caps]):
        if rng.random() < density:
            coeffs = [rng.randint(-5, 5) for _ in range(q_order + 1)]
            terms[e] = QSeries(coeffs, q_order)
    return poly(caps, q_order, terms)


def _random_uni(rng, x_order, q_order):
    return [QSeries([rng.randint(-4, 4) for _ in range(q_order + 1)], q_order)
            for _ in range(x_order + 1)]


def _gen(caps, index, q_order):
    return from_univariate([0, 1], index, caps, q_order)


def test_nilpoly_public_surface():
    # the residue kernels' record: `_make` builds it, and it has no ring
    # operation
    bookkeeping = {"__module__", "__qualname__", "__doc__", "__firstlineno__",
                   "__static_attributes__"}
    assert set(vars(NilPoly)) - bookkeeping == {
        "__slots__", "caps", "q_order", "cells", "den", "_make", "__new__",
        "__eq__", "__hash__", "__repr__"}
    # NilPoly() built a hollow instance whose repr and == raised
    # AttributeError
    for args in ((), ((2,), 1)):
        with pytest.raises(TypeError, match="_make"):
            NilPoly(*args)
    p = one((1,), 2)
    with pytest.raises(TypeError):
        p * p
    for scalar in (True, 2, Fraction(1, 2), QSeries.one(2)):
        with pytest.raises(TypeError):
            p * scalar
        with pytest.raises(TypeError):
            scalar * p
    for op in (lambda: p + p, lambda: p - p, lambda: -p, lambda: p ** 2):
        with pytest.raises(TypeError):
            op()


def test_overflow_monomials_dropped():
    # a product's monomials over a cap are dropped
    x, y = _gen((2, 1), 0, 3), _gen((2, 1), 1, 3)
    assert list(terms(mul(mul(x, y), x))) == [(2, 1)]
    assert not mul(mul(x, y), y).cells


def test_cells_are_reduced_and_value_based():
    half = QSeries([Fraction(1, 2), 0], 1)
    p = NilPoly._make((2,), 1, {(0,): [6, 0], (1,): [4, 12], (2,): [0, 0]},
                      12)
    assert (p.den, p.cells) == (6, {(0,): [3, 0], (1,): [2, 6]})
    assert p == poly((2,), 1, {(0,): half, (1,): QSeries([Fraction(1, 3), 1],
                                                         1), (2,): 0})
    q = mul(p, one((2,), 1))
    assert q == p
    zero = NilPoly._make((2,), 1, {(0,): [0, 0]}, 7)
    assert (zero.den, zero.cells) == (1, {})
    # terms is a new dict of reduced QSeries on each read
    assert terms(p)[(0,)] == half and terms(p)[(0,)].den == 2
    terms(p).clear()
    assert len(terms(p)) == 2


def test_generator_nilpotence():
    x = _gen((3, 2), 0, 4)
    cube = mul(mul(x, x), x)
    assert cube.cells
    assert not mul(cube, x).cells


def test_constant_and_top_coeff():
    u = one((1, 1), 3)
    assert terms(u) == {(0, 0): QSeries.one(3)}
    unit = [QSeries.one(3), QSeries.zero(3)]
    assert top_coeff(u).is_zero() and contract_axes(u, [unit] * 2).is_zero()
    xy = mul(_gen((1, 1), 0, 3), _gen((1, 1), 1, 3))
    assert top_coeff(xy).is_one() and contract_axes(xy, [unit] * 2).is_one()


def test_caps_mismatch_raises():
    # the tests' ring refuses operands on other grids or q-orders
    for other in (one((3,), 3), one((2,), 4)):
        with pytest.raises(ValueError, match="caps or q-order"):
            mul(one((2,), 3), other)
        with pytest.raises(ValueError, match="caps or q-order"):
            add(one((2,), 3), other)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        qo = rng.randint(0, 4)
        a = _random_poly(rng, caps, qo)
        b = _random_poly(rng, caps, qo)
        c = _random_poly(rng, caps, qo)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_inv_unit_roundtrip():
    rng = random.Random(22)
    for _ in range(6):
        caps = (rng.randint(1, 3), rng.randint(1, 2))
        qo = 3
        a = add(_random_poly(rng, caps, qo), one(caps, qo))
        if (0, 0) not in terms(a) or not terms(a)[(0, 0)].num[0]:
            continue
        prod = mul(a, inv_poly(a))
        assert prod == one(caps, qo)


def test_inv_unit_requires_unit_constant():
    x = _gen((2,), 0, 3)
    with pytest.raises(ValueError, match="constant term is zero"):
        inv_poly(x)


def _paired_with_one(f, d, caps, qo):
    """f(sum_b d_b x_b) as `genera._residue` takes it for an odd factor:
    the rank_pair_mul product with the constant 1 at the zero form."""
    one = [QSeries.one(qo)] + [QSeries.zero(qo)] * sum(caps)
    return rank_pair_mul(f, d, one, (0,) * len(caps), caps, qo)


def test_paired_with_one_against_horner_oracle():
    def check(f, d, caps, qo):
        assert _paired_with_one(f, d, caps, qo) == at_form(f, d, caps, qo)

    rng = random.Random(33)
    for _ in range(8):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        qo = rng.randint(0, 3)
        f = _random_uni(rng, sum(caps), qo)
        d = [rng.randint(-3, 3) for _ in caps]
        check(f, d, caps, qo)
    # the all-zero direction, and zero entries over 2 and 3 generators
    for caps, d in [((2, 3), [0, 0]), ((1, 2, 2), [0, 0, 0]),
                    ((2, 2), [0, 2]), ((3, 1), [-1, 0]),
                    ((1, 2, 2), [2, 0, -1]), ((2, 1, 2), [0, 3, 0])]:
        check(_random_uni(rng, sum(caps), 2), d, caps, 2)


def test_paired_with_one_insufficient_degree():
    f = [QSeries.one(2)]
    with pytest.raises(InsufficientDegreeError):
        _paired_with_one(f, [1, 1], (1, 1), 2)


def test_paired_with_one_accepts_longer_series():
    rng = random.Random(44)
    caps, qo = (2, 1), 2
    f = _random_uni(rng, 10, qo)
    a = _paired_with_one(f, [2, -1], caps, qo)
    b = _paired_with_one(f[: sum(caps) + 1], [2, -1], caps, qo)
    assert a == b


def test_linear_weights_multinomial():
    # the all-ones series at x + y carries C(i+j, i) at x^i y^j
    ones = [QSeries.one(0)] * 5
    p = _paired_with_one(ones, [1, 1], (2, 2), 0)
    assert terms(p) == {(i, j): QSeries.constant(math.comb(i + j, i), 0)
                        for i in range(3) for j in range(3)}
    assert _paired_with_one(ones[:3], [0], (2,), 0) == one((2,), 0)


@pytest.mark.parametrize("bad", [(1,), (1, 1, 1)], ids=["short", "long"])
def test_rank_pair_mul_refuses_direction_of_wrong_arity(bad):
    caps, qo = (2, 2), 1
    f = [QSeries.one(qo)] * 5
    with pytest.raises(ValueError):
        rank_pair_mul(f, bad, f, (1, 1), caps, qo)
    with pytest.raises(ValueError):
        rank_pair_mul(f, (1, 1), f, bad, caps, qo)
    with pytest.raises(ValueError):
        _paired_with_one(f, bad, caps, qo)


def test_rank_pair_mul_matches_naive_product():
    rng = random.Random(55)
    for trial in range(16):
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        qo = rng.randint(0, 3)
        total = sum(caps)
        fa = _random_uni(rng, total, qo)
        fb = _random_uni(rng, total, qo)
        if trial % 2:
            # rational coefficients on some x-degrees only, as the theta
            # factors have (even in x, up to a power of x)
            fa = [c * Fraction(1, k + 1) if k % 2 == 0 else 0 * c
                  for k, c in enumerate(fa)]
            fb = [c * Fraction(k + 1, 6) if k % 3 else 0 * c
                  for k, c in enumerate(fb)]
        da = [rng.randint(-3, 3) for _ in caps]
        db = [rng.randint(-3, 3) for _ in caps]
        got = rank_pair_mul(fa, da, fb, db, caps, qo)
        expect = mul(at_form(fa, da, caps, qo), at_form(fb, db, caps, qo))
        assert got == expect


def _theta_factors(x_order, qo):
    """Real integrand factors: zero odd (or even) x-degrees, Bernoulli
    denominators, and the constant 1."""
    th, th1 = ThetaKind.THETA, ThetaKind.THETA1
    one = [QSeries.one(qo)] + [QSeries.zero(qo)] * x_order
    return {
        "phi": phi(x_order, qo),
        "phi_pair": [QSeries.zero(qo)] * 2 + list(direction_series(
            [(th, -1, 1), (th, -1, 2)], x_order - 2, qo)),
        "twist": direction_series([(th, 1, 1), (th, -1, 2)], x_order, qo),
        "psi1": direction_series([(th1, 1, 2)], x_order, qo),
        "one": one,
    }


@pytest.mark.parametrize("caps, pairs", [
    ((5, 7), [("phi", (1, 2), "twist", (1, -1)),
              ("phi_pair", (0, 3), "psi1", (2, 0)),
              ("twist", (-2, 1), "one", (1, 1))]),
    ((2, 3, 3), [("phi", (1, 0, -1), "phi_pair", (2, 1, 1)),
                 ("psi1", (0, 1, 2), "twist", (-1, 0, 1)),
                 ("phi_pair", (1, -1, 0), "one", (0, 0, 0))]),
], ids=["5x7", "2x3x3"])
def test_rank_pair_mul_on_theta_factors(caps, pairs):
    qo = 4
    f = _theta_factors(sum(caps), qo)
    for a, da, b, db in pairs:
        expect = mul(at_form(f[a], da, caps, qo), at_form(f[b], db, caps, qo))
        assert rank_pair_mul(f[a], da, f[b], db, caps, qo) == expect
    assert _paired_with_one(f["phi"], (1, 0, -1)[:len(caps)], caps, qo) == \
        at_form(f["phi"], (1, 0, -1)[:len(caps)], caps, qo)


@pytest.mark.parametrize("caps", [(5, 7), (2, 3, 3)], ids=["5x7", "2x3x3"])
def test_mul_linear_on_theta_factors(caps):
    qo = 4
    f = _theta_factors(sum(caps), qo)
    poly = rank_pair_mul(f["phi"], (1, -2, 1)[:len(caps)], f["twist"],
                         (1,) * len(caps), caps, qo)
    for d in [(1, 1, 0), (2, -1, 3), (0, 3, -1), (0, 0, 0)]:
        d = d[:len(caps)]
        for name in ("phi", "phi_pair", "twist", "psi1", "one"):
            expect = mul(poly, at_form(f[name], d, caps, qo))
            assert mul_linear(poly, f[name], d) == expect


@pytest.mark.parametrize("bad", [(1,), (1, 1, 1)], ids=["short", "long"])
def test_mul_linear_refuses_direction_of_wrong_arity(bad):
    f = [QSeries.one(1)] * 5
    with pytest.raises(ValueError):
        mul_linear(one((2, 2), 1), f, bad)


@pytest.mark.parametrize("kernel", [
    "rank_pair_mul_a", "rank_pair_mul_b", "mul_linear", "contract_axes"])
def test_kernels_refuse_a_factor_short_of_its_degree(kernel):
    # each kernel reads its factor to a degree (sum(caps), or cap_b on an
    # axis) and refuses one coefficient fewer; contract_axes raised
    # IndexError
    caps, qo = (2, 3), 2
    total, d = sum(caps), (1, -1)
    f = _theta_factors(total, qo)["twist"]
    p = rank_pair_mul(f, d, f, (1, 2), caps, qo)
    calls = {
        "rank_pair_mul_a": lambda: rank_pair_mul(f[:total], d, f, d, caps,
                                                 qo),
        "rank_pair_mul_b": lambda: rank_pair_mul(f, d, f[:total], d, caps,
                                                 qo),
        "mul_linear": lambda: mul_linear(p, f[:total], d),
        "contract_axes": lambda: contract_axes(p, [f[:caps[0] + 1],
                                                   f[:caps[1]]]),
    }
    with pytest.raises(InsufficientDegreeError, match=r"degree \d"):
        calls[kernel]()


@pytest.mark.parametrize("kernel", ["rank_pair_mul", "mul_linear",
                                    "contract_axes"])
def test_kernels_refuse_a_factor_of_another_q_order(kernel):
    # a factor at q-order 0 against a q-order-2 poly gave a q-order-2
    # result whose q^1 and q^2 coefficients it never supplied, and one at
    # q-order 3 was truncated silently
    caps, qo, d = (1, 1), 2, (1, 1)
    for order in (0, 3):
        f = (QSeries.one(order),) * (sum(caps) + 1)
        calls = {
            "rank_pair_mul": lambda: rank_pair_mul(f, d, f, d, caps, qo),
            "mul_linear": lambda: mul_linear(one(caps, qo), f, d),
            "contract_axes": lambda: contract_axes(one(caps, qo), [f, f]),
        }
        with pytest.raises(OrderMismatchError, match="q-order"):
            calls[kernel]()


@pytest.mark.parametrize("count", [1, 3], ids=["missing", "extra"])
def test_contract_axes_refuses_a_wrong_axis_count(count):
    # a missing axis factor raised IndexError, an extra one was ignored
    f = _theta_factors(4, 1)["twist"]
    with pytest.raises(ValueError, match="axis"):
        contract_axes(one((2, 2), 1), [f] * count)


def test_from_univariate_and_scalar_mul():
    # the tests' ring: a series in one generator, and a scalar multiple
    u = [QSeries.one(2), QSeries.constant(3, 2)]
    p = from_univariate(u, 1, (2, 2), 2)
    assert terms(p)[(0, 0)].is_one()
    assert terms(p)[(0, 1)] == QSeries.constant(3, 2)
    assert not scale(p, 0).cells
    assert terms(scale(p, 2))[(0, 1)] == QSeries.constant(6, 2)


def test_series_product_drops_terms_that_truncate_to_zero():
    # q^2 * q vanishes at q-order 2, so the product has no terms left
    p = poly((1,), 2, {(0,): QSeries.monomial(1, 2, 2)})
    prod = mul(p, poly((1,), 2, {(0,): QSeries.monomial(1, 1, 2)}))
    assert (prod.den, prod.cells) == (1, {})
    assert prod == poly((1,), 2)


def test_coeffs_of_one_generator_poly():
    p = poly((3,), 1, {(1,): 2, (3,): QSeries([0, 1], 1)})
    assert coeffs(p) == [QSeries.zero(1), QSeries.constant(2, 1),
                         QSeries.zero(1), QSeries([0, 1], 1)]


# -- kernel properties (hypothesis) -----------------------------------
#
# The kernels against the ring oracles, compared exactly: 1 to 3 generators, directions with zero and
# negative entries (the zero vector included), factors whose nonzero
# degrees lie in r + gZ for g = 1, 2, 3, a single nonzero degree, the
# constant 1, and q-orders 0 to 6.

KERNELS = settings(deadline=None, max_examples=100, derandomize=True,
                   database=None)


# 1 to 3 generators, on grids of at most 27 cells
KERNEL_CAPS = [(6,), (3, 4), (1, 5), (4, 4), (1, 2, 3), (2, 2, 2), (1, 1, 1),
               (1,)]


@st.composite
def _shapes(draw):
    """(caps, q_order)."""
    return draw(st.sampled_from(KERNEL_CAPS)), draw(st.integers(0, 6))


def _directions(s):
    entry = st.integers(-3, 3)
    return st.one_of(st.just((0,) * s),
                     st.lists(entry, min_size=s, max_size=s).map(tuple))


@st.composite
def _series(draw, q_order):
    nums = draw(st.lists(st.integers(-6, 6), min_size=q_order + 1,
                         max_size=q_order + 1))
    return QSeries([Fraction(x, draw(st.integers(1, 12))) for x in nums],
                   q_order)


@st.composite
def _factors(draw, x_order, q_order):
    """A series in x to x_order: nonzero degrees in r + gZ (g = 1, 2, 3),
    one nonzero degree, or the constant 1."""
    zero = QSeries.zero(q_order)
    shape = draw(st.sampled_from(["g2", "g3", "g1", "single", "one"]))
    if shape == "one":
        return [QSeries.one(q_order)] + [zero] * x_order
    r = draw(st.integers(0, min(2, x_order)))
    g = int(shape[1]) if shape != "single" else x_order + 1
    return [draw(_series(q_order)) if k >= r and (k - r) % g == 0 else zero
            for k in range(x_order + 1)]


@st.composite
def _fraction_polys(draw, caps, q_order):
    """{e: Fraction list} on the cap grid, each cell over its own
    denominator (1 to 12), about half the cells present."""
    out = {}
    for e in itertools.product(*[range(c + 1) for c in caps]):
        if draw(st.booleans()):
            den = draw(st.integers(1, 12))
            out[e] = [Fraction(draw(st.integers(-6, 6)), den)
                      for _ in range(q_order + 1)]
    return out


@KERNELS
@given(st.data())
def test_general_product_matches_fraction_reference(data):
    # cells over different denominators, so each output cell's terms are
    # scaled to the lcm of their denominator products
    caps, qo = data.draw(_shapes())
    a, b = (data.draw(_fraction_polys(caps, qo)) for _ in "ab")
    expect = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(ea, eb))
        if all(x <= c for x, c in zip(e, caps)):
            acc = expect.setdefault(e, [Fraction(0)] * (qo + 1))
            for i, j in itertools.product(range(qo + 1), repeat=2):
                if i + j <= qo:
                    acc[i + j] += ca[i] * cb[j]
    pa, pb = (poly(caps, qo, {e: QSeries(c, qo) for e, c in p.items()})
              for p in (a, b))
    got = mul(pa, pb)
    assert ({e: c.coeffs for e, c in terms(got).items()}
            == {e: c for e, c in expect.items() if any(c)})
    for c in terms(got).values():
        assert math.gcd(c.den, *c.num) == 1
    assert math.gcd(got.den, *itertools.chain(*got.cells.values())) == 1


@KERNELS
@given(st.data())
def test_rank_pair_mul_property(data):
    caps, qo = data.draw(_shapes())
    fa, fb = (data.draw(_factors(sum(caps), qo)) for _ in "ab")
    da, db = (data.draw(_directions(len(caps))) for _ in "ab")
    got = rank_pair_mul(fa, da, fb, db, caps, qo)
    assert got == mul(at_form(fa, da, caps, qo), at_form(fb, db, caps, qo))


@KERNELS
@given(st.data())
def test_residue_chain_property(data):
    # the bundle route's residue: a pair product, times a third factor at
    # its linear form, then the contraction against one factor per axis
    caps, qo = data.draw(_shapes())
    fa, fb, fc = (data.draw(_factors(sum(caps), qo)) for _ in "abc")
    da, db, dc = (data.draw(_directions(len(caps))) for _ in "abc")
    axes = [data.draw(_factors(cap, qo)) for cap in caps]
    poly = rank_pair_mul(fa, da, fb, db, caps, qo)
    expect = mul(at_form(fa, da, caps, qo), at_form(fb, db, caps, qo))
    assert poly == expect
    poly = mul_linear(poly, fc, dc)
    expect = mul(expect, at_form(fc, dc, caps, qo))
    assert poly == expect
    assert contract_axes(poly, axes) == top_coeff(mul(
        expect, functools.reduce(mul, (from_univariate(f, b, caps, qo)
                                       for b, f in enumerate(axes)),
                                 one(caps, qo))))


@KERNELS
@given(st.data())
def test_mul_linear_property(data):
    # a poly with cells over different denominators times a series at a
    # linear form, against the Horner-rule product
    caps, qo = data.draw(_shapes())
    p = poly(caps, qo, {e: QSeries(c, qo) for e, c in
                        data.draw(_fraction_polys(caps, qo)).items()})
    f = data.draw(_factors(sum(caps), qo))
    d = data.draw(_directions(len(caps)))
    assert mul_linear(p, f, d) == mul(p, at_form(f, d, caps, qo))
