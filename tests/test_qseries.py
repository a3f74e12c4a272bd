"""Unit tests for the exact truncated q-series scalar layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from series_inverse import inv_series
from wittenq import bundles, modforms, theta
from wittenq.errors import NonIntegralError, OrderMismatchError
from wittenq.gci import GCIData
from wittenq.genera import mod2_witten
from wittenq.qseries import Q2Series, QSeries, q_product, rat
from wittenq.theta import ThetaKind


def _random_series(rng, order, int_only=False):
    coeffs = []
    for _ in range(order + 1):
        num = rng.randint(-9, 9)
        den = 1 if int_only else rng.randint(1, 7)
        coeffs.append(Fraction(num, den))
    return QSeries(coeffs, order)


def test_construction_pads_and_truncates():
    s = QSeries([1, 2], 4)
    assert s.coeffs == [rat(1), rat(2), rat(0), rat(0), rat(0)]
    t = QSeries([1, 2, 3, 4, 5], 2)
    assert t.coeffs == [rat(1), rat(2), rat(3)]
    assert QSeries([7]).order == 0


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        QSeries([0.5], 3)
    with pytest.raises(TypeError):
        QSeries([1], 3) * 0.5


def test_bool_coefficients_rejected():
    # a bool was coerced to 0 or 1, where GCIData refuses it
    with pytest.raises(TypeError, match="bool"):
        rat(True)
    with pytest.raises(TypeError):
        QSeries([True, 2])
    with pytest.raises(TypeError):
        QSeries([1], 3) * False
    one = QSeries.one(2)
    assert one.__eq__(True) is NotImplemented
    assert (one == True) is False  # noqa: E712


def test_string_and_fraction_coercion():
    s = QSeries(["1/3", Fraction(2, 5)], 1)
    assert s.coefficient(0) == Fraction(1, 3)
    assert s.coefficient(1) == Fraction(2, 5)


def _through_fractions(coeffs, order=None):
    """The series built with every entry coerced to a Fraction first."""
    return QSeries([Fraction(c) for c in coeffs], order)


@pytest.mark.parametrize("coeffs, order", [
    ([3, -1, 0, 7], None), ([1, 2], 4), ([1, 2, 3, 4, 5], 2), ([0, 0], 1),
    ([], 3), ([10 ** 40, -5], None)])
def test_int_entries_skip_fractions(coeffs, order):
    s = QSeries(coeffs, order)
    ref = _through_fractions(coeffs, order)
    assert (s.order, s.num, s.den) == (ref.order, ref.num, ref.den)
    assert s.den == 1 and all(type(x) is int for x in s.num)


def test_int_entries_are_copied():
    coeffs = [1, 2, 3]
    s = QSeries(coeffs)
    coeffs[0] = 9
    assert s.num == [1, 2, 3]


def test_non_int_entries_keep_the_fraction_path():
    # Fraction and 'p/q' strings are coerced; int results in num
    for coeffs in ([Fraction(4, 2), 1], ["3/6", 1],
                   [1, Fraction(1, 3)]):
        s = QSeries(coeffs)
        ref = QSeries([rat(c) for c in coeffs])
        assert (s.num, s.den) == (ref.num, ref.den)
        assert all(type(x) is int for x in s.num)
    with pytest.raises(TypeError):
        QSeries([True, 0])  # a bool is refused, as by GCIData
    with pytest.raises(TypeError):
        QSeries([1, 2.0, 3])
    with pytest.raises(TypeError):
        QSeries([1, 2, 0.5], 1)  # a float past the order still raises
    with pytest.raises(ValueError):
        QSeries([])


def test_basic_predicates():
    assert QSeries.zero(5).is_zero()
    assert QSeries.one(5).is_one()
    assert QSeries.one(5).num[0]
    assert not QSeries.monomial(1, 3, 5).num[0]
    assert QSeries([1, 0, 2], 2).is_integral()
    assert not QSeries(["1/2"], 2).is_integral()
    assert QSeries([1, 0, 5, 0], 3).even_q_support()
    assert not QSeries([1, 1], 3).even_q_support()


def test_monomial_beyond_order_is_zero():
    assert QSeries.monomial(3, 9, 5).is_zero()


def test_negative_monomial_exponent_raises():
    # coeffs[-1] would put the value on the top coefficient
    assert QSeries.monomial(7, 0, 3) == QSeries([7], 3)
    for e in (-1, -3, -4):
        with pytest.raises(ValueError, match="must be >= 0"):
            QSeries.monomial(7, e, 3)


def test_negative_orders_raise():
    # zero(-1) had an empty numerator list and one(-2) passed is_one()
    for order in (-1, -2):
        for build in (QSeries.zero, QSeries.one,
                      lambda o: QSeries.monomial(3, 0, o),
                      lambda o: q_product([], o),
                      lambda o: q_product([(1, 1)], o)):
            with pytest.raises(ValueError, match="order must be >= 0"):
                build(order)
    with pytest.raises(ValueError, match="order must be >= 0"):
        QSeries([1], -1)


def test_orders_must_be_plain_ints():
    # order=True built a series of order 1, and zero(1.5) failed on a
    # list repeat
    for build in (lambda: QSeries([1, 2], order=True),
                  lambda: QSeries([1], 2.0), lambda: QSeries.zero(1.5),
                  lambda: QSeries.one(False), lambda: q_product([], 1.5)):
        with pytest.raises(TypeError, match="order must be an integer"):
            build()


def test_q_product_matches_binomial_products():
    rng = random.Random(19)
    assert q_product([], 0) == QSeries.one(0)
    assert q_product([], 7) == QSeries.one(7)
    for order in range(41):
        for _ in range(3):
            factors = [(rng.choice((1, -1)), rng.randint(1, order + 3))
                       for _ in range(rng.randint(0, 8))]
            factors += factors[:rng.randint(0, len(factors))]  # repeats
            expect = QSeries.one(order)
            for sign, e in factors:
                expect = expect * (QSeries.one(order)
                                   + QSeries.monomial(sign, e, order))
            assert q_product(factors, order) == expect


def test_add_sub_neg():
    a = QSeries([1, 2, 3], 2)
    b = QSeries([4, 5, 6], 2)
    assert (a + b).coeffs == [rat(5), rat(7), rat(9)]
    assert (b - a).coeffs == [rat(3), rat(3), rat(3)]
    assert (-a + a).is_zero()
    assert (a + 1).coefficient(0) == 2
    assert (1 + a).coefficient(0) == 2
    assert (1 - a).coefficient(0) == 0


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        QSeries.one(3) + QSeries.one(4)
    with pytest.raises(OrderMismatchError):
        QSeries.one(3) * QSeries.one(4)


def test_mul_against_double_loop_oracle():
    rng = random.Random(101)
    for _ in range(20):
        order = rng.randint(0, 12)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        prod = a * b
        for k in range(order + 1):
            expect = sum((Fraction(str(a.coefficient(i)))
                          * Fraction(str(b.coefficient(k - i)))
                          for i in range(k + 1)), Fraction(0))
            assert prod.coefficient(k) == expect


def test_scalar_mul_both_sides():
    a = QSeries([1, 2, 3], 2)
    assert (a * 2).coeffs == [rat(2), rat(4), rat(6)]
    assert (2 * a).coeffs == [rat(2), rat(4), rat(6)]
    assert (a * Fraction(1, 2)).coefficient(1) == 1


def test_pow_matches_repeated_mul():
    rng = random.Random(202)
    a = _random_series(rng, 8)
    acc = QSeries.one(8)
    for k in range(5):
        assert a ** k == acc
        acc = acc * a


def test_inv_unit_roundtrip():
    # the tests' inverse (series_inverse.inv_series), which oracles read
    rng = random.Random(303)
    for _ in range(10):
        a = _random_series(rng, 10)
        if not a.num[0]:
            a = a + 1
        if not a.num[0]:
            continue
        assert (a * inv_series(a)).is_one()
    geom = inv_series(QSeries([1, -1], 6))
    assert geom.coeffs == [rat(1)] * 7  # 1/(1-q) = 1 + q + q^2 + ...


def test_inv_unit_requires_unit():
    with pytest.raises(ValueError, match="constant term is zero"):
        inv_series(QSeries.monomial(1, 1, 4))


def test_negative_power_raises():
    # a ** -1 once inverted the series; nothing in the package divides
    a = QSeries([1, 1], 5)
    for k in (-1, -2):
        with pytest.raises(ValueError, match="must be >= 0"):
            a ** k
    assert a ** 0 == QSeries.one(5)


def test_negative_coefficient_index_raises():
    # num[-1] would read the top coefficient from the end of the list
    a = QSeries([1, 2, 3], 2)
    assert a.coefficient(2) == 3 and a.coefficient(7) == 0
    for k in (-1, -3, -4):
        with pytest.raises(ValueError, match="must be >= 0"):
            a.coefficient(k)


def test_reduce_mod2():
    a = QSeries([5, -3, 4, 0], 3)
    r = a.reduce_mod2()
    assert isinstance(r, Q2Series)
    assert r.bits == [1, 1, 0, 0]
    with pytest.raises(NonIntegralError):
        QSeries(["1/2"], 2).reduce_mod2()


def test_reduce_mod2_negative_odd_is_one():
    assert QSeries([-7], 0).reduce_mod2().bits == [1]


def test_q2series_equality_and_zero():
    a = QSeries([2, 4, 6], 2).reduce_mod2()
    assert a.is_zero()
    b = QSeries([1], 2).reduce_mod2()
    assert a != b
    assert b == QSeries([3], 2).reduce_mod2()


def test_q2series_refuses_bad_orders_and_bits():
    # order=-1 built a series of order -1, and 1.5 became q^0 by int()
    with pytest.raises(ValueError, match="order must be >= 0"):
        Q2Series([1, 1], order=-1)
    for bits in ([1.5], [True, 0], [1, "1"]):
        with pytest.raises(TypeError, match="bits must be integers"):
            Q2Series(bits)
    assert Q2Series([3, -1, 2], 4).bits == [1, 1, 0, 0, 0]
    assert Q2Series(iter([1, 0, 1]), 1).bits == [1, 0]


def test_equality_with_constants():
    assert QSeries.constant(5, 3) == 5
    assert QSeries([5, 1], 3) != 5


def test_hash_consistency():
    a = QSeries([1, 2], 4)
    b = QSeries([1, 2, 0], 4)
    assert a == b and hash(a) == hash(b)


def test_ring_axioms_randomized():
    rng = random.Random(404)
    for _ in range(15):
        order = rng.randint(1, 9)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- the integer kernel against a Fraction-list reference -------------

KERNEL = settings(deadline=None, max_examples=200, derandomize=True,
                  database=None)


def mul_into(out, a, b):
    """Reference: add the product of Fraction lists a and b into out,
    truncated at len(out) (the convolution the integer kernel replaced)."""
    n = len(out)
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += ai * b[j]


def ref_inv(a):
    """Reference inverse of a Fraction list by the usual recursion."""
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0])
    return out


def _fractions(c):
    return [Fraction(str(x)) for x in c]


def _canonical(s):
    return (s.den > 0 and math.gcd(s.den, *s.num) == 1
            and (s.den == 1 or any(s.num))
            and all(type(x) is int for x in s.num))


ratios = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def rational_lists(draw, count):
    """`count` Fraction lists of one common length 1..9, zeros frequent."""
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.just(Fraction(0)), ratios)
    return [draw(st.lists(entry, min_size=n, max_size=n))
            for _ in range(count)]


@KERNEL
@given(rational_lists(2), ratios)
def test_kernel_ring_ops_match_fraction_reference(lists, c):
    a, b = lists
    A, B = QSeries(a), QSeries(b)
    prod = [Fraction(0)] * len(a)
    mul_into(prod, a, b)
    expect = {
        "+": [x + y for x, y in zip(a, b)],
        "-": [x - y for x, y in zip(a, b)],
        "*": prod,
        "scalar": [x * c for x in a],
    }
    got = {"+": A + B, "-": A - B, "*": A * B, "scalar": A * c}
    for op, series in got.items():
        assert _fractions(series.coeffs) == expect[op], op
        assert _canonical(series), op
    assert _fractions((c * A).coeffs) == expect["scalar"]
    if a[0]:
        inv = inv_series(A)
        assert _fractions(inv.coeffs) == ref_inv(a)
        assert _canonical(inv)


@KERNEL
@given(rational_lists(1), st.integers(-10**30, 10**30))
@example([[Fraction(3, 4), Fraction(0), Fraction(-5, 6)]], 0)
@example([[Fraction(3, 4), Fraction(0), Fraction(-5, 6)]], -6)
def test_int_scalar_matches_fraction_scalar(lists, n):
    # an int scalar multiplies the numerators with no Fraction (equality
    # is of numerators and denominator); a bool is not a scalar
    A = QSeries(lists[0])
    for got in (A * n, n * A):
        assert got == A * Fraction(n)
        assert _canonical(got)
    for flag in (True, False):
        with pytest.raises(TypeError):
            A * flag


@KERNEL
@given(rational_lists(3))
def test_kernel_equal_values_compare_and_hash_equal(lists):
    a, b, c = lists
    A, B, C = QSeries(a), QSeries(b), QSeries(c)
    pairs = [(A * B, B * A),
             ((A + B) - B, A),
             (A * (B + C), A * B + A * C),
             (QSeries([2 * x for x in a]) * Fraction(1, 2), A),
             (QSeries(A.coeffs), A),
             (A - A, QSeries.zero(A.order))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert _canonical(x) and _canonical(y)
    assert (A - A).den == 1


@pytest.mark.parametrize("call, name, value", [
    (lambda: theta.eisenstein_g(True, 2), "k", True),
    (lambda: theta.eisenstein_g(1.5, 2), "k", 1.5),
    (lambda: theta.eisenstein_g(2, 2.0), "q_order", 2.0),
    (lambda: theta.phi(True, 2), "x_order", True),
    (lambda: theta.direction_series([(ThetaKind.THETA, True, 1)], 4, 2),
     "coef", True),
    (lambda: bundles.root_factor(True, 2), "x_order", True),
    (lambda: bundles.lemma42_report(True), "q_order", True),
    (lambda: modforms.eisenstein(4, True), "order", True),
    (lambda: modforms.eisenstein(4.0, 2), "k", 4.0),
    (lambda: modforms.monomial(True, 0, 2), "a", True),
    (lambda: QSeries.monomial(1, True, 4), "exponent", True),
    (lambda: QSeries.monomial(1, 0, 1.5), "order", 1.5),
    (lambda: theta.jacobi_check(2.0), "q_order", 2.0),
    (lambda: QSeries([1, 2, 3]).coefficient(True), "k", True),
    (lambda: QSeries([1, 1], 3) ** True, "exponent", True),
    (lambda: modforms.weight_basis(4.0), "weight", 4.0),
    (lambda: modforms.lift(modforms.eisenstein(4, 3), True), "q_order", True),
    (lambda: modforms.restrict(QSeries([1, 2, 3]), 1.0), "tilde_order", 1.0),
    (lambda: theta.numeric_theta(ThetaKind.THETA, 0.1, 1j, terms=True),
     "terms", True),
    (lambda: mod2_witten(GCIData([9], [[2], [2]], q_order=4), even_row=True,
                         strict=False), "even_row", True),
    (lambda: modforms.sigma(True, 3), "k", True),
    (lambda: modforms.sigma(1.5, 3), "k", 1.5),
    (lambda: modforms.sigma(1, 2.0), "n", 2.0),
], ids=["eisenstein_g-k-bool", "eisenstein_g-k-float",
        "eisenstein_g-q_order-float", "phi", "direction_series-coef",
        "root_factor", "lemma42_report", "eisenstein", "eisenstein-k",
        "monomial", "QSeries.monomial", "QSeries.monomial-order",
        "jacobi_check", "coefficient", "power",
        "weight_basis", "lift", "restrict", "numeric_theta", "mod2_witten",
        "sigma-k-bool", "sigma-k-float", "sigma-n-float"])
def test_integer_arguments_refuse_bools_and_floats(call, name, value):
    # each of these returned a value or failed with an unrelated error:
    # mod2_witten took True as row 1, lift built a series of q-order True,
    # monomial(True, 0, 2) read the cached monomial(1, 0, 2), warmed
    # here, and sigma(1.5, 3) returned a float
    modforms.monomial(1, 0, 2)
    with pytest.raises(TypeError,
                       match=f"^{name} must be an integer, got {value!r}$"):
        call()
