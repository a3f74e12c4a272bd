"""The integer exponential kernel of `theta.direction_series`, the
Bernoulli numbers it rests on and the genera's factor cache (the
one-factor coefficients and the index factors), against test-local
naive references.

The references are deliberately the slow definitions: the logarithms from
the divisor-sum formulas over Fractions, the exponential from the
rational recurrence n f_n = sum_j j L_j f_(n-j) in QSeries arithmetic, and
the Bernoulli numbers from sum_(j<=n) C(n+1, j) B_j = 0, and the index
factors by multiplying out one binomial factor at a time.  The kernels
must equal them exactly, numerators and denominators.
"""

import functools
import itertools
import math
import operator
import random
import re
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittenq import genera, theta
from wittenq.gci import GCIData
from wittenq.qseries import QSeries
from wittenq.theta import ThetaKind

K = ThetaKind
LOGS = [K.THETA, K.THETA1]  # the two logarithms of `theta._log_columns`
KERNEL = settings(deadline=None, max_examples=200, derandomize=True,
                  database=None)


@functools.lru_cache(maxsize=None)
def _bernoulli_reference(n):
    """B_n from sum_(j<=n) C(n+1, j) B_j = 0, B_0 = 1."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, j) * _bernoulli_reference(j)
                for j in range(n)) / (n + 1)


@functools.lru_cache(maxsize=None)
def _log_reference(kind, k, q_order):
    """L_2k of `kind` over Fractions, from the formulas in the docstring
    of `theta._log_columns`."""
    c = [Fraction(0)] * (q_order + 1)
    b = _bernoulli_reference(2 * k) / (4 * k)
    c[0] = -b if kind == K.THETA else (4 ** k - 1) * b
    for N in range(1, q_order // 2 + 1):
        c[2 * N] = sum((-1) ** (m + 1 if kind == K.THETA1 else 0)
                       * m ** (2 * k - 1)
                       for m in range(1, N + 1) if N % m == 0)
    return QSeries([x * Fraction(2, math.factorial(2 * k)) for x in c],
                   q_order)


def _naive_direction(terms, x_order, q_order):
    """The rational recurrence the integer kernel replaced."""
    zero = QSeries.zero(q_order)
    logs, f = {}, [QSeries.one(q_order)]
    for n in range(1, x_order + 1):
        if n % 2:
            f.append(zero)
            continue
        logs[n] = sum((_log_reference(kind, n // 2, q_order) * (coef * m ** n)
                       for kind, coef, m in terms), zero)
        f.append(sum((logs[j] * f[n - j] * j for j in range(2, n + 1, 2)),
                     zero) * Fraction(1, n))
    return f


def _exact(series_list):
    return [(c.num, c.den) for c in series_list]


def test_direction_series_matches_naive_recurrence():
    reached = set()

    @KERNEL
    @given(terms=st.lists(st.tuples(st.sampled_from(LOGS),
                                    st.integers(-5, 9), st.integers(1, 4)),
                          min_size=1, max_size=4),
           x_order=st.integers(0, 70),
           q_order=st.sampled_from([0, 1, 2, 3, 8, 12, 32]))
    def check(terms, x_order, q_order):
        got = theta.direction_series(terms, x_order, q_order)
        assert len(got) == x_order + 1
        assert _exact(got) == _exact(_naive_direction(terms, x_order,
                                                      q_order))
        # step h sums over its h terms as dot products when h > q_order,
        # and convolves each term in q otherwise
        steps = x_order // 2
        if steps > q_order:
            reached.add("dot products")
        if min(steps, q_order) >= 1:
            reached.add("convolutions")

    check()
    assert reached == {"dot products", "convolutions"}


def test_direction_coefficient_is_the_series_coefficient():
    # the A E split at the exponent's q^0 part gives the x^n coefficient
    # of the whole series exactly, for signed terms, terms that cancel,
    # odd n (zero) and odd q-orders
    reached = set()
    term = st.tuples(st.sampled_from(LOGS), st.integers(-7, 9),
                     st.integers(-5, 5).filter(bool))

    @KERNEL
    @given(terms=st.lists(term, max_size=4), cancel=st.lists(term, max_size=2),
           n=st.integers(0, 90), q_order=st.integers(0, 20))
    def check(terms, cancel, n, q_order):
        terms = terms + [t for kind, coef, m in cancel
                         for t in ((kind, coef, m), (kind, -coef, -m))]
        got = theta.direction_coefficient(terms, n, q_order)
        want = theta.direction_series(terms, n, q_order)[n]
        assert (got.num, got.den, got.order) == (want.num, want.den,
                                                 want.order)
        # E's steps take dot products past h = q_order and convolve below
        steps = n // 2
        reached.update(["odd n"] * (n % 2) + ["odd q"] * (q_order % 2)
                       + ["cancel"] * bool(cancel)
                       + ["nonzero"] * (not got.is_zero())
                       + ["dot products"] * (steps > q_order)
                       + ["convolutions"] * (min(steps, q_order) >= 1))

    check()
    assert reached == {"odd n", "odd q", "cancel", "nonzero", "dot products",
                       "convolutions"}


# explicit ids: an IntEnum member would be named by its value
@pytest.mark.parametrize("kind", LOGS, ids=lambda k: f"ThetaKind.{k.name}")
def test_den_bound_clears_every_logarithm(kind):
    # d_k (2k)! L_2k is integral, the bound the kernel's weights rest on,
    # and the int column N_k of `_log_columns` is that integer
    qo = 12
    cols = theta._log_columns(kind, 112, qo)
    assert len(cols) == 57 and cols[0] == (0,) * (qo + 1)
    for k in range(1, 57):
        ref = _log_reference(kind, k, qo)
        d = (_bernoulli_reference(2 * k) / (2 * k)).denominator
        cleared = ref * (d * math.factorial(2 * k))
        assert cleared.is_integral()
        assert cleared.num == list(cols[k])


def test_bernoulli_matches_defining_recurrence():
    for n in range(201):
        assert theta.bernoulli(n) == _bernoulli_reference(n), n


def test_bernoulli_builds_no_exponential_weight():
    # a lone B_398 once built the exponential's 20,100 weights beside
    # B_2k/2k, about 3 MB of ints, and took 136-166 ms from cold
    _clear_tables()
    try:
        assert theta.bernoulli(200) == _bernoulli_reference(200)
        theta.bernoulli(398)
        assert theta._tables.cache_info().currsize == 0
        assert theta._bernoulli_table.cache_info().currsize == 25
    finally:
        _clear_tables()


def test_bernoulli_values_and_domain():
    assert theta.bernoulli(0) == 1
    assert theta.bernoulli(1) == Fraction(-1, 2)
    assert theta.bernoulli(12) == Fraction(-691, 2730)
    assert all(theta.bernoulli(n) == 0 for n in range(3, 60, 2))
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"^n must be >= 0, got {n}$"):
            theta.bernoulli(n)
    # True was read as 1 (B_1 = -1/2), and 2.0 failed with an unrelated
    # TypeError
    for n in (True, False, 2.0, Fraction(4)):
        with pytest.raises(TypeError, match=re.escape(
                f"n must be an integer, got {n!r}")):
            theta.bernoulli(n)


BUILDERS = ["direction_series", "direction_coefficient"]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("x_order, q_order",
                         [(-1, 4), (0, -3), (-2, -2), (0, 4)])
def test_exponential_builders_refuse_negative_sizes(builder, x_order, q_order):
    # the first negative size is named; (0, 4) builds the constant 1
    def build():
        return getattr(theta, builder)([(K.THETA, 1, 1)], x_order, q_order)

    negative = [(name, value) for name, value in
                (("x_order", x_order), ("q_order", q_order)) if value < 0]
    if not negative:
        got = build()
        if builder == "direction_series":
            assert len(got) == 1
            got = got[0]
        assert got.is_one()
        return
    name, value = negative[0]
    with pytest.raises(ValueError,
                       match=f"^{name} must be >= 0, got {value}$"):
        build()


def test_factors_refuse_negative_x_order():
    for build in (lambda: theta.phi(-1, 2), lambda: theta.x_over_phi(-1, 2),
                  lambda: theta.direction_series([(K.THETA1, 1, 1)], -2, 2),
                  lambda: theta.psi_product(-1, 2)):
        with pytest.raises(ValueError):
            build()


def test_factors_and_eisenstein_refuse_bad_q_order_and_k():
    # these raised IndexError or ZeroDivisionError, or built a series of
    # order -1
    for build, q_order in ((lambda: theta.phi(4, -1), -1),
                           (lambda: theta.psi_product(2, -3), -3),
                           (lambda: theta.eisenstein_g(1, -1), -1)):
        with pytest.raises(ValueError,
                           match=f"^q_order must be >= 0, got {q_order}$"):
            build()
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            theta.eisenstein_g(k, 4)


def test_factors_refuse_orders_that_are_not_ints():
    # phi(4, True) built a factor of q-order 1
    for build in (lambda: theta.phi(4, True), lambda: theta.psi_product(4, 2.0),
                  lambda: theta.x_over_phi(4, 1.5)):
        with pytest.raises(TypeError, match="order must be an integer"):
            build()


@pytest.mark.parametrize("builder", BUILDERS)
def test_int_kinds_are_refused_with_warm_caches(builder):
    # ThetaKind is an IntEnum, so 0 == THETA and both are one key of the
    # cached log columns: the kinds are checked before any cache is read.
    # Psi_2 and Psi_3 have no logarithm: Psi_1Psi_2Psi_3 is built from
    # x/Phi by the duplication formula
    build = getattr(theta, builder)
    theta.x_over_phi(8, 4)
    build([(K.THETA1, 1, 1)], 8, 4)
    for kind in (0, 1, 2, 3, K.THETA2, K.THETA3):
        for terms in ([(kind, 1, 1)], [(K.THETA, 1, 1), (kind, 1, 2)]):
            with pytest.raises(ValueError, match="^no logarithm for"):
                build(terms, 8, 4)
    with pytest.raises(ValueError):
        theta.numeric_theta(0, 0.1, 1j)


def _clear_tables():
    theta._tables.cache_clear()
    theta._bernoulli_table.cache_clear()


def _spy_rows(monkeypatch):
    """The indices of the boustrophedon rows `_bernoulli_table` builds, in
    order (row n has n + 1 entries)."""
    built = []

    def accumulate(row, initial):
        out = list(itertools.accumulate(row, initial=initial))
        built.append(len(out) - 1)
        return out

    monkeypatch.setattr(theta, "itertools",
                        types.SimpleNamespace(accumulate=accumulate))
    return built


def test_exp_weights_compute_each_den_bound_once(monkeypatch):
    # the 16-step table chain builds each boustrophedon row, so each
    # tangent number and each B_2k/2k, once: a shorter table's entries are
    # the very objects of the longer one
    built = _spy_rows(monkeypatch)
    _clear_tables()
    try:
        (W, B), *shorter = [
            (theta._tables(x)[0], theta._bernoulli_table(x)[0])
            for x in (64, 48, 32, 16)]
    finally:
        _clear_tables()
    assert built == list(range(1, 65))
    for W_short, B_short in shorter:
        assert all(map(operator.is_, B_short, B))
        assert all(map(operator.is_, W_short, W))


def test_tables_grow_row_by_row(monkeypatch):
    # from cold, x-order 80 misses the cache at 16, 32, ..., 80; going on
    # to 96 is one more miss, which builds rows 81..96 from row 80 alone
    built = _spy_rows(monkeypatch)
    _clear_tables()
    try:
        W, (B, row) = theta._tables(80)[0], theta._bernoulli_table(80)
        assert theta._tables.cache_info().misses == 5
        assert theta._bernoulli_table.cache_info().misses == 5
        assert built == list(range(1, 81)) and len(row) == 81
        del built[:]
        W96, (B96, row) = theta._tables(96)[0], theta._bernoulli_table(96)
        assert theta._tables.cache_info().misses == 6
        assert theta._bernoulli_table.cache_info().misses == 6
    finally:
        _clear_tables()
    assert built == list(range(81, 97))
    assert len(B96) == len(W96) == 49 and len(row) == 97
    assert all(map(operator.is_, B, B96)) and all(map(operator.is_, W, W96))


def test_bernoulli_tables_match_fractions_and_the_lcm_recurrence():
    # B_2k/2k on ints against its Fraction form, and the weights against
    # delta_h = lcm_(k<=h) d_k delta_(h-k) and the binomials C(2h-1, 2k-1)
    # they are built from, to x-order 160
    H = 80
    B = theta._bernoulli_table(160)[0]
    d = [1]
    for k in range(1, H + 1):
        b = _bernoulli_reference(2 * k) / (2 * k)
        assert B[k] == (b.numerator, b.denominator)
        d.append(b.denominator)
    delta = [1]
    for h in range(1, H + 1):
        delta.append(math.lcm(*(d[k] * delta[h - k] for k in range(1, h + 1))))
    C = [()] + [tuple(math.comb(2 * h - 1, 2 * k - 1) for k in range(1, h + 1))
                for h in range(1, H + 1)]
    W = [()] + [tuple(C[h][k - 1] * delta[h] // (d[k] * delta[h - k])
                      for k in range(1, h + 1)) for h in range(1, H + 1)]
    den = tuple(delta[h] * math.factorial(2 * h) for h in range(H + 1))
    assert theta._tables(160) == (tuple(W), tuple(delta), den, tuple(C))
    # the log columns, B_2k/2k in their constant terms, against the
    # Fraction logarithms cleared by d_k (2k)!
    for kind in LOGS:
        cols = theta._log_columns(kind, 160, 4)
        for k in range(1, H + 1):
            cleared = _log_reference(kind, k, 4) * (
                d[k] * math.factorial(2 * k))
            assert cleared.is_integral() and cleared.num == list(cols[k])


def _cache_counts():
    info = genera._factor.cache_info()
    return info.hits, info.misses


def _one_factor(terms, x_order, q_order):
    """A one-factor genus's read of `genera._factor`: the x^x_order
    coefficient of the exponential of terms, keyed by `genera._merged`."""
    return genera._factor(theta.direction_coefficient, genera._merged(terms),
                          x_order, q_order)


def test_equal_exponents_share_one_cache_entry():
    # the same power sums sum coef * m^2k per kind: permuted, split, of
    # either sign of m, or padded with terms that cancel
    base = [(K.THETA, 3, 1), (K.THETA1, -1, 2), (K.THETA1, 2, 3)]
    variants = [
        base,
        base[::-1],
        [(K.THETA, 1, 1), (K.THETA1, -1, 2), (K.THETA, 2, 1),
         (K.THETA1, 5, 3), (K.THETA1, -3, 3)],
        [(K.THETA, 3, -1), (K.THETA1, -1, -2), (K.THETA1, 2, -3)],
        base + [(K.THETA, 4, 2), (K.THETA, -4, -2)],
    ]
    genera._factor.cache_clear()
    for x_order in (14, 16):
        ref = _exact(_naive_direction(base, x_order, 4)[x_order:])
        for terms in variants:
            assert _exact([_one_factor(terms, x_order, 4)]) == ref
    assert _cache_counts() == (2 * len(variants) - 2, 2)


def test_terms_that_cancel_share_the_empty_exponent():
    genera._factor.cache_clear()
    for terms in ([], [(K.THETA, 2, 1), (K.THETA, -2, -1)],
                  [(K.THETA1, 1, 3), (K.THETA1, -1, 3), (K.THETA, 0, 2)]):
        # exp(0) = 1: one at x^0, zero past it
        assert _one_factor(terms, 0, 6) == QSeries.one(6)
        assert _one_factor(terms, 8, 6).is_zero()
    assert _cache_counts() == (4, 2)


def _naive_index_factor(prefactors, products, p_order):
    """`genera._index_factor` by repeated multiplication over
    {(t-exponent, p-degree): int}: (1 + s p^j t^a)^N as N factors
    1 + s p^j t^a, or for N < 0 as -N geometric series
    sum_k (-s p^j t^a)^k."""
    def times(f, terms):
        g = {}
        for (v, i), x in f.items():
            for (a, k), c in terms.items():
                if i + k <= p_order:
                    g[v + a, i + k] = g.get((v + a, i + k), 0) + x * c
        return g

    f = {(0, 0): 1}
    for sigma, m in prefactors:
        f = times(f, {(m, 0): 1, (-m, 0): sigma})
    for (s, e), N in products:
        for j, a in itertools.product(range(1, p_order + 1), (e, -e)):
            step = ({(0, 0): 1, (a, j): s} if N > 0 else
                    {(k * a, k * j): (-s) ** k
                     for k in range(p_order // j + 1)})
            for _ in range(abs(N)):
                f = times(f, step)
    cols = {}
    for (v, i), x in f.items():
        cols.setdefault(v, [0] * (p_order + 1))[i] += x
    return tuple(sorted((v, tuple(c)) for v, c in cols.items() if any(c)))


def test_cache_hit_equals_fresh_build():
    # an index factor: two prefactors and three products, one of them
    # Psi_1's, exponents of either sign
    args = (((-1, 1), (1, 2)),
            (((-1, 2), -3), ((-1, 4), 1), ((1, 2), 2)), 3)
    genera._factor.cache_clear()
    miss = genera._factor(genera._index_factor, *args)
    hit = genera._factor(genera._index_factor, *args)
    assert _cache_counts() == (1, 1)
    genera._factor.cache_clear()
    again = genera._factor(genera._index_factor, *args)
    assert miss == hit == again == _naive_index_factor(*args)
    assert len(miss) > 10


def test_index_factor_at_a_longer_p_order():
    # p^0..p^8 with an axis's product exponent -9: binomial coefficients
    # and partial products wider than a machine word
    args = (((-1, 3),), (((-1, 2), -9), ((1, 4), 2)), 8)
    assert genera._index_factor(*args) == _naive_index_factor(*args)


@pytest.mark.parametrize("bits", [2, 3, 31, 64, 200])
def test_packed_columns_round_trip(bits):
    # every entry below 2^(bits-1) in size, the extremes included, reads
    # back from its packed int, and `_low` cuts off the higher digits
    rng = random.Random(bits)
    top = (1 << (bits - 1)) - 1
    for n in (1, 2, 9):
        for _ in range(30):
            col, high = ([rng.choice([-top, top, 0, rng.randint(-top, top)])
                          for _ in range(n)] for _ in range(2))
            v = genera._pack(col, bits)
            assert genera._unpack({0: v}, bits, n) == {0: col}
            longer = v + (genera._pack(high, bits) << bits * n)
            assert genera._low(longer, bits * n) == v
            assert genera._unpack({0: longer}, bits, n) == {0: col}


def test_two_factor_genus_leaves_cached_series_unchanged(monkeypatch):
    built, build = [], genera._index_factor

    def recording(*args):
        out = build(*args)
        built.append(out)
        return out

    monkeypatch.setattr(genera, "_index_factor", recording)
    genera._factor.cache_clear()
    g = GCIData([3, 2], [[1, 2]], C=[1, 0], q_order=8)
    first = genera.wc_genus(g).coeffs
    snapshot = list(built)
    # two axes, C merged into the first, (1, 2) and the p-only scalar
    assert len(snapshot) == 4
    # the same genus again reads every index factor from the cache, and a
    # second two-factor genus shares the second axis's, (1, 1)'s with
    # (1, 2)'s (one Phi row at a primitive form each) and the scalar
    assert genera.wc_genus(g).coeffs == first
    genera.witten_genus(GCIData([3, 2], [[1, 1]], q_order=8))
    assert _cache_counts() == (7, 5)
    assert built[:4] == snapshot
    assert genera.wc_genus(g, route="bundle").coeffs == first
