"""The integer exponential kernel of `theta.direction_series` and the
Bernoulli numbers it rests on, against test-local naive references.

The references are deliberately the slow definitions: the logarithms from
the divisor-sum formulas over Fractions, the exponential from the
rational recurrence n f_n = sum_j j L_j f_(n-j) accumulated in a QSum, and
the Bernoulli numbers from sum_(j<=n) C(n+1, j) B_j = 0.  The kernel must
equal them exactly, numerators and denominators.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittenq import theta
from wittenq.qseries import QSeries, QSum
from wittenq.theta import ThetaKind

K = ThetaKind
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
    """L_2k of `kind` over Fractions, from the formulas of log_coeffs."""
    c = [Fraction(0)] * (q_order + 1)
    b = _bernoulli_reference(2 * k) / (4 * k)
    if kind in (K.THETA, K.THETA1):
        c[0] = -b if kind == K.THETA else (4 ** k - 1) * b
        for N in range(1, q_order // 2 + 1):
            c[2 * N] = sum((-1) ** (m + 1 if kind == K.THETA1 else 0)
                           * m ** (2 * k - 1)
                           for m in range(1, N + 1) if N % m == 0)
    else:
        for N in range(1, q_order + 1):
            c[N] = sum((-1 if kind == K.THETA2 else (-1) ** (m + 1))
                       * m ** (2 * k - 1)
                       for m in range(1, N + 1) if N % m == 0 and N // m % 2)
    return QSeries([x * Fraction(2, math.factorial(2 * k)) for x in c],
                   q_order)


def _naive_direction(terms, r, x_order, q_order):
    """The rational QSum recurrence the integer kernel replaced."""
    zero = QSeries.zero(q_order)
    logs, f = {}, [QSeries.one(q_order)]
    for n in range(1, x_order - r + 1):
        if n % 2:
            f.append(zero)
            continue
        acc = QSum(q_order)
        for kind, coef, m in terms:
            acc.add(_log_reference(kind, n // 2, q_order), coef * m ** n)
        logs[n] = acc.series()
        acc = QSum(q_order)
        for j in range(2, n + 1, 2):
            acc.add_product(logs[j], f[n - j], j)
        f.append(acc.series(n))
    return ([zero] * r + f)[:x_order + 1]


def _exact(series_list):
    return [(c.num, c.den) for c in series_list]


def test_direction_series_matches_naive_recurrence():
    reached = set()

    @KERNEL
    @given(terms=st.lists(st.tuples(st.sampled_from(list(K)),
                                    st.integers(-5, 9), st.integers(1, 4)),
                          min_size=1, max_size=4),
           r=st.integers(0, 3), x_order=st.integers(0, 70),
           q_order=st.sampled_from([0, 1, 2, 3, 8, 12, 32]))
    def check(terms, r, x_order, q_order):
        got = theta.direction_series(terms, r, x_order, q_order)
        assert len(got) == x_order + 1
        assert _exact(got) == _exact(_naive_direction(terms, r, x_order,
                                                      q_order))
        # step h sums over its h terms as dot products when h > q_order,
        # and convolves each term in q otherwise
        steps = max(x_order - r, 0) // 2
        if steps > q_order:
            reached.add("dot products")
        if min(steps, q_order) >= 1:
            reached.add("convolutions")

    check()
    assert reached == {"dot products", "convolutions"}


@pytest.mark.parametrize("kind", list(K))
def test_den_bound_clears_every_logarithm(kind):
    # d_k (2k)! L_2k is integral, the bound the kernel's weights rest on
    qo = 12
    logs = theta.log_coeffs(kind, 112, qo)
    for k in range(1, 57):
        ref = _log_reference(kind, k, qo)
        assert logs[2 * k] == ref
        d = (_bernoulli_reference(2 * k) / (2 * k)).denominator
        assert (ref * (d * math.factorial(2 * k))).is_integral()


def test_bernoulli_matches_defining_recurrence():
    for n in range(201):
        assert theta.bernoulli(n) == _bernoulli_reference(n), n


def test_bernoulli_values_and_domain():
    assert theta.bernoulli(0) == 1
    assert theta.bernoulli(1) == Fraction(-1, 2)
    assert theta.bernoulli(12) == Fraction(-691, 2730)
    assert all(theta.bernoulli(n) == 0 for n in range(3, 60, 2))
    for n in (-1, -2):
        with pytest.raises(ValueError):
            theta.bernoulli(n)
