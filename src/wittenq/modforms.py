"""Level-1 modular forms in the q-tilde expansion and a weight-graded fitter.

Genera live in the nome q = e^{pi i tau}; SL(2,Z) forms have period-1
Fourier series in q-tilde = e^{2 pi i tau} = q^2.  The fitter therefore
demands even q-support, reindexes, and solves exactly on the monomial
basis E4^a E6^b of weight 4a + 6b.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import theta
from .qseries import QSeries


def sigma(k, n):
    """Divisor power sum sigma_k(n); sigma_k(0) = 0 by convention here.

    The package's Eisenstein series come from `theta`'s log columns; this
    direct sum is kept as the independent oracle they are tested against.
    """
    if n <= 0:
        return 0
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k, order):
    """E_2, E_4 or E_6 as a QSeries in q-tilde to the given order.

    E_k is G_k / G_k(0), read on ints from `theta.eisenstein_g`(k/2) at
    twice the order: its even entries over its constant term.
    """
    if k not in (2, 4, 6):
        raise ValueError(f"unsupported Eisenstein weight {k}")
    num = theta.eisenstein_g(k // 2, 2 * order).num
    sign = 1 if num[0] > 0 else -1
    return QSeries._make([sign * c for c in num[::2]], abs(num[0]), order)


def lift(tilde, q_order):
    """Reindex a q-tilde series into q: q-tilde^j becomes q^(2j).

    The result is known to q^(2 * tilde.order + 1); a longer q_order, or
    a negative one, raises ValueError.
    """
    if not 0 <= q_order <= 2 * tilde.order + 1:
        raise ValueError(f"lift of a q-tilde series to order {tilde.order} "
                         f"needs 0 <= q_order <= {2 * tilde.order + 1}, "
                         f"got q_order={q_order}")
    num = [0] * (q_order + 1)
    num[::2] = tilde.num[:q_order // 2 + 1]
    return QSeries._make(num, tilde.den, q_order)


def restrict(series, tilde_order):
    """The inverse of `lift`: q^(2j) becomes q-tilde^j, up to
    q-tilde^tilde_order; odd powers of q are dropped.

    The result is known to q-tilde^(series.order // 2); a longer
    tilde_order, or a negative one, raises ValueError.
    """
    if not 0 <= tilde_order <= series.order // 2:
        raise ValueError(f"restrict of a q-series to order {series.order} "
                         f"needs 0 <= tilde_order <= {series.order // 2}, "
                         f"got tilde_order={tilde_order}")
    return QSeries._make(series.num[:2 * tilde_order + 1:2], series.den,
                         tilde_order)


def weight_basis(weight):
    """Exponent pairs (a, b) with 4a + 6b = weight, sorted by descending a."""
    if weight < 0 or weight % 2:
        raise ValueError("weight must be a nonnegative even integer")
    pairs = [(a, (weight - 4 * a) // 6)
             for a in range(weight // 4, -1, -1)
             if (weight - 4 * a) % 6 == 0]
    return pairs


@dataclass
class ModFormFit:
    weight: int
    basis: list            # (a, b) pairs
    solution: Optional[list]  # rationals aligned with basis, or None
    ok: bool
    failure_exponent: Optional[int] = None


def _solve_exact(rows, rhs):
    """Gaussian elimination over exact rationals for a square system."""
    m = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def fit(series: QSeries, weight):
    """Express an even-q-support series as an exact E4^a E6^b combination.

    Solves on the first dim M_weight coefficients, then verifies every
    remaining coefficient to truncation; any mismatch is a failure with
    the offending q-tilde exponent reported.
    """
    for k, c in enumerate(series.coeffs):
        if k % 2 and c:
            raise ValueError(f"odd q-exponent {k} present; not a level-1 form")
    n_tilde = series.order // 2
    target = restrict(series, n_tilde)
    basis = weight_basis(weight)
    if not basis:
        # the space is zero-dimensional; only the zero series fits
        bad = next((j for j in range(n_tilde + 1) if target.coefficient(j)),
                   None)
        return ModFormFit(weight, basis, [] if bad is None else None,
                          bad is None, bad)
    mats = [(eisenstein(4, n_tilde) ** a) * (eisenstein(6, n_tilde) ** b)
            for a, b in basis]
    m = len(basis)
    if n_tilde + 1 < m:
        raise ValueError("series too short to determine a fit at this weight")
    rows = [[mat.coefficient(j) for mat in mats] for j in range(m)]
    sol = _solve_exact(rows, [target.coefficient(j) for j in range(m)])
    if sol is None:
        return ModFormFit(weight, basis, None, False, None)
    for j in range(n_tilde + 1):
        fitted = sum(s * mat.coefficient(j) for s, mat in zip(sol, mats))
        if fitted != target.coefficient(j):
            return ModFormFit(weight, basis, None, False, j)
    return ModFormFit(weight, basis, sol, True)


# -- theta null values ------------------------------------------------

def _null_products(order):
    """The three even theta null values as q-series (theta_1 without its
    2q^(1/4) prefactor, which is reinstated as an exponent shift)."""
    eta_like = QSeries.one(order)   # prod (1 - q^2j)
    plus_even = QSeries.one(order)  # prod (1 + q^2j)^2
    minus_odd = QSeries.one(order)  # prod (1 - q^(2j-1))^2
    plus_odd = QSeries.one(order)   # prod (1 + q^(2j-1))^2
    for j in range(1, order // 2 + 2):
        eta_like = eta_like * (QSeries.one(order)
                               - QSeries.monomial(1, 2 * j, order))
        plus_even = plus_even * (QSeries.one(order)
                                 + QSeries.monomial(1, 2 * j, order)) ** 2
        minus_odd = minus_odd * (QSeries.one(order)
                                 - QSeries.monomial(1, 2 * j - 1, order)) ** 2
        plus_odd = plus_odd * (QSeries.one(order)
                               + QSeries.monomial(1, 2 * j - 1, order)) ** 2
    return eta_like * plus_even, eta_like * minus_odd, eta_like * plus_odd


def theta_constant_e4_check(order, exponent=8):
    """Verify (theta_1(0)^8 + theta_2(0)^8 + theta_3(0)^8)/2 = E4(q^2).

    Works in q to order 2*order and compares against E4 in q-tilde.
    exponent != 8 serves as a negative control (and for exponents not
    divisible by 4 the q^(1/4) prefactor is coarsened, which breaks the
    identity by construction, as a control should).
    """
    q_order = 2 * order
    t1, t2, t3 = _null_products(q_order)
    # (2 q^(1/4))^exponent: for exponent 8 this is the classical 256 q^2
    pref = QSeries.monomial(2 ** exponent, exponent // 4, q_order)
    total = (pref * t1 ** exponent + t2 ** exponent + t3 ** exponent) \
        * Fraction(1, 2)
    if not total.even_q_support():
        return False
    return restrict(total, order) == eisenstein(4, order)
