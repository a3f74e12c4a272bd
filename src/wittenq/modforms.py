"""Level-1 modular forms in the q-tilde expansion and a weight-graded fitter.

Genera live in the nome q = e^{pi i tau}; SL(2,Z) forms have period-1
Fourier series in q-tilde = e^{2 pi i tau} = q^2.  The fitter therefore
demands even q-support, reindexes, and solves exactly on the monomial
basis E4^a E6^b of weight 4a + 6b.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import theta
from .qseries import QSeries, _check_int, q_product


def sigma(k, n):
    """Divisor power sum sigma_k(n) for ints k >= 0 and n; 0 for n <= 0
    by convention here.

    The package's Eisenstein series come from `theta`'s log columns; this
    direct sum is kept as the independent oracle they are tested against.
    """
    _check_int(k, "k")
    _check_int(n, "n", None)
    if n <= 0:
        return 0
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k, order):
    """E_2, E_4 or E_6 as a QSeries in q-tilde to the given order.

    E_k is G_k / G_k(0), read on ints from `theta.eisenstein_g`(k/2) at
    twice the order: its even entries over its constant term.
    """
    _check_int(k, "k")
    if k not in (2, 4, 6):
        raise ValueError(f"unsupported Eisenstein weight {k}")
    _check_int(order)
    num = theta.eisenstein_g(k // 2, 2 * order).num
    sign = 1 if num[0] > 0 else -1
    return QSeries._make([sign * c for c in num[::2]], abs(num[0]), order)


def lift(tilde, q_order):
    """Reindex a q-tilde series into q: q-tilde^j becomes q^(2j).

    The result is known to q^(2 * tilde.order + 1); a longer q_order, or
    a negative one, raises ValueError.
    """
    _check_int(q_order, "q_order", None)
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
    _check_int(tilde_order, "tilde_order", None)
    if not 0 <= tilde_order <= series.order // 2:
        raise ValueError(f"restrict of a q-series to order {series.order} "
                         f"needs 0 <= tilde_order <= {series.order // 2}, "
                         f"got tilde_order={tilde_order}")
    return QSeries._make(series.num[:2 * tilde_order + 1:2], series.den,
                         tilde_order)


def weight_basis(weight):
    """Exponent pairs (a, b) with 4a + 6b = weight, sorted by descending a."""
    _check_int(weight, "weight")
    if weight % 2:
        raise ValueError(f"weight must be even, got {weight}")
    pairs = [(a, (weight - 4 * a) // 6)
             for a in range(weight // 4, -1, -1)
             if (weight - 4 * a) % 6 == 0]
    return pairs


@functools.lru_cache(maxsize=256, typed=True)
def monomial(a, b, order):
    """E4^a E6^b in q-tilde to the given order: one product of the cached
    monomial one E6 (or, at b = 0, one E4) shorter and that factor, so the
    fits share one table of the basis forms.  A negative a, b or order
    raises ValueError, one that is not a plain int TypeError (the cache
    is typed, so True is not a hit for 1)."""
    _check_int(a, "a")
    _check_int(b, "b")
    _check_int(order)
    if b:
        return monomial(a, b - 1, order) * eisenstein(6, order)
    if a:
        return monomial(a - 1, 0, order) * eisenstein(4, order)
    return QSeries.one(order)


@dataclass
class ModFormFit:
    weight: int
    basis: list            # (a, b) pairs
    solution: Optional[list]  # rationals aligned with basis, or None
    ok: bool
    failure_exponent: Optional[int] = None


def _solve_exact(rows, rhs):
    """Gaussian elimination over exact rationals, the system nonsingular."""
    m = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col])
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

    Solves on the first dim M_weight coefficients over the `monomial`
    basis (a nonsingular system: by the valence formula no nonzero form
    of the weight vanishes at infinity to order dim M_weight), then
    verifies every coefficient to truncation on ints: with the solution
    p_i / r over one denominator r and L the lcm of the series'
    and the basis forms' denominators, the q-tilde^j coefficient checks
    sum_i p_i (L / den_i) N_i[j] == r (L / den_T) T[j].  Any mismatch is a
    failure with the first offending q-tilde exponent reported.  At
    weight 2 the basis is empty, so only the zero series fits.
    """
    odd = next((k for k in range(1, series.order + 1, 2) if series.num[k]),
               None)
    if odd is not None:
        raise ValueError(f"odd q-exponent {odd} present; not a level-1 form")
    n_tilde = series.order // 2
    target = restrict(series, n_tilde)
    basis = weight_basis(weight)
    mats = [monomial(a, b, n_tilde) for a, b in basis]
    m = len(basis)
    if n_tilde + 1 < m:
        raise ValueError("series too short to determine a fit at this weight")
    rows = [[mat.coefficient(j) for mat in mats] for j in range(m)]
    sol = _solve_exact(rows, [target.coefficient(j) for j in range(m)])
    r = math.lcm(*(s.denominator for s in sol))
    L = math.lcm(target.den, *(mat.den for mat in mats))
    terms = [(s.numerator * (r // s.denominator) * (L // mat.den), mat.num)
             for s, mat in zip(sol, mats)]
    scale = r * (L // target.den)
    for j, t in enumerate(target.num):
        if sum(p * col[j] for p, col in terms) != scale * t:
            return ModFormFit(weight, basis, None, False, j)
    return ModFormFit(weight, basis, sol, True)


# -- theta null values ------------------------------------------------

def _null_products(order):
    """The three even theta null values as q-series (theta_1 without its
    2q^(1/4) prefactor, which is reinstated as an exponent shift)."""
    js = range(1, order // 2 + 2)
    eta_like = [(-1, 2 * j) for j in js]  # prod (1 - q^2j)
    # times prod (1 + q^2j)^2, (1 - q^(2j-1))^2 and (1 + q^(2j-1))^2
    return tuple(q_product(eta_like + 2 * [(sign, 2 * j - odd) for j in js],
                           order)
                 for sign, odd in ((1, 0), (-1, 1), (1, 1)))


def theta_constant_e4_check(order):
    """Verify (theta_1(0)^8 + theta_2(0)^8 + theta_3(0)^8)/2 = E4(q^2).

    Works in q to order 2*order and compares against E4 in q-tilde.  A
    negative order raises ValueError.
    """
    _check_int(order)
    q_order = 2 * order
    t1, t2, t3 = _null_products(q_order)
    # (2 q^(1/4))^8 = 256 q^2
    total = (QSeries.monomial(256, 2, q_order) * t1 ** 8 + t2 ** 8 + t3 ** 8) \
        * Fraction(1, 2)
    if not total.even_q_support():
        return False
    return restrict(total, order) == eisenstein(4, order)
