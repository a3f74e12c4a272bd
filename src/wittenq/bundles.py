"""Characteristic factors built bundle-by-bundle.

The graded tensor bundles that enter the elliptic genera are built from
symmetric and exterior powers of line-bundle roots.  Their characters are
products of normalized Lambda pairs, one per monomial t = +-q^e:

    Lambda_t(L + L*) / (1 + t)^2 = (1 + t y)(1 + t/y) / (1 + t)^2
                                 = 1 + c w,   w = y + 1/y - 2,

with the integral coefficient c = t/(1 + t)^2 = sum_k (-1)^(k-1) k t^k;
the Sym_t(L + L*) pairs are their inverses at -t.  So a product of pairs
is a polynomial in w with int q-columns (`_pair_columns`), which the
cancellation lemma checks directly.  At a Chern root x (normalized so
Chern classes carry no 2*pi*i) y = e^x and w = (2 sinh(x/2))^2, so the
per-root factors of the genera are those polynomials at w(x) times an
elementary sinh or cosh, truncated power series in x returned like the
theta factors as the tuple of their QSeries coefficients by x-degree (an
`XSeries`); an integer table of n! [x^n] w^d times sinh, cosh or x/sinh
(`_weights`) makes each x-coefficient one int dot product per q-degree.
The same factors arise as theta-function ratios, which `theta` builds as
exponentials of Eisenstein logarithms; this module keeps the product
formulas, so each construction serves as an oracle for the other.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .qseries import QSeries, XSeries, _check_int
from .theta import _granular


def _terms(sign, first, q_order):
    """The pair monomials sign*q^e for e = first, first + 2, ... <= q_order."""
    return [(sign, e) for e in range(first, q_order + 1, 2)]


def _pair_columns(terms, cap, q_order, inverse=False):
    """The int q-columns by w-degree 0..cap of prod (1 + c w), c = t/(1 + t)^2
    over t = sign*q^e for (sign, e) in terms, or of its inverse.

    The product is res[d] += c res[d-1], top degree down, and the inverse
    res[d] -= c res[d-1], bottom up.  A column times c is the column
    shifted by t and divided by (1 + t)^2 = 1 + 2t + q^2e.
    """
    n = q_order + 1
    res = [[1] + [0] * q_order] + [[0] * n for _ in range(cap)]
    op = operator.sub if inverse else operator.add
    for k, (sign, e) in enumerate(terms, 1):
        s2 = 2 * sign
        for d in range(1, cap + 1) if inverse else range(min(k, cap), 0, -1):
            # the first q-degree of the shifted column, past leading zeros
            f = e + next((i for i, a in enumerate(res[d - 1]) if a), n)
            if f >= n:
                continue
            v = [0] * f + [sign * a for a in res[d - 1][f - e:n - e]]
            for i in range(f + e, n):
                v[i] -= s2 * v[i - e] + v[i - 2 * e]
            res[d] = list(map(op, res[d], v))
    return res


@functools.lru_cache(maxsize=None)
def _weights(x_order):
    """{kind: ((row, den) by x-degree n = 0..x_order)}, [x^n] of
    prefactor * w^d being row[d] / den for d <= n / 2.

    With M(m, n) = 2^n n! [x^n] (2 sinh(x/2))^m, an integer, and
    den = 2^(n+1) n!, the rows are
        "sinh"  sinh(x/2) w^d             M(2d+1, n)
        "cosh"  cosh(x/2) w^d             M(2d+1, n+1) / (2d+1)
        "root"  x / (2 sinh(x/2)) w^d     4n M(2d-1, n-1), d >= 1
    as cosh(x/2) is the derivative of s = 2 sinh(x/2) and x/s w^d =
    x s^(2d-1), so every row reads M at an odd m, where only odd n
    are nonzero.  From (s^m)'' = m(m-1) s^(m-2) + m^2/4 s^m, M(m, n+2) =
    m^2 M(m, n) + 4m(m-1) M(m-2, n), starting at M(1, 1) = 2.  The
    root's d = 0 entry is [x^n] x/s, by inverting s/x, over its own den.
    """
    X = x_order + 1
    M = [[0] * (X + 1) for _ in range(X + 1)]
    M[1][1] = 2
    for n in range(3, X + 1, 2):
        for m in range(1, n + 1, 2):
            # at m = 1 the factor m - 1 = 0 drops the row M[-1]
            M[m][n] = m * m * M[m][n - 2] + 4 * m * (m - 1) * M[m - 2][n - 2]
    inv = [Fraction(1)]  # x / s by x-degree
    for n in range(1, X):
        inv.append(-sum((inv[n - k] / (2 ** k * math.factorial(k + 1))
                         for k in range(2, n + 1, 2)), Fraction(0)))
    tables = {"sinh": [], "cosh": [], "root": []}
    for n in range(X):
        den, ds = 2 ** (n + 1) * math.factorial(n), range(n // 2 + 1)
        tables["sinh"].append(([M[2 * d + 1][n] for d in ds], den))
        tables["cosh"].append(
            ([M[2 * d + 1][n + 1] // (2 * d + 1) for d in ds], den))
        r = math.lcm(den, inv[n].denominator)
        tables["root"].append(
            ([inv[n].numerator * (r // inv[n].denominator)]
             + [4 * n * M[2 * d - 1][n - 1] * (r // den) for d in ds[1:]], r))
    return tables


def _build(kind, pairs, x_order, q_order, inverse=False):
    """prefactor(kind) * sum_d cols[d] * w^d at w = (2 sinh(x/2))^2, to
    x^x_order, each coefficient reduced once; cols are the int q-columns
    of the product of the pairs at `_terms`(sign, first) for each
    (sign, first) in pairs, or of its inverse (`_pair_columns`)."""
    _check_int(x_order, "x_order")
    _check_int(q_order, "q_order")
    terms = [t for sign, first in pairs for t in _terms(sign, first, q_order)]
    by_q = list(zip(*_pair_columns(terms, x_order // 2, q_order, inverse)))
    zero, mul = QSeries.zero(q_order), operator.mul
    return XSeries(
        QSeries._make([sum(map(mul, row, v)) for v in by_q], d, q_order)
        if any(row) else zero
        for row, d in _weights(_granular(x_order))[kind][:x_order + 1])


def root_factor(x_order, q_order):
    """Per-root factor x / (2 sinh(x/2)) * prod_m 1 / Lambda-pair(-q^2m).

    The inverse pairs are Sym_{q^2m}(L + L*) normalized by its rank series;
    the whole thing equals x/Phi(x) but is assembled from the bundle side.
    """
    return _build("root", [(-1, 2)], x_order, q_order, inverse=True)


def lfactor_4k(x_order, q_order):
    """Twist factor for real dimension 8k + 4: the three even theta ratios.

    cosh(x/2) * prod Lambda-pairs at +q^2m, -q^(2m-1), +q^(2m-1).
    """
    return _build("cosh", [(1, 2), (-1, 1), (1, 1)], x_order, q_order)


def lfactor_4k2(x_order, q_order):
    """Twist factor for real dimension 8k + 2: sinh(x/2) * Sym-type pairs.

    Equals Phi(x)/2; the halving is the Jacobi triple-null cancellation.
    """
    return _build("sinh", [(-1, 2)], x_order, q_order)


def psi1_factor(x_order, q_order):
    """Psi_1 = cosh(x/2) * prod Lambda-pairs at +q^2m, from the bundle side."""
    return _build("cosh", [(1, 2)], x_order, q_order)


# -- the cancellation lemma -------------------------------------------

def lemma42_report(q_order, flip_sign=False):
    """Cancellation lemma for the difference of the two even-index products.

    Let D(y, q) = prod (1 - q^2m y)(1 - q^2m/y)/(1 - q^2m)^2
                - prod (1 + q^2m y)(1 + q^2m/y)/(1 + q^2m)^2.

    In the variable w = y + 1/y - 2 (which vanishes at y = 1), D must
    have zero constant term and all higher w-coefficients even integral
    q-series: D is twice an integral class built on (y-1)-type factors.
    flip_sign=True is a negative control (replaces the second product's
    minus by plus so the cancellation fails).

    Returns a report dict; 'passed' is True iff D is divisible by w with
    an even integral quotient, and 'quotient_q2' is the q^2-coefficient of
    the w^1-part divided by 2, a small sanity value (-1 for the true lemma).
    """
    _check_int(q_order, "q_order")
    cap = q_order // 2  # one w-degree per pair: nothing is truncated
    first = _pair_columns(_terms(-1, 2, q_order), cap, q_order)
    second = _pair_columns(_terms(1, 2, q_order), cap, q_order)
    op = operator.add if flip_sign else operator.sub
    diff = [list(map(op, a, b)) for a, b in zip(first, second)]
    const_zero = not any(diff[0])
    halves_integral = all(a % 2 == 0 for col in diff[1:] for a in col)
    return {
        "q_order": q_order,
        "w_degree": max((d for d, col in enumerate(diff) if any(col)),
                        default=0),
        "const_zero": const_zero,
        "halves_integral": halves_integral,
        # cap >= 1 exactly when q_order >= 2
        "quotient_q2": Fraction(diff[1][2] if cap else 0, 2),
        "passed": const_zero and halves_integral,
    }
