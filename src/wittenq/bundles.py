"""Characteristic factors built bundle-by-bundle.

The graded tensor bundles that enter the elliptic genera are built from
symmetric and exterior powers of line-bundle roots; at a Chern root x
(normalized so Chern classes carry no 2*pi*i) they contribute

    Lambda_t(L + L*):   (1 + t e^x)(1 + t e^-x)
    Sym_t(L + L*):      1 / ((1 - t e^x)(1 - t e^-x))

with t a monomial in q.  Assembling these and the A-hat-type square root
gives the per-root factors of the genera, truncated power series in x held as
one-generator NilPolys like the theta factors.  The same factors arise as
theta-function ratios; the two constructions are kept deliberately
separate so each can serve as an oracle for the other.
"""
from __future__ import annotations

from fractions import Fraction

from .nilring import NilPoly
from .qseries import QSeries, rat
from .theta import (_exp_factor, _one_pm_q, _x_series, cosh_half,
                    two_sinh_half)


def _lambda_pair(sign, q_exp, x_order, q_order):
    """(1 + sign*q^q_exp*e^x)(1 + sign*q^q_exp*e^-x) / (1 + sign*q^q_exp)^2."""
    num = (_exp_factor(sign, q_exp, 1, x_order, q_order)
           * _exp_factor(sign, q_exp, -1, x_order, q_order))
    den = _one_pm_q(sign, q_exp, q_order) ** 2
    return num * den.inv_unit()


def root_factor(x_order, q_order):
    """Per-root factor x / (2 sinh(x/2)) * prod_m 1 / Lambda-pair(-q^2m).

    The inverse pairs are Sym_{q^2m}(L + L*) normalized by its rank series;
    the whole thing equals x/Phi(x) but is assembled from the bundle side.
    """
    sinh_unit = _x_series(two_sinh_half(x_order + 1, q_order).coeffs[1:],
                          q_order)
    res = sinh_unit.inv_unit()
    for m in range(1, q_order // 2 + 1):
        res = res * _lambda_pair(-1, 2 * m, x_order, q_order).inv_unit()
    return res


def lfactor_4k(x_order, q_order):
    """Twist factor for real dimension 8k + 4: the three even theta ratios.

    cosh(x/2) * prod Lambda-pairs at +q^2m, -q^(2m-1), +q^(2m-1).
    """
    res = cosh_half(x_order, q_order)
    for m in range(1, q_order // 2 + 1):
        res = res * _lambda_pair(1, 2 * m, x_order, q_order)
    for m in range(1, (q_order + 1) // 2 + 1):
        res = res * _lambda_pair(-1, 2 * m - 1, x_order, q_order)
        res = res * _lambda_pair(1, 2 * m - 1, x_order, q_order)
    return res


def lfactor_4k2(x_order, q_order):
    """Twist factor for real dimension 8k + 2: sinh(x/2) * Sym-type pairs.

    Equals Phi(x)/2; the halving is the Jacobi triple-null cancellation.
    """
    res = two_sinh_half(x_order, q_order) * rat(Fraction(1, 2))
    for m in range(1, q_order // 2 + 1):
        res = res * _lambda_pair(-1, 2 * m, x_order, q_order)
    return res


# -- symmetric Laurent polynomials and the cancellation lemma ---------
#
# A symmetric Laurent polynomial in y is a polynomial in u = y + 1/y; it is
# held as a one-generator NilPoly in u whose cap is its full degree, so
# nothing is ever truncated.

def _shifted(p):
    """Re-express a polynomial in u in powers of w = u - 2 (Horner at u = w + 2).

    The shift feeds every u^k into all lower w-degrees, so the result
    keeps the cap, and with it every w-degree, of the input.
    """
    w_plus_2 = NilPoly(p.caps, p.q_order, {(0,): 2, (1,): 1})
    out = NilPoly.zero(p.caps, p.q_order)
    for c in reversed(p.coeffs):
        out = out * w_plus_2 + c
    return out


def _pair_product(sign, exps, q_order):
    """prod over e in exps of ((1 + sign*q^e*y)(1 + sign*q^e/y)) / (1 + sign*q^e)^2.

    Each pair equals 1 + q^(2e) + sign*q^e*u, a degree-1 polynomial in u.
    """
    caps = (len(exps),)
    res = NilPoly.one(caps, q_order)
    den = QSeries.one(q_order)
    for e in exps:
        const = QSeries.one(q_order) + QSeries.monomial(1, 2 * e, q_order)
        lin = QSeries.monomial(sign, e, q_order)
        res = res * NilPoly(caps, q_order, {(0,): const, (1,): lin})
        den = den * _one_pm_q(sign, e, q_order) ** 2
    return res * den.inv_unit()


def lemma42_report(q_order, flip_sign=False):
    """Cancellation lemma for the difference of the two even-index products.

    Let D(y, q) = prod (1 - q^2m y)(1 - q^2m/y)/(1 - q^2m)^2
                - prod (1 + q^2m y)(1 + q^2m/y)/(1 + q^2m)^2.

    In the shifted variable w = y + 1/y - 2 (which vanishes at y = 1),
    D must have zero constant term and all higher w-coefficients even
    integral q-series: D is twice an integral class built on (y-1)-type
    factors.  flip_sign=True is a negative control (replaces the second
    product's minus by plus so the cancellation fails).

    Returns a report dict; 'quotient_q2' is the q^2-coefficient of the
    w^1-part divided by 2, a small sanity value (-1 for the true lemma).
    """
    m_max = q_order // 2
    exps = [2 * m for m in range(1, m_max + 1)]
    first = _pair_product(-1, exps, q_order)
    second = _pair_product(1, exps, q_order)
    if flip_sign:
        second = -second
    diff = _shifted(first - second)
    const_zero = (0,) not in diff.terms
    half = rat(Fraction(1, 2))
    halves_integral = all((c * half).is_integral()
                          for e, c in diff.terms.items() if e[0])
    w1 = diff.terms.get((1,), QSeries.zero(q_order))
    quotient_q2 = w1.coefficient(2) / 2
    return {
        "q_order": q_order,
        "w_degree": max((e[0] for e in diff.terms), default=0),
        "const_zero": const_zero,
        "halves_integral": halves_integral,
        "quotient_q2": quotient_q2,
        "passed": const_zero and halves_integral,
    }


def lemma42_check(q_order, flip_sign=False):
    """True iff the difference is divisible by w with an even integral quotient.

    The computation is exact in w: after the u = w + 2 shift no degree can
    be discarded, so every w-coefficient is checked.
    """
    return lemma42_report(q_order, flip_sign=flip_sign)["passed"]
