"""Characteristic factors built bundle-by-bundle.

The graded tensor bundles that enter the elliptic genera are built from
symmetric and exterior powers of line-bundle roots.  Their characters are
products of normalized Lambda pairs, one per monomial t = +-q^e:

    Lambda_t(L + L*) / (1 + t)^2 = (1 + t y)(1 + t/y) / (1 + t)^2
                                 = 1 + t/(1 + t)^2 * w,   w = y + 1/y - 2,

and the Sym_t(L + L*) pairs are their inverses at -t.  Each pair is linear
in w, so a product of pairs is a polynomial in w (`_pairs`).  The
cancellation lemma works in w directly; at a Chern root x (normalized so
Chern classes carry no 2*pi*i) y = e^x and w = (2 sinh(x/2))^2, so the
per-root factors of the genera are those polynomials evaluated at w(x)
(`_at_w`) times an elementary sinh or cosh, truncated power series in x
held as one-generator NilPolys like the theta factors.  The same factors
arise as theta-function ratios, which `theta` builds as exponentials of
Eisenstein logarithms; this module keeps the product formulas, so each
construction serves as an oracle for the other.
"""
from __future__ import annotations

from fractions import Fraction

from .nilring import NilPoly
from .qseries import QSeries
from .theta import _one_pm_q, _x_series, cosh_half, two_sinh_half


def _terms(sign, first, q_order):
    """The pair monomials sign*q^e for e = first, first + 2, ... <= q_order."""
    return [(sign, e) for e in range(first, q_order + 1, 2)]


def _pairs(terms, cap, q_order):
    """prod over (sign, e) in terms of 1 + c*w, c = t/(1 + t)^2, t = sign*q^e.

    A one-generator NilPoly in w = y + 1/y - 2 with cap `cap`; a cap of
    len(terms) keeps every w-degree.
    """
    caps = (cap,)
    res = NilPoly.one(caps, q_order)
    for sign, e in terms:
        t = QSeries.monomial(sign, e, q_order)
        c = t * (_one_pm_q(sign, e, q_order) ** 2).inv_unit()
        res = res * NilPoly(caps, q_order, {(0,): 1, (1,): c})
    return res


def _at_w(p, x_order, q_order):
    """The w-polynomial p at w = (2 sinh(x/2))^2, truncated after x^x_order.

    w has x-valuation 2, so only w-degrees <= x_order // 2 matter and p
    needs no larger cap.
    """
    w = two_sinh_half(x_order, q_order) ** 2
    res = NilPoly.zero((x_order,), q_order)
    for c in reversed(p.coeffs):
        res = res * w + c
    return res


def root_factor(x_order, q_order):
    """Per-root factor x / (2 sinh(x/2)) * prod_m 1 / Lambda-pair(-q^2m).

    The inverse pairs are Sym_{q^2m}(L + L*) normalized by its rank series;
    the whole thing equals x/Phi(x) but is assembled from the bundle side.
    """
    sinh_unit = _x_series(two_sinh_half(x_order + 1, q_order).coeffs[1:],
                          q_order)
    pairs = _pairs(_terms(-1, 2, q_order), x_order // 2, q_order)
    return sinh_unit.inv_unit() * _at_w(pairs.inv_unit(), x_order, q_order)


def lfactor_4k(x_order, q_order):
    """Twist factor for real dimension 8k + 4: the three even theta ratios.

    cosh(x/2) * prod Lambda-pairs at +q^2m, -q^(2m-1), +q^(2m-1).
    """
    terms = (_terms(1, 2, q_order) + _terms(-1, 1, q_order)
             + _terms(1, 1, q_order))
    pairs = _pairs(terms, x_order // 2, q_order)
    return cosh_half(x_order, q_order) * _at_w(pairs, x_order, q_order)


def lfactor_4k2(x_order, q_order):
    """Twist factor for real dimension 8k + 2: sinh(x/2) * Sym-type pairs.

    Equals Phi(x)/2; the halving is the Jacobi triple-null cancellation.
    """
    pairs = _pairs(_terms(-1, 2, q_order), x_order // 2, q_order)
    return (two_sinh_half(x_order, q_order) * Fraction(1, 2)
            * _at_w(pairs, x_order, q_order))


def psi1_factor(x_order, q_order):
    """Psi_1 = cosh(x/2) * prod Lambda-pairs at +q^2m, from the bundle side."""
    pairs = _pairs(_terms(1, 2, q_order), x_order // 2, q_order)
    return cosh_half(x_order, q_order) * _at_w(pairs, x_order, q_order)


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

    Returns a report dict; 'quotient_q2' is the q^2-coefficient of the
    w^1-part divided by 2, a small sanity value (-1 for the true lemma).
    """
    cap = q_order // 2  # one w-degree per pair: nothing is truncated
    first = _pairs(_terms(-1, 2, q_order), cap, q_order)
    second = _pairs(_terms(1, 2, q_order), cap, q_order)
    if flip_sign:
        second = -second
    diff = first - second
    const_zero = (0,) not in diff.terms
    half = Fraction(1, 2)
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

    The computation is exact in w: every pair has w-degree 1 and the cap
    holds them all, so every w-coefficient is checked.
    """
    return lemma42_report(q_order, flip_sign=flip_sign)["passed"]
