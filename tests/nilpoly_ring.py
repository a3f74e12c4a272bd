"""Ring operations on NilPoly, for the tests' inputs and oracles.

The package builds a NilPoly only in its residue kernels, and its one ring
operation is the general product.  The tests build their inputs and naive
oracles here, over `NilPoly._make` and the QSeries view `terms`.
"""
import operator

from wittenq import qseries
from wittenq.nilring import NilPoly, _over_one_den
from wittenq.qseries import QSeries


def poly(caps, q_order, terms=()):
    """The NilPoly of {exponent tuple: QSeries or rational}; a monomial
    over a cap is dropped."""
    caps, series = tuple(caps), {}
    for e, c in dict(terms).items():
        if all(map(operator.le, e, caps)):
            series[e] = (c if isinstance(c, QSeries)
                         else QSeries.constant(c, q_order))
    nums, den = _over_one_den(series.values())
    return NilPoly._make(caps, q_order, dict(zip(series, nums)), den)


def _unit(b, k, s):
    return tuple(k if c == b else 0 for c in range(s))


def one(caps, q_order):
    return poly(caps, q_order, {(0,) * len(caps): 1})


def from_univariate(coeffs, index, caps, q_order):
    """sum_k coeffs[k] * x_index^k, coeffs a series in x by x-degree."""
    return poly(caps, q_order, {_unit(index, k, len(caps)): c
                                for k, c in enumerate(coeffs)})


def add(a, b):
    a._check(b)
    terms = a.terms
    for e, c in b.terms.items():
        terms[e] = terms[e] + c if e in terms else c
    return poly(a.caps, a.q_order, terms)


def scale(p, c):
    """p times a rational or a QSeries."""
    return poly(p.caps, p.q_order, {e: t * c for e, t in p.terms.items()})


def horner(coeffs, x):
    """sum_k coeffs[k] * x^k for rational or QSeries coeffs."""
    out, zero = poly(x.caps, x.q_order), (0,) * len(x.caps)
    for c in reversed(coeffs):
        out = add(out * x, poly(x.caps, x.q_order, {zero: c}))
    return out


def at_form(f, d, caps, q_order):
    """f(sum_b d_b x_b) by Horner's rule in the ring."""
    ell = poly(caps, q_order, {_unit(b, 1, len(caps)): db
                               for b, db in enumerate(d)})
    return horner(f[:sum(caps) + 1], ell)


def power(p, k):
    return qseries.power(p, k, one(p.caps, p.q_order))


def coeffs(p):
    """The QSeries coefficients by x-degree of a one-generator poly."""
    terms, zero = p.terms, QSeries.zero(p.q_order)
    return [terms.get((k,), zero) for k in range(p.caps[0] + 1)]


def top_coeff(p):
    """The coefficient of x_1^cap_1 * ... * x_s^cap_s."""
    return p.terms.get(p.caps, QSeries.zero(p.q_order))
