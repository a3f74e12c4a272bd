"""Ring operations on NilPoly, for the tests' inputs and oracles.

The package builds a NilPoly only in its residue kernels, and a NilPoly
has no ring operation.  The tests build their inputs and naive oracles
here, over `NilPoly._make`: `terms` is the QSeries view of a poly and
`mul` the general product.
"""
import math
import operator

from wittenq.nilring import NilPoly
from wittenq.qseries import QSeries, conv_add


def _over_one_den(series):
    """The int numerator lists of QSeries over their lcm denominator, and
    that denominator."""
    den = math.lcm(*(c.den for c in series))
    return [[x * (den // c.den) for x in c.num] for c in series], den


def _check(a, b):
    """Refuse two polys on different cap grids or at different q-orders."""
    if (a.caps, a.q_order) != (b.caps, b.q_order):
        raise ValueError(f"caps or q-order differ: {a.caps} at {a.q_order} "
                         f"vs {b.caps} at {b.q_order}")


def terms(p):
    """The QSeries coefficient of each monomial, in a new dict."""
    return {e: QSeries._make(num, p.den, p.q_order)
            for e, num in p.cells.items()}


def mul(first, second):
    """The product of two NilPolys, monomials over a cap dropped."""
    caps, qo = first.caps, first.q_order
    _check(first, second)
    add, le = operator.add, operator.le
    # each monomial over its own reduced denominator, as the QSeries
    # of `terms`: over the one common denominator the numerators are
    # larger, and the products slower.  One flat list per monomial: a
    # live tuple per kept pair (10^5 on the five-direction tail) made
    # the cyclic gc run 8x as often
    groups = {}
    b_terms = terms(second).items()
    for ea, ca in terms(first).items():
        for eb, cb in b_terms:
            e = tuple(map(add, ea, eb))
            if all(map(le, e, caps)):
                group = groups.get(e)
                if group is None:
                    groups[e] = [ca, cb]
                else:
                    group += ca, cb
    out = {}
    for e, group in groups.items():
        fa, fb = group[::2], group[1::2]
        dens = [a.den * b.den for a, b in zip(fa, fb)]
        den = math.lcm(*dens)
        num = [0] * (qo + 1)
        for a, b, d in zip(fa, fb, dens):
            s = den // d
            conv_add(num, a.num if s == 1 else [s * x for x in a.num],
                     b.num)
        out[e] = QSeries._make(num, den, qo)
    nums, den = _over_one_den(out.values())
    return NilPoly._make(caps, qo, dict(zip(out, nums)), den)


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
    _check(a, b)
    out = terms(a)
    for e, c in terms(b).items():
        out[e] = out[e] + c if e in out else c
    return poly(a.caps, a.q_order, out)


def scale(p, c):
    """p times a rational or a QSeries."""
    return poly(p.caps, p.q_order, {e: t * c for e, t in terms(p).items()})


def horner(coeffs, x):
    """sum_k coeffs[k] * x^k for rational or QSeries coeffs."""
    out, zero = poly(x.caps, x.q_order), (0,) * len(x.caps)
    for c in reversed(coeffs):
        out = add(mul(out, x), poly(x.caps, x.q_order, {zero: c}))
    return out


def at_form(f, d, caps, q_order):
    """f(sum_b d_b x_b) by Horner's rule in the ring."""
    ell = poly(caps, q_order, {_unit(b, 1, len(caps)): db
                               for b, db in enumerate(d)})
    return horner(f[:sum(caps) + 1], ell)


def power(p, k):
    """p ** k for k >= 0, by repeated squaring."""
    out = one(p.caps, p.q_order)
    while k:
        if k & 1:
            out = mul(out, p)
        k >>= 1
        if k:
            p = mul(p, p)
    return out


def coeffs(p):
    """The QSeries coefficients by x-degree of a one-generator poly."""
    cells, zero = terms(p), QSeries.zero(p.q_order)
    return [cells.get((k,), zero) for k in range(p.caps[0] + 1)]


def top_coeff(p):
    """The coefficient of x_1^cap_1 * ... * x_s^cap_s."""
    return terms(p).get(p.caps, QSeries.zero(p.q_order))
