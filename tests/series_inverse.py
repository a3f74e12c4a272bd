"""Inverses of unit series, for the tests' oracles.

The package never inverts a series: its genera are top coefficients of
products.  Some oracles state a factor as it reads, as a quotient
(t/(1 + t)^2, x/(2 sinh(x/2)), an inverse Lambda-pair product), and take
the inverse from here.
"""
import itertools
import operator
from fractions import Fraction

from nilpoly_ring import poly, terms
from wittenq.qseries import QSeries


def inv_series(a):
    """1/a for a QSeries a with a nonzero constant term.

    With a = A/d, the integers B_k = A_0^(k+1) * [q^k] 1/A satisfy
    B_0 = 1 and B_k = -sum_(j=1..k) A_j A_0^(j-1) B_(k-j), so
    1/a = d * B_k * A_0^(n-k) / A_0^(n+1) over n = order.
    """
    A = a.num
    a0 = A[0]
    if not a0:
        raise ValueError("no inverse: the constant term is zero")
    n = a.order
    scaled = [0] + [A[j] * a0 ** (j - 1) for j in range(1, n + 1)]
    B = [1]
    for k in range(1, n + 1):
        B.append(-sum(scaled[j] * B[k - j] for j in range(1, k + 1)
                      if scaled[j]))
    den = a0 ** (n + 1)
    return QSeries([Fraction(a.den * B[k] * a0 ** (n - k), den)
                    for k in range(n + 1)], n)


def inv_poly(p):
    """1/p for a NilPoly p whose constant term is a unit series.

    b_0 = a_0^-1 and b_E = -a_0^-1 * sum_(0 < e <= E) a_e * b_(E-e), with
    E running over the cap grid in lexicographic order, so every b_(E-e)
    is known when b_E is formed.
    """
    caps, qo = p.caps, p.q_order
    zero = (0,) * len(caps)
    inv0 = inv_series(terms(p).get(zero, QSeries.zero(qo)))
    rest = [(e, c) for e, c in terms(p).items() if e != zero]
    out = {zero: inv0}
    for E in itertools.product(*[range(c + 1) for c in caps]):
        acc = QSeries.zero(qo)
        for e, a in rest:
            if all(map(operator.le, e, E)):
                b = out.get(tuple(map(operator.sub, E, e)))
                if b is not None:
                    acc = acc + a * b
        if not acc.is_zero():
            out[E] = -(acc * inv0)
    return poly(caps, qo, out)
