"""Multivariate polynomials over QSeries with nilpotent generators.

Models the truncated cohomology ring of a product of projective spaces:
generators x_1..x_s with x_b^(cap_b + 1) = 0, scalars in Q[[q]] truncated
at a common q-order.  Monomials that overflow a cap are silently dropped.
The theta and bundle factors are not NilPolys: each is a tuple of its
QSeries coefficients by x-degree (`qseries.XSeries`), which the kernels
below read directly; `from_univariate` makes one a one-generator NilPoly
with cap N, a power series in x truncated after x^N, where a ring
operation is needed (the root powers (x/Phi)^(n+1) in H*(CP^n)).

The general product, top_product and inv_unit accumulate each monomial
in a `qseries.QSum`: int numerators over one denominator, reduced once.

A series f evaluated at a linear form ell = sum d_b x_b has the separable
coefficient structure f(ell)[e] = weight(e) * f_{|e|} with integer
weights.  rank_pair_mul builds a product f_a(ell_a) * f_b(ell_b) of two
such polynomials from the integer coefficients of ell_a^i * ell_b^j on
the cap grid, one recurrence that peels off one linear factor per step,
and one table of series products per total degree, which is far cheaper
than termwise ring multiplication; subst_linear is its case f_b = 1,
ell_b = 0.  mul_univariate multiplies by a series in one generator.
Both put their terms over one denominator once (mul_univariate per
operand, rank_pair_mul per total degree) and run their inner sums as int
dot products, so every output monomial costs one reduction.
"""
from __future__ import annotations

import itertools
import math
import operator

from .errors import (CapsMismatchError, InsufficientDegreeError,
                     NonUnitError, OrderMismatchError)
from .qseries import QSeries, QSum, _check_order, power, rat


class NilPoly:
    """terms: dict mapping exponent tuples (e_1..e_s), e_b <= cap_b, to QSeries."""

    __slots__ = ("caps", "q_order", "terms")

    def __init__(self, caps, q_order, terms=None):
        _check_order(q_order)
        self.caps = tuple(caps)
        self.q_order = q_order
        self.terms = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != len(self.caps):
                    raise ValueError("exponent tuple arity mismatch")
                if any(x > cap for x, cap in zip(e, self.caps)):
                    continue
                if not isinstance(c, QSeries):
                    c = QSeries.constant(c, q_order)
                if c.order != q_order:
                    raise OrderMismatchError("coefficient q-order mismatch")
                if not c.is_zero():
                    self.terms[e] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, caps, q_order):
        return cls(caps, q_order)

    @classmethod
    def constant(cls, caps, value, q_order=None):
        if isinstance(value, QSeries):
            q_order = value.order
        else:
            value = QSeries.constant(value, q_order)
        zero_exp = (0,) * len(tuple(caps))
        return cls(caps, q_order, {zero_exp: value})

    @classmethod
    def one(cls, caps, q_order):
        return cls.constant(caps, 1, q_order)

    @classmethod
    def generator(cls, caps, index, q_order):
        e = [0] * len(tuple(caps))
        e[index] = 1
        return cls(caps, q_order, {tuple(e): QSeries.one(q_order)})

    @classmethod
    def from_univariate(cls, coeffs, index, caps, q_order):
        """Inject a univariate series (QSeries list by x-degree) at one generator."""
        caps = tuple(caps)
        terms = {}
        for k, c in enumerate(coeffs):
            if k > caps[index]:
                break
            e = [0] * len(caps)
            e[index] = k
            terms[tuple(e)] = c
        return cls(caps, q_order, terms)

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def coeffs(self):
        """The QSeries coefficients by x-degree of a one-generator poly."""
        if len(self.caps) != 1:
            raise ValueError("coeffs needs a one-generator NilPoly, "
                             f"caps are {self.caps}")
        zero = QSeries.zero(self.q_order)
        return [self.terms.get((k,), zero) for k in range(self.caps[0] + 1)]

    def constant_term(self):
        zero_exp = (0,) * len(self.caps)
        return self.terms.get(zero_exp, QSeries.zero(self.q_order))

    def top_coeff(self):
        """Coefficient of x_1^cap_1 * ... * x_s^cap_s (the formal residue)."""
        return self.terms.get(self.caps, QSeries.zero(self.q_order))

    def top_product(self, other):
        """top_coeff(self * other) without forming the product.

        Pairs complementary monomials: sum over e of a[e] * b[caps - e].
        """
        self._check(other)
        caps = self.caps
        acc = QSum(self.q_order)
        for e, c in self.terms.items():
            d = other.terms.get(tuple(map(operator.sub, caps, e)))
            if d is not None:
                acc.add_product(c, d)
        return acc.series()

    def sorted_terms(self):
        return sorted(self.terms.items())

    def _check(self, other):
        if self.caps != other.caps:
            raise CapsMismatchError(f"caps {self.caps} vs {other.caps}")
        if self.q_order != other.q_order:
            raise OrderMismatchError("q-order mismatch")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NilPoly):
            other = NilPoly.constant(self.caps, other, self.q_order)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms[e] + c if e in terms else c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        out = NilPoly(self.caps, self.q_order)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = NilPoly(self.caps, self.q_order)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, NilPoly):
            other = NilPoly.constant(self.caps, other, self.q_order)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            out = NilPoly(self.caps, self.q_order)
            for e, c in self.terms.items():
                c = c * other
                if not c.is_zero():
                    out.terms[e] = c
            return out
        if not isinstance(other, NilPoly):
            c = rat(other)
            out = NilPoly(self.caps, self.q_order)
            if c:
                out.terms = {e: s * c for e, s in self.terms.items()}
            return out
        self._check(other)
        caps = self.caps
        qo = self.q_order
        add, le = operator.add, operator.le
        acc = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                if not all(map(le, e, caps)):
                    continue
                slot = acc.get(e)
                if slot is None:
                    slot = acc[e] = QSum(qo)
                slot.add_product(ca, cb)
        out = NilPoly(caps, qo)
        for e, slot in acc.items():
            c = slot.series()
            if not c.is_zero():
                out.terms[e] = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, NilPoly.one(self.caps, self.q_order))

    def inv_unit(self):
        """Inverse by the graded recursion; constant term must be a unit.

        b_0 = a_0^-1 and b_E = -a_0^-1 * sum_{0 < e <= E} a_e * b_(E-e),
        with E running over the cap grid in lexicographic order, so every
        b_(E-e) is known when b_E is formed.
        """
        caps, qo = self.caps, self.q_order
        a0 = self.constant_term()
        if not a0.is_unit():
            raise NonUnitError("constant term of NilPoly is not a unit series")
        inv0 = a0.inv_unit()
        zero = (0,) * len(caps)
        rest = [(e, c) for e, c in self.terms.items() if e != zero]
        out = NilPoly(caps, qo)
        out.terms[zero] = inv0
        sub, le = operator.sub, operator.le
        for E in itertools.product(*[range(c + 1) for c in caps]):
            acc = QSum(qo)
            for e, a in rest:
                if all(map(le, e, E)):
                    b = out.terms.get(tuple(map(sub, E, e)))
                    if b is not None:
                        acc.add_product(a, b)
            s = acc.series()
            if not s.is_zero():
                out.terms[E] = -(s * inv0)
        return out

    def __eq__(self, other):
        if not isinstance(other, NilPoly):
            return NotImplemented
        return (self.caps == other.caps and self.q_order == other.q_order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.caps, self.q_order, tuple(self.sorted_terms())))

    def __repr__(self):
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
            parts.append(f"({c!r})*{mono}")
        return f"NilPoly[caps={self.caps}]({' + '.join(parts) or '0'})"


def subst_linear(f_coeffs, d, caps, q_order):
    """Evaluate a univariate series f at the linear form sum_b d_b * x_b.

    f_coeffs is a sequence of QSeries indexed by x-degree and must reach
    total degree sum(caps); d is an integer vector of length s.  Each ring
    monomial x^e receives f_{|e|} times the integer [x^e] ell^|e|: the
    rank_pair_mul product with the constant 1 at the zero form.
    """
    one = [QSeries.one(q_order)] + [QSeries.zero(q_order)] * sum(caps)
    return rank_pair_mul(f_coeffs, d, one, (0,) * len(caps), caps, q_order)


def _over_one_den(series):
    """The int numerator lists of QSeries (or QSums) over their lcm
    denominator, and that denominator."""
    den = math.lcm(*(c.den for c in series))
    return [c.num if c.den == den else [x * (den // c.den) for x in c.num]
            for c in series], den


def rank_pair_mul(fa_coeffs, da, fb_coeffs, db, caps, q_order):
    """NilPoly product f_a(ell_a) * f_b(ell_b) using the separable structure.

    fa_coeffs and fb_coeffs are sequences of QSeries by x-degree.  The
    coefficient at x^E, |E| = K, is sum_i W_E[i] * f_a[i] * f_b[K-i] with
    the integers W_E[i] = [x^E] ell_a^i ell_b^(K-i), from one recurrence
    over the cap grid that peels off one linear factor:

        W_E[i] = sum_b a_b * W_(E-e_b)[i-1]  (i > 0),
        W_E[0] = sum_b b_b * W_(E-e_b)[0],   W_0 = [1],

    with a = ell_a and b = ell_b.  A cell keeps only the window of i that
    it and its successors read, K - max deg f_b <= i <= min(K, max deg f_a).
    The cells are built in lexicographic order, and a cell's vector is
    dropped once its last successor is built.  Per K the nonzero products
    f_a[i] * f_b[K-i] (f_a[i] itself where f_b[K-i] is 1) are put over one
    denominator and stored as one int row per q-degree, so a cell's
    numerators are the dot products of its weights at those i with the
    rows, reduced once.
    """
    caps = tuple(caps)
    total = sum(caps)
    if len(fa_coeffs) - 1 < total or len(fb_coeffs) - 1 < total:
        raise InsufficientDegreeError("series not supplied to degree "
                                      f"{total}")
    if len(da) != len(caps) or len(db) != len(caps):
        raise ValueError("direction vector arity mismatch")
    fa, fb = fa_coeffs[:total + 1], fb_coeffs[:total + 1]
    nz_a = [not c.is_zero() for c in fa]
    nz_b = [not c.is_zero() for c in fb]
    top_a = max(itertools.compress(range(total + 1), nz_a), default=-1)
    top_b = max(itertools.compress(range(total + 1), nz_b), default=-1)
    tables = []  # per K: (mask of the nonzero products, rows, denominator)
    for K in range(total + 1):
        window = range(max(0, K - top_b), min(K, top_a) + 1)
        mask = [nz_a[i] and nz_b[K - i] for i in window]
        nums, den = _over_one_den([
            fa[i] if fb[K - i].is_one()
            else QSum(q_order).add_product(fa[i], fb[K - i])
            for i in itertools.compress(window, mask)])
        rows = list(zip(*nums))
        tables.append((mask, rows, den) if any(map(any, rows)) else None)
    strides = [math.prod(c + 1 for c in caps[b + 1:])
               for b in range(len(caps))]
    steps_a = [(b, st, c) for b, (st, c) in enumerate(zip(strides, da)) if c]
    steps_b = [(b, st, c) for b, (st, c) in enumerate(zip(strides, db)) if c]
    out = NilPoly(caps, q_order)
    W = [None] * (strides[0] * (caps[0] + 1))
    for idx, E in enumerate(itertools.product(*[range(c + 1) for c in caps])):
        K = sum(E)
        lo, hi = max(0, K - top_b), min(K, top_a)
        if lo > hi:
            continue
        if idx:
            vec = [0] * (hi - max(lo, 1) + 1)
            for b, st, c in steps_a:
                if E[b]:
                    vec = [x + c * y for x, y in zip(vec, W[idx - st])]
            if not lo:
                vec.insert(0, sum(c * W[idx - st][0]
                                  for b, st, c in steps_b if E[b]))
            if E[0]:  # E is the last successor of E - e_0 to be built
                W[idx - strides[0]] = None
        else:
            vec = [1]
        W[idx] = vec
        if tables[K]:
            mask, rows, den = tables[K]
            v = list(itertools.compress(vec, mask))
            num = [sum(map(operator.mul, v, row)) for row in rows]
            if any(num):
                out.terms[E] = QSeries._make(num, den, q_order)
    return out


def mul_univariate(poly, coeffs, index):
    """Multiply a NilPoly by sum_k coeffs[k] * x_index^k, coeffs a
    sequence of QSeries by x-degree.

    A one-axis convolution: much cheaper than a general product when the
    other factor only involves a single generator.  The poly and the
    factor are each brought to one denominator once.  Along a line of
    cells a_m (m the x_index-degree) the q^t numerator at degree n is
    sum_(i+j=t) sum_k a_(n-k)[i] * coeffs[k][j]: one int dot product per
    pair of nonzero q-degrees (i, j).  When the factor's nonzero degrees
    lie in k0 + gZ (g = 2 for an even or odd theta factor), k runs over
    that progression only, and n only over m + k0 + gZ from the lowest
    occupied m of each class mod g: every other output is zero.  Each
    output monomial is reduced once.
    """
    caps, qo = poly.caps, poly.q_order
    cap = caps[index]
    out = NilPoly(caps, qo)
    factor, den_f = _over_one_den(coeffs[:cap + 1])
    ks = [k for k, u in enumerate(factor) if any(u)]
    if not ks:
        return out
    k0 = ks[0]
    g = math.gcd(*(k - k0 for k in ks)) or 1
    fcols = [(j, c) for j, c in enumerate(zip(*factor[k0::g])) if any(c)]
    nums, den_p = _over_one_den(poly.terms.values())
    lines = {}
    for e, a in zip(poly.terms, nums):
        lines.setdefault(e[:index] + e[index + 1:], {})[e[index]] = a
    zeros = [0] * (qo + 1)
    for rest, line in lines.items():
        # acol[cap - m] is the q^i numerator of a_m
        grid = [line.get(m, zeros) for m in range(cap, -1, -1)]
        acols = [(i, acol) for i, acol in enumerate(zip(*grid)) if any(acol)]
        # n reaches only the classes mod g of the occupied m, from the
        # lowest occupied m of each class up
        starts = {m % g: m for m in sorted(line, reverse=True)}.values()
        for n in itertools.chain(*[range(m + k0, cap + 1, g)
                                   for m in starts]):
            num = [0] * (qo + 1)
            for i, acol in acols:
                acol = acol[cap - n + k0::g]
                for j, fcol in fcols:
                    if i + j > qo:
                        break
                    num[i + j] += sum(map(operator.mul, fcol, acol))
            if any(num):
                out.terms[rest[:index] + (n,) + rest[index:]] = \
                    QSeries._make(num, den_p * den_f, qo)
    return out
