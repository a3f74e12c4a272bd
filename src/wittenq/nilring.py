"""Multivariate polynomials over QSeries with nilpotent generators.

Models the truncated cohomology ring of a product of projective spaces:
generators x_1..x_s with x_b^(cap_b + 1) = 0, scalars in Q[[q]] truncated
at a common q-order.  Monomials that overflow a cap are silently dropped.
This is the package's only ring of series in x: a one-generator NilPoly
with cap N is a power series in x truncated after x^N (the theta and
bundle factors), or an exact polynomial of degree <= N (the products of
Lambda pairs in w = y + 1/y - 2 of the cancellation lemma).

Every product of coefficients accumulates through `qseries.QSum`, the
package's one q-convolution: a product's terms are summed as int
numerators over one denominator per monomial and reduced once.

A series f evaluated at a linear form ell = sum d_b x_b has the separable
coefficient structure f(ell)[e] = weight(e) * f_{|e|} with integer
weights.  rank_pair_mul builds a product f_a(ell_a) * f_b(ell_b) of two
such polynomials through the integer coefficients of ell_a^k * ell_b^j
on the cap grid (`_power_weights`) plus a small table of series
products, which is far cheaper than termwise ring multiplication;
subst_linear is its case f_b = 1, ell_b = 0.  A univariate series is
handed to them, and to mul_univariate, as a sequence of QSeries by
x-degree.
"""
from __future__ import annotations

import itertools
import operator

from .errors import (CapsMismatchError, InsufficientDegreeError,
                     NonUnitError, OrderMismatchError)
from .qseries import QSeries, QSum, power, rat


class NilPoly:
    """terms: dict mapping exponent tuples (e_1..e_s), e_b <= cap_b, to QSeries."""

    __slots__ = ("caps", "q_order", "terms")

    def __init__(self, caps, q_order, terms=None):
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
        return _from_sums(caps, qo, acc)

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


def _power_weights(caps, da, db, deg_a, deg_b):
    """Integer coefficients of ell_a^i * ell_b^j on the cap grid.

    Returns {E: {i: [x^E] ell_a^i ell_b^(|E|-i)}} over i in deg_a and
    j = |E| - i in deg_b, zero weights dropped.  Each power is the
    previous one times ell_a or ell_b, a homogeneous polynomial held by
    flat grid index.
    """
    cells = list(itertools.product(*[range(c + 1) for c in caps]))
    index = {e: k for k, e in enumerate(cells)}

    def moves(d):
        # (d_b, the cell one step up axis b, or None at the cap) per d_b != 0
        return [(coef, [index.get(e[:b] + (e[b] + 1,) + e[b + 1:])
                        for e in cells])
                for b, coef in enumerate(d) if coef]

    def times(poly, steps):
        out = {}
        for k, v in poly.items():
            for coef, up in steps:
                t = up[k]
                if t is not None:
                    out[t] = out.get(t, 0) + coef * v
        return {k: v for k, v in out.items() if v}

    up_a, up_b = moves(da), moves(db)
    weights = {}
    row = {0: 1}  # ell_a^i; cell 0 is the zero exponent
    for i in range(max(deg_a, default=-1) + 1):
        poly = row if i in deg_a else {}
        for j in range(max(deg_b, default=-1) + 1):
            if not poly:
                break
            if j in deg_b:
                for k, v in poly.items():
                    weights.setdefault(cells[k], {})[i] = v
            poly = times(poly, up_b)
        row = times(row, up_a)
    return weights


def rank_pair_mul(fa_coeffs, da, fb_coeffs, db, caps, q_order):
    """NilPoly product f_a(ell_a) * f_b(ell_b) using the separable structure.

    fa_coeffs and fb_coeffs are sequences of QSeries by x-degree.  The
    product coefficient at x^E is sum_k W_E[k] * f_a[k] * f_b[|E|-k]
    with the integers W_E[k] = [x^E] ell_a^k ell_b^(|E|-k); the series
    products are drawn from a small memo table instead of being
    recomputed per monomial.
    """
    caps = tuple(caps)
    total = sum(caps)
    if len(fa_coeffs) - 1 < total or len(fb_coeffs) - 1 < total:
        raise InsufficientDegreeError("series not supplied to degree "
                                      f"{total}")
    if len(da) != len(caps) or len(db) != len(caps):
        raise ValueError("direction vector arity mismatch")
    deg_a = {k for k in range(total + 1) if not fa_coeffs[k].is_zero()}
    deg_b = {k for k in range(total + 1) if not fb_coeffs[k].is_zero()}
    table = {}
    acc = {}
    for E, slot in _power_weights(caps, da, db, deg_a, deg_b).items():
        kE = sum(E)
        s = acc[E] = QSum(q_order)
        for k, v in slot.items():
            prod = table.get((k, kE))
            if prod is None:
                prod = table[k, kE] = fa_coeffs[k] * fb_coeffs[kE - k]
            s.add(prod, v)
    return _from_sums(caps, q_order, acc)


def mul_univariate(poly, coeffs, index):
    """Multiply a NilPoly by sum_k coeffs[k] * x_index^k, coeffs a
    sequence of QSeries by x-degree.

    A one-axis convolution: much cheaper than a general product when the
    other factor only involves a single generator.
    """
    caps, qo = poly.caps, poly.q_order
    cap = caps[index]
    nonzero = [(k, uk) for k, uk in enumerate(coeffs[:cap + 1])
               if not uk.is_zero()]
    acc = {}
    for e, c in poly.terms.items():
        head, base, tail = e[:index], e[index], e[index + 1:]
        for k, uk in nonzero:
            if base + k > cap:
                break
            e2 = head + (base + k,) + tail
            slot = acc.get(e2)
            if slot is None:
                slot = acc[e2] = QSum(qo)
            slot.add_product(c, uk)
    return _from_sums(caps, qo, acc)


def _from_sums(caps, q_order, sums):
    """The NilPoly whose monomial e carries sums[e].series(), zeros dropped."""
    out = NilPoly(caps, q_order)
    for e, s in sums.items():
        c = s.series()
        if not c.is_zero():
            out.terms[e] = c
    return out
