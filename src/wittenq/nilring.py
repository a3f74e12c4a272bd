"""Multivariate polynomials over QSeries with nilpotent generators.

Models the truncated cohomology ring of a product of projective spaces:
generators x_1..x_s with x_b^(cap_b + 1) = 0, scalars in Q[[q]] truncated
at a common q-order.  Monomials that overflow a cap are silently dropped.
This is the package's only ring of series in x: a one-generator NilPoly
with cap N is a power series in x truncated after x^N (the theta and
bundle factors), or an exact polynomial of degree <= N (the u-polynomials
of the cancellation lemma).

A series f evaluated at a linear form ell = sum d_b x_b has the separable
coefficient structure f(ell)[e] = weight(e) * f_{|e|} with integer
weights; subst_linear builds such polynomials directly and rank_pair_mul
multiplies two of them with integer convolutions plus a small table of
series products, which is far cheaper than termwise ring multiplication.
"""
from __future__ import annotations

import itertools
import math
import operator

from .errors import (CapsMismatchError, InsufficientDegreeError,
                     NonUnitError, OrderMismatchError)
from .qseries import QSeries, RAT_ZERO, mul_into, rat


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
        acc = QSeries.zero(self.q_order)
        for e, c in self.terms.items():
            comp = tuple(cap - x for cap, x in zip(caps, e))
            d = other.terms.get(comp)
            if d is not None:
                acc = acc + c * d
        return acc

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
            A = ca.coeffs
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                if not all(map(le, e, caps)):
                    continue
                slot = acc.get(e)
                if slot is None:
                    slot = acc[e] = [RAT_ZERO] * (qo + 1)
                mul_into(slot, A, cb.coeffs)
        out = NilPoly(caps, qo)
        out.terms = {e: QSeries._raw(c, qo) for e, c in acc.items() if any(c)}
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv_unit() ** (-k)
        result = NilPoly.one(self.caps, self.q_order)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

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
        rest = [(e, c.coeffs) for e, c in self.terms.items() if e != zero]
        out = NilPoly(caps, qo)
        out.terms[zero] = inv0
        sub, le = operator.sub, operator.le
        for E in itertools.product(*[range(c + 1) for c in caps]):
            acc = [RAT_ZERO] * (qo + 1)
            for e, A in rest:
                if all(map(le, e, E)):
                    b = out.terms.get(tuple(map(sub, E, e)))
                    if b is not None:
                        mul_into(acc, A, b.coeffs)
            if any(acc):
                out.terms[E] = -(QSeries._raw(acc, qo) * inv0)
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
    monomial x^e receives f_{|e|} times the multinomial weight
    (|e|; e) * prod d_b^{e_b}, so no ring multiplications are needed.
    """
    if hasattr(f_coeffs, "coeffs"):
        f_coeffs = f_coeffs.coeffs
    caps = tuple(caps)
    total = sum(caps)
    if len(f_coeffs) - 1 < total:
        raise InsufficientDegreeError(
            f"series given to degree {len(f_coeffs) - 1}, need {total}")
    if len(d) != len(caps):
        raise ValueError("direction vector arity mismatch")
    out = NilPoly(caps, q_order)
    for e in itertools.product(*[range(c + 1) for c in caps]):
        k = sum(e)
        fk = f_coeffs[k]
        if fk.is_zero():
            continue
        weight = math.factorial(k)
        for eb, db in zip(e, d):
            weight = weight // math.factorial(eb) * db ** eb
        if weight:
            c = fk * weight
            if not c.is_zero():
                out.terms[e] = c
    return out


def linear_weights(caps, d, degrees=None):
    """Integer weights of the powers of ell = sum d_b x_b on the cap grid.

    Returns {exponent e: multinomial(|e|; e) * prod d_b^e_b}, restricted to
    |e| in `degrees` when given (the degrees whose series coefficient is
    nonzero), zero weights dropped.
    """
    out = {}
    for e in itertools.product(*[range(c + 1) for c in caps]):
        k = sum(e)
        if degrees is not None and k not in degrees:
            continue
        weight = math.factorial(k)
        for eb, db in zip(e, d):
            weight = weight // math.factorial(eb) * db ** eb
        if weight:
            out[e] = weight
    return out


def rank_pair_mul(fa_coeffs, da, fb_coeffs, db, caps, q_order):
    """NilPoly product f_a(ell_a) * f_b(ell_b) using the separable structure.

    The product coefficient at x^E is sum_k W_E[k] * f_a[k] * f_b[|E|-k]
    with purely integer W; the series products are drawn from a small
    memo table instead of being recomputed per monomial pair.
    """
    if hasattr(fa_coeffs, "coeffs"):
        fa_coeffs = fa_coeffs.coeffs
    if hasattr(fb_coeffs, "coeffs"):
        fb_coeffs = fb_coeffs.coeffs
    caps = tuple(caps)
    total = sum(caps)
    if len(fa_coeffs) - 1 < total or len(fb_coeffs) - 1 < total:
        raise InsufficientDegreeError("series not supplied to degree "
                                      f"{total}")
    deg_a = {k for k in range(total + 1) if not fa_coeffs[k].is_zero()}
    deg_b = {k for k in range(total + 1) if not fb_coeffs[k].is_zero()}
    wa = linear_weights(caps, da, deg_a)
    wb = linear_weights(caps, db, deg_b)
    weights = {}  # E -> {k: integer}
    for ea, va in wa.items():
        ka = sum(ea)
        for eb, vb in wb.items():
            E = tuple(x + y for x, y in zip(ea, eb))
            if any(x > cap for x, cap in zip(E, caps)):
                continue
            slot = weights.setdefault(E, {})
            slot[ka] = slot.get(ka, 0) + va * vb
    table = {}
    out = NilPoly(caps, q_order)
    for E, slot in weights.items():
        kE = sum(E)
        acc = None
        for k, v in slot.items():
            key = (k, kE - k)
            prod = table.get(key)
            if prod is None:
                prod = table[key] = fa_coeffs[k] * fb_coeffs[kE - k]
            term = prod * v
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out.terms[E] = acc
    return out


def mul_univariate(poly, coeffs, index):
    """Multiply a NilPoly by a univariate series in generator `index`.

    A one-axis convolution: much cheaper than a general product when the
    other factor only involves a single generator.
    """
    if hasattr(coeffs, "coeffs"):
        coeffs = coeffs.coeffs
    caps, qo = poly.caps, poly.q_order
    cap = caps[index]
    acc = {}
    for e, c in poly.terms.items():
        for k, uk in enumerate(coeffs):
            if e[index] + k > cap:
                break
            if uk.is_zero():
                continue
            e2 = e[:index] + (e[index] + k,) + e[index + 1:]
            prev = acc.get(e2)
            term = c * uk
            acc[e2] = term if prev is None else prev + term
    out = NilPoly(caps, qo)
    out.terms = {e: c for e, c in acc.items() if not c.is_zero()}
    return out
