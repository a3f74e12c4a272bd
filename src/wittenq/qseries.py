"""Truncated power series in the nome q with exact rational coefficients.

This is the universal scalar of the package: dense coefficient lists,
truncated at a fixed order, no floating point anywhere.  Coefficients are
gmpy2 rationals when available (much faster), stdlib Fractions otherwise.
"""
from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    Q = Fraction

SCALAR_BACKEND = "fractions.Fraction" if Q is Fraction else "gmpy2.mpq"

from .errors import NonIntegralError, NonUnitError, OrderMismatchError

RAT_ZERO = Q(0)
RAT_ONE = Q(1)


def rat(v):
    """Coerce an int, Fraction, mpq or 'p/q' string to the scalar type."""
    if isinstance(v, float):
        raise TypeError("floating point coefficients are not allowed")
    return Q(v)


def rat_is_integer(v):
    return v.denominator == 1


def mul_into(out, a, b):
    """Add the product of coefficient lists a and b into out, truncated.

    The one q-convolution of the package: every series product, bare or
    inside a polynomial over QSeries, accumulates through here.  Terms of
    degree len(out) and above are dropped.
    """
    n = len(out)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj


class QSeries:
    """A truncated series c0 + c1*q + ... + c_order*q^order over exact rationals."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = [rat(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [RAT_ZERO] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def _raw(coeffs, order):
        """Internal: wrap an already-coerced, right-length coefficient list."""
        obj = object.__new__(QSeries)
        obj.order = order
        obj.coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, order):
        return cls([RAT_ZERO], order)

    @classmethod
    def one(cls, order):
        return cls([RAT_ONE], order)

    @classmethod
    def constant(cls, value, order):
        return cls([rat(value)], order)

    @classmethod
    def monomial(cls, value, exponent, order):
        """value * q^exponent, truncated (zero if exponent > order)."""
        if exponent > order:
            return cls.zero(order)
        coeffs = [RAT_ZERO] * (order + 1)
        coeffs[exponent] = rat(value)
        return cls(coeffs, order)

    # -- queries ------------------------------------------------------

    def coefficient(self, k):
        return self.coeffs[k] if k <= self.order else RAT_ZERO

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(not c for c in self.coeffs[1:])

    def is_unit(self):
        return bool(self.coeffs[0])

    def is_integral(self):
        return all(rat_is_integer(c) for c in self.coeffs)

    def even_q_support(self):
        return all(not c for c in self.coeffs[1::2])

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: order + 1], order)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        self._check(other)
        return QSeries._raw([a + b for a, b in zip(self.coeffs, other.coeffs)],
                            self.order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._raw([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            c = rat(other)
            return QSeries._raw([a * c for a in self.coeffs], self.order)
        self._check(other)
        out = [RAT_ZERO] * (self.order + 1)
        mul_into(out, self.coeffs, other.coeffs)
        return QSeries._raw(out, self.order)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv_unit() ** (-k)
        result = QSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inv_unit(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        if not self.coeffs[0]:
            raise NonUnitError("constant term is zero")
        n = self.order
        a0 = self.coeffs[0]
        inv0 = RAT_ONE / a0
        out = [inv0] + [RAT_ZERO] * n
        for k in range(1, n + 1):
            acc = RAT_ZERO
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if aj:
                    acc += aj * out[k - j]
            out[k] = -acc * inv0
        return QSeries._raw(out, n)

    def reduce_mod2(self):
        """Reduce an integral series to its coefficients modulo 2."""
        bits = []
        for k, c in enumerate(self.coeffs):
            if not rat_is_integer(c):
                raise NonIntegralError(
                    f"coefficient of q^{k} is {c}, not an integer")
            bits.append(int(c) % 2)
        return Q2Series(bits, self.order)

    # -- misc ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) or type(other) is type(RAT_ZERO):
            return self == QSeries.constant(other, self.order)
        return NotImplemented

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __repr__(self):
        terms = [f"{c}*q^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body}; O(q^{self.order + 1}))"


class Q2Series:
    """A truncated series over Z/2, obtained only by reducing an integral QSeries."""

    __slots__ = ("order", "bits")

    def __init__(self, bits, order=None):
        bits = [int(b) % 2 for b in bits]
        if order is None:
            order = len(bits) - 1
        if len(bits) < order + 1:
            bits = bits + [0] * (order + 1 - len(bits))
        self.order = order
        self.bits = bits[: order + 1]

    def is_zero(self):
        return not any(self.bits)

    def __eq__(self, other):
        if not isinstance(other, Q2Series):
            return NotImplemented
        return self.order == other.order and self.bits == other.bits

    def __hash__(self):
        return hash((self.order, tuple(self.bits)))

    def __repr__(self):
        terms = [f"q^{k}" for k, b in enumerate(self.bits) if b]
        body = " + ".join(terms) if terms else "0"
        return f"Q2Series({body}; O(q^{self.order + 1}))"
