"""Truncated power series in the nome q with exact rational coefficients.

This is the universal scalar of the package: dense coefficient lists,
truncated at a fixed order, no floating point anywhere.  A series is held
as stdlib int numerators over one positive denominator, kept reduced
(gcd(den, *num) = 1, and the zero series has den 1), so equal values have
equal representations and equality and hashing are value-based.  The
genera have integral Fourier expansions whose only denominators come from
Bernoulli numbers and x-factorials, so the numerators stay small and every
coefficient product is an int product.

`QSum` is the package's q-convolution of series: it accumulates integer
multiples of series and of products of series into one numerator list
and reduces once when read out.  (The linear-form products of `nilring`
run their inner sums as int dot products on numerator lists.)  `power`
is the one repeated-squaring loop, for QSeries and NilPoly alike.
`coeffs` and `coefficient` are the rational view, always stdlib
`Fraction`, the package's one rational type; arithmetic never goes
through them.  A series in x (a theta or bundle factor) is an `XSeries`,
the tuple of its QSeries coefficients by x-degree.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonIntegralError, NonUnitError, OrderMismatchError


def rat(v):
    """Coerce an int, Fraction or 'p/q' string to a Fraction."""
    if isinstance(v, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(v)


def power(base, k, one):
    """base ** k by repeated squaring, `one` being the unit of base's ring;
    a negative k raises the inverse, base.inv_unit(), to -k."""
    if k < 0:
        base, k = base.inv_unit(), -k
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class QSum:
    """A running sum of integer multiples of series and series products.

    The sum is held as int numerators over one denominator, the lcm of the
    denominators added so far: a term whose denominator divides it is
    scaled up, otherwise the sum is rescaled to the new lcm first.  Terms
    of degree above `order` are dropped.  `series()` reduces once and
    hands the numerator list to the result, so a QSum is read out once.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order):
        self.order = order
        self.num = [0] * (order + 1)
        self.den = 1

    def _scale(self, d):
        """The factor that brings a term over denominator d to self.den."""
        D = self.den
        if D % d:
            lcm = D // math.gcd(D, d) * d
            r = lcm // D
            self.num = [x * r for x in self.num]
            self.den = D = lcm
        return D // d

    def add(self, a, w=1):
        """self += w * a."""
        s = w * self._scale(a.den)
        out = self.num
        for i, ai in enumerate(a.num):
            if ai:
                out[i] += s * ai

    def add_product(self, a, b, w=1):
        """self += w * a * b, truncated at the order; returns self."""
        s = w * self._scale(a.den * b.den)
        out, B = self.num, b.num
        n = len(out)
        for i, ai in enumerate(a.num):
            if ai:
                ai *= s
                for j in range(n - i):
                    bj = B[j]
                    if bj:
                        out[i + j] += ai * bj
        return self

    def series(self, divisor=1):
        """The sum divided by the positive integer `divisor`, as a QSeries."""
        return QSeries._make(self.num, self.den * divisor, self.order)


class QSeries:
    """A truncated series c0 + c1*q + ... + c_order*q^order over exact rationals.

    Stored as `num[k] / den` with int numerators and a positive
    denominator, reduced; `coeffs` gives the rational coefficients.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if all(type(c) is int for c in coeffs):
            num, den = coeffs[: order + 1], 1
        else:
            coeffs = [rat(c) for c in coeffs][: order + 1]
            # the lcm of reduced denominators leaves the numerators coprime
            den = math.lcm(*(c.denominator for c in coeffs))
            num = [c.numerator * (den // c.denominator) for c in coeffs]
        self.order = order
        self.num = num + [0] * (order + 1 - len(num))
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def _make(num, den, order):
        """Internal: wrap int numerators (length order + 1) over den > 0,
        reducing to lowest terms.  Takes ownership of `num`."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        obj = object.__new__(QSeries)
        obj.order = order
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def zero(cls, order):
        return cls._make([0] * (order + 1), 1, order)

    @classmethod
    def one(cls, order):
        return cls._make([1] + [0] * order, 1, order)

    @classmethod
    def constant(cls, value, order):
        return cls([rat(value)], order)

    @classmethod
    def monomial(cls, value, exponent, order):
        """value * q^exponent, truncated (zero if exponent > order);
        a negative exponent raises ValueError."""
        if exponent < 0:
            raise ValueError(f"no monomial q^{exponent}: exponent must be "
                             ">= 0")
        if exponent > order:
            return cls.zero(order)
        coeffs = [0] * (order + 1)
        coeffs[exponent] = value
        return cls(coeffs, order)

    # -- queries ------------------------------------------------------

    @property
    def coeffs(self):
        """The rational coefficients of q^0 .. q^order."""
        return [Fraction(x, self.den) for x in self.num]

    def coefficient(self, k):
        """The coefficient of q^k, 0 above the order; k < 0 raises ValueError."""
        if k < 0:
            raise ValueError(f"no coefficient of q^{k}: k must be >= 0")
        return Fraction(self.num[k] if k <= self.order else 0, self.den)

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return (self.den == 1 and self.num[0] == 1
                and not any(self.num[1:]))

    def is_unit(self):
        return bool(self.num[0])

    def is_integral(self):
        return self.den == 1

    def even_q_support(self):
        return not any(self.num[1::2])

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return QSeries._make(self.num[: order + 1], self.den, order)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        self._check(other)
        acc = QSum(self.order)
        acc.add(self)
        acc.add(other)
        return acc.series()

    __radd__ = __add__

    def __neg__(self):
        return QSeries._make([-a for a in self.num], self.den, self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            c = rat(other)
            return QSeries._make([a * c.numerator for a in self.num],
                                 self.den * c.denominator,
                                 self.order)
        self._check(other)
        acc = QSum(self.order)
        acc.add_product(self, other)
        return acc.series()

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, QSeries.one(self.order))

    def inv_unit(self):
        """Multiplicative inverse; requires a nonzero constant term.

        With self = A/d, the integers B_k = A_0^(k+1) * [q^k] 1/A satisfy
        B_0 = 1 and B_k = -sum_(j=1..k) A_j A_0^(j-1) B_(k-j), so
        1/self = d * B_k * A_0^(n-k) / A_0^(n+1) over n = order.
        """
        A = self.num
        a0 = A[0]
        if not a0:
            raise NonUnitError("constant term is zero")
        n = self.order
        scaled = [0] + [A[j] * a0 ** (j - 1) for j in range(1, n + 1)]
        B = [1]
        for k in range(1, n + 1):
            B.append(-sum(scaled[j] * B[k - j] for j in range(1, k + 1)
                          if scaled[j]))
        d, den = self.den, a0 ** (n + 1)
        if den < 0:
            d, den = -d, -den
        return QSeries._make([d * B[k] * a0 ** (n - k) for k in range(n + 1)],
                             den, n)

    def reduce_mod2(self):
        """Reduce an integral series to its coefficients modulo 2."""
        if self.den != 1:
            k = next(k for k, x in enumerate(self.num) if x % self.den)
            raise NonIntegralError(
                f"coefficient of q^{k} is {self.coefficient(k)}, "
                "not an integer")
        return Q2Series([x % 2 for x in self.num], self.order)

    # -- misc ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QSeries):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return self == QSeries.constant(other, self.order)
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.den, tuple(self.num)))

    def __repr__(self):
        terms = [f"{c}*q^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body}; O(q^{self.order + 1}))"


class XSeries(tuple):
    """A truncated series in x: the tuple of its QSeries coefficients by
    x-degree, immutable so that caches can share it.  `coeffs`, the tuple
    itself, is what perfbench/tracing.py reads of a built factor."""

    __slots__ = ()
    coeffs = property(lambda self: self)


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
