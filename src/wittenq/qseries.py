"""Truncated power series in the nome q with exact rational coefficients.

This is the universal scalar of the package: dense coefficient lists,
truncated at a fixed order, no floating point anywhere.  A series is held
as stdlib int numerators over one positive denominator, kept reduced
(gcd(den, *num) = 1, and the zero series has den 1), so equal values have
equal representations and equality and hashing are value-based.  The
genera have integral Fourier expansions whose only denominators come from
Bernoulli numbers and x-factorials, so the numerators stay small and every
coefficient product is an int product.

`conv_add` is the package's one q-convolution of two int numerator
lists: `QSeries.__mul__` and the products of `nilring` call it and reduce
once.  (`theta.direction_series` and the linear-form kernels of
`nilring` run fused int sums of their own.)  Nothing in the package
inverts a series: the genera are top coefficients of products, and
`QSeries.__pow__` takes exponents k >= 0 by repeated squaring.
`q_product` is the one product of binomials (1 + sign*q^e), on ints.
`coeffs` and `coefficient` are the rational view, always stdlib
`Fraction`, the package's one rational type; arithmetic never goes
through them.  A series in x (a theta or bundle factor) is an `XSeries`,
the tuple of its QSeries coefficients by x-degree.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonIntegralError, OrderMismatchError


def rat(v):
    """Coerce an int, Fraction or 'p/q' string to a Fraction; a float or
    a bool raises TypeError."""
    if isinstance(v, (float, bool)):
        raise TypeError(f"a {type(v).__name__} is not a coefficient, got {v!r}")
    return Fraction(v)


def _check_int(value, name="order", least=0):
    """The package's one check of an integer argument: TypeError unless
    value is a plain int (a bool is refused), ValueError if it is below
    least (None: no bound)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def conv_add(out, a, b):
    """out += a * b for int numerator lists, truncated at len(out);
    returns out."""
    n = len(out)
    nz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                if i + j >= n:
                    break
                out[i + j] += x * y
    return out


def q_product(factors, order):
    """prod (1 + sign*q^e) over the (sign, e) pairs, e >= 1, to q^order,
    one in-place int update per factor (a factor with e > order is 1)."""
    _check_int(order)
    num = [1] + [0] * order
    for sign, e in factors:
        for i in range(order, e - 1, -1):
            num[i] += sign * num[i - e]
    return QSeries._make(num, 1, order)


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
        _check_int(order)
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
        _check_int(order)
        return cls._make([0] * (order + 1), 1, order)

    @classmethod
    def one(cls, order):
        _check_int(order)
        return cls._make([1] + [0] * order, 1, order)

    @classmethod
    def constant(cls, value, order):
        return cls([rat(value)], order)

    @classmethod
    def monomial(cls, value, exponent, order):
        """value * q^exponent, truncated (zero if exponent > order);
        a negative exponent raises ValueError."""
        _check_int(order)
        _check_int(exponent, "exponent")
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
        _check_int(k, "k")
        return Fraction(self.num[k] if k <= self.order else 0, self.den)

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return (self.den == 1 and self.num[0] == 1
                and not any(self.num[1:]))

    def is_integral(self):
        return self.den == 1

    def even_q_support(self):
        return not any(self.num[1::2])

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        self._check(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return QSeries._make([sa * x + sb * y
                              for x, y in zip(self.num, other.num)],
                             den, self.order)

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
            c = other if type(other) is int else rat(other)
            return QSeries._make([a * c.numerator for a in self.num],
                                 self.den * c.denominator,
                                 self.order)
        self._check(other)
        return QSeries._make(conv_add([0] * (self.order + 1), self.num,
                                      other.num),
                             self.den * other.den, self.order)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k by repeated squaring; a negative k raises ValueError
        (there is no inverse)."""
        _check_int(k, "exponent")
        result, base = QSeries.one(self.order), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
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
        bits = list(bits)
        if not {int}.issuperset(map(type, bits)):
            raise TypeError(f"bits must be integers, got {bits!r}")
        order = len(bits) - 1 if order is None else order
        _check_int(order)
        self.order, self.bits = order, [b % 2 for b in bits[: order + 1]]
        self.bits += [0] * (order + 1 - len(bits))

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
