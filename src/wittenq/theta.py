"""Jacobi theta expansions.

Formal core: the normalized ratios of the four theta functions become
purely rational power series once the elliptic variable z is rescaled to
x = 2*pi*i*z.  Under that substitution sin(pi*z) -> sinh(x/2)/i and
e^{2*pi*i*z} -> e^x, so

    Phi(x)   = 2*sinh(x/2) * prod_j (1 - e^x q^2j)(1 - e^-x q^2j) / (1 - q^2j)^2
    Psi_1(x) = cosh(x/2)   * prod_j (1 + e^x q^2j)(1 + e^-x q^2j) / (1 + q^2j)^2
    Psi_2(x) =               prod_j (1 - e^x q^(2j-1))(1 - e^-x q^(2j-1)) / (1 - q^(2j-1))^2
    Psi_3(x) =               prod_j (1 + e^x q^(2j-1))(1 + e^-x q^(2j-1)) / (1 + q^(2j-1))^2

with every q^(1/4) prefactor cancelling.  The factors are not built from
these products.  Taking logarithms turns each product into divisor sums:
log(x/Phi) = sum_k 2 G_2k(q^2) x^2k / (2k)! with the Eisenstein series
G_2k = -B_2k/(4k) + sum_N sigma_(2k-1)(N) q^N (Zagier 1988), and the
Psi_i have sign-twisted analogues (see `log_coeffs`).  Each factor is then
one exponential of its logarithm, computed exactly in the truncated ring
by `direction_series`, the one exponential builder: it exponentiates an
integer combination of these logarithms at multiples m*x, so `phi`, `psi`,
`psi_product`, `x_over_phi` and the merged direction factors of the
theta-route genera are each one call of it.
The bundle route (`bundles`) keeps the product formulas and is the
independent oracle these builders are checked against.

Each factor is a power series in x truncated at a given x-order, held as a
one-generator NilPoly with cap x_order; its `coeffs` lists the QSeries
coefficients by x-degree.  A separate complex-numeric evaluator checks the
analytic transformation laws, which the formal truncated series cannot see.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
from fractions import Fraction

from .nilring import NilPoly
from .qseries import QSeries, QSum


class ThetaKind(enum.Enum):
    THETA = 0
    THETA1 = 1
    THETA2 = 2
    THETA3 = 3


# -- elementary series in x ------------------------------------------

def _x_series(coeffs, q_order):
    """The series sum_k coeffs[k] x^k, truncated after x^(len(coeffs) - 1)."""
    return NilPoly.from_univariate(coeffs, 0, (len(coeffs) - 1,), q_order)


def two_sinh_half(x_order, q_order):
    """2*sinh(x/2) = e^(x/2) - e^(-x/2): 2/(2^k k!) at odd k, 0 at even k."""
    return _x_series([QSeries.constant(Fraction(2 * (k % 2),
                                                2 ** k * math.factorial(k)),
                                       q_order)
                      for k in range(x_order + 1)], q_order)


def cosh_half(x_order, q_order):
    """cosh(x/2): 1/(2^k k!) at even k, 0 at odd k."""
    return _x_series([QSeries.constant(Fraction(1 - k % 2,
                                                2 ** k * math.factorial(k)),
                                       q_order)
                      for k in range(x_order + 1)], q_order)


def _one_pm_q(sign, q_exp, q_order):
    return QSeries.one(q_order) + QSeries.monomial(sign, q_exp, q_order)


# -- logarithms: Bernoulli numbers and divisor sums -------------------

@functools.lru_cache(maxsize=None)
def bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2), from sum_(j<=n) C(n+1, j) B_j = 0."""
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


def _divisor_sums(k, q_order, odd, alternating):
    """Integer coefficients of sum_(m*e = N) eps^(m+1) * m^(2k-1) * q^N.

    e runs over the odd (odd=True) or the even positive integers, and eps
    is -1 when alternating, +1 otherwise.  The q^0 coefficient is 0.
    """
    out = [0] * (q_order + 1)
    for m in range(1, q_order + 1):
        w = -m ** (2 * k - 1) if alternating and m % 2 == 0 else m ** (2 * k - 1)
        for N in range(m if odd else 2 * m, q_order + 1, 2 * m):
            out[N] += w
    return out


def eisenstein_g(k, q_order):
    """G_2k(q^2) = -B_2k/(4k) + sum_N sigma_(2k-1)(N) q^(2N), k >= 1."""
    coeffs = _divisor_sums(k, q_order, odd=False, alternating=False)
    coeffs[0] = -bernoulli(2 * k) / (4 * k)
    return QSeries(coeffs, q_order)


@functools.lru_cache(maxsize=None)
def log_coeffs(kind, x_order, q_order):
    """The logarithm of a factor as QSeries coefficients by x-degree 0..x_order.

    THETA stands for x/Phi; THETA1..3 for Psi_1..3.  Every logarithm is
    even in x with no constant term, and its x^2k coefficient is 2/(2k)!
    times
        x/Phi:  G_2k(q^2)
        Psi_1:  (2^2k - 1) B_2k/(4k) + sum_N sum_(m|N) (-1)^(m+1) m^(2k-1) q^(2N)
        Psi_2:  -sum_N sum_(m|N, N/m odd) m^(2k-1) q^N
        Psi_3:  sum_N sum_(m|N, N/m odd) (-1)^(m+1) m^(2k-1) q^N
    from log(1 + t e^x) + log(1 + t e^-x) - 2 log(1 + t)
    = -sum_m (-t)^m/m * 2 sum_k (mx)^2k/(2k)! and the Taylor series of
    log(sinh(x/2)/(x/2)) and log cosh(x/2).  Callers slice the cached
    result rather than asking for a lower x-order.
    """
    if kind == ThetaKind.THETA:
        def body(k):
            return eisenstein_g(k, q_order)
    elif kind == ThetaKind.THETA1:
        def body(k):
            c = _divisor_sums(k, q_order, odd=False, alternating=True)
            c[0] = (4 ** k - 1) * bernoulli(2 * k) / (4 * k)
            return QSeries(c, q_order)
    elif kind == ThetaKind.THETA2:
        def body(k):
            return -QSeries(_divisor_sums(k, q_order, odd=True,
                                          alternating=False), q_order)
    elif kind == ThetaKind.THETA3:
        def body(k):
            return QSeries(_divisor_sums(k, q_order, odd=True,
                                         alternating=True), q_order)
    else:
        raise ValueError(f"no logarithm for {kind}")
    out = [QSeries.zero(q_order)] * (x_order + 1)
    for k in range(1, x_order // 2 + 1):
        scale = Fraction(2, math.factorial(2 * k))
        out[2 * k] = body(k) * scale
    return tuple(out)


# -- exponentials -----------------------------------------------------

def _granular(x_order):
    """x_order rounded up to a multiple of 16, so nearby sizes share a cache.

    Consumers of a factor only read coefficients up to the degree they
    need, and truncating a series in x leaves lower coefficients untouched.
    """
    return -(-max(x_order, 1) // 16) * 16


def direction_series(terms, r, x_order, q_order):
    """y^r * exp(sum of coef * log_kind(m*y) over terms), to y^x_order.

    terms holds integer triples (kind, coef, m), kind naming a logarithm
    of `log_coeffs`.  The exponent's y^k coefficient is
    sum_kind p_k * log_kind_k with the integer power sum
    p_k = sum coef * m^k.  It is even in y with no constant term, so
    f = exp(...) has f_0 = 1, f_odd = 0 and, from f' = L'f,
    n f_n = sum_(j even) j L_j f_(n-j).  The result is a one-generator
    NilPoly with cap x_order, zero when r > x_order.
    """
    sums = {}
    for kind, coef, m in terms:
        sums.setdefault(kind, []).append((coef, m))
    tables = {kind: log_coeffs(kind, _granular(x_order), q_order)
              for kind in sums}
    zero = QSeries.zero(q_order)
    logs, f = {}, [QSeries.one(q_order)]
    for n in range(1, x_order - r + 1):
        if n % 2:
            f.append(zero)
            continue
        acc = QSum(q_order)
        for kind, pairs in sums.items():
            acc.add(tables[kind][n], sum(coef * m ** n for coef, m in pairs))
        logs[n] = acc.series()
        acc = QSum(q_order)
        for j in range(2, n + 1, 2):
            acc.add_product(logs[j], f[n - j], j)
        f.append(acc.series(n))
    return _x_series(([zero] * r + f)[:x_order + 1], q_order)


def phi(x_order, q_order):
    """Normalized theta ratio Phi(x) = 2*pi*i * theta(x/(2*pi*i)) / theta'(0).

    Odd in x, leading term x: Phi = x * exp(-log(x/Phi)).
    """
    return direction_series([(ThetaKind.THETA, -1, 1)], 1, x_order, q_order)


def psi(kind, x_order, q_order):
    """Normalized ratio Psi_i(x) = theta_i(x/(2*pi*i)) / theta_i(0), i = 1, 2, 3."""
    if kind not in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        raise ValueError("psi is defined for THETA1, THETA2, THETA3")
    return direction_series([(kind, 1, 1)], 0, x_order, q_order)


def psi_product(x_order, q_order):
    """Psi_1 * Psi_2 * Psi_3, the 4k-dimensional twisting factor."""
    kinds = (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)
    return direction_series([(k, 1, 1) for k in kinds], 0, x_order, q_order)


def x_over_phi(x_order, q_order):
    """The unit series x / Phi(x) (the per-Chern-root A-hat-type factor)."""
    return direction_series([(ThetaKind.THETA, 1, 1)], 0, x_order, q_order)


# -- Jacobi identity as a pure q-series statement ---------------------

def jacobi_product(q_order, skip=None):
    """prod_j (1 + q^2j)(1 - q^(4j-2)), optionally skipping one factor index."""
    res = QSeries.one(q_order)
    for j in range(1, q_order // 2 + 2):
        if j == skip:
            continue
        res = res * _one_pm_q(1, 2 * j, q_order)
        res = res * _one_pm_q(-1, 4 * j - 2, q_order)
    return res


def jacobi_check(q_order, skip=None):
    """The Jacobi triple-null identity reduced to prod (1+q^2j)(1-q^(4j-2)) = 1."""
    return jacobi_product(q_order, skip=skip).is_one()


# -- numeric evaluator ------------------------------------------------

def numeric_theta(kind, z, tau, terms=60):
    """Evaluate a theta function at complex (z, tau), Im(tau) > 0, via its product."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    q = cmath.exp(1j * math.pi * tau)
    q2 = q * q
    e = cmath.exp(2j * math.pi * z)
    if kind == ThetaKind.THETA:
        val = 2 * cmath.exp(1j * math.pi * tau / 4) * cmath.sin(math.pi * z)
    elif kind == ThetaKind.THETA1:
        val = 2 * cmath.exp(1j * math.pi * tau / 4) * cmath.cos(math.pi * z)
    else:
        val = 1.0 + 0j
    for j in range(1, terms + 1):
        qe = q2 ** j
        qo = q ** (2 * j - 1)
        val *= 1 - qe
        if kind == ThetaKind.THETA:
            val *= (1 - e * qe) * (1 - qe / e)
        elif kind == ThetaKind.THETA1:
            val *= (1 + e * qe) * (1 + qe / e)
        elif kind == ThetaKind.THETA2:
            val *= (1 - e * qo) * (1 - qo / e)
        else:
            val *= (1 + e * qo) * (1 + qo / e)
    return val


_DEFAULT_SAMPLES = [
    (0.30 + 0.10j, 0.20 + 1.50j),
    (-0.20 + 0.24j, -0.40 + 1.10j),
    (0.11 - 0.31j, 1.0 / 3.0 + 1.90j),
    (0.42 + 0.05j, 0.70 + 1.20j),
    (0.05 + 0.17j, 1.60j),
]


def _rel_err(lhs, rhs):
    scale = max(abs(lhs), abs(rhs), 1e-12)
    return abs(lhs - rhs) / scale


def numeric_transform_suite(samples=None, tol=1e-9, terms=60):
    """Check the modular and lattice transformation laws at sampled points.

    Returns a dict with per-identity max relative errors and a 'passed' flag.
    """
    if samples is None:
        samples = _DEFAULT_SAMPLES
    for _, tau in samples:
        if tau.imag < 1:
            raise ValueError("samples must have Im(tau) >= 1")
    K = ThetaKind
    th = lambda k, z, t: numeric_theta(k, z, t, terms)

    def s_prefactor(z, tau):
        return cmath.sqrt(tau / 1j) * cmath.exp(1j * math.pi * tau * z * z)

    def lattice_factor(b, z, tau):
        return cmath.exp(-2j * math.pi * b * z - 1j * math.pi * b * b * tau)

    q_of = lambda tau: cmath.exp(1j * math.pi * tau)
    checks = {
        "T:theta": lambda z, t: (th(K.THETA, z, t + 1),
                                 cmath.exp(1j * math.pi / 4) * th(K.THETA, z, t)),
        "T:theta1": lambda z, t: (th(K.THETA1, z, t + 1),
                                  cmath.exp(1j * math.pi / 4) * th(K.THETA1, z, t)),
        "T:theta2": lambda z, t: (th(K.THETA2, z, t + 1), th(K.THETA3, z, t)),
        "T:theta3": lambda z, t: (th(K.THETA3, z, t + 1), th(K.THETA2, z, t)),
        "S:theta": lambda z, t: (th(K.THETA, z, -1 / t),
                                 s_prefactor(z, t) / 1j * th(K.THETA, t * z, t)),
        "S:theta1": lambda z, t: (th(K.THETA1, z, -1 / t),
                                  s_prefactor(z, t) * th(K.THETA2, t * z, t)),
        "S:theta2": lambda z, t: (th(K.THETA2, z, -1 / t),
                                  s_prefactor(z, t) * th(K.THETA1, t * z, t)),
        "S:theta3": lambda z, t: (th(K.THETA3, z, -1 / t),
                                  s_prefactor(z, t) * th(K.THETA3, t * z, t)),
        "z+1:theta": lambda z, t: (th(K.THETA, z + 1, t), -th(K.THETA, z, t)),
        "z+1:theta1": lambda z, t: (th(K.THETA1, z + 1, t), -th(K.THETA1, z, t)),
        "z+1:theta2": lambda z, t: (th(K.THETA2, z + 1, t), th(K.THETA2, z, t)),
        "z+1:theta3": lambda z, t: (th(K.THETA3, z + 1, t), th(K.THETA3, z, t)),
        "z+tau:theta": lambda z, t: (
            th(K.THETA, z + t, t),
            -cmath.exp(-2j * math.pi * z) / q_of(t) * th(K.THETA, z, t)),
        "z+tau:theta1": lambda z, t: (
            th(K.THETA1, z + t, t),
            cmath.exp(-2j * math.pi * z) / q_of(t) * th(K.THETA1, z, t)),
        "z+tau:theta2": lambda z, t: (
            th(K.THETA2, z + t, t),
            -cmath.exp(-2j * math.pi * z) / q_of(t) * th(K.THETA2, z, t)),
        "z+tau:theta3": lambda z, t: (
            th(K.THETA3, z + t, t),
            cmath.exp(-2j * math.pi * z) / q_of(t) * th(K.THETA3, z, t)),
        "a=3:theta": lambda z, t: (th(K.THETA, z + 3, t), -th(K.THETA, z, t)),
        "a=2:theta1": lambda z, t: (th(K.THETA1, z + 2, t), th(K.THETA1, z, t)),
        "b=2:theta": lambda z, t: (th(K.THETA, z + 2 * t, t),
                                   lattice_factor(2, z, t) * th(K.THETA, z, t)),
        "b=2:theta1": lambda z, t: (th(K.THETA1, z + 2 * t, t),
                                    lattice_factor(2, z, t) * th(K.THETA1, z, t)),
        "b=2:theta2": lambda z, t: (th(K.THETA2, z + 2 * t, t),
                                    lattice_factor(2, z, t) * th(K.THETA2, z, t)),
        "b=2:theta3": lambda z, t: (th(K.THETA3, z + 2 * t, t),
                                    lattice_factor(2, z, t) * th(K.THETA3, z, t)),
    }
    report = {}
    for name, fn in checks.items():
        worst = 0.0
        for z, t in samples:
            lhs, rhs = fn(z, t)
            worst = max(worst, _rel_err(lhs, rhs))
        report[name] = worst
    return {"errors": report,
            "tol": tol,
            "passed": all(e < tol for e in report.values())}
