"""Jacobi theta expansions.

Formal core: the normalized ratios of the four theta functions become
purely rational power series once the elliptic variable z is rescaled to
x = 2*pi*i*z.  Under that substitution sin(pi*z) -> sinh(x/2)/i and
e^{2*pi*i*z} -> e^x, so

    Phi(x)   = 2*sinh(x/2) * prod_j (1 - e^x q^2j)(1 - e^-x q^2j) / (1 - q^2j)^2
    Psi_1(x) = cosh(x/2)   * prod_j (1 + e^x q^2j)(1 + e^-x q^2j) / (1 + q^2j)^2
    Psi_2(x) =               prod_j (1 - e^x q^(2j-1))(1 - e^-x q^(2j-1)) / (1 - q^(2j-1))^2
    Psi_3(x) =               prod_j (1 + e^x q^(2j-1))(1 + e^-x q^(2j-1)) / (1 + q^(2j-1))^2

with every q^(1/4) prefactor cancelling.  Each factor is a power series
in x truncated at a given x-order, held as a one-generator NilPoly with
cap x_order; its `coeffs` lists the QSeries coefficients by x-degree.  A
separate complex-numeric evaluator checks the analytic transformation
laws, which the formal truncated series cannot see.
"""
from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction

from .nilring import NilPoly
from .qseries import QSeries, RAT_ONE, rat


class ThetaKind(enum.Enum):
    THETA = 0
    THETA1 = 1
    THETA2 = 2
    THETA3 = 3


# -- exponential-type building blocks ---------------------------------

def _x_series(coeffs, q_order):
    """The series sum_k coeffs[k] x^k, truncated after x^(len(coeffs) - 1)."""
    return NilPoly.from_univariate(coeffs, 0, (len(coeffs) - 1,), q_order)


def exp_x(lam, x_order, q_order):
    """e^(lam*x) with exact rational lam."""
    lam = rat(Fraction(lam)) if isinstance(lam, str) else rat(lam)
    out = []
    term = RAT_ONE
    for k in range(x_order + 1):
        out.append(QSeries.constant(term, q_order))
        term = term * lam / (k + 1)
    return _x_series(out, q_order)


def two_sinh_half(x_order, q_order):
    """2*sinh(x/2) = e^(x/2) - e^(-x/2)."""
    half = rat(Fraction(1, 2))
    return exp_x(half, x_order, q_order) - exp_x(-half, x_order, q_order)


def cosh_half(x_order, q_order):
    """cosh(x/2)."""
    half = rat(Fraction(1, 2))
    s = exp_x(half, x_order, q_order) + exp_x(-half, x_order, q_order)
    return s * rat(Fraction(1, 2))


def _exp_factor(sign, q_exp, lam_sign, x_order, q_order):
    """The series 1 + sign * q^q_exp * e^(lam_sign * x/1)."""
    t = QSeries.monomial(sign, q_exp, q_order)
    out = []
    term = RAT_ONE
    for k in range(x_order + 1):
        c = t * term
        if k == 0:
            c = c + 1
        out.append(c)
        term = term * lam_sign / (k + 1)
    return _x_series(out, q_order)


def _one_pm_q(sign, q_exp, q_order):
    return QSeries.one(q_order) + QSeries.monomial(sign, q_exp, q_order)


def phi(x_order, q_order):
    """Normalized theta ratio Phi(x) = 2*pi*i * theta(x/(2*pi*i)) / theta'(0).

    Odd in x, leading term x.
    """
    res = two_sinh_half(x_order, q_order)
    den = QSeries.one(q_order)
    for j in range(1, q_order // 2 + 1):
        res = res * _exp_factor(-1, 2 * j, 1, x_order, q_order)
        res = res * _exp_factor(-1, 2 * j, -1, x_order, q_order)
        den = den * _one_pm_q(-1, 2 * j, q_order) ** 2
    return res * den.inv_unit()


def psi(kind, x_order, q_order):
    """Normalized ratio Psi_i(x) = theta_i(x/(2*pi*i)) / theta_i(0), i = 1, 2, 3."""
    if kind == ThetaKind.THETA1:
        res = cosh_half(x_order, q_order)
        sign, exps = 1, [2 * j for j in range(1, q_order // 2 + 1)]
    elif kind == ThetaKind.THETA2:
        res = NilPoly.one((x_order,), q_order)
        sign, exps = -1, [2 * j - 1 for j in range(1, (q_order + 1) // 2 + 1)]
    elif kind == ThetaKind.THETA3:
        res = NilPoly.one((x_order,), q_order)
        sign, exps = 1, [2 * j - 1 for j in range(1, (q_order + 1) // 2 + 1)]
    else:
        raise ValueError("psi is defined for THETA1, THETA2, THETA3")
    den = QSeries.one(q_order)
    for e in exps:
        res = res * _exp_factor(sign, e, 1, x_order, q_order)
        res = res * _exp_factor(sign, e, -1, x_order, q_order)
        den = den * _one_pm_q(sign, e, q_order) ** 2
    return res * den.inv_unit()


def psi_product(x_order, q_order):
    """Psi_1 * Psi_2 * Psi_3, the 4k-dimensional twisting factor."""
    return (psi(ThetaKind.THETA1, x_order, q_order)
            * psi(ThetaKind.THETA2, x_order, q_order)
            * psi(ThetaKind.THETA3, x_order, q_order))


def x_over_phi(x_order, q_order):
    """The unit series x / Phi(x) (the per-Chern-root A-hat-type factor)."""
    return _x_series(phi(x_order + 1, q_order).coeffs[1:], q_order).inv_unit()


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
