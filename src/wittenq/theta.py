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
Psi_i have sign-twisted analogues (see `_log_columns`).  The Bernoulli
numbers come from integer tangent numbers (Brent and Harvey 2011).  Each
factor is then one exponential of its logarithm, computed exactly by
`direction_series`, the one exponential builder: it exponentiates an
integer combination of these logarithms at multiples m*x, so `phi`, `psi`,
`psi_product`, `x_over_phi` and the merged direction factors of the
theta-route genera are each one call of it.
The bundle route (`bundles`) keeps the product formulas and is the
independent oracle these builders are checked against.

`direction_series` runs the recurrence of exp on int columns: with
g_n = n! f_n and d_k = den(B_2k/2k), which clears (2k)! times every
kind's x^2k log coefficient, delta_h = lcm_k d_k delta_(h-k) clears g_2h,
so each step is an integer combination of int columns with cached integer
weights, and each coefficient is reduced once.  It returns the tuple of
QSeries coefficients by x-degree (an `XSeries`), which the genera keep in
a bounded cache by merged exponent (`genera._exponential`) and which
`phi`, `psi`, `psi_product` and `x_over_phi` return as it is.  A separate
complex-numeric evaluator checks the analytic transformation laws, which
the formal truncated series cannot see.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
from fractions import Fraction

from .qseries import QSeries, XSeries


class ThetaKind(enum.Enum):
    THETA = 0
    THETA1 = 1
    THETA2 = 2
    THETA3 = 3


# -- logarithms: Bernoulli numbers and divisor sums -------------------

def _granular(x_order):
    """x_order rounded up to a multiple of 16, so nearby sizes share a cache.

    Consumers of a factor only read coefficients up to the degree they
    need, and truncating a series in x leaves lower coefficients untouched.
    """
    return -(-max(x_order, 1) // 16) * 16


@functools.lru_cache(maxsize=None)
def _tangent_numbers(count):
    """(0, T_1, ..., T_count), the tangent numbers T_k = 1, 2, 16, 272, ...

    Brent and Harvey's in-place integer recurrence ("Fast computation of
    Bernoulli, tangent and secant numbers", 2011): O(count^2) int steps.
    """
    T = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(T)


def bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2), n >= 0.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers,
    whose table is cached at a granular size.
    """
    if n < 0:
        raise ValueError(f"Bernoulli numbers need n >= 0, got {n}")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k = n // 2
    t = _tangent_numbers(_granular(k))[k]
    return Fraction((-1) ** (k - 1) * n * t, 4 ** k * (4 ** k - 1))


def eisenstein_g(k, q_order):
    """G_2k(q^2) = -B_2k/(4k) + sum_N sigma_(2k-1)(N) q^(2N), k >= 1: the
    x/Phi log column k over 2 d_k (see `_log_columns`)."""
    if k < 1 or q_order < 0:
        raise ValueError(f"eisenstein_g needs k >= 1 and q_order >= 0, "
                         f"got k={k}, q_order={q_order}")
    col = _log_columns(ThetaKind.THETA, _granular(2 * k), q_order)[k]
    return QSeries._make(list(col), 2 * _den_bound(k), q_order)


def _den_bound(k):
    """d_k = den(B_2k / 2k), which every kind's d_k (2k)! L_2k clears."""
    return (bernoulli(2 * k) / (2 * k)).denominator


@functools.lru_cache(maxsize=None)
def _log_columns(kind, x_order, q_order):
    """The int columns N_k = d_k (2k)! L_2k over q^0..q^q_order of the
    logarithm L of `kind`, by k = 0..x_order // 2.

    THETA stands for x/Phi; THETA1..3 for Psi_1..3.  Every logarithm is
    even in x with no constant term, and its x^2k coefficient L_2k is
    2/(2k)! times
        x/Phi:  G_2k(q^2)
        Psi_1:  (2^2k - 1) B_2k/(4k) + sum_N sum_(m|N) (-1)^(m+1) m^(2k-1) q^(2N)
        Psi_2:  -sum_N sum_(m|N, N/m odd) m^(2k-1) q^N
        Psi_3:  sum_N sum_(m|N, N/m odd) (-1)^(m+1) m^(2k-1) q^N
    from log(1 + t e^x) + log(1 + t e^-x) - 2 log(1 + t)
    = -sum_m (-t)^m/m * 2 sum_k (mx)^2k/(2k)! and the Taylor series of
    log(sinh(x/2)/(x/2)) and log cosh(x/2).  So (2k)! L_2k is -B_2k/2k
    (x/Phi), (4^k - 1) B_2k/2k (Psi_1) or 0 (Psi_2, Psi_3) plus twice an
    integral divisor sum, and d_k = `_den_bound`(k) clears it.  These
    columns are the package's one source of Eisenstein series:
    `eisenstein_g` and `modforms.eisenstein` read the x/Phi columns.
    A table extends the cached one 16 x-degrees shorter.
    """
    if not isinstance(kind, ThetaKind):
        raise ValueError(f"no logarithm for {kind}")
    K = ThetaKind
    odd = kind in (K.THETA2, K.THETA3)
    alternating = kind in (K.THETA1, K.THETA3)
    cols = (list(_log_columns(kind, x_order - 16, q_order)) if x_order > 16
            else [(0,) * (q_order + 1)])
    for k in range(len(cols), x_order // 2 + 1):
        b = bernoulli(2 * k) / (2 * k)
        s = -2 * b.denominator if kind == K.THETA2 else 2 * b.denominator
        col = [0] * (q_order + 1)
        col[0] = {K.THETA: -1, K.THETA1: 4 ** k - 1}.get(kind, 0) * b.numerator
        # sum over m * e = N of eps^(m+1) m^(2k-1), e odd (Psi_2, Psi_3)
        # or even, eps = -1 when alternating
        for m in range(1, q_order + 1):
            w = (-s if alternating and m % 2 == 0 else s) * m ** (2 * k - 1)
            for N in range(m if odd else 2 * m, q_order + 1, 2 * m):
                col[N] += w
        cols.append(tuple(col))
    return tuple(cols)


# -- exponentials -----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _exp_weights(x_order):
    """(W, delta, den) of the integer exponential recurrence to x^x_order.

    W[h] lists the ints C(2h-1, 2k-1) delta_h / (d_k delta_(h-k)) for
    k = 1..h and den[h] = delta_h (2h)!, with d_k = `_den_bound`(k),
    delta_0 = 1 and delta_h = lcm_(k<=h) d_k delta_(h-k); see
    `direction_series`.  A table extends the cached one 16 x-degrees
    shorter.
    """
    W, delta, den = (map(list, _exp_weights(x_order - 16)) if x_order > 16
                     else ([()], [1], [1]))
    d = [1] + [_den_bound(k) for k in range(1, x_order // 2 + 1)]
    for h in range(len(W), x_order // 2 + 1):
        delta.append(math.lcm(*(d[k] * delta[h - k] for k in range(1, h + 1))))
        W.append(tuple(math.comb(2 * h - 1, 2 * k - 1) * delta[h]
                       // (d[k] * delta[h - k]) for k in range(1, h + 1)))
        den.append(delta[h] * math.factorial(2 * h))
    return tuple(W), tuple(delta), tuple(den)


def direction_series(terms, r, x_order, q_order):
    """y^r * exp(sum of coef * log_kind(m*y) over terms), to y^x_order,
    as the tuple (an `XSeries`) of its QSeries coefficients by y-degree
    0..x_order.

    terms holds integer triples (kind, coef, m), kind naming a logarithm
    of `_log_columns`.  The exponent L has the y^2k coefficient
    L_2k = sum_kind p_2k * log_kind_2k with the integer power sum
    p_2k = sum coef * m^2k; it is even in y with no constant term, so
    f = exp(L) has f_0 = 1, f_odd = 0 and, from f' = L'f,
    n f_n = sum_j j L_j f_(n-j).  The result is all zero when r > x_order;
    a negative r, x_order or q_order raises ValueError.

    The recurrence runs on int columns.  With g_n = n! f_n and
    Lambda_2k = (2k)! L_2k it reads
        g_2h = sum_(k=1..h) C(2h-1, 2k-1) Lambda_2k g_(2h-2k).
    d_k = den(B_2k/2k) clears Lambda_2k for every kind (`_log_columns`),
    so N_k = d_k Lambda_2k is a sum of p_2k times cached int columns.  By
    induction delta_h = lcm_(k<=h) d_k delta_(h-k) clears g_2h: the
    k-th term of g_2h has a denominator dividing d_k delta_(h-k).  Then
    G_h = delta_h g_2h is an int column with
        G_h = sum_k W[h][k] N_k G_(h-k),
        W[h][k] = C(2h-1, 2k-1) delta_h / (d_k delta_(h-k)),
    integer weights that depend on h and k only and are cached per
    granular x-order (`_exp_weights`).  A step makes no lcm and no gcd;
    f_2h = G_h / (delta_h (2h)!) is reduced once, by `QSeries._make`.
    A step with at least as many terms k as q-degrees sums over k as int
    dot products, one per pair of q-degrees; a shorter step convolves
    each term in q, skipping zero coefficients.
    """
    if min(r, x_order, q_order) < 0:
        raise ValueError(f"direction_series needs r, x_order and q_order "
                         f">= 0, got r={r}, x_order={x_order}, "
                         f"q_order={q_order}")
    zero = QSeries.zero(q_order)
    if r > x_order:
        return XSeries([zero] * (x_order + 1))
    H, qn = (x_order - r) // 2, q_order + 1
    xg = _granular(x_order)
    W, _, den = _exp_weights(xg)
    powers = {}
    for kind, coef, m in terms:
        powers.setdefault(kind, []).append((coef, m))
    tables = [(_log_columns(kind, xg, q_order), pairs)
              for kind, pairs in powers.items()]
    N = [[0] * qn]
    for k in range(1, H + 1):
        col = [0] * qn
        for table, pairs in tables:
            p = sum(coef * m ** (2 * k) for coef, m in pairs)
            col = [a + p * c for a, c in zip(col, table[k])]
        N.append(col)
    # the q-degrees where some N_k is nonzero; with only even ones every
    # G_h has even q-support too
    nz = [i for i in range(qn) if any(col[i] for col in N)]
    g_deg = range(0, qn, 2 if all(i % 2 == 0 for i in nz) else 1)
    n_deg = [[i for i in nz if N[k][i]] for k in range(H + 1)]
    N_t = {i: [N[k][i] for k in range(1, H + 1)] for i in nz}
    # G_h as (q-degree, value) pairs of its nonzero entries, and G_t[j]
    # listing G_0[j], G_1[j], ... for the dot products
    G_nz, G_t = [[(0, 1)]], [[int(j == 0)] for j in range(qn)]
    mul = operator.mul
    f = [QSeries.one(q_order)]
    for h in range(1, H + 1):
        w, out = W[h], [0] * qn
        if h >= qn:
            rev = {j: G_t[j][::-1] for j in g_deg}
            for i in nz:
                a = list(map(mul, w, N_t[i]))
                for j in g_deg:
                    if i + j >= qn:
                        break
                    out[i + j] += sum(map(mul, a, rev[j]))
        else:
            for k in range(1, h + 1):
                Nk, g = N[k], G_nz[h - k]
                for i in n_deg[k]:
                    t = w[k - 1] * Nk[i]
                    for j, v in g:
                        if i + j >= qn:
                            break
                        out[i + j] += t * v
        G_nz.append([(j, v) for j, v in enumerate(out) if v])
        for j in range(qn):
            G_t[j].append(out[j])
        f += [zero, QSeries._make(out, den[h], q_order)]
    if (x_order - r) % 2:
        f.append(zero)
    return XSeries([zero] * r + f)


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

def _one_pm_q(sign, q_exp, q_order):
    return QSeries.one(q_order) + QSeries.monomial(sign, q_exp, q_order)


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
