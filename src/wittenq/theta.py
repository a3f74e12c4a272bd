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
G_2k = -B_2k/(4k) + sum_N sigma_(2k-1)(N) q^N (Zagier 1988), and log Psi_1
has a sign-twisted analogue (see `_log_columns`).  The Bernoulli
numbers come from integer tangent numbers, which end the odd rows of
Seidel's boustrophedon, so a longer table extends a shorter one.  Each
factor is then one exponential of an integer combination of these
logarithms at multiples m*x.  One helper, `_exponent`, checks the terms
and builds the exponent's int columns, and two readers exponentiate it:
`direction_series` the whole series, of which `phi`, `x_over_phi`,
Psi_1 and `psi_product`, (x/Phi(x)) / (2x/Phi(2x)) by the duplication
formula Phi(2x) = 2 Phi(x) Psi_1Psi_2Psi_3(x), are each one call, and
`direction_coefficient` its one top coefficient, which is a one-factor
genus (the genera over two or more factors are a Riemann-Roch sum,
`genera._index_sum`).  The bundle route (`bundles`) keeps the product
formulas and is the independent oracle these builders are checked
against.

`direction_series` runs the recurrence of exp on int columns
(`_exp_steps`): with g_n = n! f_n and d_k = den(B_2k/2k), which clears
(2k)! times both logarithms' x^2k coefficients, delta_h =
2 den(B_2h) delta_(h-1) clears g_2h, so each step is an integer
combination of int columns with cached integer weights, and each
coefficient is reduced once.  It returns the tuple of QSeries
coefficients by x-degree (an `XSeries`), which `psi_product`,
`x_over_phi` and (shifted by one degree) `phi` return.
`direction_coefficient` splits exp(L) at the exponent's q^0 part, so
only a scalar chain carries delta_h.  The genera keep its results in
one bounded cache (`genera._factor`).  A separate
complex-numeric evaluator checks the analytic transformation laws,
which the formal truncated series cannot see.
"""
from __future__ import annotations

import cmath
import collections
import enum
import functools
import itertools
import math
import operator
from fractions import Fraction

from .qseries import QSeries, XSeries, _check_int, q_product


class ThetaKind(enum.IntEnum):
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
def _bernoulli_table(x_order):
    """The integer tables (B, row) to x^x_order.

    For k = 1..x_order // 2, B[k] is the reduced (num, den) of
    B_2k/2k = (-1)^(k-1) T_k / (4^k (4^k - 1)), from the tangent number
    T_k with one gcd; d_k = B[k][1] clears every kind's (2k)! L_2k
    (`_log_columns`), and B[0] = (0, 1).  T_k ends row 2k - 1 of Seidel's
    boustrophedon: row n is 0 followed by the running sums of row n - 1
    reversed (1; 0 1; 0 1 1; 0 1 2 2; ...), so each row needs only the
    one before it; `row` is the last one built, row 2 (x_order // 2),
    which a longer table goes on from.  Like `_log_columns`, a table
    extends the cached one 16 x-degrees shorter.
    """
    B, row = (map(list, _bernoulli_table(x_order - 16)) if x_order > 16
              else ([(0, 1)], [1]))
    for h in range(len(B), x_order // 2 + 1):
        row = list(itertools.accumulate(reversed(row), initial=0))  # T_h
        d = 4 ** h * (4 ** h - 1)
        g = math.gcd(row[-1], d)
        B.append(((-1) ** (h - 1) * (row[-1] // g), d // g))
        row = list(itertools.accumulate(reversed(row), initial=0))
    return tuple(B), tuple(row)


@functools.lru_cache(maxsize=None)
def _tables(x_order):
    """The integer tables (W, delta, den, C) of the exponential to
    x^x_order.

    C[h] lists the binomials C(2h-1, 2k-1) and W[h] the ints
    C(2h-1, 2k-1) delta_h / (d_k delta_(h-k)) for k = 1..h, and
    den[h] = delta_h (2h)!, with delta_0 = 1,
    delta_h = lcm_(k<=h) d_k delta_(h-k) and d_k = den(B_2k/2k) from
    `_bernoulli_table`; see `direction_series` and
    `direction_coefficient`.  delta_h is computed as
    2 den(B_2h) delta_(h-1), with den(B_2h) = d_h / gcd(d_h, 2h): by von
    Staudt-Clausen and Adams, v_p(d_k) = 1 + v_p(2k) if (p - 1) | 2k, else
    0, so the lcm has v_p = floor(2h/(p - 1)) (from 2k = p - 1) for odd p
    and 2h (from k = 1) for p = 2, which grow from h - 1 to h by 1 iff
    p | den(B_2h), and by 2 at p = 2.  A table extends the cached one 16
    x-degrees shorter.
    """
    B = _bernoulli_table(x_order)[0]
    W, delta, den, C = (map(list, _tables(x_order - 16)) if x_order > 16
                        else ([()], [1], [1], [()]))
    for h in range(len(W), x_order // 2 + 1):
        d = B[h][1]
        delta.append(2 * d // math.gcd(d, 2 * h) * delta[h - 1])
        C.append(tuple(math.comb(2 * h - 1, 2 * k - 1)
                       for k in range(1, h + 1)))
        W.append(tuple(c * delta[h] // (B[k][1] * delta[h - k])
                       for k, c in enumerate(C[h], 1)))
        den.append(delta[h] * math.factorial(2 * h))
    return tuple(map(tuple, (W, delta, den, C)))


def bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2) of an int n >= 0, read from
    B_2k/2k in `_bernoulli_table`, which builds no exponential weight; any
    other n raises TypeError or ValueError."""
    _check_int(n, "n")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    num, den = _bernoulli_table(_granular(n))[0][n // 2]
    return Fraction(n * num, den)


def eisenstein_g(k, q_order):
    """G_2k(q^2) = -B_2k/(4k) + sum_N sigma_(2k-1)(N) q^(2N), k >= 1: the
    x/Phi log column k over 2 d_k (see `_log_columns`)."""
    _check_int(k, "k", 1)
    _check_int(q_order, "q_order")
    xg = _granular(2 * k)
    col = _log_columns(ThetaKind.THETA, xg, q_order)[k]
    return QSeries._make(list(col), 2 * _bernoulli_table(xg)[0][k][1],
                         q_order)


@functools.lru_cache(maxsize=None)
def _log_columns(kind, x_order, q_order):
    """The int columns N_k = d_k (2k)! L_2k over q^0..q^q_order of the
    logarithm L of `kind`, by k = 0..x_order // 2.

    THETA stands for x/Phi and THETA1 for Psi_1, the two logarithms the
    genera read.  Each is even in x with no constant term, and its x^2k
    coefficient L_2k is 2/(2k)! times
        x/Phi:  G_2k(q^2)
        Psi_1:  (2^2k - 1) B_2k/(4k) + sum_N sum_(m|N) (-1)^(m+1) m^(2k-1) q^(2N)
    from log(1 + t e^x) + log(1 + t e^-x) - 2 log(1 + t)
    = -sum_m (-t)^m/m * 2 sum_k (mx)^2k/(2k)! and the Taylor series of
    log(sinh(x/2)/(x/2)) and log cosh(x/2).  So (2k)! L_2k is -B_2k/2k
    (x/Phi) or (4^k - 1) B_2k/2k (Psi_1) plus twice an integral divisor
    sum, and d_k = den(B_2k/2k), read from `_bernoulli_table`, clears it.
    These columns are the package's one source of Eisenstein series:
    `eisenstein_g` and `modforms.eisenstein` read the x/Phi columns.  A
    table extends the cached one 16 x-degrees shorter.
    """
    alternating = kind == ThetaKind.THETA1
    cols = (list(_log_columns(kind, x_order - 16, q_order)) if x_order > 16
            else [(0,) * (q_order + 1)])
    B = _bernoulli_table(x_order)[0]
    for k in range(len(cols), x_order // 2 + 1):
        num, den = B[k]
        s = 2 * den
        col = [0] * (q_order + 1)
        col[0] = (4 ** k - 1 if alternating else -1) * num
        # sum over m*e = N, e even, of eps^(m+1) m^(2k-1); eps = -1 for Psi_1
        for m in range(1, q_order + 1):
            w = (-s if alternating and m % 2 == 0 else s) * m ** (2 * k - 1)
            for N in range(2 * m, q_order + 1, 2 * m):
                col[N] += w
        cols.append(tuple(col))
    return tuple(cols)


# -- exponentials -----------------------------------------------------

def _exponent(terms, x_order, q_order):
    """The int columns N_k = d_k (2k)! L_2k over q^0..q^q_order,
    k = 0..x_order // 2, of the exponent L = sum of coef * log_kind(m*y)
    over terms, after the exponential builders' argument checks.

    terms holds triples (kind, coef, m) of ints, kind THETA (x/Phi) or
    THETA1 (Psi_1), a logarithm of `_log_columns`.  L_2k is the sum over
    kinds of the integer power sum p_2k = sum coef * m^2k times log_kind's
    L_2k, so N_k is the sum of p_2k times the cached int columns.  A
    negative x_order or q_order raises ValueError, and so does another
    kind (THETA2, THETA3 or an int, which would key THETA's or THETA1's
    cached columns); a size, coef or m that is not a plain int raises
    TypeError.
    """
    _check_int(x_order, "x_order")
    _check_int(q_order, "q_order")
    powers = {}
    for kind, coef, m in terms:
        if not isinstance(kind, ThetaKind) or kind > ThetaKind.THETA1:
            raise ValueError(f"no logarithm for {kind!r}")
        _check_int(coef, "coef", None)
        _check_int(m, "m", None)
        powers.setdefault(kind, []).append((coef, m))
    H = x_order // 2
    N = [[0] * (q_order + 1) for _ in range(H + 1)]
    for kind, pairs in powers.items():
        table = _log_columns(kind, _granular(x_order), q_order)
        # the power sums p_2k for k = 0..H, each coef * m^2k a running
        # product
        powers_2k = [itertools.accumulate(itertools.repeat(m * m, H),
                                          operator.mul, initial=coef)
                     for coef, m in pairs]
        for k, p in enumerate(map(sum, zip(*powers_2k))):
            N[k] = [a + p * c for a, c in zip(N[k], table[k])]
    return N


def _exp_steps(weights, cols, qn):
    """The int columns G_1, G_2, ... over q^0..q^(qn - 1) of
        G_h = sum_(k=1..h) weights[h][k-1] cols[k] G_(h-k),  G_0 = 1,
    for h up to len(cols) - 1, one column a step.

    The term k = h is weights[h][-1] cols[h].  The others sum over k as
    int dot products, one per pair of q-degrees, in a step with at least
    as many terms as q-degrees, and convolve each term in q, skipping
    zero coefficients, in a shorter one.  Either way a q-degree where no
    column or no G_h, h >= 1, can be nonzero is skipped.
    """
    H = len(cols) - 1
    nz = [i for i in range(qn) if any(col[i] for col in cols)]
    n_deg = [[i for i in nz if col[i]] for col in cols[:qn]]
    N_t = {i: [cols[k][i] for k in range(1, H + 1)] for i in nz}
    # every G_h, h >= 1, is a sum of products of columns, so it lives on
    # the q-degrees from the columns' lowest, and on even ones if theirs
    # are all even
    live = range(nz[0] if nz else qn, qn,
                 2 if all(i % 2 == 0 for i in nz) else 1)
    # G_h as (q-degree, value) pairs of its nonzero entries for the
    # convolutions, which stop below h = qn, and G_t[j] listing
    # G_(h-1)[j], ..., G_1[j] for the dot products
    G_nz, G_t = [[]], [collections.deque() for _ in range(qn)]
    mul = operator.mul
    for h in range(1, H + 1):
        w = weights[h]
        out = [w[-1] * c for c in cols[h]]
        if h >= qn:
            for i in nz:
                if not live or i + live[0] >= qn:
                    break
                a = list(map(mul, w, N_t[i]))
                for j in live:
                    if i + j >= qn:
                        break
                    out[i + j] += sum(map(mul, a, G_t[j]))
        else:
            for k in range(1, h):
                Nk, g = cols[k], G_nz[h - k]
                for i in n_deg[k]:
                    t = w[k - 1] * Nk[i]
                    for j, v in g:
                        if i + j >= qn:
                            break
                        out[i + j] += t * v
        if h < qn:
            G_nz.append([(j, v) for j, v in enumerate(out) if v])
        for g, v in zip(G_t, out):
            g.appendleft(v)
        yield out


def direction_series(terms, x_order, q_order):
    """exp(sum of coef * log_kind(m*y) over terms) to y^x_order: the tuple
    (an `XSeries`) of its QSeries coefficients by y-degree 0..x_order.

    The terms and sizes are read and checked by `_exponent`.  The
    exponent L is even in y with no constant term, so f = exp(L) has
    f_0 = 1, f_odd = 0 and, from f' = L'f, n f_n = sum_j j L_j f_(n-j).

    The recurrence runs on int columns (`_exp_steps`).  With g_n = n! f_n
    and Lambda_2k = (2k)! L_2k it reads
        g_2h = sum_(k=1..h) C(2h-1, 2k-1) Lambda_2k g_(2h-2k).
    d_k = den(B_2k/2k) clears Lambda_2k for both kinds (`_log_columns`),
    so N_k = d_k Lambda_2k is an int column.  By induction
    delta_h = lcm_(k<=h) d_k delta_(h-k) clears g_2h: the k-th term of
    g_2h has a denominator dividing d_k delta_(h-k).  Then
    G_h = delta_h g_2h is an int column with
        G_h = sum_k W[h][k] N_k G_(h-k),
        W[h][k] = C(2h-1, 2k-1) delta_h / (d_k delta_(h-k)),
    integer weights that depend on h and k only and are cached per
    granular x-order (`_tables`).  A step makes no lcm and no gcd;
    f_2h = G_h / (delta_h (2h)!) is reduced once, by `QSeries._make`.
    """
    N = _exponent(terms, x_order, q_order)
    W, _, den, _ = _tables(_granular(x_order))
    zero, f = QSeries.zero(q_order), [QSeries.one(q_order)]
    for h, G in enumerate(_exp_steps(W, N, q_order + 1), 1):
        f += [zero, QSeries._make(G, den[h], q_order)]
    return XSeries(f + [zero] * (x_order % 2))


def direction_coefficient(terms, x_order, q_order):
    """direction_series(terms, x_order, q_order)[x_order] alone: one
    QSeries, zero for an odd x_order, with the same checks (`_exponent`).

    exp(L) = A E splits at the q^0 part L^0 of the exponent.
    A = exp(L^0) is the q^0 column of `direction_series`'s recurrence,
    the int chain G_h = sum_k W[h][k] N_k[0] G_(h-k).  E = exp(L^+) is
    nilpotent in q; it runs on Hurwitz ints e_h = (2h)! E_2h,
        e_h = sum_(k=1..h) C(2h-1, 2k-1) (N_k / d_k) e_(h-k)
    over the q-degrees i >= 1 of N_k, every one of which is a multiple
    of 2 d_k (`_log_columns`).  With x_order = 2H and delta_(H-k)
    dividing delta_H, the coefficient is
        sum_k C(2H, 2k) (delta_H / delta_(H-k)) G_(H-k) e_k
    over delta_H (2H)!, reduced once.  Only the scalar chain carries
    delta_h, so the ints are far smaller than the whole series'.
    """
    N = _exponent(terms, x_order, q_order)
    if x_order % 2:
        return QSeries.zero(q_order)
    xg, H = _granular(x_order), x_order // 2
    W, delta, den, C = _tables(xg)
    B = _bernoulli_table(xg)[0]
    mul, n0, A = operator.mul, [col[0] for col in N[1:]], [1]
    for w in W[1:H + 1]:
        A.append(sum(map(mul, map(mul, w, n0), reversed(A))))
    plus = [[0] + [c // B[k][1] for c in col[1:]] for k, col in enumerate(N)]
    E = [[1] + [0] * q_order, *_exp_steps(C, plus, q_order + 1)]
    row = [math.comb(2 * H, 2 * k) * (delta[H] // delta[H - k]) * A[H - k]
           for k in range(H + 1)]
    return QSeries._make([sum(map(mul, row, col)) for col in zip(*E)],
                         den[H], q_order)


def phi(x_order, q_order):
    """Normalized theta ratio Phi(x) = 2*pi*i * theta(x/(2*pi*i)) / theta'(0).

    Odd in x, leading term x: Phi = x * exp(-log(x/Phi)).
    """
    _check_int(x_order, "x_order")
    f = direction_series([(ThetaKind.THETA, -1, 1)], max(x_order - 1, 0),
                         q_order)
    return XSeries(((QSeries.zero(q_order),) + f)[:x_order + 1])


def psi_product(x_order, q_order):
    """Psi_1 * Psi_2 * Psi_3, the 4k-dimensional twisting factor, by the
    duplication formula Phi(2x) = 2 Phi(x) Psi_1Psi_2Psi_3(x)."""
    th = ThetaKind.THETA
    return direction_series([(th, 1, 1), (th, -1, 2)], x_order, q_order)


def x_over_phi(x_order, q_order):
    """The unit series x / Phi(x) (the per-Chern-root A-hat-type factor)."""
    return direction_series([(ThetaKind.THETA, 1, 1)], x_order, q_order)


# -- Jacobi identity as a pure q-series statement ---------------------

def jacobi_check(q_order):
    """The Jacobi triple-null identity reduced to
    prod (1+q^2j)(1-q^(4j-2)) = 1."""
    _check_int(q_order, "q_order")
    return q_product([f for j in range(1, q_order // 2 + 2)
                      for f in ((1, 2 * j), (-1, 4 * j - 2))],
                     q_order).is_one()


# -- numeric evaluator ------------------------------------------------

_MAX_TERMS = 2000


def numeric_theta(kind, z, tau, terms=None):
    """Evaluate a theta function at complex (z, tau), Im(tau) > 0, from its
    product over j = 1..terms, with q = e^(pi i tau) and e = e^(2 pi i z):

        prefactor * prod_j (1 - q^2j)(1 + s e t_j)(1 + s t_j / e),

    where t_j = q^2j for THETA and THETA1 (prefactor 2 q^(1/4) sin(pi z)
    and 2 q^(1/4) cos(pi z)) and t_j = q^(2j-1) for THETA2 and THETA3
    (prefactor 1), and s = -1 for THETA and THETA2, +1 for the others.
    q^2j and t_j are running products, one complex multiply a step.

    By default `terms` is the fewest J whose tail bound
    (|q|^(2J+1) (|e| + 1/|e|) + |q|^(2J+2)) / (1 - |q|^2) >= sum |u_j| over
    the dropped factors 1 + u_j is below 2^-60: 4 to 14 at the suite's 150
    points.  A point that needs more than _MAX_TERMS, a kind that is not a
    ThetaKind, or a negative `terms` raises ValueError; `terms` that is
    not a plain int raises TypeError.
    """
    if not isinstance(kind, ThetaKind):
        raise ValueError(f"no theta function {kind!r}")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    q = cmath.exp(1j * math.pi * tau)
    q2 = q * q
    e = cmath.exp(2j * math.pi * z)
    if terms is None:
        r = abs(q)
        tail, eps = r * (abs(e) + 1 / abs(e) + r), 2.0 ** -60 * (1 - r * r)
        terms = next((J for J in range(_MAX_TERMS + 1)
                      if tail * r ** (2 * J) < eps), -1)
        if terms < 0:
            raise ValueError(f"theta at tau={tau} needs over {_MAX_TERMS} "
                             f"factors")
    else:
        _check_int(terms, "terms")
    if kind == ThetaKind.THETA:
        val = 2 * cmath.exp(1j * math.pi * tau / 4) * cmath.sin(math.pi * z)
    elif kind == ThetaKind.THETA1:
        val = 2 * cmath.exp(1j * math.pi * tau / 4) * cmath.cos(math.pi * z)
    else:
        val = 1.0 + 0j
    s = -1 if kind in (ThetaKind.THETA, ThetaKind.THETA2) else 1
    t = q2 if kind in (ThetaKind.THETA, ThetaKind.THETA1) else q
    se, si = s * e, s / e
    qe = q2
    for _ in range(terms):
        val *= (1 - qe) * (1 + se * t) * (1 + si * t)
        qe *= q2
        t *= q2
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


def numeric_transform_suite():
    """Check the modular and lattice transformation laws at _DEFAULT_SAMPLES.

    Returns a dict with per-identity max relative errors, the tolerance
    1e-9 and a 'passed' flag.  Each distinct (kind, z, tau) is evaluated
    once per call.
    """
    K = ThetaKind
    th = functools.cache(numeric_theta)
    eighth = cmath.exp(1j * math.pi / 4)

    def t_law(k, k_to, c):  # th(k, z, tau + 1) = c th(k_to, z, tau)
        return lambda z, t: (th(k, z, t + 1), c * th(k_to, z, t))

    def s_law(k, k_to, c):
        # th(k, z, -1/tau) = c sqrt(tau/i) e^(pi i tau z^2) th(k_to, tau z)
        return lambda z, t: (th(k, z, -1 / t), c * cmath.sqrt(t / 1j)
                             * cmath.exp(1j * math.pi * t * z * z)
                             * th(k_to, t * z, t))

    def lattice(k, a, b):
        # th(k, z + a + b tau) = +-e^(-2 pi i b z - pi i b^2 tau) th(k, z),
        # the sign (-1)^a for THETA and THETA1 times (-1)^b for THETA, THETA2
        sign = (-1) ** (a * (k in (K.THETA, K.THETA1))
                        + b * (k in (K.THETA, K.THETA2)))
        return lambda z, t: (th(k, z + a + b * t, t), sign * cmath.exp(
            -2j * math.pi * b * z - 1j * math.pi * b * b * t) * th(k, z, t))

    checks = {}
    for law, build, images in (
            ("T", t_law, ((K.THETA, eighth), (K.THETA1, eighth), (K.THETA3, 1),
                          (K.THETA2, 1))),
            ("S", s_law, ((K.THETA, -1j), (K.THETA2, 1), (K.THETA1, 1),
                          (K.THETA3, 1)))):
        for k, (k_to, c) in zip(K, images):
            checks[f"{law}:{k.name.lower()}"] = build(k, k_to, c)
    for law, a, b, kinds in (("z+1", 1, 0, K), ("z+tau", 0, 1, K),
                             ("a=3", 3, 0, [K.THETA]),
                             ("a=2", 2, 0, [K.THETA1]), ("b=2", 0, 2, K)):
        for k in kinds:
            checks[f"{law}:{k.name.lower()}"] = lattice(k, a, b)
    report = {}
    for name, fn in checks.items():
        worst = 0.0
        for z, t in _DEFAULT_SAMPLES:
            lhs, rhs = fn(z, t)
            worst = max(worst, _rel_err(lhs, rhs))
        report[name] = worst
    return {"errors": report,
            "tol": 1e-9,
            "passed": all(e < 1e-9 for e in report.values())}
