"""Witten-type genera of GCIs as top-coefficient extraction.

Each genus is the formal residue (coefficient of x_1^{n_1}...x_s^{n_s}) of a
product of per-root factors and theta-ratio twists evaluated on linear forms
in the nilpotent cohomology generators.  Working in the variables
x = 2*pi*i*z removes every transcendental constant: the q^0 coefficient is
the (twisted) A-hat genus and integrality statements hold on the nose.

Two assembly routes are provided for every genus; their agreement is one
of the package's standing oracles.

The "theta" route merges the integrand by direction.  With L = log(x/Phi)
and L1 = log Psi_1 (even in x, see `theta.log_coeffs`) every factor is an
exponential, up to a linear prefactor:

    (x_b/Phi(x_b))^(n_b+1) = exp((n_b+1) L(x_b)),
    Phi(ell)               = ell * exp(-L(ell)),
    Psi_1Psi_2Psi_3(c)     = exp(L(c) - L(2c)),
    Psi_1(ell)             = exp(L1(ell)),

the twist by the duplication formula Phi(2x) = 2 Phi(x) Psi_1Psi_2Psi_3(x).

A linear form ell = m*u with u primitive contributes m^k L_k (u.x)^k to
the exponent, so all the forms on one line u (up to sign, L being even)
fold into one univariate factor y^r_u * exp(sum_k p_(u,k) L_k y^k) in
y = u.x, with integer power sums p_(u,k) = sum coef * m^k and r_u the
number of linear prefactors on u; the integers m of those prefactors
multiply the residue.  The factor of an axis x_b enters as a one-axis
convolution, the others are paired by `rank_pair_mul` (or placed by
`subst_linear`) and the last piece is contracted against the rest with
`top_product`.  Nothing on this route is cached but `theta.log_coeffs`.

The "bundle" route builds one factor per root, degree row and twist from
the symmetric/exterior-power characters of `bundles` and assembles them
with the same nilring primitives.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import bundles, theta
from .errors import DimensionError
from .gci import GCIData, dims, even_rows, p1_matrix
from .nilring import NilPoly, mul_univariate, rank_pair_mul, subst_linear
from .qseries import QSeries, Q2Series, RAT_ZERO, rat
from .theta import ThetaKind


@dataclass
class GenusReport:
    kind: str  # "W" | "Wc4k" | "Wc4k2" | "PHI_MOD2"
    coeffs: Union[QSeries, Q2Series]
    integral: bool
    even_q_support: bool
    instance: GCIData
    precursor: Optional[QSeries] = None  # integral lift, PHI_MOD2 only


def _granular(x_order):
    """x_order rounded up to a multiple of 16, so nearby sizes share a cache.

    Linear-form consumers only read coefficients up to the total degree
    they need, and truncating a factor in x leaves lower coefficients
    untouched.
    """
    return -(-max(x_order, 1) // 16) * 16


# -- theta route: one exponential per direction ------------------------

def _primitive(d):
    """(u, m) with d = m*u, u primitive, its first nonzero entry positive."""
    m = math.gcd(*d)
    if next(x for x in d if x) < 0:
        m = -m
    return tuple(x // m for x in d), m


def _direction_series(terms, r, degree, q_order):
    """y^r * exp(sum of coef * log_kind(m*y) over terms), to y^degree.

    terms holds (kind, coef, m) with kind THETA for L = log(x/Phi) and
    THETA1 for L1 = log Psi_1; the exponent's y^k coefficient is
    sum_kind p_k * log_kind_k with the integer power sum p_k = sum coef * m^k.
    Returns the QSeries coefficients by y-degree, or None when r > degree
    (the factor truncates to 0).
    """
    if r > degree:
        return None
    n = degree - r
    sums = {}
    for kind, coef, m in terms:
        sums.setdefault(kind, []).append((coef, m))
    tables = {kind: theta.log_coeffs(kind, _granular(degree), q_order)
              for kind in sums}
    logs = [None] * (n + 1)
    for k in range(2, n + 1, 2):
        acc = [RAT_ZERO] * (q_order + 1)
        for kind, pairs in sums.items():
            p = sum(coef * m ** k for coef, m in pairs)
            if p:
                for i, v in enumerate(tables[kind][k]):
                    acc[i] += v * p
        logs[k] = acc
    unit = theta.exp_series(logs, n, q_order).coeffs
    return [QSeries.zero(q_order)] * r + unit


def _theta_residue(g: GCIData, logs, linear):
    """Residue of prod_b (x_b/Phi)^(n_b+1) * prod_(d in linear) ell_d
    * exp(sum over logs (kind, coef, d) of coef * log_kind(ell_d)).

    Every d in `linear` also appears in `logs`, so each direction carrying
    a prefactor has a factor.
    """
    caps, qo = g.n, g.q_order
    axes = [tuple(int(b == c) for c in range(g.s)) for b in range(g.s)]
    terms = {u: [(ThetaKind.THETA, cap + 1, 1)] for u, cap in zip(axes, caps)}
    power = {}
    scale = 1
    for d in linear:
        if not any(d):
            return QSeries.zero(qo)
        u, m = _primitive(d)
        scale *= m
        power[u] = power.get(u, 0) + 1
    for kind, coef, d in logs:
        if any(d):  # every logarithm vanishes at 0
            u, m = _primitive(d)
            terms.setdefault(u, []).append((kind, coef, m))
    axis_factors, specs = [], []
    for u, ts in terms.items():
        on_axis = u in axes
        degree = caps[u.index(1)] if on_axis else sum(caps)
        f = _direction_series(ts, power.get(u, 0), degree, qo)
        if f is None:
            return QSeries.zero(qo)
        if on_axis:
            axis_factors.append(f)
        else:
            specs.append((f, u))
    return _residue(g, axis_factors, specs) * scale


# -- bundle route: one cached factor per kind --------------------------

@functools.lru_cache(maxsize=None)
def _bundle_factor_at(name, x_order, q_order):
    if name == "phi":
        return bundles.lfactor_4k2(x_order, q_order) * 2
    if name == "twist4k":
        return bundles.lfactor_4k(x_order, q_order)
    if name == "psi1":
        return bundles.psi1_factor(x_order, q_order)
    return bundles.root_factor(x_order, q_order)


def _bundle_factor(name, x_order, q_order):
    return _bundle_factor_at(name, _granular(x_order), q_order)


@functools.lru_cache(maxsize=None)
def _root_power(cap, q_order):
    """(x/Phi)^(cap+1) truncated at x-degree cap (higher powers die at the cap)."""
    full = _bundle_factor("root", cap, q_order)
    return NilPoly.from_univariate(full.coeffs, 0, (cap,), q_order) ** (cap + 1)


def _residue(g: GCIData, axes, specs):
    """top_coeff of prod_b axes[b](x_b) * prod specs f_i(ell_i).

    The linear-form factors are combined pairwise with rank_pair_mul, the
    axis factors enter as one-axis convolutions, and the last piece is
    contracted against the rest instead of fully multiplied, so general
    ring products are needed only beyond four linear forms.
    """
    caps, qo = g.n, g.q_order
    pieces = [rank_pair_mul(specs[i][0], specs[i][1],
                            specs[i + 1][0], specs[i + 1][1], caps, qo)
              for i in range(0, len(specs) - 1, 2)]
    if len(specs) % 2:
        f, d = specs[-1]
        pieces.append(subst_linear(f, d, caps, qo))
    acc = pieces[0] if pieces else NilPoly.one(caps, qo)
    for b, f in enumerate(axes):
        acc = mul_univariate(acc, f, b)
    for p in pieces[1:-1]:
        acc = acc * p
    if len(pieces) >= 2:
        return acc.top_product(pieces[-1])
    return acc.top_coeff()


def _integrand_residue(g: GCIData, route, phi_rows, twist4k=None,
                       psi1_row=None):
    """Residue of prod_b (x_b/Phi(x_b))^(n_b+1) * prod_(d in phi_rows)
    Phi(ell_d), times Psi_1Psi_2Psi_3(ell_twist4k) and Psi_1(ell_psi1_row)
    when given, along `route`.
    """
    if route == "theta":
        logs = [(ThetaKind.THETA, -1, d) for d in phi_rows]
        if twist4k is not None:
            logs += [(ThetaKind.THETA, 1, twist4k),
                     (ThetaKind.THETA, -1, tuple(2 * c for c in twist4k))]
        if psi1_row is not None:
            logs.append((ThetaKind.THETA1, 1, psi1_row))
        return _theta_residue(g, logs, phi_rows)
    total, qo = sum(g.n), g.q_order
    specs = [(_bundle_factor("phi", total, qo), d) for d in phi_rows]
    if twist4k is not None:
        specs.append((_bundle_factor("twist4k", total, qo), twist4k))
    if psi1_row is not None:
        specs.append((_bundle_factor("psi1", total, qo), psi1_row))
    return _residue(g, [_root_power(cap, qo) for cap in g.n], specs)


def _report(kind, series, g):
    return GenusReport(kind=kind, coeffs=series,
                       integral=series.is_integral(),
                       even_q_support=series.even_q_support(),
                       instance=g)


def witten_genus(g: GCIData, route="theta"):
    """The Witten genus W(V) as a truncated q-series (real dim must be 4k)."""
    _, rdim = dims(g)
    if rdim % 4 != 0:
        raise DimensionError(f"Witten genus needs real dim = 0 mod 4, got {rdim}")
    return _report("W", _integrand_residue(g, route, g.D), g)


def wc_genus(g: GCIData, route="theta"):
    """The generalized (spin^c) Witten genus W_c(V); dispatches on dim mod 4."""
    if g.C is None:
        raise ValueError("wc_genus requires the spin^c coefficient vector C")
    _, rdim = dims(g)
    if rdim % 4 == 0:
        series = _integrand_residue(g, route, g.D, twist4k=g.C)
        return _report("Wc4k", series, g)
    series = _integrand_residue(g, route, g.D + (g.C,))
    return _report("Wc4k2", series * rat(Fraction(1, 2)), g)


def mod2_witten(g: GCIData, even_row=None, route="theta", strict=True):
    """The mod 2 Witten genus of an 8k+2 dimensional instance.

    One nonzero all-even degree row is split off: its linear form is fed
    to the Psi_1 twist instead of Phi, producing an integral rational
    precursor R whose mod 2 reduction is the genus.  The result must not
    depend on which all-even row is chosen.  An all-zero degree row makes
    V empty, so the precursor is 0 whatever the other rows are.
    """
    _, rdim = dims(g)
    if strict and rdim % 8 != 2:
        raise DimensionError(
            f"mod 2 Witten genus needs real dim = 2 mod 8, got {rdim}")
    rows = even_rows(g)
    if even_row is not None and even_row not in rows:
        raise ValueError(
            f"even_row {even_row} is not a nonzero all-even degree row")
    if not all(any(row) for row in g.D):
        precursor = QSeries.zero(g.q_order)
    else:
        if even_row is None:
            if not rows:
                raise ValueError("no all-even degree row to distinguish")
            even_row = rows[0]
        phi_rows = g.D[:even_row] + g.D[even_row + 1:]
        precursor = _integrand_residue(g, route, phi_rows,
                                       psi1_row=g.D[even_row])
    reduced = precursor.reduce_mod2()  # raises NonIntegralError if not integral
    return GenusReport(kind="PHI_MOD2", coeffs=reduced, integral=True,
                       even_q_support=precursor.even_q_support(),
                       instance=g, precursor=precursor)


# -- dimension-4 closed form ------------------------------------------

def sigma1_series(q_order):
    """-1/24 + sum sigma_1(n) q^(2n): the weight-2 Eisenstein series G_2(q^2)."""
    return theta.eisenstein_g(1, q_order)


def quadratic_pairing(g: GCIData, M):
    """<sum M_bc x_b x_c * prod_a ell_a, [ambient]> as an exact integer."""
    caps, qo = g.n, g.q_order
    quad = NilPoly.zero(caps, qo)
    for b in range(g.s):
        for c in range(g.s):
            if M[b][c]:
                e = [0] * g.s
                e[b] += 1
                e[c] += 1
                quad = quad + NilPoly(caps, qo, {tuple(e): rat(M[b][c])})
    dual = NilPoly.one(caps, qo)
    one_coeffs = [QSeries.zero(qo), QSeries.one(qo)] + \
        [QSeries.zero(qo)] * (sum(caps) - 1)
    for row in g.D:
        dual = dual * subst_linear(one_coeffs, row, caps, qo)
    val = (quad * dual).top_coeff().coefficient(0)
    return val


def dim4_closed_form(g: GCIData, use_c=False):
    """W (or W_c) of a real-dimension-4 instance via the p1-pairing shortcut.

    Equals p1[V] * (-1/24 + sum sigma_1 q^(2n)), with p1 replaced by
    p1 - 3c^2 in the spin^c case.
    """
    cdim, rdim = dims(g)
    if rdim != 4:
        raise DimensionError(f"closed form is for real dimension 4, got {rdim}")
    M = [row[:] for row in p1_matrix(g)]
    if use_c:
        if g.C is None:
            raise ValueError("use_c requires C")
        for b in range(g.s):
            for c in range(g.s):
                M[b][c] -= 3 * g.C[b] * g.C[c]
    return sigma1_series(g.q_order) * quadratic_pairing(g, M)
