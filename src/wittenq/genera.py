"""Witten-type genera of GCIs as top-coefficient extraction.

Each genus is the formal residue (coefficient of x_1^{n_1}...x_s^{n_s}) of a
product of per-root factors and theta-ratio twists evaluated on linear forms
in the nilpotent cohomology generators.  Working in the variables
x = 2*pi*i*z removes every transcendental constant: the q^0 coefficient is
the (twisted) A-hat genus and integrality statements hold on the nose.

Two assembly routes are provided for every genus; their agreement is one
of the package's standing oracles.

The "theta" route merges the integrand by direction.  With L = log(x/Phi)
and L1 = log Psi_1 (even in x, see `theta._log_columns`) every factor is an
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
multiply the residue.  `theta.direction_series` builds each such factor
from the (kind, coef, m) of its forms.  The off-axis factors are paired
by `rank_pair_mul` (or placed by `subst_linear`).  With at most one such
piece the axis factors are contracted against it directly; otherwise the
factor of an axis x_b enters as a one-axis convolution and the last
piece is contracted against the rest with `top_product` (see
`_residue`).  Each exponential is built once: many instances share one
(a degree-1 row on CP^n leaves CP^(n-1); W_c in real dimension 4k+2 is
W's integrand with C as one more row), so `_exponential` caches it,
bounded, by its merged terms and length; the y^r shift is not cached.
Besides that only the int log columns and exponential weights inside
`theta` and the w-power table inside `bundles` are cached.

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
from .qseries import QSeries, QSum, Q2Series
from .theta import ThetaKind


@dataclass
class GenusReport:
    kind: str  # "W" | "Wc4k" | "Wc4k2" | "PHI_MOD2"
    coeffs: Union[QSeries, Q2Series]
    integral: bool
    even_q_support: bool
    instance: GCIData
    precursor: Optional[QSeries] = None  # integral lift, PHI_MOD2 only


# -- theta route: one exponential per direction ------------------------

def _primitive(d):
    """(u, m) with d = m*u, u primitive, its first nonzero entry positive."""
    m = math.gcd(*d)
    if next(x for x in d if x) < 0:
        m = -m
    return tuple(x // m for x in d), m


@functools.lru_cache(maxsize=256)
def _exponential(terms, x_order, q_order):
    """exp(sum of coef * log_kind(m*y) over terms) to y^x_order, a tuple
    of QSeries.  Keyed by the merged terms of `_direction_factor`, so
    every direction, instance and genus with that exponent and length
    shares one build; 256 entries hold the mass run's 126 distinct ones.
    """
    return theta.direction_series(terms, 0, x_order, q_order)


def _direction_factor(terms, r, degree, q_order):
    """y^r * exp(sum of coef * log_kind(m*y) over terms) to y^degree.

    The terms are merged by (kind, |m|), their coefficients summed and
    zero sums dropped, which keeps every power sum sum coef * m^2k; the
    exponential of the merged terms to the even length below degree - r
    is read from `_exponential`, and the y^r shift and an odd length's
    trailing zero are applied here.
    """
    merged = {}
    for kind, coef, m in terms:
        merged[kind, abs(m)] = merged.get((kind, abs(m)), 0) + coef
    key = tuple(sorted(((kind, coef, m) for (kind, m), coef in merged.items()
                        if coef), key=lambda t: (t[0].value, t[2])))
    odd = (degree - r) % 2
    zero = (QSeries.zero(q_order),)
    return zero * r + _exponential(key, degree - r - odd, q_order) + zero * odd


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
        r = power.get(u, 0)
        if r > degree:  # the factor y^r * exp(...) truncates to zero
            return QSeries.zero(qo)
        f = _direction_factor(ts, r, degree, qo)
        if on_axis:
            axis_factors.append(f)
        else:
            specs.append((f, u))
    return _residue(g, axis_factors, specs) * scale


# -- bundle route: one cached factor per builder -----------------------

@functools.lru_cache(maxsize=None)
def _bundle_factor_at(build, x_order, q_order):
    """build(x_order, q_order), x_order granular (`theta._granular`)."""
    return build(x_order, q_order)


@functools.lru_cache(maxsize=None)
def _root_power(cap, q_order):
    """(x/Phi)^(cap+1) truncated at x-degree cap (higher powers die at the
    cap), a power in H*(CP^cap) taken as a one-generator NilPoly."""
    root = _bundle_factor_at(bundles.root_factor, theta._granular(cap),
                             q_order)
    power = NilPoly.from_univariate(root, 0, (cap,), q_order) ** (cap + 1)
    return tuple(power.coeffs)


def _residue(g: GCIData, axes, specs):
    """top_coeff of prod_b axes[b](x_b) * prod specs f_i(ell_i), every
    factor a sequence of QSeries by x-degree.

    The linear-form factors are combined pairwise with rank_pair_mul, an
    odd one out by subst_linear.  With at most one such piece P the axis
    factors A_b are contracted, not multiplied in:
    top(P * prod_b A_b(x_b)) = sum_e P[e] * prod_b A_b[cap_b - e_b],
    summed out one axis at a time, the last first; with no piece it is
    prod_b A_b[cap_b].  With more pieces the axis factors enter the first
    as one-axis convolutions, the middle ones are general ring products,
    and the last is contracted against the rest with top_product.
    """
    caps, qo = g.n, g.q_order
    pieces = [rank_pair_mul(specs[i][0], specs[i][1],
                            specs[i + 1][0], specs[i + 1][1], caps, qo)
              for i in range(0, len(specs) - 1, 2)]
    if len(specs) % 2:
        f, d = specs[-1]
        pieces.append(subst_linear(f, d, caps, qo))
    if len(pieces) <= 1:
        level = pieces[0].terms if pieces else {(0,) * g.s: QSeries.one(qo)}
        for b in reversed(range(g.s)):
            sums = {}
            for e, c in level.items():
                sums.setdefault(e[:b], QSum(qo)).add_product(
                    c, axes[b][caps[b] - e[b]])
            level = {e: s.series() for e, s in sums.items()}
        return level.get((), QSeries.zero(qo))
    acc = pieces[0]
    for b, f in enumerate(axes):
        acc = mul_univariate(acc, f, b)
    for p in pieces[1:-1]:
        acc = acc * p
    return acc.top_product(pieces[-1])


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
    # Phi = 2 lfactor_4k2, and the residue is linear in each factor
    specs = [(bundles.lfactor_4k2, d) for d in phi_rows]
    if twist4k is not None:
        specs.append((bundles.lfactor_4k, twist4k))
    if psi1_row is not None:
        specs.append((bundles.psi1_factor, psi1_row))
    xg, qo = theta._granular(sum(g.n)), g.q_order
    specs = [(_bundle_factor_at(build, xg, qo), d) for build, d in specs]
    residue = _residue(g, [_root_power(cap, qo) for cap in g.n], specs)
    return residue * 2 ** len(phi_rows)


def _check_route(route):
    if route not in ("theta", "bundle"):
        raise ValueError(f"route must be 'theta' or 'bundle', got {route!r}")


def _report(kind, series, g):
    return GenusReport(kind=kind, coeffs=series,
                       integral=series.is_integral(),
                       even_q_support=series.even_q_support(),
                       instance=g)


def witten_genus(g: GCIData, route="theta"):
    """The Witten genus W(V) as a truncated q-series (real dim must be 4k)."""
    _check_route(route)
    _, rdim = dims(g)
    if rdim % 4 != 0:
        raise DimensionError(f"Witten genus needs real dim = 0 mod 4, got {rdim}")
    return _report("W", _integrand_residue(g, route, g.D), g)


def wc_genus(g: GCIData, route="theta"):
    """The generalized (spin^c) Witten genus W_c(V); dispatches on dim mod 4."""
    _check_route(route)
    if g.C is None:
        raise ValueError("wc_genus requires the spin^c coefficient vector C")
    _, rdim = dims(g)
    if rdim % 4 == 0:
        series = _integrand_residue(g, route, g.D, twist4k=g.C)
        return _report("Wc4k", series, g)
    series = _integrand_residue(g, route, g.D + (g.C,))
    return _report("Wc4k2", series * Fraction(1, 2), g)


def mod2_witten(g: GCIData, even_row=None, route="theta", strict=True):
    """The mod 2 Witten genus of an 8k+2 dimensional instance.

    One nonzero all-even degree row is split off: its linear form is fed
    to the Psi_1 twist instead of Phi, producing an integral rational
    precursor R whose mod 2 reduction is the genus.  The result must not
    depend on which all-even row is chosen.  An all-zero degree row makes
    V empty, so the precursor is 0 whatever the other rows are.
    """
    _check_route(route)
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
    unit = [tuple(int(b == c) for c in range(g.s)) for b in range(g.s)]
    quad = {}
    for b in range(g.s):
        for c in range(g.s):
            e = tuple(x + y for x, y in zip(unit[b], unit[c]))
            quad[e] = quad.get(e, 0) + M[b][c]
    dual = NilPoly.one(caps, qo)
    for row in g.D:
        dual = dual * NilPoly(caps, qo, dict(zip(unit, row)))
    return NilPoly(caps, qo, quad).top_product(dual).coefficient(0)


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
