"""Witten-type genera of GCIs as top-coefficient extraction.

Each genus is the formal residue (coefficient of x_1^{n_1}...x_s^{n_s}) of a
product of per-root factors and theta-ratio twists evaluated on linear forms
in the nilpotent cohomology generators.  Working in the variables
x = 2*pi*i*z removes every transcendental constant: the q^0 coefficient is
the (twisted) A-hat genus and integrality statements hold on the nose.

Two assembly routes are provided for every genus: "theta" uses the
normalized theta ratios, "bundle" the symmetric/exterior-power characters;
their agreement is one of the package's standing oracles.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import bundles, theta
from .errors import DimensionError
from .gci import GCIData, dims, even_rows, p1_matrix
from .nilring import NilPoly, mul_univariate, rank_pair_mul, subst_linear
from .qseries import QSeries, Q2Series, rat
from .theta import ThetaKind


@dataclass
class GenusReport:
    kind: str  # "W" | "Wc4k" | "Wc4k2" | "PHI_MOD2"
    coeffs: Union[QSeries, Q2Series]
    integral: bool
    even_q_support: bool
    instance: GCIData
    precursor: Optional[QSeries] = None  # integral lift, PHI_MOD2 only


# -- cached univariate building blocks --------------------------------
#
# Linear-form consumers only read coefficients up to the total degree they
# need, and truncating a theta factor in x leaves lower coefficients
# untouched, so the caches round the requested x-order up to a multiple of
# 16: nearby instance sizes then share a single build.

def _granular(x_order):
    return -(-max(x_order, 1) // 16) * 16


@functools.lru_cache(maxsize=None)
def _bundle_root_series(x_order, q_order):
    return bundles.root_factor(x_order, q_order)


@functools.lru_cache(maxsize=None)
def _phi_series_at(x_order, q_order, route):
    if route == "theta":
        return theta.phi(x_order, q_order)
    return bundles.lfactor_4k2(x_order, q_order) * 2


def _phi_series(x_order, q_order, route):
    return _phi_series_at(_granular(x_order), q_order, route)


@functools.lru_cache(maxsize=None)
def _twist4k_series_at(x_order, q_order, route):
    if route == "theta":
        return theta.psi_product(x_order, q_order)
    return bundles.lfactor_4k(x_order, q_order)


def _twist4k_series(x_order, q_order, route):
    return _twist4k_series_at(_granular(x_order), q_order, route)


@functools.lru_cache(maxsize=None)
def _psi1_series_at(x_order, q_order, route):
    if route == "theta":
        return theta.psi(ThetaKind.THETA1, x_order, q_order)
    return bundles.psi1_factor(x_order, q_order)


def _psi1_series(x_order, q_order, route):
    return _psi1_series_at(_granular(x_order), q_order, route)


@functools.lru_cache(maxsize=None)
def _root_power(cap, q_order, route):
    """(x/Phi)^(cap+1) truncated at x-degree cap (higher powers die at the cap).

    On the theta route this is exp((cap+1) * log(x/Phi)), one exponential
    from the logarithm cached at the granular x-order; the bundle route
    raises its product-formula factor to the power.
    """
    if route == "theta":
        logs = theta.log_coeffs(ThetaKind.THETA, _granular(cap), q_order)
        return theta.exp_series(logs, cap, q_order, scale=cap + 1)
    full = _bundle_root_series(_granular(cap), q_order)
    return NilPoly.from_univariate(full.coeffs, 0, (cap,), q_order) ** (cap + 1)


def _phi_specs(g: GCIData, route, skip_row=None):
    """(series, direction) pairs for the Phi(ell_a) factors of the integrand."""
    if not g.t:
        return []
    phi_u = _phi_series(sum(g.n), g.q_order, route)
    return [(phi_u, row) for a, row in enumerate(g.D) if a != skip_row]


def _residue(g: GCIData, route, specs):
    """top_coeff of prod_b (x_b/Phi)^(n_b+1) * prod specs f_i(ell_i).

    The linear-form factors are combined pairwise with rank_pair_mul, the
    per-generator root factors enter as one-axis convolutions, and the
    last piece is contracted against the rest instead of fully multiplied,
    so general ring products are almost never needed.
    """
    caps, qo = g.n, g.q_order
    pieces = [rank_pair_mul(specs[i][0], specs[i][1],
                            specs[i + 1][0], specs[i + 1][1], caps, qo)
              for i in range(0, len(specs) - 1, 2)]
    if len(specs) % 2:
        f, d = specs[-1]
        pieces.append(subst_linear(f, d, caps, qo))
    acc = pieces[0] if pieces else NilPoly.one(caps, qo)
    for b, cap in enumerate(caps):
        acc = mul_univariate(acc, _root_power(cap, qo, route), b)
    for p in pieces[1:-1]:
        acc = acc * p
    if len(pieces) >= 2:
        return acc.top_product(pieces[-1])
    return acc.top_coeff()


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
    series = _residue(g, route, _phi_specs(g, route))
    return _report("W", series, g)


def wc_genus(g: GCIData, route="theta"):
    """The generalized (spin^c) Witten genus W_c(V); dispatches on dim mod 4."""
    if g.C is None:
        raise ValueError("wc_genus requires the spin^c coefficient vector C")
    _, rdim = dims(g)
    qo = g.q_order
    total = sum(g.n)
    specs = _phi_specs(g, route)
    if rdim % 4 == 0:
        specs.append((_twist4k_series(total, qo, route), g.C))
        kind = "Wc4k"
        half = 1
    else:
        specs.append((_phi_series(total, qo, route), g.C))
        kind = "Wc4k2"
        half = rat(Fraction(1, 2))
    series = _residue(g, route, specs) * half
    return _report(kind, series, g)


def mod2_witten(g: GCIData, even_row=None, route="theta", strict=True):
    """The mod 2 Witten genus of an 8k+2 dimensional instance.

    One nonzero all-even degree row is split off: its linear form is fed
    to the Psi_1 twist instead of Phi, producing an integral rational
    precursor R whose mod 2 reduction is the genus.  The result must not
    depend on which all-even row is chosen.
    """
    _, rdim = dims(g)
    if strict and rdim % 8 != 2:
        raise DimensionError(
            f"mod 2 Witten genus needs real dim = 2 mod 8, got {rdim}")
    rows = even_rows(g)
    if even_row is None:
        if not rows:
            raise ValueError("no all-even degree row to distinguish")
        even_row = rows[0]
    elif even_row not in rows:
        raise ValueError(
            f"even_row {even_row} is not a nonzero all-even degree row")
    qo, total = g.q_order, sum(g.n)
    specs = _phi_specs(g, route, skip_row=even_row)
    specs.append((_psi1_series(total, qo, route), g.D[even_row]))
    precursor = _residue(g, route, specs)
    reduced = precursor.reduce_mod2()  # raises NonIntegralError if not integral
    rep = GenusReport(kind="PHI_MOD2", coeffs=reduced, integral=True,
                      even_q_support=precursor.even_q_support(),
                      instance=g, precursor=precursor)
    return rep


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
