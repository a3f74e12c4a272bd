"""Witten-type genera of GCIs as top-coefficient extraction.

Each genus is the formal residue (coefficient of x_1^{n_1}...x_s^{n_s}) of
one integrand: prod_b (x_b/Phi(x_b))^(n_b+1) times one factor per row
(kind, d) of a list the genus builds, at the linear form ell_d in the
nilpotent cohomology generators.  The kind is "phi" at each degree row,
and at C "twist" (Psi_1Psi_2Psi_3, W_c in real dimension 4k) or "phi"
(W_c in 4k+2); phi2 has "psi1" in place of "phi" at its even row.  In
the variables x = 2*pi*i*z the q^0 coefficient is the (twisted) A-hat
genus, with no transcendental constant.  Two assembly routes read the
row list, each through its one table; their agreement is an oracle.

The "theta" route merges the integrand by direction.  With L = log(x/Phi)
and L1 = log Psi_1 (even in x, see `theta._log_columns`) every factor is an
exponential, up to a linear prefactor:

    (x_b/Phi(x_b))^(n_b+1) = exp((n_b+1) L(x_b)),
    Phi(ell)               = ell * exp(-L(ell)),
    Psi_1Psi_2Psi_3(c)     = exp(L(c) - L(2c)),
    Psi_1(ell)             = exp(L1(ell)),

the twist by the duplication formula Phi(2x) = 2 Phi(x) Psi_1Psi_2Psi_3(x).
`_THETA_ROWS` holds each row kind's linear prefactors and log terms
(kind, coef, j), each coef * log_kind at j times the row's form.

A linear form ell = m*u with u primitive contributes m^k L_k (u.x)^k to
the exponent, so all the forms on one line u (up to sign, L being even)
fold into one univariate factor y^r_u * exp(sum_k p_(u,k) L_k y^k) in
y = u.x, with integer power sums p_(u,k) = sum coef * m^k and r_u the
number of linear prefactors on u; the integers m of those prefactors
multiply the residue.  `theta.direction_series` builds each such factor
from the (kind, coef, m) of its forms (merged by `_merged`).  Over one
projective factor the residue is the x^(n_1 - r) coefficient of one
exponential, which `theta.direction_coefficient` builds alone.
Otherwise `_residue` multiplies the factors into one `NilPoly` by pair
products (`rank_pair_mul`), one-axis convolutions (`mul_univariate`)
and products by one factor at a linear form (`mul_linear`), and
contracts it to the top coefficient (`contract_axes`, `top_product`).
Each factor is built once: many instances share one (a degree-1 row on
CP^n leaves CP^(n-1); W_c in real dimension 4k+2 is W's integrand with C
as one more row), so `_factor`, one bounded cache keyed by builder and
arguments, holds the exponentials and the one-factor coefficients (by
merged terms and length; the y^r shift is not cached), the bundle
factors and the root powers.  Besides that only the int log columns,
the B_2k/2k table and the exponential weights inside `theta`, the
w-power table inside `bundles` and the basis forms of
`modforms.monomial` are cached.

The "bundle" route builds one factor per row from the characters of
`bundles` (`_BUNDLE_ROWS`: each kind's builder and multiple, Phi being
2 lfactor_4k2), each root power (x/Phi)^(n_b+1) by Miller's recurrence
(`_root_power`), and assembles them with the same nilring primitives.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

from . import bundles, theta
from .errors import DimensionError
from .gci import GCIData, dims, even_rows, p1_matrix
from .nilring import (_times_linear, contract_axes, mul_linear,
                      mul_univariate, rank_pair_mul, top_product)
from .qseries import QSeries, Q2Series, _check_int, conv_add
from .theta import ThetaKind


@dataclass
class GenusReport:
    kind: str  # "W" | "Wc4k" | "Wc4k2" | "PHI_MOD2"
    coeffs: Union[QSeries, Q2Series]
    integral: bool
    even_q_support: bool
    instance: GCIData
    weight: int  # sum(n) less the number of Phi rows, see _weight
    precursor: Optional[QSeries] = None  # integral lift, PHI_MOD2 only


# -- the integrand: each row kind on each route -------------------------

_THETA_ROWS = {
    "phi": (1, ((ThetaKind.THETA, -1, 1),)),
    "twist": (0, ((ThetaKind.THETA, 1, 1), (ThetaKind.THETA, -1, 2))),
    "psi1": (0, ((ThetaKind.THETA1, 1, 1),))}
_BUNDLE_ROWS = {"phi": (bundles.lfactor_4k2, 2),
                "twist": (bundles.lfactor_4k, 1),
                "psi1": (bundles.psi1_factor, 1)}


# -- theta route: one exponential per direction ------------------------

def _primitive(d):
    """(u, m) with d = m*u, u primitive, its first nonzero entry positive."""
    m = math.gcd(*d)
    if next(filter(None, d)) < 0:
        m = -m
    return tuple([x // m for x in d]), m


@functools.lru_cache(maxsize=256)
def _factor(build, *args):
    """build(*args), a factor tuple of QSeries or a one-factor
    coefficient, shared by every direction, instance and genus that asks
    for it; 256 entries hold the mass run's 126 distinct entries, 86
    exponentials and 40 one-factor coefficients.
    """
    return build(*args)


def _merged(terms):
    """The cache key of the exponential of terms (kind, coef, m): merged
    by (kind, |m|), their coefficients summed and zero sums dropped, which
    keeps every power sum sum coef * m^2k, and sorted."""
    merged = {}
    for kind, coef, m in terms:
        km = kind, abs(m)
        merged[km] = merged.get(km, 0) + coef
    return tuple(sorted([(kind, coef, m) for (kind, m), coef
                         in merged.items() if coef],
                        key=operator.itemgetter(0, 2)))


def _direction_factor(terms, r, degree, q_order):
    """y^r * exp(sum of coef * log_kind(m*y) over terms) to y^degree.

    The exponential of the merged terms (`_merged`) to the even length
    below degree - r is read from `_factor`, and the package's one y^r
    shift, r <= degree, and an odd length's trailing zero are applied
    here.
    """
    odd = (degree - r) % 2
    f = _factor(theta.direction_series, _merged(terms),
                degree - r - odd, q_order)
    zero = (QSeries.zero(q_order),)
    return zero * r + f + zero * odd if r or odd else f


def _theta_residue(g: GCIData, rows):
    """Residue of prod_b (x_b/Phi)^(n_b+1) times the row factors, read
    from `_THETA_ROWS`.  Over one factor every form is m*x_1, so the
    residue is the x_1^n_1 coefficient of one direction factor: the
    x_1^(n_1 - r) coefficient of its exponential, built alone by
    `theta.direction_coefficient`."""
    caps, qo = g.n, g.q_order
    if len(caps) == 1:
        (cap,), r, scale = caps, 0, 1
        terms = [(ThetaKind.THETA, cap + 1, 1)]
        for kind, (m,) in rows:
            if kind == "phi":  # _THETA_ROWS["phi"] inline: the hot path
                terms.append((ThetaKind.THETA, -1, m))
                r, scale = r + 1, scale * m
            elif m:
                terms += [(k, c, j * m) for k, c, j in _THETA_ROWS[kind][1]]
        if r > cap or not scale:
            return QSeries.zero(qo)
        return _factor(theta.direction_coefficient, _merged(terms), cap - r,
                       qo) * scale
    axes = [(0,) * b + (1,) + (0,) * (g.s - b - 1) for b in range(g.s)]
    terms = {u: [(ThetaKind.THETA, cap + 1, 1)] for u, cap in zip(axes, caps)}
    power, scale = {}, 1
    for kind, d in rows:
        prefactors, logs = _THETA_ROWS[kind]
        if not any(d):  # every logarithm vanishes at 0, leaving 0^prefactors
            scale *= 0 ** prefactors
            continue
        u, m = _primitive(d)
        scale *= m ** prefactors
        power[u] = power.get(u, 0) + prefactors
        terms.setdefault(u, []).extend([(k, c, j * m) for k, c, j in logs])
    axis_factors, specs = [], []
    for u, ts in terms.items():
        on_axis = u in axes
        degree = caps[u.index(1)] if on_axis else sum(caps)
        r = power.get(u, 0)
        if r > degree or not scale:  # y^r * exp(...) truncates, or Phi(0) = 0
            return QSeries.zero(qo)
        f = _direction_factor(ts, r, degree, qo)
        if on_axis:
            axis_factors.append(f)
        else:
            specs.append((f, u))
    return _residue(g, axis_factors, specs) * scale


# -- bundle route: one factor per builder ------------------------------

def _root_power(cap, q_order):
    """g = f^(cap+1) for f = x/Phi to x^cap (higher powers die at the cap)
    by J. C. P. Miller's recurrence (Knuth, TAOCP 4.7): f is even with
    f_0 = 1, so g_0 = 1, g_odd = 0 and n g_n = sum over even k <= n of
    ((cap + 2) k - n) f_k g_(n-k), summed on ints over one lcm."""
    f = _factor(bundles.root_factor, theta._granular(cap), q_order)
    g = [QSeries.one(q_order)] + [QSeries.zero(q_order)] * cap
    for n in range(2, cap + 1, 2):
        ks = range(2, n + 1, 2)
        dens = [f[k].den * g[n - k].den for k in ks]
        den = math.lcm(*dens)
        num = [0] * (q_order + 1)
        for k, d in zip(ks, dens):
            c = ((cap + 2) * k - n) * (den // d)
            conv_add(num, [c * x for x in f[k].num], g[n - k].num)
        g[n] = QSeries._make(num, n * den, q_order)
    return tuple(g)


def _residue(g: GCIData, axes, specs):
    """top_coeff of prod_b axes[b](x_b) * prod specs f_i(ell_i), every
    factor a sequence of QSeries by x-degree.

    The constant 1 at the zero form pads 0, 1 or 3 linear-form factors
    to 2 or 4, and the first two are one rank_pair_mul product P.  With
    two the residue is contract_axes(P, axes) = sum_e P[e] * prod_b
    A_b[cap_b - e_b] for the axis factors A_b (prod_b A_b[cap_b] when P
    is 1).  With four or more, the axis factors enter P by
    mul_univariate, each factor between the first two and the last two
    by mul_linear, and top_product contracts the result against the last
    two's pair product.  Every stage reads and returns int numerators
    over one denominator, reduced once.
    """
    caps, qo = g.n, g.q_order
    if len(specs) in (0, 1, 3):
        one = (QSeries.one(qo),) + (QSeries.zero(qo),) * sum(caps)
        specs = specs + [(one, (0,) * g.s)] * (2 - len(specs) % 2)
    acc = rank_pair_mul(*specs[0], *specs[1], caps, qo)
    if len(specs) == 2:
        return contract_axes(acc, axes)
    for b, f in enumerate(axes):
        acc = mul_univariate(acc, f, b)
    for f, d in specs[2:-2]:
        acc = mul_linear(acc, f, d)
    return top_product(acc, rank_pair_mul(*specs[-2], *specs[-1], caps, qo))


def _integrand_residue(g: GCIData, route, rows):
    """Residue of prod_b (x_b/Phi(x_b))^(n_b+1) times one factor per row
    (kind, d) at ell_d, along `route`."""
    if route == "theta":
        return _theta_residue(g, rows)
    xg, qo = theta._granular(sum(g.n)), g.q_order
    specs = [(_factor(_BUNDLE_ROWS[kind][0], xg, qo), d) for kind, d in rows]
    axes = [_factor(_root_power, cap, qo) for cap in g.n]
    scale = math.prod(_BUNDLE_ROWS[kind][1] for kind, _ in rows)
    return _residue(g, axes, specs) * scale


def _check_route(route):
    if route not in ("theta", "bundle"):
        raise ValueError(f"route must be 'theta' or 'bundle', got {route!r}")


def _weight(g, rows):
    """sum(n) less the number of Phi rows: the complex dimension for W
    and for W_c in real dimension 4k, 1 less in 4k+2, 1 more for phi2."""
    return sum(g.n) - [kind for kind, _ in rows].count("phi")


def _genus(kind, g, route, rows):
    series = _integrand_residue(g, route, rows)
    if kind == "Wc4k2":  # the 4k+2 integrand is twice the genus
        series = QSeries._make(series.num, 2 * series.den, series.order)
    return GenusReport(kind, series, series.is_integral(),
                       series.even_q_support(), g, _weight(g, rows))


def witten_genus(g: GCIData, route="theta"):
    """The Witten genus W(V) as a truncated q-series (real dim must be 4k)."""
    _check_route(route)
    _, rdim = dims(g)
    if rdim % 4 != 0:
        raise DimensionError(f"Witten genus needs real dim = 0 mod 4, got {rdim}")
    return _genus("W", g, route, [("phi", d) for d in g.D])


def wc_genus(g: GCIData, route="theta"):
    """The generalized (spin^c) Witten genus W_c(V); dispatches on dim mod 4."""
    _check_route(route)
    if g.C is None:
        raise ValueError("wc_genus requires the spin^c coefficient vector C")
    _, rdim = dims(g)
    rows = [("phi", d) for d in g.D]
    if rdim % 4 == 0:
        return _genus("Wc4k", g, route, rows + [("twist", g.C)])
    return _genus("Wc4k2", g, route, rows + [("phi", g.C)])


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
    evens = even_rows(g)
    if even_row is not None:
        _check_int(even_row, "even_row")
        if even_row not in evens:
            raise ValueError(
                f"even_row {even_row} is not a nonzero all-even degree row")
    empty = not all(map(any, g.D))
    if even_row is None:
        if not evens and not empty:
            raise ValueError("no all-even degree row to distinguish")
        even_row = evens[0] if evens else 0  # V empty: any row stands in
    rows = [("psi1" if a == even_row else "phi", d)
            for a, d in enumerate(g.D)]
    precursor = (QSeries.zero(g.q_order) if empty
                 else _integrand_residue(g, route, rows))
    reduced = precursor.reduce_mod2()  # raises NonIntegralError if not integral
    return GenusReport("PHI_MOD2", reduced, True, precursor.even_q_support(),
                       g, _weight(g, rows), precursor)


# -- dimension-4 closed form ------------------------------------------

def quadratic_pairing(g: GCIData, M):
    """<sum M_bc x_b x_c * prod_a ell_a, [ambient]> as an exact int: the
    int polynomial prod_a ell_a on the cap grid, read at caps - e_b - e_c."""
    caps = g.n
    dual = {(0,) * g.s: 1}
    for row in g.D:
        dual = _times_linear(dual, row, caps, 1)
    return sum(M[b][c] * dual.get(tuple(n - (a == b) - (a == c)
                                        for a, n in enumerate(caps)), 0)
               for b in range(g.s) for c in range(g.s))


def dim4_closed_form(g: GCIData, use_c=False):
    """W (or W_c) of a real-dimension-4 instance via the p1-pairing shortcut.

    Equals p1[V] * G_2(q^2), with G_2(q^2) = -1/24 + sum sigma_1(n) q^(2n)
    from `theta.eisenstein_g`; p1 - 3c^2 replaces p1 in the spin^c case.
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
    return theta.eisenstein_g(1, g.q_order) * quadratic_pairing(g, M)
