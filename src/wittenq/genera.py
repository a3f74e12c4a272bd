"""Witten-type genera of GCIs as top-coefficient extraction.

Each genus is the formal residue (coefficient of x_1^{n_1}...x_s^{n_s}) of
one integrand: prod_b (x_b/Phi(x_b))^(n_b+1) times one factor per row
(kind, d) of a list the genus builds, at the linear form ell_d in the
nilpotent cohomology generators.  The kind is "phi" at each degree row,
and at C "twist" (Psi_1Psi_2Psi_3, W_c in real dimension 4k) or "phi"
(W_c in 4k+2); phi2 has "psi1" in place of "phi" at its even row.  In
the variables x = 2*pi*i*z the q^0 coefficient is the (twisted) A-hat
genus, with no transcendental constant.  Two assembly routes read the
row list through their tables; their agreement is an oracle.

The "theta" route merges the integrand by direction.  Over one
projective factor every form is m*x_1.  With L = log(x/Phi) and
L1 = log Psi_1 (even in x, see `theta._log_columns`) every factor is an
exponential, up to a linear prefactor:

    (x_1/Phi(x_1))^(n_1+1) = exp((n_1+1) L(x_1)),
    Phi(m x_1)             = m x_1 * exp(-L(m x_1)),
    Psi_1Psi_2Psi_3(m x_1) = exp(L(m x_1) - L(2m x_1)),
    Psi_1(m x_1)           = exp(L1(m x_1)),

the twist by the duplication formula Phi(2x) = 2 Phi(x) Psi_1Psi_2Psi_3(x).
`_THETA_ROWS` holds each row kind's linear prefactors and log terms
(kind, coef, j), each coef * log_kind at j times the row's form, so the
integrand is x_1^r times one exponential, whose x_1^(n_1 - r) coefficient
`theta.direction_coefficient` builds alone.  Over two or more factors
the theta route is a Riemann-Roch index sum (`_index_sum`): with
t = e^(y/2) on each line y = u.x, u primitive, every factor is a Laurent
polynomial in t over int q-series (`_INDEX_ROWS`), the factors on one
line merge into one, each axis is read by Hirzebruch-Riemann-Roch on
CP^n_b and only the off-axis lines are multiplied out, each q-series
packed into one int, dropping each cell that can only end where an
axis's Riemann-Roch column is 0 (the lines ordered so that this can
start before the last line, where an order can), and reading nothing
more once no cell is left.  It uses no Bernoulli number and no residue
kernel.  Each factor is built once: many instances share one
(a degree-1 row on CP^n leaves CP^(n-1); W_c in real dimension 4k+2 is
W's integrand with C as one more row), so `_factor`,
one bounded cache keyed by builder and arguments, holds the one-factor
coefficients (by merged terms and x-order), the index factors (by
prefactors and product exponents), the bundle factors and the root
powers.  Besides that only the int log columns, the B_2k/2k table and
the exponential weights inside `theta`, the w-power table inside
`bundles` and the basis forms of `modforms.monomial` are cached.

The "bundle" route builds one factor per row from the characters of
`bundles` (`_BUNDLE_ROWS`: each kind's builder and multiple, Phi being
2 lfactor_4k2), each root power (x/Phi)^(n_b+1) by Miller's recurrence
(`_root_power`), and assembles them in `_residue` with three `nilring`
kernels: one pair product (`rank_pair_mul`), a product by each further
factor at its linear form (`mul_linear`) and the contraction against the
axis factors (`contract_axes`).  The two routes share only the row list,
so over two or more factors their agreement checks the index sum and the
kernels against each other.
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
from .nilring import _times_linear, contract_axes, mul_linear, rank_pair_mul
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
_INDEX_ROWS = {
    "phi": (-1, ((-1, 2, 1),)),
    "twist": (1, ((-1, 4, 1), (-1, 2, -1))),
    "psi1": (1, ((1, 2, 1),))}
_BUNDLE_ROWS = {"phi": (bundles.lfactor_4k2, 2),
                "twist": (bundles.lfactor_4k, 1),
                "psi1": (bundles.psi1_factor, 1)}


# -- theta route over one factor: one exponential ---------------------

@functools.lru_cache(maxsize=256)
def _factor(build, *args):
    """build(*args), shared by every direction, instance and genus that
    asks for it: a one-factor coefficient, an index factor, or a bundle
    factor or root power (a tuple of QSeries).  256 entries hold the
    theta route's 105 distinct entries on the mass run: 40 one-factor
    coefficients, 52 index factors and 13 p-only scalars.
    """
    return build(*args)


def _merged(terms):
    """The cache key of the exponential of terms (kind, coef, m) for its
    one-factor coefficient: merged by (kind, |m|), their coefficients
    summed and zero sums dropped, which keeps every power sum
    sum coef * m^2k, and sorted."""
    merged = {}
    for kind, coef, m in terms:
        km = kind, abs(m)
        merged[km] = merged.get(km, 0) + coef
    return tuple(sorted([(kind, coef, m) for (kind, m), coef
                         in merged.items() if coef],
                        key=operator.itemgetter(0, 2)))


def _theta_residue(g: GCIData, rows):
    """Residue of prod_b (x_b/Phi)^(n_b+1) times the row factors.  Over
    one factor every form is m*x_1, so the residue is the x_1^n_1
    coefficient of one direction factor, read from `_THETA_ROWS`: the
    x_1^(n_1 - r) coefficient of its exponential, built alone by
    `theta.direction_coefficient`.  Over more it is `_index_sum`."""
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
    return _index_sum(g, rows)


# -- theta route over two or more factors: a Riemann-Roch index sum ----

def _primitive(d):
    """(u, m) with d = m*u, u primitive, its first nonzero entry positive."""
    m = math.gcd(*d)
    if next(filter(None, d)) < 0:
        m = -m
    return tuple([x // m for x in d]), m


def _pack(col, bits):
    """sum col[i] 2^(bits i): an int column as one int (Kronecker), read
    back by `_unpack` while every entry is below 2^(bits-1) in size."""
    v = 0
    for x in reversed(col):
        v = (v << bits) + x
    return v


def _unpack(cells, bits, n):
    """{key: the first n entries of its packed column, each taken signed}
    for the packed cells {key: column}."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    bias, shifts, out = _pack([half] * n, bits), range(0, bits * n, bits), {}
    for key, v in cells.items():
        v += bias  # each entry plus half is a digit in 0..mask
        out[key] = [((v >> i) & mask) - half for i in shifts]
    return out


def _low(v, width):
    """v mod 2^width taken signed: with width = bits * (P+1), a packed
    product cut to p^0..p^P."""
    half = 1 << (width - 1)
    return ((v + half) & ((1 << width) - 1)) - half


def _bits(norms):
    """Entry bits for products whose factors have these L1 norms: every
    coefficient of a product is at most the product of the norms."""
    return math.prod(norms).bit_length() + 1


def _times(f, terms, bits, width):
    """f times sum c t^a p^i over terms (c, a, i), f and the result Laurent
    polynomials in t, {exponent: packed column}, cut at 2^width; the
    products landing on one exponent are summed."""
    g = {}
    for v, x in f.items():
        for c, a, i in terms:
            g[v + a] = g.get(v + a, 0) + c * (x << i * bits)
    return {v: y for v, x in g.items() if (y := _low(x, width))}


def _binomial(s, j, e, N, p_order):
    """(1 + s p^j t^e)^N to p^p_order, N of either sign, as the nonzero
    terms (C(N, k) s^k, k e, k j) of `_times`."""
    terms = [(1, 0, 0)]
    for k in range(1, p_order // j + 1):
        c = terms[-1][0] * (N - k + 1) * s // k
        if not c:
            break
        terms.append((c, k * e, k * j))
    return terms


def _index_factor(prefactors, products, p_order):
    """prod over products ((s, e), N) and j = 1..p_order of
    ((1 + s p^j t^e)(1 + s p^j t^-e))^N times prod over prefactors
    (sigma, m) of (t^m + sigma t^-m), to p^p_order: a Laurent polynomial
    in t as sorted (exponent, int column) pairs, the zero columns left
    out, built on columns packed wide enough for every partial product."""
    steps = [_binomial(s, j, a, N, p_order) for (s, e), N in products
             for j in range(1, p_order + 1) for a in (e, -e)]
    steps += [[(1, m, 0), (sigma, -m, 0)] for sigma, m in prefactors]
    bits = _bits(sum(abs(c) for c, _, _ in terms) for terms in steps)
    f = {0: 1}
    for terms in steps:
        f = _times(f, terms, bits, bits * (p_order + 1))
    return tuple(sorted((v, tuple(col))
                        for v, col in _unpack(f, bits, p_order + 1).items()))


def _l1(f):
    """The L1 norm of a Laurent polynomial of `_index_factor`."""
    return sum([sum(map(abs, col)) for _, col in f])


def _vanishing(n, exponents):
    """The w, as a range, at which sum_e x_e prod_(i=1..n)
    (w + e - n - 1 + 2i) is 0 for any x: a product is 0 just at
    |w + e| < n, w + e + n odd, so at -n - min e < w < n - max e at that
    parity, and at no w if the exponents' parities mix."""
    if len({e % 2 for e in exponents}) > 1:
        return range(0)
    return range(1 - n - min(exponents), n - max(exponents), 2)


def _line_order(spans, dead):
    """The order in which `_index_sum` multiplies its lines, from their
    spans (each line's reach on each axis) and the axes' windows.  A
    window drops cells after a line once the later lines' reach on its
    axis is below its number of digits, so it can open before the last
    line if the least span on its axis is.  If some window can, the
    lines go by descending largest span, ties as listed; else as
    listed."""
    if any(min(col) < len(d) for col, d in zip(zip(*spans), dead)):
        return sorted(range(len(spans)), key=lambda i: max(spans[i]),
                      reverse=True)
    return range(len(spans))


def _index_sum(g: GCIData, rows):
    """The residue of `_theta_residue` over two or more factors, as the
    Riemann-Roch sum sum_k c_k(q) prod_b C(n_b + k_b, n_b).

    With p = q^2 and t = e^(y/2) on a line y = u.x, u primitive, the
    product formulas of `theta` make every factor a Laurent polynomial
    in t over int p-series, up to a p-only scalar: x/Phi(x) is A(x)
    prod_j (1 - p^j)^2 / ((1 - p^j t^2)(1 - p^j t^-2)), with
    A(x) = x / (e^(x/2) - e^(-x/2)), and a row at m y is t^m + sigma t^-m
    (halved but for Phi) times the products of `_INDEX_ROWS`.  The
    factors on one line merge into one `_index_factor`, cached by
    `_factor`.  By Hirzebruch-Riemann-Roch on CP^n,
    [x^n] A(x)^(n+1) e^(w x/2) = prod_(i=1..n) (w - n - 1 + 2i) / (2^n n!)
    for every w, so each axis factor is read alone and only the off-axis
    factors are multiplied out, into a lattice {v: c_v} of exponent
    vectors in half units, contracted one axis at a time.  The p-only
    scalar prod_j (1 + s p^j)^(-2N) of each product (one more
    `_index_factor`) and one denominator,
    2^(number of twist and Psi_1 rows) prod_b 2^n_b n_b!, come last.  No
    Bernoulli number, exponential or `nilring` kernel enters, and the
    cost does not depend on the cap grid.

    Each p-series is packed into one int (`_pack`), so a product of two
    is one int product.  The widths come from L1 norms, which bound
    every coefficient of a product: the lattice's from its lines', the
    contraction's from the lattice's times ||f_b||_1 (n_b + |w + e|)^n_b
    for each axis factor f_b, over its exponents e and |w| <= reach_b.
    Each v is one int, the balanced mixed-radix code sum_b v_b S_b with
    S_(b+1) = S_b (2 reach_b + 1), reach_b = sum over lines of
    max |k u_b|, so a line's term t^k moves a cell by k code(u), and the
    contraction reads the top digit w = (v + (S_b - 1)/2) // S_b.  A
    line's terms are sorted by their lowest p-degree, and a cell of
    lowest degree i stops at the first term above P - i, whose products
    would all be cut.  The sum is sum_v c_v prod_b R_b(v_b), R_b the axis
    column, 0 on the window of `_vanishing`.  Every factor's exponents
    share one parity (t^m + sigma t^-m has +-m, the products even ones),
    so a cell of digit w_b after a line ends in w_b - rem_b, ..., w_b +
    rem_b in steps of 2, rem_b the later lines' reach; it is dropped,
    exactly, when both ends lie in the window on some axis.  Every cell
    is a sum that does not depend on the order of the lines, so they are
    taken in the order of `_line_order`, by descending span when that
    lets a window open before the last line, and a lattice left with no
    cell is 0 at once: no later line, axis column, width or p-only
    scalar is read.  The lattice's cells are unpacked once, so each of
    their entries multiplies a packed axis column, sum over e of
    x_e prod_(i=1..n) (w + e - n - 1 + 2i): each product is computed once
    per axis and w + e, and the zero ones are left out.
    """
    caps, P = g.n, g.q_order // 2
    axes = [(0,) * b + (1,) + (0,) * (g.s - b - 1) for b in range(g.s)]
    pieces = {u: ([], {(-1, 2): -cap - 1}) for u, cap in zip(axes, caps)}
    sign, halves = 1, 0
    for kind, d in rows:
        sigma, products = _INDEX_ROWS[kind]
        if not any(d):  # Phi(0) = 0; the twist and Psi_1 are 1 at 0
            sign *= sigma > 0
            continue
        u, m = _primitive(d)
        if m < 0:  # t^m + sigma t^-m = sigma (t^-m + sigma t^m)
            sign, m = sign * sigma, -m
        halves += sigma > 0
        prefactors, exponents = pieces.setdefault(u, ([], {}))
        prefactors.append((sigma, m))
        for s, e, N in products:
            exponents[s, e * m] = exponents.get((s, e * m), 0) + N
    if not sign:
        return QSeries.zero(g.q_order)
    factors = {u: _factor(_index_factor, tuple(sorted(prefactors)),
                          tuple(sorted(kv for kv in exponents.items()
                                       if kv[1])), P)
               for u, (prefactors, exponents) in pieces.items()}
    lines = [(u, f) for u, f in factors.items() if u not in axes]
    bits = _bits([_l1(f) for _, f in lines])
    spans = [[max([abs(k * x) for k, _ in f]) for x in u] for u, f in lines]
    reach = rem = [sum(col) for col in zip([0] * g.s, *spans)]
    strides = [1]
    for r in reach:
        strides.append(strides[-1] * (2 * r + 1))
    dead = [_vanishing(n, [e for e, _ in factors[u]])
            for n, u in zip(caps, axes)]
    lattice, half = {0: 1}, strides[-1] // 2
    for i in _line_order(spans, dead):
        (u, f), span = lines[i], spans[i]
        step = sum(map(operator.mul, u, strides))
        terms = [(k * step, _pack(col, bits)) for k, col in f]
        terms = sorted([(((x & -x).bit_length() - 1) // bits, a, x)
                        for a, x in terms])  # by lowest p-degree
        cells = {}
        for v, c in lattice.items():
            room = P - ((c & -c).bit_length() - 1) // bits
            for d, a, x in terms:
                if d > room:
                    break
                cells[v + a] = cells.get(v + a, 0) + c * x
        rem = list(map(operator.sub, rem, span))  # the later lines' reach
        # per axis, the digits v_b + reach_b, read as (v + half) // S_b % R_b,
        # whose every end lies in its window
        drop = [(S, 2 * r + 1, w) for S, r, k, d
                in zip(strides, reach, rem, dead)
                if (w := range(d.start + r + k, d.stop + r - k, 2))]
        lattice = {v: y for v, c in cells.items()
                   if not (drop and any(
                       [(v + half) // S % R in w for S, R, w in drop]))
                   and (y := _low(c, bits * (P + 1)))}
        if not lattice:  # every cell dropped: nothing more is read
            return QSeries.zero(g.q_order)
    lattice = _unpack(lattice, bits, P + 1)
    bits = _bits([sum([sum(map(abs, c)) for c in lattice.values()])] + [
        _l1(f) * (n + r + max(abs(e) for e, _ in f)) ** n
        for n, r, f in zip(caps, reach, map(factors.get, axes))])
    for b in reversed(range(g.s)):  # the top digit, keyed by the others
        n, stride = caps[b], strides[b]
        f = [(e, _pack(col, bits)) for e, col in factors[axes[b]]]
        tops = {v: (v + (stride - 1) // 2) // stride for v in lattice}
        ws, sums = set(tops.values()), {}
        products = {z: y for z in {w + e for w in ws for e, _ in f}
                    if (y := math.prod(range(z - n + 1, z + n, 2)))}
        column = {w: sum([x * products[w + e] for e, x in f
                          if w + e in products]) for w in ws}
        for v, c in lattice.items():
            w = tops[v]
            x, row = column[w], sums.setdefault(v - w * stride, [0] * (P + 1))
            for i, y in enumerate(c):  # row[i]: y p^i times the column
                if y:
                    row[i] += y * x
        lattice = _unpack({v: _pack(row, bits) for v, row in sums.items()},
                          bits, P + 1)
    scalar = {}
    for _, exponents in pieces.values():
        for (s, _), N in exponents.items():
            scalar[s] = scalar.get(s, 0) - N
    ((_, col),) = _factor(_index_factor, (), tuple(sorted(
        [((s, 0), N) for s, N in scalar.items() if N])), P)
    num = [0] * (g.q_order + 1)
    num[::2] = [sign * x for x in conv_add([0] * (P + 1),
                                           lattice.get(0, ()), col)]
    den = 2 ** (halves + sum(caps)) * math.prod(map(math.factorial, caps))
    return QSeries._make(num, den, g.q_order)


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

    The constant 1 at the zero form pads 0 or 1 linear-form factors to 2.
    The first two are one rank_pair_mul product, each further factor
    enters by mul_linear, and contract_axes reads the result P against
    the axis factors A_b: sum_e P[e] * prod_b A_b[cap_b - e_b] (prod_b
    A_b[cap_b] when P is 1).  Every stage reads and returns int
    numerators over one denominator, reduced once.
    """
    caps, qo = g.n, g.q_order
    one = (QSeries.one(qo),) + (QSeries.zero(qo),) * sum(caps)
    specs = specs + [(one, (0,) * g.s)] * (2 - len(specs))
    acc = rank_pair_mul(*specs[0], *specs[1], caps, qo)
    for f, d in specs[2:]:
        acc = mul_linear(acc, f, d)
    return contract_axes(acc, axes)


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
