"""Multivariate polynomials over QSeries with nilpotent generators.

Models the truncated cohomology ring of a product of projective spaces:
generators x_1..x_s with x_b^(cap_b + 1) = 0, scalars in Q[[q]] truncated
at a common q-order.  Monomials that overflow a cap are silently dropped.
A NilPoly is held as int numerator lists (length q_order + 1), one per
monomial and none all zero, over one positive int denominator, reduced
so that gcd(den, every numerator) = 1; equal values have equal
representations, so equality is value-based (hash() raises TypeError,
as for the dict it holds).  A NilPoly is the kernels' record, built only
by `_make`: it has no public constructor and no ring operation; the
kernels below read its numerators directly and reduce their output once,
by one common gcd.  The theta and bundle factors are not NilPolys: each
is a tuple of its QSeries coefficients by x-degree (`qseries.XSeries`),
which every kernel reads by `_int_factor`, to the degree it needs; a
shorter one raises InsufficientDegreeError, and one of another q-order
OrderMismatchError.

A series f evaluated at a linear form ell = sum d_b x_b has the separable
coefficient structure f(ell)[e] = weight(e) * f_{|e|} with integer
weights.  rank_pair_mul builds a product f_a(ell_a) * f_b(ell_b) of two
such polynomials from the integer coefficients of ell_a^i * ell_b^j on
the cap grid, built level by level: when the factors' nonzero x-degrees
step by g (g = 2 for the even and odd theta factors) each level peels
ell^g, so the degrees that no term reaches are skipped.  Per level one
table of int q-products, its all-zero q-rows left out, turns the
weights into numerators by int dot products, which is far cheaper than
termwise ring multiplication; with f_b = 1 at ell_b = 0 it evaluates
one series at a linear form.  mul_linear multiplies a NilPoly by a
series at a linear form, and contract_axes contracts one against a
series on each axis to the top coefficient.
"""
from __future__ import annotations

import itertools
import math
import operator

from .errors import InsufficientDegreeError, OrderMismatchError
from .qseries import QSeries, conv_add


class NilPoly:
    """The residue kernels' record: cells maps exponent tuples (e_1..e_s),
    e_b <= cap_b, to int numerator lists over the one denominator den.
    It has no public constructor, `_make` builds every NilPoly, and it has
    no ring operation: a product with a series at a linear form is
    `mul_linear`, and there is no product of two NilPolys."""

    __slots__ = ("caps", "q_order", "cells", "den")

    def __new__(cls, *args, **kwargs):
        raise TypeError("NilPoly has no public constructor; NilPoly._make "
                        "builds every NilPoly")

    @classmethod
    def _make(cls, caps, q_order, cells, den):
        """Internal: the poly of int numerator lists over den > 0, the
        all-zero lists dropped and the rest divided by the gcd of den and
        every numerator.  Takes ownership of the lists."""
        cells = {e: num for e, num in cells.items() if any(num)}
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(cells.values()))
            if g != 1:
                cells = {e: [x // g for x in num] for e, num in cells.items()}
                den //= g
        obj = object.__new__(cls)
        obj.caps, obj.q_order, obj.cells, obj.den = caps, q_order, cells, den
        return obj

    def __eq__(self, other):
        if not isinstance(other, NilPoly):
            return NotImplemented
        return (self.caps == other.caps and self.q_order == other.q_order
                and self.den == other.den and self.cells == other.cells)

    def __repr__(self):
        parts = []
        for e, num in sorted(self.cells.items()):
            c = QSeries._make(num, self.den, self.q_order)
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
            parts.append(f"({c!r})*{mono}")
        return f"NilPoly[caps={self.caps}]({' + '.join(parts) or '0'})"


def _int_factor(coeffs, degree, q_order):
    """The one input form of a factor: coeffs, QSeries by x-degree, to
    x^degree as (nums, den, r, g, top), the int numerator lists over
    their lcm den, nonzero only at degrees in r + gZ ending at top (g = 0
    for one such degree; an all-zero factor has r = top = 0).  Raises
    InsufficientDegreeError when coeffs stops short of degree and
    OrderMismatchError when one of those coefficients is not at q_order."""
    if len(coeffs) < degree + 1:
        raise InsufficientDegreeError("series not supplied to degree "
                                      f"{degree}")
    series = coeffs[:degree + 1]
    if {c.order for c in series} != {q_order}:
        raise OrderMismatchError(f"factor q-order is not {q_order}")
    den = math.lcm(*(c.den for c in series))
    nums = [c.num if c.den == den else [x * (den // c.den) for x in c.num]
            for c in series]
    ks = [k for k, u in enumerate(nums) if any(u)] or [0]
    return nums, den, ks[0], math.gcd(*(k - ks[0] for k in ks)), ks[-1]


def _times_linear(poly, d, caps, times):
    """poly * (sum_b d_b x_b)^times for an int polynomial {e: int} on the
    cap grid, zero coefficients dropped."""
    for _ in range(times):
        out = {}
        for e, c in poly.items():
            for b, db in enumerate(d):
                if db and e[b] < caps[b]:
                    f = e[:b] + (e[b] + 1,) + e[b + 1:]
                    out[f] = out.get(f, 0) + c * db
        poly = {e: c for e, c in out.items() if c}
    return poly


def rank_pair_mul(fa_coeffs, da, fb_coeffs, db, caps, q_order):
    """The product f_a(ell_a) * f_b(ell_b) as a NilPoly, using the
    separable structure.

    fa_coeffs and fb_coeffs are sequences of QSeries by x-degree.  The
    coefficient at x^E, |E| = K, is sum_i W_E[i] * f_a[i] * f_b[K-i] with
    the integers W_E[i] = [x^E] ell_a^i ell_b^(K-i).  When the nonzero
    degrees of f_a and f_b lie in r_a + gZ and r_b + gZ (g = 2 for the
    even and odd theta factors), only i = r_a + g*s and K - i = r_b + g*t
    occur, and the weights are built level by level in L = s + t:

        W^0 = ell_a^(r_a) ell_b^(r_b),
        W^L_E[s] = sum_e A_e W^(L-1)_(E-e)[s-1]  (s > 0),
        W^L_E[0] = sum_e B_e W^(L-1)_(E-e)[0],

    with A_e and B_e the integer coefficients of ell_a^g and ell_b^g, |e| = g.
    Only the previous level is kept, and a cell keeps only the window of s
    that it and its successors read.  With g = 1 and r = 0 this peels one
    linear factor per step.  f_a and f_b are each read to x^|caps| by
    _int_factor, once; per level the products f_a[i] * f_b[K-i] are
    int q-convolutions, stored as one row per q-degree with the
    all-zero rows (the odd q-degrees) left out, so a cell's numerators are
    the dot products of its weights with the rows.  The result is reduced
    once, by one common gcd.
    """
    caps = tuple(caps)
    total = sum(caps)
    if len(da) != len(caps) or len(db) != len(caps):
        raise ValueError("direction vector arity mismatch")
    (fa, den_a, ra, ga, top_a), (fb, den_b, rb, gb, top_b) = (
        _int_factor(f, total, q_order) for f in (fa_coeffs, fb_coeffs))
    g = math.gcd(ga, gb) or 1
    ta, tb = (top_a - ra) // g, (top_b - rb) // g
    # flat cell indices, the positions in lexicographic order; E - e off
    # the grid (some E_b < e_b) is never the index of a cell on the
    # previous level, since each borrow adds cap_b to the degree
    strides = [math.prod(c + 1 for c in caps[b + 1:])
               for b in range(len(caps))]

    def flat(e):
        return sum(map(operator.mul, e, strides))

    zero = (0,) * len(caps)
    pow_a = _times_linear({zero: 1}, da, caps, g)
    pow_b = _times_linear({zero: 1}, db, caps, g)
    steps = [(flat(e), pow_a.get(e, 0), pow_b.get(e, 0))
             for e in pow_a.keys() | pow_b.keys()]
    by_degree = [[] for _ in range(total + 1)]
    for idx, E in enumerate(itertools.product(*[range(c + 1)
                                                for c in caps])):
        by_degree[sum(E)].append((E, idx))
    start = _times_linear(_times_linear({zero: 1}, da, caps, ra), db, caps,
                          rb)
    cells, prev = {}, {}
    for L in itertools.count():
        K = ra + rb + g * L
        lo, hi = max(0, L - tb), min(L, ta)
        if K > total or lo > hi:
            break
        if L:
            n_tail = hi - max(lo, 1) + 1
            level = []
            for E, idx in by_degree[K]:
                head, tail = 0, None
                for off, a, b in steps:
                    p = prev.get(idx - off)
                    if p is None:
                        continue
                    if a:
                        tail = ([a * y for y in p[:n_tail]] if tail is None
                                else [x + a * y for x, y in zip(tail, p)])
                    if b and not lo:
                        head += b * p[0]
                if tail is None:
                    if not head:
                        continue
                    tail = [0] * n_tail
                level.append((E, idx, [head] + tail if not lo else tail))
        else:
            level = [(E, flat(E), [w]) for E, w in start.items()]
        prev = {idx: vec for _, idx, vec in level}
        prods = [conv_add([0] * (q_order + 1), fa[i], fb[K - i])
                 for i in range(ra + g * lo, ra + g * hi + 1, g)]
        rows = [(m, row) for m, row in enumerate(zip(*prods)) if any(row)]
        if rows:
            for E, _, vec in level:
                num = [0] * (q_order + 1)
                for m, row in rows:
                    num[m] = sum(map(operator.mul, vec, row))
                cells[E] = num
    return NilPoly._make(caps, q_order, cells, den_a * den_b)


def mul_linear(poly, coeffs, d):
    """poly * f(ell) for f = sum_k coeffs[k] y^k, coeffs a sequence of
    QSeries by x-degree to degree sum(caps), at ell = sum_b d_b x_b.

    T_E[k] = [x^E] poly * ell^k obeys T_E[0] = poly[E] and T_E[k] =
    sum_b d_b T_(E-e_b)[k-1].  It is built over the cap grid in
    lexicographic order, one column over k per q-degree that poly
    reaches, and T_(E-e_1) is dropped once E, its last reader, is built.
    f is read by _int_factor, once; each output numerator is one int dot
    product over f's nonzero degrees k0 + gZ per pair of nonzero
    q-degrees, and the result is reduced once.
    """
    caps, q_order = poly.caps, poly.q_order
    if len(d) != len(caps):
        raise ValueError("direction vector arity mismatch")
    factor, den_f, k0, g, top = _int_factor(coeffs, sum(caps), q_order)
    g = g or 1
    fcols = [(j, c) for j, c in enumerate(zip(*factor[k0:top + 1:g]))
             if any(c)]
    qs = [i for i in range(q_order + 1)
          if any(num[i] for num in poly.cells.values())]
    steps = [(b, db) for b, db in enumerate(d) if db]
    T, out = {}, {}
    for E in itertools.product(*[range(c + 1) for c in caps]):
        # cols[c][k - 1] = sum_b d_b T_(E-e_b)[k - 1] at q-degree qs[c]
        cols = None
        for b, db in steps:
            prev = T.get(E[:b] + (E[b] - 1,) + E[b + 1:])
            if prev is None:
                continue
            cols = ([[db * y for y in col] for col in prev] if cols is None
                    else [[x + db * y for x, y in zip(acc, col)]
                          for acc, col in zip(cols, prev)])
        T.pop((E[0] - 1,) + E[1:], None)
        cell = poly.cells.get(E)
        if cols is None:
            if cell is None:
                continue
            cols = [[0] * min(sum(E), top)] * len(qs)
        T[E] = cols = [[cell[i] if cell else 0] + col[:top]
                       for i, col in zip(qs, cols)]
        out[E] = num = [0] * (q_order + 1)
        for i, col in zip(qs, cols):
            col = col[k0::g]
            for j, fcol in fcols:
                if i + j > q_order:
                    break
                num[i + j] += sum(map(operator.mul, col, fcol))
    return NilPoly._make(caps, q_order, out, poly.den * den_f)


def contract_axes(poly, axes):
    """The top coefficient of P * prod_b axes[b](x_b) for a NilPoly P, the
    axes[b] sequences of QSeries by x-degree to x^cap_b, one per axis,
    without forming the product.

    sum_e P[e] * prod_b axes[b][cap_b - e_b], summed out one axis at a
    time, the last first.  Each axis factor is read by _int_factor, and
    the sum is reduced once.
    """
    caps, q_order = poly.caps, poly.q_order
    if len(axes) != len(caps):
        raise ValueError("axis factor count mismatch")
    factors = [_int_factor(f, cap, q_order) for f, cap in zip(axes, caps)]
    cells, den = poly.cells, poly.den
    for b in reversed(range(len(caps))):
        cap = caps[b]
        col, den_b = factors[b][:2]
        sums = {}
        for e, num in cells.items():
            acc = sums.get(e[:b])
            if acc is None:
                acc = sums[e[:b]] = [0] * (q_order + 1)
            conv_add(acc, num, col[cap - e[b]])
        cells, den = sums, den * den_b
    return QSeries._make(cells.get((), [0] * (q_order + 1)), den, q_order)
