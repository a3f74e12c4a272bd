"""Exhaustive enumeration of string / string^c GCI instances within bounds.

The diagonal Diophantine equations determine the ambient dimensions from
the degree columns (n_b + 1 = sum_a d_ab^2 [+ k c_b^2]), so only degree
rows and spin^c coefficients are enumerated.  The off-diagonal equations
sum_a d_ab d_ac = -k c_b c_c (k = 0 for string) are checked on the raw
integers before any instance is built, which rejects almost every
candidate over two or more factors.  Instances are emitted in a
canonical form: degree rows sorted, ambient factors (columns) sorted,
deduplicated up to column permutation.  Row signs are not quotiented.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .gci import (GCIData, codim_ok, condition_report, dims, is_string,
                  is_stringc, stringc_coefficient)


@dataclass
class SearchQuery:
    s_max: int = 2
    t_max: int = 4
    d_max: int = 4
    c_max: int = 2
    target_real_dim: Optional[int] = None
    positive: bool = True
    require_codim: bool = True
    q_order: int = 20


@dataclass
class FoundInstance:
    g: GCIData
    report: object  # ConditionReport

    def key(self):
        return (self.g.n, self.g.D, self.g.C)


def _degree_values(q: SearchQuery):
    if q.positive:
        return list(range(1, q.d_max + 1))
    return [v for v in range(-q.d_max, q.d_max + 1)]


def _canonical(n, D, C):
    """Sort rows, then sort ambient factors by (n, column, c), rebuilding D."""
    s = len(n)
    cols = []
    for b in range(s):
        col = tuple(row[b] for row in D)
        cols.append((n[b], col, C[b] if C is not None else 0))
    order = sorted(range(s), key=lambda b: cols[b])
    n2 = tuple(n[b] for b in order)
    C2 = tuple(C[b] for b in order) if C is not None else None
    D2 = tuple(sorted(tuple(row[b] for b in order) for row in D))
    return n2, D2, C2


def _row_multisets(q: SearchQuery, s, t):
    values = _degree_values(q)
    rows = sorted(itertools.product(values, repeat=s))
    return itertools.combinations_with_replacement(rows, t)


def _gram_offdiag(D):
    """(b, c, sum_a d_ab * d_ac) for every pair of ambient factors b < c."""
    return [(b, c, sum(row[b] * row[c] for row in D))
            for b, c in itertools.combinations(range(len(D[0])), 2)]


def _emit(q: SearchQuery, n, D, C, check):
    n, D, C = _canonical(n, D, C)
    g = GCIData(n, D, C, q_order=q.q_order)
    if not check(g):
        return None
    if q.require_codim and not codim_ok(g):
        return None
    if q.target_real_dim is not None and dims(g)[1] != q.target_real_dim:
        return None
    return FoundInstance(g, condition_report(g))


def _find(q: SearchQuery, coef, residue, check):
    """Canonical instances with n_b + 1 = sum_a d_ab^2 + coef * c_b^2 that
    pass the off-diagonal equations and `check`.  coef 0 is the string
    case, with C = None; otherwise C runs over [-c_max, c_max]^s and the
    real dimension must be residue mod 4."""
    found = {}
    for s in range(1, q.s_max + 1):
        cvals = range(-q.c_max, q.c_max + 1)
        cvecs = list(itertools.product(cvals, repeat=s)) if coef else [None]
        for t in range(1, q.t_max + 1):
            for D in _row_multisets(q, s, t):
                base = [sum(row[b] ** 2 for row in D) - 1 for b in range(s)]
                offdiag = _gram_offdiag(D)
                for C in cvecs:
                    c = C or (0,) * s
                    n = [v + coef * cb ** 2 for v, cb in zip(base, c)]
                    if any(v < 1 for v in n) or sum(n) < t:
                        continue
                    if coef and (sum(n) - t) * 2 % 4 != residue:
                        continue
                    if any(dot + coef * c[b] * c[e] for b, e, dot in offdiag):
                        continue
                    inst = _emit(q, n, D, C, check)
                    if inst is not None:
                        found.setdefault(inst.key(), inst)
    return [found[k] for k in sorted(found)]


def find_string(q: SearchQuery):
    """All canonical string instances within bounds (n derived from columns)."""
    return _find(q, 0, None, is_string)


def find_stringc(q: SearchQuery, parity):
    """Canonical string^c instances; parity selects the dim 4k or 4k+2 branch."""
    if parity not in ("dim4k", "dim4k2"):
        raise ValueError("parity must be 'dim4k' or 'dim4k2'")
    coef, residue = (3, 0) if parity == "dim4k" else (1, 2)
    return _find(q, coef, residue,
                 lambda g: is_stringc(g) and stringc_coefficient(g) == coef)
