"""Generalized complete intersections and their Diophantine condition checks.

An instance is V(D) in CP^{n_1} x ... x CP^{n_s}: the common zero locus of
t generic sections of the line bundles with multi-degree rows of D.  The
characteristic-class conditions (spin, string, string^c) all reduce to
integer matrix identities in (n, D, C), which is what this module checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import DimensionError
from .qseries import _check_int

DEFAULT_Q_ORDER = 20  # of an instance, a search and the command


def _ints(v, what):
    """v as a tuple of plain ints (type() is int, so bool is refused)."""
    if not isinstance(v, (list, tuple)) or not {int}.issuperset(map(type, v)):
        raise TypeError(f"{what} must be a list of integers, got {v!r}")
    return tuple(v)


@dataclass(frozen=True)
class GCIData:
    """A GCI instance: ambient dims n (length s), degree matrix D (t x s),
    optional ambient spin^c coefficients C (length s).

    Every entry must be a plain int (bool is refused) and n, D, its rows
    and C lists or tuples: malformed input raises TypeError instead of
    being coerced.
    """

    n: tuple
    D: tuple
    C: Optional[tuple] = None
    q_order: int = DEFAULT_Q_ORDER

    def __init__(self, n, D, C=None, q_order=DEFAULT_Q_ORDER):
        n = _ints(n, "n")
        if not isinstance(D, (list, tuple)):
            raise TypeError(f"D must be a list of degree rows, got {D!r}")
        D = tuple([_ints(row, "a degree row") for row in D])
        _check_int(q_order, "q_order")
        s = len(n)
        if not n:
            raise ValueError("n must name at least one ambient factor")
        if min(n) < 1:
            raise ValueError("ambient dimensions must be >= 1")
        if not {s}.issuperset(map(len, D)):
            raise ValueError("degree row length must match number of factors")
        if C is not None:
            C = _ints(C, "C")
            if len(C) != s:
                raise ValueError("C length must match number of factors")
        if sum(n) - len(D) < 0:
            raise DimensionError("negative complex dimension")
        vars(self).update(n=n, D=D, C=C, q_order=q_order)  # frozen dataclass

    @property
    def s(self):
        return len(self.n)

    @property
    def t(self):
        return len(self.D)


def dims(g: GCIData):
    """(complex_dim, real_dim) of the intersection."""
    c = sum(g.n) - g.t
    return c, 2 * c


def column_sums(g: GCIData):
    return [sum(row[b] for row in g.D) for b in range(g.s)]


def m_vector(g: GCIData):
    """m_beta = number of nonzero degrees in column beta."""
    return [sum(1 for row in g.D if row[b]) for b in range(g.s)]


def w2_vector(g: GCIData):
    """Second Stiefel-Whitney class coefficients (n_b + 1 - sum_a d_ab) mod 2."""
    return [(g.n[b] + 1 - c) % 2 for b, c in enumerate(column_sums(g))]


def p1_matrix(g: GCIData):
    """The first-Pontryagin Gram matrix Diag(n+1) - D^T D (s x s, symmetric)."""
    s = g.s
    P = [[0] * s for _ in range(s)]
    for b in range(s):
        for c in range(s):
            P[b][c] = -sum(row[b] * row[c] for row in g.D)
        P[b][b] += g.n[b] + 1
    return P


def stringc_coefficient(g: GCIData):
    """3 in real dimension 4k, 1 in 4k+2 (the anomaly coefficient 2 + (-1)^m)."""
    cdim, _ = dims(g)
    return 3 if cdim % 2 == 0 else 1


def codim_ok(g: GCIData):
    """Hypothesis m_beta + 2 <= n_beta for every ambient factor."""
    return all(m + 2 <= nb for m, nb in zip(m_vector(g), g.n))


def even_rows(g: GCIData):
    """Indices of the nonzero degree rows whose entries are all even.

    An all-zero row cuts out the empty set, so it is never distinguished.
    """
    return [a for a, row in enumerate(g.D)
            if any(row) and all(d % 2 == 0 for d in row)]


def thm42_ok(g: GCIData):
    """(flag, first all-even row index) for the mod-2 vanishing hypotheses."""
    rep = condition_report(g)
    return rep.thm42_ok, rep.even_row


@dataclass
class ConditionReport:
    spin: bool
    string: bool
    stringc: Optional[bool]
    codim_ok: bool
    thm42_ok: bool
    even_row: Optional[int]
    dims: tuple
    sufficient_only: bool
    diagnostics: list = field(default_factory=list)


def condition_report(g: GCIData):
    """Evaluate every condition once and collect human-readable violations.

    spin is w2 = 0; string is spin with vanishing half-first-Pontryagin
    class, Diag(n+1) - D^T D = 0; stringc is the dimension-appropriate
    identity Diag(n+1) - D^T D = k * C^T C (`stringc_coefficient`), or
    None when the instance has no C.  `thm42_ok` reads this report.

    The matrix identities are meaningful characterizations only under the
    codimension hypothesis; when that fails the report is marked
    sufficient_only rather than suppressed.
    """
    diags = []
    w2 = w2_vector(g)
    spin = not any(w2)
    if not spin:
        diags.append(f"w2 nonzero in columns {[b for b, v in enumerate(w2) if v]}")
    P = p1_matrix(g)
    p1_zero = not any(map(any, P))
    if not p1_zero:
        diags.append(f"Diag(n+1) - D^T D = {P} != 0")
    string = spin and p1_zero
    stringc = None
    if g.C is not None:
        k = stringc_coefficient(g)
        stringc = all(P[b][c] == k * g.C[b] * g.C[c]
                      for b in range(g.s) for c in range(g.s))
        if not stringc:
            diags.append(
                f"Diag(n+1) - D^T D != {k} * C^T C (coefficient {k} branch)")
    cod = codim_ok(g)
    if not cod:
        diags.append("codimension hypothesis m_b + 2 <= n_b fails; "
                     "matrix conditions are sufficient-only")
    for a, degrees in enumerate(g.D):
        if not any(degrees):  # a nowhere-zero section: V is empty
            diags.append(f"degree row {a} is all zero: V is empty")
    dim = dims(g)
    rows = even_rows(g)
    t42 = dim[1] % 8 == 2 and string and cod and bool(rows)
    return ConditionReport(spin=spin, string=string, stringc=stringc,
                           codim_ok=cod, thm42_ok=t42,
                           even_row=rows[0] if rows else None,
                           dims=dim, sufficient_only=not cod,
                           diagnostics=diags)
