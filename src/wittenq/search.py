"""Exhaustive enumeration of string / string^c GCI instances within bounds.

The diagonal equations n_b + 1 = sum_a d_ab^2 [+ k c_b^2] give the ambient
dimensions, so only degree rows and spin^c coefficients are enumerated.
The off-diagonal ones, sum_a d_ab d_ae = -k c_b c_e (k = 0 for string),
are a join: C-vectors are bucketed by the Gram entries they require, and
a depth-first walk over sorted rows adds each row's Gram increments and
squares to the running sums, so a row multiset meets only its bucket, and
no checker runs: a found instance computes its report only when read.
Positive rows raise every sum, so a prefix that no bucket key bounds is
cut: no string instance has s >= 2, none has s >= 3, and degrees are
bounded for s = 2.  Instances are canonical (rows and ambient factors
sorted); a repeat up to column permutation is dropped before it is
built.  Row signs are not quotiented.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, ge
from typing import Optional

from .gci import (DEFAULT_Q_ORDER, GCIData, codim_ok, condition_report,
                  dims)
from .qseries import _check_int


@dataclass
class SearchQuery:
    s_max: int = 2
    t_max: int = 4
    d_max: int = 4
    c_max: int = 2
    target_real_dim: Optional[int] = None
    positive: bool = True
    require_codim: bool = True
    q_order: int = DEFAULT_Q_ORDER

    def __post_init__(self):
        """Each field checked as GCIData checks its own: plain ints (a
        bool refused) within their bounds, target_real_dim None or an
        even int >= 0, positive and require_codim bools."""
        for name, least in (("s_max", 1), ("t_max", 1), ("d_max", 1),
                            ("c_max", 0), ("q_order", 0)):
            _check_int(getattr(self, name), name, least)
        dim = self.target_real_dim
        if dim is not None:
            _check_int(dim, "target_real_dim")
            if dim % 2:
                raise ValueError(f"target_real_dim must be even, got {dim}")
        for name in ("positive", "require_codim"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise TypeError(f"{name} must be a bool, got {value!r}")


@dataclass
class FoundInstance:
    g: GCIData

    @property
    def report(self):
        """`condition_report(self.g)`, computed on each read."""
        return condition_report(self.g)


def _canonical(n, D, C):
    """Sort rows, then sort ambient factors by (n, column, c), rebuilding D.
    D's rows must be in nondecreasing order, as the join appends them: one
    factor has no column to permute, so its key is (tuple(n), D, C)."""
    s = len(n)
    if s == 1:
        return tuple(n), D, C
    cols = [(n[b], tuple(row[b] for row in D), C[b] if C is not None else 0)
            for b in range(s)]
    order = sorted(range(s), key=lambda b: cols[b])
    n2 = tuple(n[b] for b in order)
    C2 = tuple(C[b] for b in order) if C is not None else None
    D2 = tuple(sorted(tuple(row[b] for b in order) for row in D))
    return n2, D2, C2


def _instance(q: SearchQuery, n, D, C):
    """The instance at canonical (n, D, C), or None if a filter rejects it."""
    g = GCIData(n, D, C, q_order=q.q_order)
    if q.require_codim and not codim_ok(g):
        return None
    if q.target_real_dim is not None and dims(g)[1] != q.target_real_dim:
        return None
    return FoundInstance(g)


def _find(q: SearchQuery, coef):
    """Canonical instances with Diag(n+1) - D^T D = coef * C^T C, by
    construction: n solves the diagonal, n_b + 1 = sum_a d_ab^2 + coef c_b^2,
    and the bucket key fixes each off-diagonal entry to -coef c_b c_e.
    coef 0 is the string case, C = None, where spin follows since d^2 = d
    mod 2.  Otherwise C runs over [-c_max, c_max]^s and the complex
    dimension must be even for coef 3, odd for coef 1."""
    found = {}  # canonical key -> instance, or None if filtered out
    values = range(1 if q.positive else -q.d_max, q.d_max + 1)
    for s in range(1, q.s_max + 1):
        pairs = list(itertools.combinations(range(s), 2))
        cvals = range(-q.c_max, q.c_max + 1)
        buckets = {}  # Gram key -> [(C, coef * c_b^2 over b)]
        for C in itertools.product(cvals, repeat=s) if coef else [None]:
            c = C or (0,) * s
            key = tuple(-coef * c[b] * c[e] for b, e in pairs)
            buckets.setdefault(key, []).append((C, [coef * v * v for v in c]))
        # a prefix is bounded by a key that no sum of it exceeds; the
        # componentwise maximum of the keys decides this for one pair and
        # is a pre-test for more
        top = tuple(map(max, zip(*buckets)))
        pretest = len(pairs) > 1
        # each row with its Gram increments d_ab d_ae and its squares d_ab^2
        rows = [(row, tuple(row[b] * row[e] for b, e in pairs),
                 tuple(d * d for d in row))
                for row in sorted(itertools.product(values, repeat=s))]
        # (first row allowed, rows so far, sum_a d_ab^2, Gram sums)
        stack = [(0, (), (0,) * s, (0,) * len(pairs))]
        while stack:
            start, D, sq, gram = stack.pop()
            for C, extra in buckets.get(gram, ()) if D else ():
                n = [v - 1 + w for v, w in zip(sq, extra)]
                if any(v < 1 for v in n) or sum(n) < len(D):
                    continue
                if coef and (1 if (sum(n) - len(D)) % 2 else 3) != coef:
                    continue
                key = _canonical(n, D, C)
                if key not in found:
                    found[key] = _instance(q, *key)
            if len(D) == q.t_max:
                continue
            for i, (row, step, squares) in enumerate(rows[start:], start):
                nxt = tuple(map(add, gram, step))
                # positive rows only raise the sums: cut what no key bounds
                if not q.positive or all(map(ge, top, nxt)) and (
                        not pretest or any(all(map(ge, key, nxt))
                                           for key in buckets)):
                    stack.append((i, D + (row,), tuple(map(add, sq, squares)),
                                  nxt))
    return [found[k] for k in sorted(found) if found[k] is not None]


def find_string(q: SearchQuery):
    """All canonical string instances within bounds (n derived from columns)."""
    return _find(q, 0)


def find_stringc(q: SearchQuery, parity):
    """Canonical string^c instances; parity selects the dim 4k or 4k+2 branch."""
    if parity not in ("dim4k", "dim4k2"):
        raise ValueError("parity must be 'dim4k' or 'dim4k2'")
    return _find(q, 3 if parity == "dim4k" else 1)
