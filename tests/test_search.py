"""Tests for the exhaustive instance search."""

import dataclasses
import hashlib
import itertools
import json

import pytest

from wittenq import search
from wittenq.gci import (GCIData, codim_ok, condition_report, dims,
                         stringc_coefficient)
from wittenq.search import (FoundInstance, SearchQuery, find_string,
                            find_stringc)


def _key(inst):
    """The instance's (n, D, C), canonical as the search returns it."""
    return inst.g.n, inst.g.D, inst.g.C


def test_string_search_contains_known_instance():
    results = find_string(SearchQuery(s_max=1, t_max=2, d_max=2))
    keys = {_key(inst) for inst in results}
    assert ((4,), ((1,), (2,)), None) in keys


def test_string_search_brute_force_completeness():
    """Independently enumerate all (n, D) with s=1 and compare."""
    t_max, d_max = 3, 3
    expect = set()
    n_max = t_max * d_max ** 2  # p1 = 0 forces n + 1 = sum d^2 <= this bound
    for t in range(1, t_max + 1):
        for ds in itertools.combinations_with_replacement(
                range(1, d_max + 1), t):
            for n in range(t, n_max + 1):  # n >= t keeps complex dim >= 0
                g = GCIData([n], [[d] for d in ds])
                if condition_report(g).string and codim_ok(g):
                    expect.add(((n,), tuple((d,) for d in ds)))
    got = {(inst.g.n, inst.g.D)
           for inst in find_string(SearchQuery(s_max=1, t_max=t_max,
                                               d_max=d_max))}
    assert got == expect


def test_string_results_all_satisfy_conditions():
    for inst in find_string(SearchQuery(s_max=2, t_max=3, d_max=3)):
        assert condition_report(inst.g).string
        assert codim_ok(inst.g)
        assert inst.report.string


def test_column_permutation_deduplication():
    results = find_string(SearchQuery(s_max=2, t_max=2, d_max=3))
    keys = [_key(inst) for inst in results]
    assert len(keys) == len(set(keys))
    for inst in results:
        # canonical: ambient factors sorted by (n, column)
        cols = [(inst.g.n[b], tuple(row[b] for row in inst.g.D))
                for b in range(inst.g.s)]
        assert cols == sorted(cols)
        # canonical: degree rows sorted
        assert list(inst.g.D) == sorted(inst.g.D)


def test_stringc_parity_branches():
    q = SearchQuery(s_max=1, t_max=2, d_max=3, c_max=2)
    for parity, coef, residue in (("dim4k", 3, 0), ("dim4k2", 1, 2)):
        for inst in find_stringc(q, parity):
            assert condition_report(inst.g).stringc
            assert stringc_coefficient(inst.g) == coef
            assert dims(inst.g)[1] % 4 == residue
    with pytest.raises(ValueError):
        find_stringc(q, "dim3")


def test_stringc_contains_known_instances():
    q = SearchQuery(s_max=1, t_max=2, d_max=2, c_max=1)
    k4 = {_key(inst) for inst in find_stringc(q, "dim4k")}
    assert ((4,), ((1,), (1,)), (1,)) in k4
    k42 = {_key(inst) for inst in find_stringc(q, "dim4k2")}
    assert ((4,), ((2,),), (1,)) in k42


def test_target_real_dim_filter():
    q = SearchQuery(s_max=1, t_max=2, d_max=3, target_real_dim=4)
    for inst in find_string(q):
        assert dims(inst.g)[1] == 4


def test_codim_flag():
    # within positive-degree bounds the derived n always satisfies the
    # codimension hypothesis, so the relaxed search is a (here equal)
    # superset; every strict result must carry codim_ok
    strict = find_string(SearchQuery(s_max=2, t_max=3, d_max=3))
    loose = find_string(SearchQuery(s_max=2, t_max=3, d_max=3,
                                    require_codim=False))
    strict_keys = {_key(i) for i in strict}
    loose_keys = {_key(i) for i in loose}
    assert strict_keys <= loose_keys
    assert all(i.report.codim_ok for i in strict)


def test_nonpositive_degrees_flag():
    pos = {_key(i)
           for i in find_string(SearchQuery(s_max=1, t_max=1, d_max=2))}
    signed = {_key(i) for i in find_string(
        SearchQuery(s_max=1, t_max=1, d_max=2, positive=False))}
    assert pos <= signed
    # signed search admits negative-degree rows such as (-2)
    assert any(any(d < 0 for row in key[1] for d in row) for key in signed)


def test_query_q_order_propagates():
    results = find_string(SearchQuery(s_max=1, t_max=2, d_max=2, q_order=6))
    assert results and all(inst.g.q_order == 6 for inst in results)


def test_found_instance_key_shape():
    inst = find_string(SearchQuery(s_max=1, t_max=2, d_max=2))[0]
    assert isinstance(inst, FoundInstance)
    n, D, C = _key(inst)
    assert isinstance(n, tuple) and isinstance(D, tuple) and C is None


def _brute_force(q, coef):
    """Every row multiset times every C-vector, through the diagonal, the
    canonical form, the full checker, the query's filters and the report:
    no Gram shortcut, no pruning, no search code but `_canonical`."""
    found = {}
    values = range(1 if q.positive else -q.d_max, q.d_max + 1)
    for s in range(1, q.s_max + 1):
        rows = sorted(itertools.product(values, repeat=s))
        cvals = range(-q.c_max, q.c_max + 1)
        cvecs = list(itertools.product(cvals, repeat=s)) if coef else [None]
        for t in range(1, q.t_max + 1):
            for D in itertools.combinations_with_replacement(rows, t):
                for C in cvecs:
                    c = C or (0,) * s
                    n = [sum(row[b] ** 2 for row in D) - 1 + coef * c[b] ** 2
                         for b in range(s)]
                    if min(n) < 1 or sum(n) < t:
                        continue
                    g = GCIData(*search._canonical(n, D, C), q_order=q.q_order)
                    if coef:
                        ok = (condition_report(g).stringc
                              and stringc_coefficient(g) == coef)
                    else:
                        ok = condition_report(g).string
                    if (not ok or q.require_codim and not codim_ok(g)
                            or q.target_real_dim not in (None, dims(g)[1])):
                        continue
                    found.setdefault((g.n, g.D, g.C), condition_report(g))
    return sorted(found.items())


@pytest.mark.parametrize("query", [
    SearchQuery(s_max=2, t_max=3, d_max=2, c_max=2),
    SearchQuery(s_max=2, t_max=2, d_max=2, c_max=1, positive=False),
    SearchQuery(s_max=3, t_max=2, d_max=1, c_max=1, positive=False,
                require_codim=False),
    SearchQuery(s_max=3, t_max=3, d_max=2, c_max=2),
], ids=["positive", "signed", "signed_s3_nocodim", "positive_s3"])
def test_join_matches_brute_force(query):
    """The Gram join and its prune keep every instance the plain filter
    finds, with the same keys and condition reports."""
    got = [(_key(i), i.report) for i in find_string(query)]
    want = _brute_force(query, 0)
    for parity, coef in (("dim4k", 3), ("dim4k2", 1)):
        got += [(_key(i), i.report) for i in find_stringc(query, parity)]
        want += _brute_force(query, coef)
    assert got == want
    # the signed queries must find instances over more than one factor
    if not query.positive:
        assert any(len(key[0]) > 1 for key, _ in got)


def test_signed_results_pass_the_checkers():
    """The join builds string and string^c instances by construction; the
    checkers of gci agree on every one of a large signed query."""
    q = SearchQuery(s_max=2, t_max=3, d_max=3, positive=False)
    assert all(condition_report(i.g).string and i.report.string
               for i in find_string(q))
    for parity, coef in (("dim4k", 3), ("dim4k2", 1)):
        for inst in find_stringc(q, parity):
            assert condition_report(inst.g).stringc and inst.report.stringc
            assert stringc_coefficient(inst.g) == coef


@pytest.mark.parametrize("bounds", [
    {"s_max": 0}, {"t_max": 0}, {"d_max": 0}, {"d_max": -2}, {"c_max": -1},
    {"target_real_dim": 7}, {"target_real_dim": -4},
], ids=["s0", "t0", "d0", "d-2", "c-1", "dim7", "dim-4"])
def test_bad_query_bounds_raise(bounds):
    # each of these used to return [] with no error
    with pytest.raises(ValueError):
        SearchQuery(**bounds)


@pytest.mark.parametrize("field, bad, error", [
    ("s_max", True, TypeError), ("t_max", 2.0, TypeError),
    ("d_max", 2.5, TypeError), ("c_max", "1", TypeError),
    ("q_order", -1, ValueError), ("target_real_dim", "8", TypeError),
    ("positive", 1, TypeError), ("require_codim", None, TypeError),
], ids=["s_max", "t_max", "d_max", "c_max", "q_order", "target_real_dim",
        "positive", "require_codim"])
def test_query_fields_are_checked(field, bad, error):
    # target_real_dim="8" found nothing, s_max=True ran as 1, d_max=2.5
    # failed inside range and q_order=-1 at the first instance built
    with pytest.raises(error, match=field):
        SearchQuery(**{field: bad})


def _catalogs(q):
    return [[(_key(i), i.report) for i in run]
            for run in (find_string(q), find_stringc(q, "dim4k"),
                        find_stringc(q, "dim4k2"))]


def test_one_report_per_instance(monkeypatch):
    """A repeat is dropped by its canonical key before it is built, and the
    search makes no condition report: each read of `report` makes one."""
    reports, built = [], []
    monkeypatch.setattr(search, "condition_report",
                        lambda g: reports.append(g) or condition_report(g))
    monkeypatch.setattr(search, "FoundInstance",
                        lambda g: built.append(g) or FoundInstance(g))
    q = SearchQuery(s_max=2, t_max=2, d_max=2, c_max=1, positive=False)
    found = [i for run in (find_string(q), find_stringc(q, "dim4k"),
                           find_stringc(q, "dim4k2")) for i in run]
    assert len(found) == len(built) == 142 and reports == []
    for inst in found:
        assert inst.report == condition_report(inst.g)
    assert reports == [inst.g for inst in found]


def test_canonical_keys(monkeypatch):
    """Every one-factor candidate of a signed query is its own key, and a
    two-factor key does not change when the two factors are swapped."""
    canonical, seen = search._canonical, []
    monkeypatch.setattr(search, "_canonical",
                        lambda *args: seen.append(args) or canonical(*args))
    q = SearchQuery(s_max=2, t_max=3, d_max=2, c_max=1, positive=False)
    find_string(q)
    for parity in ("dim4k", "dim4k2"):
        find_stringc(q, parity)
    one = [args for args in seen if len(args[0]) == 1]
    two = [args for args in seen if len(args[0]) == 2]
    assert one and two and len(one) + len(two) == len(seen)
    assert any(len(set(D)) > 1 for _, D, _ in one)
    for n, D, C in one:
        assert canonical(n, D, C) == (tuple(n), tuple(sorted(D)), C)
    for n, D, C in two:
        swapped = (n[::-1], tuple(row[::-1] for row in D),
                   C[::-1] if C is not None else None)
        assert canonical(*swapped) == canonical(n, D, C)


def test_positive_degrees_leave_no_three_factor_instance():
    """With positive degrees every off-diagonal Gram entry is positive, so
    no string instance has two factors and no instance has three: a third
    factor adds nothing to the default catalogs.  Without the prune this
    query runs for minutes."""
    wide = _catalogs(SearchQuery(s_max=3, t_max=4))
    assert wide == _catalogs(SearchQuery())
    assert all(len(key[0]) <= 2 for run in wide for key, _ in run)
    assert all(len(_key(i)[0]) == 1 for i in find_string(SearchQuery(s_max=2)))


def test_default_catalog_is_pinned():
    """The default query's three catalogs, their keys and condition
    reports, against a recorded digest: any instance gained, lost or
    reported differently changes it."""
    q = SearchQuery()
    runs = [find_string(q), find_stringc(q, "dim4k"),
            find_stringc(q, "dim4k2")]
    assert [len(r) for r in runs] == [65, 271, 174]
    h = hashlib.sha256()
    for r in runs:
        for inst in sorted(r, key=_key):
            doc = [_key(inst), dataclasses.asdict(inst.report)]
            h.update(json.dumps(doc).encode() + b"\n")
    assert h.hexdigest() == ("c6cff203fadae62a5ad9bc18ef937f5f"
                             "a052d0a8f66c4d16d6cff6bfc042421e")
