"""Tests for GCI instances and their Diophantine condition checkers."""

import pytest

from wittenq.errors import DimensionError
from wittenq.gci import (GCIData, codim_ok, column_sums, condition_report,
                         dims, even_rows, m_vector, p1_matrix,
                         stringc_coefficient, thm42_ok, w2_vector)


def test_validation():
    with pytest.raises(ValueError):
        GCIData([0], [])
    with pytest.raises(ValueError):
        GCIData([2, 3], [[1]])
    with pytest.raises(ValueError):
        GCIData([2], [[1]], C=[1, 1])
    with pytest.raises(DimensionError):
        GCIData([1], [[1], [1]])
    # no coercion: non-int or bool entries and non-list shapes are refused
    for n, D, C in [([4.7], [[1]], None), ([True], [], None), (4, [], None),
                    ("4", [], None), ([4], [1], None), ([4], [[1]], [1.5])]:
        with pytest.raises(TypeError):
            GCIData(n, D, C)
    with pytest.raises(TypeError):
        GCIData([4], [[1]], q_order=2.0)
    with pytest.raises(ValueError):
        GCIData([4], [[1]], q_order=-1)
    assert GCIData((4,), ((1,),), q_order=0).n == (4,)


def test_empty_n_refused():
    # no ambient factor: the genus reduced an empty product, a TypeError
    for D in ([], [[]]):
        with pytest.raises(ValueError, match="at least one ambient factor"):
            GCIData([], D)


def test_shape_properties_and_dims():
    g = GCIData([4, 2], [[1, 2], [3, 0]])
    assert g.s == 2 and g.t == 2
    assert dims(g) == (4, 8)
    assert column_sums(g) == [4, 2]
    assert m_vector(g) == [2, 1]


def test_w2_and_spin():
    # CP^2 is not spin (w2 = n + 1 = 3 odd), CP^3 is
    assert w2_vector(GCIData([2], [])) == [1]
    assert condition_report(GCIData([3], [])).spin
    # a quadric in CP^4: 5 - 2 = 3 odd -> not spin
    assert not condition_report(GCIData([4], [[2]])).spin
    # V(1, 2) in CP^4: 5 - 3 = 2 even -> spin
    assert condition_report(GCIData([4], [[1], [2]])).spin


def test_p1_matrix_and_string():
    g = GCIData([4], [[1], [2]])
    assert p1_matrix(g) == [[0]]  # 5 - 1 - 4 = 0
    assert condition_report(g).string
    assert not condition_report(GCIData([4], [[1], [1]])).string
    # two-factor string example: columns with sum of squares n + 1
    g2 = GCIData([4, 4], [[1, 2], [2, 1]])
    assert p1_matrix(g2) == [[0, -4], [-4, 0]]
    assert not condition_report(g2).string


def test_stringc_both_parities():
    # real dim 4k: coefficient 3. V(1,1) in CP^4 with C = [1]: 5 - 2 = 3 * 1
    g = GCIData([4], [[1], [1]], C=[1])
    assert stringc_coefficient(g) == 3
    assert condition_report(g).stringc
    # real dim 4k+2: coefficient 1. V(2) in CP^4 with C = [1]: 5 - 4 = 1
    h = GCIData([4], [[2]], C=[1])
    assert stringc_coefficient(h) == 1
    assert condition_report(h).stringc
    # no C: there is no string^c identity to evaluate
    assert condition_report(GCIData([4], [[2]])).stringc is None


def test_stringc_sign_symmetric_in_c():
    g = GCIData([4], [[1], [1]], C=[-1])
    assert condition_report(g).stringc


def test_codim_hypothesis():
    assert codim_ok(GCIData([4], [[1], [2]]))  # m = 2, 2 + 2 <= 4
    assert not codim_ok(GCIData([3], [[1], [2]]))  # 2 + 2 > 3
    assert codim_ok(GCIData([4, 2], [[2, 0], [2, 0]]))  # column 2 has m = 0


def test_even_rows_and_thm42():
    g = GCIData([7], [[2], [2]])  # complex dim 5, real dim 10 = 2 mod 8
    assert even_rows(g) == [0, 1]
    ok, row = thm42_ok(g)
    assert ok and row == 0
    # same shape but an odd row: no distinguished row, fails
    h = GCIData([7], [[1], [3]])
    ok2, row2 = thm42_ok(h)
    assert not ok2 and row2 is None
    # string in real dimension 2 with an even row, but m + 2 > n on CP^1
    f = GCIData([1, 3], [[-1, 0], [-1, 0], [0, -2]])
    assert condition_report(f).string and not codim_ok(f)
    assert thm42_ok(f) == (False, 2)


def test_all_zero_row_is_flagged_and_never_even():
    g = GCIData([8], [[0], [2], [2]])
    assert even_rows(g) == [1, 2]
    assert thm42_ok(g)[1] == 1
    rep = condition_report(g)
    assert rep.even_row == 1
    assert "degree row 0 is all zero: V is empty" in rep.diagnostics
    plain = condition_report(GCIData([7], [[2], [2]]))
    assert not any("all zero" in d for d in plain.diagnostics)


def test_condition_report_diagnostics():
    rep = condition_report(GCIData([2], []))
    assert not rep.spin and not rep.string
    assert rep.stringc is None
    assert rep.dims == (2, 4)
    assert any("w2" in d for d in rep.diagnostics)
    rep2 = condition_report(GCIData([3], [[1], [2]]))
    assert rep2.sufficient_only  # codim fails on CP^3
    assert any("codimension" in d for d in rep2.diagnostics)
    rep3 = condition_report(GCIData([4], [[1], [2]]))
    assert rep3.string and rep3.codim_ok and not rep3.sufficient_only
    assert rep3.diagnostics == []


def test_instances_hashable_and_frozen():
    g = GCIData([4], [[1], [2]])
    h = GCIData((4,), ((1,), (2,)))
    assert g == h and hash(g) == hash(h)
    with pytest.raises(AttributeError):
        g.n = (5,)
