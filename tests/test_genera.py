"""Tests for the genus computations: values, vanishing, structure."""

import dataclasses
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from nilpoly_ring import (at_form, coeffs, from_univariate, mul, one, poly,
                          power, top_coeff)
from wittenq import bundles, cli, genera, theta
from wittenq.errors import DimensionError
from wittenq.gci import GCIData, dims
from wittenq.genera import (dim4_closed_form, mod2_witten, quadratic_pairing,
                            wc_genus, witten_genus)
from wittenq.qseries import QSeries
from wittenq.search import SearchQuery
from wittenq.theta import ThetaKind, direction_series


def _frac(qs, k):
    return Fraction(str(qs.coefficient(k)))


def test_witten_cp2_values_and_flags():
    rep = witten_genus(GCIData([2], [], q_order=10))
    # frozen values: -1/8, 3, 9, 12, 21, 18 at q^0, q^2, ..., q^10
    expect = {0: Fraction(-1, 8), 2: 3, 4: 9, 6: 12, 8: 21, 10: 18}
    for k, v in expect.items():
        assert _frac(rep.coeffs, k) == v
    assert not rep.integral  # CP^2 is not spin
    assert rep.even_q_support


def test_witten_cp2_matches_direct_residue_oracle():
    # brute force: coefficient of x^2 in (x/Phi)^3
    qo = 10
    cube = power(from_univariate(theta.x_over_phi(2, qo), 0, (2,), qo), 3)
    rep = witten_genus(GCIData([2], [], q_order=qo))
    assert rep.coeffs == coeffs(cube)[2]


def test_witten_k3_values():
    rep = witten_genus(GCIData([3], [[4]], q_order=8))
    assert _frac(rep.coeffs, 0) == 2  # the A-hat genus of a K3 surface
    assert _frac(rep.coeffs, 2) == -48
    assert _frac(rep.coeffs, 4) == -144
    assert rep.integral and rep.even_q_support


def test_witten_multiplicative_on_products():
    qo = 8
    w_cp2 = witten_genus(GCIData([2], [], q_order=qo)).coeffs
    w_k3 = witten_genus(GCIData([3], [[4]], q_order=qo)).coeffs
    w_prod = witten_genus(GCIData([2, 3], [[0, 4]], q_order=qo)).coeffs
    assert w_prod == w_cp2 * w_k3


def test_witten_string_vanishing():
    rep = witten_genus(GCIData([4], [[1], [2]], q_order=20))
    assert rep.coeffs.is_zero()


def test_witten_dimension_gate():
    with pytest.raises(DimensionError):
        witten_genus(GCIData([3], []))  # real dim 6


def test_wc_4k_branch_vanishing():
    rep = wc_genus(GCIData([4], [[1], [1]], C=[1], q_order=20))
    assert rep.kind == "Wc4k"
    assert rep.coeffs.is_zero()


def test_wc_4k2_branch_vanishing():
    rep = wc_genus(GCIData([4], [[2]], C=[1], q_order=20))
    assert rep.kind == "Wc4k2"
    assert rep.coeffs.is_zero()


def test_wc_requires_c():
    with pytest.raises(ValueError):
        wc_genus(GCIData([4], [[2]]))


def test_wc_reduces_to_w_at_c_zero():
    # only the 4k branch has an untwisted comparator
    for n, D in [([4], [[1], [1]]), ([3], [[4]])]:
        g = GCIData(n, D, C=[0], q_order=8)
        assert wc_genus(g).coeffs == witten_genus(GCIData(n, D, q_order=8)).coeffs


def test_wc_sign_symmetric_in_c_4k():
    # the 4k twist is even in ell_c, so C and -C agree exactly
    g1 = wc_genus(GCIData([4], [[1], [1]], C=[1], q_order=8)).coeffs
    g2 = wc_genus(GCIData([4], [[1], [1]], C=[-1], q_order=8)).coeffs
    assert g1 == g2


def test_wc_antisymmetric_in_c_4k2():
    # the 4k+2 twist is odd in ell_c, so C -> -C flips the sign
    g1 = wc_genus(GCIData([6], [[3]], C=[2], q_order=8)).coeffs
    g2 = wc_genus(GCIData([6], [[3]], C=[-2], q_order=8)).coeffs
    assert g1 == -g2


def test_mod2_theorem_instance():
    rep = mod2_witten(GCIData([7], [[2], [2]], q_order=20))
    assert rep.kind == "PHI_MOD2"
    assert rep.integral  # the rational precursor is exactly integral
    assert rep.precursor.is_integral()
    assert rep.coeffs.is_zero()


def test_mod2_even_row_independence():
    # outside the vanishing theorem the precursor may depend on the chosen
    # all-even row, but its mod 2 reduction must not
    g = GCIData([9], [[2], [4]], q_order=8)
    a = mod2_witten(g, even_row=0, strict=False)
    b = mod2_witten(g, even_row=1, strict=False)
    assert not a.coeffs.is_zero()
    assert a.coeffs == b.coeffs


def test_mod2_gates():
    with pytest.raises(DimensionError):
        mod2_witten(GCIData([4], [[2]]))  # real dim 6, strict
    with pytest.raises(ValueError):
        mod2_witten(GCIData([6], [[1], [3]]), strict=False)  # no even row
    with pytest.raises(ValueError):
        mod2_witten(GCIData([7], [[2], [2]]), even_row=5)
    with pytest.raises(ValueError):  # row 2 has an odd degree
        mod2_witten(GCIData([8], [[2], [2], [1]]), even_row=2)


@pytest.mark.parametrize("caps", [(4,), (3, 5), (2, 2, 3)],
                         ids=["s1", "s2", "s3"])
@pytest.mark.parametrize("n_specs", [0, 1, 2, 3])
def test_residue_contraction_matches_full_product(caps, n_specs):
    # _residue pads 0 or 1 linear-form factors to a pair, multiplies a
    # third in by mul_linear and contracts the axis factors; the oracle
    # multiplies the whole integrand out
    qo, s, th = 4, len(caps), ThetaKind.THETA
    g = GCIData(list(caps), [], q_order=qo)
    # factors of the parities that leave the residue nonzero
    axes = [[QSeries.zero(qo)] * (cap % 2) + list(direction_series(
        [(th, cap + 1 + b, 1)], cap - cap % 2, qo))
        for b, cap in enumerate(caps)]
    total = sum(caps)
    specs = [(direction_series([(th, 1, 1), (th, -1, 2)], total, qo),
              (1, -2, 1)[:s]),
             (direction_series([(ThetaKind.THETA1, 1, 1)], total, qo),
              (2, 1, 0)[:s]),
             (direction_series([(th, 2, 1)], total, qo),
              (1, 1, -1)[:s])][:n_specs]

    def full_product(axes, specs):
        prod = one(caps, qo)
        for b, f in enumerate(axes):
            prod = mul(prod, from_univariate(f, b, caps, qo))
        for f, d in specs:
            prod = mul(prod, at_form(f, d, caps, qo))
        return top_coeff(prod)

    got = genera._residue(g, axes, specs)
    assert got == full_product(axes, specs)
    assert not got.is_zero()
    # one zero factor, on an axis or on a linear form, kills the residue
    zero_axis = [QSeries.zero(qo)] * (caps[0] + 1)
    assert genera._residue(g, [zero_axis] + axes[1:], specs).is_zero()
    if specs:
        zero_spec = [QSeries.zero(qo)] * (total + 1)
        assert genera._residue(g, axes, [(zero_spec, specs[0][1])]
                               + specs[1:]).is_zero()


def _count_calls(monkeypatch, *names):
    """A dict counting the calls `genera` makes to each named kernel."""
    counts = dict.fromkeys(names, 0)

    def spy(name, kernel):
        def counted(*args):
            counts[name] += 1
            return kernel(*args)
        return counted

    for name in names:
        monkeypatch.setattr(genera, name, spy(name, getattr(genera, name)))
    return counts


def _nilring_calls(monkeypatch):
    """A dict counting the calls `genera` makes to each residue kernel."""
    return _count_calls(monkeypatch, "rank_pair_mul", "mul_linear",
                        "contract_axes")


def _index_builds(monkeypatch):
    """The list of (prefactors, products, p_order) of each index factor
    the theta route builds, from a cold `_factor`."""
    built = []

    def recording(*args, build=genera._index_factor):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(genera, "_index_factor", recording)
    genera._factor.cache_clear()
    return built


@pytest.mark.parametrize("q_order", [4, 12])
@pytest.mark.parametrize("n, D, C", [
    ((4, 4), ((1, 2), (2, 1)), (1, -1)),
    ((4, 5), ((1, 2), (2, 1)), (1, -1)),
    ((5, 6), ((1, 2), (2, 1), (1, 1)), (1, -1)),
    ((4, 6), ((1, 1), (1, 2), (2, 1)), (1, -1)),
], ids=["3dir-4k", "3dir-4k2", "4dir-4k", "4dir-4k2"])
def test_multi_piece_residue_routes_agree(monkeypatch, n, D, C, q_order):
    # W_c with 3 or 4 linear forms: the bundle route's pair product, one
    # mul_linear per further form and the axis contraction against the
    # theta route's index sum
    calls = _nilring_calls(monkeypatch)
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    theta_route = wc_genus(g, route="theta").coeffs
    assert not any(calls.values())
    assert wc_genus(g, route="bundle").coeffs == theta_route
    assert calls == {"rank_pair_mul": 1, "mul_linear": len(D) - 1,
                     "contract_axes": 1}
    assert not theta_route.is_zero()


def test_multi_piece_residue_golden_four_directions(monkeypatch):
    label = "Wc4k n=5,6 D=(1,2),(2,1),(1,1) C=(1,-1)"
    golden = json.loads(pathlib.Path(__file__).with_name(
        "golden_nonvanishing.json").read_text())[label]
    calls = _nilring_calls(monkeypatch)
    g = GCIData([5, 6], [[1, 2], [2, 1], [1, 1]], [1, -1], q_order=8)
    for route in ("theta", "bundle"):
        rep = wc_genus(g, route=route)
        assert [str(c) for c in rep.coeffs.coeffs] == golden[route]["coeffs"]
    # the bundle route's: one pair product, two mul_linear, one contraction
    assert calls == {"rank_pair_mul": 1, "mul_linear": 2, "contract_axes": 1}


@pytest.mark.parametrize("n, D, C", [
    ((6, 7), ((1, 1), (1, 2), (2, 1), (1, 3)), (1, 0)),
    ((5, 6), ((1, 2), (2, 1), (1, 1), (0, 2)), (1, -1)),
], ids=["C-on-axis", "row-on-axis"])
def test_theta_route_merges_on_axis_factors(monkeypatch, n, D, C):
    # C = (1, 0) or the row (0, 2) lies on an axis, so the theta route
    # merges it into that axis's index factor: seven `_factor` reads, two
    # on the axes, four off them and the p-only scalar; an eighth through
    # the lattice would give the same values.  The bundle route takes five
    # linear forms: one pair product, three mul_linear and the axis
    # contraction
    calls = _nilring_calls(monkeypatch)
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=4)
    genera._factor.cache_clear()
    theta_route = wc_genus(g, route="theta").coeffs
    info = genera._factor.cache_info()
    assert info.hits + info.misses == 7 and not any(calls.values())
    assert wc_genus(g, route="bundle").coeffs == theta_route
    assert calls == {"rank_pair_mul": 1, "mul_linear": 3, "contract_axes": 1}


@pytest.mark.parametrize("n, D, C, q_order", [
    ((30, 5), ((3, 1), (2, -1), (1, 1)), (2, 1), 10),
    ((40, 3), ((3, 1), (-2, 1)), (3, 1), 12),
    ((12, 9), ((1, 2), (2, 1), (1, 1), (1, -1)), (1, 2), 16),
    ((6, 5), ((1, 2), (2, 1), (1, 1)), (1, -1), 32),
    ((3, 4, 5), ((1, 1, 1), (1, -2, 0), (2, 0, 3)), (1, 1, -1), 16),
])
def test_index_sum_holds_large_weights_and_long_columns(n, D, C, q_order):
    # the index sum packs each p-series into one int: large caps give
    # Riemann-Roch weights of hundreds of bits, high q-orders long
    # columns, so a packing too narrow for either garbles a nonzero value
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    theta_route = wc_genus(g).coeffs
    assert theta_route == wc_genus(g, route="bundle").coeffs
    assert max(map(abs, theta_route.num)).bit_length() > 30


@pytest.mark.parametrize("n, D, C, q_order", [
    ((4, 4), ((1, 2),), (3, -1), 20),
    ((8, 17), ((1, 1), (1, 1), (2, 2)), (2, -2), 20),
    ((4, 4, 2), ((-1, 2, 1),), (-1, -1, 2), 8),
], ids=["Wc4,4-q20", "Wc8,17-q20", "three-factors-balanced"])
def test_index_sum_cap_and_decode_exact(n, D, C, q_order):
    # the first two are the default SearchQuery's (4,4) D=((1,2)) C=(2,-1)
    # and (8,17) D=((1,1),(1,1),(2,2)) C=(1,-2) with C shifted by e_1, so
    # they are nonzero and every line product meets the q-degree cap at
    # P = 10; in the third the lines (1,-2,-1) and (1,1,-2) put cells at
    # v_0 < 0 under v_2 != 0, which only the balanced decode of the cells'
    # int codes reads back
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    theta_route = wc_genus(g).coeffs
    assert not theta_route.is_zero()
    assert theta_route == wc_genus(g, route="bundle").coeffs


def _cuts(monkeypatch, g):
    """The number of lattice cells `_low` cuts in a warm theta-route
    genus of g, checked against the bundle route."""
    want = wc_genus(g).coeffs  # fills the factor cache
    cuts, low = [], genera._low
    monkeypatch.setattr(genera, "_low",
                        lambda v, width: cuts.append(width) or low(v, width))
    assert wc_genus(g).coeffs == want == wc_genus(g, route="bundle").coeffs
    monkeypatch.setattr(genera, "_low", low)
    return len(cuts)


def _no_window(monkeypatch):
    monkeypatch.setattr(genera, "_vanishing", lambda n, exponents: range(0))


def test_index_sum_skips_products_above_the_q_order(monkeypatch):
    # each line's terms are sorted by their lowest p-degree, so a cell
    # stops at the first term that would land past p^P: on W_c (24,24)
    # with heavy_2f's D and C = (3,-2) at q-order 8, which is nonzero and
    # keeps cells through the vanishing window, the capped lattice cuts
    # 310 cells against 452 with the cap switched off, which keeps the
    # value
    g = GCIData([24, 24], [[1, 2], [2, 1], [2, 2], [2, 2]], [3, -2],
                q_order=8)
    assert _cuts(monkeypatch, g) == 310


def test_index_sum_drops_cells_in_the_vanishing_window(monkeypatch):
    # a cell whose every reachable digit on some axis lies where that
    # axis's Riemann-Roch column is 0 is dropped after its line: on
    # heavy_2f's (24,24) at q-order 4 the lattice cuts 8 cells, against
    # 332 with the window switched off, which keeps the value (and the
    # lines in their listed order, as no window is left to open)
    g = GCIData([24, 24], [[1, 2], [2, 1], [2, 2], [2, 2]], [2, -2],
                q_order=4)
    assert _cuts(monkeypatch, g) == 8
    _no_window(monkeypatch)
    assert _cuts(monkeypatch, g) == 332


def _products(monkeypatch, g, order, want):
    """The number of products the index sum's lattice makes in a warm
    theta-route genus of g with its lines in `order` (a stand-in for
    `_line_order`), its value checked against want: each line's packed
    terms are ints that count the products they are the right factor of,
    which only the lattice's c * x makes."""
    count = [0]

    class Counted(int):
        def __rmul__(self, other):
            count[0] += 1
            return int(other) * int(self)

    pack, line_order = genera._pack, genera._line_order
    monkeypatch.setattr(genera, "_line_order", order)
    wc_genus(g)  # fills the factor cache
    monkeypatch.setattr(genera, "_pack",
                        lambda col, bits: Counted(pack(col, bits)))
    assert wc_genus(g).coeffs == want
    monkeypatch.setattr(genera, "_pack", pack)
    monkeypatch.setattr(genera, "_line_order", line_order)
    return count[0]


@pytest.mark.parametrize("n, D, C, q_order, reordered, listed, descending", [
    ((24, 24), ((1, 2), (2, 1), (2, 2), (2, 2)), (2, -2), 4, True, 188, 40),
    ((23, 27), ((1, 2), (1, 2), (1, 2), (3, 2)), (2, -2), 12, True, 504, 472),
    ((21, 29), ((1, 2), (1, 2), (2, 1), (2, 3)), (2, -2), 20, False, 3385,
     4602),
], ids=["Wc24,24-q4", "Wc23,27-q12-one-digit", "Wc21,29-q20-no-digit"])
def test_line_order_opens_a_window_before_the_last_line(
        monkeypatch, n, D, C, q_order, reordered, listed, descending):
    # the lines go by descending largest span when on some axis the least
    # span is below the window's number of digits, so the window can open
    # before the last line: heavy_2f's (24,24) at q-order 4 then makes 40
    # lattice products, not 188.  On (23,27) that leaves the window one
    # digit; on (21,29) it leaves none, so its lines keep their listed
    # order, where descending spans would make 4602 products
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    want = wc_genus(g, route="bundle").coeffs
    orders, line_order = [], genera._line_order

    def spy(spans, dead):
        orders.append(list(line_order(spans, dead)))
        return orders[-1]

    by_rule = _products(monkeypatch, g, spy, want)
    order = orders[0]
    assert (order != sorted(order)) == reordered
    assert by_rule == (descending if reordered else listed)
    assert _products(monkeypatch, g, lambda spans, dead: range(
        len(spans)), want) == listed
    assert _products(monkeypatch, g, lambda spans, dead: sorted(
        range(len(spans)), key=lambda i: -max(spans[i])), want) == descending


@pytest.mark.parametrize("n, D, C, q_order, lines", [
    ((24, 24), ((1, 2), (2, 1), (2, 2), (2, 2)), (3, -2), 8, 4),
    ((13, 133), ((1, 1), (1, 11)), (2, -2), 24, 3),
    ((8, 17), ((1, 1), (1, 1), (2, 2)), (1, -2), 20, 2),
], ids=["Wc24,24-q8", "Wc13,133-q24", "Wc8,17-q20"])
def test_index_sum_is_the_same_in_every_line_order(monkeypatch, n, D, C,
                                                   q_order, lines):
    # every cell is a sum that does not depend on the order of the lines,
    # and the window drops a cell exactly in any order, so every order
    # gives the bundle route's value; the first case is nonzero
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    want = wc_genus(g, route="bundle").coeffs
    assert wc_genus(g).coeffs.is_zero() == (n != (24, 24))
    sizes = []
    for order in itertools.permutations(range(lines)):
        monkeypatch.setattr(genera, "_line_order",
                            lambda spans, dead, order=order: (
                                sizes.append(len(spans)) or order))
        assert wc_genus(g).coeffs == want, order
    assert sizes == [lines] * math.factorial(lines)


@pytest.mark.parametrize("n, exponents", [
    (0, (-2, 0, 2)), (1, (0,)), (4, (-3, -1, 1, 3)), (5, (-4, 0, 2, 6)),
    (6, (-1, 0, 1)), (3, (-2, 4)), (2, (5, 7))])
def test_vanishing_window_is_where_every_column_is_zero(n, exponents):
    # R(w) = sum_e x_e prod_(i=1..n) (w + e - n - 1 + 2i) is 0 for every x
    # exactly on the window: one parity of an open interval, or nowhere
    window = genera._vanishing(n, exponents)
    for w in range(-n - 16, n + 16):
        zero = all(math.prod(range(w + e - n + 1, w + e + n, 2)) == 0
                   for e in exponents)
        assert (w in window) == zero, w


@pytest.mark.parametrize("n, D, C, q_order", [
    ((24, 24), ((1, 2), (2, 1), (2, 2), (2, 2)), (3, -2), 8),
    ((17, 38), ((1, 3), (1, 3), (2, 3)), (2, -1), 8),
    ((13, 20), ((1, 2), (2, 1)), (3, -1), 8),
], ids=["Wc24,24-q8", "Wc17,38-q8", "Wc13,20-q8"])
def test_index_sum_window_is_exact_on_large_caps(monkeypatch, n, D, C,
                                                 q_order):
    # nonzero genera on caps of 13 to 38: both routes agree, and the
    # window dropped cells, so the agreement covers it
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    assert not wc_genus(g).coeffs.is_zero()
    cuts = _cuts(monkeypatch, g)
    _no_window(monkeypatch)
    assert cuts < _cuts(monkeypatch, g)


def test_two_factor_catalog_vanishes_at_its_sturm_orders():
    # every two-factor string^c W_c of SearchQuery(c_max=2, d_max=12), one
    # of each pair C, -C: the genus is a level-1 modular form of weight w in
    # q^2, which Sturm's bound makes zero once it is zero to q-order
    # 2 floor(w/12).  The catalog reaches CP^155 at q-order 26
    cases = [g for label, g, _ in
             cli.vanishing_cases(SearchQuery(c_max=2, d_max=12))
             if label == "Wc" and g.s == 2]
    assert len(cases) == 133 and max(max(g.n) for g in cases) == 155
    orders = []
    for g in cases:
        w = wc_genus(dataclasses.replace(g, q_order=0)).weight
        orders.append(2 * (w // 12))
        series = wc_genus(dataclasses.replace(g, q_order=orders[-1])).coeffs
        assert series.is_zero(), (g.n, g.D, g.C)
    assert max(orders) == 26


@pytest.mark.parametrize("n, D, C", [
    ((3, 2), ((1, 2),), (1, 0)),
    ((6, 7), ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, -1)), (1, -2)),
    ((2, 2, 3), ((1, 1, 0), (0, 2, -1)), (1, 0, 1)),
    ((4, 3), ((2, 2), (1, 1)), None),
    ((5, 4), ((0, 0), (1, 1)), (1, 1)),
], ids=["one-form", "seven-forms", "three-factors", "phi2", "zero-row"])
def test_theta_route_calls_no_nilring_kernel(monkeypatch, n, D, C):
    # over two or more factors the theta route is the index sum: no
    # residue kernel, exponential or Bernoulli table runs, so its
    # agreement with the bundle route checks those independently
    def refuse(*args):
        raise AssertionError("a residue kernel or exponential ran")

    g = GCIData(list(n), [list(r) for r in D], C and list(C), q_order=6)
    want = []
    for route in ("bundle", "theta"):
        if route == "theta":
            for name in ("rank_pair_mul", "mul_linear", "contract_axes"):
                monkeypatch.setattr(genera, name, refuse)
            for name in ("direction_series", "direction_coefficient",
                         "_bernoulli_table", "_log_columns"):
                monkeypatch.setattr(theta, name, refuse)
        genera._factor.cache_clear()
        reps = ([mod2_witten(g, route=route, strict=False)] if C is None
                else [wc_genus(g, route=route)])
        if C is not None and dims(g)[1] % 4 == 0:
            reps.append(witten_genus(GCIData(g.n, g.D, q_order=6),
                                     route=route))
        got = [rep.precursor or rep.coeffs for rep in reps]
        if want:
            assert got == want
        want = got


@pytest.mark.parametrize("n, D, C, q_order, misses, builds, bundle_misses", [
    ((56,), ((3,), (4,), (4,), (4,)), None, 8, 1,
     [("direction_coefficient", 3, 52)], 3),
    ((22,), ((6,), (6,), (6,), (5,)), None, 8, 1,
     [("direction_coefficient", 3, 18)], 3),
    ((6, 7), ((1, 1), (1, 2), (2, 1), (1, 3)), (1, 0), 4, 4,
     [((), (((-1, 0), 10),), 2), ((), (((-1, 2), -8),), 2),
      (((-1, 1),), (((-1, 2), -6),), 2),
      (((-1, 1),), (((-1, 2), 1),), 2)], 4),
    ((23, 29), ((1, 1), (1, 2), (1, 3), (3, 2)), (2, -2), 4, 4,
     [((), (((-1, 2), -30),), 2),
      ((), (((-1, 2), -24),), 2), (((-1, 1),), (((-1, 2), 1),), 2),
      (((1, 2),), (((-1, 4), -1), ((-1, 8), 1)), 2)], 5),
    ((24, 24), ((1, 2), (2, 1), (2, 2), (2, 2)), (2, -2), 4, 4,
     [((), (((-1, 2), -25),), 2),
      (((-1, 1),), (((-1, 2), 1),), 2),
      (((-1, 2), (-1, 2)), (((-1, 4), 2),), 2),
      (((1, 2),), (((-1, 4), -1), ((-1, 8), 1)), 2)], 4),
    ((17, 38), ((1, 3), (1, 3), (2, 3)), (2, -2), 4, 5,
     [((), (((-1, 2), -39),), 2),
      ((), (((-1, 2), -18),), 2),
      (((-1, 1),), (((-1, 2), 1),), 2),
      (((-1, 1), (-1, 1)), (((-1, 2), 2),), 2),
      (((1, 2),), (((-1, 4), -1), ((-1, 8), 1)), 2)], 6),
], ids=["W56", "W22", "Wc6,7", "Wc23,29", "Wc24,24", "Wc17,38"])
def test_cold_factor_cache_builds(monkeypatch, n, D, C, q_order, misses,
                                  builds, bundle_misses):
    # from a cold `_factor`: each route's misses, and what the theta route
    # builds: over one factor the builder, the number of merged terms and
    # the x-order of the one coefficient, over more the cache key
    # (prefactors, products, p-order) of each index factor.  A lost merge,
    # an axis factor sent through the lattice, a factor keyed by the
    # order of its rows or a one-factor genus that builds its whole
    # exponential keeps every value and moves these.  The last three
    # vanish by the Riemann-Roch window alone, so they read no p-only
    # scalar; the last two are the perfbench heavy_2f cases
    built = []
    for name in ("direction_series", "direction_coefficient"):
        def recording(terms, x_order, q_order, name=name,
                      build=getattr(theta, name)):
            built.append((name, len(terms), x_order))
            return build(terms, x_order, q_order)

        monkeypatch.setattr(genera.theta, name, recording)
    index_built = _index_builds(monkeypatch)
    genus = witten_genus if C is None else wc_genus
    g = GCIData(list(n), [list(r) for r in D], C and list(C),
                q_order=q_order)
    values = {}
    for route, expect in (("theta", misses), ("bundle", bundle_misses)):
        genera._factor.cache_clear()
        values[route] = genus(g, route=route).coeffs
        assert genera._factor.cache_info().misses == expect
    assert sorted(built + index_built) == builds
    assert values["theta"] == values["bundle"]


@pytest.mark.parametrize("n, D, C, q_order, expect, calls", [
    ((6, 7), ((1, 1), (1, 2), (2, 1), (1, 3)), (1, -1), 8,
     ["21/1024", "0", "-10543/128", "0", "103889/64", "0", "571943/32", "0",
      "286993/16"], 3),
    ((6, 7), ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)), (1, -2), 4,
     ["8", "0", "-7544", "0", "279011"], 4),
    ((6, 7), ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, -1)), (1, -2), 4,
     ["-6105/1024", "0", "155833/128", "0", "-2645541/128"], 5),
], ids=["5dir", "6dir", "7dir"])
def test_three_piece_residue_values(monkeypatch, n, D, C, q_order, expect,
                                    calls):
    # five, six and seven linear forms: the first two are one pair
    # product, and the bundle route feeds each further one through
    # mul_linear; the residue is nonzero on both routes
    products = _count_calls(monkeypatch, "mul_linear")
    g = GCIData(list(n), [list(r) for r in D], list(C), q_order=q_order)
    theta_route = wc_genus(g, route="theta").coeffs
    assert [str(c) for c in theta_route.coeffs] == expect
    assert wc_genus(g, route="bundle").coeffs == theta_route
    assert products["mul_linear"] == calls


def test_route_equivalence():
    cases = [
        (GCIData([2], [], q_order=8), witten_genus),
        (GCIData([3], [[2]], q_order=8), witten_genus),
        (GCIData([3, 2], [[1, 2]], C=[1, 0], q_order=8), wc_genus),
        (GCIData([4], [[2]], C=[2], q_order=8), wc_genus),
        (GCIData([5], [[2]], C=[1], q_order=8), wc_genus),
    ]
    for g, fn in cases:
        assert fn(g, route="theta").coeffs == fn(g, route="bundle").coeffs
    # the last is the one kind of genus that reads the twist's row of
    # `_THETA_ROWS`, a one-factor W_c in real dimension 4k, and no golden
    # control is one
    last = wc_genus(cases[-1][0])
    assert last.kind == "Wc4k" and not last.coeffs.is_zero()
    # W of CP^38: the bundle route takes (x/Phi)^39 by Miller's
    # recurrence; nonzero, at the recorded q^0
    g = GCIData([38], [], q_order=12)
    a, b = (witten_genus(g, route=r).coeffs for r in ("theta", "bundle"))
    assert a == b and not a.is_zero()
    assert a.coefficient(0) == Fraction(-4418157975, 9444732965739290427392)
    g = GCIData([7], [[2], [2]], q_order=8)
    assert (mod2_witten(g, route="theta").precursor
            == mod2_witten(g, route="bundle").precursor)


@pytest.mark.parametrize("route", ["theta", "bundle"])
def test_degree_one_row_drops_the_ambient_dimension(route):
    # a degree-1 row on CP^n cuts out CP^(n-1): the exponentials the
    # genera cache share rests on this, and each route must show it
    cases = [(witten_genus, ([5], [[1], [2], [2]], None), ([4], [[2], [2]], None)),
             (wc_genus, ([7], [[1], [3]], [1]), ([6], [[3]], [1])),
             (wc_genus, ([6], [[1], [2]], [2]), ([5], [[2]], [2]))]
    for fn, (n, D, C), (n1, D1, C1) in cases:
        big = fn(GCIData(n, D, C=C, q_order=8), route=route)
        small = fn(GCIData(n1, D1, C=C1, q_order=8), route=route)
        assert not small.coeffs.is_zero()
        assert big.coeffs == small.coeffs and big.kind == small.kind


@pytest.mark.parametrize("n, D, C", [
    ([3], [], [1]), ([5], [[2]], [1]), ([6], [[1], [2]], [2]),
    ([7], [[2], [3]], [-1]), ([6], [[-1], [2]], [1]), ([9], [[2], [4]], [1]),
], ids=["cp3", "d2", "d1,2", "d2,3", "d-1,2", "d2,4"])
def test_one_factor_matches_the_general_path(n, D, C):
    # over one factor the theta route reads one coefficient of one
    # direction factor; a degree-1 row on an added CP^1 keeps the
    # instance and sends it through the general residue
    def lift(g):
        return GCIData(g.n + (1,), [row + (0,) for row in g.D] + [[0, 1]],
                       C=g.C + (0,), q_order=g.q_order)
    g = GCIData(n, D, C=C, q_order=8)
    reports = [(wc_genus(g), wc_genus(lift(g)))]
    if (sum(n) - len(D)) % 2 == 0:
        reports.append((witten_genus(g), witten_genus(lift(g))))
    if all(d % 2 == 0 for row in D for d in row) and D:
        reports.append((mod2_witten(g, strict=False),
                        mod2_witten(lift(g), strict=False)))
    for one, general in reports:
        assert one.coeffs == general.coeffs and one.kind == general.kind
        assert one.precursor == general.precursor
    assert any(not one.coeffs.is_zero() for one, _ in reports)


@pytest.mark.parametrize("route", ["theta", "bundle"])
def test_wc_4k2_halving_matches_the_fraction_product(route):
    # real dimension 4k+2 halves the residue by doubling its denominator
    for n, D, C in (([3], [], [1]), ([2, 2], [[1, 1]], [1, 2])):
        g = GCIData(n, D, C=C, q_order=6)
        rows = [("phi", d) for d in g.D + (g.C,)]
        series = genera._integrand_residue(g, route, rows)
        rep = wc_genus(g, route=route)
        assert rep.kind == "Wc4k2" and not series.is_zero()
        assert rep.coeffs == series * Fraction(1, 2)


def test_unknown_route_is_refused():
    calls = [(witten_genus, GCIData([3], [[2]], q_order=4)),
             (wc_genus, GCIData([5], [[2]], C=[1], q_order=4)),
             (mod2_witten, GCIData([7], [[2], [2]], q_order=4)),
             (mod2_witten, GCIData([8], [[0], [2], [2]], q_order=4))]
    for fn, g in calls:
        for route in ("thta", "Theta", None):
            with pytest.raises(ValueError, match="route must be"):
                fn(g, route=route)


def test_mod2_skips_all_zero_row():
    # an all-zero degree row is a nowhere-zero section, so V is empty and
    # every genus is 0, also when no nonzero even row is left; the zero
    # row must not be taken as the even row
    for D in ([[0], [2], [2]], [[0], [0], [0]], [[0], [1], [3]]):
        g = GCIData([8], D, q_order=6)
        for route in ("theta", "bundle"):
            rep = mod2_witten(g, route=route)
            assert rep.precursor.is_zero() and rep.coeffs.is_zero()
        with pytest.raises(ValueError, match="not a nonzero all-even"):
            mod2_witten(g, even_row=0)
    g = GCIData([8], [[0], [2], [2]], q_order=6)
    assert mod2_witten(g, even_row=2).coeffs.is_zero()


@pytest.mark.parametrize("route", ["theta", "bundle"])
def test_weight_of_each_kind(route):
    # sum(n) less the number of Phi rows: the complex dimension for W and
    # W_c in real dimension 4k, 1 less in 4k+2, 1 more for phi2 (also when
    # a zero row makes V empty and no even row is left)
    cases = [
        (witten_genus, [3, 3], [[1, 1], [2, 2]], None, "W", 0),
        (wc_genus, [2, 3], [[1, 1]], [1, 1], "Wc4k", 0),
        (wc_genus, [2, 2], [[1, 1]], [1, 2], "Wc4k2", -1),
        (mod2_witten, [4, 3], [[2, 2], [1, 1]], None, "PHI_MOD2", 1),
        (mod2_witten, [8], [[0], [1], [3]], None, "PHI_MOD2", 1),
    ]
    for fn, n, D, C, kind, offset in cases:
        g = GCIData(n, D, C, q_order=2)
        rep = fn(g, route=route)
        assert (rep.kind, rep.weight) == (kind, dims(g)[0] + offset)


def _row_lists(monkeypatch, calls):
    """The row list each (genus, instance) call passes to the residue,
    read with the residue itself replaced by zero: no genus is computed."""
    seen = []

    def spy(g, route, rows):
        seen.append(rows)
        return QSeries.zero(g.q_order)

    monkeypatch.setattr(genera, "_integrand_residue", spy)
    for fn, g in calls:
        fn(g)
    return seen


def _exponent_x2(g, rows):
    """The symmetric matrix of the x^2 coefficient of the theta route's
    exponent, over L_2: sum_b (n_b+1) x_b^2 from the root powers plus
    coef * j^2 * ell_d^2 for each THETA log term (kind, coef, j) of a row."""
    s = g.s
    Q = [[(n + 1) * (b == c) for c in range(s)] for b, n in enumerate(g.n)]
    for kind, d in rows:
        for log_kind, coef, j in genera._THETA_ROWS[kind][1]:
            if log_kind == ThetaKind.THETA:
                for b, c in itertools.product(range(s), repeat=2):
                    Q[b][c] += coef * j * j * d[b] * d[c]
    return Q


def _gram(g, k):
    """Diag(n+1) - D^T D - k C^T C."""
    s, C = g.s, g.C or (0,) * g.s
    return [[(g.n[b] + 1) * (b == c) - sum(d[b] * d[c] for d in g.D)
             - k * C[b] * C[c] for c in range(s)] for b in range(s)]


def test_theta_table_restates_the_gram_identity(monkeypatch):
    # the x^2 part of the integrand, read from the theta table with each
    # genus's row list, is Diag(n+1) - D^T D - k C^T C (k = 3 for the 4k
    # twist, 1 for Phi at C): zero on every mass-run W and W_c case, and
    # nonzero on the recorded non-string controls
    from test_golden_nonvanishing import CASES, GENUS_FNS
    fns = {"W": witten_genus, "Wc": wc_genus}
    mass = [(fns[label], g) for label, g, _ in
            cli.vanishing_cases(SearchQuery(q_order=12)) if label in fns]
    controls = [(GENUS_FNS[kind], GCIData(n, D, C, q_order=2))
                for kind, n, D, C, _ in CASES.values() if kind in fns]
    assert (len(mass), len(controls)) == (286, 14)
    for calls, vanishing in ((mass, True), (controls, False)):
        row_lists = _row_lists(monkeypatch, calls)
        assert len(row_lists) == len(calls)
        for (fn, g), rows in zip(calls, row_lists):
            k = 0 if g.C is None else 3 if dims(g)[1] % 4 == 0 else 1
            Q = _exponent_x2(g, rows)
            assert Q == _gram(g, k)
            assert (not any(map(any, Q))) == vanishing, (g, Q)


def test_bundle_route_builds_no_theta_factor(monkeypatch):
    # the bundle route is the independent oracle: no theta builder may run
    def refuse(*args, **kwargs):
        raise AssertionError("theta builder called on the bundle route")

    for name in ("phi", "psi_product", "x_over_phi", "eisenstein_g",
                 "direction_series"):
        monkeypatch.setattr(theta, name, refuse)
    genera._factor.cache_clear()
    witten_genus(GCIData([3], [[2]], q_order=4), route="bundle")
    wc_genus(GCIData([5], [[2]], C=[1], q_order=4), route="bundle")
    wc_genus(GCIData([6], [[3]], C=[2], q_order=4), route="bundle")
    mod2_witten(GCIData([9], [[2], [4]], q_order=4), route="bundle",
                strict=False)


def test_eisenstein_g1_values():
    s = theta.eisenstein_g(1, 12)
    assert _frac(s, 0) == Fraction(-1, 24)
    for n, v in {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12}.items():
        assert _frac(s, 2 * n) == v
    assert s.even_q_support()


def test_quadratic_pairing_oracle():
    # <x^2, [CP^2]> = 1, and degree rows multiply in the dual class
    assert quadratic_pairing(GCIData([2], [], q_order=4), [[1]]) == 1
    assert quadratic_pairing(GCIData([3], [[1]], q_order=4), [[1]]) == 1
    assert quadratic_pairing(GCIData([3], [[2]], q_order=4), [[1]]) == 2
    # two-factor: <x1 x2 * (x1 + x2), [CP^2 x CP^1]> = coeff of x1^2 x2 = 1
    g = GCIData([2, 1], [[1, 1]], q_order=4)
    assert quadratic_pairing(g, [[0, 1], [0, 0]]) == 1


def _pairing_by_nilpolys(g, M):
    """quadratic_pairing as NilPoly arithmetic over constant series:
    top_coeff of (sum M_bc x_b x_c) * prod_a ell_a."""
    caps, qo = g.n, g.q_order
    unit = [tuple(int(b == c) for c in range(g.s)) for b in range(g.s)]
    quad = {}
    for b in range(g.s):
        for c in range(g.s):
            e = tuple(x + y for x, y in zip(unit[b], unit[c]))
            quad[e] = quad.get(e, 0) + M[b][c]
    dual = one(caps, qo)
    for row in g.D:
        dual = mul(dual, poly(caps, qo, dict(zip(unit, row))))
    return top_coeff(mul(poly(caps, qo, quad), dual)).coefficient(0)


def test_quadratic_pairing_matches_nilpoly_products():
    rng = random.Random(24)
    for _ in range(60):
        s = rng.randint(1, 3)
        n = [rng.randint(1, 4) for _ in range(s)]
        rows = [[rng.randint(-2, 3) for _ in range(s)]
                for _ in range(rng.randint(0, sum(n)))]
        g = GCIData(n, rows, q_order=rng.randint(0, 3))
        M = [[rng.randint(-4, 4) for _ in range(s)] for _ in range(s)]
        got = quadratic_pairing(g, M)
        assert type(got) is int
        assert got == _pairing_by_nilpolys(g, M)


def test_dim4_closed_form_matches_residue():
    qo = 10
    g = GCIData([2], [], q_order=qo)
    assert dim4_closed_form(g) == witten_genus(g).coeffs
    h = GCIData([4], [[1], [1]], C=[1], q_order=qo)
    assert dim4_closed_form(h, use_c=True).is_zero()
    assert dim4_closed_form(h, use_c=True) == wc_genus(h).coeffs
    with pytest.raises(DimensionError):
        dim4_closed_form(GCIData([3], [], q_order=qo))
    with pytest.raises(ValueError):
        dim4_closed_form(GCIData([2], [], q_order=qo), use_c=True)


def _dim4_instances():
    """Every real-dimension-4 instance over one or two factors with n_b <= 4,
    degree entries in -1..2 (-3..3 on one factor) and C entries in -1..1."""
    for n in ([2], [3], [4], [1, 1], [1, 2], [2, 1], [1, 3], [2, 2], [3, 1]):
        s = len(n)
        entries = range(-3, 4) if s == 1 else range(-1, 3)
        rows = list(itertools.product(entries, repeat=s))
        for D in itertools.combinations_with_replacement(rows, sum(n) - 2):
            for C in itertools.product(range(-1, 2), repeat=s):
                yield n, [list(r) for r in D], list(C)


def test_dim4_closed_form_on_enumeration():
    # p1 * G_2(q^2) is the weight-2 part of the theta-route exponential,
    # derived independently of it
    count = 0
    for n, D, C in _dim4_instances():
        g = GCIData(n, D, C, q_order=4)
        if all(c == 0 for c in C):
            assert dim4_closed_form(g) == witten_genus(g).coeffs
        assert dim4_closed_form(g, use_c=True) == wc_genus(g).coeffs
        count += 1
    assert count > 1000


@pytest.mark.parametrize("q_order", [0, 1, 4, 12])
def test_root_power_equals_the_nilpoly_power(q_order):
    # Miller's recurrence against the ring power in H*(CP^cap), as
    # (num, den, order) of every coefficient
    for cap in (0, 1, 2, 3, 5, 8, 13, 21, 38, 64):
        root = genera._factor(bundles.root_factor, theta._granular(cap),
                              q_order)
        expect = power(from_univariate(root, 0, (cap,), q_order), cap + 1)
        got = genera._root_power(cap, q_order)
        assert [(c.num, c.den, c.order) for c in got] == \
            [(c.num, c.den, c.order) for c in coeffs(expect)]
