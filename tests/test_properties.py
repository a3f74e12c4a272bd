"""Property tests on small random instances (hypothesis).

Instances are drawn over s <= 2 projective factors with n_b <= 6, at most
three degree rows with entries in -3..3 (all-zero rows included) and
q-order <= 4, so each genus takes milliseconds.  Checked:

- the theta route (one exponential per direction) equals the bundle route
  (one product-formula factor per root, row and twist) for W, W_c and
  phi2;
- every genus is invariant under permuting the degree rows and under
  permuting the projective factors;
- C -> -C leaves W_c unchanged in real dimension 4k and negates it in 4k+2;
- W is multiplicative: a block-diagonal instance, V1 x V2, has W(V1) W(V2).

A second draw goes past those bounds for the theta route's Riemann-Roch
index sum: s <= 3, signed degrees, all-zero rows, any C and q-order <= 8,
where it must equal the bundle route's residue kernels exactly for W,
both W_c parities and the phi2 precursor.

Over an enumeration of spin 8k+2 instances with two or more nonzero
all-even rows, every choice of the distinguished row gives an integral
precursor with the same mod 2 reduction.
"""

import collections
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from wittenq.errors import NonIntegralError
from wittenq.gci import GCIData, condition_report, dims, even_rows
from wittenq.genera import mod2_witten, wc_genus, witten_genus

PROPS = settings(deadline=None, max_examples=200, derandomize=True,
                 database=None)


@st.composite
def instances(draw, kind):
    """A random small instance for the genus `kind` ("W", "Wc" or "phi2")."""
    s = draw(st.integers(1, 2))
    n = draw(st.lists(st.integers(1, 6), min_size=s, max_size=s))
    t_max = min(3, sum(n))
    ts = [t for t in range(t_max + 1)
          if kind != "W" or (sum(n) - t) % 2 == 0]
    t = draw(st.sampled_from(ts))
    entry = st.integers(-3, 3)
    row = st.one_of(st.just([0] * s),
                    st.lists(entry, min_size=s, max_size=s))
    D = draw(st.lists(row, min_size=t, max_size=t))
    if kind == "phi2" and t:
        # one nonzero all-even row, so there is a row to distinguish
        even = draw(st.lists(st.sampled_from([-2, 0, 2]), min_size=s,
                             max_size=s).filter(any))
        D[draw(st.integers(0, t - 1))] = even
    C = None
    if kind == "Wc":
        C = draw(st.lists(entry, min_size=s, max_size=s))
    return GCIData(n, D, C, q_order=draw(st.integers(0, 4)))


def _phi2(g, route, even_row=None):
    """The precursor, or the first non-integral coefficient it reports."""
    try:
        return mod2_witten(g, even_row=even_row, route=route,
                           strict=False).precursor
    except NonIntegralError as exc:
        return str(exc)


def _genus(kind, g, route="theta"):
    if kind == "W":
        return witten_genus(g, route=route).coeffs
    if kind == "Wc":
        return wc_genus(g, route=route).coeffs
    return _phi2(g, route)


def _has_even_row(g):
    return bool(even_rows(g)) or not all(any(row) for row in g.D)


@PROPS
@given(st.sampled_from(["W", "Wc"]).flatmap(
    lambda kind: st.tuples(st.just(kind), instances(kind))))
def test_routes_agree_w_wc(case):
    kind, g = case
    assert _genus(kind, g, "theta") == _genus(kind, g, "bundle")


@PROPS
@given(instances("phi2"))
def test_routes_agree_phi2(g):
    if _has_even_row(g):
        assert _phi2(g, "theta") == _phi2(g, "bundle")


@PROPS
@given(st.sampled_from(["W", "Wc", "phi2"]).flatmap(
    lambda kind: st.tuples(st.just(kind), instances(kind),
                           st.randoms(use_true_random=False))))
def test_row_permutation_invariance(case):
    kind, g, rnd = case
    order = list(range(g.t))
    rnd.shuffle(order)
    h = GCIData(g.n, [g.D[a] for a in order], g.C, q_order=g.q_order)
    if kind != "phi2":
        assert _genus(kind, g) == _genus(kind, h)
    elif _has_even_row(g):
        # keep the distinguished row: the precursor depends on the choice
        rows = even_rows(g)
        e = rows[0] if rows else None
        moved = None if e is None else order.index(e)
        assert _phi2(g, "theta", e) == _phi2(h, "theta", moved)


@PROPS
@given(st.sampled_from(["W", "Wc", "phi2"]).flatmap(
    lambda kind: st.tuples(st.just(kind), instances(kind))))
def test_factor_permutation_invariance(case):
    kind, g = case
    if g.s == 1:
        return
    swap = lambda v: None if v is None else list(reversed(v))
    h = GCIData(swap(g.n), [swap(row) for row in g.D], swap(g.C),
                q_order=g.q_order)
    if kind != "phi2" or _has_even_row(g):
        assert _genus(kind, g) == _genus(kind, h)


@PROPS
@given(instances("Wc"))
def test_c_sign_law(g):
    flipped = GCIData(g.n, g.D, [-c for c in g.C], q_order=g.q_order)
    a, b = wc_genus(g).coeffs, wc_genus(flipped).coeffs
    if dims(g)[1] % 4 == 0:
        assert a == b
    else:
        assert a == -b


@PROPS
@given(instances("W"), instances("W"))
def test_w_is_multiplicative_on_products(g1, g2):
    q_order = min(g1.q_order, g2.q_order)
    g1 = GCIData(g1.n, g1.D, q_order=q_order)
    g2 = GCIData(g2.n, g2.D, q_order=q_order)
    pad1, pad2 = [0] * g2.s, [0] * g1.s
    g = GCIData(list(g1.n) + list(g2.n),
                [list(r) + pad1 for r in g1.D] + [pad2 + list(r) for r in g2.D],
                q_order=q_order)
    assert _genus("W", g) == _genus("W", g1) * _genus("W", g2)


@st.composite
def index_instances(draw):
    """An instance over s <= 3 factors (n_b <= 5, <= 3 over three) with
    up to four degree rows in -3..3, an all-zero one in a quarter of the
    draws and a nonzero all-even one in half, any C in -3..3, q-order
    <= 8."""
    s = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 5 if s < 3 else 3), min_size=s,
                      max_size=s))
    t = draw(st.integers(0, min(4, sum(n))))
    entry = st.integers(-3, 3)
    D = draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=t,
                      max_size=t))
    if t and draw(st.booleans()):
        D[draw(st.integers(0, t - 1))] = draw(st.lists(
            st.sampled_from([-2, 0, 2]), min_size=s, max_size=s).filter(any))
    if t and draw(st.integers(0, 3)) == 0:
        D[draw(st.integers(0, t - 1))] = [0] * s
    C = draw(st.lists(entry, min_size=s, max_size=s))
    return GCIData(n, D, C, q_order=draw(st.integers(0, 8)))


def _off_axis_lines(g):
    """The lines of the nonzero forms among the rows and C that lie on
    no axis, each as its primitive vector up to sign."""
    lines = set()
    for d in g.D + (g.C,):
        if sum(map(bool, d)) > 1:
            m = math.gcd(*d) * (1 if next(filter(None, d)) > 0 else -1)
            lines.add(tuple(x // m for x in d))
    return lines


def _genera_by_kind(g, route):
    """{kind: W_c, and W and the phi2 precursor where they are defined}."""
    rdim = dims(g)[1]
    out = {"Wc4k2" if rdim % 4 else "Wc4k": wc_genus(g, route=route).coeffs}
    if rdim % 4 == 0:
        out["W"] = witten_genus(g, route=route).coeffs
    if _has_even_row(g):
        out["phi2"] = _phi2(g, route)
    return out


def test_index_sum_equals_bundle_route():
    # the theta route (the index sum over two or more factors, one
    # coefficient over one) against the bundle route, with no tolerance;
    # three or more off-axis lines make the index sum's lattice cells
    # collide
    seen = collections.Counter()

    @PROPS
    @given(index_instances())
    def check(g):
        theta_route = _genera_by_kind(g, "theta")
        assert theta_route == _genera_by_kind(g, "bundle")
        nonzero = any(isinstance(v, str) or not v.is_zero()
                      for v in theta_route.values())
        seen.update(list(theta_route))
        seen.update(["zero row"] * (not all(map(any, g.D)))
                    + ["three factors"] * (g.s == 3)
                    + ["nonzero"] * nonzero
                    + ["three lines"] * (nonzero
                                         and len(_off_axis_lines(g)) > 2))

    check()
    assert min(seen[k] for k in ("W", "Wc4k", "Wc4k2", "phi2", "zero row",
                                 "three factors", "nonzero",
                                 "three lines")) >= 20, seen


def _spin_phi2_instances():
    """Spin instances of real dimension 8k+2 with at least two nonzero
    all-even rows: n_b <= 8 over one factor (entries -2..4) and
    n_1 + n_2 <= 6 over two (entries -2..2), two to four rows."""
    for n in ([5], [6], [7], [8], [1, 4], [2, 3], [3, 2], [1, 5], [2, 4],
              [3, 3], [4, 2]):
        entries = range(-2, 5) if len(n) == 1 else range(-2, 3)
        rows = [r for r in itertools.product(entries, repeat=len(n)) if any(r)]
        for t in range(2, 5):
            if (sum(n) - t) % 4 != 1:
                continue
            for D in itertools.combinations_with_replacement(rows, t):
                g = GCIData(n, [list(r) for r in D], q_order=4)
                if len(even_rows(g)) >= 2 and condition_report(g).spin:
                    yield g


def test_phi2_independent_of_even_row():
    count = 0
    for g in _spin_phi2_instances():
        rows = even_rows(g)
        first = mod2_witten(g, even_row=rows[0]).coeffs
        for e in rows[1:]:
            assert mod2_witten(g, even_row=e).coeffs == first, (g, e)
        count += 1
    assert count > 1000
