"""Property tests on small random instances (hypothesis).

Instances are drawn over s <= 2 projective factors with n_b <= 6, at most
three degree rows with entries in -3..3 (all-zero rows included) and
q-order <= 4, so each genus takes milliseconds.  Checked:

- the theta route (one exponential per direction) equals the bundle route
  (one product-formula factor per root, row and twist) for W, W_c and
  phi2;
- every genus is invariant under permuting the degree rows and under
  permuting the projective factors;
- C -> -C leaves W_c unchanged in real dimension 4k and negates it in 4k+2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wittenq.errors import NonIntegralError
from wittenq.gci import GCIData, dims, even_rows
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
