"""The q^0 coefficients of W and W_c as Euler characteristics (Koszul).

On a complete intersection V in P = prod_b CP^(n_b) cut out by the rows
d_a, the Koszul resolution gives

    chi(V, O(k)) = sum over subsets S of the rows of
                   (-1)^|S| prod_b C(n_b + k_b - d_S,b, n_b),

with d_S the sum of the rows in S and C(n + x, n) = (x+1)...(x+n)/n! as a
polynomial in x.  At q^0 the genera are indices of the Dirac operator:
with m_b = (sum_a d_a,b - n_b - 1)/2, so that O(m) = K_V^(1/2),

- W's q^0 is chi(V, O(m)) on a spin instance;
- W_c's q^0 is (chi(V, O(m + C/2)) +- chi(V, O(m - C/2)))/2 on a spin^c
  instance, + in real dimension 4k and - in 4k+2.

Off the spin and spin^c conditions m is a half-integer and both sums are
still the q^0 coefficients, the binomials read as polynomials (Riemann-Roch
on P holds for every rational exponent), so the golden controls are
checked whatever their conditions.  The Euler characteristics are computed
here from the binomials alone and share no code with either route of
`wittenq.genera`.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden_nonvanishing import CASES
from wittenq.gci import GCIData
from wittenq.genera import wc_genus, witten_genus

PROPS = settings(deadline=None, max_examples=150, derandomize=True,
                 database=None)


def _binomial(n, x):
    """C(n + x, n) as the polynomial (x+1)...(x+n)/n!, x a Fraction."""
    return math.prod(x + i for i in range(1, n + 1)) / math.factorial(n)


def chi(n, D, k):
    """chi(V, O(k)) by the Koszul sum over subsets of the rows D, k a
    vector of Fractions."""
    total = Fraction(0)
    for size in range(len(D) + 1):
        for S in itertools.combinations(D, size):
            total += (-1) ** size * math.prod(
                _binomial(nb, kb - sum(row[b] for row in S))
                for b, (nb, kb) in enumerate(zip(n, k)))
    return total


def _twice_m(n, D):
    """2 m_b = sum_a d_a,b - n_b - 1 for each factor b."""
    return [sum(row[b] for row in D) - nb - 1 for b, nb in enumerate(n)]


def _shifted(n, D, C, sign):
    """m + sign C/2, over Fractions."""
    return [Fraction(x + sign * c, 2) for x, c in zip(_twice_m(n, D), C)]


def _check(kind, n, D, C, q_order):
    """Assert the genus's q^0 against the Koszul sum; return whether the
    instance is spin (W) or spin^c (W_c), that is whether O(m) or
    O(m +- C/2) is a line bundle."""
    g = GCIData(list(n), [list(r) for r in D], C and list(C),
                q_order=q_order)
    if kind == "W":
        k = _shifted(n, D, [0] * len(n), 1)
        assert witten_genus(g).coeffs.coefficient(0) == chi(n, D, k)
    else:
        k = _shifted(n, D, C, 1)
        sign = 1 if (sum(n) - len(D)) % 2 == 0 else -1  # real dim 4k, 4k+2
        want = (chi(n, D, k) + sign * chi(n, D, _shifted(n, D, C, -1))) / 2
        assert wc_genus(g).coeffs.coefficient(0) == want, (n, D, C)
    return all(x.denominator == 1 for x in k)


def test_golden_controls_q0_is_the_koszul_sum():
    spin = [label for label, (kind, n, D, C, q_order) in CASES.items()
            if kind in ("W", "Wc") and _check(kind, n, D, C, q_order)]
    # 14 of the 16 controls are W or W_c; two of them are spin, and the
    # W_c controls take C off the spin^c parity
    assert spin == ["W spin n=3,3 D=(2,2),(2,2)", "W n=4,2 D=(2,0),(1,1)"]


@st.composite
def _instances(draw):
    """(kind, n, D, C): s <= 3, up to three rows in -2..3, n_b <= 7.  A W
    instance is spin (n_b + 1 of the parity of its column sum) of real
    dimension 4k (an even row added if needed); a W_c instance is spin^c
    (C_b in -2..3 of the parity of 2 m_b)."""
    s = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 3), min_size=s, max_size=s)
    D = draw(st.lists(entries, max_size=3))
    n = [draw(st.integers(1, 5)) for _ in range(s)]
    kind = draw(st.sampled_from(["W", "Wc"]))
    C = None
    if kind == "W":
        n = [nb + (nb + 1 + sum(r[b] for r in D)) % 2
             for b, nb in enumerate(n)]
        if (sum(n) - len(D)) % 2:
            D.append([2 * x for x in draw(
                st.lists(st.integers(-1, 1), min_size=s, max_size=s))])
    else:
        C = [x % 2 + 2 * draw(st.integers(-1, 1)) for x in _twice_m(n, D)]
    while sum(n) < len(D):  # V has nonnegative dimension
        n[0] += 2
    return kind, n, D, C


def test_q0_is_the_koszul_sum():
    kinds = []

    @PROPS
    @given(_instances())
    def check(case):
        assert _check(*case, 0)
        kinds.append(case[0])

    check()
    assert min(kinds.count("W"), kinds.count("Wc")) >= 50, kinds
