"""Acceptance gate: the fourteen headline checks, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they execute; each test also asserts, so the suite fails loudly.
Criterion 12, the mass run, is marked `slow`: `pytest -m "not slow"` skips
it for a quick loop.
"""

import itertools
from fractions import Fraction

import pytest

from nilpoly_ring import coeffs, from_univariate, power
from wittenq import bundles, modforms, theta
from wittenq.bundles import lemma42_report
from wittenq.cli import vanishing_cases
from wittenq.gci import GCIData
from wittenq.genera import dim4_closed_form, mod2_witten, wc_genus, witten_genus
from wittenq.search import SearchQuery


def _report(num, text, ok):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_jacobi_identity():
    ok = theta.jacobi_check(50)
    _report(1, "Jacobi identity prod (1+q^2j)(1-q^(4j-2)) = 1 to q-order 50",
            ok)


def test_criterion_02_x_over_phi_weight2_coefficient():
    c2 = theta.x_over_phi(4, 20)[2]
    sigma1 = {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12}
    ok = Fraction(str(c2.coefficient(0))) == Fraction(-1, 24)
    ok = ok and all(c2.coefficient(2 * n) == v for n, v in sigma1.items())
    ok = ok and all(not c2.coefficient(2 * n - 1) for n in range(1, 11))
    _report(2, "[x^2] x/Phi = -1/24 + sum sigma_1(n) q^(2n) to q-order 20", ok)


def test_criterion_03_psi_product_weight2_coefficient():
    c2 = theta.psi_product(4, 20)[2]
    ok = Fraction(str(c2.coefficient(0))) == Fraction(1, 8)
    ok = ok and all(c2.coefficient(2 * n) == -3 * modforms.sigma(1, n)
                    for n in range(1, 11))
    _report(3, "[x^2] Psi1*Psi2*Psi3 = 1/8 - 3 sum sigma_1(n) q^(2n) "
               "to q-order 20", ok)


def test_criterion_04_landweber_stong_vanishing():
    rep = witten_genus(GCIData([4], [[1], [2]], q_order=20))
    _report(4, "W(V(1,2) in CP^4) = 0 to q-order 20", rep.coeffs.is_zero())


def test_criterion_05_wc_4k2_vanishing():
    rep = wc_genus(GCIData([4], [[2]], C=[1], q_order=20))
    ok = rep.kind == "Wc4k2" and rep.coeffs.is_zero()
    _report(5, "W_c(V(2) in CP^4, C=[1]) = 0 to q-order 20 (4k+2 branch)", ok)


def test_criterion_06_wc_4k_vanishing_and_closed_form():
    g = GCIData([4], [[1], [1]], C=[1], q_order=20)
    rep = wc_genus(g)
    closed = dim4_closed_form(g, use_c=True)
    ok = rep.kind == "Wc4k" and rep.coeffs.is_zero() and closed.is_zero()
    _report(6, "W_c(V(1,1) in CP^4, C=[1]) = 0 via residue and via the "
               "dim-4 closed form", ok)


def test_criterion_07_mod2_vanishing():
    rep = mod2_witten(GCIData([7], [[2], [2]], q_order=20))
    ok = rep.precursor.is_integral() and rep.coeffs.is_zero()
    _report(7, "phi(V(2,2) in CP^7): integral precursor, = 0 in Z2[[q]] "
               "to q-order 20", ok)


def test_criterion_08_cp2_nonvanishing_control():
    rep = witten_genus(GCIData([2], [], q_order=10))
    u = from_univariate(theta.x_over_phi(2, 10), 0, (2,), 10)
    oracle = coeffs(power(u, 3))[2]
    head = {0: Fraction(-1, 8), 2: Fraction(3)}
    ok = rep.coeffs == oracle
    ok = ok and all(Fraction(str(rep.coeffs.coefficient(k))) == v
                    for k, v in head.items())
    ok = ok and not rep.integral
    _report(8, "W(CP^2) = -1/8 + 3q^2 + ... matches the direct residue "
               "oracle; integrality flag false", ok)


def test_criterion_09_bundle_theta_oracle_equivalence():
    xo, qo = 8, 20
    ok = bundles.root_factor(xo, qo) == theta.x_over_phi(xo, qo)
    ok = ok and bundles.lfactor_4k(xo, qo) == theta.psi_product(xo, qo)
    ok = ok and (bundles.lfactor_4k2(xo, qo)
                 == tuple(c * Fraction(1, 2) for c in theta.phi(xo, qo)))
    _report(9, "bundle-side factors equal theta-side ratios to x-order 8, "
               "q-order 20", ok)


def test_criterion_10_cancellation_lemma():
    ok = lemma42_report(20)["passed"]
    ok = ok and not lemma42_report(20, flip_sign=True)["passed"]
    _report(10, "cancellation lemma holds to q-order 20 in every w-degree; "
                "sign-mutated control fails", ok)


def test_criterion_11_numeric_theta_transformations():
    rep = theta.numeric_transform_suite()
    ok = rep["passed"] and len(rep["errors"]) >= 20
    _report(11, "numeric transformation laws at 5 sampled (z, tau), "
                "relative error < 1e-9", ok)


@pytest.mark.slow
def test_criterion_12_mass_vanishing_run():
    cases = vanishing_cases(SearchQuery(q_order=12))
    failures = [(label, g.n, g.D, g.C)
                for label, g, genus in cases if not genus(g).coeffs.is_zero()]
    ok = not failures and len(cases) > 100
    _report(12, f"mass vanishing run: {len(cases)} hypothesis-qualified "
                f"instances at q-order 12, {len(failures)} failures", ok)


def test_criterion_13_modular_fitter():
    q_order = 20
    tilde = q_order // 2
    ok = True
    for weight in range(0, 26, 2):
        for a, b in modforms.weight_basis(weight):
            mono = (modforms.eisenstein(4, tilde) ** a
                    * modforms.eisenstein(6, tilde) ** b)
            ft = modforms.fit(modforms.lift(mono, q_order), weight)
            ok = ok and ft.ok
    e2 = modforms.lift(modforms.eisenstein(2, tilde), q_order)
    ok = ok and not modforms.fit(e2, 2).ok
    ok = ok and modforms.theta_constant_e4_check(10)
    _report(13, "fitter round-trips weights <= 24, rejects E2, "
                "theta-null E4 identity to q~-order 10", ok)


def test_criterion_14_no_all_odd_string_ci_in_dim_2_mod_8():
    violations = []
    for t in range(1, 7):
        for ds in itertools.combinations_with_replacement(
                range(1, 10, 2), t):
            n = sum(d * d for d in ds) - 1  # string forces n + 1 = sum d^2
            if n < t:
                continue
            rdim = 2 * (n - t)
            if rdim % 8 == 2:
                violations.append((n, ds))
    _report(14, "no all-odd-degree string CI in one projective space has "
                "real dim = 2 mod 8 (t <= 6, d <= 9)", not violations)
