"""Record tests/golden_shadow.json, a nonzero shadow of the mass run.

    PYTHONPATH=src python tests/record_shadow.py

The shadow takes the mass run's two-factor W_c instances
(`cli.vanishing_cases(SearchQuery(q_order=12))` with s = 2) and shifts C
by e_1, so that none of them is string^c and most are nonzero.  Each
value is computed by the naive oracle of `nilpoly_ring`: every factor of
the integrand (Phi at each degree row, and at the shifted C the twist
Psi_1Psi_2Psi_3 in real dimension 4k or Phi in 4k+2, each from `theta`'s
exponentials; (x/Phi)^(n_b+1) on each axis as a power in the ring) is
expanded on the cap grid by `at_form`, the factors are multiplied by
`mul`, and the top coefficient is read.  Neither the index sum nor the
residue kernels of `nilring` enter, so the file checks both routes.

The file is recorded once, and this script refuses to overwrite it.
"""
import json
import sys
import time
from pathlib import Path

from nilpoly_ring import at_form, from_univariate, mul, power, top_coeff
from wittenq import cli, theta
from wittenq.gci import GCIData, dims
from wittenq.qseries import QSeries
from wittenq.search import SearchQuery

GOLDEN = Path(__file__).with_name("golden_shadow.json")
Q_ORDER = 12


def shadow_instances():
    """The mass run's two-factor W_c instances, in its order."""
    return [g for label, g, _ in cli.vanishing_cases(
        SearchQuery(q_order=Q_ORDER)) if label == "Wc" and g.s == 2]


def oracle(n, D, C, q_order):
    """(kind, W_c) of the instance by full products in the ring."""
    caps, total = tuple(n), sum(n)
    four_k = dims(GCIData(list(n), [list(r) for r in D], list(C),
                          q_order=q_order))[1] % 4 == 0
    phi = theta.phi(total, q_order)
    twist = theta.psi_product(total, q_order) if four_k else phi
    acc = at_form(twist, C, caps, q_order)
    for d in D:
        acc = mul(acc, at_form(phi, d, caps, q_order))
    for b, cap in enumerate(caps):
        axis = from_univariate(theta.x_over_phi(cap, q_order), b, caps,
                               q_order)
        acc = mul(acc, power(axis, cap + 1))
    series = top_coeff(acc)
    if not four_k:  # the 4k+2 integrand is twice the genus
        series = QSeries._make(series.num, 2 * series.den, q_order)
    return ("Wc4k" if four_k else "Wc4k2"), series


def _dumps(cases):
    """The file's text: one instance to a line."""
    lines = ",\n".join(f"  {json.dumps(case)}" for case in cases)
    return f'{{"q_order": {Q_ORDER}, "cases": [\n{lines}\n]}}\n'


def main():
    if GOLDEN.exists():
        sys.exit(f"{GOLDEN.name} exists; it is recorded once")
    cases, t0 = [], time.process_time()
    for g in shadow_instances():
        C = [g.C[0] + 1] + list(g.C[1:])
        D = [list(r) for r in g.D]
        kind, series = oracle(g.n, D, C, Q_ORDER)
        cases.append({"n": list(g.n), "D": D, "C": C, "kind": kind,
                      "coeffs": [str(c) for c in series.coeffs]})
        print(f"{kind} n={list(g.n)} D={D} C={C}: "
              f"{'zero' if series.is_zero() else 'nonzero'}", flush=True)
    seconds = time.process_time() - t0
    GOLDEN.write_text(_dumps(cases))
    nonzero = sum(any(c != "0" for c in case["coeffs"]) for case in cases)
    print(f"wrote {GOLDEN.name}: {len(cases)} instances, {nonzero} nonzero, "
          f"{seconds:.1f} s of process time")


if __name__ == "__main__":
    main()
