"""Eisenstein series, the exact weight fitter, and the theta-null identity.

Run:  python3 demos/modular_forms.py
"""

from wittenq import modforms
from wittenq.gci import GCIData
from wittenq.genera import witten_genus


def main():
    print("== Eisenstein series in q-tilde ==")
    for k in (2, 4, 6):
        e = modforms.eisenstein(k, 5)
        print(f"  E{k} = {e!r}")

    print("\n== fitting a genus onto the E4^a E6^b basis ==")
    # W(K3 surface): a quartic in CP^3, weight (real dim)/2 = 2...
    # weight-2 space is empty, so only the zero series fits; K3 is not
    # string and indeed its Witten genus does not fit at weight 2
    g = GCIData([3], [[4]], q_order=20)
    w = witten_genus(g).coeffs
    ft = modforms.fit(w, 2)
    print(f"  W(K3) at weight 2: ok={ft.ok} "
          f"(weight-2 space is empty; K3 is not string)")

    # a synthetic weight-12 combination round-trips exactly
    tilde = 10
    synth = (modforms.eisenstein(4, tilde) ** 3 * 5
             - modforms.eisenstein(6, tilde) ** 2 * 7)
    ft = modforms.fit(modforms.lift(synth, 20), 12)
    print(f"  5*E4^3 - 7*E6^2 at weight 12: ok={ft.ok}, "
          f"solution={[str(v) for v in ft.solution]} on basis {ft.basis}")

    # E2 is quasi-modular and must be rejected
    ft = modforms.fit(modforms.lift(modforms.eisenstein(2, tilde), 20), 2)
    print(f"  E2 at weight 2: ok={ft.ok} "
          f"(first mismatch at q-tilde^{ft.failure_exponent})")

    print("\n== theta-null identity ==")
    print("  (theta1(0)^8 + theta2(0)^8 + theta3(0)^8)/2 = E4(q^2):",
          modforms.theta_constant_e4_check(12))


if __name__ == "__main__":
    main()
