"""A tour of the theta-series layer: normalized ratios, classical identities.

Run:  python3 demos/theta_identities.py
"""

from wittenq import theta
from wittenq.theta import ThetaKind

Q_ORDER = 16


def main():
    print("== normalized theta ratios in x = 2*pi*i*z ==\n")

    p = theta.phi(5, Q_ORDER)
    print("Phi(x) is odd with leading term x:")
    for k in range(4):
        print(f"  [x^{k}] Phi = {p[k]!r}")

    print("\nThe x^2-coefficient of x/Phi is the weight-2 quasi-modular shape")
    print("-1/24 + sigma_1(1) q^2 + sigma_1(2) q^4 + ...:")
    c2 = theta.x_over_phi(4, Q_ORDER)[2]
    print(f"  {c2!r}")

    print("\nThe x^2-coefficient of Psi1*Psi2*Psi3 is 1/8 - 3 * (same sums):")
    t2 = theta.psi_product(4, Q_ORDER)[2]
    print(f"  {t2!r}")

    print("\n== Jacobi's identity as a pure q-series statement ==")
    print("prod (1 + q^2j)(1 - q^(4j-2)) telescopes to 1:")
    print(f"  holds to q-order 50: {theta.jacobi_check(50)}")
    print(f"  dropping one factor breaks it: {theta.jacobi_check(50, skip=1)}")

    print("\n== numeric transformation laws ==")
    rep = theta.numeric_transform_suite()
    worst = max(rep["errors"].items(), key=lambda kv: kv[1])
    print(f"  {len(rep['errors'])} identities at 5 sampled (z, tau)")
    print(f"  worst relative error: {worst[1]:.2e}  ({worst[0]})")
    print(f"  all under 1e-9: {rep['passed']}")


if __name__ == "__main__":
    main()
