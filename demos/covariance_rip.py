"""Covariance error, restricted isometry, and the eigenvalue check.

Three diagnostics for one design: the elementwise gram error Delta_n
halves roughly like 1/sqrt(n); the restricted isometry constant over
k-sparse directions is certified by a quarter net up to a factor 2;
and whenever the restricted eigenvalue check passes, a randomized
search over the cone never finds a direction below the certified
constant.
"""

import numpy as np

from subweibull import (
    IidCoordinates,
    RngStream,
    SymmetricWeibull,
    cone_min_oracle,
    draw_matrix,
    gram,
    max_elementwise_error,
    quarter_net,
    re_check,
    rip_exact,
    rip_net,
)


def main() -> None:
    law = IidCoordinates(SymmetricWeibull(1.0), 20)
    target = np.diag(law.coordinate_variances)

    print("elementwise gram error Delta_n (20 coordinates, median of 30)")
    for i, n in enumerate((200, 800, 3200)):
        deltas = [
            max_elementwise_error(
                gram(draw_matrix(law, n, RngStream(23, 100 * i + rep))),
                target,
            )
            for rep in range(30)
        ]
        print(f"  n={n:<5} median={float(np.median(deltas)):.4f}")

    print("\nrestricted isometry at n=500: exact vs quarter-net certificate")
    x = draw_matrix(law, 500, RngStream(23, 9000))
    deviation = gram(x) - target
    for k in (1, 2, 3):
        exact = rip_exact(deviation, k)
        net = quarter_net(k, 20)
        certified = rip_net(deviation, k, net)
        print(f"  k={k} exact={exact:.4f} net={certified:.4f} "
              f"exact <= 2 net: {exact <= 2.0 * certified}")

    print("\nrestricted eigenvalue check at n=500, k=3")
    sigma = gram(x)
    lambda_min = float(np.linalg.eigvalsh(sigma)[0])
    report = re_check(lambda_min, lambda_min / 2000.0, 3)
    print(f"  lambda_min={report.lambda_min:.4f} xi={report.xi:.6f} "
          f"satisfied={report.satisfied} gamma_n={report.gamma_n:.4f}")
    if report.satisfied:
        found = cone_min_oracle(sigma, range(3), 3.0, 10_000, RngStream(23, 9002))
        print(f"  cone search minimum={found:.4f} "
              f"(never below gamma_n: {found >= report.gamma_n})")


if __name__ == "__main__":
    main()
