"""Penalised regression: one certified fit and the error rate in n.

With the penalty at twice the max correlation between design and
noise, the estimation error lives in a cone and is bounded by
3 sqrt(k) lambda / gamma_n whenever the restricted eigenvalue check
passes.  Across a grid in n the median l2 error tracks sqrt(log p / n).
"""

import numpy as np

from subweibull import (
    EmpiricalOracle,
    Gaussian,
    IidCoordinates,
    LassoProblem,
    RngStream,
    SymmetricWeibull,
    cone_membership,
    fit_loglog,
    gram,
    make_regression,
    re_check,
    solve,
)

P, K = 60, 4


def one_fit(n: int, stream: RngStream):
    design = IidCoordinates(SymmetricWeibull(1.0), P)
    beta0 = np.zeros(P)
    beta0[:K] = 1.0
    data = make_regression(design, beta0, Gaussian(1.0), n, stream)
    problem = LassoProblem(data.x, data.y)
    lam = EmpiricalOracle(data.eps).resolve(problem)
    fit = solve(problem, lam)
    return data, beta0, lam, fit


def main() -> None:
    data, beta0, lam, fit = one_fit(800, RngStream(31, 0))
    nu = fit.beta - beta0
    sigma = gram(data.x)
    lambda_min = float(np.linalg.eigvalsh(sigma)[0])
    report = re_check(lambda_min, lambda_min / 2000.0, K)
    limit = 3.0 * np.sqrt(K) * lam / report.gamma_n
    print(f"one fit at n=800: lam={lam:.4f} iterations={fit.iterations}")
    print(f"  kkt residual={fit.kkt_residual:.2e} "
          f"cone membership={cone_membership(nu, range(K), beta0)}")
    print(f"  l2 error={float(np.linalg.norm(nu)):.4f} "
          f"certified limit={limit:.4f} (re satisfied={report.satisfied})")

    print("\nmedian l2 error over n (30 replications each)")
    ns = (250, 500, 1000, 2000)
    medians = []
    for i, n in enumerate(ns):
        errors = []
        for rep in range(30):
            _, b0, _, f = one_fit(n, RngStream(31, 1000 * (i + 1) + 8 * rep))
            errors.append(float(np.linalg.norm(f.beta - b0)))
        medians.append(float(np.median(errors)))
        print(f"  n={n:<5} median={medians[-1]:.4f}")
    slope, se = fit_loglog(ns, medians)
    print(f"log-log slope {slope:.3f} (se {se:.3f}); sqrt(1/n) predicts -0.5")


if __name__ == "__main__":
    main()
