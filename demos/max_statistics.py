"""Gaussian approximation and bootstrap for coordinate-max statistics.

The scaled column-sum maximum of skewed data approaches the maximum of
the Gaussian vector with the same covariance; the rectangle-proxy
distance between the two shrinks with n.  The multiplier bootstrap
recovers quantiles of that maximum from a single sample, giving
intervals whose coverage tracks the nominal level.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from subweibull import (
    Exponential,
    IidCoordinates,
    RngStream,
    gaussian_analog_sample,
    draw_matrix,
    multiplier_draws,
    parse_config,
    run,
)


def _summary(text):
    with tempfile.TemporaryDirectory() as out:
        run(parse_config(text + f"seed = 41\noutput_dir = {out}\n"))
        with open(Path(out) / "summary.csv", newline="") as handle:
            return list(csv.DictReader(handle))


def main() -> None:
    q = 25
    law = IidCoordinates(Exponential(1.0), q)
    sigma = np.diag(law.coordinate_variances)

    print("distance to the Gaussian analog (2000 max-statistic draws)")
    summary = _summary(
        f"experiment = clt\nlaw = exponential\nq = {q}\n"
        "n = 50, 200, 800, 3200\nstat_reps = 2000\nrho_grid = 4000\nreps = 1\n")
    for cell in summary:
        print(f"  n={cell['n']:<5} rho={float(cell['median_rho']):.4f}")
    print(f"  log-log slope {float(summary[0]['slope']):.3f} "
          f"(se {float(summary[0]['slope_se']):.3f})")

    print("\nmultiplier bootstrap quantiles from one sample (n=500)")
    x = draw_matrix(law, 500, RngStream(41, 1000))
    boot = multiplier_draws(x, 2000, RngStream(41, 1001))
    reference = gaussian_analog_sample(sigma, 100_000, RngStream(41, 1002))
    for level in (0.5, 0.9, 0.95):
        value = float(np.quantile(boot, level))
        truth = float(np.quantile(reference, level))
        print(f"  level={level:<5} bootstrap={value:.4f} gaussian={truth:.4f}")

    print("\ncoverage of the bootstrap 90% cutoff (500 replications)")
    for law_name, name in (("weibull", "symmetric Weibull(1)"),
                           ("exponential", "centered Exponential(1)")):
        row, = _summary(
            f"experiment = bootstrap\nlaw = {law_name}\nalpha = 1\n"
            f"q = {q}\nn = 300\nnominal = 0.9\nreps = 500\ndraws = 400\n")
        coverage, mc_se = float(row["coverage"]), float(row["mc_se"])
        print(f"  {name:<24} coverage={coverage:.3f} (mc se {mc_se:.3f})")


if __name__ == "__main__":
    main()
