"""Multiplier bootstrap quantiles against the Gaussian analog.

The multiplier bootstrap recovers quantiles of the scaled column-sum
maximum from a single sample: its quantiles should sit near those of
the maximum of the Gaussian vector with the same covariance.  The
distance to that Gaussian analog over n and the bootstrap's coverage
are registered experiments: see demos/clt.cfg and demos/bootstrap_*.cfg.
"""

import numpy as np

from subweibull import (
    Exponential,
    IidCoordinates,
    RngStream,
    gaussian_analog_sample,
    draw_matrix,
    multiplier_draws,
)


def main() -> None:
    q = 25
    law = IidCoordinates(Exponential(1.0), q)
    sigma = np.diag(law.coordinate_variances)

    print("multiplier bootstrap quantiles from one sample (n=500)")
    x = draw_matrix(law, 500, RngStream(41, 1000))
    boot = multiplier_draws(x, 2000, RngStream(41, 1001))
    reference = gaussian_analog_sample(sigma, 100_000, RngStream(41, 1002))
    for level in (0.5, 0.9, 0.95):
        value = float(np.quantile(boot, level))
        truth = float(np.quantile(reference, level))
        print(f"  level={level:<5} bootstrap={value:.4f} gaussian={truth:.4f}")


if __name__ == "__main__":
    main()
