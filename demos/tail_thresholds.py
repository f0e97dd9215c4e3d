"""Deviation thresholds for the max of coordinate averages.

The closed-form threshold promises P(max_j |avg_j| >= r(t)) <= 3 e^-t
for coordinates with known second moment and stretched-exponential
norm.  Monte Carlo exceedance frequencies should sit below that curve
at every t, usually far below since the constants are conservative.
"""

import csv
import tempfile
from pathlib import Path

from subweibull import parse_config, run


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        run(parse_config(
            "experiment = tailcheck\nalpha = 0.5, 1, 2\nn = 200\nq = 20\n"
            f"t = 0.5, 1, 2, 4\nreps = 5000\nseed = 11\noutput_dir = {out}\n"))
        with open(Path(out) / "results.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
    print("n=200, q=20, 5000 replications per alpha")
    for row in rows:
        print(f"  alpha={float(row['alpha']):<4} t={float(row['t']):<4} "
              f"threshold={float(row['threshold']):.4f} "
              f"bound={float(row['bound_prob']):.4f} "
              f"observed={float(row['frequency']):.4f} "
              f"(se {float(row['mc_se']):.4f})")


if __name__ == "__main__":
    main()
