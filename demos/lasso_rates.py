"""Penalised regression: certified fits and the error rate in n.

With the penalty at twice the max correlation between design and
noise, the estimation error lives in a cone and is bounded by
3 sqrt(k) lambda / gamma_n whenever the restricted eigenvalue check
passes.  The runner checks both certificates on every converged fit and
stops on the first failure.  Across a grid in n the median l2 error
tracks sqrt(log p / n).
"""

import csv
import tempfile
from pathlib import Path

from subweibull import parse_config, run


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        run(parse_config(
            "experiment = lasso\np = 60\nk = 4\nn = 250, 500, 1000, 2000\n"
            f"reps = 30\nseed = 31\noutput_dir = {out}\n"))
        results = _rows(Path(out) / "results.csv")
        summary = _rows(Path(out) / "summary.csv")
    row = results[0]
    print(f"one fit at n={row['n']}: lam={float(row['lam']):.4f} "
          f"iterations={row['iterations']} converged={row['converged']}")
    print(f"  kkt residual={float(row['kkt_residual']):.2e} "
          f"l2 error={float(row['l2_error']):.4f} "
          f"certified limit={float(row['error_limit']):.4f} "
          f"(re satisfied={row['re_satisfied']})")
    print("\nmedian l2 error over n (30 replications each)")
    for cell in summary:
        print(f"  n={cell['n']:<5} median={float(cell['median_l2_error']):.4f}")
    print(f"log-log slope {float(summary[0]['slope']):.3f} "
          f"(se {float(summary[0]['slope_se']):.3f}); sqrt(1/n) predicts -0.5")


if __name__ == "__main__":
    main()
