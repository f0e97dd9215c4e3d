"""Covariance error, restricted isometry, and the eigenvalue check.

Three registered experiments on one design, SymmetricWeibull(1) in 20
coordinates: the elementwise gram error Delta_n shrinks roughly like
sqrt(log p / n); the restricted isometry constant over k-sparse
directions is certified by a quarter net up to a factor 2; and
whenever the restricted eigenvalue check passes, a randomized search
over the cone never finds a direction below the certified constant.
The runner stops on the first failed certificate, so every line below
comes from a batch in which all of them held.
"""

import csv
import tempfile
from pathlib import Path

from subweibull import parse_config, run


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _batch(text):
    """Run one config at seed 23; returns its (results, summary) rows."""
    with tempfile.TemporaryDirectory() as out:
        run(parse_config(text + "alpha = 1\np = 20\nseed = 23\n"
                         f"output_dir = {out}\n"))
        return _rows(Path(out) / "results.csv"), _rows(Path(out) / "summary.csv")


def main() -> None:
    _, summary = _batch("experiment = covariance\nn = 200, 800, 3200\nreps = 30\n")
    print("elementwise gram error Delta_n (20 coordinates, median of 30)")
    for cell in summary:
        print(f"  n={cell['n']:<5} median={float(cell['median_delta']):.4f}")
    print(f"  log-log slope {float(summary[0]['slope']):.3f} "
          f"(se {float(summary[0]['slope_se']):.3f}); "
          "sqrt(log p / n) predicts -0.5")

    print("\nrestricted isometry at n=500: exact vs quarter-net certificate")
    results, _ = _batch("experiment = rip\nk = 1, 2, 3\nn = 500\nreps = 1\n")
    for row in results:
        exact, net = float(row["exact_value"]), float(row["net_value"])
        print(f"  k={row['k']} exact={exact:.4f} net={net:.4f} "
              f"exact <= 2 net: {exact <= 2.0 * net}")

    print("\nrestricted eigenvalue check at n=500, k=3 (xi = lambda_min / 2000)")
    results, summary = _batch(
        "experiment = re\nk = 3\nn = 500\nreps = 5\ncone_trials = 10000\n")
    for row in results:
        line = (f"  rep={row['rep']} lambda_min={float(row['lambda_min']):.4f} "
                f"xi={float(row['xi']):.6f} satisfied={row['satisfied']} "
                f"gamma_n={float(row['gamma_n']):.4f}")
        if row["satisfied"] == "1":
            line += f" cone search minimum={float(row['cone_min']):.4f}"
        print(line)
    cell = summary[0]
    print(f"  {cell['satisfied_count']} of {cell['checked']} satisfied; "
          f"smallest cone margin {float(cell['min_margin']):.4f} "
          "(never below gamma_n)")


if __name__ == "__main__":
    main()
