"""Output checks for one finished batch.

Every check rests on a property the method must have (a certificate,
an exact closed form, a known rate, a coverage level), never on a
stored copy of earlier output.  ``check_batch`` returns a list of
problems; an empty list means the batch passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Windows around the theoretical n^(-1/2) rate of the log-log slope fitted
# by the runner.  They were widened until they held on every seed tried
# (see README.md), so a failure means the rate changed, not bad luck.
SLOPE_TARGET = -0.5
SLOPE_WINDOW = {"rip": 0.25, "lasso": 0.25}
# Relative tolerance of each empirical psi_alpha norm at n >= 1e5.
NORM_TOLERANCE = 0.1
NORM_CHECK_N = 100_000
# solve() declares convergence at a KKT residual of 10 * tol, tol = 1e-8.
KKT_LIMIT = 1e-7
_SLACK = 1e-12


def _read_csv(path: Path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _cells(config) -> int:
    from subweibull.experiments import REGISTRY

    count = 1
    for key in REGISTRY[config.experiment].scan_keys:
        count *= len(config.grids[key])
    return count


def _check_manifest(out_dir: Path, problems: list) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digests = {}
    for entry in manifest["files"]:
        data = (out_dir / entry["name"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"manifest digest mismatch for {entry['name']}")
        digests[entry["name"]] = digest
    return digests


def _check_counts(config, results, summary, problems: list) -> None:
    cells = _cells(config)
    expected = cells * config.reps
    if config.experiment == "tailcheck":
        # tailcheck writes one row per (cell, t), each carrying its reps
        expected = cells * len(config.grids["t"])
        if any(int(row["reps"]) != config.reps for row in results):
            problems.append("tailcheck rows disagree with reps")
    if len(results) != expected:
        problems.append(f"results.csv has {len(results)} rows, expected {expected}")
    if len(summary) != cells:
        problems.append(f"summary.csv has {len(summary)} rows, expected {cells}")


def _check_slope(name, summary, problems: list) -> None:
    window = SLOPE_WINDOW[name]
    for row in summary:
        slope = float(row["slope"])
        if not abs(slope - SLOPE_TARGET) <= window:
            problems.append(
                f"{name}: log-log slope {slope:.4f} outside "
                f"{SLOPE_TARGET} +/- {window}"
            )


def _tailcheck(config, results, summary, problems):
    bad = [row for row in results if row["ok"] != "1"]
    if bad:
        problems.append(f"tailcheck: {len(bad)} rows exceed the threshold bound")


def _norms(config, results, summary, problems):
    for row in results:
        alpha = float(row["alpha"])
        analytic = 2.0 ** (1.0 / alpha)
        if not math.isclose(float(row["analytic"]), analytic, rel_tol=1e-12):
            problems.append(f"norms: analytic {row['analytic']} != 2^(1/{alpha})")
        estimate = float(row["estimate"])
        if not (math.isfinite(estimate) and estimate > 0.0):
            problems.append(f"norms: estimate {estimate} is not positive")
        elif (int(row["n"]) >= NORM_CHECK_N
              and abs(estimate / analytic - 1.0) > NORM_TOLERANCE):
            problems.append(
                f"norms: estimate {estimate:.6g} not within {NORM_TOLERANCE} "
                f"of {analytic:.6g} (alpha={alpha}, n={row['n']})"
            )


def _clt(config, results, summary, problems):
    stat_reps = config.options["stat_reps"]
    for row in results:
        rho = float(row["rho"])
        scaled = rho * stat_reps
        if not (0.0 <= rho <= 1.0 and abs(scaled - round(scaled)) <= 1e-9):
            problems.append(
                f"clt: rho {rho!r} is not a multiple of 1/{stat_reps} in [0, 1]"
            )


def _bootstrap(config, results, summary, problems):
    for row in summary:
        coverage = float(row["coverage"])
        nominal = float(row["nominal"])
        mc_se = float(row["mc_se"])
        if not abs(coverage - nominal) <= 4.0 * mc_se:
            problems.append(
                f"bootstrap: coverage {coverage:.4f} vs nominal {nominal} "
                f"exceeds 4 x mc_se {mc_se:.4f}"
            )


def _rip(config, results, summary, problems):
    for row in results:
        exact, net = float(row["exact_value"]), float(row["net_value"])
        if not (net <= exact + _SLACK and exact <= 2.0 * net + _SLACK):
            problems.append(
                f"rip: rep {row['rep']} breaks net {net:.6g} <= exact "
                f"{exact:.6g} <= 2 x net"
            )
    _check_slope("rip", summary, problems)


def _re(config, results, summary, problems):
    for row in summary:
        count = int(row["satisfied_count"])
        margin = float(row["min_margin"])
        if not (count > 0 and margin >= 0.0):
            problems.append(
                f"re: satisfied_count {count}, min_margin {margin} at n={row['n']}"
            )


def _lasso(config, results, summary, problems):
    if any(row["all_converged"] != "1" for row in summary):
        problems.append("lasso: a fit did not converge")
    worst = max(float(row["kkt_residual"]) for row in results)
    if not worst <= KKT_LIMIT:
        problems.append(f"lasso: kkt_residual {worst:.3g} above {KKT_LIMIT}")
    _check_slope("lasso", summary, problems)


def _covariance(config, results, summary, problems):
    for cell in summary:
        deltas = [float(row["delta"]) for row in results
                  if all(row[key] == cell[key] for key in ("alpha", "p", "n"))]
        threshold = float(cell["deviation_threshold"])
        freq = sum(d > threshold for d in deltas) / len(deltas)
        se = math.sqrt(freq * (1.0 - freq) / len(deltas))
        bound = float(cell["bound_prob"])
        if not freq <= bound + 3.0 * se:
            problems.append(
                f"covariance: exceedance {freq:.4g} above bound {bound:.4g} + 3 se"
            )


_CHECKS = {
    "tailcheck": _tailcheck,
    "norms": _norms,
    "clt": _clt,
    "bootstrap": _bootstrap,
    "rip": _rip,
    "re": _re,
    "lasso": _lasso,
    "covariance": _covariance,
}


def check_batch(config, out_dir) -> tuple:
    """Check one batch's artifacts; returns (problems, file digests)."""
    out_dir = Path(out_dir)
    problems = []
    try:
        digests = _check_manifest(out_dir, problems)
        results = _read_csv(out_dir / "results.csv")
        summary = _read_csv(out_dir / "summary.csv")
        _check_counts(config, results, summary, problems)
        _CHECKS[config.experiment](config, results, summary, problems)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
        digests = {}
    return problems, digests
