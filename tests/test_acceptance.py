"""End-to-end acceptance gates, one summary line printed per check.

Each test exercises one user-facing guarantee at desk scale with fixed
streams, prints a single PASS/FAIL line with the measured numbers, and
asserts the stated tolerance window.  Run with -s to see the lines.

The gram rate, sparse operator rate, restricted eigenvalue, both Lasso,
bootstrap coverage and Gaussian distance gates run registered
experiments through ``ex.parse_config`` and ``ex.run`` (the path of
``subweibull run``) and read every number they assert from its
results.csv and summary.csv; a certificate that fails inside the run
raises ``InvariantViolation``.  The other gates stay inline:

- tail domination: the gate takes each cell's 20,000 column sums from
  ``IidCoordinates.column_sums``, in closed form at alpha = 1, while
  ``tailcheck`` draws n*q rows per task at every alpha (the benchmark
  counts them).  Through ``tailcheck`` the gate took 59.3 s at one
  worker and 58.7 s at two, against 44.9 s inline (2 vCPUs), and 631 MB
  peak RSS against 101 MB, since the runner submits all 240,000 tasks
  at once;
- the net certificate (random (p, n, k) instances), solver vs oracle,
  the norm oracle and the norm suites are not grid sweeps;
- rerun determinism already runs every experiment through ``ex.run``.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np

import helpers
from subweibull import covariance as cv
from subweibull import experiments as ex
from subweibull import hdclt as hc
from subweibull import lasso as ls
from subweibull import orlicz as oz
from subweibull import samplers as sp
from subweibull import tailbounds as tb

SEED = 20260816


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[accept] {tag}: {'PASS' if ok else 'FAIL'} {detail}")


def test_exponential_norm_analytic_oracle():
    t0 = time.perf_counter()
    gen = sp.RngStream(1, 0).generator()
    x = sp.Exponential(1.0).sample(gen, 10**6)
    estimate = oz.empirical_norm(x, oz.OrliczSpec.psi(1.0)).value
    elapsed = time.perf_counter() - t0
    rel = abs(estimate / 2.0 - 1.0)
    ok = rel <= 0.02 and elapsed < 10.0
    _line("exponential psi1 norm oracle", ok,
          f"estimate={estimate:.5f} analytic=2.0 rel={rel:.4f} "
          f"time={elapsed:.1f}s")
    assert rel <= 0.02
    assert elapsed < 10.0


def test_norm_inequality_suites():
    t0 = time.perf_counter()
    samples = helpers.distribution_corpus(count=50)
    results = {
        "sandwich": helpers.sandwich_suite(samples),
        "monotonicity": helpers.monotonicity_suite(samples),
        "moment": helpers.moment_sandwich_suite(samples),
        "quasi_norm": helpers.quasi_norm_suite(samples),
    }
    elapsed = time.perf_counter() - t0
    checks = sum(c for c, _ in results.values())
    violations = sum(v for _, v in results.values())
    ok = violations == 0 and elapsed < 60.0
    _line("norm inequality suites", ok,
          f"checks={checks} violations={violations} time={elapsed:.1f}s")
    assert violations == 0, results
    assert elapsed < 60.0


def test_max_average_tail_domination():
    t0 = time.perf_counter()
    reps = 20_000
    constants = oz.BoundConstants()
    cells = violations = 0
    worst = -math.inf
    for ai, alpha in enumerate((0.5, 1.0, 2.0)):
        law = sp.SymmetricWeibull(alpha)
        for ni, n in enumerate((100, 1000)):
            for qi, q in enumerate((10, 100)):
                gen = sp.RngStream(SEED, 1000 * ai + 100 * ni + 10 * qi).generator()
                sums = sp.IidCoordinates(law, q).column_sums(gen, n, reps)
                maxima = np.max(np.abs(sums), axis=1) / n
                for t in (1.0, 2.0, 4.0):
                    threshold, prob = tb.max_average_threshold(
                        law.variance, law.psi_norm, n, q, alpha, t, constants)
                    freq = float(np.mean(maxima >= threshold))
                    se = math.sqrt(freq * (1.0 - freq) / reps)
                    worst = max(worst, freq - prob - 3.0 * se)
                    violations += freq > prob + 3.0 * se
                    cells += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    _line("max-average tail domination", ok,
          f"cells={cells} violations={violations} worst_excess={worst:.4f} "
          f"time={elapsed:.0f}s")
    assert violations == 0
    assert elapsed < 300.0


def _run(out_dir, body):
    """Run one config at SEED through the runner; its (results, summary) rows."""
    ex.run(ex.parse_config(
        body + f"seed = {SEED}\nworkers = 1\noutput_dir = {out_dir}\n"))
    tables = []
    for name in ("results.csv", "summary.csv"):
        with open(out_dir / name, newline="") as handle:
            tables.append(list(csv.DictReader(handle)))
    return tables


def _slope(summary):
    """(slope, slope_se) of a summary whose cells differ only in n."""
    return float(summary[0]["slope"]), float(summary[0]["slope_se"])


def test_gram_error_rate_and_dimension_scaling(tmp_path):
    t0 = time.perf_counter()
    covariance = "experiment = covariance\nalpha = 1\nreps = 200\n"
    _, rate = _run(tmp_path / "rate",
                   covariance + "p = 50\nn = 250, 500, 1000, 2000, 4000\n")
    slope, se = _slope(rate)
    _, dims = _run(tmp_path / "dims", covariance + "p = 10, 1000\nn = 2000\n")
    medians = {int(row["p"]): float(row["median_delta"]) for row in dims}
    ratio = medians[1000] / medians[10]
    target = math.sqrt(math.log(1000.0) / math.log(10.0))
    rel = abs(ratio / target - 1.0)
    elapsed = time.perf_counter() - t0
    ok = -0.60 <= slope <= -0.40 and rel <= 0.25 and elapsed < 300.0
    _line("gram error rate and dimension scaling", ok,
          f"slope={slope:.4f} (se {se:.4f}) ratio={ratio:.4f} "
          f"target={target:.4f} rel={rel:.3f} time={elapsed:.0f}s")
    assert -0.60 <= slope <= -0.40
    assert rel <= 0.25
    assert elapsed < 300.0


def test_sparse_operator_net_certificate_and_monotonicity():
    t0 = time.perf_counter()
    gen = np.random.default_rng(SEED)
    instances = cert_fail = mono_fail = 0
    for _ in range(100):
        p = int(gen.integers(6, 13))
        n = int(gen.integers(50, 400))
        k = int(gen.integers(1, 4))
        law = sp.IidCoordinates(sp.SymmetricWeibull(1.0), p)
        stream = sp.RngStream(SEED, 100_000 + 8 * instances)
        x = sp.draw_matrix(law, n, stream)
        deviation = cv.gram(x) - np.diag(law.coordinate_variances)
        net = cv.quarter_net(k, p)
        exact = cv.rip_exact(deviation, k)
        if exact > 2.0 * cv.rip_net(deviation, k, net) + 1e-12:
            cert_fail += 1
        chain = [cv.rip_exact(deviation, kk) for kk in (1, 2, 3)]
        if not (chain[0] <= chain[1] + 1e-12 and chain[1] <= chain[2] + 1e-12):
            mono_fail += 1
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = cert_fail == 0 and mono_fail == 0 and elapsed < 60.0
    _line("sparse operator net certificate", ok,
          f"instances={instances} certificate_failures={cert_fail} "
          f"monotonicity_failures={mono_fail} time={elapsed:.1f}s")
    assert cert_fail == 0
    assert mono_fail == 0
    assert elapsed < 60.0


def test_sparse_operator_error_rate(tmp_path):
    t0 = time.perf_counter()
    _, summary = _run(tmp_path, "experiment = rip\nalpha = 1\np = 30\nk = 2\n"
                      "n = 500, 1000, 2000, 4000\nreps = 100\n")
    slope, se = _slope(summary)
    elapsed = time.perf_counter() - t0
    ok = -0.60 <= slope <= -0.40 and elapsed < 180.0
    _line("sparse operator error rate", ok,
          f"slope={slope:.4f} (se {se:.4f}) time={elapsed:.0f}s")
    assert -0.60 <= slope <= -0.40
    assert elapsed < 180.0


def test_restricted_eigenvalue_never_falsified(tmp_path):
    # a cone search below a satisfied verdict's gamma_n raises
    # InvariantViolation inside the run
    t0 = time.perf_counter()
    checked = satisfied = 0
    margins = []
    for divisor in (2000, 5):
        _, summary = _run(
            tmp_path / str(divisor),
            "experiment = re\nalpha = 0.5, 1, 2\np = 6, 12\nk = 2, 3\n"
            f"n = 80, 400\nreps = 5\ncone_trials = 10000\nxi_divisor = {divisor}\n")
        for row in summary:
            checked += int(row["checked"])
            satisfied += int(row["satisfied_count"])
            if int(row["satisfied_count"]):
                margins.append(float(row["min_margin"]))
    min_margin = min(margins, default=math.nan)
    elapsed = time.perf_counter() - t0
    ok = satisfied > 0 and elapsed < 120.0
    _line("restricted eigenvalue never falsified", ok,
          f"checked={checked} satisfied={satisfied} min_margin={min_margin:.3f} "
          f"time={elapsed:.0f}s")
    assert satisfied > 0
    assert elapsed < 120.0


def test_lasso_deterministic_bound_conformance(tmp_path):
    # the run raises InvariantViolation on a cone or error-bound failure
    t0 = time.perf_counter()
    results, _ = _run(tmp_path, "experiment = lasso\np = 200\nk = 5\nn = 2000\n"
                      "reps = 200\n")
    applicable = sum(row["applicable"] == "1" for row in results)
    slacks = [float(row["error_limit"]) - float(row["l2_error"])
              for row in results if row["re_satisfied"] == "1"]
    re_passes = len(slacks)
    min_slack = min(slacks, default=math.nan)
    elapsed = time.perf_counter() - t0
    ok = applicable == 200 and re_passes > 0 and elapsed < 300.0
    _line("lasso deterministic bound conformance", ok,
          f"replications={len(results)} cone_checked={applicable} "
          f"re_passes={re_passes} min_slack={min_slack:.3f} time={elapsed:.0f}s")
    assert applicable == 200
    assert re_passes > 0
    assert elapsed < 300.0


def test_lasso_error_rate_and_sparsity_scaling(tmp_path):
    t0 = time.perf_counter()
    lasso = "experiment = lasso\np = 200\nreps = 200\n"
    ns = "n = 500, 1000, 2000, 4000, 8000\n"
    _, rate = _run(tmp_path / "rate", lasso + "k = 5\n" + ns)
    slope, se = _slope(rate)
    _, sparsity = _run(tmp_path / "sparsity", lasso + "k = 2, 8\nn = 4000\n")
    medians = {int(row["k"]): float(row["median_l2_error"]) for row in sparsity}
    ratio = medians[8] / medians[2]
    rel = abs(ratio / 2.0 - 1.0)
    _, pareto = _run(tmp_path / "pareto", lasso + "k = 5\nnoise = pareto\n" + ns)
    pareto_slope, pareto_se = _slope(pareto)
    elapsed = time.perf_counter() - t0
    ok = (-0.60 <= slope <= -0.40 and rel <= 0.30
          and -0.60 <= pareto_slope <= -0.40 and elapsed < 600.0)
    _line("lasso error rate and sparsity scaling", ok,
          f"slope={slope:.4f} (se {se:.4f}) k_ratio={ratio:.4f} rel={rel:.3f} "
          f"pareto_slope={pareto_slope:.4f} (se {pareto_se:.4f}) "
          f"time={elapsed:.0f}s")
    assert -0.60 <= slope <= -0.40
    assert rel <= 0.30
    assert -0.60 <= pareto_slope <= -0.40
    assert elapsed < 600.0


def test_solver_matches_independent_oracle():
    t0 = time.perf_counter()
    gen = np.random.default_rng(SEED)
    tol = 1e-8
    worst_rel = worst_kkt = 0.0
    for _ in range(50):
        n = int(gen.integers(40, 121))
        p = int(gen.integers(8, 25))
        x = gen.standard_normal((n, p))
        beta = np.zeros(p)
        support = gen.choice(p, size=3, replace=False)
        beta[support] = gen.normal(0.0, 2.0, size=3)
        y = x @ beta + gen.standard_normal(n)
        lam = float(gen.uniform(0.05, 0.5))
        law = sp.IidCoordinates(sp.Gaussian(1.0), p)
        fit = ls.solve(sp.DataMatrix(n, p, x, law), y, lam, tol=tol)
        assert fit.converged
        objective = (0.5 * float(np.sum((y - x @ fit.beta) ** 2)) / n
                     + lam * float(np.sum(np.abs(fit.beta))))
        oracle = helpers.lasso_oracle_objective(x, y, lam)
        worst_rel = max(worst_rel,
                        abs(objective - oracle) / max(1.0, abs(oracle)))
        worst_kkt = max(worst_kkt, fit.kkt_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and worst_kkt <= 10.0 * tol and elapsed < 60.0
    _line("solver matches independent oracle", ok,
          f"problems=50 worst_rel={worst_rel:.2e} worst_kkt={worst_kkt:.2e} "
          f"time={elapsed:.1f}s")
    assert worst_rel <= 1e-6
    assert worst_kkt <= 10.0 * tol
    assert elapsed < 60.0


def test_bootstrap_coverage(tmp_path):
    t0 = time.perf_counter()
    bootstrap = ("experiment = bootstrap\nn = 500\nnominal = 0.9\nreps = 1000\n"
                 "draws = 500\n")
    _, (weibull,) = _run(tmp_path / "weibull",
                         bootstrap + "law = weibull\nalpha = 1\nq = 100\n")
    _, (gaussian,) = _run(tmp_path / "gaussian", bootstrap + "law = gaussian\nq = 1\n")
    coverage, mc_se = float(weibull["coverage"]), float(weibull["mc_se"])
    coverage1, mc_se1 = float(gaussian["coverage"]), float(gaussian["mc_se"])
    elapsed = time.perf_counter() - t0
    dev1 = abs(coverage1 - 0.90)
    ok = (abs(coverage - 0.90) <= 0.04 and dev1 <= 4.0 * mc_se1
          and elapsed < 600.0)
    _line("bootstrap coverage", ok,
          f"weibull_q100={coverage:.4f} (mc_se {mc_se:.4f}) "
          f"gaussian_q1={coverage1:.4f} (dev {dev1 / mc_se1:.2f} se) "
          f"time={elapsed:.0f}s")
    assert abs(coverage - 0.90) <= 0.04
    assert dev1 <= 4.0 * mc_se1
    assert elapsed < 600.0


def test_max_statistic_gaussian_distance_trend(tmp_path):
    t0 = time.perf_counter()
    _, summary = _run(tmp_path, "experiment = clt\nlaw = exponential\nq = 50\n"
                      "n = 250, 500, 1000, 2000, 4000\nstat_reps = 2000\n"
                      "rho_grid = 4000\nreps = 20\n")
    medians = {int(row["n"]): float(row["median_rho"]) for row in summary}

    bound_fail = 0
    gen = np.random.default_rng(SEED)
    for _ in range(100):
        l_nq = float(gen.uniform(0.5, 4.0))
        k_nq = float(gen.uniform(0.5, 4.0))
        n = float(gen.uniform(1e3, 1e7))
        q = float(gen.uniform(2.0, 1e4))
        beta = float(gen.uniform(0.5, 2.0))
        gen.uniform(0.5, 2.0)  # keeps the gate's parameter sequence fixed
        base_bound, _ = hc.hdclt_bound(l_nq, k_nq, n, q, beta)
        up_n, _ = hc.hdclt_bound(l_nq, k_nq, 4.0 * n, q, beta)
        up_q, _ = hc.hdclt_bound(l_nq, k_nq, n, 2.0 * q, beta)
        up_l, _ = hc.hdclt_bound(2.0 * l_nq, k_nq, n, q, beta)
        up_k, _ = hc.hdclt_bound(l_nq, 2.0 * k_nq, n, q, beta)
        if not (up_n < base_bound and up_q > base_bound
                and up_l > base_bound and up_k > base_bound):
            bound_fail += 1
    elapsed = time.perf_counter() - t0
    sequence = " ".join(f"{n}:{rho:.4f}" for n, rho in medians.items())
    ok = medians[4000] < medians[250] and bound_fail == 0 and elapsed < 300.0
    _line("max statistic gaussian distance trend", ok,
          f"median rho {sequence} endpoint_decrease="
          f"{medians[4000] < medians[250]} bound_monotonicity_failures="
          f"{bound_fail} time={elapsed:.0f}s")
    assert medians[4000] < medians[250]
    assert bound_fail == 0
    assert elapsed < 300.0


_RERUN_CONFIGS = {
    "norms": "alpha = 1\nn = 100, 200\nreps = 3\n",
    "tailcheck": "alpha = 1\nn = 100\nq = 5\nt = 1, 2\nreps = 100\n",
    "covariance": "alpha = 1\np = 8\nn = 50, 100\nreps = 4\n",
    "rip": "alpha = 1\np = 8\nk = 2\nn = 100\nreps = 3\n",
    "re": "alpha = 1\np = 5\nk = 2\nn = 80\nreps = 3\ncone_trials = 50\n",
    "lasso": "alpha = 1\nk = 2\nn = 150\np = 12\nreps = 3\n",
    "clt": "q = 4\nn = 50\nreps = 2\nstat_reps = 100\n",
    "bootstrap": "q = 4\nn = 60\nreps = 30\ndraws = 60\n",
}


def test_rerun_determinism(tmp_path):
    t0 = time.perf_counter()
    assert set(_RERUN_CONFIGS) == set(ex.REGISTRY)
    mismatched = []
    for name, body in _RERUN_CONFIGS.items():
        text = f"experiment = {name}\nseed = 7\n" + body
        first = ex.parse_config(text + f"output_dir = {tmp_path / name / 'a'}\n")
        second = ex.parse_config(text + f"output_dir = {tmp_path / name / 'b'}\n")
        ex.run(first)
        ex.run(second)
        bytes_a = (tmp_path / name / "a" / "results.csv").read_bytes()
        bytes_b = (tmp_path / name / "b" / "results.csv").read_bytes()
        if bytes_a != bytes_b:
            mismatched.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _line("rerun determinism", ok,
          f"experiments={len(_RERUN_CONFIGS)} mismatched={mismatched or 'none'} "
          f"time={elapsed:.0f}s")
    assert not mismatched
