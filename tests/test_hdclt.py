import math

import numpy as np
import pytest
from scipy import stats as sps

from subweibull import experiments as ex
from subweibull import hdclt
from subweibull.covariance import centered_cov
from subweibull.hdclt import (
    data_max_sample,
    gaussian_analog_sample,
    hdclt_bound,
    max_statistic,
    multiplier_draws,
    rho_rectangle_proxy,
)
from subweibull.orlicz import BoundConstants
from subweibull.samplers import (
    DataMatrix,
    Exponential,
    Gamma,
    Gaussian,
    IidCoordinates,
    Pareto,
    RngStream,
    SymmetricWeibull,
    VectorLaw,
    draw_matrix,
)


def _matrix(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return DataMatrix(n, p, values, IidCoordinates(Gaussian(1.0), p))


def test_max_statistic_examples():
    assert max_statistic(np.array([[3.0, -1.0]]), 0.0) == 3.0
    assert max_statistic(np.zeros((4, 3)), 0.0) == 0.0
    gen = np.random.default_rng(0)
    values = gen.standard_normal((7, 5))
    permuted = values[:, [4, 2, 0, 1, 3]]
    assert max_statistic(values, 0.0) == max_statistic(permuted, 0.0)
    # definition check against a hand computation
    rows = np.array([[1.0, 4.0], [3.0, -2.0]])
    assert max_statistic(rows, 0.0) == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-15)
    # the center is subtracted per column before summing
    assert max_statistic(rows, np.array([1.0, 3.0])) == pytest.approx(
        2.0 / math.sqrt(2.0), rel=1e-15)


def test_rho_rectangle_proxy_validation():
    assert rho_rectangle_proxy([1.0, 2.0], np.ones(3), grid=8) == 0.5
    with pytest.raises(ValueError, match="nonempty"):
        rho_rectangle_proxy(np.ones(0), np.ones(3))
    with pytest.raises(ValueError, match="1-d"):
        rho_rectangle_proxy(np.ones(3), np.ones((3, 1)))
    with pytest.raises(ValueError, match="finite"):
        rho_rectangle_proxy(np.array([1.0, np.nan]), np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        rho_rectangle_proxy(np.ones(3), np.array([np.inf]))


class _ConstantRows(VectorLaw):
    """Every row is (5, 5): population means equal every draw."""

    dim = 2
    coordinate_means = np.full(2, 5.0)

    def draw_rows(self, gen, n):
        return np.full((n, 2), 5.0)


def test_data_max_sample_centers_at_population_means():
    law = _ConstantRows()
    sample = data_max_sample(law, 10, 4, RngStream(1, 0))
    assert sample.shape == (4,)
    assert np.all(sample == 0.0)
    with pytest.raises(ValueError, match="reps"):
        data_max_sample(law, 10, 0, RngStream(1, 0))
    with pytest.raises(ValueError, match="n must be"):
        data_max_sample(law, 0, 4, RngStream(1, 0))


def _row_loop(law, n, reps, rng):
    """The explicit per-replication max_statistic loop over drawn rows."""
    gen = rng.generator()
    return np.array([max_statistic(law.draw_rows(gen, n), law.coordinate_means)
                     for _ in range(reps)])


def _row_max_average(alpha, n, q, rng):
    x = SymmetricWeibull(alpha).sample(rng.generator(), (n, q))
    return float(np.max(np.abs(x.mean(axis=0))))


_CLOSED_LAWS = (Exponential(2.0), Gaussian(1.5), SymmetricWeibull(1.0))
# Gamma(2) has a nonzero mean and no closed-form sums
_ROW_ONLY_LAWS = (SymmetricWeibull(0.5), SymmetricWeibull(2.0), Pareto(4.5),
                  Gamma(2.0))


@pytest.mark.parametrize("marginal", _CLOSED_LAWS, ids=repr)
def test_data_max_sample_sums_path_equal_in_law(marginal):
    # two-sample KS of the sums path against the row loop on an
    # independent stream; seeds fixed before the p-values were seen
    law = IidCoordinates(marginal, 20)
    sums = data_max_sample(law, 50, 4000, RngStream(31, 0))
    rows = _row_loop(law, 50, 4000, RngStream(31, 1))
    assert sps.ks_2samp(sums, rows).pvalue > 0.001


def test_tailcheck_sums_path_equal_in_law():
    # the tail gate's alpha = 1 statistic max|S| / n from column sums
    # against the tailcheck task, which draws its rows
    point = {"alpha": 1.0, "n": 100, "q": 10}
    reps = 4000
    gen = RngStream(32, 0).generator()
    law = IidCoordinates(SymmetricWeibull(1.0), 10)
    sums = np.max(np.abs(law.column_sums(gen, 100, reps)), axis=1) / 100
    rows = [ex._tailcheck_task(None, point, rep, RngStream(33, 8 * rep))["max_average"]
            for rep in range(reps)]
    assert sps.ks_2samp(sums, rows).pvalue > 0.001


def test_sample_sums_stream_contract():
    # each sum law draws through the generator in a fixed order
    n, size = 7, (3, 4)

    def draw(law):
        return law.sample_sums(RngStream(37, 0).generator(), n, size)

    gen = RngStream(37, 0).generator()
    assert np.array_equal(draw(Exponential(2.0)), gen.standard_gamma(n, size) / 2.0)
    gen = RngStream(37, 0).generator()
    assert np.array_equal(draw(Gaussian(1.5)),
                          1.5 * math.sqrt(n) * gen.standard_normal(size))
    gen = RngStream(37, 0).generator()
    positive = gen.standard_gamma(n, size)
    assert np.array_equal(draw(SymmetricWeibull(1.0)),
                          positive - gen.standard_gamma(n, size))


@pytest.mark.parametrize("marginal", _CLOSED_LAWS, ids=repr)
def test_sample_sums_moments(marginal):
    n, size = 30, 200_000
    sums = marginal.sample_sums(RngStream(34, 0).generator(), n, size)
    mean, var = n * marginal.mean, n * marginal.variance
    # standard errors: sqrt(var / size) for the mean, and for the
    # variance var * sqrt((2 + excess kurtosis / n) / size), the excess
    # being at most 6 (Exponential) among these laws
    assert abs(sums.mean() - mean) <= 5.0 * math.sqrt(var / size)
    assert abs(sums.var() / var - 1.0) <= 5.0 * math.sqrt((2.0 + 6.0 / n) / size)
    block = IidCoordinates(marginal, 3).column_sums(RngStream(34, 1).generator(), n, 7)
    assert block.shape == (7, 3)


@pytest.mark.parametrize("marginal", _ROW_ONLY_LAWS, ids=repr)
def test_laws_without_closed_sums_keep_the_row_path(marginal):
    assert marginal.sample_sums(RngStream(35, 0).generator(), 10, 3) is None
    law = IidCoordinates(marginal, 6)
    sums = law.column_sums(RngStream(35, 0).generator(), 10, 3)
    gen = RngStream(35, 0).generator()
    assert sums.shape == (3, 6)
    assert np.array_equal(sums, [law.draw_rows(gen, 10).sum(axis=0) for _ in range(3)])
    sample = data_max_sample(law, 40, 50, RngStream(35, 1))
    # the sums are centered, not the rows, which only a nonzero mean sees
    atol = 0.0 if marginal.mean == 0.0 else 1e-12
    np.testing.assert_allclose(sample, _row_loop(law, 40, 50, RngStream(35, 1)),
                               rtol=0.0, atol=atol)


@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_tailcheck_row_path_is_unchanged(alpha):
    point = {"alpha": alpha, "n": 100, "q": 10}
    for rep in range(5):
        stream = RngStream(36, 8 * rep)
        row = ex._tailcheck_task(None, point, rep, stream)
        assert row["max_average"] == _row_max_average(alpha, 100, 10, stream)


def test_gaussian_analog_zero_matrix():
    sample = gaussian_analog_sample(np.zeros((3, 3)), 50, RngStream(2, 0))
    assert sample.shape == (50,)
    assert np.all(sample == 0.0)


def test_gaussian_analog_standard_normal_collapse():
    reps = 200_000
    sample = gaussian_analog_sample([[1.0]], reps, RngStream(3, 0))
    assert abs(float(sample.mean())) < 4.0 / math.sqrt(reps)
    assert sps.kstest(sample, sps.norm.cdf).statistic < 0.01


def test_gaussian_analog_perfect_correlation_degeneracy():
    # rank-1 covariance: the max of two identical coordinates is the
    # single coordinate, so the q=2 law collapses to the q=1 law
    reps = 10**5
    two = gaussian_analog_sample([[1.0, 1.0], [1.0, 1.0]], reps, RngStream(11, 0))
    one = gaussian_analog_sample([[1.0]], reps, RngStream(11, 1))
    assert rho_rectangle_proxy(two, one, grid=2 * reps) < 0.02


def test_gaussian_analog_validation():
    rng = RngStream(4, 0)
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_analog_sample([[1.0, 0.5], [0.0, 1.0]], 5, rng)
    with pytest.raises(ValueError, match="indefinite"):
        gaussian_analog_sample([[1.0, 0.0], [0.0, -1e-3]], 5, rng)
    with pytest.raises(ValueError, match="square"):
        gaussian_analog_sample(np.ones((2, 3)), 5, rng)
    with pytest.raises(ValueError, match="nonempty"):
        gaussian_analog_sample(np.zeros((0, 0)), 5, rng)
    with pytest.raises(ValueError, match="reps"):
        gaussian_analog_sample([[1.0]], 0, rng)
    # roundoff-negative eigenvalue inside the slack is clipped, not refused
    tiny = gaussian_analog_sample([[-1e-12]], 5, rng)
    assert np.all(tiny == 0.0)


def test_rho_identical_sample_is_zero():
    sample = gaussian_analog_sample(np.eye(2), 500, RngStream(5, 0))
    assert rho_rectangle_proxy(sample, sample, grid=64) == 0.0


def test_rho_disjoint_supports_is_one_at_full_grid():
    lo = np.linspace(0.0, 1.0, 400)
    hi = np.linspace(5.0, 6.0, 400)
    assert rho_rectangle_proxy(lo, hi, grid=800) == 1.0


def test_rho_matches_two_sample_kolmogorov_oracle():
    gen = np.random.default_rng(5)
    for _ in range(6):
        na, nb = gen.integers(50, 3000, size=2)
        a = gen.standard_normal(na)
        b = gen.standard_normal(nb) * 1.3 + 0.2
        mine = rho_rectangle_proxy(a, b, grid=int(na + nb))
        oracle = sps.ks_2samp(a, b, method="asymp").statistic
        assert mine == pytest.approx(oracle, abs=1e-12)


def test_rho_same_law_independent_samples_small():
    # DKW at 1e5 draws per sample: 2 sqrt(log(2/0.001) / (2e5)) = 0.0123
    reps = 10**5
    a = gaussian_analog_sample(np.eye(5), reps, RngStream(12, 0))
    b = gaussian_analog_sample(np.eye(5), reps, RngStream(12, 1))
    assert rho_rectangle_proxy(a, b, grid=2 * reps) < 0.015


def test_rho_coarse_grid_is_a_lower_bound():
    gen = np.random.default_rng(9)
    a = gen.standard_normal(800)
    b = gen.standard_normal(700) + 0.3
    exact = rho_rectangle_proxy(a, b, grid=1500)
    for grid in (2, 16, 128):
        assert rho_rectangle_proxy(a, b, grid=grid) <= exact + 1e-15
    with pytest.raises(ValueError, match="grid"):
        rho_rectangle_proxy(a, b, grid=1)


def test_hdclt_bound_unit_arithmetic():
    # q = e makes every log factor 1
    first, _ = hdclt_bound(1.0, 1.0, 1, math.e, 1.0, BoundConstants(c_beta_b_clt=0.0))
    assert first == pytest.approx(1.0, abs=1e-12)
    both, _ = hdclt_bound(1.0, 1.0, 1, math.e, 1.0)
    assert both == pytest.approx(2.0, abs=1e-12)
    second_k1, _ = hdclt_bound(1.0, 1.0, 10, 7.0, 2.0, BoundConstants(k1_clt=0.0))
    second_k2, _ = hdclt_bound(1.0, 2.0, 10, 7.0, 2.0, BoundConstants(k1_clt=0.0))
    assert second_k2 / second_k1 == pytest.approx(64.0, rel=1e-12)
    assert hdclt_bound(1.0, 1.0, 5, 1, 0.5) == (0.0, True)


def test_hdclt_bound_condition_hand_values():
    # n = 1e6, q = e^8, beta = 1: lhs = (1e6/8)^(1/3)/8 = 6.25,
    # rhs = 8 + 6 + 1 = 15, so the condition fails
    _, ok = hdclt_bound(1.0, 1.0, 10**6, math.exp(8.0), 1.0)
    assert ok is False
    # n = 1e9 lifts lhs to 62.5
    _, ok = hdclt_bound(1.0, 1.0, 10**9, math.exp(8.0), 1.0)
    assert ok is True
    # beta = 2 shrinks rhs to sqrt(8) + sqrt(3) + 1 = 5.56 < 6.25
    _, ok = hdclt_bound(1.0, 1.0, 10**6, math.exp(8.0), 2.0)
    assert ok is True
    # doubling k2 halves lhs back below
    _, ok = hdclt_bound(1.0, 1.0, 10**6, math.exp(8.0), 2.0, BoundConstants(k2_clt=2.0))
    assert ok is False


def test_hdclt_bound_monotonicity_sweep():
    gen = np.random.default_rng(13)
    for _ in range(100):
        l_nq = float(10.0 ** gen.uniform(-1, 1))
        k_nq = float(10.0 ** gen.uniform(-0.5, 0.5))
        n = float(10.0 ** gen.uniform(1, 5))
        q = float(10.0 ** gen.uniform(0.1, 3))
        beta = float(gen.uniform(0.3, 2.5))
        base, _ = hdclt_bound(l_nq, k_nq, n, q, beta)
        assert hdclt_bound(l_nq, k_nq, 4.0 * n, q, beta)[0] < base
        assert hdclt_bound(l_nq, k_nq, n, 2.0 * q, beta)[0] > base
        assert hdclt_bound(2.0 * l_nq, k_nq, n, q, beta)[0] > base
        assert hdclt_bound(l_nq, 2.0 * k_nq, n, q, beta)[0] > base


def test_hdclt_bound_validation():
    for bad in ({"l_nq": 0.0}, {"k_nq": -1.0}, {"n": 0}, {"beta": 0.0}):
        args = {"l_nq": 1.0, "k_nq": 1.0, "n": 10, "q": 5, "beta": 1.0}
        args.update(bad)
        with pytest.raises(ValueError, match="positive"):
            hdclt_bound(**args)
    with pytest.raises(ValueError, match="q must be"):
        hdclt_bound(1.0, 1.0, 10, 0.5, 1.0)


def test_multiplier_identical_rows_give_zero():
    w = _matrix(np.tile([1.5, -2.0, 0.5], (6, 1)))
    draws = multiplier_draws(w, 200, RngStream(6, 1))
    assert np.all(draws == 0.0)


def test_multiplier_q1_conditional_gaussian_quantile():
    # conditional on the data the q=1 bootstrap draw is N(0, sigma_hat^2)
    w = draw_matrix(IidCoordinates(Gaussian(1.0), 1), 200, RngStream(13, 0))
    draws = multiplier_draws(w, 10**5, RngStream(13, 1))
    sigma_hat = math.sqrt(centered_cov(w)[0, 0])
    target = 1.959963984540054 * sigma_hat
    assert np.quantile(draws, 0.975) == pytest.approx(target, rel=0.03)


def test_multiplier_scaling_homogeneity():
    base = draw_matrix(IidCoordinates(SymmetricWeibull(1.0), 4), 30, RngStream(20, 0))
    scaled = DataMatrix(30, 4, base.values * 3.0, base.law)
    q_base = np.quantile(multiplier_draws(base, 4000, RngStream(20, 1)), [0.5, 0.9])
    q_scaled = np.quantile(multiplier_draws(scaled, 4000, RngStream(20, 1)), [0.5, 0.9])
    assert q_scaled == pytest.approx(3.0 * q_base, rel=1e-12)


def test_multiplier_blocks_keep_the_draws(monkeypatch):
    # blocks bound the memory of z'R; the normals come in the same order
    w = draw_matrix(IidCoordinates(SymmetricWeibull(1.0), 7), 30, RngStream(2, 0))
    whole = multiplier_draws(w, 1000, RngStream(3, 1))
    monkeypatch.setattr(hdclt, "_DRAW_BLOCK_VALUES", 3 * 7)
    blocked = multiplier_draws(w, 1000, RngStream(3, 1))
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-12)


def test_multiplier_validation():
    w = _matrix([[1.0, 2.0]])
    with pytest.raises(ValueError, match="at least 2 rows"):
        multiplier_draws(w, 10, RngStream(7, 0))
    w2 = _matrix([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="draws"):
        multiplier_draws(w2, 0, RngStream(7, 0))


def test_bootstrap_matches_gaussian_analog_conditionally():
    # conditional law identity: bootstrap draws vs direct Gaussian draws
    # from the centered sample covariance
    w = draw_matrix(IidCoordinates(SymmetricWeibull(1.0), 3), 50, RngStream(14, 0))
    reps = 10**5
    boot = multiplier_draws(w, reps, RngStream(14, 1))
    analog = gaussian_analog_sample(centered_cov(w), reps, RngStream(14, 2))
    assert rho_rectangle_proxy(boot, analog, grid=2 * reps) < 0.02


def test_bootstrap_matches_gaussian_analog_above_rank():
    # q > n: the factor is C itself with k = n rows, the centered
    # covariance has rank n - 1, and the draws still follow the analog's law
    w = draw_matrix(IidCoordinates(SymmetricWeibull(1.0), 20), 8, RngStream(15, 0))
    reps = 10**5
    boot = multiplier_draws(w, reps, RngStream(15, 1))
    analog = gaussian_analog_sample(centered_cov(w), reps, RngStream(15, 2))
    assert rho_rectangle_proxy(boot, analog, grid=2 * reps) < 0.02


@pytest.mark.parametrize("q, seed", [(7, 16), (8, 17)])
def test_bootstrap_matches_gaussian_analog_at_rank_edge(q, seed):
    # n = 8 rows: at q = n - 1 the centered Gram is nonsingular and the
    # factor is its Cholesky factor; at q = n the factor is C itself
    w = draw_matrix(IidCoordinates(SymmetricWeibull(1.0), q), 8, RngStream(seed, 0))
    reps = 10**5
    boot = multiplier_draws(w, reps, RngStream(seed, 1))
    analog = gaussian_analog_sample(centered_cov(w), reps, RngStream(seed, 2))
    assert rho_rectangle_proxy(boot, analog, grid=2 * reps) < 0.02


def test_rho_shrinks_with_sample_size():
    # skewed coordinates (shape-1 Weibull = exponential, centered) keep
    # the Gaussian distance far above the Monte Carlo floor at small n
    law = IidCoordinates(Exponential(1.0), 15)
    sigma = np.diag(law.coordinate_variances)
    medians = {}
    for n in (40, 640):
        values = []
        for run in range(5):
            data = data_max_sample(law, n, 800, RngStream(77, 1000 * n + 2 * run))
            analog = gaussian_analog_sample(sigma, 800, RngStream(77, 1000 * n + 2 * run + 1))
            values.append(rho_rectangle_proxy(data, analog, grid=1600))
        medians[n] = float(np.median(values))
    assert medians[640] < medians[40]
