"""Sampler tests: reproducibility, exact tails, metadata, oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from subweibull import samplers as sp
from subweibull.orlicz import OrliczSpec, empirical_norm


def test_stream_reproducibility():
    law = sp.IidCoordinates(sp.SymmetricWeibull(1.0), 4)
    a = sp.draw_matrix(law, 5, sp.RngStream(7, 3))
    b = sp.draw_matrix(law, 5, sp.RngStream(7, 3))
    c = sp.draw_matrix(law, 5, sp.RngStream(7, 4))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # a stream is a pure description: reusing the same object replays it
    stream = sp.RngStream(7, 3)
    assert np.array_equal(
        sp.draw_matrix(law, 5, stream).values, sp.draw_matrix(law, 5, stream).values
    )


def test_stream_validation():
    with pytest.raises(ValueError):
        sp.RngStream(-1, 0)
    with pytest.raises(ValueError):
        sp.RngStream(0, 2**64)
    with pytest.raises(TypeError):
        sp.RngStream(1.5, 0)


def test_scalar_law_validation():
    with pytest.raises(ValueError):
        sp.SymmetricWeibull(0.0)
    with pytest.raises(ValueError):
        sp.Gaussian(-1.0)
    with pytest.raises(ValueError):
        sp.Exponential(0.0)
    with pytest.raises(ValueError):
        sp.Pareto(-2.0)
    with pytest.raises(ValueError):
        sp.Pareto(2.0, scale=0.0)
    with pytest.raises(ValueError):
        sp.StudentT(0.0)


def test_forced_uniform_draw():
    # (-log e^-1)^(1/2) = 1 with a positive sign
    assert sp.SymmetricWeibull(2.0).from_uniform(math.exp(-1.0), 1.0) == 1.0
    assert sp.SymmetricWeibull(2.0).from_uniform(math.exp(-1.0), -1.0) == -1.0
    assert sp.draw_scalar(sp.Constant(3.0), sp.RngStream(0, 0)) == 3.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_weibull_tail_exactness(alpha):
    # survival of the generator is exp(-t^alpha) exactly; MC at 1e6 draws
    n = 10**6
    z = sp.SymmetricWeibull(alpha).sample(
        sp.RngStream(11, int(alpha * 10)).generator(), n
    )
    for t in (0.5, 1.0, 2.0):
        p = math.exp(-(t**alpha))
        emp = float(np.mean(np.abs(z) >= t))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(emp - p) <= 4.0 * se
    if alpha == 1.0:
        p = math.exp(-2.0)
        emp = float(np.mean(np.abs(z) >= 2.0))
        assert abs(emp - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_weibull_moments():
    law = sp.SymmetricWeibull(1.0)
    assert law.variance == pytest.approx(2.0, rel=1e-12)  # Gamma(3)
    assert law.fourth_moment == pytest.approx(24.0, rel=1e-12)  # Gamma(5)
    assert law.mean == 0.0
    z = law.sample(sp.RngStream(11, 10).generator(), 10**6)
    m2 = float(np.mean(z**2))
    # Var(Z^2) = m4 - m2^2 = 20
    assert abs(m2 - 2.0) <= 4.0 * math.sqrt(20.0 / 10**6)


def test_analytic_psi_norm_metadata():
    assert sp.SymmetricWeibull(1.0).psi_norm == 2.0
    assert sp.SymmetricWeibull(0.5).psi_norm == 4.0
    assert sp.SymmetricWeibull(2.0).psi_norm == pytest.approx(math.sqrt(2.0))
    assert sp.Gaussian(2.0).psi_norm == pytest.approx(2.0 * math.sqrt(8.0 / 3.0))
    assert sp.Gaussian(1.0).tail_exponent == 2.0
    assert sp.Exponential(1.0).psi_norm == 2.0
    assert sp.Exponential(2.0).psi_norm == 1.0
    assert sp.Pareto(3.0).psi_norm is None
    assert sp.StudentT(5.0).psi_norm is None


@pytest.mark.parametrize(
    "law",
    [sp.SymmetricWeibull(1.0), sp.SymmetricWeibull(0.5), sp.SymmetricWeibull(2.0),
     sp.Gaussian(1.0)],
)
def test_empirical_norm_matches_analytic(law):
    # ties the generators to the norm machinery: plug-in norm of 1e6
    # draws agrees with the closed form within 2 percent
    z = law.sample(sp.RngStream(23, int(law.tail_exponent * 100)).generator(), 10**6)
    est = empirical_norm(np.abs(z), OrliczSpec.psi(law.tail_exponent))
    assert est.value == pytest.approx(law.psi_norm, rel=0.02)


def test_pareto_metadata_and_tails():
    law = sp.Pareto(3.0, scale=2.0)
    assert law.mean == 0.0
    assert law.variance == pytest.approx(3.0 * 4.0 / 1.0)  # r s^2 / (r-2)
    assert law.fourth_moment == math.inf
    assert law.abs_moment(2.9) < math.inf
    assert law.abs_moment(3.0) == math.inf
    assert math.isnan(sp.Pareto(1.0).mean)
    z = law.sample(sp.RngStream(29, 0).generator(), 10**6)
    assert float(np.min(np.abs(z))) >= 2.0  # support starts at the scale
    # P(|Z| >= 4) = (2/4)^3 = 1/8
    p = 0.125
    emp = float(np.mean(np.abs(z) >= 4.0))
    assert abs(emp - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 10**6)


def test_student_t_metadata():
    assert sp.StudentT(5.0).variance == pytest.approx(5.0 / 3.0)
    assert sp.StudentT(5.0).fourth_moment == pytest.approx(25.0)  # 3*25/(3*1)
    assert sp.StudentT(2.0).variance == math.inf
    assert math.isnan(sp.StudentT(1.0).mean)
    assert sp.StudentT(3.0).ppf(0.5) == pytest.approx(0.0, abs=1e-12)


def test_ppf_matches_sampling():
    # quantile transform of a uniform grid reproduces the law (KS check)
    u = (np.arange(10**5) + 0.5) / 10**5
    for law in (sp.SymmetricWeibull(0.7), sp.Pareto(2.5), sp.Exponential(2.0)):
        z = law.sample(sp.RngStream(31, 0).generator(), 10**5)
        ks = ks_2samp(law.ppf(u), z)
        assert ks.statistic < 0.01


def test_identical_constant_matrix():
    m = sp.draw_matrix(sp.IdenticalCoordinates(sp.Constant(1.0), 4), 2, sp.RngStream(0, 0))
    assert m.n == 2 and m.p == 4
    assert np.array_equal(m.values, np.ones((2, 4)))
    assert not m.law.mean_zero
    assert m.law.max_second_moment == 1.0


def test_copula_independence_case():
    n = 10**5
    m = sp.draw_matrix(sp.GaussianCopula(0.0, sp.Gaussian(1.0), 4), n, sp.RngStream(13, 2))
    corr = np.corrcoef(m.values, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 3.0 / math.sqrt(n)


def test_copula_marginals_exact():
    n = 10**5
    m = sp.draw_matrix(
        sp.GaussianCopula(0.6, sp.SymmetricWeibull(1.0), 3), n, sp.RngStream(13, 0)
    )
    reference = sp.SymmetricWeibull(1.0).sample(sp.RngStream(13, 1).generator(), n)
    for j in range(3):
        assert ks_2samp(m.values[:, j], reference).statistic < 0.01


def test_copula_gaussian_correlation():
    # Gaussian marginals make the copula a plain multivariate normal
    m = sp.draw_matrix(
        sp.GaussianCopula(0.7, sp.Gaussian(1.0), 3), 2 * 10**5, sp.RngStream(13, 3)
    )
    corr = np.corrcoef(m.values, rowvar=False)
    for i in range(3):
        for j in range(i + 1, 3):
            assert corr[i, j] == pytest.approx(0.7, abs=0.02)
    with pytest.raises(ValueError):
        sp.GaussianCopula(1.0, sp.Gaussian(1.0), 3)
    with pytest.raises(ValueError):
        sp.GaussianCopula(-0.2, sp.Gaussian(1.0), 3)


def test_identical_joint_norm_is_sqrt_p_marginal():
    # along theta = (1/3, ..., 1/3) the projection is exactly 3 Z, so the
    # plug-in norm ratio on one sample sits at sqrt(p) = 3
    m = sp.draw_matrix(
        sp.IdenticalCoordinates(sp.SymmetricWeibull(1.0), 9), 10**5, sp.RngStream(13, 4)
    )
    theta = np.full(9, 1.0 / 3.0)
    spec = OrliczSpec.psi(1.0)
    joint = empirical_norm(np.abs(m.values @ theta), spec).value
    marginal = empirical_norm(np.abs(m.values[:, 0]), spec).value
    assert joint / marginal == pytest.approx(3.0, rel=0.10)


def test_vector_law_mean_zero_invariant():
    n = 2 * 10**5
    laws = [
        sp.IidCoordinates(sp.SymmetricWeibull(1.0), 6),
        sp.GaussianCopula(0.5, sp.Gaussian(1.0), 5),
        sp.IdenticalCoordinates(sp.SymmetricWeibull(2.0), 4),
        sp.LinearMap(np.array([[1.0, 0.0], [1.0, 1.0]]), sp.SymmetricWeibull(1.0)),
    ]
    for i, law in enumerate(laws):
        assert law.mean_zero
        m = sp.draw_matrix(law, n, sp.RngStream(17, i))
        means = m.values.mean(axis=0)
        limit = 4.0 * np.sqrt(law.coordinate_variances / n)
        assert np.all(np.abs(means) <= limit)
    assert not sp.IidCoordinates(sp.Exponential(1.0), 3).mean_zero


def test_linear_map_shapes_and_covariance():
    factor = np.array([[1.0, 0.0], [1.0, 1.0]])
    law = sp.LinearMap(factor, sp.SymmetricWeibull(1.0))
    assert law.dim == 2
    # Cov = Var(z) * F F^T with Var(z) = 2
    assert np.allclose(law.coordinate_variances, [2.0, 4.0])
    assert law.max_second_moment == pytest.approx(4.0)
    m = sp.draw_matrix(law, 2 * 10**5, sp.RngStream(19, 0))
    emp = np.cov(m.values, rowvar=False)
    assert np.allclose(emp, 2.0 * factor @ factor.T, atol=0.1)
    with pytest.raises(ValueError):
        sp.LinearMap(factor, sp.SymmetricWeibull(1.0), p=3)
    with pytest.raises(ValueError):
        sp.LinearMap(np.ones(3), sp.SymmetricWeibull(1.0))


def test_data_matrix_validation():
    law = sp.IidCoordinates(sp.Gaussian(1.0), 2)
    with pytest.raises(ValueError):
        sp.DataMatrix(3, 2, np.zeros((2, 3)), law)
    with pytest.raises(ValueError):
        sp.DataMatrix(1, 2, np.array([[1.0, math.inf]]), law)
    with pytest.raises(ValueError):
        sp.draw_matrix(law, 0, sp.RngStream(0, 0))


def test_make_regression_well_specified():
    design = sp.IidCoordinates(sp.Gaussian(1.0), 3)
    beta0 = np.array([1.0, 0.0, 0.0])
    reg = sp.make_regression(design, beta0, sp.Constant(0.0), 40, sp.RngStream(3, 0))
    assert np.array_equal(reg.y, reg.x.values[:, 0])
    assert np.array_equal(reg.eps, np.zeros(40))
    zero = sp.make_regression(design, np.zeros(3), sp.Gaussian(1.0), 40, sp.RngStream(3, 1))
    assert np.array_equal(zero.y, zero.eps)
    # identical stream, identical data
    again = sp.make_regression(design, beta0, sp.Constant(0.0), 40, sp.RngStream(3, 0))
    assert np.array_equal(again.x.values, reg.x.values)


def test_make_regression_validation():
    design = sp.IidCoordinates(sp.Gaussian(1.0), 3)
    with pytest.raises(ValueError):
        sp.make_regression(design, np.ones(2), sp.Constant(0.0), 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError):
        sp.make_regression(design, np.ones(3), sp.Exponential(1.0), 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError):
        sp.make_regression(design, None, sp.Constant(0.0), 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError):
        sp.make_regression(
            design, np.ones(3), sp.Constant(0.0), 10, sp.RngStream(0, 0),
            misspec=lambda X: X[:, 0],
        )


def test_make_regression_misspecified():
    # f(x) = x_1^2 on an iid Gaussian design: E[X_j f(X)] = 0, so the
    # population coefficient vanishes; oracle at 1e7 rows within 0.01
    design = sp.IidCoordinates(sp.Gaussian(1.0), 2)
    reg = sp.make_regression(
        design, None, sp.Gaussian(1.0), 50, sp.RngStream(9, 0),
        misspec=lambda X: X[:, 0] ** 2, oracle_n=10**7,
    )
    assert np.max(np.abs(reg.beta0)) < 0.01
    assert np.allclose(reg.y, reg.x.values[:, 0] ** 2 + reg.eps)


def test_population_beta0_linear_identity():
    # exact linear response regresses back to its own coefficient
    design = sp.IidCoordinates(sp.Gaussian(1.0), 2)
    b = np.array([1.0, -2.0])
    est = sp.population_beta0(design, lambda X: X @ b, 10**5, sp.RngStream(5, 0))
    assert np.max(np.abs(est - b)) < 1e-8
    zero = sp.population_beta0(
        design, lambda X: np.zeros(X.shape[0]), 10**4, sp.RngStream(5, 1)
    )
    assert np.array_equal(zero, np.zeros(2))


def test_population_beta0_stein_oracle():
    # E[X_1 * X_1^3] = 3 for standard Gaussian X_1, other coordinates 0
    design = sp.IidCoordinates(sp.Gaussian(1.0), 3)
    est = sp.population_beta0(design, lambda X: X[:, 0] ** 3, 10**7, sp.RngStream(5, 2))
    assert np.max(np.abs(est - np.array([3.0, 0.0, 0.0]))) < 0.02


def test_population_beta0_singular_design():
    design = sp.IdenticalCoordinates(sp.Gaussian(1.0), 3)
    with pytest.raises(np.linalg.LinAlgError):
        sp.population_beta0(design, lambda X: X[:, 0], 10**4, sp.RngStream(5, 3))
