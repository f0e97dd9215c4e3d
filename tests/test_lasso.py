"""Lasso tests: solver certificates, penalty levels, oracle bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

import helpers
from subweibull import covariance as cv
from subweibull import lasso as ls
from subweibull import samplers as sp


def _problem(seed, n=40, p=8, beta=None, sigma=1.0):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    if beta is None:
        beta = np.zeros(p)
        beta[:3] = [1.5, -2.0, 0.5]
    y = x @ beta + sigma * gen.standard_normal(n)
    law = sp.IidCoordinates(sp.Gaussian(1.0), p)
    return sp.DataMatrix(n, p, x, law), y, beta


def _objective(x, y, lam, beta):
    residual = y - x.values @ beta
    return (float(residual @ residual) / (2.0 * x.n)
            + lam * float(np.sum(np.abs(beta))))


def test_problem_validation():
    law = sp.IidCoordinates(sp.Gaussian(1.0), 2)
    x = sp.DataMatrix(3, 2, np.ones((3, 2)), law)
    with pytest.raises(ValueError):
        ls.solve(x, np.ones(4), 0.1)
    with pytest.raises(ValueError):
        ls.solve(x, np.array([1.0, math.nan, 0.0]), 0.1)


def test_shrink_to_zero_exactly():
    x, y, _ = _problem(3)
    lam = float(np.max(np.abs(x.values.T @ y / x.n)))
    fit = ls.solve(x, y, lam)
    assert np.array_equal(fit.beta, np.zeros(8))
    assert fit.converged and fit.kkt_residual == 0.0 and fit.iterations == 0
    larger = ls.solve(x, y, 2.0 * lam)
    assert np.array_equal(larger.beta, np.zeros(8))


def test_single_standardized_predictor():
    gen = np.random.default_rng(9)
    x = gen.standard_normal(60)
    x /= math.sqrt(float(x @ x) / 60.0)
    y = 2.0 * x + gen.standard_normal(60)
    law = sp.IidCoordinates(sp.Gaussian(1.0), 1)
    fit = ls.solve(sp.DataMatrix(60, 1, x[:, None], law), y, 0.3)
    z = float(x @ y / 60.0)
    closed = math.copysign(max(abs(z) - 0.3, 0.0), z)
    assert fit.beta[0] == pytest.approx(closed, abs=1e-10)


def _near_collinear(seed, n=40, p=8):
    # columns 0 and 1 have correlation above 0.999, where the incremental
    # gradient of the covariance updates drifts most
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    x[:, 1] = x[:, 0] + 0.02 * gen.standard_normal(n)
    assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] >= 0.999
    beta = np.zeros(p)
    beta[:3] = [1.5, -2.0, 0.5]
    y = x @ beta + gen.standard_normal(n)
    law = sp.IidCoordinates(sp.Gaussian(1.0), p)
    return sp.DataMatrix(n, p, x, law), y


def test_solver_matches_independent_oracle():
    tol = 1e-8
    for x, y in (_problem(0)[:2], _near_collinear(0)):
        fit = ls.solve(x, y, 0.1, tol=tol)
        assert fit.converged
        assert fit.kkt_residual <= 10.0 * tol
        (oracle,) = helpers.lasso_oracle_objectives([(x.values, y, 0.1)])
        assert _objective(x, y, 0.1, fit.beta) == pytest.approx(oracle, rel=1e-6)


def test_kkt_certificate_and_monotonicity():
    tol = 1e-8
    for seed in range(5):
        x, y, _ = _problem(seed)
        fit = ls.solve(x, y, 0.1, tol=tol)
        assert fit.converged
        assert fit.kkt_residual <= 10.0 * tol
        gradient = x.values.T @ (y - x.values @ fit.beta) / x.n
        for j in range(8):
            if fit.beta[j] == 0.0:
                assert abs(gradient[j]) <= 0.1 + 10.0 * tol
            else:
                assert abs(gradient[j] - 0.1 * np.sign(fit.beta[j])) <= 10.0 * tol
        # coordinate descent from zero is deterministic, so the fit
        # stopped after s sweeps is the s-th iterate of the full run
        values = [_objective(x, y, 0.1, np.zeros(8))]
        for sweeps in range(1, fit.iterations + 1):
            partial = ls.solve(x, y, 0.1, tol=tol, max_iter=sweeps)
            assert partial.iterations == sweeps
            values.append(_objective(x, y, 0.1, partial.beta))
        assert np.array_equal(partial.beta, fit.beta)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12 * (1.0 + abs(values[0])))
        assert values[-1] <= values[0]


def _layout_pair(x, y):
    law = sp.IidCoordinates(sp.Gaussian(1.0), x.shape[1])
    n, p = x.shape
    return [sp.DataMatrix(n, p, values, law)
            for values in (np.ascontiguousarray(x), np.asfortranarray(x))]


def test_solve_layout_independent():
    gen = np.random.default_rng(4)
    x = gen.standard_normal((200, 30))
    y = x[:, :3] @ np.array([1.5, -2.0, 0.5]) + gen.standard_normal(200)
    zero_column = x.copy()
    zero_column[:, 5] = 0.0
    # column 2 is orthogonal to y and to the other columns, so its rho
    # is exactly 0 on every sweep
    orthogonal = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0],
                           [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    cases = [(x, y, 0.1), (zero_column, y, 0.1),
             (orthogonal, np.array([2.0, 2.0, 1.0, -1.0]), 0.25)]
    for design, response, lam in cases:
        pair = _layout_pair(design, response)
        c_fit, f_fit = (ls.solve(matrix, response, lam) for matrix in pair)
        assert c_fit.converged
        for matrix in pair:
            given = ls.solve(matrix, response, lam, sigma=cv.gram(matrix))
            assert np.array_equal(given.beta, c_fit.beta)
            assert np.array_equal(np.signbit(given.beta), np.signbit(c_fit.beta))
            assert given.iterations == c_fit.iterations
            assert given.kkt_residual == c_fit.kkt_residual
        assert np.array_equal(c_fit.beta, f_fit.beta)
        assert np.array_equal(np.signbit(c_fit.beta), np.signbit(f_fit.beta))
        assert c_fit.iterations == f_fit.iterations
        assert c_fit.kkt_residual == f_fit.kkt_residual
    with pytest.raises(ValueError, match="sigma has shape"):
        ls.solve(pair[0], cases[2][1], 0.25, sigma=np.eye(2))
    fit = ls.solve(_layout_pair(zero_column, y)[0], y, 0.1)
    assert fit.beta[5] == 0.0 and not np.signbit(fit.beta[5])
    fit = ls.solve(_layout_pair(cases[2][0], cases[2][1])[1], cases[2][1], 0.25)
    # the soft threshold of 0 is +0.0; the first two coefficients are
    # the closed-form single-column fits (1 - 0.25) / 0.5 and
    # (0.5 - 0.25) / 0.5
    assert fit.beta[2] == 0.0 and not np.signbit(fit.beta[2])
    assert fit.beta[0] == 1.5
    assert fit.beta[1] == 0.5


def test_max_iter_exceeded():
    x, y, _ = _problem(1)
    fit = ls.solve(x, y, 1e-6, tol=1e-14, max_iter=2)
    assert not fit.converged
    assert fit.iterations == 2
    with pytest.raises(ValueError):
        ls.solve(x, y, 0.0)


def test_lambda_theory_subweibull():
    value = ls.lambda_theory_subweibull(1.0, 0.0, 10**4, 100, 1.0)
    assert value == pytest.approx(0.7359130477659704, rel=1e-12)
    assert ls.lambda_theory_subweibull(2.0, 0.0, 10**4, 100, 1.0) == pytest.approx(
        2.0 * value, rel=1e-12
    )
    # second term arithmetic at gamma = 1/2: K^2 (log 2n)^2 (2 log np)^2 / n
    second = ls.lambda_theory_subweibull(0.0, 1.5, 50, 4, 0.5)
    expected = 1.5**2 * math.log(100.0) ** 2 * (2.0 * math.log(200.0)) ** 2 / 50.0
    assert second == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        ls.lambda_theory_subweibull(0.0, 0.0, 10**4, 100, 1.0)
    with pytest.raises(ValueError):
        ls.lambda_theory_subweibull(1.0, 0.0, 1, 100, 1.0)


def test_lambda_theory_poly():
    # K_np = 0 leaves only the shared first term
    only_first = ls.lambda_theory_poly(1.0, 0.0, 1.0, 10**4, 100, 2.0, 4.0, 1.0)
    assert only_first == pytest.approx(
        14.0 * math.sqrt(2.0) * math.sqrt(math.log(10**6) / 10**4), rel=1e-12
    )
    golden = ls.lambda_theory_poly(1.0, 1.0, 1.0, 10**4, 100, 2.0, 4.0, 1.0)
    assert golden == pytest.approx(0.7513270523621016, rel=1e-12)
    # r -> infinity recovers the 1/n denominator
    huge_r = ls.lambda_theory_poly(0.0, 1.0, 1.0, 100, 5, 1.0, 1e9, 1.0)
    limit = math.log(500.0) * (math.log(200.0) + 1.0) / 100.0
    assert huge_r == pytest.approx(limit, rel=1e-6)
    with pytest.raises(ValueError):
        ls.lambda_theory_poly(1.0, 1.0, 1.0, 100, 5, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        ls.lambda_theory_poly(1.0, 1.0, 1.0, 100, 5, 1.0, 4.0, 0.5)
    with pytest.raises(ValueError):
        ls.lambda_theory_poly(0.0, 0.0, 0.0, 100, 5, 1.0, 4.0, 1.0)


def test_lambda_empirical():
    x, _, _ = _problem(2)
    eps = np.ones(40)
    expected = 2.0 * float(np.max(np.abs(x.values.T @ eps / 40)))
    assert ls.lambda_empirical(x, eps) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        ls.lambda_empirical(x, np.ones(3))


def test_cone_membership_examples():
    beta0 = np.array([1.0, 2.0, 0.0, 0.0])
    assert ls.cone_membership(np.zeros(4), (0, 1), beta0)
    assert ls.cone_membership(np.array([0.5, -1.0, 0.0, 0.0]), (0, 1), beta0)
    assert not ls.cone_membership(np.array([0.0, 0.0, 1.0, 0.0]), (0, 1), beta0)
    with pytest.raises(ValueError):
        ls.cone_membership(np.zeros(4), (0, 9), beta0)


def test_cone_and_lemma_conformance():
    # with lam = 2 ||X'eps/n||_inf the fit stays in the proof cone, and
    # gamma = lambda_min(gram)/2 certifies the closed-form l2 error
    violations = 0
    for rep in range(10):
        gen = np.random.default_rng(100 + rep)
        n, p, k = 100, 8, 3
        x = gen.standard_normal((n, p))
        beta0 = np.zeros(p)
        beta0[:k] = [1.0, -1.5, 2.0]
        eps = gen.standard_normal(n)
        y = x @ beta0 + eps
        law = sp.IidCoordinates(sp.Gaussian(1.0), p)
        design = sp.DataMatrix(n, p, x, law)
        lam = ls.lambda_empirical(design, eps)
        fit = ls.solve(design, y, lam)
        assert fit.converged
        nu = fit.beta - beta0
        if not ls.cone_membership(nu, (0, 1, 2), beta0):
            violations += 1
        lambda_min = float(np.linalg.eigvalsh(cv.gram(design))[0])
        report = cv.re_check(lambda_min, 1e-9, k)
        assert report.satisfied
        if float(np.linalg.norm(nu)) > 3.0 * math.sqrt(k) * lam / report.gamma_n:
            violations += 1
    assert violations == 0
