"""Orlicz module tests: closed forms, inversions, empirical norms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import helpers
from subweibull import orlicz as oz


def test_closed_form_constants():
    assert oz.quasi_norm_constant(2.0) == 1.0
    assert oz.quasi_norm_constant(1.0) == 1.0
    # alpha = 1/2: 2e * (4 / 0.5)^2 = 128 e
    assert oz.quasi_norm_constant(0.5) == pytest.approx(128.0 * math.e, rel=1e-12)
    assert oz.moment_lower_constant(1.0) == 0.5
    assert oz.moment_upper_constant(2.0) == pytest.approx(2.0 * math.e, rel=1e-12)
    with pytest.raises(ValueError):
        oz.quasi_norm_constant(0.0)


def test_bound_constants_defaults():
    c = oz.BoundConstants()
    vals = c.as_mapping()
    assert set(vals) == {
        "c_alpha_thm34",
        "k1_clt",
        "k2_clt",
        "c_beta_b_clt",
        "c_gamma_lasso",
    }
    assert all(v == 1.0 for v in vals.values())


def test_spec_validation():
    with pytest.raises(ValueError):
        oz.OrliczSpec.psi(-1.0)
    with pytest.raises(ValueError):
        oz.OrliczSpec.gbo(1.0, -0.1)
    with pytest.raises(ValueError):
        oz.OrliczSpec.gbo_phi(1.0, 0.0)


def test_eval_function_examples():
    assert oz.eval_function(oz.OrliczSpec.psi(2.0), 1.0) == pytest.approx(
        math.e - 1.0, rel=1e-12
    )
    assert oz.eval_function(oz.OrliczSpec.psi(0.5), 4.0) == pytest.approx(
        math.e ** 2 - 1.0, rel=1e-12
    )
    assert oz.eval_function(oz.OrliczSpec.gbo(1.0, 1.0), 2.0) == pytest.approx(
        math.e - 1.0, rel=1e-12
    )
    assert oz.eval_function(oz.OrliczSpec.gbo(1.0, 1.0), 0.0) == 0.0
    with pytest.raises(ValueError):
        oz.eval_function(oz.OrliczSpec.psi(1.0), -1.0)
    with pytest.raises(ValueError):
        oz.eval_function(oz.OrliczSpec.psi(1.0), math.nan)


def test_eval_inverse_examples():
    assert oz.eval_inverse(oz.OrliczSpec.gbo(2.0, 0.0), math.e - 1.0) == pytest.approx(
        1.0, rel=1e-12
    )
    assert oz.eval_inverse(
        oz.OrliczSpec.gbo(0.5, 2.0), math.e ** 4 - 1.0
    ) == pytest.approx(34.0, rel=1e-12)
    assert oz.eval_inverse(oz.OrliczSpec.psi(1.0), 0.0) == 0.0
    with pytest.raises(ValueError):
        oz.eval_inverse(oz.OrliczSpec.psi(1.0), -0.5)


ALL_SPECS = [
    oz.OrliczSpec.psi(0.5),
    oz.OrliczSpec.psi(1.0),
    oz.OrliczSpec.psi(2.0),
    oz.OrliczSpec.gbo(0.5, 2.0),
    oz.OrliczSpec.gbo(1.0, 1.0),
    oz.OrliczSpec.gbo(2.0, 0.3),
    oz.OrliczSpec.gbo_phi(0.5, 1.5),
    oz.OrliczSpec.gbo_phi(2.0, 0.7),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_inverse_consistency(spec):
    # Round trip on a log grid; x where g(x) overflows float64 cannot be
    # represented and is excluded (g returns inf there).
    for x in np.geomspace(1e-6, 1e3, 61):
        y = oz.eval_function(spec, float(x))
        if not math.isfinite(y):
            continue
        assert oz.eval_inverse(spec, y) == pytest.approx(float(x), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
def test_function_sandwich(alpha, l):
    # phi(x/2) <= psi(x) <= phi(x) pointwise.
    psi = oz.OrliczSpec.gbo(alpha, l)
    phi = oz.OrliczSpec.gbo_phi(alpha, l)
    for x in np.geomspace(1e-4, 30.0, 80):
        mid = oz.eval_function(psi, float(x))
        hi = oz.eval_function(phi, float(x))
        lo = oz.eval_function(phi, float(x) / 2.0)
        if not math.isfinite(mid):
            continue
        assert lo <= mid * (1.0 + 1e-9) + 1e-12
        assert mid <= hi * (1.0 + 1e-9) + 1e-12


def test_empirical_norm_examples():
    est = oz.empirical_norm(np.ones(17), oz.OrliczSpec.psi(1.0), tol=1e-8)
    assert est.value == pytest.approx(1.0 / math.log(2.0), abs=1e-6)
    assert not est.degenerate

    est = oz.empirical_norm(np.zeros(3), oz.OrliczSpec.psi(2.0))
    assert est.degenerate and est.value == 0.0

    with pytest.raises(ValueError):
        oz.empirical_norm([], oz.OrliczSpec.psi(1.0))
    with pytest.raises(ValueError):
        oz.empirical_norm([1.0, math.inf], oz.OrliczSpec.psi(1.0))
    with pytest.raises(ValueError):
        oz.empirical_norm([1.0], oz.OrliczSpec.psi(1.0), tol=0.0)


def test_empirical_norm_bracket_and_tolerance():
    rng = np.random.default_rng(3)
    x = rng.standard_exponential(500)
    coarse = oz.empirical_norm(x, oz.OrliczSpec.psi(1.0), tol=1e-4)
    fine = oz.empirical_norm(x, oz.OrliczSpec.psi(1.0), tol=1e-9)
    assert abs(coarse.value - fine.value) <= coarse.tolerance + fine.tolerance
    assert coarse.evaluations >= 1


def test_empirical_norm_exponential_analytic():
    # Analytic oracle: E exp(X/eta) = 1/(1 - 1/eta) for Exp(1), equal to
    # 2 exactly at eta = 2.
    rng = np.random.default_rng(101)
    x = rng.standard_exponential(10 ** 6)
    est = oz.empirical_norm(x, oz.OrliczSpec.psi(1.0))
    assert est.value == pytest.approx(2.0, rel=0.02)


SHAPE_POINTS = np.array([0.0, 1e-300, 1e-8, 1.0, 1e8, 1e150])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("l", [0.0, 0.3, 2.5])
def test_shape_inverse_round_trip(alpha, l):
    # The two-regime inverse is a Newton solve; h(h^{-1}(x)) must give x
    # back within 4 ulp wherever u = h^{-1}(x) is a normal float.  At
    # x = 1e-300 the root u is near 1e-600, below the float64 range.
    spec = oz.OrliczSpec.gbo(alpha, l)
    u = oz._shape_inverse(spec, SHAPE_POINTS)
    assert u[0] == 0.0 and u[1] == 0.0
    normal = u >= np.finfo(float).tiny
    assert normal[2:].all()
    back = oz._shape(spec, u[normal])
    eps = np.finfo(float).eps
    assert np.all(np.abs(back - SHAPE_POINTS[normal]) <= 4 * eps * SHAPE_POINTS[normal])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("l", [0.0, 0.3, 2.5])
def test_shape_inverse_nondecreasing(alpha, l):
    spec = oz.OrliczSpec.gbo(alpha, l)
    assert np.all(np.diff(oz._shape_inverse(spec, SHAPE_POINTS)) >= 0.0)
    grid = np.geomspace(1e-12, 1e12, 4001)
    assert np.all(np.diff(oz._shape_inverse(spec, grid)) >= 0.0)


@pytest.mark.parametrize("spec", [
    oz.OrliczSpec.psi(0.5),
    oz.OrliczSpec.psi(2.0),
    oz.OrliczSpec.gbo(1.0, 1.0),
    oz.OrliczSpec.gbo(3.0, 0.3),
    oz.OrliczSpec.gbo_phi(0.5, 1.5),
], ids=lambda s: f"{s.family.value}-{s.alpha}")
def test_empirical_norm_matches_pointwise_reference(spec):
    # The exponent-space sweep must bracket the norm as the pointwise
    # Orlicz function sees it: mean g(|x|/eta) > 1 just below the
    # estimate and <= 1 just above.
    for x in helpers.distribution_corpus()[:4]:
        est = oz.empirical_norm(x, spec, tol=1e-6)

        def mean_g(eta):
            return np.mean([oz.eval_function(spec, abs(v) / eta) for v in x])

        assert mean_g(est.value - est.tolerance) > 1.0
        assert mean_g(est.value + est.tolerance) <= 1.0


def test_empirical_norm_evaluation_count():
    # Pins the Newton path: a change in the sweep, its slope or the
    # bracket moves it.
    x = np.random.default_rng(3).standard_exponential(500)
    est = oz.empirical_norm(x, oz.OrliczSpec.psi(1.0))
    assert est.evaluations == 6
    assert est.value == pytest.approx(1.9910068, rel=1e-6)


@pytest.mark.parametrize("spec", [
    oz.OrliczSpec.psi(2.0),
    oz.OrliczSpec.psi(0.5),
    oz.OrliczSpec.gbo(0.5, 2.0),
    oz.OrliczSpec.gbo_phi(2.0, 0.7),
], ids=lambda s: f"{s.family.value}-{s.alpha}")
def test_empirical_norm_extreme_scales(spec):
    # Powers of |x| are taken once; they must neither underflow nor
    # overflow when the sample sits near the ends of the float64 range.
    x = np.random.default_rng(3).standard_exponential(500)
    base = oz.empirical_norm(x, spec).value
    for c in (1e-200, 1e200):
        assert oz.empirical_norm(c * x, spec).value == pytest.approx(c * base, rel=1e-12)


def test_homogeneity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(200)
    tol = 1e-7
    base = oz.empirical_norm(x, oz.OrliczSpec.gbo(1.0, 1.0), tol).value
    for c in (0.1, 3.0, 40.0):
        scaled = oz.empirical_norm(c * x, oz.OrliczSpec.gbo(1.0, 1.0), tol).value
        assert abs(scaled - c * base) <= tol * (1.0 + c) * max(1.0, base) * 4.0


def test_gbo_moment_norm_gaussian_oracle():
    # At L = 0 the functional is sup_r ||x||_r / sqrt(r).  Oracle: absolute
    # Gaussian moments have the closed form
    # E|Z|^r = 2^(r/2) Gamma((r+1)/2) / sqrt(pi); take the same grid sup.
    r_grid = np.arange(1.0, 50.0 + 1e-12, 0.5)
    log_moment = (
        0.5 * r_grid * math.log(2.0)
        + gammaln((r_grid + 1.0) / 2.0)
        - 0.5 * math.log(math.pi)
    )
    oracle = float(np.max(np.exp(log_moment / r_grid) / np.sqrt(r_grid)))

    rng = np.random.default_rng(2024)
    x = rng.standard_normal(10 ** 6)
    value = oz.gbo_moment_norm(x, 2.0, 0.0, r_max=50.0, grid_step=0.5)
    assert value == pytest.approx(oracle, rel=0.02)


def test_gbo_moment_norm_basics():
    x = np.ones(8)
    # For a point mass at 1 every ||X||_r = 1; denominator is minimized
    # at r = 1 so the functional equals 1/(1 + L).
    assert oz.gbo_moment_norm(x, 1.0, 1.0) == pytest.approx(0.5, rel=1e-9)
    assert oz.gbo_moment_norm(np.zeros(4), 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        oz.gbo_moment_norm([1.0], 1.0, -0.5)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_logsumexp_rows_matches_scipy_bits():
    rng = np.random.default_rng(31)
    rows = [
        np.array([0.0, -np.inf, 1.5, -np.inf]),   # -inf entries (log 0)
        np.array([2.0, 2.0, -1.0, 2.0, 0.5]),     # ties at the max
        np.full(6, 3.25),                         # all equal
        np.array([-700.0, 700.0, 699.0, -np.inf, 700.0]),
    ]
    for row in rows:
        _assert_same_bits(oz._logsumexp_rows(row[None, :]),
                          logsumexp(row[None, :], axis=1))
    for cols in (1, 2, 7, 129):
        z = rng.normal(scale=50.0, size=(40, cols))
        z[:, 1:][rng.random((40, cols - 1)) < 0.2] = -np.inf  # max stays finite
        z[::3, -1] = z[::3].max(axis=1)           # more ties
        z[5] = z[5, 0]
        _assert_same_bits(oz._logsumexp_rows(z), logsumexp(z, axis=1))


def _scipy_moment_norms(x, alpha, scale_l, r_max, grid_step):
    # gbo_moment_norm's log-norm grid and result, with scipy's logsumexp
    # in place of the private helper
    x = np.abs(np.asarray(x, dtype=float))
    r_grid = np.arange(1.0, r_max + 1e-12, grid_step)
    with np.errstate(divide="ignore"):
        z = r_grid[:, None] * np.log(x)[None, :]
    log_norms = (logsumexp(z, axis=1) - math.log(x.size)) / r_grid
    ratio = np.exp(log_norms) / (np.sqrt(r_grid) + scale_l * r_grid ** (1.0 / alpha))
    return r_grid, log_norms, float(np.max(ratio))


@pytest.mark.parametrize("grid_step", [0.25, 0.5])
def test_gbo_moment_norm_matches_scipy_reference(grid_step):
    rng = np.random.default_rng(32)
    samples = [
        rng.standard_normal(300),
        rng.weibull(0.5, 200),
        np.where(rng.random(150) < 0.3, 0.0, rng.exponential(size=150)),
        np.round(3.0 * rng.exponential(size=100)),  # ties at the max
        np.full(20, 1.7),
        np.array([4.0]),
    ]
    for x in samples:
        for alpha, scale_l in ((0.5, 1.0), (1.0, 0.0), (2.0, 0.3)):
            r_grid, log_norms, want = _scipy_moment_norms(
                x, alpha, scale_l, 200.0, grid_step)
            _assert_same_bits(oz._grid_moment_norms(np.abs(x), r_grid), log_norms)
            got = oz.gbo_moment_norm(x, alpha, scale_l, r_max=200.0,
                                     grid_step=grid_step)
            _assert_same_bits(got, want)


def test_gbo_moment_norm_block_size_keeps_the_bits(monkeypatch):
    # The r grid is cut into blocks of rows; each row is reduced on its
    # own, so one row per block, the default budget and the former
    # 2e7-value blocks give the same bits.
    rng = np.random.default_rng(33)
    samples = [
        np.where(rng.random(4000) < 0.3, 0.0, rng.weibull(0.5, 4000)),  # zeros
        np.round(3.0 * rng.exponential(size=3000)),  # ties at the max
        np.full(500, 1.7),
        rng.standard_normal(200_000),
    ]
    budgets = (oz._LSE_BLOCK_BYTES, 1, oz._LSE_BYTES_PER_VALUE * 20_000_000)
    for x in samples:
        results = []
        for budget in budgets:
            monkeypatch.setattr(oz, "_LSE_BLOCK_BYTES", budget)
            results.append(oz.gbo_moment_norm(x, 1.0, 0.5, r_max=100.0))
        for got in results[:2]:
            _assert_same_bits(got, results[2])


def test_gbo_moment_norm_memory_stays_bounded():
    import tracemalloc

    x = np.random.default_rng(34).standard_normal(10**6)
    tracemalloc.start()
    try:
        oz.gbo_moment_norm(x, 1.0, 1.0, r_max=50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_moment_growth_norm_examples():
    # The moment-growth norm sup_r ||x||_r / r^(1/alpha) is gbo_moment_norm
    # at L = 0; the denominator is again minimized at r = 1.
    assert oz.gbo_moment_norm(np.ones(5), 1.0, 0.0) == pytest.approx(1.0, rel=1e-9)
    assert oz.gbo_moment_norm(np.zeros(5), 2.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        oz.gbo_moment_norm([], 1.0, 0.0)
    with pytest.raises(ValueError):
        oz.gbo_moment_norm([1.0], 1.0, 0.0, r_max=0.5)


# ---------------------------------------------------------------------------
# Property suites over the random corpus (shared with acceptance).

CORPUS = helpers.distribution_corpus()


def test_sandwich_suite():
    checks, violations = helpers.sandwich_suite(CORPUS)
    assert checks == len(CORPUS) * 3 * 2
    assert violations == 0


def test_monotonicity_suite():
    checks, violations = helpers.monotonicity_suite(CORPUS)
    assert checks > 0
    assert violations == 0


def test_moment_sandwich_suite():
    checks, violations = helpers.moment_sandwich_suite(CORPUS)
    assert checks == len(CORPUS) * 3 * 2
    assert violations == 0


def test_quasi_norm_suite():
    checks, violations = helpers.quasi_norm_suite(CORPUS)
    assert checks == 25 * 3
    assert violations == 0
