"""Shared fixtures for the unit and acceptance suites.

The property suites here are used twice: module tests assert zero
violations on the default corpus, and the acceptance harness re-runs
them under timing constraints.  Each suite returns (checks, violations)
so callers can assert both coverage and correctness.
"""

from __future__ import annotations

import numpy as np

from subweibull import orlicz as oz
from subweibull import samplers as sp

NORM_TOL = 1e-6


def quantile(law, u):
    """Closed-form quantile function of a SymmetricWeibull, Exponential
    or Pareto law at the probabilities u."""
    u = np.asarray(u, dtype=float)
    if isinstance(law, sp.Exponential):
        return -np.log1p(-u) / law.rate
    # a symmetric law: the magnitude's quantile at |2u - 1|, signed as u - 1/2
    core = np.abs(2.0 * u - 1.0)
    if isinstance(law, sp.Pareto):
        magnitude = law.scale * np.power(1.0 - core, -1.0 / law.shape)
    else:
        magnitude = np.power(-np.log1p(-core), 1.0 / law.alpha)
    return np.where(u >= 0.5, magnitude, -magnitude)


def distribution_corpus(seed: int = 20260816, count: int = 50) -> list[np.ndarray]:
    """Deterministic corpus of random empirical distributions.

    Mixes light and heavy tails, asymmetric and symmetric laws, and a
    range of scales and sizes, so the Orlicz property suites see the
    families the norms are meant to distinguish.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        m = int(rng.integers(40, 160))
        scale = float(rng.uniform(0.5, 3.0))
        kind = i % 6
        if kind == 0:
            x = rng.standard_normal(m)
        elif kind == 1:
            x = rng.standard_exponential(m)
        elif kind == 2:
            x = rng.lognormal(0.0, 1.0, m)
        elif kind == 3:
            x = rng.uniform(-1.0, 1.0, m)
        elif kind == 4:
            x = rng.standard_t(5, m)
        else:
            x = rng.weibull(0.7, m) * rng.choice([-1.0, 1.0], m)
        samples.append(scale * x)
    return samples


def sandwich_suite(samples, alphas=(0.5, 1.0, 2.0), scales=(0.5, 2.0), tol=NORM_TOL):
    """Norm sandwich: ||X||_psi <= ||X||_phi <= 2 ||X||_psi within 2 tol."""
    checks = violations = 0
    for x in samples:
        for alpha in alphas:
            for l in scales:
                n_psi = oz.empirical_norm(x, oz.OrliczSpec.gbo(alpha, l), tol).value
                n_phi = oz.empirical_norm(x, oz.OrliczSpec.gbo_phi(alpha, l), tol).value
                slack = 2.0 * tol * max(1.0, n_psi, n_phi)
                checks += 1
                if not (n_psi <= n_phi + slack and n_phi <= 2.0 * n_psi + slack):
                    violations += 1
    return checks, violations


def monotonicity_suite(samples, alphas=(0.5, 1.0, 2.0), tol=NORM_TOL):
    """Domination and scale monotonicity of the two-regime norm.

    Coordinatewise |A| >= |B| implies norm(A) >= norm(B), and the norm
    is nonincreasing in the second-regime scale L.
    """
    rng = np.random.default_rng(915)
    checks = violations = 0
    for x in samples:
        shrink = x * rng.uniform(0.0, 1.0, size=x.shape)
        for alpha in alphas:
            spec = oz.OrliczSpec.gbo(alpha, 1.0)
            big = oz.empirical_norm(x, spec, tol).value
            small = oz.empirical_norm(shrink, spec, tol).value
            checks += 1
            if not small <= big + 2.0 * tol * max(1.0, big):
                violations += 1
            norms = [
                oz.empirical_norm(x, oz.OrliczSpec.gbo(alpha, l), tol).value
                for l in (0.0, 0.7, 2.5)
            ]
            for lo_l, hi_l in zip(norms, norms[1:]):
                checks += 1
                if not hi_l <= lo_l + 2.0 * tol * max(1.0, lo_l):
                    violations += 1
    return checks, violations


def _moment_segment_max(x, alpha, l, lo, hi, grid_step=0.25):
    """Max of ``gbo_moment_norm``'s ratio over its grid points r in (lo, hi].

    The points are taken from the same ``arange`` from 1 and each ratio
    depends on its own r only, so the max of this and
    ``gbo_moment_norm(..., r_max=lo)`` is ``gbo_moment_norm(..., r_max=hi)``
    bit for bit.
    """
    r_grid = np.arange(1.0, hi + 1e-12, grid_step)
    r_grid = r_grid[r_grid > lo]
    log_norms = oz._grid_moment_norms(oz._abs_sample(x), r_grid)
    ratio = np.exp(log_norms) / (np.sqrt(r_grid) + l * r_grid ** (1.0 / alpha))
    return float(np.max(ratio))


def moment_sandwich_suite(samples, alphas=(0.5, 1.0, 2.0), scales=(0.5, 2.0), tol=NORM_TOL):
    """C_*(a) * moment functional <= two-regime norm <= C^*(a) * moment functional.

    The moment functional is evaluated on a grid, so the supremum is
    grown until doubling r_max moves it by under 0.1%; the upper-side
    check carries that same 0.1% as slack on top of the norm tolerance.
    """
    checks = violations = 0
    for x in samples:
        for alpha in alphas:
            for l in scales:
                r_max = 200.0
                mg = oz.gbo_moment_norm(x, alpha, l, r_max=r_max, grid_step=0.25)
                for _ in range(6):
                    wider = max(mg, _moment_segment_max(x, alpha, l, r_max, 2 * r_max))
                    if wider <= mg * 1.001:
                        break
                    r_max *= 2
                    mg = wider
                norm = oz.empirical_norm(x, oz.OrliczSpec.gbo(alpha, l), tol).value
                lo = oz.moment_lower_constant(alpha) * mg
                hi = oz.moment_upper_constant(alpha) * mg
                slack = tol * max(1.0, norm) + 0.001 * hi
                checks += 1
                if not (lo <= norm + slack and norm <= hi + slack):
                    violations += 1
    return checks, violations


def quasi_norm_suite(samples, alphas=(0.5, 1.0, 2.0), tol=NORM_TOL):
    """||x + y|| <= Q_alpha (||x|| + ||y||) + 3 tol on paired samples."""
    checks = violations = 0
    for x, y in zip(samples[::2], samples[1::2]):
        m = min(x.size, y.size)
        a, b = x[:m], y[:m]
        for alpha in alphas:
            spec = oz.OrliczSpec.gbo(alpha, 1.0)
            n_sum = oz.empirical_norm(a + b, spec, tol).value
            n_a = oz.empirical_norm(a, spec, tol).value
            n_b = oz.empirical_norm(b, spec, tol).value
            q = oz.quasi_norm_constant(alpha)
            checks += 1
            if not n_sum <= q * (n_a + n_b) + 3.0 * tol * max(1.0, n_sum):
                violations += 1
    return checks, violations


def _stacked_apply(matrices, vectors):
    """matrices[i] @ vectors[i] for every i of the stack."""
    return (matrices @ vectors[..., None])[..., 0]


def lasso_oracle_objectives(problems, iterations=20000):
    """Independent slow-but-sure solver for the l1 objective of each
    (x, y, lam) in ``problems``.

    Accelerated projected gradient on the nonnegative split beta = u - v
    (smooth objective, clip-at-zero projection); returns the best objective
    value seen, per problem.  The problems run as one stack, zero-padded to
    the largest n and p, each with its own n, lam and step 1/L: a zero row
    adds nothing to a residual or a gradient, and a zero column keeps
    u = v = 0 since lam > 0.  Deliberately shares no code with the
    coordinate descent path.
    """
    import math

    import numpy as np

    count = len(problems)
    n_max = max(np.shape(x)[0] for x, _, _ in problems)
    p_max = max(np.shape(x)[1] for x, _, _ in problems)
    xs = np.zeros((count, n_max, p_max))
    ys = np.zeros((count, n_max))
    ns = np.empty((count, 1))
    lams = np.empty((count, 1))
    steps = np.zeros((count, 1))
    for i, (x, y, lam) in enumerate(problems):
        x = np.asarray(x, dtype=float)
        n, p = x.shape
        xs[i, :n, :p] = x
        ys[i, :n] = y
        ns[i] = n
        lams[i] = lam
        lipschitz = float(np.linalg.eigvalsh(x.T @ x / n)[-1])
        # with x = 0 the step stays 0, so u = v = 0 and the value is y'y/2n
        if lipschitz > 0.0:
            steps[i] = 1.0 / lipschitz
    xts = np.swapaxes(xs, 1, 2)
    u = np.zeros((count, p_max))
    v = np.zeros((count, p_max))
    look_u, look_v = u.copy(), v.copy()
    momentum = 1.0
    best = np.sum(ys * ys, axis=1) / (2.0 * ns[:, 0])
    for _ in range(iterations):
        gradient = _stacked_apply(xts, ys - _stacked_apply(xs, look_u - look_v)) / ns
        next_u = np.maximum(look_u - steps * (lams - gradient), 0.0)
        next_v = np.maximum(look_v - steps * (lams + gradient), 0.0)
        next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        look_u = next_u + (momentum - 1.0) / next_momentum * (next_u - u)
        look_v = next_v + (momentum - 1.0) / next_momentum * (next_v - v)
        u, v, momentum = next_u, next_v, next_momentum
        residual = ys - _stacked_apply(xs, u - v)
        value = (np.sum(residual * residual, axis=1) / (2.0 * ns[:, 0])
                 + lams[:, 0] * np.sum(u + v, axis=1))
        best = np.minimum(best, value)
    return best
