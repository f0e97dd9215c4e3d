"""L1-penalized least squares with theory-driven penalty levels.

The estimator minimizes (1/2n)||y - X theta||_2^2 + lambda ||theta||_1
by cyclic coordinate descent from zero with covariance updates on the
gram matrix, certified by the KKT subgradient conditions checked on the
design.  Three penalty functions give lambda: the simulation-only
2 ||X' eps / n||_inf from the true noise, and the theory levels for the
two deviation regimes of max_j |X_j' eps| / n, stretched-exponential
products (first term sqrt(log(np)/n), second term polynomial in logs
over n) and polynomial-tailed noise (denominator n^{1 - 1/r} for noise
with r finite moments).  The module also evaluates the cone inequality
used as a per-replication invariant by the experiments.

Columns are not standardized implicitly: the theory penalties presume
normalized covariates, so harness code standardizes explicitly where a
penalty expects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covariance import gram
from .orlicz import BoundConstants
from .samplers import DataMatrix

__all__ = [
    "LassoFit",
    "solve",
    "lambda_empirical",
    "lambda_theory_subweibull",
    "lambda_theory_poly",
    "cone_membership",
]


@dataclass(frozen=True, eq=False)
class LassoFit:
    """Solver output with its KKT certificate."""

    beta: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float


def _kkt_residual(gradient, beta, lam):
    active = beta != 0.0
    violation = np.maximum(np.abs(gradient) - lam, 0.0)
    violation[active] = np.abs(gradient[active] - lam * np.sign(beta[active]))
    return float(np.max(violation)) if violation.size else 0.0


def solve(x: DataMatrix, y, lam: float, tol: float = 1e-8,
          max_iter: int = 100_000, sigma=None) -> LassoFit:
    """Coordinate descent from zero by covariance updates on the gram
    matrix, KKT checked on the design x and response y.

    sigma must be the array ``covariance.gram(x)``, formed here when
    omitted; only its shape is checked.  Converged when the largest update
    in a sweep is below tol * (1 + ||theta||_inf) and the KKT residual is
    at most 10 tol, else the sweeps go on from the KKT gradient; hitting
    max_iter returns converged = False.  Layout of x does not matter.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (x.n,):
        raise ValueError(f"y has shape {y.shape}, expected {(x.n,)}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    n, p = x.n, x.p
    if sigma is not None and np.shape(sigma) != (p, p):
        raise ValueError(f"sigma has shape {np.shape(sigma)}, expected {(p, p)}")
    values = np.ascontiguousarray(x.values)
    # KKT certificate at zero, computed with the canonical matmul form so
    # lam = ||X'y/n||_inf shrinks to zero bitwise, not just within epsilon
    gradient = values.T @ y / n
    if float(np.max(np.abs(gradient))) <= lam:
        return LassoFit(np.zeros(p), 0, True, 0.0)
    if sigma is None:
        sigma = gram(DataMatrix(n, p, values, x.law))
    diagonal = np.diagonal(sigma).tolist()
    coef = [0.0] * p
    converged = False
    for sweeps in range(1, max_iter + 1):
        max_update = 0.0
        for j in range(p):
            scale = diagonal[j]
            if scale == 0.0:
                continue
            old = coef[j]
            rho = float(gradient[j]) + scale * old
            # the soft threshold sign(rho) max(|rho| - lam, 0) / scale,
            # signed zeros included
            if rho > lam:
                new = (rho - lam) / scale
            elif rho < -lam:
                new = (rho + lam) / scale
            else:
                new = 0.0 if rho >= 0.0 else -0.0
            if new != old:
                gradient -= sigma[j] * (new - old)
                coef[j] = new
                max_update = max(max_update, abs(new - old))
        beta = np.asarray(coef)
        if max_update < tol * (1.0 + float(np.max(np.abs(beta)))):
            gradient = values.T @ (y - values @ beta) / n
            kkt = _kkt_residual(gradient, beta, lam)
            if kkt <= 10.0 * tol:
                converged = True
                break
    if not converged:
        kkt = _kkt_residual(values.T @ (y - values @ beta) / n, beta, lam)
    return LassoFit(beta, sweeps, converged, kkt)


# ---------------------------------------------------------------------------
# penalty levels


def lambda_empirical(x: DataMatrix, eps) -> float:
    """Simulation-only penalty 2 ||X' eps / n||_inf from the true noise."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (x.n,):
        raise ValueError("eps length must match the sample size")
    return 2.0 * float(np.max(np.abs(x.values.T @ eps / x.n)))


def lambda_theory_subweibull(sigma_np, k_np, n, p, gamma,
                             constants: Optional[BoundConstants] = None) -> float:
    """Penalty for stretched-exponential covariate-noise products.

    gamma is the combined tail order, 1/gamma = 1/alpha + 1/vartheta for
    covariate order alpha and noise order vartheta.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 1:
        raise ValueError("p must be positive")
    if sigma_np < 0.0 or k_np < 0.0:
        raise ValueError("scale parameters must be nonnegative")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    constants = constants or BoundConstants()
    first = 14.0 * math.sqrt(2.0) * sigma_np * math.sqrt(math.log(n * p) / n)
    second = (
        constants.c_gamma_lasso
        * k_np**2
        * math.log(2.0 * n) ** (1.0 / gamma)
        * (2.0 * math.log(n * p)) ** (1.0 / gamma)
        / n
    )
    lam = first + second
    if not lam > 0.0:
        raise ValueError("degenerate penalty: both terms are zero")
    return lam


def lambda_theory_poly(sigma_np, k_np, k_eps_r, n, p, alpha, r, big_l,
                       constants: Optional[BoundConstants] = None) -> float:
    """Penalty for noise with r finite moments: the deviation term decays
    at n^{1 - 1/r} instead of n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 1:
        raise ValueError("p must be positive")
    if sigma_np < 0.0 or k_np < 0.0 or k_eps_r < 0.0:
        raise ValueError("scale parameters must be nonnegative")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if r < 2.0:
        raise ValueError("r must be at least 2")
    if big_l < 1.0:
        raise ValueError("big_l must be at least 1")
    constants = constants or BoundConstants()
    first = 14.0 * math.sqrt(2.0) * sigma_np * math.sqrt(math.log(n * p) / n)
    second = (
        constants.c_gamma_lasso
        * k_np
        * k_eps_r
        * math.log(n * p) ** (1.0 / alpha)
        * (math.log(2.0 * n) ** (1.0 / alpha) + big_l)
        / n ** (1.0 - 1.0 / r)
    )
    lam = first + second
    if not lam > 0.0:
        raise ValueError("degenerate penalty: both terms are zero")
    return lam


# ---------------------------------------------------------------------------
# cone inequality


def cone_membership(nu, s, beta0) -> bool:
    """The proof-side cone inequality
    ||nu(S^c)||_1 <= 3 ||nu(S)||_1 + 4 ||beta0(S^c)||_1."""
    nu = np.asarray(nu, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    if nu.shape != beta0.shape:
        raise ValueError("nu and beta0 must have equal shapes")
    support = sorted(set(int(i) for i in s))
    if support and (support[0] < 0 or support[-1] >= nu.shape[0]):
        raise ValueError("S indices out of range")
    mask = np.zeros(nu.shape[0], dtype=bool)
    mask[support] = True
    off = float(np.sum(np.abs(nu[~mask])))
    on = float(np.sum(np.abs(nu[mask])))
    tail = float(np.sum(np.abs(beta0[~mask])))
    return off <= 3.0 * on + 4.0 * tail
