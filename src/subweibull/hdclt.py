"""Gaussian approximation of max statistics and the multiplier bootstrap.

The object under study is the one-sided max statistic

    max_j (1/sqrt(n)) sum_i W_i(j)

of independent mean zero rows.  Its distribution is compared against
the same functional of Gaussian rows with matching covariance, the
comparison being the Kolmogorov distance of the two max-statistic
samples.  That distance is a *proxy*: it is the exact distance over the
one-sided max rectangles only, hence a lower bound on the full
rectangle-class distance, sufficient to witness convergence trends.

``hdclt_bound`` evaluates the explicit Berry-Esseen style bound

    K1 (L^2 log^7 q / n)^(1/6) + C_{beta,B} K^6 log q / n

together with its sample-size condition; the unpinned constants come
from :class:`~subweibull.orlicz.BoundConstants` (slots ``k1_clt``,
``k2_clt``, ``c_beta_b_clt``).  At q = 1 every log q factor vanishes
and the condition degenerates, so ``condition_ok`` is True by
convention there; the bound itself is 0.

The multiplier bootstrap replaces the rows by standard normal weighted
centered rows.  Conditional on the data the bootstrap statistic is the
max of a Gaussian vector with the centered sample covariance, which is
what ``gaussian_analog_sample`` draws from directly; the two paths
agree in law and the tests hold them to that.  Quantiles use linear
interpolation (numpy's default, the type-7 rule) for reproducibility
across implementations.  Bootstrap multipliers are standard normal
only; no Rademacher or two-point variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import _require_symmetric, centered_cov, max_elementwise_error
from .orlicz import BoundConstants
from .samplers import DataMatrix, RngStream, VectorLaw

__all__ = [
    "BootstrapResult",
    "max_statistic",
    "data_max_sample",
    "gaussian_analog_sample",
    "rho_rectangle_proxy",
    "hdclt_bound",
    "multiplier_draws",
    "multiplier_bootstrap",
    "bootstrap_error_bound",
]

# Eigenvalues of a valid covariance may round slightly negative; below
# this the matrix is treated as genuinely indefinite.
_EIGENVALUE_SLACK = -1e-10


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Bootstrap quantiles plus the conditional covariance they came from.

    ``delta_star`` is the elementwise error of that covariance against a
    caller-supplied reference, or None when no reference was given.
    """

    quantiles: dict[float, float]
    draws: int
    sigma_star: np.ndarray
    delta_star: float | None = None

    def __post_init__(self) -> None:
        if not self.quantiles:
            raise ValueError("at least one quantile level is required")
        levels = sorted(self.quantiles)
        if levels[0] <= 0.0 or levels[-1] >= 1.0:
            raise ValueError("levels must lie strictly inside (0, 1)")
        ordered = [self.quantiles[level] for level in levels]
        if not np.isfinite(ordered).all():
            raise ValueError("quantiles must be finite")
        if any(lo > hi for lo, hi in zip(ordered, ordered[1:])):
            raise ValueError("quantiles must be nondecreasing in level")
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if self.delta_star is not None and not self.delta_star >= 0.0:
            raise ValueError("delta_star must be nonnegative")


def max_statistic(rows: np.ndarray, center) -> float:
    """max over columns of (1/sqrt(n)) times the column sum of rows - center."""
    return float(np.max((rows - center).sum(axis=0))) / math.sqrt(rows.shape[0])


def data_max_sample(law: VectorLaw, n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Replications of the max statistic of mean-centered rows from ``law``.

    Rows are centered at the law's population means, so the sample
    targets the mean zero statistic even for uncentered laws.  One
    generator is consumed in replication order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    means = law.coordinate_means
    gen = rng.generator()
    values = np.empty(int(reps))
    for r in range(int(reps)):
        values[r] = max_statistic(law.draw_rows(gen, int(n)), means)
    return values


def gaussian_analog_sample(sigma, reps: int, rng: RngStream) -> np.ndarray:
    """Max of a centered Gaussian vector with covariance ``sigma``, ``reps`` times.

    Equal in law to the max statistic of n iid Gaussian rows for any n.
    The factor comes from a symmetric eigendecomposition with
    eigenvalues clipped at 0; anything below -1e-10 means the input is
    not a covariance.
    """
    sigma = _require_symmetric(sigma, "covariance")
    sigma = (sigma + sigma.T) / 2.0
    if reps < 1:
        raise ValueError("reps must be at least 1")
    evals, evecs = np.linalg.eigh(sigma)
    if float(evals.min()) < _EIGENVALUE_SLACK:
        raise ValueError(f"covariance is indefinite: min eigenvalue {evals.min():.3e}")
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    z = rng.generator().standard_normal((int(reps), sigma.shape[0]))
    return (z @ root.T).max(axis=1)


def _require_sample(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


def rho_rectangle_proxy(a, b, grid: int = 512) -> float:
    """Kolmogorov distance of two max-statistic samples over a threshold grid.

    Thresholds are the ``grid`` quantiles of the pooled sample; when
    grid reaches the pooled size the pooled points themselves are used
    and the value is the exact two-sample Kolmogorov distance.  Always a
    lower bound on the full rectangle-class distance (a proxy over the
    one-sided max rectangles).  ``a`` and ``b`` are nonempty 1-d
    arrays of finite values.
    """
    a, b = _require_sample(a), _require_sample(b)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    pooled = np.sort(np.concatenate([a, b]))
    if grid >= pooled.size:
        thresholds = pooled
    else:
        thresholds = np.quantile(pooled, np.linspace(0.0, 1.0, int(grid)))
    f_a = np.searchsorted(np.sort(a), thresholds, side="right") / a.size
    f_b = np.searchsorted(np.sort(b), thresholds, side="right") / b.size
    return float(np.max(np.abs(f_a - f_b)))


def hdclt_bound(l_nq, k_nq, n, q, beta, constants=None):
    """Gaussian approximation error bound and its sample-size condition.

    Returns ``(bound, condition_ok)`` with

        bound = k1_clt (l_nq^2 log^7 q / n)^(1/6)
                + c_beta_b_clt k_nq^6 log q / n

    and condition_ok the check

        (1/(8 k2_clt k_nq)) (n l_nq / log q)^(1/3)
            >= max(1, 2^(1/beta - 1)) (log^(1/beta) q + (6/beta)^(1/beta) + 1).

    ``l_nq`` bounds the worst coordinate's average third absolute
    moment and ``k_nq`` the worst marginal psi_beta norm.  q enters only
    through log q, so
    non-integer values are accepted for analytic sweeps.  At q = 1 the
    condition degenerates (log q = 0 on both sides) and condition_ok is
    True by convention.
    """
    if constants is None:
        constants = BoundConstants()
    if not (l_nq > 0 and k_nq > 0 and n > 0 and beta > 0):
        raise ValueError("l_nq, k_nq, n, and beta must be positive")
    if not q >= 1:
        raise ValueError("q must be at least 1")
    log_q = math.log(q)
    first = constants.k1_clt * (l_nq**2 * log_q**7 / n) ** (1.0 / 6.0)
    second = constants.c_beta_b_clt * k_nq**6 * log_q / n
    if log_q == 0.0:
        return first + second, True
    lhs = (n * l_nq / log_q) ** (1.0 / 3.0) / (8.0 * constants.k2_clt * k_nq)
    rhs = max(1.0, 2.0 ** (1.0 / beta - 1.0)) * (
        log_q ** (1.0 / beta) + (6.0 / beta) ** (1.0 / beta) + 1.0
    )
    return first + second, bool(lhs >= rhs)


def multiplier_draws(w: DataMatrix, draws: int, rng: RngStream) -> np.ndarray:
    """Draws of max_j (1/sqrt(n)) sum_i e_i (W_i - Wbar)(j), e_i iid N(0,1)."""
    if w.n < 2:
        raise ValueError("multiplier bootstrap needs at least 2 rows")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    centered = w.values - w.values.mean(axis=0)
    gen = rng.generator()
    draws = int(draws)
    out = np.empty(draws)
    # Multiplier maxima in blocks so draws x n never materializes at once.
    block = max(1, 4_000_000 // w.n)
    done = 0
    while done < draws:
        m = min(block, draws - done)
        e = gen.standard_normal((m, w.n))
        out[done : done + m] = (e @ centered).max(axis=1)
        done += m
    return out / math.sqrt(w.n)


def multiplier_bootstrap(w: DataMatrix, draws: int, levels, rng: RngStream, sigma_ref=None) -> BootstrapResult:
    """Multiplier bootstrap quantiles of the max statistic.

    ``levels`` are the requested quantile levels in (0, 1), interpolated
    by the type-7 rule.  When ``sigma_ref`` is given, ``delta_star`` is
    the elementwise error of the centered sample covariance against it.
    """
    levels = [float(level) for level in levels]
    if not levels:
        raise ValueError("at least one quantile level is required")
    if any(not 0.0 < level < 1.0 for level in levels):
        raise ValueError("levels must lie strictly inside (0, 1)")
    sample = multiplier_draws(w, draws, rng)
    quantiles = {level: float(np.quantile(sample, level)) for level in sorted(set(levels))}
    sigma_star = centered_cov(w)
    delta_star = None if sigma_ref is None else max_elementwise_error(sigma_star, sigma_ref)
    return BootstrapResult(quantiles, int(draws), sigma_star, delta_star)


def bootstrap_error_bound(delta_star: float, p, c: float = 1.0) -> float:
    """Bootstrap approximation error bound c delta_star^(1/3) log^(2/3) p."""
    if not delta_star >= 0.0:
        raise ValueError("delta_star must be nonnegative")
    if not p >= 2:
        raise ValueError("p must be at least 2")
    if not c > 0.0:
        raise ValueError("c must be positive")
    return c * delta_star ** (1.0 / 3.0) * math.log(p) ** (2.0 / 3.0)
