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

The multiplier bootstrap (``multiplier_draws``) replaces the rows by
standard normal weighted centered rows.  Conditional on the data the
bootstrap statistic is the max of a Gaussian vector with the centered
sample covariance, which is what ``gaussian_analog_sample`` draws from
directly; the two paths agree in law and the tests hold them to that.
The weighted sum e'C of the n x q centered rows C is drawn through a
factor F with F'F = C'C: when n > q, the upper Cholesky factor of the
q x q Gram C'C; when n <= q, or when the Gram is singular, C itself.
z'F with z standard normal in the k = F.shape[0] dimensions has the
same law as e'C, so a draw costs k multipliers and a k x q product.
Bootstrap quantiles are ``np.quantile`` of the draws, whose default
linear interpolation (the type-7 rule) is reproducible across
implementations.  Bootstrap multipliers are standard normal only; no
Rademacher or two-point variants.
"""

from __future__ import annotations

import math

import numpy as np

from .covariance import _require_symmetric
from .orlicz import BoundConstants
from .samplers import DataMatrix, RngStream, VectorLaw

__all__ = [
    "max_statistic",
    "data_max_sample",
    "gaussian_analog_sample",
    "rho_rectangle_proxy",
    "hdclt_bound",
    "multiplier_draws",
]

# Eigenvalues of a valid covariance may round slightly negative; below
# this the matrix is treated as genuinely indefinite.
_EIGENVALUE_SLACK = -1e-10
# multiplier_draws forms at most this many products z'F at once.
_DRAW_BLOCK_VALUES = 4_000_000


def max_statistic(rows: np.ndarray, center) -> float:
    """max over columns of (1/sqrt(n)) times the column sum of rows - center."""
    return float(np.max((rows - center).sum(axis=0))) / math.sqrt(rows.shape[0])


def data_max_sample(law: VectorLaw, n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Replications of the max statistic of mean-centered rows from ``law``.

    Rows are centered at the law's population means, so the sample
    targets the mean zero statistic even for uncentered laws.  The
    statistic depends on the rows only through their column sums S, so
    when ``law.sample_sums`` has a closed form (Exponential, Gaussian and
    SymmetricWeibull(1) coordinates) one ``(reps, q)`` block of sums is
    drawn from the stream's one generator and every replication is
    max_j (S_j - n mu_j) / sqrt(n) at once, equal in law to the row path.
    Every other law draws n rows per replication, consuming the one
    generator in replication order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    means = law.coordinate_means
    gen = rng.generator()
    sums = law.sample_sums(gen, int(n), int(reps))
    if sums is not None:
        return (sums - n * means).max(axis=1) / math.sqrt(n)
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
    if not constants.k2_clt > 0:
        raise ValueError("k2_clt must be positive")
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
    """Draws of max_j (1/sqrt(n)) sum_i e_i (W_i - Wbar)(j), e_i iid N(0,1).

    With C the centered rows, e'C is normal with covariance C'C, as is
    z'F for any k x q factor F with F'F = C'C and z ~ N(0, I_k).  F is
    the upper Cholesky factor of C'C (k = q) when n > q, and C itself
    (k = n) when n <= q or when Cholesky finds C'C singular, as for
    identical rows.  Each draw is max_j (z'F)_j / sqrt(n): k multipliers
    per draw instead of n, the same conditional law.
    """
    if w.n < 2:
        raise ValueError("multiplier bootstrap needs at least 2 rows")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    centered = w.values - w.values.mean(axis=0)
    factor = centered
    if w.n > w.p:
        # unlike QR, the Gram product and Cholesky release the GIL
        try:
            factor = np.linalg.cholesky(centered.T @ centered).T
        except np.linalg.LinAlgError:
            pass
    gen = rng.generator()
    out = np.empty(int(draws))
    # Blocks of draws, so draws x q never materialises at once; the
    # normals are drawn in the same order whatever the block size.
    block = max(1, _DRAW_BLOCK_VALUES // w.p)
    for start in range(0, out.size, block):
        z = gen.standard_normal((min(block, out.size - start), factor.shape[0]))
        out[start:start + z.shape[0]] = (z @ factor).max(axis=1)
    return out / math.sqrt(w.n)
