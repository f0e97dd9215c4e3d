"""Orlicz norms for heavy-tailed random variables.

An Orlicz function g is nondecreasing with g(0) = 0, and the g-norm of a
random variable X is

    ||X||_g = inf{eta > 0 : E[g(|X|/eta)] <= 1}.

This module implements four families of Orlicz functions, all of the form
g(x) = exp(h^{-1}(x)) - 1 for an increasing shape h with h(0) = 0:

``psi_alpha``
    h(u) = u^(1/alpha), so g(x) = exp(x^alpha) - 1.  Finite norm means
    tails no heavier than a stretched exponential of order alpha
    (sub-Weibull when alpha < 1, sub-exponential at alpha = 1,
    sub-Gaussian at alpha = 2).

``gbo_psi``
    h(u) = sqrt(u) + L * u^(1/alpha), the two-regime (Bernstein style)
    shape: Gaussian behaviour for small deviations, order-alpha tail
    beyond the crossover controlled by L.  g itself has no closed form
    and is evaluated by inverting h.

``gbo_phi``
    g(x) = exp(min{x^2, (x/L)^alpha}) - 1, the closed-form companion of
    ``gbo_psi``.  Function values sandwich the two-regime family:
    phi(x/2) <= psi(x) <= phi(x), hence the norms agree within a
    factor of 2.

``multi_regime``
    h(u) = sum_j L_j * u^(1/alpha_j), an arbitrary finite mixture of
    tail regimes.

All families satisfy the tail identity

    P(|X| >= ||X||_g * h(t)) <= 2 * exp(-t),

which is what the threshold helpers at the bottom of the module compute.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "Family",
    "OrliczSpec",
    "NormEstimate",
    "BoundConstants",
    "scaling_constant",
    "interpolation_constant",
    "norm_equivalence_constant",
    "sharper_max_constant",
    "quasi_norm_constant",
    "moment_lower_constant",
    "moment_upper_constant",
    "weighted_sum_constant",
    "eval_function",
    "eval_inverse",
    "empirical_norm",
    "moment_growth_norm",
    "gbo_moment_norm",
    "gbo_tail_threshold",
    "maximal_threshold",
    "sharper_maximal_denominator",
]

# Exponents above this overflow exp() in float64; function values past the
# limit are reported as inf rather than raising.
_EXP_LIMIT = 709.0

# Fixed iteration counts make the inner inversions deterministic and
# accurate to float64 resolution (bracket width shrinks by 2^-64).
_SHAPE_BISECT_STEPS = 64


class Family(enum.Enum):
    """Orlicz function families supported by :class:`OrliczSpec`."""

    PSI_ALPHA = "psi_alpha"
    GBO_PSI = "gbo_psi"
    GBO_PHI = "gbo_phi"
    MULTI_REGIME = "multi_regime"


@dataclass(frozen=True)
class OrliczSpec:
    """A fully parameterized Orlicz function.

    Parameters
    ----------
    family : Family
        Which of the four families to evaluate.
    alpha : float
        Tail order; must be positive.  Ignored by ``multi_regime``.
    scale_l : float
        Second-regime scale L, nonnegative.  Must be positive for
        ``gbo_phi`` (the closed form divides by L).  Ignored by
        ``psi_alpha`` and ``multi_regime``.
    alphas, scales : tuple of float
        Regime lists for ``multi_regime``; equal length, all alphas
        positive, all scales nonnegative with at least one positive.
    """

    family: Family
    alpha: float = 1.0
    scale_l: float = 0.0
    alphas: tuple[float, ...] = ()
    scales: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family is Family.MULTI_REGIME:
            if len(self.alphas) == 0 or len(self.alphas) != len(self.scales):
                raise ValueError("multi_regime needs matched, nonempty regime lists")
            if any(a <= 0 for a in self.alphas):
                raise ValueError("regime alphas must be positive")
            if any(l < 0 for l in self.scales) or all(l == 0 for l in self.scales):
                raise ValueError("regime scales must be nonnegative, not all zero")
        else:
            if not self.alpha > 0:
                raise ValueError("alpha must be positive")
            if self.scale_l < 0:
                raise ValueError("scale_l must be nonnegative")
            if self.family is Family.GBO_PHI and self.scale_l == 0:
                raise ValueError("gbo_phi requires scale_l > 0")

    @classmethod
    def psi(cls, alpha: float) -> "OrliczSpec":
        return cls(Family.PSI_ALPHA, alpha=alpha)

    @classmethod
    def gbo(cls, alpha: float, scale_l: float) -> "OrliczSpec":
        return cls(Family.GBO_PSI, alpha=alpha, scale_l=scale_l)

    @classmethod
    def gbo_phi(cls, alpha: float, scale_l: float) -> "OrliczSpec":
        return cls(Family.GBO_PHI, alpha=alpha, scale_l=scale_l)

    @classmethod
    def multi(cls, alphas, scales) -> "OrliczSpec":
        return cls(Family.MULTI_REGIME, alphas=tuple(alphas), scales=tuple(scales))


@dataclass(frozen=True)
class NormEstimate:
    """Result of an empirical Orlicz norm computation.

    ``value`` carries the bisection midpoint, ``tolerance`` the final
    bracket half-width, ``evaluations`` the number of sample sweeps, and
    ``degenerate`` flags the all-zero sample (norm exactly 0).
    """

    value: float
    tolerance: float
    evaluations: int
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Closed-form constants.  All are elementary functions of alpha; the
# abstract, theorem-specific constants live in BoundConstants below.

def scaling_constant(alpha: float) -> float:
    """c(alpha) = 3^(1/alpha) / sqrt(3), the psi_alpha rescaling constant."""
    _check_alpha(alpha)
    return 3.0 ** (1.0 / alpha) / math.sqrt(3.0)


def interpolation_constant(alpha: float) -> float:
    """M(alpha) = max{1, 2^((1-alpha)/alpha)}."""
    _check_alpha(alpha)
    return max(1.0, 2.0 ** ((1.0 - alpha) / alpha))


def norm_equivalence_constant(alpha: float) -> float:
    """K(alpha) = c(alpha) * M(alpha)."""
    return scaling_constant(alpha) * interpolation_constant(alpha)


def sharper_max_constant(alpha: float) -> float:
    """S(alpha) = 2^(1/alpha) * M(alpha) / 2; S(1) = 1."""
    return 2.0 ** (1.0 / alpha) * interpolation_constant(alpha) / 2.0


def quasi_norm_constant(alpha: float) -> float:
    """Triangle-inequality inflation: 2e(4/alpha)^(1/alpha) when alpha < 1, else 1.

    The two-regime norm is a true norm for alpha >= 1 and only a
    quasi-norm below, with this constant bounding ||X + Y|| against
    ||X|| + ||Y||.
    """
    _check_alpha(alpha)
    if alpha < 1.0:
        return 2.0 * math.e * (4.0 / alpha) ** (1.0 / alpha)
    return 1.0


def moment_lower_constant(alpha: float) -> float:
    """C_*(alpha) = min{1, alpha^(1/alpha)} / 2, lower moment-sandwich constant."""
    _check_alpha(alpha)
    return 0.5 * min(1.0, alpha ** (1.0 / alpha))


def moment_upper_constant(alpha: float) -> float:
    """C^*(alpha) = e * max{2, 4^(1/alpha)}, upper moment-sandwich constant."""
    _check_alpha(alpha)
    return math.e * max(2.0, 4.0 ** (1.0 / alpha))


def weighted_sum_constant(alpha: float) -> float:
    """C(alpha), the norm inflation of a weighted sum of independent terms.

    Two closed-form branches meet the inflation factor
    max{sqrt(2), 2^(1/alpha)}:

    * alpha < 1:  sqrt(8) e^3 (2 pi)^(1/4) e^(1/24) (e^(2/e) / alpha)^(1/alpha)
    * alpha >= 1: 4e + 2 (log 2)^(1/alpha)
    """
    _check_alpha(alpha)
    lead = max(math.sqrt(2.0), 2.0 ** (1.0 / alpha))
    if alpha < 1.0:
        body = (
            math.sqrt(8.0)
            * math.e ** 3
            * (2.0 * math.pi) ** 0.25
            * math.exp(1.0 / 24.0)
            * (math.exp(2.0 / math.e) / alpha) ** (1.0 / alpha)
        )
    else:
        body = 4.0 * math.e + 2.0 * math.log(2.0) ** (1.0 / alpha)
    return lead * body


@dataclass(frozen=True)
class BoundConstants:
    """Abstract constants left unpinned by the concentration theorems.

    Every field defaults to 1.0 so that reported bounds are reproducible
    without configuration; callers doing serious calibration should
    override them.  ``k_alpha_lt`` is the symmetrization constant of the
    contraction step and 1.0 is a placeholder, not a canonical value.
    """

    c_alpha_thm32: float = 1.0
    k_alpha_lt: float = 1.0
    c_alpha_thm33: float = 1.0
    c_alpha_thm34: float = 1.0
    k1_clt: float = 1.0
    k2_clt: float = 1.0
    c_beta_b_clt: float = 1.0
    c_gamma_lasso: float = 1.0

    def as_mapping(self) -> dict[str, float]:
        return {
            "c_alpha_thm32": self.c_alpha_thm32,
            "k_alpha_lt": self.k_alpha_lt,
            "c_alpha_thm33": self.c_alpha_thm33,
            "c_alpha_thm34": self.c_alpha_thm34,
            "k1_clt": self.k1_clt,
            "k2_clt": self.k2_clt,
            "c_beta_b_clt": self.c_beta_b_clt,
            "c_gamma_lasso": self.c_gamma_lasso,
        }


def _check_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")


# ---------------------------------------------------------------------------
# Shape functions.  Writing g(x) = exp(u) - 1 with u = shape^{-1}(x) keeps
# the function, its inverse, and all tail thresholds on one code path.

def _shape(spec: OrliczSpec, u: np.ndarray) -> np.ndarray:
    """h(u): the inverse of the Orlicz function in exponent space."""
    u = np.asarray(u, dtype=float)
    if spec.family is Family.PSI_ALPHA:
        return u ** (1.0 / spec.alpha)
    if spec.family is Family.GBO_PSI:
        return np.sqrt(u) + spec.scale_l * u ** (1.0 / spec.alpha)
    if spec.family is Family.GBO_PHI:
        return np.maximum(np.sqrt(u), spec.scale_l * u ** (1.0 / spec.alpha))
    total = np.zeros_like(u)
    for a, l in zip(spec.alphas, spec.scales):
        if l > 0:
            total = total + l * u ** (1.0 / a)
    return total


def _shape_inverse(spec: OrliczSpec, x: np.ndarray) -> np.ndarray:
    """Solve h(u) = x for u >= 0, elementwise."""
    x = np.asarray(x, dtype=float)
    if spec.family is Family.PSI_ALPHA:
        return x ** spec.alpha
    if spec.family is Family.GBO_PHI:
        return np.minimum(x ** 2, (x / spec.scale_l) ** spec.alpha)

    # Two-regime and multi-regime shapes have no closed-form inverse;
    # bisect on a bracket [0, hi] with h(hi) >= x guaranteed.
    if spec.family is Family.GBO_PSI:
        hi = x ** 2
    else:
        hi = np.full_like(x, np.inf)
        for a, l in zip(spec.alphas, spec.scales):
            if l > 0:
                hi = np.minimum(hi, (x / l) ** a)
    lo = np.zeros_like(x)
    for _ in range(_SHAPE_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        too_small = _shape(spec, mid) < x
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return 0.5 * (lo + hi)


def _g_values(spec: OrliczSpec, x: np.ndarray) -> np.ndarray:
    """g(|x|), vectorized; overflows to inf past the float64 range."""
    u = _shape_inverse(spec, np.abs(x))
    with np.errstate(over="ignore"):
        return np.where(u > _EXP_LIMIT, np.inf, np.expm1(np.minimum(u, _EXP_LIMIT)))


def eval_function(spec: OrliczSpec, x: float) -> float:
    """Evaluate the Orlicz function g at x >= 0.

    Returns inf when exp overflows float64 (exponent above ~709); raises
    ValueError for negative or non-finite x.
    """
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"x must be a finite nonnegative real, got {x!r}")
    return float(_g_values(spec, np.asarray([x]))[0])


def eval_inverse(spec: OrliczSpec, t: float) -> float:
    """Evaluate g^{-1} at t >= 0; g^{-1}(t) = h(log(1 + t))."""
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    if math.isinf(t):
        return math.inf
    return float(_shape(spec, np.asarray([math.log1p(t)]))[0])


# ---------------------------------------------------------------------------
# Empirical norms.

def _abs_sample(sample) -> np.ndarray:
    """|sample| as a flat float array, checked nonempty and finite."""
    x = np.abs(np.asarray(sample, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample must be finite")
    return x


def empirical_norm(sample, spec: OrliczSpec, tol: float = 1e-6) -> NormEstimate:
    """Orlicz norm of the empirical distribution of ``sample``.

    Computes inf{eta : mean_i g(|x_i|/eta) <= 1} by bisection.  The
    mean is decreasing in eta and the starting bracket

        [max|x| / g^{-1}(m),  max|x| / g^{-1}(1/m)]

    provably contains the norm (the left end forces the max term alone
    to mean 1; the right end caps every term at 1/m).

    Parameters
    ----------
    sample : array_like
        Finite real observations; signs are ignored.
    spec : OrliczSpec
        Function family to use.  Families without a closed form cost an
        inner inversion per sample sweep.
    tol : float
        Relative bisection tolerance on eta.

    Returns
    -------
    NormEstimate
        All-zero samples return value 0 with ``degenerate=True``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = _abs_sample(sample)
    m = x.size
    xmax = float(x.max())
    if xmax == 0.0:
        return NormEstimate(value=0.0, tolerance=0.0, evaluations=0, degenerate=True)

    lo = xmax / eval_inverse(spec, float(m))
    hi = xmax / eval_inverse(spec, 1.0 / m)
    evaluations = 0

    def mean_g(eta: float) -> float:
        nonlocal evaluations
        evaluations += 1
        vals = _g_values(spec, x / eta)
        return float(np.mean(vals))

    # The bracket is analytic, but guard against float rounding at the ends.
    for _ in range(64):
        if mean_g(hi) <= 1.0:
            break
        hi *= 2.0
    for _ in range(200):
        if (hi - lo) <= 2.0 * tol * max(lo, np.finfo(float).tiny):
            break
        mid = 0.5 * (lo + hi)
        if mean_g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return NormEstimate(
        value=0.5 * (lo + hi),
        tolerance=0.5 * (hi - lo),
        evaluations=evaluations,
        degenerate=False,
    )


def _grid_moment_norms(x: np.ndarray, r_grid: np.ndarray) -> np.ndarray:
    """log of (mean |x|^r)^(1/r) on a grid of r, computed in log space.

    Log-space accumulation keeps r up to several hundred from
    overflowing mean |x|^r.  Work is chunked so the m-by-grid matrix
    stays within a fixed memory budget.
    """
    m = x.size
    with np.errstate(divide="ignore"):
        log_abs = np.log(x)
    out = np.empty(r_grid.size)
    chunk = max(1, int(2e7) // m)
    for start in range(0, r_grid.size, chunk):
        rs = r_grid[start : start + chunk]
        block = logsumexp(rs[:, None] * log_abs[None, :], axis=1)
        out[start : start + rs.size] = (block - math.log(m)) / rs
    return out


def _moment_sup(sample, alpha, r_max, grid_step, ratio) -> float:
    """max over r = 1, 1 + grid_step, ..., <= r_max of ratio(r, log moment norm).

    ``ratio`` maps the r grid and the log moment norms of |sample| to
    the normalised values whose maximum is returned; an all-zero
    sample gives 0.0.
    """
    _check_alpha(alpha)
    if r_max < 1 or grid_step <= 0:
        raise ValueError("need r_max >= 1 and grid_step > 0")
    x = _abs_sample(sample)
    if float(x.max()) == 0.0:
        return 0.0
    r_grid = np.arange(1.0, r_max + 1e-12, grid_step)
    return float(np.max(ratio(r_grid, _grid_moment_norms(x, r_grid))))


def moment_growth_norm(
    sample,
    alpha: float,
    r_max: float = 200.0,
    grid_step: float = 0.5,
) -> float:
    """Moment-growth seminorm sup_r r^(-1/alpha) (mean |x|^r)^(1/r).

    The supremum is taken over the finite grid r = 1, 1 + grid_step,
    ..., <= r_max, so the result is a grid lower approximation of the
    true supremum over r >= 1.  It is equivalent to the psi_alpha norm
    up to absolute constants depending only on alpha.
    """
    def ratio(r, log_norms):
        return np.exp(log_norms - np.log(r) / alpha)

    return _moment_sup(sample, alpha, r_max, grid_step, ratio)


def gbo_moment_norm(
    sample,
    alpha: float,
    scale_l: float,
    r_max: float = 200.0,
    grid_step: float = 0.5,
) -> float:
    """Two-regime moment functional sup_r (mean |x|^r)^(1/r) / (sqrt(r) + L r^(1/alpha)).

    Grid lower approximation, like :func:`moment_growth_norm`; this is
    the moment-space twin of the two-regime norm and is bracketed by it
    via the moment sandwich constants.
    """
    if scale_l < 0:
        raise ValueError("scale_l must be nonnegative")
    def ratio(r, log_norms):
        return np.exp(log_norms) / (np.sqrt(r) + scale_l * r ** (1.0 / alpha))

    return _moment_sup(sample, alpha, r_max, grid_step, ratio)


# ---------------------------------------------------------------------------
# Tail thresholds.  All three follow the tail identity of the two-regime
# norm: a variable of norm delta exceeds delta * (sqrt(t) + L t^(1/alpha))
# with probability at most 2 exp(-t).

def _two_regime_shape(alpha: float, scale_l: float, u: float) -> float:
    _check_alpha(alpha)
    if scale_l < 0:
        raise ValueError("scale_l must be nonnegative")
    if u == 0.0:
        return 0.0
    return math.sqrt(u) + scale_l * u ** (1.0 / alpha)


def gbo_tail_threshold(
    delta: float, alpha: float, scale_l: float, t: float
) -> tuple[float, float]:
    """Deviation threshold at tail level t for a variable of known norm.

    Returns (delta * (sqrt(t) + L t^(1/alpha)), min(1, 2 exp(-t))): a
    variable with two-regime norm ``delta`` exceeds the threshold with
    probability at most the second component.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be a finite nonnegative real")
    return delta * _two_regime_shape(alpha, scale_l, t), min(1.0, 2.0 * math.exp(-t))


def maximal_threshold(
    delta: float, alpha: float, scale_l: float, n_count: float, t: float
) -> tuple[float, float]:
    """Uniform deviation threshold for a maximum of n_count variables.

    For variables with two-regime norms at most ``delta``, the union
    bound gives a threshold at exponent t + log(n_count), exceeded with
    probability at most 2 exp(-t).  ``n_count`` may be any real >= 1.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not n_count >= 1:
        raise ValueError("n_count must be at least 1")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    u = t + math.log(n_count)
    return delta * _two_regime_shape(alpha, scale_l, u), min(1.0, 2.0 * math.exp(-t))


def sharper_maximal_denominator(
    k: float, alpha: float, scale_l: float, norm_k: float
) -> float:
    """Scaling sequence sqrt(2) * norm_k * h_{alpha, S(alpha) L}(log(1 + k)).

    Dividing the running maximum of k variables of norm at most
    ``norm_k`` by this sequence yields a supremum with two-regime norm
    bounded by an absolute multiple of the quasi-norm constant.
    """
    if not k >= 1:
        raise ValueError("k must be at least 1")
    if norm_k < 0:
        raise ValueError("norm_k must be nonnegative")
    s_l = sharper_max_constant(alpha) * scale_l
    return math.sqrt(2.0) * norm_k * _two_regime_shape(alpha, s_l, math.log1p(k))
