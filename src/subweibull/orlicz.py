"""Orlicz norms for heavy-tailed random variables.

An Orlicz function g is nondecreasing with g(0) = 0, and the g-norm of a
random variable X is

    ||X||_g = inf{eta > 0 : E[g(|X|/eta)] <= 1}.

This module implements three families of Orlicz functions, all of the form
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
    and is evaluated by inverting h with a safeguarded Newton solve.

``gbo_phi``
    g(x) = exp(min{x^2, (x/L)^alpha}) - 1, the closed-form companion of
    ``gbo_psi``.  Function values sandwich the two-regime family:
    phi(x/2) <= psi(x) <= phi(x), hence the norms agree within a
    factor of 2.

All families satisfy the tail identity

    P(|X| >= ||X||_g * h(t)) <= 2 * exp(-t).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "OrliczSpec",
    "NormEstimate",
    "BoundConstants",
    "quasi_norm_constant",
    "moment_lower_constant",
    "moment_upper_constant",
    "eval_function",
    "eval_inverse",
    "empirical_norm",
    "gbo_moment_norm",
]

# Exponents above this overflow exp() in float64; function values past the
# limit are reported as inf rather than raising.
_EXP_LIMIT = 709.0

# _logsumexp_rows holds three arrays of its input's size at once: the
# product r log|x| (8 bytes a value), the tie mask (1) and the scratch
# copy (8).  _grid_moment_norms passes it blocks of r rows that keep the
# three within this many bytes (32 MB), and never less than one row.
_LSE_BLOCK_BYTES = 1 << 25
_LSE_BYTES_PER_VALUE = 17

# The Newton solve of the two-regime shape stops once every step is this
# many ulp of its iterate or less.
_NEWTON_ULP = 4.0
# Relative widening of the closed-form bracket of the two-regime root.
_BRACKET_SLACK = 2.0 ** -20
# log log 2, the level of log log1p(mean g) at the norm.
_LOG_LOG2 = math.log(math.log(2.0))
# Guard on the Newton loop.  The starting bracket is at most a factor 2
# wide and a step leaving it falls back to bisection, so the loop ends
# well before this in float64.
_NEWTON_MAX_STEPS = 200


class Family(enum.Enum):
    """Orlicz function families supported by :class:`OrliczSpec`."""

    PSI_ALPHA = "psi_alpha"
    GBO_PSI = "gbo_psi"
    GBO_PHI = "gbo_phi"


@dataclass(frozen=True)
class OrliczSpec:
    """A fully parameterized Orlicz function.

    Parameters
    ----------
    family : Family
        Which of the three families to evaluate.
    alpha : float
        Tail order; must be positive.
    scale_l : float
        Second-regime scale L, nonnegative.  Must be positive for
        ``gbo_phi`` (the closed form divides by L).  Ignored by
        ``psi_alpha``.
    """

    family: Family
    alpha: float = 1.0
    scale_l: float = 0.0

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class NormEstimate:
    """Result of an empirical Orlicz norm computation.

    ``value`` carries the midpoint of the final bracket, ``tolerance``
    its half-width, ``evaluations`` the number of sample sweeps, and
    ``degenerate`` flags the all-zero sample (norm exactly 0).
    """

    value: float
    tolerance: float
    evaluations: int
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Closed-form constants of the norm inequalities.  All are elementary
# functions of alpha; the abstract, theorem-specific constants live in
# BoundConstants below.

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


@dataclass(frozen=True)
class BoundConstants:
    """Abstract constants left unpinned by the concentration theorems.

    Every field defaults to 1.0 so that reported bounds are reproducible
    without configuration; callers doing serious calibration should
    override them.
    """

    c_alpha_thm34: float = 1.0
    k1_clt: float = 1.0
    k2_clt: float = 1.0
    c_beta_b_clt: float = 1.0
    c_gamma_lasso: float = 1.0

    def as_mapping(self) -> dict[str, float]:
        return dataclasses.asdict(self)


def _check_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")


# ---------------------------------------------------------------------------
# Shape functions.  Writing g(x) = exp(u) - 1 with u = shape^{-1}(x) keeps
# the function and its inverse on one code path.

def _shape(spec: OrliczSpec, u: np.ndarray) -> np.ndarray:
    """h(u): the inverse of the Orlicz function in exponent space."""
    u = np.asarray(u, dtype=float)
    if spec.family is Family.PSI_ALPHA:
        return u ** (1.0 / spec.alpha)
    if spec.family is Family.GBO_PSI:
        if spec.scale_l == 0.0:
            return np.sqrt(u)
        return np.sqrt(u) + spec.scale_l * u ** (1.0 / spec.alpha)
    return np.maximum(np.sqrt(u), spec.scale_l * u ** (1.0 / spec.alpha))


def _shape_inverse(spec: OrliczSpec, x: np.ndarray) -> np.ndarray:
    """Solve h(u) = x for u >= 0, elementwise."""
    x = np.asarray(x, dtype=float)
    if spec.family is Family.PSI_ALPHA:
        return x ** spec.alpha
    if spec.family is Family.GBO_PHI:
        return np.minimum(x ** 2, (x / spec.scale_l) ** spec.alpha)
    return _two_regime_root(x, spec.alpha, spec.scale_l) ** 2


def _two_regime_root(x: np.ndarray, alpha: float, scale_l: float) -> np.ndarray:
    """v >= 0 with v + L v^(2/alpha) = x, elementwise (v = sqrt(u)).

    Safeguarded Newton.  The root lies in the bracket

        [min(x/2, (x/2L)^(alpha/2)),  min(x, (x/L)^(alpha/2))]

    (one of the two terms is at least x/2, and neither exceeds x).  The
    left side f(v) = v + L v^p - x, p = 2/alpha, is convex for alpha <= 2
    and concave above, so Newton started at the right end (convex) or
    the left end (concave) approaches the root from one side.  A step
    that leaves the bracket, which only rounding can cause, is replaced
    by a bisection step.  Iteration stops when every step is within
    _NEWTON_ULP ulp of its iterate.
    """
    if scale_l == 0.0:
        return x.copy()
    p = 2.0 / alpha
    half = 0.5 * alpha
    # Zero roots (x = 0) need no steps; a start or bisection step at v = 0
    # gives an undefined slope, and the Newton step then falls back.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # The powers are rounded to within about 1e-13 relative, so the
        # closed-form ends are widened by _BRACKET_SLACK to stay bounds.
        lo = np.minimum(0.5 * x, (0.5 * x / scale_l) ** half) * (1.0 - _BRACKET_SLACK)
        hi = np.minimum(x, (x / scale_l) ** half * (1.0 + _BRACKET_SLACK))
        v = (hi if alpha <= 2.0 else lo).copy()
        active = np.flatnonzero(x)
        for _ in range(_NEWTON_MAX_STEPS):
            if active.size == 0:
                break
            va, lo_a, hi_a = v[active], lo[active], hi[active]
            power = va ** p
            f = va + scale_l * power - x[active]
            slope = 1.0 + scale_l * p * power / va
            lo_a = np.where(f < 0.0, va, lo_a)
            hi_a = np.where(f > 0.0, va, hi_a)
            step = va - f / slope
            outside = ~((step >= lo_a) & (step <= hi_a))
            step[outside] = 0.5 * (lo_a[outside] + hi_a[outside])
            done = np.abs(step - va) <= _NEWTON_ULP * np.spacing(va)
            v[active] = step
            lo[active], hi[active] = lo_a, hi_a
            active = active[~done]
    return v


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


def _mean_g(spec: OrliczSpec, x: np.ndarray, xmax: float):
    """eta -> (mean_i g(x_i / eta), its derivative in log eta).

    For a nonnegative sample with max xmax > 0.  Works in exponent space:
    g(x/eta) = expm1(u) with u = h^{-1}(x/eta), and for the closed-form
    families u is a fixed power of x times a power of 1/eta.  The powers
    of x are taken once, on x / xmax so they neither overflow nor
    underflow, and each call makes one pass over two reused buffers: u,
    then g.  The derivative is -mean(e^u w) with w = -du/d(log eta),
    which the same buffers give as the dot of g with w plus the sum of w.
    Exponents past the float64 range give inf.
    """
    r = x / xmax
    m = r.size
    buf = np.empty_like(r)
    g = np.empty_like(r)
    alpha = spec.alpha

    def moments(w: np.ndarray):
        # mean of g = expm1(u), and -mean((g + 1) w)
        return float(g.mean()), -float(np.dot(g, w) + w.sum()) / m

    if spec.family is Family.PSI_ALPHA:
        y = r ** alpha

        def mean_g(eta: float):
            np.multiply(y, (xmax / eta) ** alpha, out=buf)
            np.expm1(buf, out=g)
            np.multiply(buf, alpha, out=buf)
            return moments(buf)

    elif spec.family is Family.GBO_PHI:
        squares = r * r
        y = r ** alpha
        tail = np.empty(m, dtype=bool)

        def mean_g(eta: float):
            s = xmax / eta
            np.multiply(squares, s * s, out=buf)
            np.multiply(y, (s / spec.scale_l) ** alpha, out=g)
            np.less_equal(g, buf, out=tail)
            np.minimum(buf, g, out=buf)
            np.expm1(buf, out=g)
            # -du/d(log eta) is 2u on the square branch, alpha u on the tail
            np.multiply(buf, 2.0, out=buf)
            np.multiply(buf, 0.5 * alpha, out=buf, where=tail)
            return moments(buf)

    else:
        p = 2.0 / alpha

        def mean_g(eta: float):
            np.divide(x, eta, out=buf)
            v = _two_regime_root(buf, alpha, spec.scale_l)
            np.square(v, out=g)
            np.expm1(g, out=g)
            # v + L v^p = x/eta, whose log-eta derivative is -x/eta, so
            # -du/d(log eta) = 2 v (x/eta) / (1 + L p v^(p-1)) for u = v^2,
            # which is 0 at v = 0
            np.multiply(buf, v, out=buf)
            if spec.scale_l > 0.0:
                with np.errstate(divide="ignore"):
                    np.power(v, p - 1.0, out=v)
                v *= spec.scale_l * p
                v += 1.0
                np.divide(buf, v, out=buf)
            np.multiply(buf, 2.0, out=buf)
            return moments(buf)

    return mean_g


def _log_newton_step(mean: float, slope: float) -> float:
    """Newton step in log eta on log log1p(mean) = log log 2, or nan.

    log1p(mean) is exactly (x/eta)^alpha for a sample of one repeated
    value under psi_alpha, so the function is close to linear in
    log eta and Newton converges in a few steps.  ``slope`` is the
    derivative of ``mean`` in log eta.
    """
    level = math.log1p(mean)
    if not (0.0 < level < math.inf and slope < 0.0):
        return math.nan
    return -(math.log(level) - _LOG_LOG2) * (1.0 + mean) * level / slope


def empirical_norm(sample, spec: OrliczSpec, tol: float = 1e-6) -> NormEstimate:
    """Orlicz norm of the empirical distribution of ``sample``.

    Computes inf{eta : mean_i g(|x_i|/eta) <= 1}.  The mean is
    decreasing in eta and the starting bracket

        [max|x| / g^{-1}(m),  max|x| / g^{-1}(1/m)]

    provably contains the norm (the left end forces the max term alone
    to mean 1; the right end caps every term at 1/m).

    The root is found by safeguarded Newton in t = log eta on
    log log1p(mean) = log log 2, started at the right end of the
    bracket.  Every evaluated point moves one end of the bracket; a
    Newton point outside the bracket is replaced by the bracket's
    geometric midpoint, and a Newton step shorter than a quarter of the
    target width log1p(2 tol) is lengthened by that quarter, so the next
    point lands past the root and closes the bracket.

    Each step is one sweep in exponent space that returns the mean and
    its slope in log eta from the same buffers.  For psi_alpha and
    gbo_phi the powers |x|^alpha (and |x|^2) are computed once, so a
    sweep is a scaling, an expm1, a sum and a dot product.  The
    two-regime family has no closed form: each sweep solves
    h(u) = |x_i|/eta by a safeguarded Newton iteration.

    Parameters
    ----------
    sample : array_like
        Finite real observations; signs are ignored.
    spec : OrliczSpec
        Function family to use.
    tol : float
        Relative tolerance on eta: the search stops once the bracket
        satisfies hi - lo <= 2 tol lo.

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
    sweep = _mean_g(spec, x, xmax)
    evaluations = 0

    def mean_g(eta: float):
        nonlocal evaluations
        evaluations += 1
        return sweep(eta)

    nudge = 0.25 * math.log1p(2.0 * tol)
    with np.errstate(over="ignore"):
        # The bracket is analytic, but guard against float rounding at the ends.
        for _ in range(64):
            mean, slope = mean_g(hi)
            if mean <= 1.0:
                break
            hi *= 2.0
        eta = hi
        for _ in range(200):
            if (hi - lo) <= 2.0 * tol * max(lo, np.finfo(float).tiny):
                break
            # the root lies right of lo and left of hi
            toward = 1.0 if eta == lo else -1.0
            step = _log_newton_step(mean, slope)
            if abs(step) < nudge:
                step += toward * nudge
            if abs(step) < math.log(hi / lo):
                eta *= math.exp(step)
            if not lo < eta < hi:
                eta = lo * math.sqrt(hi / lo)
            mean, slope = mean_g(eta)
            if mean > 1.0:
                lo = eta
            else:
                hi = eta
    return NormEstimate(
        value=0.5 * (lo + hi),
        tolerance=0.5 * (hi - lo),
        evaluations=evaluations,
        degenerate=False,
    )


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """log(sum_j exp(z_ij)) for each row i of a 2-d float array.

    The formula of ``scipy.special.logsumexp(z, axis=1)`` for real
    input, operation for operation, so results agree bit for bit: the
    m entries tied at the row max M leave the sum, s sums exp(z - M)
    over the rest, and the result is log1p(s/m) + log(m) + M.  Entries
    may be -inf, but every row max must be finite.
    """
    zmax = z.max(axis=1, keepdims=True)
    tied = z == zmax
    m = tied.sum(axis=1, dtype=float)
    # One scratch block of z's size, shifted and exponentiated in place.
    rest = np.where(tied, -np.inf, z)
    rest -= zmax
    s = np.exp(rest, out=rest).sum(axis=1)
    return np.log1p(s / m) + np.log(m) + zmax[:, 0]


def _grid_moment_norms(x: np.ndarray, r_grid: np.ndarray) -> np.ndarray:
    """log of (mean |x|^r)^(1/r) on a grid of r, computed in log space.

    Log-space accumulation (``_logsumexp_rows`` over r log|x|, with
    log 0 = -inf) keeps r up to several hundred from overflowing
    mean |x|^r.  Work is chunked so the m-by-grid matrix stays within
    a fixed memory budget; each row is reduced on its own, so the block
    size does not change the bits.
    """
    m = x.size
    with np.errstate(divide="ignore"):
        log_abs = np.log(x)
    out = np.empty(r_grid.size)
    chunk = max(1, _LSE_BLOCK_BYTES // (_LSE_BYTES_PER_VALUE * m))
    for start in range(0, r_grid.size, chunk):
        rs = r_grid[start : start + chunk]
        block = _logsumexp_rows(rs[:, None] * log_abs[None, :])
        out[start : start + rs.size] = (block - math.log(m)) / rs
    return out


def gbo_moment_norm(
    sample,
    alpha: float,
    scale_l: float,
    r_max: float = 200.0,
    grid_step: float = 0.5,
) -> float:
    """Two-regime moment functional sup_r (mean |x|^r)^(1/r) / (sqrt(r) + L r^(1/alpha)).

    The supremum is taken over the finite grid r = 1, 1 + grid_step,
    ..., <= r_max, so the result is a grid lower approximation of the
    true supremum over r >= 1; an all-zero sample gives 0.0.  This is
    the moment-space twin of the two-regime norm and is bracketed by it
    via the moment sandwich constants.
    """
    if scale_l < 0:
        raise ValueError("scale_l must be nonnegative")
    _check_alpha(alpha)
    if r_max < 1 or grid_step <= 0:
        raise ValueError("need r_max >= 1 and grid_step > 0")
    x = _abs_sample(sample)
    if float(x.max()) == 0.0:
        return 0.0
    r_grid = np.arange(1.0, r_max + 1e-12, grid_step)
    ratio = np.exp(_grid_moment_norms(x, r_grid)) / (
        np.sqrt(r_grid) + scale_l * r_grid ** (1.0 / alpha)
    )
    return float(np.max(ratio))
