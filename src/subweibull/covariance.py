"""Covariance estimation errors, sparse spectral bounds, and RE checks.

Estimation error is measured in the elementwise maximum norm over the
upper triangle (the matrices are symmetric).  The deviation threshold
for that error has the usual two-regime form: a sqrt((t + 2 log p)/n)
Gaussian term plus a polynomial-in-t correction whose weight carries the
sample's tail order alpha.

Sparse spectral error RIP_n(k), the maximum over k-sparse unit vectors
theta of |theta' D theta|, is computed two ways on the same k x k blocks
D[S, S] of every size-k support S (combinatorial, capped): exactly, by
their eigenvalues, and on a deterministic 1/4-net of the unit sphere in
R^k, which certifies RIP_n(k) <= 2 * net maximum.

Restricted eigenvalue verification follows the xi route: a computable
deviation level xi yields the lower bound

    theta' Sigma_hat theta >= (lambda_min - 27 xi) ||theta||_2^2
                              - (54 xi / k) ||theta||_1^2,

and when lambda_min(Sigma) >= 1782 xi the restricted eigenvalue
condition holds with gamma_n = lambda_min / 2.  A randomized cone
search is included to falsify (never certify) those verdicts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .orlicz import BoundConstants
from .samplers import DataMatrix, RngStream

__all__ = [
    "QuarterNet",
    "ReReport",
    "RsConvexityParams",
    "gram",
    "centered_cov",
    "max_elementwise_error",
    "delta_bound",
    "rip_exact",
    "quarter_net",
    "rip_net",
    "upsilon_iid",
    "xi_bound",
    "re_check",
    "cone_min_oracle",
]

# Both RIP routes enumerate binomial(p, k) supports; past this cap
# neither is offered.
_SUPPORT_CAP = 200_000

# Batched eigenvalue chunk for rip_exact submatrices.
_EIG_CHUNK = 20_000

# rip_net evaluates chunks of supports whose (supports, mesh, k)
# intermediate, and cone_min_oracle draws blocks of trials whose (t, p)
# directions, hold about this many floats (8 MB).
_BLOCK_VALUES = 1 << 20

# Mesh schedule for the per-sphere 1/4-nets: points on the circle, then
# band half-widths for each recursion level.  Radii compose as
# E_k = sqrt(a_k^2 + (a_k + E_{k-1})^2); with E_2 = 2 sin(pi/50) = 0.1256
# the schedule gives E_3 = 0.2142 and E_4 = 0.2483, both under 1/4.
_CIRCLE_POINTS = 25
_BAND_HALF_WIDTH = {3: 0.075, 4: 0.032}
_NET_MAX_K = 4


def _require_symmetric(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square")
    if matrix.size == 0:
        raise ValueError(f"{name} must be nonempty")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if float(np.max(np.abs(matrix - matrix.T))) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")
    return matrix


@dataclass(frozen=True, eq=False)
class QuarterNet:
    """1/4-net of the k-sparse unit sphere in R^p, kept as a product.

    ``supports`` is the (s, k) array of every size-k support of range(p)
    and ``vectors`` the (m, k) unit mesh of the sphere in R^k.  Net point
    (S, u) is the p-vector equal to u on S and zero elsewhere; it is
    never materialised.
    """

    supports: np.ndarray
    vectors: np.ndarray
    k: int

    def __len__(self) -> int:
        return self.supports.shape[0] * self.vectors.shape[0]


@dataclass(frozen=True)
class ReReport:
    """Outcome of the restricted eigenvalue check at deviation level xi."""

    lambda_min: float
    xi: float
    satisfied: bool
    gamma_n: float
    k: int


@dataclass(frozen=True)
class RsConvexityParams:
    """Inputs of the restricted strong convexity deviation level.

    ``upsilon`` is the sparse projection variance proxy, ``k_np`` the
    max marginal two-regime norm, and ``c_alpha`` the configured
    constant multiplying the polynomial term.
    """

    upsilon: float
    k_np: float
    n: int
    p: int
    k: int
    alpha: float
    c_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.upsilon < 0.0 or self.k_np < 0.0:
            raise ValueError("upsilon and k_np must be nonnegative")
        if self.n < 1 or self.p < 1 or self.k < 1:
            raise ValueError("n, p, k must be positive")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if not self.c_alpha > 0.0:
            raise ValueError("c_alpha must be positive")


# ---------------------------------------------------------------------------
# moment matrices and elementwise error


# Each kernel works over the last two axes, so the same call serves one
# matrix and a stack of them; numpy's matmul runs its per-matrix loop over
# the stack, so each slice comes out bit for bit as it would alone.


def gram(x: DataMatrix) -> np.ndarray:
    """Uncentered second moment (1/n) sum x_i x_i', exactly symmetrized."""
    values = x.values
    out = np.swapaxes(values, -1, -2) @ values / x.n
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def centered_cov(x: DataMatrix) -> np.ndarray:
    """Covariance (1/n) sum (x_i - xbar)(x_i - xbar)' with divisor n."""
    if x.n < 2:
        raise ValueError("centered covariance needs at least 2 rows")
    centered = x.values - x.values.mean(axis=-2, keepdims=True)
    out = np.swapaxes(centered, -1, -2) @ centered / x.n
    return (out + np.swapaxes(out, -1, -2)) / 2.0


@functools.lru_cache(maxsize=64)
def _upper_triangle(p: int) -> np.ndarray:
    """Read-only flat positions of ``np.triu_indices(p)``, built once per p."""
    flat = np.ravel_multi_index(np.triu_indices(p), (p, p))
    flat.flags.writeable = False
    return flat


def max_elementwise_error(a: np.ndarray, b: np.ndarray):
    """max_{j <= k} |a_jk - b_jk| over the upper triangle with diagonal.

    A float for two matrices; for a stack ``a`` (``b`` a matrix or a stack
    of the same shape) the array of each slice's value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("inputs must be square")
    if b.shape != a.shape and b.shape != a.shape[-2:]:
        raise ValueError("inputs must have equal shapes")
    p = a.shape[-1]
    diff = np.abs(a - b).reshape(a.shape[:-2] + (p * p,))
    out = diff.take(_upper_triangle(p), axis=-1).max(axis=-1)
    return float(out) if a.ndim == 2 else out


def delta_bound(a_np, k_np, n, p, alpha, t, constants=None, centered=False):
    """Deviation threshold for the elementwise covariance error.

    Returns (threshold, probability_bound) where the error exceeds the
    threshold with probability at most the bound: 3 e^-t for the gram
    estimator, 6 e^-t for the centered one.  Tail orders above 2 are
    outside the supported range.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2] for the covariance bound")
    if a_np < 0.0 or k_np < 0.0:
        raise ValueError("a_np and k_np must be nonnegative")
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    constants = constants or BoundConstants()
    u = t + 2.0 * math.log(p)
    threshold = 7.0 * a_np * math.sqrt(u / n)
    if u > 0.0:
        threshold += (
            constants.c_alpha_thm34
            * k_np**2
            * math.log(2.0 * n) ** (2.0 / alpha)
            * u ** (2.0 / alpha)
            / n
        )
    prob = (6.0 if centered else 3.0) * math.exp(-t)
    return threshold, min(1.0, prob)


# ---------------------------------------------------------------------------
# sparse spectral error


def _supports(p: int, k: int) -> np.ndarray:
    """Every size-k support of range(p), as sorted rows of an (s, k) array."""
    if not 1 <= k <= p:
        raise ValueError("k must lie in [1, p]")
    total = math.comb(p, k)
    if total > _SUPPORT_CAP:
        raise ValueError(
            f"binomial(p, k) = {total} exceeds the enumeration cap {_SUPPORT_CAP}"
        )
    flat = itertools.chain.from_iterable(itertools.combinations(range(p), k))
    return np.fromiter(flat, dtype=np.intp, count=total * k).reshape(total, k)


def _support_blocks(d: np.ndarray, supports: np.ndarray, chunk: int):
    """Yield the principal submatrices d[S, S], chunk supports at a time."""
    for start in range(0, supports.shape[0], chunk):
        idx = supports[start : start + chunk]
        yield d[idx[:, :, None], idx[:, None, :]]


def rip_exact(d: np.ndarray, k: int) -> float:
    """Exact k-sparse spectral error RIP_n(k) by support enumeration.

    The sup over ||theta||_0 <= k is attained on a support of size
    exactly k (spectral norms of nested principal submatrices are
    monotone), so only size-k supports are enumerated.
    """
    d = _require_symmetric(d)
    supports = _supports(d.shape[0], k)
    best = 0.0
    for blocks in _support_blocks(d, supports, _EIG_CHUNK):
        best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(blocks)))))
    return best


def _sphere_net(k: int) -> np.ndarray:
    """Deterministic 1/4-net of the unit sphere in R^k (k <= 4).

    k = 1 is {+1, -1}; k = 2 a uniform circle mesh; higher k are built
    recursively as (sin(phi) u, cos(phi)) over latitude bands, with the
    schedule at the top of the module keeping the covering radius under
    1/4 at every level.
    """
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        angles = 2.0 * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if k > _NET_MAX_K:
        raise ValueError(
            f"mesh construction supports k <= {_NET_MAX_K}; "
            "cardinality explodes combinatorially beyond that"
        )
    inner = _sphere_net(k - 1)
    half_width = _BAND_HALF_WIDTH[k]
    count = math.ceil(math.pi / (2.0 * half_width))
    centers = half_width * (2.0 * np.arange(count) + 1.0)
    sin_c = np.sin(centers)[:, None, None]
    cos_c = np.cos(centers)[:, None, None]
    tiled = np.broadcast_to(inner, (count,) + inner.shape)
    upper = sin_c * tiled
    lower = np.broadcast_to(cos_c, (count, inner.shape[0], 1))
    return np.concatenate([upper, lower], axis=2).reshape(-1, k)


def quarter_net(k: int, p: int) -> QuarterNet:
    """1/4-net of the k-sparse unit sphere in R^p.

    Covers every size-k support (under the same enumeration cap as
    rip_exact) with the deterministic sphere mesh, so its cardinality is
    (supports) x (mesh size) while its memory is (supports + mesh) x k.
    """
    return QuarterNet(_supports(p, k), _sphere_net(k), k)


def rip_net(d: np.ndarray, k: int, net: QuarterNet) -> float:
    """Net maximum of |theta' D theta|, evaluated on the blocks D[S, S];
    the true RIP_n(k) is at most twice the returned value."""
    d = _require_symmetric(d)
    p = d.shape[0]
    supports, mesh = net.supports, net.vectors
    if net.k != k or supports.shape[1] != k or mesh.shape[1] != k:
        raise ValueError("net was built for a different k")
    if (supports.shape[0] != math.comb(p, k) or int(supports.min()) < 0
            or int(supports.max()) >= p):
        raise ValueError("net supports do not cover the matrix dimension")
    if float(np.max(np.abs(np.linalg.norm(mesh, axis=1) - 1.0))) > 1e-9:
        raise ValueError("net vectors must be unit")
    value = 0.0
    chunk = max(1, _BLOCK_VALUES // mesh.size)
    for blocks in _support_blocks(d, supports, chunk):
        quad = np.einsum("mi,cij,mj->cm", mesh, blocks, mesh, optimize=True)
        value = max(value, float(np.max(np.abs(quad))))
    return value


def upsilon_iid(m2: float, m4: float, k: int) -> float:
    """Exact max of Var((theta' X)^2) over k-sparse unit theta when the
    coordinates are iid mean-zero with the given second/fourth moments.

    Var = (m4 - 3 m2^2) sum theta_j^4 + 2 m2^2; the quartic sum ranges
    over [1/k, 1] on the k-sparse unit sphere, so the max sits at a
    coordinate vector when m4 >= 3 m2^2 and at the balanced vector
    otherwise.
    """
    if k < 1:
        raise ValueError("k must be positive")
    excess = m4 - 3.0 * m2**2
    quartic = 1.0 if excess >= 0.0 else 1.0 / k
    return excess * quartic + 2.0 * m2**2


# ---------------------------------------------------------------------------
# restricted eigenvalue verification


def xi_bound(params: RsConvexityParams) -> float:
    """Deviation level xi of the restricted strong convexity bound.

    This is the marginal form, whose polynomial term carries an extra
    factor k.
    """
    n, p, k = params.n, params.p, params.k
    ratio = 36.0 * n * p / k
    if ratio <= 1.0:
        raise ValueError("36 n p / k must exceed 1")
    if k > p:
        raise ValueError("k must not exceed p")
    log_ratio = math.log(ratio)
    first = 14.0 * math.sqrt(2.0) * math.sqrt(params.upsilon * k * log_ratio / n)
    second = (
        params.c_alpha
        * params.k_np**2
        * k
        * math.log(2.0 * n) ** (2.0 / params.alpha)
        * (k * log_ratio) ** (2.0 / params.alpha)
        / n
    )
    return first + second


def re_check(lambda_min: float, xi: float, k: int) -> ReReport:
    """Restricted eigenvalue verdict for a gram matrix whose smallest
    eigenvalue is lambda_min: satisfied iff lambda_min >= 1782 xi, in
    which case the restricted eigenvalue is at least lambda_min / 2."""
    if xi < 0.0:
        raise ValueError("xi must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    lambda_min = float(lambda_min)
    satisfied = lambda_min >= 1782.0 * xi
    gamma_n = lambda_min / 2.0 if satisfied else 0.0
    return ReReport(lambda_min, float(xi), satisfied, gamma_n, int(k))


def _cone_directions(gen, p, support, off, delta, t):
    """(t, p) block of directions in the cone ||theta(S^c)||_1 <= delta
    ||theta(S)||_1: unit normals on S, and off S a signed Dirichlet
    split of delta ||theta(S)||_1 scaled by a uniform."""
    head = gen.standard_normal((t, support.size))
    head /= np.linalg.norm(head, axis=1, keepdims=True)
    theta = np.zeros((t, p))
    theta[:, support] = head
    if off.size:
        mass = delta * np.sum(np.abs(head), axis=1) * gen.random(t)
        weights = gen.dirichlet(np.ones(off.size), size=t)
        signs = gen.integers(0, 2, size=(t, off.size)) * 2.0 - 1.0
        theta[:, off] = mass[:, None] * weights * signs
    return theta


def cone_min_oracle(sigma_hat, s, delta, trials, rng: RngStream) -> float:
    """Randomized upper bound on the cone-restricted Rayleigh minimum.

    Draws directions in the cone ||theta(S^c)||_1 <= delta ||theta(S)||_1
    (sphere on the support, signed Dirichlet mass off it, scaled by a
    uniform) in blocks of about 2^20 floats and returns the smallest
    theta' Sigma theta / theta' theta.  Used to falsify restricted
    eigenvalue verdicts, never to certify.  A quotient that overflows
    (theta' theta <= 1 + |S| delta^2) raises OverflowError rather than
    returning a bound that can never falsify.
    """
    sigma_hat = _require_symmetric(sigma_hat, "sigma_hat")
    p = sigma_hat.shape[0]
    support = np.asarray(sorted(set(int(i) for i in s)))
    if support.size == 0:
        raise ValueError("S must be nonempty")
    if support[0] < 0 or support[-1] >= p:
        raise ValueError("S indices out of range")
    if delta < 1.0:
        raise ValueError("delta must be at least 1")
    if trials < 1:
        raise ValueError("trials must be positive")
    off = np.setdiff1d(np.arange(p), support)
    gen = rng.generator()
    block = max(1, _BLOCK_VALUES // p)
    trials = int(trials)
    best = math.inf
    for start in range(0, trials, block):
        theta = _cone_directions(gen, p, support, off, delta,
                                 min(block, trials - start))
        with np.errstate(over="ignore", invalid="ignore"):
            quad = np.einsum("ij,ij->i", theta @ sigma_hat, theta)
            ratios = quad / np.einsum("ij,ij->i", theta, theta)
        if not np.isfinite(ratios).all():
            raise OverflowError(
                f"cone quotient overflowed at delta={delta:g}; "
                "lower delta or rescale sigma_hat"
            )
        best = min(best, float(np.min(ratios)))
    return best
