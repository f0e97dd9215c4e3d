"""Seed-reproducible generators for heavy-tailed simulation inputs.

Scalar laws cover the stretched-exponential family (``SymmetricWeibull``,
which satisfies P(|Z| >= t) = exp(-t^alpha) exactly), the classical
sub-Gaussian / sub-exponential cases, and polynomial-tail laws
(``Pareto`` symmetrised to median zero, ``StudentT``) for experiments
where no exponential Orlicz norm is finite.

Vector laws separate the two notions of multivariate tail control:

``IidCoordinates``
    independent copies of one marginal per coordinate.

``GaussianCopula``
    exact marginals glued by an equicorrelated Gaussian copula, so the
    coordinates are marginally light-tailed but dependent.

``IdenticalCoordinates``
    one draw repeated across all p coordinates; along the unit vector
    theta = p^{-1/2} * (1, ..., 1) the projection norm is sqrt(p) times
    the marginal norm, the worst case allowed by marginal control.

``LinearMap``
    X = F z with iid innovations z, the constructive joint family; its
    projection norms are estimated empirically rather than asserted.

Randomness is splittable: an ``RngStream`` is a (seed, stream_id) pair
and every draw operation builds a fresh counter-based generator from it,
so the same stream always reproduces the same values bit for bit and
replications can run on any worker layout without sequence coupling.
Callers wanting fresh draws use fresh stream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import t as _student_t

__all__ = [
    "RngStream",
    "ScalarLaw",
    "SymmetricWeibull",
    "Gaussian",
    "Exponential",
    "Pareto",
    "StudentT",
    "Constant",
    "VectorLaw",
    "IidCoordinates",
    "GaussianCopula",
    "IdenticalCoordinates",
    "LinearMap",
    "DataMatrix",
    "RegressionData",
    "draw_scalar",
    "draw_matrix",
    "make_regression",
    "population_beta0",
]

_UINT64_BOUND = 2**64

# Row block for the brute-force population regressions; keeps peak memory
# around block * p floats regardless of oracle_n.
_ORACLE_BLOCK = 2_000_000


@dataclass(frozen=True)
class RngStream:
    """Named slot in a splittable family of random streams.

    ``generator()`` returns a *fresh* counter-based generator keyed by
    (seed, stream_id), so every operation that consumes this stream sees
    the same sequence.  Draw operations are therefore pure: calling
    ``draw_matrix`` twice with one stream yields the same matrix, and
    distinct stream ids yield independent sequences.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
            if not 0 <= int(value) < _UINT64_BOUND:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        key = np.random.SeedSequence(entropy=[int(self.seed), int(self.stream_id)])
        return np.random.Generator(np.random.Philox(key))


# ---------------------------------------------------------------------------
# scalar laws


@dataclass(frozen=True)
class ScalarLaw:
    """Base interface: sampling, quantiles, and analytic moment metadata.

    Moments that do not exist are reported as nan (undefined) or inf
    (divergent); ``psi_norm``/``tail_exponent`` are None when the law has
    no known exponential Orlicz norm.
    """

    def sample(self, gen: np.random.Generator, size):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        raise NotImplementedError

    @property
    def second_moment(self) -> float:
        return self.variance + self.mean**2

    @property
    def fourth_moment(self) -> float:
        raise NotImplementedError

    @property
    def tail_exponent(self):
        """Order alpha of the stretched-exponential tail, if any."""
        return None

    @property
    def psi_norm(self):
        """Exact psi_alpha norm at ``tail_exponent``, if known."""
        return None


@dataclass(frozen=True)
class SymmetricWeibull(ScalarLaw):
    """Symmetric law with survival P(|Z| >= t) = exp(-t^alpha) exactly.

    Generated by the pinned inverse transform |Z| = (-log U)^(1/alpha)
    with an independent random sign, U uniform on (0, 1).  |Z|^alpha is
    then a standard exponential, which gives every absolute moment in
    closed form, E |Z|^m = Gamma(1 + m/alpha), and the exact norm
    ||Z||_{psi_alpha} = 2^(1/alpha).
    """

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def from_uniform(self, u, sign=1.0):
        """Deterministic core of the generator, exposed for forced draws."""
        magnitude = -np.log(u)
        if self.alpha != 1.0:
            # pow(x, 1.0) is bit-exact x, so the alpha = 1 shortcut only
            # skips a pass over the array.
            magnitude = np.power(magnitude, 1.0 / self.alpha)
        return sign * magnitude

    def sample(self, gen: np.random.Generator, size):
        # 1 - random() lies in (0, 1]; draw order (magnitude, then sign)
        # is part of the reproducibility contract.
        u = 1.0 - gen.random(size)
        sign = gen.integers(0, 2, size=size) * 2.0 - 1.0
        return self.from_uniform(u, sign)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        core = np.abs(2.0 * u - 1.0)
        magnitude = np.power(-np.log1p(-core), 1.0 / self.alpha)
        return np.where(u >= 0.5, magnitude, -magnitude)

    def abs_moment(self, order: float) -> float:
        return math.gamma(1.0 + order / self.alpha)

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def variance(self) -> float:
        return self.abs_moment(2.0)

    @property
    def fourth_moment(self) -> float:
        return self.abs_moment(4.0)

    @property
    def tail_exponent(self):
        return self.alpha

    @property
    def psi_norm(self):
        # E exp(|Z|^alpha / eta^alpha) = 1 / (1 - eta^-alpha) = 2 at
        # eta^alpha = 2.
        return 2.0 ** (1.0 / self.alpha)


@dataclass(frozen=True)
class Gaussian(ScalarLaw):
    """Centred normal with standard deviation sigma."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    def sample(self, gen: np.random.Generator, size):
        return self.sigma * gen.standard_normal(size)

    def ppf(self, u):
        return self.sigma * ndtri(np.asarray(u, dtype=float))

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def variance(self) -> float:
        return self.sigma**2

    @property
    def fourth_moment(self) -> float:
        return 3.0 * self.sigma**4

    @property
    def tail_exponent(self):
        return 2.0

    @property
    def psi_norm(self):
        # E exp(Z^2/eta^2) = (1 - 2 sigma^2/eta^2)^(-1/2) = 2 at
        # eta = sigma * sqrt(8/3).
        return self.sigma * math.sqrt(8.0 / 3.0)


@dataclass(frozen=True)
class Exponential(ScalarLaw):
    """Standard exponential clock with the given rate (mean 1/rate).

    Not mean-zero; useful for norm checks, rejected as regression noise.
    """

    rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")

    def sample(self, gen: np.random.Generator, size):
        return gen.standard_exponential(size) / self.rate

    def ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    @property
    def fourth_moment(self) -> float:
        return 24.0 / self.rate**4

    @property
    def tail_exponent(self):
        return 1.0

    @property
    def psi_norm(self):
        # E exp(X/eta) = rate/(rate - 1/eta) = 2 at eta = 2/rate.
        return 2.0 / self.rate


@dataclass(frozen=True)
class Pareto(ScalarLaw):
    """Power-law magnitude with an independent random sign.

    |Z| is standard Pareto: P(|Z| >= x) = (scale/x)^shape for
    x >= scale, so moments are finite strictly below order ``shape``
    and no exponential Orlicz norm exists.  The sign symmetrises the
    law to median (and, when defined, mean) zero.
    """

    shape: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.shape > 0.0:
            raise ValueError("shape must be positive")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")

    def sample(self, gen: np.random.Generator, size):
        u = 1.0 - gen.random(size)
        sign = gen.integers(0, 2, size=size) * 2.0 - 1.0
        return sign * self.scale * np.power(u, -1.0 / self.shape)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        core = np.abs(2.0 * u - 1.0)
        magnitude = self.scale * np.power(1.0 - core, -1.0 / self.shape)
        return np.where(u >= 0.5, magnitude, -magnitude)

    def abs_moment(self, order: float) -> float:
        if order >= self.shape:
            return math.inf
        return self.shape * self.scale**order / (self.shape - order)

    @property
    def mean(self) -> float:
        return 0.0 if self.shape > 1.0 else math.nan

    @property
    def variance(self) -> float:
        return self.abs_moment(2.0)

    @property
    def fourth_moment(self) -> float:
        return self.abs_moment(4.0)


@dataclass(frozen=True)
class StudentT(ScalarLaw):
    """Student t with ``dof`` degrees of freedom (polynomial tails)."""

    dof: float

    def __post_init__(self) -> None:
        if not self.dof > 0.0:
            raise ValueError("dof must be positive")

    def sample(self, gen: np.random.Generator, size):
        return gen.standard_t(self.dof, size)

    def ppf(self, u):
        return _student_t.ppf(np.asarray(u, dtype=float), self.dof)

    @property
    def mean(self) -> float:
        return 0.0 if self.dof > 1.0 else math.nan

    @property
    def variance(self) -> float:
        return self.dof / (self.dof - 2.0) if self.dof > 2.0 else math.inf

    @property
    def fourth_moment(self) -> float:
        if self.dof > 4.0:
            return 3.0 * self.dof**2 / ((self.dof - 2.0) * (self.dof - 4.0))
        return math.inf


@dataclass(frozen=True)
class Constant(ScalarLaw):
    """Point mass; degenerate but handy for exact pipeline checks."""

    value: float = 1.0

    def sample(self, gen: np.random.Generator, size):
        if size is None:
            return float(self.value)
        return np.full(size, float(self.value))

    def ppf(self, u):
        return np.full(np.shape(u), float(self.value))

    @property
    def mean(self) -> float:
        return float(self.value)

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def fourth_moment(self) -> float:
        return float(self.value) ** 4


# ---------------------------------------------------------------------------
# vector laws


@dataclass(frozen=True)
class VectorLaw:
    """Base interface for p-dimensional row generators with metadata."""

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def coordinate_variances(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def coordinate_means(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def max_second_moment(self) -> float:
        """Largest coordinate second moment (the Gamma of threshold bounds)."""
        means = self.coordinate_means
        return float(np.max(self.coordinate_variances + means**2))

    @property
    def mean_zero(self) -> bool:
        means = self.coordinate_means
        return bool(np.all(means == 0.0))

    @property
    def marginal_tail_exponent(self):
        return None

    @property
    def marginal_psi_norm(self):
        return None


def _marginal_metadata(cls):
    """Mix in metadata that just reflects a shared ``marginal`` law."""

    def coordinate_variances(self):
        return np.full(self.p, self.marginal.variance)

    def coordinate_means(self):
        return np.full(self.p, self.marginal.mean)

    def marginal_tail_exponent(self):
        return self.marginal.tail_exponent

    def marginal_psi_norm(self):
        return self.marginal.psi_norm

    cls.coordinate_variances = property(coordinate_variances)
    cls.coordinate_means = property(coordinate_means)
    cls.marginal_tail_exponent = property(marginal_tail_exponent)
    cls.marginal_psi_norm = property(marginal_psi_norm)
    return cls


def _require_dim(p: int) -> None:
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValueError("p must be a positive integer")


@_marginal_metadata
@dataclass(frozen=True)
class IidCoordinates(VectorLaw):
    """Independent copies of one marginal in every coordinate."""

    marginal: ScalarLaw
    p: int

    def __post_init__(self) -> None:
        _require_dim(self.p)

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.marginal.sample(gen, (n, self.p)), dtype=float)

    @property
    def dim(self) -> int:
        return self.p


@_marginal_metadata
@dataclass(frozen=True)
class GaussianCopula(VectorLaw):
    """Exact marginals coupled through an equicorrelated Gaussian copula.

    The latent Gaussian is the one-factor construction
    sqrt(rho) * g0 + sqrt(1 - rho) * g_j, which has unit variance, so
    mapping through the Gaussian CDF gives exactly uniform scores and the
    marginal quantile function reproduces the scalar law coordinatewise.
    """

    rho: float
    marginal: ScalarLaw
    p: int

    def __post_init__(self) -> None:
        _require_dim(self.p)
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        shared = gen.standard_normal((n, 1))
        own = gen.standard_normal((n, self.p))
        latent = math.sqrt(self.rho) * shared + math.sqrt(1.0 - self.rho) * own
        return np.asarray(self.marginal.ppf(ndtr(latent)), dtype=float)

    @property
    def dim(self) -> int:
        return self.p


@_marginal_metadata
@dataclass(frozen=True)
class IdenticalCoordinates(VectorLaw):
    """One scalar draw copied across all p coordinates.

    The pathological family: every coordinate (indeed every marginal
    projection) has the scalar norm, but along theta proportional to
    (1, ..., 1) the projection norm picks up the full sqrt(p) factor.
    """

    marginal: ScalarLaw
    p: int

    def __post_init__(self) -> None:
        _require_dim(self.p)

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        column = np.asarray(self.marginal.sample(gen, (n, 1)), dtype=float)
        return np.repeat(column, self.p, axis=1)

    @property
    def dim(self) -> int:
        return self.p


@dataclass(frozen=True, eq=False)
class LinearMap(VectorLaw):
    """X = factor @ z with iid innovations z from the marginal law.

    ``factor`` is p x m; the row covariance is Var(z) * factor factor^T.
    Projection norms of this family have no closed form and are measured
    empirically where needed.
    """

    factor: np.ndarray
    marginal: ScalarLaw
    p: int = -1

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=float)
        if factor.ndim != 2:
            raise ValueError("factor must be a 2-d array")
        if not np.isfinite(factor).all():
            raise ValueError("factor must be finite")
        object.__setattr__(self, "factor", factor)
        if self.p == -1:
            object.__setattr__(self, "p", factor.shape[0])
        elif self.p != factor.shape[0]:
            raise ValueError(
                f"dimension mismatch: p = {self.p} but factor has "
                f"{factor.shape[0]} rows"
            )

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        innovations = np.asarray(
            self.marginal.sample(gen, (n, self.factor.shape[1])), dtype=float
        )
        return innovations @ self.factor.T

    @property
    def dim(self) -> int:
        return self.p

    @property
    def coordinate_variances(self) -> np.ndarray:
        return self.marginal.variance * np.sum(self.factor**2, axis=1)

    @property
    def coordinate_means(self) -> np.ndarray:
        return self.marginal.mean * np.sum(self.factor, axis=1)


# ---------------------------------------------------------------------------
# draws and derived data


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """n x p sample with the law it came from."""

    n: int
    p: int
    values: np.ndarray
    law: VectorLaw

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.n, self.p):
            raise ValueError(
                f"values have shape {values.shape}, expected {(self.n, self.p)}"
            )
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class RegressionData:
    """Design, response, noise, and the coefficient the model targets.

    Under a misspecified response map, ``beta0`` is the population least
    squares coefficient estimated by the brute-force oracle, not a free
    parameter.
    """

    x: DataMatrix
    y: np.ndarray
    eps: np.ndarray
    beta0: np.ndarray


def draw_scalar(law: ScalarLaw, rng: RngStream) -> float:
    """One draw from the scalar law on a fresh generator for the stream."""
    return float(law.sample(rng.generator(), None))


def draw_matrix(law: VectorLaw, n: int, rng: RngStream) -> DataMatrix:
    """n independent rows from the vector law."""
    if not n >= 1:
        raise ValueError("n must be at least 1")
    values = law.draw_rows(rng.generator(), int(n))
    return DataMatrix(int(n), law.dim, values, law)


def _accumulate_beta0(design, response_map, oracle_n, gen):
    # Blockwise normal equations: G = sum X^T X, v = sum X^T f(X).
    p = design.dim
    gram = np.zeros((p, p))
    cross = np.zeros(p)
    remaining = int(oracle_n)
    block_rows = max(1, _ORACLE_BLOCK // max(p, 1))
    while remaining > 0:
        rows = design.draw_rows(gen, min(block_rows, remaining))
        responses = np.asarray(response_map(rows), dtype=float)
        if responses.shape != (rows.shape[0],):
            raise ValueError("response_map must map an (m, p) block to (m,) values")
        gram += rows.T @ rows
        cross += rows.T @ responses
        remaining -= rows.shape[0]
    gram /= oracle_n
    cross /= oracle_n
    condition = np.linalg.cond(gram)
    if not condition < 1e12:
        raise np.linalg.LinAlgError(
            f"oracle gram matrix is near-singular (condition number {condition:.3g})"
        )
    return np.linalg.solve(gram, cross)


def population_beta0(design, response_map, oracle_n, rng: RngStream) -> np.ndarray:
    """Brute-force population regression coefficient for a response map.

    Returns (E X X^T)^{-1} E[X f(X)] estimated on ``oracle_n`` fresh rows;
    ``response_map`` must act blockwise, taking an (m, p) array of rows to
    an (m,) vector of responses.
    """
    if not oracle_n >= 1:
        raise ValueError("oracle_n must be at least 1")
    return _accumulate_beta0(design, response_map, int(oracle_n), rng.generator())


def make_regression(design, beta0, noise, n, rng, misspec=None, oracle_n=10**6):
    """Linear or misspecified regression data y_i = m(X_i) + eps_i.

    Well-specified mode (``misspec`` is None): m(x) = x^T beta0 with the
    given coefficient.  Misspecified mode: m is the ``misspec`` block map
    and ``beta0`` must be None; the returned coefficient is the population
    target computed by the brute-force oracle on ``oracle_n`` extra rows
    from the same stream.  Noise must be a mean-zero scalar law.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if not noise.mean == 0.0:
        raise ValueError("noise law must be mean-zero")
    if misspec is None:
        if beta0 is None:
            raise ValueError("beta0 is required when misspec is None")
        beta0 = np.asarray(beta0, dtype=float)
        if beta0.shape != (design.dim,):
            raise ValueError(
                f"beta0 has shape {beta0.shape}, expected {(design.dim,)}"
            )
    elif beta0 is not None:
        raise ValueError("pass beta0=None in misspecified mode")

    # One generator consumed in a fixed order (rows, noise, oracle) keeps
    # the whole draw reproducible from a single stream.
    gen = rng.generator()
    x = DataMatrix(int(n), design.dim, design.draw_rows(gen, int(n)), design)
    eps = np.asarray(noise.sample(gen, int(n)), dtype=float)
    if misspec is None:
        signal = x.values @ beta0
    else:
        signal = np.asarray(misspec(x.values), dtype=float)
        if signal.shape != (int(n),):
            raise ValueError("misspec must map an (m, p) block to (m,) values")
        beta0 = _accumulate_beta0(design, misspec, int(oracle_n), gen)
    return RegressionData(x, signal + eps, eps, beta0)
