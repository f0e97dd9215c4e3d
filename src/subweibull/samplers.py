"""Seed-reproducible generators for heavy-tailed simulation inputs.

Scalar laws cover the stretched-exponential family (``SymmetricWeibull``,
which satisfies P(|Z| >= t) = exp(-t^alpha) exactly), the classical
sub-Gaussian / sub-exponential cases, and a polynomial-tail law
(``Pareto`` symmetrised to median zero) for experiments where no
exponential Orlicz norm is finite.  ``IidCoordinates`` turns a scalar
law into a p-dimensional row law with independent coordinates.

Laws closed under convolution also draw the sum of n iid copies
directly (``sample_sums``), so a statistic of column sums costs q draws
per replication instead of n*q.  Each sum law is itself sampled through
its ``sample``; the closed forms, each exact in law:

- ``Exponential(rate)``: ``Gamma(n, rate)``, i.e.
  ``standard_gamma(n, size) / rate``;
- ``Gaussian(sigma)``: ``Gaussian(sigma * sqrt(n))``, i.e.
  ``sigma * sqrt(n) * standard_normal(size)``;
- ``SymmetricWeibull(1)`` (Laplace): ``Gamma(n)`` minus a second
  ``Gamma(n)``, the positive block of ``standard_gamma(n, size)`` drawn
  first.

Every other law, ``SymmetricWeibull`` at alpha != 1 and ``Pareto``
included, returns None and callers draw the rows.  ``IidCoordinates``
hands out a ``(reps, p)`` block of column sums, taken from the caller's
one generator.  The sums consume a stream differently from the rows, so
the two paths agree in law, not bit for bit.

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

__all__ = [
    "RngStream",
    "ScalarLaw",
    "SymmetricWeibull",
    "Gaussian",
    "Exponential",
    "Gamma",
    "Pareto",
    "VectorLaw",
    "IidCoordinates",
    "DataMatrix",
    "RegressionData",
    "draw_matrix",
    "make_regression",
]

_UINT64_BOUND = 2**64


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

    def sample_sums(self, gen: np.random.Generator, n: int, size):
        """Sums of ``n`` iid copies, drawn directly, or None without a closed form."""
        return None

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

    def sample_sums(self, gen: np.random.Generator, n: int, size):
        if self.alpha != 1.0:
            return None
        # Laplace = E1 - E2, so n copies sum to Gamma(n) - Gamma(n); the
        # positive block is drawn first.
        gamma = Gamma(n)
        positive = gamma.sample(gen, size)
        return positive - gamma.sample(gen, size)

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

    def sample_sums(self, gen: np.random.Generator, n: int, size):
        return Gaussian(self.sigma * math.sqrt(n)).sample(gen, size)

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

    def sample_sums(self, gen: np.random.Generator, n: int, size):
        return Gamma(n, self.rate).sample(gen, size)

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
class Gamma(ScalarLaw):
    """Gamma law with the given shape and rate (mean shape/rate).

    The sum of n iid ``Exponential(rate)`` is ``Gamma(n, rate)``, which
    is what the exponential and Laplace column sums draw.
    """

    shape: float
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.shape > 0.0:
            raise ValueError("shape must be positive")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")

    def sample(self, gen: np.random.Generator, size):
        return gen.standard_gamma(self.shape, size) / self.rate

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2

    @property
    def fourth_moment(self) -> float:
        a = self.shape
        return a * (a + 1.0) * (a + 2.0) * (a + 3.0) / self.rate**4


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


# ---------------------------------------------------------------------------
# vector laws


@dataclass(frozen=True)
class VectorLaw:
    """Base interface for p-dimensional row generators with metadata."""

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def sample_sums(self, gen: np.random.Generator, n: int, reps: int):
        """(reps, dim) column sums of n rows each, or None without a closed form."""
        return None

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
    def marginal_psi_norm(self):
        return None


@dataclass(frozen=True)
class IidCoordinates(VectorLaw):
    """Independent copies of one marginal in every coordinate."""

    marginal: ScalarLaw
    p: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ValueError("p must be a positive integer")

    def draw_rows(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.marginal.sample(gen, (n, self.p)), dtype=float)

    def sample_sums(self, gen: np.random.Generator, n: int, reps: int):
        return self.marginal.sample_sums(gen, n, (reps, self.p))

    @property
    def dim(self) -> int:
        return self.p

    @property
    def coordinate_variances(self) -> np.ndarray:
        return np.full(self.p, self.marginal.variance)

    @property
    def coordinate_means(self) -> np.ndarray:
        return np.full(self.p, self.marginal.mean)

    @property
    def marginal_psi_norm(self):
        return self.marginal.psi_norm


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
    """Design, response and noise of one linear regression draw."""

    x: DataMatrix
    y: np.ndarray
    eps: np.ndarray


def draw_matrix(law: VectorLaw, n: int, rng: RngStream) -> DataMatrix:
    """n independent rows from the vector law."""
    if not n >= 1:
        raise ValueError("n must be at least 1")
    values = law.draw_rows(rng.generator(), int(n))
    return DataMatrix(int(n), law.dim, values, law)


def make_regression(design, beta0, noise, n, rng):
    """Linear regression data y_i = X_i^T beta0 + eps_i.

    Rows come from the vector law ``design``; the noise must be a
    mean-zero scalar law.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if not noise.mean == 0.0:
        raise ValueError("noise law must be mean-zero")
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (design.dim,):
        raise ValueError(
            f"beta0 has shape {beta0.shape}, expected {(design.dim,)}"
        )

    # One generator consumed in a fixed order (rows, then noise) keeps
    # the whole draw reproducible from a single stream.
    gen = rng.generator()
    x = DataMatrix(int(n), design.dim, design.draw_rows(gen, int(n)), design)
    eps = np.asarray(noise.sample(gen, int(n)), dtype=float)
    return RegressionData(x, x.values @ beta0 + eps, eps)
