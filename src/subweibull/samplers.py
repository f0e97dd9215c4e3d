"""Seed-reproducible generators for heavy-tailed simulation inputs.

Scalar laws cover the stretched-exponential family (``SymmetricWeibull``,
which satisfies P(|Z| >= t) = exp(-t^alpha) exactly), the classical
sub-Gaussian / sub-exponential cases, and a polynomial-tail law
(``Pareto`` symmetrised to median zero) for experiments where no
exponential Orlicz norm is finite.  ``IidCoordinates`` turns a scalar
law into a p-dimensional row law with independent coordinates.

``SymmetricWeibull`` spends one 64-bit word of the bit generator per
value: its top 53 bits give the uniform of the inverse transform, exactly
as ``Generator.random`` forms it, and its lowest bit gives the sign.  The
values are built in place in cache-sized chunks.  ``Pareto`` keeps its
``random`` draw followed by an ``integers`` sign draw.

The stacked draw: ``SymmetricWeibull.sample`` also takes a list of k
generators with a size (k, ...), and slice r of the result is then what
``sample(gens[r], size[1:])`` returns on its own, bit for bit.  Slice r
reads its words from generator r alone, in order, and the chunked
transform runs over the whole block, so a chunk may hold the words of
several generators.  ``draw_stack(law, n, streams)`` builds one generator
per stream and stacks the n-row samples that ``draw_matrix`` would draw
from each.

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
included, has none (``sample_sums`` is None).  ``VectorLaw.column_sums``
alone makes that choice and returns a ``(reps, dim)`` block either way;
without a closed form it adds up one replication's n rows at a time,
unchunked, so memory is O(n * dim) and the sums keep the bytes of the
rows' ``sum(axis=0)``.  The two paths agree in law, not bit for bit.

Randomness is splittable: an ``RngStream`` is a (seed, stream_id) pair
and every draw operation builds a fresh generator from it, so the same
stream always reproduces the same values bit for bit and replications
can run on any worker layout without sequence coupling.  Callers wanting
fresh draws use fresh stream ids.

The contract: the stream's generator is ``SFC64`` seeded with
``SeedSequence(entropy=[seed, stream_id]).generate_state(3, np.uint64)``,
which is what ``SFC64(SeedSequence(...))`` reads; seeding through
``SeedSequence`` is numpy's recommended way to get independent SFC64
streams from distinct entropy.  A batch of task streams
(``RngStream.keyed``) gets every seed in one vectorised pass of that
hash over the array of stream ids; the seeds equal ``SeedSequence``'s
word for word, which a test pins, so a keyed stream and the same stream
without a key draw the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    "draw_stack",
    "make_regression",
]

_UINT64_BOUND = 2**64
# SymmetricWeibull fills its output this many values at a time, so the
# words and the value being built stay in cache; the values do not
# depend on it.
_CHUNK = 2**15

# numpy's SeedSequence hash (a pool of four 32-bit words): the running
# hash constants of its entropy mixing (A) and of ``generate_state`` (B).
# SFC64 reads three uint64 seed words, i.e. six uint32 state words.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_STATE_WORDS = 6
_XSHIFT = 16
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# the pool is hashed in once, then every ordered pair of its words is mixed
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, _STATE_WORDS)


def _stream_keys(seed: int, stream_ids) -> np.ndarray:
    """(len(stream_ids), 3) uint64 seeds: row i is
    ``SeedSequence(entropy=[seed, stream_ids[i]]).generate_state(3, np.uint64)``.

    The entropy is the seed's 32-bit words then the id's, least
    significant first, hashed into the pool with zeros past its end; an id
    below 2**32 is one word, which the zero padding makes the same as a
    zero high word.  Every step is uint32 arithmetic over all ids at once.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((_POOL, ids.size), dtype=np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = ids & _MASK32
    pool[len(seed_words) + 1] = ids >> 32

    pool ^= _HASH_A[:_POOL, None]
    pool *= _HASH_A[1:_POOL + 1, None]
    pool ^= pool >> _XSHIFT
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src == dst:
                continue
            hashed = pool[src] ^ _HASH_A[step]
            hashed *= _HASH_A[step + 1]
            hashed ^= hashed >> _XSHIFT
            mixed = _MIX_L * pool[dst] - _MIX_R * hashed
            mixed ^= mixed >> _XSHIFT
            pool[dst] = mixed
            step += 1

    # generate_state cycles over the pool, one hash constant per word,
    # and reads its six words as three little-endian uint64
    state = pool[np.arange(_STATE_WORDS) % _POOL]
    state ^= _HASH_B[:_STATE_WORDS, None]
    state *= _HASH_B[1:, None]
    state ^= state >> _XSHIFT
    words = np.ascontiguousarray(state.T, dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False)


def _check_word(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer")
    if not 0 <= int(value) < _UINT64_BOUND:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer")


class _StreamKey(ISeedSequence):
    """SFC64 seed words already derived, handed to ``SFC64`` as its seed."""

    def __init__(self, key: np.ndarray) -> None:
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        # SFC64 asks for np.uint64 itself; the identity test skips np.dtype
        if n_words != 3 or (dtype is not np.uint64
                            and np.dtype(dtype) != np.uint64):
            raise ValueError("an SFC64 seed is three uint64 words")
        return self._key


@dataclass(frozen=True)
class RngStream:
    """Named slot in a splittable family of random streams.

    ``generator()`` returns a *fresh* SFC64 generator seeded from
    (seed, stream_id), so every operation that consumes this stream sees
    the same sequence.  Draw operations are therefore pure: calling
    ``draw_matrix`` twice with one stream yields the same matrix, and
    distinct stream ids yield independent sequences.
    """

    seed: int
    stream_id: int = 0
    # SFC64 seed set by ``keyed``; it is a function of (seed, stream_id),
    # so equality and hash leave it out.
    _key: Optional[np.ndarray] = field(default=None, init=False,
                                       repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_word("seed", self.seed)
        _check_word("stream_id", self.stream_id)

    @classmethod
    def keyed(cls, seed: int, stream_ids) -> list:
        """The streams (seed, i) for i in ``stream_ids``, seeds derived in one pass.

        Raises what ``RngStream(seed, i)`` raises for the first bad value.
        The ids are checked as one array, and each stream's fields are
        set directly, without a ``__post_init__`` per stream.
        """
        _check_word("seed", seed)
        ids = list(stream_ids)
        words = np.asarray(ids)
        kind = words.dtype.kind
        if (words.ndim != 1 or kind not in "biu"
                or (kind == "i" and words.size and words.min() < 0)):
            # not one array of valid ids (a float, a negative id, an id of
            # 2**64 or more, or valid ids numpy stored as float or object):
            # check each as a stream would, then convert each exactly
            for i in ids:
                _check_word("stream_id", i)
            words = np.array([int(i) for i in ids], dtype=np.uint64)
        keys = _stream_keys(int(seed), words)
        new = object.__new__
        streams = []
        for i, key in zip(ids, keys):
            stream = new(cls)
            fields = stream.__dict__
            fields["seed"] = seed
            fields["stream_id"] = i
            fields["_key"] = key
            streams.append(stream)
        return streams

    def generator(self) -> np.random.Generator:
        if self._key is None:
            seq = np.random.SeedSequence(entropy=[int(self.seed), int(self.stream_id)])
        else:
            seq = _StreamKey(self._key)
        return np.random.Generator(np.random.SFC64(seq))


def _raw_words(gens, span: int, start: int, count: int) -> np.ndarray:
    """The bit words of flat positions [start, start + count) of a block in
    which ``gens[r]`` owns positions [r span, (r + 1) span), read in order.

    Words from one generator come as ``random_raw`` returns them; a range
    that crosses into the next generator's positions is one concatenation
    of each generator's share."""
    first = start // span
    stop = start + count
    last = (stop - 1) // span
    if first == last:
        return gens[first].bit_generator.random_raw(count)
    return np.concatenate([
        gens[r].bit_generator.random_raw(
            min((r + 1) * span, stop) - max(r * span, start))
        for r in range(first, last + 1)])


# ---------------------------------------------------------------------------
# scalar laws


@dataclass(frozen=True)
class ScalarLaw:
    """Base interface: sampling and analytic moment metadata.

    Moments that do not exist are reported as nan (undefined) or inf
    (divergent); ``psi_norm``/``tail_exponent`` are None when the law has
    no known exponential Orlicz norm.
    """

    def sample(self, gen: np.random.Generator, size):
        raise NotImplementedError

    def sample_sums(self, gen: np.random.Generator, n: int, size):
        """Sums of ``n`` iid copies, drawn directly, or None without a closed form."""
        return None

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        raise NotImplementedError

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

    Generated by the pinned inverse transform |Z| = (-log(1 - U))^(1/alpha)
    from one 64-bit word w of the generator per value: U = (w >> 11) 2^-53
    takes the top 53 bits, as ``Generator.random`` does, and bit 0 of the
    same word, which U never sees, is the independent random sign.
    |Z|^alpha is then a standard exponential, which gives every absolute
    moment in closed form, E |Z|^m = Gamma(1 + m/alpha), and the exact
    norm ||Z||_{psi_alpha} = 2^(1/alpha).
    """

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def sample(self, gen, size):
        """Values of shape ``size`` from ``gen``, or from a list of k
        generators with ``size`` (k, ...), slice r from ``gen[r]``."""
        out = np.empty(size)
        flat = out.reshape(-1)
        if isinstance(gen, (list, tuple)):
            if out.ndim == 0 or out.shape[0] != len(gen):
                raise ValueError("size must lead with one slice per generator")
            gens = gen
        else:
            gens = (gen,)
        span = flat.size // len(gens)
        for start in range(0, flat.size, _CHUNK):
            chunk = flat[start:start + _CHUNK]
            chunk_bits = chunk.view(np.uint64)
            words = _raw_words(gens, span, start, chunk.size)
            # the output's bits hold w >> 11 until U = (w >> 11) 2^-53
            # replaces them
            np.right_shift(words, 11, out=chunk_bits)
            np.multiply(chunk_bits, 2.0**-53, out=chunk)
            np.subtract(1.0, chunk, out=chunk)
            np.log(chunk, out=chunk)
            # square(-x) is bit-exact square(x) and pow(x, 1.0) is x, so
            # 1/alpha = 2 skips the flip and alpha = 1 the power; sqrt and
            # square equal pow(x, 0.5) and pow(x, 2.0) bit for bit at about
            # half the cost
            exponent = 1.0 / self.alpha
            if exponent == 2.0:
                np.square(chunk, out=chunk)
            else:
                np.negative(chunk, out=chunk)
                if exponent == 0.5:
                    np.sqrt(chunk, out=chunk)
                elif exponent != 1.0:
                    np.power(chunk, exponent, out=chunk)
            np.left_shift(words, 63, out=words)
            np.bitwise_or(chunk_bits, words, out=chunk_bits)
        return out

    def sample_sums(self, gen: np.random.Generator, n: int, size):
        if self.alpha != 1.0:
            return None
        # Laplace = E1 - E2, so n copies sum to Gamma(n) - Gamma(n); the
        # positive block is drawn first.
        gamma = Gamma(n)
        positive = gamma.sample(gen, size)
        return positive - gamma.sample(gen, size)

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

    def column_sums(self, gen: np.random.Generator, n: int, reps: int) -> np.ndarray:
        """(reps, dim) column sums of n rows each, drawn replication by replication."""
        sums = np.empty((reps, self.dim))
        for r in range(reps):
            sums[r] = self.draw_rows(gen, n).sum(axis=0)
        return sums

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

    def column_sums(self, gen: np.random.Generator, n: int, reps: int) -> np.ndarray:
        sums = self.marginal.sample_sums(gen, n, (reps, self.p))
        return super().column_sums(gen, n, reps) if sums is None else sums

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
    """n x p sample with the law it came from, or a (k, n, p) stack of k
    such samples."""

    n: int
    p: int
    values: np.ndarray
    law: VectorLaw

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (2, 3) or values.shape[-2:] != (self.n, self.p):
            raise ValueError(
                f"values have shape {values.shape}, expected {(self.n, self.p)}"
                " or a stack of them"
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


def draw_stack(law: IidCoordinates, n: int, streams) -> DataMatrix:
    """A (len(streams), n, p) stack whose slice r is
    ``draw_matrix(law, n, streams[r]).values`` bit for bit.

    The marginal of ``law`` must take a list of generators
    (``SymmetricWeibull`` does); the whole stack is one ``sample`` call.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    gens = [stream.generator() for stream in streams]
    values = law.marginal.sample(gens, (len(gens), int(n), law.dim))
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
    # a huge beta0 can overflow y to inf; the caller checks y is finite
    with np.errstate(over="ignore", invalid="ignore"):
        y = x.values @ beta0 + eps
    return RegressionData(x, y, eps)
