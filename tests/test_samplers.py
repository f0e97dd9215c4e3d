"""Sampler tests: reproducibility, exact tails, metadata, regression draws."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

import helpers
from subweibull import samplers as sp
from subweibull.orlicz import OrliczSpec, empirical_norm


def test_stream_reproducibility():
    law = sp.IidCoordinates(sp.SymmetricWeibull(1.0), 4)
    a = sp.draw_matrix(law, 5, sp.RngStream(7, 3))
    b = sp.draw_matrix(law, 5, sp.RngStream(7, 3))
    c = sp.draw_matrix(law, 5, sp.RngStream(7, 4))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # a stream is a pure description: reusing the same object replays it
    stream = sp.RngStream(7, 3)
    assert np.array_equal(
        sp.draw_matrix(law, 5, stream).values, sp.draw_matrix(law, 5, stream).values
    )


def test_stream_validation():
    with pytest.raises(ValueError):
        sp.RngStream(-1, 0)
    with pytest.raises(ValueError):
        sp.RngStream(0, 2**64)
    with pytest.raises(TypeError):
        sp.RngStream(1.5, 0)


_KEY_EDGES = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def test_keyed_streams_match_seed_sequence():
    # the one-pass seeds equal SeedSequence(entropy=[seed, id]) word for
    # word, and a keyed stream draws what the same stream draws without one
    rng = np.random.default_rng(2011)
    seeds = [int(s) for s in rng.integers(0, 2**63, 20, dtype=np.uint64)]
    checked = 0
    for seed in seeds + _KEY_EDGES:
        ids = [int(i) for i in rng.integers(0, 2**64 - 1, 25, dtype=np.uint64,
                                            endpoint=True)] + _KEY_EDGES
        keys = sp._stream_keys(seed, ids)
        for sid, key, stream in zip(ids, keys, sp.RngStream.keyed(seed, ids)):
            expected = np.random.SeedSequence(entropy=[seed, sid])
            assert np.array_equal(key, expected.generate_state(3, np.uint64)), (seed, sid)
            keyed_raw = stream.generator().bit_generator.random_raw(8)
            plain_raw = sp.RngStream(seed, sid).generator().bit_generator.random_raw(8)
            assert np.array_equal(keyed_raw, plain_raw), (seed, sid)
            checked += 1
    assert checked >= 500


def test_stream_words_are_pinned():
    # The first SFC64 words of a plain and of a keyed stream, as literals:
    # a numpy release that changed SFC64 or SeedSequence would move every
    # seeded figure of the repository, and this test names the cause.
    plain = sp.RngStream(1, 0).generator().bit_generator.random_raw(4)
    assert [int(w) for w in plain] == [
        18365948275979584072, 6864396556639111295,
        7917024265190753706, 14104257147265189493,
    ]
    (keyed,) = sp.RngStream.keyed(2**40 + 7, [3 * 2**32 + 5])
    assert [int(w) for w in keyed.generator().bit_generator.random_raw(4)] == [
        9126781501952997041, 12144864912058685100,
        16826256548811456725, 14433929699548503798,
    ]


def test_keyed_stream_equals_plain_stream():
    keyed = sp.RngStream.keyed(7, [3, 2**40])
    plain = [sp.RngStream(7, 3), sp.RngStream(7, 2**40)]
    assert keyed == plain
    assert [hash(s) for s in keyed] == [hash(s) for s in plain]
    assert repr(keyed[0]) == repr(plain[0])
    # a keyed stream replays like any other
    assert np.array_equal(keyed[0].generator().random(4), keyed[0].generator().random(4))
    with pytest.raises(ValueError):
        sp.RngStream.keyed(7, [2**64])
    with pytest.raises(TypeError):
        sp.RngStream.keyed(7, [1.5])


def _raised(make):
    try:
        make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed, ids", [
    (7, [0, 8, 2.0, 24]),            # a float in the middle, integral or not
    (7, [0, 8, 1.5, 2**64]),         # the first bad id sets the error
    (7, [0, 8, -1, 24]),
    (7, [3, np.int64(-5), 2**63]),
    (7, [2**63, 2**64, 5]),
    (7, [0, 8, "16"]),
    (7, [[0, 8]]),
    (-1, [0, 8]),
    (2**64, [0, 8]),
    (1.0, [0, 8]),
    (-1, []),
])
def test_keyed_rejects_what_a_stream_rejects(seed, ids):
    def plain():
        return [sp.RngStream(seed, i) for i in ids] or sp.RngStream(seed)

    expected = _raised(plain)
    assert expected is not None
    assert _raised(lambda: sp.RngStream.keyed(seed, ids)) == expected


def test_keyed_accepts_numpy_and_bool_ids():
    for ids in ([np.int64(3), 5, True], [np.uint64(2**64 - 1), 0],
                [False, True], [2**63, np.int64(4)], np.arange(4), range(3)):
        keyed = sp.RngStream.keyed(np.int64(7), ids)
        assert keyed == [sp.RngStream(np.int64(7), i) for i in ids]
        for stream in keyed:
            plain = sp.RngStream(7, int(stream.stream_id))
            assert np.array_equal(stream.generator().bit_generator.random_raw(2),
                                  plain.generator().bit_generator.random_raw(2))
    assert sp.RngStream.keyed(7, []) == []


def test_scalar_law_validation():
    with pytest.raises(ValueError):
        sp.SymmetricWeibull(0.0)
    with pytest.raises(ValueError):
        sp.Gaussian(-1.0)
    with pytest.raises(ValueError):
        sp.Exponential(0.0)
    with pytest.raises(ValueError):
        sp.Gamma(0.0)
    with pytest.raises(ValueError):
        sp.Gamma(2.0, rate=-1.0)
    with pytest.raises(ValueError):
        sp.Pareto(-2.0)
    with pytest.raises(ValueError):
        sp.Pareto(2.0, scale=0.0)
    with pytest.raises(ValueError, match="one slice per stream"):
        sp.SymmetricWeibull(1.0).sample([sp.RngStream(0, 0)], (2, 3))
    with pytest.raises(TypeError, match="uint64"):
        sp.SymmetricWeibull(1.0).sample(np.zeros((2, 3), dtype=np.int64), (2, 3))


_CONTRACT_SIZES = [1, 2**15 - 1, 2**15, 2**15 + 1, (3, 4, 2**12 + 3)]
# U = 0 with either sign, and the largest U, 1 - 2^-53, with sign -
_EDGE_WORDS = np.array([0, 1, 2**64 - 1], dtype=np.uint64)


class _FixedWords:
    """Stands in for a Generator whose bit generator yields ``words``."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, size):
        assert size == self.words.size
        return self.words.copy()


def _weibull_contract(words, alpha):
    # one 64-bit word per value: the top 53 bits make U as Generator.random
    # does, the magnitude is (-log(1 - U))^(1/alpha), bit 0 is the sign
    u = (words >> np.uint64(11)).astype(float) * 2.0**-53
    magnitude = np.power(-np.log(1.0 - u), 1.0 / alpha)
    return np.where(words & np.uint64(1), -magnitude, magnitude)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("size", _CONTRACT_SIZES)
def test_weibull_stream_contract(alpha, size):
    z = sp.SymmetricWeibull(alpha).sample(sp.RngStream(5, 9).generator(), size)
    words = sp.RngStream(5, 9).generator().bit_generator.random_raw(size)
    expected = _weibull_contract(words, alpha)
    assert z.shape == np.shape(words)
    assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))
    # U = 0 gives a zero whose sign comes from -log(1) = -0 and survives
    # sqrt and pow(x, 1.0) but not square; the largest U keeps the contract
    edges = sp.SymmetricWeibull(alpha).sample(_FixedWords(_EDGE_WORDS), 3)
    assert edges[:2].tolist() == [0.0, 0.0]
    assert np.signbit(edges[:2]).tolist() == ([False, True] if alpha == 0.5
                                              else [True, True])
    assert np.array_equal(edges[2:].view(np.uint64),
                          _weibull_contract(_EDGE_WORDS[2:], alpha).view(np.uint64))
    # the magnitudes are those of the former random() + integers() draw
    gen = sp.RngStream(5, 9).generator()
    former = -np.log(1.0 - gen.random(size))
    if alpha != 1.0:
        former = np.power(former, 1.0 / alpha)
    assert np.array_equal(np.abs(z).view(np.uint64), former.view(np.uint64))


def test_lane_words_match_sfc64_seeded_by_seed_sequence():
    # SFC64 stepped across streams as uint64 lanes gives each stream's
    # random_raw words, with no warning and no promotion out of uint64
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1]
    ids = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 8]
    keys = np.concatenate([sp._stream_keys(seed, ids) for seed in seeds])
    for count in (1, 12, 100, 2**15 + 3):
        words = np.empty((len(keys), count), dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp._lane_words(keys, words)
        assert words.dtype == np.uint64
        lane = iter(words)
        for seed in seeds:
            for sid in ids:
                expected = np.random.SFC64(
                    np.random.SeedSequence([seed, sid])).random_raw(count)
                assert np.array_equal(next(lane), expected), (seed, sid, count)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape, lanes", [
    ((1, 2**15 + 5), False),  # one stream, its slice spanning chunks
    ((3, 2**15 + 5), False),  # a chunk ends inside a slice
    ((9, 20, 5), False),  # several slices inside one chunk
    ((6, 7, 1000), False),  # slice boundaries in mid-chunk, across two chunks
    ((340, 20, 5), False),  # just below the lane rule at 100 words a stream
    ((360, 20, 5), True),  # just above it
    ((1310, 20, 5), True),  # a covariance run of four chunks
    ((400, 10, 3), True),
])
def test_weibull_stacked_draw_matches_each_generator(alpha, shape, lanes,
                                                     monkeypatch):
    # the stack of a run, given as its streams or as their keys, holds in
    # slice r what stream r's own generator draws, on either side of the
    # rule that picks lanes or one generator per stream
    lane_words = sp._lane_words
    lane_calls = []

    def counted(*args):
        lane_calls.append(1)
        return lane_words(*args)

    monkeypatch.setattr(sp, "_lane_words", counted)
    law = sp.SymmetricWeibull(alpha)
    ids = [8 * r + 3 for r in range(shape[0])]
    streams = sp.RngStream.keyed(5, ids)
    alone = np.stack([law.sample(stream.generator(), shape[1:])
                      for stream in streams])
    for run in (streams, sp._stream_keys(5, ids),
                [sp.RngStream(5, i) for i in ids]):
        stack = law.sample(run, shape)
        assert stack.shape == shape
        assert np.array_equal(stack.view(np.uint64), alone.view(np.uint64))
    assert len(lane_calls) == (3 if lanes else 0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_weibull_tail_exactness(alpha):
    # survival of the generator is exp(-t^alpha) exactly; MC at 1e6 draws
    n = 10**6
    z = sp.SymmetricWeibull(alpha).sample(
        sp.RngStream(11, int(alpha * 10)).generator(), n
    )
    for t in (0.5, 1.0, 2.0):
        p = math.exp(-(t**alpha))
        emp = float(np.mean(np.abs(z) >= t))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(emp - p) <= 4.0 * se
        # each side carries half: the sign is fair and independent of |Z|
        half = p / 2.0
        se = math.sqrt(half * (1.0 - half) / n)
        assert abs(float(np.mean(z >= t)) - half) <= 4.0 * se
        assert abs(float(np.mean(z <= -t)) - half) <= 4.0 * se
    if alpha == 1.0:
        p = math.exp(-2.0)
        emp = float(np.mean(np.abs(z) >= 2.0))
        assert abs(emp - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_weibull_moments():
    law = sp.SymmetricWeibull(1.0)
    assert law.variance == pytest.approx(2.0, rel=1e-12)  # Gamma(3)
    assert law.fourth_moment == pytest.approx(24.0, rel=1e-12)  # Gamma(5)
    assert law.mean == 0.0
    z = law.sample(sp.RngStream(11, 10).generator(), 10**6)
    m2 = float(np.mean(z**2))
    # Var(Z^2) = m4 - m2^2 = 20
    assert abs(m2 - 2.0) <= 4.0 * math.sqrt(20.0 / 10**6)


def test_gamma_moments():
    # Gamma(1, rate) is Exponential(rate); Gamma(n) is the sum of n copies
    for rate in (0.5, 2.0):
        one, exp = sp.Gamma(1.0, rate), sp.Exponential(rate)
        assert (one.mean, one.variance) == (exp.mean, exp.variance)
        assert one.fourth_moment == pytest.approx(exp.fourth_moment, rel=1e-12)
    law = sp.Gamma(3.0)
    z = law.sample(sp.RngStream(11, 11).generator(), 10**6)
    assert (law.mean, law.variance) == (3.0, 3.0)
    assert abs(float(np.mean(z)) - 3.0) <= 5.0 * math.sqrt(3.0 / 10**6)
    # E Z^4 = 3 * 4 * 5 * 6
    assert law.fourth_moment == pytest.approx(360.0, rel=1e-12)


def test_analytic_psi_norm_metadata():
    assert sp.SymmetricWeibull(1.0).psi_norm == 2.0
    assert sp.SymmetricWeibull(0.5).psi_norm == 4.0
    assert sp.SymmetricWeibull(2.0).psi_norm == pytest.approx(math.sqrt(2.0))
    assert sp.Gaussian(2.0).psi_norm == pytest.approx(2.0 * math.sqrt(8.0 / 3.0))
    assert sp.Gaussian(1.0).tail_exponent == 2.0
    assert sp.Exponential(1.0).psi_norm == 2.0
    assert sp.Exponential(2.0).psi_norm == 1.0
    assert sp.Pareto(3.0).psi_norm is None


@pytest.mark.parametrize(
    "law",
    [sp.SymmetricWeibull(1.0), sp.SymmetricWeibull(0.5), sp.SymmetricWeibull(2.0),
     sp.Gaussian(1.0)],
)
def test_empirical_norm_matches_analytic(law):
    # ties the generators to the norm machinery: plug-in norm of 1e6
    # draws agrees with the closed form within 2 percent
    z = law.sample(sp.RngStream(23, int(law.tail_exponent * 100)).generator(), 10**6)
    est = empirical_norm(np.abs(z), OrliczSpec.psi(law.tail_exponent))
    assert est.value == pytest.approx(law.psi_norm, rel=0.02)


def test_pareto_metadata_and_tails():
    law = sp.Pareto(3.0, scale=2.0)
    assert law.mean == 0.0
    assert law.variance == pytest.approx(3.0 * 4.0 / 1.0)  # r s^2 / (r-2)
    assert law.fourth_moment == math.inf
    assert law.abs_moment(2.9) < math.inf
    assert law.abs_moment(3.0) == math.inf
    assert math.isnan(sp.Pareto(1.0).mean)
    z = law.sample(sp.RngStream(29, 0).generator(), 10**6)
    assert float(np.min(np.abs(z))) >= 2.0  # support starts at the scale
    # P(|Z| >= 4) = (2/4)^3 = 1/8
    p = 0.125
    emp = float(np.mean(np.abs(z) >= 4.0))
    assert abs(emp - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 10**6)


def test_ppf_matches_sampling():
    # quantile transform of a uniform grid reproduces the law (KS check)
    u = (np.arange(10**5) + 0.5) / 10**5
    for law in (sp.SymmetricWeibull(0.7), sp.Pareto(2.5), sp.Exponential(2.0)):
        z = law.sample(sp.RngStream(31, 0).generator(), 10**5)
        ks = ks_2samp(helpers.quantile(law, u), z)
        assert ks.statistic < 0.01


def test_iid_coordinates_moments():
    n = 2 * 10**5
    law = sp.IidCoordinates(sp.SymmetricWeibull(1.0), 6)
    means = sp.draw_matrix(law, n, sp.RngStream(17, 0)).values.mean(axis=0)
    assert np.all(np.abs(means) <= 4.0 * np.sqrt(law.coordinate_variances / n))
    # an uncentred marginal: Exponential(rate 2) has mean 1/2, variance 1/4
    law = sp.IidCoordinates(sp.Exponential(2.0), 3)
    assert np.array_equal(law.coordinate_means, np.full(3, 0.5))
    assert np.array_equal(law.coordinate_variances, np.full(3, 0.25))
    assert law.max_second_moment == 0.5
    assert law.marginal_psi_norm == 1.0
    with pytest.raises(ValueError, match="positive integer"):
        sp.IidCoordinates(sp.Exponential(2.0), 0)


def test_data_matrix_validation():
    law = sp.IidCoordinates(sp.Gaussian(1.0), 2)
    with pytest.raises(ValueError):
        sp.DataMatrix(3, 2, np.zeros((2, 3)), law)
    with pytest.raises(ValueError):
        sp.DataMatrix(1, 2, np.array([[1.0, math.inf]]), law)
    with pytest.raises(ValueError):
        sp.draw_matrix(law, 0, sp.RngStream(0, 0))
    # a (k, n, p) stack of samples passes the same checks
    assert sp.DataMatrix(3, 2, np.zeros((4, 3, 2)), law).values.shape == (4, 3, 2)
    with pytest.raises(ValueError, match="values have shape"):
        sp.DataMatrix(3, 2, np.zeros((4, 2, 3)), law)
    with pytest.raises(ValueError, match="finite"):
        sp.DataMatrix(1, 2, np.array([[[0.0, 0.0]], [[1.0, math.nan]]]), law)
    with pytest.raises(ValueError, match="n must be"):
        sp.draw_stack(law, 0, [sp.RngStream(0, 0)])


def test_make_regression_well_specified():
    design = sp.IidCoordinates(sp.Gaussian(1.0), 3)
    beta0 = np.array([1.0, 0.0, -2.0])
    reg = sp.make_regression(design, beta0, sp.Gaussian(1.0), 40, sp.RngStream(3, 0))
    assert reg.x.values.shape == (40, 3) and reg.eps.shape == (40,)
    assert np.array_equal(reg.y, reg.x.values @ beta0 + reg.eps)
    # rows first, then noise, from one generator for the stream
    gen = sp.RngStream(3, 0).generator()
    assert np.array_equal(reg.x.values, design.draw_rows(gen, 40))
    assert np.array_equal(reg.eps, sp.Gaussian(1.0).sample(gen, 40))
    zero = sp.make_regression(
        design, np.zeros(3), sp.Gaussian(1.0), 40, sp.RngStream(3, 1))
    assert np.array_equal(zero.y, zero.x.values @ np.zeros(3) + zero.eps)
    # identical stream, identical data
    again = sp.make_regression(design, beta0, sp.Gaussian(1.0), 40, sp.RngStream(3, 0))
    assert np.array_equal(again.x.values, reg.x.values)
    assert np.array_equal(again.y, reg.y)


def test_make_regression_validation():
    design = sp.IidCoordinates(sp.Gaussian(1.0), 3)
    noise = sp.Gaussian(1.0)
    with pytest.raises(ValueError, match="beta0 has shape"):
        sp.make_regression(design, np.ones(2), noise, 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError, match="mean-zero"):
        sp.make_regression(
            design, np.ones(3), sp.Exponential(1.0), 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError, match="beta0 has shape"):
        sp.make_regression(design, None, noise, 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError, match="n must be"):
        sp.make_regression(design, np.ones(3), noise, 0, sp.RngStream(0, 0))
