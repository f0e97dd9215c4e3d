"""The closed-form max-average threshold: frozen values, monotonicity; the
max-average statistic it bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from subweibull import tailbounds as tb
from subweibull.orlicz import BoundConstants
from subweibull.samplers import RngStream, SymmetricWeibull

C = BoundConstants()


def test_max_average_threshold():
    thr, p = tb.max_average_threshold(0.0, 0.0, 100, 10, 1.0, 2.0, C)
    assert thr == 0.0
    assert p == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)

    thr, p = tb.max_average_threshold(1.0, 1.0, 100, 1, 1.0, 0.0, C)
    assert thr == 0.0 and p == 1.0

    thr, _ = tb.max_average_threshold(1.0, 0.0, 100, 100, 1.0, 0.0, C)
    assert thr == pytest.approx(7.0 * math.sqrt(math.log(100.0) / 100.0), rel=1e-12)
    assert thr == pytest.approx(1.5021762184025431, rel=1e-10)

    # second term arithmetic, alpha* = min(alpha, 1)
    thr, _ = tb.max_average_threshold(0.0, 2.0, 10, 5, 0.5, 1.0, C)
    u = 1.0 + math.log(5.0)
    assert thr == pytest.approx(2.0 * math.log(20.0) ** 2 * u ** 2 / 10.0, rel=1e-12)


def test_max_average_threshold_monotonicity():
    ts = np.linspace(0.0, 8.0, 30)
    vals = [tb.max_average_threshold(1.0, 2.0, 500, 40, 0.7, float(t), C) for t in ts]
    thr = np.array([v[0] for v in vals])
    prob = np.array([v[1] for v in vals])
    assert np.all(np.diff(thr) >= 0)
    assert np.all(np.diff(prob) <= 0)
    lo, _ = tb.max_average_threshold(1.0, 1.0, 500, 40, 0.7, 2.0, C)
    hi, _ = tb.max_average_threshold(2.0, 3.0, 500, 40, 0.7, 2.0, C)
    assert hi >= lo


@pytest.mark.parametrize("n", [3, 7, 10, 1000])
def test_max_average_matches_divide_first_forms(n):
    # max_j |S_j| / n against dividing first, max_j |S_j / n|, and against
    # np.max over rows then dividing, bit for bit
    x = SymmetricWeibull(0.5).sample(RngStream(36, n).generator(), (200, n, 10))
    sums = np.add.reduce(x, axis=1)
    stat = tb.max_average(sums, n)
    assert stat.shape == (200,)
    for old in (np.max(np.abs(sums / n), axis=-1),
                np.max(np.abs(sums), axis=1) / n):
        assert np.array_equal(stat.view(np.uint64), old.view(np.uint64))
    for rep in range(200):
        assert tb.max_average(sums[rep], n) == stat[rep]
