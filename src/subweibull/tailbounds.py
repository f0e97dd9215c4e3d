"""Explicit finite-sample deviation threshold for maxima of averages.

`max_average_threshold` evaluates a closed-form uniform deviation
threshold for the maximum of q coordinate averages of independent
heavy-tailed vectors, paired with a 3 exp(-t) probability bound;
nothing is estimated.  `max_average` is the statistic it bounds,
computed from the coordinates' column sums.

The theorem behind the formula proves the existence of an
alpha-dependent constant without pinning its value; it enters through
``c_alpha_thm34`` of :class:`subweibull.orlicz.BoundConstants` (default
1.0), which the runner echoes into every run's manifest so results
are reproducible under any configuration.  The probability bound is
clamped to [0, 1]; the threshold is reported unclamped.
"""

from __future__ import annotations

import math

import numpy as np

from .orlicz import BoundConstants

__all__ = ["max_average", "max_average_threshold"]


def max_average(sums, n: int):
    """max_j |S_j| / n over the last axis of column sums S of n rows.

    Rounding is monotone, so this is max_j |S_j / n| bit for bit, with
    one division per maximum instead of one per coordinate.
    """
    return np.maximum.reduce(np.abs(sums), axis=-1) / n


def max_average_threshold(
    gamma: float,
    K: float,
    n: int,
    q: int,
    alpha: float,
    t: float,
    constants: BoundConstants,
) -> tuple[float, float]:
    """Uniform deviation threshold for the max of q coordinate averages.

    For n independent mean-zero vectors whose coordinates have second
    moments at most gamma and psi_alpha norms at most K,

        max_j |n^{-1} sum_i X_i(j)|

    exceeds

        7 sqrt(gamma (t + log q) / n)
        + c * K (log 2n)^(1/alpha) (t + log q)^(1/alpha*) / n

    with probability at most 3 exp(-t), where alpha* = min(alpha, 1)
    and c = constants.c_alpha_thm34.
    """
    if gamma < 0 or K < 0:
        raise ValueError("gamma and K must be nonnegative")
    if n < 1 or q < 1:
        raise ValueError("n and q must be at least 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = t + math.log(q)
    alpha_star = min(alpha, 1.0)
    threshold = 7.0 * math.sqrt(gamma * u / n)
    if u > 0:
        threshold += (
            constants.c_alpha_thm34
            * K
            * math.log(2.0 * n) ** (1.0 / alpha)
            * u ** (1.0 / alpha_star)
            / n
        )
    return threshold, min(1.0, 3.0 * math.exp(-t))
