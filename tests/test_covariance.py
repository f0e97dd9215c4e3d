"""Covariance module tests: estimators, RIP oracles, RE verification."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from subweibull import covariance as cv
from subweibull import samplers as sp


def _matrix(values):
    values = np.asarray(values, dtype=float)
    law = sp.IidCoordinates(sp.Gaussian(1.0), values.shape[1])
    return sp.DataMatrix(values.shape[0], values.shape[1], values, law)


def test_gram_examples():
    assert np.array_equal(
        cv.gram(_matrix([[1.0, 0.0], [0.0, 1.0]])), np.diag([0.5, 0.5])
    )
    x = np.array([[2.0, -1.0]])
    assert np.array_equal(cv.gram(_matrix(x)), np.outer(x[0], x[0]))
    assert np.array_equal(cv.gram(_matrix(np.zeros((3, 2)))), np.zeros((2, 2)))


def test_centered_cov_examples():
    assert np.array_equal(
        cv.centered_cov(_matrix([[1.0, 2.0], [1.0, 2.0]])), np.zeros((2, 2))
    )
    assert np.array_equal(cv.centered_cov(_matrix([[1.0], [-1.0]])), [[1.0]])
    x = np.array([[1.0, 4.0], [2.0, 6.0], [3.0, 8.0]])
    shifted = _matrix(x + 1000.0)
    assert np.array_equal(cv.centered_cov(_matrix(x)), cv.centered_cov(shifted))
    with pytest.raises(ValueError):
        cv.centered_cov(_matrix([[1.0, 2.0]]))


def test_max_elementwise_error():
    a = np.diag([1.0, 1.0])
    assert cv.max_elementwise_error(a, a) == 0.0
    assert cv.max_elementwise_error(a, np.diag([0.5, 1.0])) == 0.5
    # only the upper triangle is scanned
    perturbation = np.array([[0.0, 0.3], [-0.3, 0.0]])
    assert cv.max_elementwise_error(a, a - perturbation) == 0.3
    lower_larger = np.array([[0.0, 0.1], [5.0, 0.0]])
    assert cv.max_elementwise_error(a, a + lower_larger) == 0.1
    lower_nan = np.array([[1.0, 0.2], [np.nan, 1.0]])
    assert cv.max_elementwise_error(lower_nan, a) == 0.2
    with pytest.raises(ValueError):
        cv.max_elementwise_error(a, np.eye(3))
    with pytest.raises(ValueError):
        cv.max_elementwise_error(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="equal shapes"):
        cv.max_elementwise_error(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))


def test_max_elementwise_error_matches_triu_reference():
    # bit for bit the max of |triu(a - b)|, with nan and +-inf below the
    # diagonal and signed zeros anywhere
    rng = np.random.default_rng(13)
    for p in range(1, 9):
        cases = [(np.full((p, p), -0.0), np.zeros((p, p)))]
        for _ in range(30):
            a = rng.standard_normal((p, p))
            b = rng.standard_normal((p, p))
            zeros = rng.random((p, p)) < 0.3
            a[zeros] = -0.0
            b[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            rows, cols = np.tril_indices(p, -1)
            if rows.size:
                pick = rng.integers(0, rows.size, size=min(3, rows.size))
                bad = rng.choice([np.nan, np.inf, -np.inf], size=(2, pick.size))
                a[rows[pick], cols[pick]] = bad[0]
                b[rows[pick[:1]], cols[pick[:1]]] = bad[1, :1]
            cases.append((a, b))
        for a, b in cases:
            with np.errstate(invalid="ignore"):
                expected = np.max(np.abs(np.triu(a - b)))
                got = cv.max_elementwise_error(a, b)
            assert np.float64(got).view(np.uint64) == expected.view(np.uint64), (a, b)


@pytest.mark.parametrize("p", [1, 5, 50])
@pytest.mark.parametrize("n", [1, 2, 20, 250])
def test_kernels_on_a_stack_match_each_matrix(p, n):
    law = sp.IidCoordinates(sp.SymmetricWeibull(1.0), p)
    streams = [sp.RngStream(11, 8 * r) for r in range(4)]
    stack = sp.draw_stack(law, n, streams)
    target = np.diag(law.coordinate_variances)
    for kernel in [cv.gram] + ([cv.centered_cov] if n >= 2 else []):
        stacked = kernel(stack)
        errors = cv.max_elementwise_error(stacked, target)
        assert errors.shape == (4,)
        assert np.array_equal(cv.max_elementwise_error(stacked, stacked), np.zeros(4))
        for r, stream in enumerate(streams):
            x = sp.draw_matrix(law, n, stream)
            assert np.array_equal(stack.values[r].view(np.uint64),
                                  x.values.view(np.uint64))
            alone = kernel(x)
            assert np.array_equal(stacked[r].view(np.uint64), alone.view(np.uint64))
            error = cv.max_elementwise_error(alone, target)
            assert type(error) is float
            assert np.float64(error).view(np.uint64) == errors[r].view(np.uint64)


def test_delta_bound_values():
    threshold, prob = cv.delta_bound(0.0, 0.0, 100, 10, 1.0, 2.0)
    assert threshold == 0.0
    assert prob == pytest.approx(3.0 * math.exp(-2.0))
    threshold, _ = cv.delta_bound(1.0, 1.0, 100, 1, 1.0, 0.0)
    assert threshold == 0.0  # both addends vanish at p = 1, t = 0
    threshold, prob = cv.delta_bound(1.0, 0.0, 400, 100, 1.0, 0.0)
    assert threshold == pytest.approx(1.0621989905696023, rel=1e-12)
    assert prob == 1.0  # 3 e^0 clamps
    _, centered_prob = cv.delta_bound(0.0, 0.0, 100, 10, 1.0, 2.0, centered=True)
    assert centered_prob == pytest.approx(6.0 * math.exp(-2.0))
    with pytest.raises(ValueError):
        cv.delta_bound(1.0, 1.0, 100, 10, 2.5, 1.0)


def test_delta_bound_second_term():
    # alpha = 2: c * k^2 * log(2n) * (t + 2 log p) / n on top of the sqrt term
    n, p, t = 50, 4, 1.5
    u = t + 2.0 * math.log(p)
    threshold, _ = cv.delta_bound(0.0, 2.0, n, p, 2.0, t)
    assert threshold == pytest.approx(4.0 * math.log(2.0 * n) * u / n, rel=1e-12)


def test_rip_exact_examples():
    assert cv.rip_exact(np.diag([0.5, -0.2]), 1) == 0.5
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert cv.rip_exact(flip, 2) == pytest.approx(1.0)
    assert cv.rip_exact(flip, 1) == 0.0
    with pytest.raises(ValueError):
        cv.rip_exact(np.eye(3), 4)
    with pytest.raises(ValueError):
        cv.rip_exact(np.eye(100), 8)  # beyond the enumeration cap


def test_rip_exact_monotone_in_k():
    gen = np.random.default_rng(7)
    for _ in range(20):
        d = gen.standard_normal((8, 8))
        d = (d + d.T) / 2.0
        values = [cv.rip_exact(d, k) for k in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_rip_exact_random_search_oracle():
    # 1e6 random 3-sparse unit directions never beat the enumeration,
    # and an eigensolver-free power method over all supports agrees
    gen = np.random.default_rng(42)
    d = gen.standard_normal((8, 8))
    d = (d + d.T) / 2.0
    exact = cv.rip_exact(d, 3)
    m = 10**6
    supports = np.argsort(gen.random((m, 8)), axis=1)[:, :3]
    directions = gen.standard_normal((m, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    blocks = d[supports[:, :, None], supports[:, None, :]]
    searched = float(
        np.max(np.abs(np.einsum("mi,mij,mj->m", directions, blocks, directions)))
    )
    assert searched <= exact + 1e-12
    assert searched >= exact - 1e-3
    refined = 0.0
    for s in itertools.combinations(range(8), 3):
        block = d[np.ix_(s, s)]
        squared = block @ block
        w = np.ones(3) / math.sqrt(3.0)
        for _ in range(300):
            step = squared @ w
            w = step / np.linalg.norm(step)
        refined = max(refined, math.sqrt(float(w @ squared @ w)))
    assert refined == pytest.approx(exact, abs=1e-6)


def test_sphere_net_covering():
    gen = np.random.default_rng(1)
    sizes = {}
    for k in (1, 2, 3, 4):
        mesh = cv._sphere_net(k)
        sizes[k] = mesh.shape[0]
        assert np.allclose(np.linalg.norm(mesh, axis=1), 1.0, atol=1e-12)
        x = gen.standard_normal((20000, k))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        nearest = np.sqrt(np.maximum(2.0 - 2.0 * (x @ mesh.T).max(axis=1), 0.0))
        assert float(nearest.max()) <= 0.25
    assert sizes[1] == 2 and sizes[2] == 25 and sizes[3] == 525
    for k in (1, 2, 3):
        assert sizes[k] <= 9**k
    with pytest.raises(ValueError):
        cv._sphere_net(5)


def test_quarter_net_structure():
    net = cv.quarter_net(1, 3)
    assert net.supports.shape[0] == 3 and len(net) == 6
    assert np.array_equal(net.supports, [[0], [1], [2]])
    assert np.array_equal(net.vectors, [[1.0], [-1.0]])
    single = cv.quarter_net(2, 2)
    assert single.supports.shape[0] == 1
    example = cv.quarter_net(2, 6)
    assert len(example) <= 15 * 81  # cardinality accounting upper bound
    # every support of range(30), each once, as sorted rows
    wide = cv.quarter_net(3, 30)
    assert wide.supports.shape[0] == math.comb(30, 3)
    assert len({tuple(row) for row in wide.supports}) == math.comb(30, 3)
    assert np.all(np.diff(wide.supports, axis=1) > 0)
    assert np.allclose(np.linalg.norm(wide.vectors, axis=1), 1.0)
    with pytest.raises(ValueError, match="enumeration cap"):
        cv.quarter_net(3, 120)
    with pytest.raises(ValueError):
        cv.quarter_net(4, 3)


def test_quarter_net_is_factored():
    # a dense form, supports x mesh rows of p floats, would take 95.8 MB
    net = cv.quarter_net(3, 20)
    assert len(net) == math.comb(20, 3) * net.vectors.shape[0]
    assert net.supports.nbytes + net.vectors.nbytes < 100_000


def test_quarter_net_covers_sparse_sphere():
    net = cv.quarter_net(3, 5)
    gen = np.random.default_rng(3)
    supports = np.argsort(gen.random((5000, 5)), axis=1)[:, :3]
    x = np.zeros((5000, 5))
    direction = gen.standard_normal((5000, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    np.put_along_axis(x, supports, direction, axis=1)
    inner = np.max([(x[:, s] @ net.vectors.T).max(axis=1) for s in net.supports],
                   axis=0)
    nearest = np.sqrt(np.maximum(2.0 - 2.0 * inner, 0.0))
    assert float(nearest.max()) <= 0.25


def test_rip_net_examples():
    net = cv.quarter_net(2, 4)
    assert cv.rip_net(np.zeros((4, 4)), 2, net) == 0.0
    assert cv.rip_net(np.eye(4), 2, net) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        cv.rip_net(np.eye(5), 2, net)
    bad = cv.QuarterNet(net.supports, 2.0 * net.vectors, 2)
    with pytest.raises(ValueError, match="unit"):
        cv.rip_net(np.eye(4), 2, bad)
    shifted = cv.QuarterNet(net.supports + 1, net.vectors, 2)
    with pytest.raises(ValueError, match="dimension"):
        cv.rip_net(np.eye(4), 2, shifted)
    with pytest.raises(ValueError, match="different k"):
        cv.rip_net(np.eye(4), 3, net)


def test_rip_net_certifies_exact():
    # exact <= 2 * net value on every random instance
    gen = np.random.default_rng(11)
    for trial in range(25):
        p, k = (10, 2) if trial % 2 == 0 else (8, 3)
        d = gen.standard_normal((p, p))
        d = (d + d.T) / 2.0
        net = cv.quarter_net(k, p)
        exact = cv.rip_exact(d, k)
        certified = cv.rip_net(d, k, net)
        assert exact <= 2.0 * certified + 1e-12
        assert certified <= exact + 1e-12  # net never exceeds the sup


def test_rip_net_matches_dense_net():
    # the dense (supports x mesh, p) net vectors as the reference
    gen = np.random.default_rng(17)
    for p, k in ((7, 1), (9, 2), (8, 3)):
        d = gen.standard_normal((p, p))
        d = (d + d.T) / 2.0
        net = cv.quarter_net(k, p)
        dense = np.zeros((len(net), p))
        rows = np.arange(len(net))[:, None]
        dense[rows, np.repeat(net.supports, len(net.vectors), axis=0)] = np.tile(
            net.vectors, (net.supports.shape[0], 1))
        reference = float(np.max(np.abs(np.einsum("ij,jk,ik->i", dense, d, dense))))
        assert cv.rip_net(d, k, net) == pytest.approx(reference, rel=1e-15)


def test_upsilon_iid_closed_form():
    # Gaussian: m4 = 3 m2^2, variance of a unit projection squared is 2 m2^2
    assert cv.upsilon_iid(1.0, 3.0, 1) == 2.0
    assert cv.upsilon_iid(1.0, 3.0, 7) == 2.0
    # heavy fourth moment concentrates on a coordinate vector
    assert cv.upsilon_iid(2.0, 24.0, 3) == pytest.approx(24.0 - 4.0)
    # light fourth moment spreads out
    assert cv.upsilon_iid(1.0, 1.0, 2) == pytest.approx(-2.0 / 2.0 + 2.0)
    with pytest.raises(ValueError):
        cv.upsilon_iid(1.0, 3.0, 0)


def test_xi_bound_values():
    zero = cv.RsConvexityParams(0.0, 0.0, 100, 10, 2, 1.0)
    assert cv.xi_bound(zero) == 0.0
    example = cv.RsConvexityParams(1.0, 0.0, 10**4, 100, 5, 1.0)
    assert cv.xi_bound(example) == pytest.approx(1.7591929827228483, rel=1e-12)
    # the polynomial term carries an extra factor k = 4
    params = cv.RsConvexityParams(0.5, 1.2, 500, 40, 4, 1.0, c_alpha=2.0)
    log_ratio = math.log(36.0 * 500 * 40 / 4)
    first = 14.0 * math.sqrt(2.0) * math.sqrt(0.5 * 4 * log_ratio / 500)
    poly = 2.0 * 1.2**2 * math.log(1000.0) ** 2 * (4 * log_ratio) ** 2 / 500
    assert cv.xi_bound(params) == pytest.approx(first + 4.0 * poly, rel=1e-12)
    with pytest.raises(ValueError):
        cv.xi_bound(cv.RsConvexityParams(1.0, 1.0, 10, 5, 7, 1.0))
    with pytest.raises(ValueError):
        cv.RsConvexityParams(1.0, 1.0, 10, 5, 2, 2.5)


def test_re_check_examples():
    report = cv.re_check(1.0, 0.0, 2)
    assert report.satisfied and report.gamma_n == 0.5
    assert report.lambda_min == 1.0
    report = cv.re_check(1.0, 1.0, 2)
    assert not report.satisfied and report.gamma_n == 0.0
    report = cv.re_check(2.0, 0.001, 1)
    assert report.satisfied and report.gamma_n == 1.0
    with pytest.raises(ValueError):
        cv.re_check(1.0, -1.0, 1)
    with pytest.raises(ValueError):
        cv.re_check(1.0, 0.0, 0)


def test_cone_min_oracle():
    assert cv.cone_min_oracle(
        np.eye(4), [0, 1], 3.0, 50, sp.RngStream(3, 1)
    ) == pytest.approx(1.0, rel=1e-12)
    # diag(1, 0) with S = {0}: cone floor is 1/(1 + delta^2) = 0.1
    # 2000 trials fit one block; at p = 2 a block holds 2^19 trials, so
    # the larger count spans four, the last one partial
    for trials in (2000, 3 * (cv._BLOCK_VALUES // 2) + 7):
        value = cv.cone_min_oracle(np.diag([1.0, 0.0]), [0], 3.0, trials,
                                   sp.RngStream(3, 0))
        assert 0.1 <= value <= 0.12
        assert value == cv.cone_min_oracle(np.diag([1.0, 0.0]), [0], 3.0,
                                           trials, sp.RngStream(3, 0))
    with pytest.raises(ValueError):
        cv.cone_min_oracle(np.eye(2), [], 3.0, 10, sp.RngStream(0, 0))
    with pytest.raises(ValueError):
        cv.cone_min_oracle(np.eye(2), [0], 0.5, 10, sp.RngStream(0, 0))
    # theta'theta overflows: a nan quotient must not pass as an inf bound
    with pytest.raises(OverflowError, match="overflowed"):
        cv.cone_min_oracle(np.eye(3), [0, 1], 1e300, 10, sp.RngStream(0, 0))


def test_cone_directions_lie_in_cone():
    gen = sp.RngStream(5, 0).generator()
    p, delta = 12, 3.0
    support = np.array([1, 4, 7])
    off = np.setdiff1d(np.arange(p), support)
    theta = cv._cone_directions(gen, p, support, off, delta, 500)
    assert theta.shape == (500, p)
    head, tail = theta[:, support], theta[:, off]
    np.testing.assert_allclose(np.linalg.norm(head, axis=1), 1.0, rtol=1e-14)
    head_l1 = np.sum(np.abs(head), axis=1)
    assert np.all(np.sum(np.abs(tail), axis=1) <= delta * head_l1 * (1.0 + 1e-14))
    # every sign occurs off the support, and the mass is not degenerate
    assert np.any(tail > 0.0) and np.any(tail < 0.0)
    assert np.all(np.sum(np.abs(tail), axis=1) > 0.0)
    # the support alone: no mass off it
    theta = cv._cone_directions(gen, 3, np.arange(3), np.arange(0), delta, 4)
    np.testing.assert_allclose(np.linalg.norm(theta, axis=1), 1.0, rtol=1e-14)


def test_re_verdicts_never_falsified():
    # satisfied => gamma_n = lambda_min / 2, while every Rayleigh ratio
    # is at least lambda_min, so the cone search cannot go below gamma_n
    gen = np.random.default_rng(17)
    for trial in range(5):
        x = gen.standard_normal((60, 5))
        sigma_hat = x.T @ x / 60.0
        report = cv.re_check(float(np.linalg.eigvalsh(sigma_hat)[0]), 1e-6, 2)
        assert report.satisfied
        floor = cv.cone_min_oracle(
            sigma_hat, [0, 1], 3.0, 400, sp.RngStream(23, trial)
        )
        assert floor >= report.gamma_n


def test_delta_star_decomposition():
    # centered error <= gram-at-true-mean error + ||mean drift||_inf^2,
    # on iid rows and on two dependent designs: z F^T and a repeated column
    factor = np.array([[1.0, 0.0], [1.0, 1.0]])
    cases = [
        (lambda gen: sp.SymmetricWeibull(1.0).sample(gen, (80, 4)),
         np.diag(np.full(4, 2.0))),
        (lambda gen: sp.SymmetricWeibull(1.0).sample(gen, (80, 2)) @ factor.T,
         2.0 * factor @ factor.T),
        (lambda gen: np.repeat(sp.Gaussian(1.0).sample(gen, (80, 1)), 3, axis=1),
         np.ones((3, 3))),
    ]
    for i, (draw, sigma_star) in enumerate(cases):
        for rep in range(10):
            x = _matrix(draw(sp.RngStream(29, 10 * i + rep).generator()))
            lhs = cv.max_elementwise_error(cv.centered_cov(x), sigma_star)
            drift = float(np.max(np.abs(x.values.mean(axis=0))))
            rhs = cv.max_elementwise_error(cv.gram(x), sigma_star) + drift**2
            assert lhs <= rhs + 1e-12
