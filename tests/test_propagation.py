"""LOS law and path loss, and the line-Boolean blockage model whose
crossing statistics give the LOS law exp(-beta x)."""

import math

import numpy as np
import pytest

from riscov.config import NetworkConfig
from riscov.propagation import los_probability, path_loss

# -- line-Boolean blockage oracle ---------------------------------------------
#
# Both engines draw each link's state independently with probability
# exp(-beta x). The blockages the paper models are line segments with
# Poisson midpoints and isotropic orientations; these helpers realize such a
# field so the tests below can check that it implies that law.


def segment_endpoints(
    mid: np.ndarray, length: np.ndarray, orientation: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) arrays of both endpoints of segments given by their (n, 2)
    midpoints, lengths and orientations [rad]."""
    half = 0.5 * length[:, None] * np.column_stack((np.cos(orientation), np.sin(orientation)))
    return mid - half, mid + half


def crossings(a: np.ndarray, b: np.ndarray, seg_p: np.ndarray, seg_q: np.ndarray) -> np.ndarray:
    """(n_link, n_seg) matrix: whether link a[i] -> b[i] properly crosses the
    segment seg_p[j] -- seg_q[j]. Touching an endpoint is not a crossing; it
    has probability zero for segments drawn from a continuous law."""

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    ab = (b - a)[:, None, :]
    pq = (seg_q - seg_p)[None, :, :]
    d1 = cross(ab, seg_p[None, :, :] - a[:, None, :])
    d2 = cross(ab, seg_q[None, :, :] - a[:, None, :])
    d3 = cross(pq, a[:, None, :] - seg_p[None, :, :])
    d4 = cross(pq, b[:, None, :] - seg_p[None, :, :])
    return (d1 * d2 < 0.0) & (d3 * d4 < 0.0)


def blockage_density(beta: float, mean_length: float) -> float:
    """Line-segment midpoint density reproducing p_los(x) = exp(-beta*x).

    For a Boolean model of segments with isotropic orientation, the mean
    number of crossings of a length-x link is (2/pi)*density*E[L]*x, so the
    density pi*beta/(2*E[L]) makes the LOS probability exactly exp(-beta*x).
    """
    if mean_length <= 0:
        raise ValueError(f"mean blockage length must be positive, got {mean_length}")
    return math.pi * beta / (2.0 * mean_length)


def test_los_probability_values():
    assert los_probability(0.0, 0.01) == 1.0
    assert los_probability(100.0, 0.01) == pytest.approx(math.exp(-1.0))
    np.testing.assert_allclose(
        los_probability([50.0, 200.0], 0.01), [math.exp(-0.5), math.exp(-2.0)]
    )


def test_path_loss_hand_values(cfg):
    los, nlos = path_loss(np.array([100.0, 100.0]), np.array([True, False]), cfg)
    assert los == pytest.approx(cfg.c_los * 1e-4, rel=1e-12)
    assert nlos == pytest.approx(cfg.c_nlos * 1e-8, rel=1e-12)
    # the NLOS law decays two extra orders per decade
    assert los / nlos == pytest.approx(1e4, rel=1e-12)


def test_path_loss_below_cutoff(cfg):
    # distances below the model cutoff r_min are clamped to it
    below = path_loss(np.array([0.5 * cfg.r_min, 0.0]), np.array([True, False]), cfg)
    at = path_loss(np.full(2, cfg.r_min), np.array([True, False]), cfg)
    np.testing.assert_array_equal(below, at)


def test_segment_endpoints():
    p, q = segment_endpoints(np.array([[1.0, 2.0]]), np.array([2.0]), np.array([0.0]))
    np.testing.assert_allclose(p, [[0.0, 2.0]])
    np.testing.assert_allclose(q, [[2.0, 2.0]])


def test_segment_blocks_crossing():
    # one vertical segment of length 2 centred on the origin
    seg_p, seg_q = segment_endpoints(
        np.zeros((1, 2)), np.array([2.0]), np.array([math.pi / 2])
    )
    a = np.array([[-1.0, 0.2], [-1.0, 1.5], [0.5, 0.2]])
    b = np.array([[1.0, 0.2], [1.0, 1.5], [1.5, 0.2]])
    # crossing, passing above the segment tip, short link on one side
    np.testing.assert_array_equal(crossings(a, b, seg_p, seg_q), [[True], [False], [False]])
    # no segments: an empty column per link
    none = crossings(a, b, np.empty((0, 2)), np.empty((0, 2)))
    assert none.shape == (3, 0)
    assert not none.any(axis=1).any()


def test_blockage_density_matches_decay_rate():
    # Boolean model: mean crossings of a length-x link are
    # (2/pi) * density * E[L] * x, so this density gives exactly beta * x
    beta, mean_len = 0.01, 10.0
    density = blockage_density(beta, mean_len)
    assert density == pytest.approx(math.pi * beta / (2.0 * mean_len))
    assert (2.0 / math.pi) * density * mean_len == pytest.approx(beta)
    with pytest.raises(ValueError):
        blockage_density(beta, 0.0)


def test_blockage_crossing_rate_empirical():
    """Random segments cross a test link at the rate the density formula says."""
    rng = np.random.default_rng(42)
    beta, mean_len, x = 0.02, 10.0, 150.0
    density = blockage_density(beta, mean_len)
    window = 260.0  # covers the link plus the longest possible segment reach
    area = (2.0 * window) ** 2
    hits = 0
    trials = 3000
    tx, rx = np.array([[-x / 2, 0.0]]), np.array([[x / 2, 0.0]])
    for _ in range(trials):
        count = rng.poisson(density * area)
        mids = rng.uniform(-window, window, size=(count, 2))
        angles = rng.uniform(0.0, math.pi, size=count)
        lengths = rng.uniform(5.0, 15.0, size=count)
        hits += int(crossings(tx, rx, *segment_endpoints(mids, lengths, angles)).sum())
    mean_crossings = hits / trials
    assert mean_crossings == pytest.approx(beta * x, rel=0.05)
