"""Blockage model, path loss and segment-crossing geometry."""

import math

import numpy as np
import pytest

from riscov.config import NetworkConfig
from riscov.propagation import (
    blockage_density,
    crossings,
    los_probability,
    path_loss,
    segment_endpoints,
)


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
