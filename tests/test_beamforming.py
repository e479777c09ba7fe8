"""Array factors, phase profiles and average misalignment gains."""

import math

import numpy as np
import pytest

from riscov.beamforming import (
    RisPhaseProfile,
    SteeringAngleSet,
    average_gains,
    direct_gain,
    fejer_kernel,
    mean_direct_interference_gain,
    optimal_ris_phases,
    reflected_gain_serving,
    ris_array_gain,
    serving_gains,
    spatial_frequency,
)
from riscov.config import NetworkConfig


def test_fejer_kernel_peak_and_periodicity():
    for n in (1, 4, 8):
        assert fejer_kernel(0.0, n) == pytest.approx(n * n)
        assert fejer_kernel(1.0, n) == pytest.approx(n * n)  # period one
    # half-period null pattern of an even-length array
    assert fejer_kernel(0.5, 8) == pytest.approx(0.0, abs=1e-20)


def test_fejer_kernel_hand_value():
    # x = 1/(2n): sin^2(pi/2) / sin^2(pi/(2n))
    n = 8
    expected = 1.0 / math.sin(math.pi / (2 * n)) ** 2
    assert fejer_kernel(1.0 / (2 * n), n) == pytest.approx(expected, rel=1e-12)


def test_fejer_kernel_matches_sum_definition():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1.0, 1.0, size=8):
        for n in (2, 5, 16):
            direct = abs(np.exp(2j * math.pi * x * np.arange(n)).sum()) ** 2
            assert fejer_kernel(x, n) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_fejer_kernel_rejects_bad_count():
    with pytest.raises(ValueError):
        fejer_kernel(0.1, 0)


def test_spatial_frequency(cfg):
    assert spatial_frequency(0.0, cfg) == 0.0
    assert spatial_frequency(math.pi / 2, cfg) == pytest.approx(0.5)
    assert spatial_frequency(-math.pi / 2, cfg) == pytest.approx(-0.5)


def test_direct_gain_aligned_is_element_product(cfg):
    angles = SteeringAngleSet(theta_d=0.7, phi_d=-1.1)
    assert direct_gain(angles, angles, cfg) == pytest.approx(cfg.n_bs * cfg.n_u)


def test_direct_gain_misaligned_below_aligned(cfg):
    rng = np.random.default_rng(3)
    aligned = cfg.n_bs * cfg.n_u
    for _ in range(16):
        angles = SteeringAngleSet.random(rng)
        target = SteeringAngleSet.random(rng)
        assert direct_gain(angles, target, cfg) <= aligned + 1e-9


def test_optimal_phases_reach_full_array_gain(cfg):
    rng = np.random.default_rng(4)
    for _ in range(8):
        theta_u, phi_g = rng.uniform(0.0, 2 * math.pi, size=2)
        phases = optimal_ris_phases(theta_u, phi_g, cfg)
        gain = ris_array_gain(theta_u, phi_g, phases, cfg)
        assert gain == pytest.approx(cfg.n_ris**2, rel=1e-9)


def test_ris_array_gain_checks_profile_length(cfg):
    with pytest.raises(ValueError):
        ris_array_gain(0.1, 0.2, RisPhaseProfile(np.zeros(3)), cfg)


def test_reflected_serving_gain(cfg):
    assert reflected_gain_serving(cfg) == cfg.n_bs * cfg.n_u * cfg.n_ris**2


def test_serving_gains_by_scheme():
    cfg1 = NetworkConfig()
    cfg2 = cfg1.replace(antenna_scheme="scheme2")
    d1, r1 = serving_gains(cfg1)
    d2, r2 = serving_gains(cfg2)
    aligned_direct = cfg1.n_bs * cfg1.n_u
    # scheme1 sacrifices the direct link for the fully aligned reflection
    assert r1 == pytest.approx(aligned_direct * cfg1.n_ris**2)
    assert d1 < aligned_direct
    # scheme2 does the opposite
    assert d2 == pytest.approx(aligned_direct)
    assert r2 < r1
    # without reflectors both schemes collapse to the aligned direct link
    assert serving_gains(cfg1.replace(lambda_ris=0.0)) == (aligned_direct, 0.0)


def test_average_gain_relations(cfg):
    g = average_gains(cfg)
    assert g.m_bs_rl == pytest.approx(g.m_bs_dl / cfg.n_bs)
    assert g.m_u_rl == pytest.approx(g.m_u_dl / cfg.n_u)
    assert g.m_r_rl_idle == cfg.n_ris
    assert mean_direct_interference_gain(cfg) == pytest.approx(
        g.m_bs_dl * g.m_u_dl / (cfg.n_bs * cfg.n_u)
    )


def test_two_angle_mean_against_sampling(cfg):
    """Quadrature mean of the misalignment kernel vs a direct sample mean."""
    rng = np.random.default_rng(6)
    a, b = rng.uniform(0.0, 2 * math.pi, size=(2, 1_000_000))
    offset = cfg.d_over_omega * (np.sin(a) - np.sin(b))
    sampled = fejer_kernel(offset, cfg.n_bs).mean()
    assert average_gains(cfg).m_bs_dl == pytest.approx(sampled, rel=0.01)


def test_four_angle_mean_against_sampling():
    """Harmonic-series mean of the reflector kernel vs a direct sample mean."""
    cfg = NetworkConfig(n_ris=16)
    rng = np.random.default_rng(7)
    a, b, c, d = rng.uniform(0.0, 2 * math.pi, size=(4, 1_000_000))
    offset = cfg.d_over_omega * (np.sin(a) - np.sin(b) + np.sin(c) - np.sin(d))
    sampled = fejer_kernel(offset, cfg.n_ris).mean()
    assert average_gains(cfg).m_r_rl == pytest.approx(sampled, rel=0.01)


def test_angle_shift_invariance():
    """Misalignment statistics do not depend on a common angle offset."""
    n, delta = 8, 0.5
    k = 4096
    base = 2 * math.pi * np.arange(k) / k
    reference = None
    for shift in (0.0, 0.4, 1.9):
        a = base + shift
        diff = delta * (np.sin(a)[:, None] - np.sin(a)[None, :])
        mean = fejer_kernel(diff, n).mean()
        if reference is None:
            reference = mean
        else:
            assert mean == pytest.approx(reference, rel=1e-6)
