"""Array factors, phase profiles and average misalignment gains."""

import math

import numpy as np
import pytest
from scipy.special import j0

from riscov.beamforming import (
    _fejer_mean,
    average_gains,
    fejer_kernel,
    mean_direct_interference_gain,
    profile_gain,
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


def _direct_gain(arrival, beam, cfg):
    """Gain of a BS-user link whose beams aim at ``beam`` = (BS AoD, user
    AoA) while the path leaves and arrives at ``arrival``."""
    bs_off, u_off = (
        spatial_frequency(a, cfg) - spatial_frequency(b, cfg) for a, b in zip(arrival, beam)
    )
    return fejer_kernel(bs_off, cfg.n_bs) * fejer_kernel(u_off, cfg.n_u) / (cfg.n_bs * cfg.n_u)


def _aligned_profile(delta, n):
    """Element weights exp(-i psi_m) of the profile aligned to offset delta."""
    return np.exp(-2j * math.pi * np.arange(n) * delta)[None, :]


def test_direct_gain_aligned_is_element_product(cfg):
    angles = (0.7, -1.1)
    assert _direct_gain(angles, angles, cfg) == pytest.approx(cfg.n_bs * cfg.n_u)


def test_direct_gain_misaligned_below_aligned(cfg):
    rng = np.random.default_rng(3)
    aligned = cfg.n_bs * cfg.n_u
    for _ in range(16):
        arrival, beam = rng.uniform(0.0, 2 * math.pi, size=(2, 2))
        assert _direct_gain(arrival, beam, cfg) <= aligned + 1e-9


def test_optimal_phases_reach_full_array_gain(cfg):
    rng = np.random.default_rng(4)
    for _ in range(8):
        theta_u, phi_g = rng.uniform(0.0, 2 * math.pi, size=2)
        delta = spatial_frequency(theta_u, cfg) - spatial_frequency(phi_g, cfg)
        gain = profile_gain(np.array([delta]), _aligned_profile(delta, cfg.n_ris), 0)
        assert gain[0] == pytest.approx(cfg.n_ris**2, rel=1e-9)


@pytest.mark.parametrize("n", (1, 4, 128))
def test_loaded_profile_gain_is_shifted_fejer_kernel(n):
    """The closed form Monte Carlo uses for a loaded reflector equals the
    element sum it runs for an idle one."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, size=64)
    delta = rng.uniform(-1.0, 1.0)
    gain = profile_gain(x, _aligned_profile(delta, n), 0)
    np.testing.assert_allclose(gain, fejer_kernel(x - delta, n), rtol=1e-9, atol=0.0)


def test_reflected_serving_gain(cfg):
    assert serving_gains(cfg)[1] == cfg.n_bs * cfg.n_u * cfg.n_ris**2


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


@pytest.mark.parametrize("n", (2, 3, 8, 64, 128, 256, 1024))
@pytest.mark.parametrize("delta", (0.25, 0.37, 0.5))
def test_four_angle_mean_matches_bessel_series(n, delta):
    """The periodic-grid J0 reproduces the harmonic series with scipy's J0."""
    m = np.arange(1, n)
    series = n + 2.0 * np.sum((n - m) * j0(2 * math.pi * delta * m) ** 4)
    assert _fejer_mean(n, delta, 4) == pytest.approx(series, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", (1, 2, 4, 8, 16, 64))
@pytest.mark.parametrize("delta", (0.25, 0.5, 1.0))
def test_two_angle_mean_matches_angle_grid(n, delta):
    """The J0 series reproduces the mean of the kernel on a uniform k x k
    angle grid, k = max(64, 16n), which converges exponentially because the
    integrand is periodic."""
    k = max(64, 16 * n)
    a = 2 * math.pi * np.arange(k) / k
    grid = fejer_kernel(delta * (np.sin(a)[:, None] - np.sin(a)[None, :]), n).mean()
    assert _fejer_mean(n, delta, 2) == pytest.approx(grid, rel=1e-13, abs=0.0)


def test_angle_shift_invariance():
    """Misalignment statistics do not depend on a common angle offset.

    The kernel is a smooth periodic function of both angles, so the
    periodic grid's mean is shift-free to rounding at 256 points; a wider
    limit guard in `fejer_kernel` (|sin| < 1e-2 in place of 1e-9) moves it
    by 9e-6 here."""
    n, delta = 8, 0.5
    k = 256
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
