"""ULA and RIS array gains: Fejér kernels, phase profiles, average gains.

Spatial frequencies are differences of (d/omega)*sin(angle); every gain here
is a product of Fejér kernels evaluated at such offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._quad import refined
from .config import NetworkConfig

_TWO_PI = 2.0 * math.pi


def _wrap(angle: float) -> float:
    return float(np.mod(angle, _TWO_PI))


@dataclass(frozen=True)
class SteeringAngleSet:
    """Departure/arrival angles of one BS-user link and its reflected path."""

    theta_d: float = 0.0  # BS AoD, direct link
    phi_d: float = 0.0    # user AoA, direct link
    theta_g: float = 0.0  # BS AoD toward the RIS
    phi_g: float = 0.0    # RIS AoA from the BS
    theta_u: float = 0.0  # RIS AoD toward the user
    phi_u: float = 0.0    # user AoA from the RIS

    def __post_init__(self) -> None:
        for name in ("theta_d", "phi_d", "theta_g", "phi_g", "theta_u", "phi_u"):
            object.__setattr__(self, name, _wrap(getattr(self, name)))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "SteeringAngleSet":
        return cls(*rng.uniform(0.0, _TWO_PI, size=6))


@dataclass(frozen=True, eq=False)
class RisPhaseProfile:
    psi: np.ndarray = field(repr=False)  # one phase per element, radians

    def __post_init__(self) -> None:
        psi = np.mod(np.asarray(self.psi, dtype=float).ravel(), _TWO_PI)
        if psi.size < 1:
            raise ValueError("phase profile must contain at least one element")
        object.__setattr__(self, "psi", psi)

    def __len__(self) -> int:
        return self.psi.size


@dataclass(frozen=True)
class AverageGains:
    """Mean gains of randomly oriented interfering links (per array factor)."""

    m_bs_dl: float       # BS factor, direct link (unnormalized Fejér mean)
    m_u_dl: float        # user factor, direct link
    m_bs_rl: float       # BS factor, reflected link (normalized by n_bs)
    m_u_rl: float        # user factor, reflected link (normalized by n_u)
    m_r_rl: float        # RIS factor toward an active RIS
    m_r_rl_idle: float   # RIS factor toward an idle (random-phase) RIS


def fejer_kernel(offset, n: int):
    """sin^2(pi*n*x)/sin^2(pi*x) with the n^2 limit at integer x."""
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    x = np.asarray(offset, dtype=float)
    s = np.sin(np.pi * x)
    near = np.abs(s) < 1e-9
    ratio = np.sin(np.pi * n * x) / np.where(near, 1.0, s)
    out = np.minimum(np.where(near, float(n) * n, ratio**2), float(n) * n)
    return float(out) if out.ndim == 0 else out


def spatial_frequency(angle, cfg: NetworkConfig):
    """Normalized spatial frequency (d/omega)*sin(angle) of a ULA direction."""
    return cfg.d_over_omega * np.sin(np.asarray(angle, dtype=float))


def direct_gain(
    angles: SteeringAngleSet, beam_target: SteeringAngleSet, cfg: NetworkConfig
) -> float:
    """Gain of a BS-user link whose beams point at ``beam_target``."""
    bs_off = spatial_frequency(angles.theta_d, cfg) - spatial_frequency(beam_target.theta_d, cfg)
    u_off = spatial_frequency(angles.phi_d, cfg) - spatial_frequency(beam_target.phi_d, cfg)
    return (
        fejer_kernel(bs_off, cfg.n_bs) * fejer_kernel(u_off, cfg.n_u) / (cfg.n_bs * cfg.n_u)
    )


def optimal_ris_phases(theta_u: float, phi_g: float, cfg: NetworkConfig) -> RisPhaseProfile:
    """Element phases that align the reflection toward the served user."""
    delta = spatial_frequency(theta_u, cfg) - spatial_frequency(phi_g, cfg)
    n = np.arange(cfg.n_ris, dtype=float)
    return RisPhaseProfile(_TWO_PI * n * delta)


def ris_array_gain(
    theta_u: float, phi_g: float, phases: RisPhaseProfile, cfg: NetworkConfig
) -> float:
    """|sum_n exp(j(2pi(n-1)(nu_u - nu_g) - psi_n))|^2 for one reflected path."""
    if len(phases) != cfg.n_ris:
        raise ValueError(f"phase profile has {len(phases)} elements, config says {cfg.n_ris}")
    delta = spatial_frequency(theta_u, cfg) - spatial_frequency(phi_g, cfg)
    n = np.arange(cfg.n_ris, dtype=float)
    return float(np.abs(np.exp(1j * (_TWO_PI * n * delta - phases.psi)).sum()) ** 2)


def reflected_gain_serving(cfg: NetworkConfig) -> float:
    """Gain of the serving reflected path under the optimal phase profile."""
    return float(cfg.n_bs * cfg.n_u * cfg.n_ris**2)


# -- average gains ----------------------------------------------------------


def _fejer_mean_grid(n: int, delta: float, k: int) -> float:
    """Mean of fejer(delta*(sin a - sin b), n) on a k x k uniform angle grid."""
    a = _TWO_PI * np.arange(k) / k
    diff = delta * (np.sin(a)[:, None] - np.sin(a)[None, :])
    return float(fejer_kernel(diff, n).mean())


def _fejer_mean_two_angles(n: int, delta: float) -> float:
    """Mean Fejér gain over two independent uniform angles.

    The integrand is periodic, so the uniform grid converges exponentially;
    the doubled grid serves as the convergence check.
    """
    if n == 1:
        return 1.0
    k = max(64, 16 * n)
    coarse = _fejer_mean_grid(n, delta, k)
    fine = _fejer_mean_grid(n, delta, 2 * k)
    return refined(coarse, fine, f"angle average for n={n}", 1e-8, floor=1.0)


def _bessel_j0_grid(z: np.ndarray, k: int) -> np.ndarray:
    """J0(z) as the mean of cos(z*sin a) on k uniform angles a in [0, pi).

    The integrand has period pi, so the rule is off by 2*J_2k(z) + ..., which
    falls below 1e-17 once 2k exceeds z by 15*z^(1/3) (Trefethen & Weideman,
    SIAM Review 2014).
    """
    a = np.pi * np.arange(k) / k
    return np.cos(np.multiply.outer(z, np.sin(a))).mean(axis=-1)


def _fejer_mean_four_angles(n: int, delta: float) -> float:
    """Mean Fejér gain over the four angles of an interfering reflected path.

    Expanding the kernel in harmonics, each uniform angle contributes a
    J0(2*pi*m*delta) factor, leaving n + 2*sum_{m<n} (n-m)*J0(2*pi*m*delta)^4;
    the J0 grid is sized to the largest argument and checked against the
    doubled grid.
    """
    if n == 1:
        return 1.0
    m = np.arange(1, n)
    z = _TWO_PI * delta * m
    k = 8 + math.ceil(0.5 * z[-1] + 8.0 * np.cbrt(z[-1]))  # 2k >= z + 16 z^(1/3) + 16
    coarse, fine = (
        float(n + 2.0 * np.sum((n - m) * _bessel_j0_grid(z, size) ** 4)) for size in (k, 2 * k)
    )
    return refined(coarse, fine, f"four-angle average for n={n}", 1e-13)


@lru_cache(maxsize=64)
def _average_gains_cached(n_bs: int, n_u: int, n_ris: int, delta: float) -> AverageGains:
    m_bs_dl = _fejer_mean_two_angles(n_bs, delta)
    m_u_dl = _fejer_mean_two_angles(n_u, delta)
    return AverageGains(
        m_bs_dl=m_bs_dl,
        m_u_dl=m_u_dl,
        m_bs_rl=m_bs_dl / n_bs,
        m_u_rl=m_u_dl / n_u,
        m_r_rl=_fejer_mean_four_angles(n_ris, delta),
        m_r_rl_idle=float(n_ris),
    )


def average_gains(cfg: NetworkConfig) -> AverageGains:
    """Mean interference gains over uniformly random link geometries.

    Direct-link factors are stored unnormalized (mean of the raw kernel), so
    E[direct interferer gain] = m_bs_dl*m_u_dl/(n_bs*n_u). Reflected-link BS
    and user factors are stored normalized, so E[reflected interferer gain] =
    m_bs_rl*m_u_rl*m_r_rl. Results are memoized per array geometry.
    """
    return _average_gains_cached(cfg.n_bs, cfg.n_u, cfg.n_ris, cfg.d_over_omega)


def mean_direct_interference_gain(cfg: NetworkConfig) -> float:
    g = average_gains(cfg)
    return g.m_bs_dl * g.m_u_dl / (cfg.n_bs * cfg.n_u)


def mean_reflected_interference_gain(cfg: NetworkConfig, idle: bool = False) -> float:
    g = average_gains(cfg)
    ris_factor = g.m_r_rl_idle if idle else g.m_r_rl
    return g.m_bs_rl * g.m_u_rl * ris_factor


def serving_gains(cfg: NetworkConfig) -> tuple[float, float]:
    """(direct, reflected) serving gains under the configured antenna scheme.

    scheme1 aims both beams at the reflected path: the reflected link gets the
    fully aligned gain and the direct link the average misaligned one.
    scheme2 aims at the direct path, swapping the roles; the RIS itself is
    still phase-aligned to the served user in both schemes.
    """
    g = average_gains(cfg)
    aligned_direct = float(cfg.n_bs * cfg.n_u)
    if cfg.lambda_ris == 0.0:
        # no reflected path exists; beams can only point at the direct link
        return aligned_direct, 0.0
    if cfg.antenna_scheme == "scheme1":
        return (
            g.m_bs_dl * g.m_u_dl / (cfg.n_bs * cfg.n_u),
            reflected_gain_serving(cfg),
        )
    return aligned_direct, g.m_bs_rl * g.m_u_rl * cfg.n_ris**2
