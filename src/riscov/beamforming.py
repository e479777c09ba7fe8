"""ULA and RIS array gains: Fejér kernels, phase profiles, average gains.

Spatial frequencies are differences of (d/omega)*sin(angle); every gain here
is a product of Fejér kernels, or of a reflector's phase-profile sum,
evaluated at such offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import refined
from .config import NetworkConfig

_TWO_PI = 2.0 * math.pi


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


# complex elements in one chunk of the phase-profile sum (256 KiB, which
# stays in cache), so memory stays flat however many reflectors are summed
_IDLE_BLOCK_ELEMENTS = 2**14


def profile_gain(offset: np.ndarray, profile: np.ndarray, row) -> np.ndarray:
    """|sum_m exp(2 pi i m x) * profile[row, m]|^2 at each offset x, where
    each row of ``profile`` holds one reflector's element weights
    exp(-i psi_m) and ``row`` (an array like ``offset``, or one index)
    picks each offset's reflector.

    The m-th phase factor is built as the m-th power of exp(2 pi i x) by a
    running product: one complex exponential per offset instead of one per
    element, at the same accuracy (both err by about m ulp).
    """
    row = np.broadcast_to(row, offset.shape)
    n = profile.shape[-1]
    gain = np.empty(offset.shape)
    step = max(1, _IDLE_BLOCK_ELEMENTS // n)
    for lo in range(0, offset.size, step):
        x = offset[lo:lo + step]
        terms = np.empty((x.size, n), dtype=complex)
        terms[:, 0] = 1.0
        terms[:, 1:] = np.exp(1j * _TWO_PI * x)[:, None]
        np.cumprod(terms, axis=-1, out=terms)
        terms *= profile[row[lo:lo + step]]
        total = terms.sum(axis=-1)
        gain[lo:lo + step] = total.real**2 + total.imag**2
    return gain


# -- average gains ----------------------------------------------------------


def _bessel_j0_grid(z: np.ndarray, k: int) -> np.ndarray:
    """J0(z) as the mean of cos(z*sin a) on k uniform angles a in [0, pi).

    The integrand has period pi, so the rule is off by 2*J_2k(z) + ..., which
    falls below 1e-17 once 2k exceeds z by 15*z^(1/3) (Trefethen & Weideman,
    SIAM Review 2014).
    """
    a = np.pi * np.arange(k) / k
    return np.cos(np.multiply.outer(z, np.sin(a))).mean(axis=-1)


def _fejer_mean(n: int, delta: float, angles: int) -> float:
    """Mean Fejér gain at offset delta*(sin a1 - sin a2 + sin a3 - ...) over
    ``angles`` independent uniform angles: 2 for a BS or user factor, 4 for
    a reflector's.

    Expanding the kernel in harmonics, each uniform angle contributes a
    J0(2*pi*m*delta) factor, leaving n + 2*sum_{m<n} (n-m)*J0(2*pi*m*delta)^angles;
    the J0 grid is sized to the largest argument and checked against the
    doubled grid.
    """
    if n == 1:
        return 1.0
    m = np.arange(1, n)
    z = _TWO_PI * delta * m
    k = 8 + math.ceil(0.5 * z[-1] + 8.0 * np.cbrt(z[-1]))  # 2k >= z + 16 z^(1/3) + 16
    coarse, fine = (
        float(n + 2.0 * np.sum((n - m) * _bessel_j0_grid(z, size) ** angles))
        for size in (k, 2 * k)
    )
    return refined(coarse, fine, f"{angles}-angle average for n={n}", 1e-13)


@lru_cache(maxsize=64)
def _average_gains_cached(n_bs: int, n_u: int, n_ris: int, delta: float) -> AverageGains:
    m_bs_dl = _fejer_mean(n_bs, delta, 2)
    m_u_dl = _fejer_mean(n_u, delta, 2)
    return AverageGains(
        m_bs_dl=m_bs_dl,
        m_u_dl=m_u_dl,
        m_bs_rl=m_bs_dl / n_bs,
        m_u_rl=m_u_dl / n_u,
        m_r_rl=_fejer_mean(n_ris, delta, 4),
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
        return g.m_bs_dl * g.m_u_dl / (cfg.n_bs * cfg.n_u), aligned_direct * cfg.n_ris**2
    return aligned_direct, g.m_bs_rl * g.m_u_rl * cfg.n_ris**2
