"""LOS probability, dual-slope path loss and blockage-segment geometry, on arrays."""

from __future__ import annotations

import enum
import math

import numpy as np

from .config import NetworkConfig


class LinkKind(enum.Enum):
    LOS = "los"
    NLOS = "nlos"


def los_probability(x, beta: float):
    """Probability that a link of length ``x`` is unblocked, exp(-beta*x)."""
    return np.exp(-beta * np.asarray(x, dtype=float))


def path_loss(dist, los, cfg: NetworkConfig):
    """Distance-dependent channel gain of each link (no small-scale fading).

    ``los`` selects the LOS or NLOS law per entry; distances below the model
    cutoff ``r_min`` are clamped to it.
    """
    d = np.maximum(dist, cfg.r_min)
    exponent = np.where(los, -cfg.alpha_los, -cfg.alpha_nlos)
    return np.where(los, cfg.c_los, cfg.c_nlos) * d**exponent


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
