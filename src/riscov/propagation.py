"""LOS probability and dual-slope path loss."""

from __future__ import annotations

import enum

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
