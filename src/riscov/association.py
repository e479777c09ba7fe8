"""Association probabilities and serving-distance distributions.

The typical user associates with the strongest BS (max biased received power
over the LOS/NLOS path-loss laws) and, for the reflected path, with the
strongest eligible RIS. Eligibility requires the user to face the coated side
and the user and serving BS to lie on the same side of the RIS; marginally
that happens with probability (1/2)*C(x, y, upsilon).

One serving-distance law, with a per-set radial intensity, serves both point
sets: 2*pi*lambda_bs for base stations and pi*lambda_ris*C(x, y, upsilon) for
reflectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._quad import refined, tan_halfline_nodes
from .config import NetworkConfig
from .propagation import LinkKind

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AssociationCase:
    """(bs_state, ris_state) pair; ris_state None means no reflected path."""

    bs_state: LinkKind
    ris_state: LinkKind | None

    @property
    def label(self) -> str:
        bs = "los" if self.bs_state is LinkKind.LOS else "nlos"
        if self.ris_state is None:
            return f"{bs}-direct"
        ris = "los" if self.ris_state is LinkKind.LOS else "nlos"
        return f"{bs}-{ris}"


# -- closed-form disk integrals ---------------------------------------------


def los_weighted_area(x, beta: float):
    """integral_0^x exp(-beta*r)*r dr, closed form."""
    x = np.asarray(x, dtype=float)
    if beta == 0.0:
        return 0.5 * x**2
    u = beta * x
    return (-np.expm1(-u) - u * np.exp(-u)) / beta**2


def nlos_weighted_area(x, beta: float):
    """integral_0^x (1 - exp(-beta*r))*r dr, closed form."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x**2 - los_weighted_area(x, beta)


# -- link-state laws ---------------------------------------------------------


def state_weight(state: LinkKind, r, beta: float):
    """Probability that a link of length r is in `state`: exp(-beta*r) for LOS."""
    if state is LinkKind.LOS:
        return np.exp(-beta * r)
    return -np.expm1(-beta * r)


_WEIGHTED_AREA = {LinkKind.LOS: los_weighted_area, LinkKind.NLOS: nlos_weighted_area}
_OTHER = {LinkKind.LOS: LinkKind.NLOS, LinkKind.NLOS: LinkKind.LOS}


def path_law(state: LinkKind, cfg: NetworkConfig) -> tuple[float, float]:
    """(intercept, exponent) of the path loss c * r^-alpha in `state`."""
    if state is LinkKind.LOS:
        return cfg.c_los, cfg.alpha_los
    return cfg.c_nlos, cfg.alpha_nlos


def equivalent_distance(x, source: LinkKind, target: LinkKind, cfg: NetworkConfig):
    """Distance in state `target` with the received power of a `source` link at x."""
    x = np.asarray(x, dtype=float)
    if source is target:
        return x
    c_s, alpha_s = path_law(source, cfg)
    c_t, alpha_t = path_law(target, cfg)
    return (c_t / c_s) ** (1.0 / alpha_t) * x ** (alpha_s / alpha_t)


def _serving_density(r, intensity, state: LinkKind, cfg: NetworkConfig):
    """Density of the serving distance r to the nearest point in `state`.

    `intensity` is the radial intensity of the point set; the serving point
    must also beat every point of the other state, which are excluded up to
    the equal-received-power radius.
    """
    r = np.asarray(r, dtype=float)
    other = _OTHER[state]
    own_area = _WEIGHTED_AREA[state](r, cfg.beta)
    other_area = _WEIGHTED_AREA[other](equivalent_distance(r, state, other, cfg), cfg.beta)
    return (
        intensity
        * state_weight(state, r, cfg.beta)
        * r
        * np.exp(-intensity * own_area)
        * np.exp(-intensity * other_area)
    )


# -- serving-BS distributions ------------------------------------------------


def serving_bs_density(x, state: LinkKind, cfg: NetworkConfig):
    """Unnormalized serving-BS distance density (mass = association prob)."""
    return _serving_density(x, _TWO_PI * cfg.lambda_bs, state, cfg)


def _mass_over_halfline(density: Callable[[np.ndarray], np.ndarray], scale: float,
                        q: int = 192) -> float:
    """Integrate a decaying density over (0, inf) with a convergence check."""
    totals = []
    for nodes in (q, 2 * q):
        x, w = tan_halfline_nodes(nodes, scale)
        totals.append(float(np.sum(w * density(x))))
    return refined(totals[0], totals[1], "half-line mass integral", 1e-6, floor=1e-3)


def _bs_length_scales(cfg: NetworkConfig) -> tuple[float, float]:
    rayleigh = 0.6 / math.sqrt(cfg.lambda_bs) if cfg.lambda_bs > 0 else 1.0
    los = min(rayleigh, 1.0 / cfg.beta) if cfg.beta > 0 else rayleigh
    return los, rayleigh


@lru_cache(maxsize=128)
def _bs_masses(cfg: NetworkConfig) -> tuple[float, float]:
    if cfg.lambda_bs == 0.0:
        return 0.0, 0.0
    scale_los, scale_nlos = _bs_length_scales(cfg)
    mass_los = _mass_over_halfline(
        lambda x: serving_bs_density(x, LinkKind.LOS, cfg), scale_los
    )
    mass_nlos = _mass_over_halfline(
        lambda x: serving_bs_density(x, LinkKind.NLOS, cfg), scale_nlos
    )
    return mass_los, mass_nlos


def assoc_prob_bs(state: LinkKind, cfg: NetworkConfig) -> float:
    """Probability that the serving BS link is LOS (or NLOS)."""
    mass_los, mass_nlos = _bs_masses(cfg)
    return mass_los if state is LinkKind.LOS else mass_nlos


def serving_bs_mixture_density(x, cfg: NetworkConfig):
    """Serving-BS distance density regardless of link state (normalized)."""
    mass_los, mass_nlos = _bs_masses(cfg)
    total = mass_los + mass_nlos
    combined = serving_bs_density(x, LinkKind.LOS, cfg) + serving_bs_density(
        x, LinkKind.NLOS, cfg
    )
    return combined / total


# -- RIS side condition and distributions ------------------------------------


def side_condition(x, y, upsilon):
    """Probability that the user and its BS fall on the same side of the RIS.

    x: BS-user distance, y: RIS-user distance, upsilon: angle between the two
    directions. The RIS lies on a wall of uniformly random orientation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cu = np.cos(np.asarray(upsilon, dtype=float))
    z2 = x**2 + y**2 - 2.0 * x * y * cu
    degenerate = z2 <= 0.0
    z = np.sqrt(np.where(degenerate, 1.0, z2))
    arg = np.clip((y - x * cu) / z, -1.0, 1.0)
    c = 1.0 - np.arccos(arg) / np.pi
    out = np.where(degenerate, 0.5, c)  # x=y, upsilon=0: symmetric tie
    return float(out) if out.ndim == 0 else out


def bs_ris_distance(x, y, upsilon, r_min: float = 0.0):
    """Third side of the user/BS/RIS triangle (law of cosines)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z2 = x**2 + y**2 - 2.0 * x * y * np.cos(np.asarray(upsilon, dtype=float))
    return np.maximum(np.sqrt(np.maximum(z2, 0.0)), r_min)


def ris_case_density(y, x, upsilon, state: LinkKind, cfg: NetworkConfig):
    """Unnormalized serving-RIS distance density for one link state.

    Conditioned on the serving-BS distance x and direction angle upsilon;
    integrates over y to the per-(x, upsilon) association probability.
    """
    intensity = np.pi * cfg.lambda_ris * side_condition(x, y, upsilon)
    return _serving_density(y, intensity, state, cfg)


# -- marginalized RIS-side expectations --------------------------------------


def _ris_grid(cfg: NetworkConfig, q_x: int, q_v: int, q_y: int):
    """Quadrature grid over (x ~ serving BS, upsilon uniform, y ~ RIS cases).

    Returns broadcastable node/weight arrays; y nodes are scaled per (x, v)
    by the local eligible-RIS density so the tan map resolves the mass.
    """
    scale_los, scale_nlos = _bs_length_scales(cfg)
    x_scale = max(scale_los, scale_nlos)
    x, wx = tan_halfline_nodes(q_x, x_scale)
    fx = serving_bs_mixture_density(x, cfg)
    v = _TWO_PI * (np.arange(q_v) + 0.5) / q_v
    wv = np.full(q_v, 1.0 / q_v)  # (1/2pi) d-upsilon as a periodic average

    xg = x[:, None, None]
    vg = v[None, :, None]
    # C depends on y as well; pick a y-independent scale from the y = x proxy
    c_mid = side_condition(x[:, None], x[:, None], v[None, :])
    base_scale = np.sqrt(2.0 / (np.pi * cfg.lambda_ris * np.maximum(c_mid, 0.05)))
    if cfg.beta > 0:
        base_scale = np.minimum(base_scale, 3.0 / cfg.beta)
    t, wt = tan_halfline_nodes(q_y, 1.0)
    y = base_scale[:, :, None] * t[None, None, :]
    wy = base_scale[:, :, None] * wt[None, None, :]
    weight_xv = (wx * fx)[:, None] * wv[None, :]
    return xg, vg, y, weight_xv, wy


# grid points per block of ris_joint_expectation's kernel evaluations
_GRID_BLOCK = 1 << 16


def ris_joint_expectation(
    cfg: NetworkConfig,
    kernel: Callable | None = None,
    states: tuple[LinkKind, ...] = (LinkKind.LOS, LinkKind.NLOS),
    q_x: int = 96,
    q_v: int = 48,
    q_y: int = 96,
) -> float:
    """Mass-weighted integral over the serving-RIS joint distribution.

    Computes sum over the requested RIS states of
    E_x E_upsilon [ integral g_state(y; x, upsilon) * kernel(x, y, upsilon) dy ]
    where g_state is the unnormalized case density; kernel None means 1.
    """
    if cfg.lambda_ris == 0.0 or cfg.lambda_bs == 0.0:
        return 0.0
    xg, vg, y, weight_xv, wy = _ris_grid(cfg, q_x, q_v, q_y)
    # a block of x rows at a time keeps the kernel's temporaries small; the
    # y sums are per row, so the blocks change no bit of the result
    rows = max(1, _GRID_BLOCK // (q_v * q_y))
    total = 0.0
    for state in states:
        inner = np.empty(weight_xv.shape)
        for start in range(0, q_x, rows):
            part = slice(start, start + rows)
            g = ris_case_density(y[part], xg[part], vg, state, cfg)
            if kernel is not None:
                g = g * kernel(xg[part], y[part], vg)
            inner[part] = np.sum(wy[part] * g, axis=-1)
        total += float(np.sum(weight_xv * inner))
    return total


@lru_cache(maxsize=128)
def _ris_masses(cfg: NetworkConfig) -> tuple[float, float]:
    mass_los = ris_joint_expectation(cfg, states=(LinkKind.LOS,))
    mass_nlos = ris_joint_expectation(cfg, states=(LinkKind.NLOS,))
    check_los = ris_joint_expectation(cfg, states=(LinkKind.LOS,), q_x=144, q_v=64, q_y=144)
    refined(mass_los, check_los, "RIS association mass", 1e-3, abs_tol=2e-4)
    return mass_los, mass_nlos


def assoc_prob_ris(state: LinkKind, cfg: NetworkConfig) -> float:
    """Probability that the serving reflected path uses a LOS (NLOS) RIS."""
    mass_los, mass_nlos = _ris_masses(cfg)
    return mass_los if state is LinkKind.LOS else mass_nlos


def assoc_prob_via_ris(state: LinkKind, cfg: NetworkConfig) -> float:
    """Probability the whole reflected path is LOS, or its complement.

    The LOS bucket requires both the RIS-user and BS-RIS links LOS. The NLOS
    bucket is everything else: with points everywhere, a reflected path always
    exists, so the two buckets partition the event space.
    """
    if cfg.lambda_ris == 0.0 or cfg.lambda_bs == 0.0:
        return 0.0

    def los_kernel(x, y, v):
        return state_weight(LinkKind.LOS, bs_ris_distance(x, y, v), cfg.beta)

    both_los = ris_joint_expectation(cfg, kernel=los_kernel, states=(LinkKind.LOS,))
    if state is LinkKind.LOS:
        return both_los
    return 1.0 - both_los
