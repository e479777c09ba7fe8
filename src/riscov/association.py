"""Association probabilities and serving-distance distributions.

The typical user associates with the strongest BS (max biased received power
over the LOS/NLOS path-loss laws) and, for the reflected path, with the
strongest eligible RIS. Eligibility requires the user to face the coated side
and the user and serving BS to lie on the same side of the RIS; marginally
that happens with probability (1/2)*C(x, y, upsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._quad import IntegrationError, tan_halfline_nodes
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


CASES_WITH_RIS = tuple(
    AssociationCase(b, r)
    for b in (LinkKind.LOS, LinkKind.NLOS)
    for r in (LinkKind.LOS, LinkKind.NLOS)
)


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


# -- equal-received-power radii ---------------------------------------------


def equivalent_nlos_distance(x, cfg: NetworkConfig):
    """NLOS distance with the same received power as a LOS link at x."""
    x = np.asarray(x, dtype=float)
    return (cfg.c_nlos / cfg.c_los) ** (1.0 / cfg.alpha_nlos) * x ** (
        cfg.alpha_los / cfg.alpha_nlos
    )


def equivalent_los_distance(x, cfg: NetworkConfig):
    """LOS distance with the same received power as a NLOS link at x."""
    x = np.asarray(x, dtype=float)
    return (cfg.c_los / cfg.c_nlos) ** (1.0 / cfg.alpha_los) * x ** (
        cfg.alpha_nlos / cfg.alpha_los
    )


# -- serving-BS distributions ------------------------------------------------


def nearest_los_bs_pdf(x, cfg: NetworkConfig):
    """Density of the distance to the nearest LOS BS (no NLOS competition)."""
    x = np.asarray(x, dtype=float)
    lam = cfg.lambda_bs
    return (
        _TWO_PI
        * lam
        * np.exp(-cfg.beta * x)
        * x
        * np.exp(-_TWO_PI * lam * los_weighted_area(x, cfg.beta))
    )


def serving_bs_density(x, state: LinkKind, cfg: NetworkConfig):
    """Unnormalized serving-BS distance density (mass = association prob)."""
    x = np.asarray(x, dtype=float)
    lam = cfg.lambda_bs
    if state is LinkKind.LOS:
        nearest = nearest_los_bs_pdf(x, cfg)
        guard = np.exp(
            -_TWO_PI * lam * nlos_weighted_area(equivalent_nlos_distance(x, cfg), cfg.beta)
        )
        return nearest * guard
    blocked = -np.expm1(-cfg.beta * x)  # 1 - p(x)
    nearest = (
        _TWO_PI * lam * blocked * x * np.exp(-_TWO_PI * lam * nlos_weighted_area(x, cfg.beta))
    )
    guard = np.exp(
        -_TWO_PI * lam * los_weighted_area(equivalent_los_distance(x, cfg), cfg.beta)
    )
    return nearest * guard


def _mass_over_halfline(density: Callable[[np.ndarray], np.ndarray], scale: float,
                        q: int = 192, rel_tol: float = 1e-6) -> float:
    """Integrate a decaying density over (0, inf) with a convergence check."""
    totals = []
    for nodes in (q, 2 * q):
        x, w = tan_halfline_nodes(nodes, scale)
        totals.append(float(np.sum(w * density(x))))
    if abs(totals[1] - totals[0]) > rel_tol * max(abs(totals[1]), 1e-3):
        raise IntegrationError(
            f"half-line mass integral did not converge: {totals[0]} vs {totals[1]}"
        )
    return totals[1]


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


def nearest_los_ris_pdf(x, y, upsilon, cfg: NetworkConfig):
    """Density of the distance to the nearest eligible LOS RIS."""
    y = np.asarray(y, dtype=float)
    lam = cfg.lambda_ris
    c = side_condition(x, y, upsilon)
    return (
        np.pi
        * lam
        * c
        * np.exp(-cfg.beta * y)
        * y
        * np.exp(-np.pi * lam * c * los_weighted_area(y, cfg.beta))
    )


def ris_case_density(y, x, upsilon, state: LinkKind, cfg: NetworkConfig):
    """Unnormalized serving-RIS distance density for one link state.

    Conditioned on the serving-BS distance x and direction angle upsilon;
    integrates over y to the per-(x, upsilon) association probability.
    """
    y = np.asarray(y, dtype=float)
    lam = cfg.lambda_ris
    c = side_condition(x, y, upsilon)
    half = np.pi * lam * c
    if state is LinkKind.LOS:
        nearest = nearest_los_ris_pdf(x, y, upsilon, cfg)
        guard = np.exp(-half * nlos_weighted_area(equivalent_nlos_distance(y, cfg), cfg.beta))
        return nearest * guard
    blocked = -np.expm1(-cfg.beta * y)
    nearest = half * blocked * y * np.exp(-half * nlos_weighted_area(y, cfg.beta))
    guard = np.exp(-half * los_weighted_area(equivalent_los_distance(y, cfg), cfg.beta))
    return nearest * guard


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
    total = 0.0
    for state in states:
        g = ris_case_density(y, xg, vg, state, cfg)
        if kernel is not None:
            g = g * kernel(xg, y, vg)
        total += float(np.sum(weight_xv * np.sum(wy * g, axis=-1)))
    return total


@lru_cache(maxsize=128)
def _ris_masses(cfg: NetworkConfig) -> tuple[float, float]:
    mass_los = ris_joint_expectation(cfg, states=(LinkKind.LOS,))
    mass_nlos = ris_joint_expectation(cfg, states=(LinkKind.NLOS,))
    check_los = ris_joint_expectation(cfg, states=(LinkKind.LOS,), q_x=144, q_v=64, q_y=144)
    if abs(check_los - mass_los) > 2e-4 + 1e-3 * abs(check_los):
        raise IntegrationError(
            f"RIS association mass did not converge: {mass_los} vs {check_los}"
        )
    return mass_los, mass_nlos


def assoc_prob_ris(state: LinkKind, cfg: NetworkConfig) -> float:
    """Probability that the serving reflected path uses a LOS (NLOS) RIS."""
    mass_los, mass_nlos = _ris_masses(cfg)
    return mass_los if state is LinkKind.LOS else mass_nlos


def assoc_prob_no_ris(cfg: NetworkConfig) -> float:
    """Mass the serving-RIS densities fail to capture.

    The case densities evaluate C inside their voids at the serving distance
    rather than integrating it, so they undercount far serving RISs; the
    remainder behaves like "no usable reflected path" and is treated as
    direct-only by the coverage engine.
    """
    if cfg.lambda_ris == 0.0 or cfg.lambda_bs == 0.0:
        return 1.0
    mass_los, mass_nlos = _ris_masses(cfg)
    return max(0.0, 1.0 - mass_los - mass_nlos)


def assoc_prob_via_ris(state: LinkKind, cfg: NetworkConfig) -> float:
    """Probability the whole reflected path is LOS, or its complement.

    The LOS bucket requires both the RIS-user and BS-RIS links LOS. The NLOS
    bucket is everything else: with points everywhere, a reflected path always
    exists, so the two buckets partition the event space.
    """
    if cfg.lambda_ris == 0.0 or cfg.lambda_bs == 0.0:
        return 0.0

    def los_kernel(x, y, v):
        return np.exp(-cfg.beta * bs_ris_distance(x, y, v))

    both_los = ris_joint_expectation(cfg, kernel=los_kernel, states=(LinkKind.LOS,))
    if state is LinkKind.LOS:
        return both_los
    return 1.0 - both_los
