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
from typing import Callable, Sequence

import numpy as np

from ._quad import fold_circle, refined, tan_halfline_nodes
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


def _serving_factors(r, state: LinkKind, cfg: NetworkConfig):
    """(state weight * r, void area): the serving density's factors of r alone.
    The void is empty of `state` points up to r and of the other state's up
    to the equal-received-power radius; the intensity scales it."""
    r = np.asarray(r, dtype=float)
    other = _OTHER[state]
    void = (_WEIGHTED_AREA[state](r, cfg.beta)
            + _WEIGHTED_AREA[other](equivalent_distance(r, state, other, cfg), cfg.beta))
    return state_weight(state, r, cfg.beta) * r, void


def _serving_density(intensity, factors):
    """Density of the serving distance r, from the point set's radial
    `intensity` and `_serving_factors` at r, which a grid forms once per r."""
    weight, void = factors
    return intensity * weight * np.exp(intensity * -void)


# -- serving-BS distributions ------------------------------------------------


def serving_bs_density(x, state: LinkKind, cfg: NetworkConfig):
    """Unnormalized serving-BS distance density (mass = association prob)."""
    return _serving_density(_TWO_PI * cfg.lambda_bs, _serving_factors(x, state, cfg))


def _mass_over_halfline(density: Callable[[np.ndarray], np.ndarray], scale: float) -> float:
    """Integrate a decaying density over (0, inf) with a convergence check."""
    totals = []
    for nodes in (192, 384):
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


# -- RIS side condition and distributions ------------------------------------


def side_condition(x, y, upsilon):
    """Probability that the user and its BS fall on the same side of the RIS.

    x: BS-user distance, y: RIS-user distance, upsilon: angle between the two
    directions. The RIS lies on a wall of uniformly random orientation, so C
    is 1 - angle/pi, with the angle at the RIS taken by atan2.
    """
    x = np.asarray(x, dtype=float)
    # the least positive opposite side moves no other angle, but makes the
    # BS on the RIS (x = y, upsilon = 0) a right angle: the symmetric tie 1/2
    opposite = np.maximum(x * np.abs(np.sin(upsilon)), np.finfo(float).smallest_subnormal)
    c = 1.0 - np.arctan2(opposite, y - x * np.cos(upsilon)) / np.pi
    return float(c) if c.ndim == 0 else c


def bs_ris_distance(x, y, upsilon, r_min: float = 0.0):
    """Third side of the user/BS/RIS triangle (law of cosines)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z2 = x**2 + y**2 - 2.0 * x * y * np.cos(np.asarray(upsilon, dtype=float))
    return np.maximum(np.sqrt(np.maximum(z2, 0.0)), r_min)


# -- marginalized RIS-side expectations --------------------------------------


def _ris_grid(cfg: NetworkConfig, q_x: int, q_v: int, q_y: int):
    """Quadrature grid over (x ~ serving BS, upsilon uniform, y ~ RIS cases).

    Every integrand sees upsilon only through cos upsilon, so of the q_v
    midpoints, which pair v with 2*pi - v, the rule keeps the half in (0, pi]
    at double weight: the same sums, to rounding.  Returns broadcastable
    node/weight arrays; y and wy are shaped (1, angles, q_y), one node set
    for every x, scaled per angle by the eligible-RIS density at y = x, where
    C(x, x, v) = 1 - arccos(sin(v/2))/pi whatever x is, so the tan map
    resolves the mass.
    """
    scale_los, scale_nlos = _bs_length_scales(cfg)
    x_scale = max(scale_los, scale_nlos)
    x, wx = tan_halfline_nodes(q_x, x_scale)
    # the serving-BS distance density regardless of link state, normalized
    mass_los, mass_nlos = _bs_masses(cfg)
    density_los, density_nlos = (serving_bs_density(x, state, cfg)
                                 for state in (LinkKind.LOS, LinkKind.NLOS))
    fx = (density_los + density_nlos) / (mass_los + mass_nlos)
    # (1/2pi) d-upsilon as a periodic average
    v, wv = fold_circle(_TWO_PI * (np.arange(q_v) + 0.5) / q_v, np.full(q_v, 1.0 / q_v))

    xg = x[:, None, None]
    vg = v[None, :, None]
    # C depends on y as well; the scale takes it at y = x, where it depends on
    # the angle alone and is at least 1/2
    c_mid = 1.0 - np.arccos(np.sin(0.5 * v)) / np.pi
    base_scale = np.sqrt(2.0 / (np.pi * cfg.lambda_ris * c_mid))
    if cfg.beta > 0:
        base_scale = np.minimum(base_scale, 3.0 / cfg.beta)
    t, wt = tan_halfline_nodes(q_y, 1.0)
    y = base_scale[None, :, None] * t
    wy = base_scale[None, :, None] * wt
    weight_xv = (wx * fx)[:, None] * wv[None, :]
    return xg, vg, y, weight_xv, wy


# grid points per block of ris_joint_expectation's kernel evaluations; the
# kernels' values stay alive while each state's density is evaluated
_GRID_BLOCK = 1 << 15


def ris_joint_expectation(
    cfg: NetworkConfig,
    kernels: Sequence[Callable | None],
    q_x: int = 96,
    q_v: int = 48,
    q_y: int = 96,
) -> tuple[tuple[float, float], ...]:
    """Mass-weighted integrals over the serving-RIS joint distribution.

    For each of `kernels`, in order, the (LOS, NLOS) pair of
    E_x E_upsilon [ integral g_state(y; x, upsilon) * kernel(x, y, upsilon) dy ]
    where g_state is the unnormalized case density; a kernel None means 1.
    A kernel takes (x, y, upsilon, C) with C = side_condition(x, y, upsilon),
    which the densities need as well, and must depend on upsilon through
    cos upsilon only (`_ris_grid`).  One grid pass serves every kernel, each
    pair bitwise its lone pass's.
    """
    if cfg.lambda_ris == 0.0 or cfg.lambda_bs == 0.0:
        return ((0.0, 0.0),) * len(kernels)
    xg, vg, y, weight_xv, wy = _ris_grid(cfg, q_x, q_v, q_y)
    # a block of x rows at a time keeps the kernels' temporaries small; the
    # y sums are per row, so the blocks change no bit of the result.  The
    # density's y-only factors, y weights included, are formed once per call
    rows = max(1, _GRID_BLOCK // (vg.size * q_y))
    factors = [(wy * weight, void) for weight, void in
               (_serving_factors(y, state, cfg) for state in (LinkKind.LOS, LinkKind.NLOS))]
    inner = np.empty((len(kernels), 2) + weight_xv.shape)
    for start in range(0, q_x, rows):
        part = slice(start, start + rows)
        side = side_condition(xg[part], y, vg)
        values = [None if k is None else k(xg[part], y, vg, side) for k in kernels]
        # the reflectors' radial intensity, shared by both states; the side
        # condition is dropped before the densities' temporaries exist
        intensity = np.pi * cfg.lambda_ris * side
        del side
        for i, state_factors in enumerate(factors):
            g = _serving_density(intensity, state_factors)
            for j, value in enumerate(values):
                inner[j, i, part] = np.sum(g if value is None else g * value, axis=-1)
    return tuple((float(np.sum(weight_xv * los)), float(np.sum(weight_xv * nlos)))
                 for los, nlos in inner)


def association_probabilities(cfg: NetworkConfig) -> dict[str, float]:
    """Association probabilities of the typical user.

    d_los: the serving BS link is LOS.  u_los, u_nlos: the serving reflector
    is LOS, NLOS.  g_los: the serving reflector is LOS and so is its BS-RIS
    leg, so the whole reflected path is LOS.  Each key is also one of
    `montecarlo.association_frequencies`.
    """

    def los_kernel(x, y, v, side):
        return state_weight(LinkKind.LOS, bs_ris_distance(x, y, v), cfg.beta)

    (u_los, u_nlos), (g_los, _) = ris_joint_expectation(cfg, (None, los_kernel))
    ((check_los, _),) = ris_joint_expectation(cfg, (None,), q_x=144, q_v=64, q_y=144)
    refined(u_los, check_los, "RIS association mass", 1e-3, abs_tol=2e-4)
    return {"d_los": _bs_masses(cfg)[0], "u_los": u_los, "u_nlos": u_nlos, "g_los": g_los}
