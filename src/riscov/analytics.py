"""Semianalytical coverage, spectral-efficiency and energy-efficiency engine.

Coverage of the typical user is computed with the gamma-dummy (Alzer)
approximation: an alternating binomial sum over products of interference
Laplace transforms, averaged over the serving geometry (direct-link
distance, reflected-link distance and the angle between them) on a
Gauss-Chebyshev quadrature grid.  Interferers enter through four thinned
point processes (LOS/NLOS base stations, LOS/NLOS reflectors, the latter
split again into active and idle) whose Laplace transforms share one
half-line integral template.  The evaluator tabulates each side's summed
exponent once, in u = ln s, so a threshold costs two table lookups per
Laplace product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._quad import gauss_legendre_01, halfline_nodes, refined, tan_halfline_nodes
from .association import (
    AssociationCase,
    bs_ris_distance,
    equivalent_distance,
    path_law,
    ris_case_density,
    ris_joint_expectation,
    serving_bs_density,
    side_condition,
    state_weight,
)
from .beamforming import (
    mean_direct_interference_gain,
    mean_reflected_interference_gain,
    serving_gains,
)
from .config import NetworkConfig
from .propagation import LinkKind

_STATES = (LinkKind.LOS, LinkKind.NLOS)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and series depth for the semianalytical engine.

    q1, q2, q3 and q_tail are quadrature resolutions: doubling them refines
    the same integrals.  w_alzer is a constant of the gamma-dummy
    approximation, not a resolution; the smoothed SINR step it defines moves
    with the depth (see `alzer_epsilon`).
    """

    q1: int = 32  # serving-BS distance nodes
    q2: int = 32  # serving-reflector distance nodes
    q3: int = 16  # angle nodes
    q_tail: int = 48  # Gauss-Legendre nodes of the interference tail tables
    w_alzer: int = 5  # terms in the gamma-dummy binomial sum

    def __post_init__(self) -> None:
        for name in ("q1", "q2", "q3", "q_tail"):
            count = getattr(self, name)
            if not isinstance(count, int) or count < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {count!r}")
        if not isinstance(self.w_alzer, int) or self.w_alzer < 1:
            raise ValueError(f"w_alzer must be a positive integer, got {self.w_alzer!r}")


@dataclass
class CoverageResult:
    """Coverage probability with a per-association-case breakdown."""

    total: float
    by_case: dict
    engine: str
    meta: dict = field(default_factory=dict)


@dataclass
class EfficiencyResult:
    ase: float  # bit/s/Hz per m^2
    power_density: float  # W per m^2
    ee: float  # bit/s/Hz per J


class GcqNodes(NamedTuple):
    """Gauss-Chebyshev abscissas/weights for the three serving dimensions."""

    x: np.ndarray
    wx: np.ndarray
    y: np.ndarray
    wy: np.ndarray
    angle: np.ndarray
    w_angle: np.ndarray


def alzer_epsilon(w: int, printed_constant: bool = False) -> float:
    """Scale constant of the gamma-dummy SINR bound.

    W*(W!)^(-1/W) is the tight-bound constant for the CDF of a unit-mean
    gamma variable with shape W: it equals 1 at W=1 (where the bound is
    exact) and approaches e from below.  The variant W*(W!)^(1/W) is
    selectable for debugging comparisons but grows without bound, pushing
    the smoothed threshold to zero.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    factorial = math.factorial(w)
    if printed_constant:
        return w * factorial ** (1.0 / w)
    return w * factorial ** (-1.0 / w)


def _chebyshev_angle(count: int) -> tuple[np.ndarray, np.ndarray]:
    # cosine map onto (0, 2*pi); weights average (the 1/(2*pi) is folded in)
    k = np.arange(1, count + 1)
    theta = (2 * k - 1) * np.pi / (2 * count)
    nodes = np.pi * (np.cos(theta) + 1.0)
    weights = np.pi * np.sin(theta) / (2 * count)
    return nodes, weights


def gcq_nodes(qspec: QuadratureSpec) -> GcqNodes:
    """Abscissa/weight tables for the serving-geometry integrals.

    x and y tables integrate over (0, inf); the angle table averages over
    (0, 2*pi), i.e. its weights sum to ~1.
    """
    x, wx = tan_halfline_nodes(qspec.q1)
    y, wy = tan_halfline_nodes(qspec.q2)
    angle, w_angle = _chebyshev_angle(qspec.q3)
    return GcqNodes(x=x, wx=wx, y=y, wy=wy, angle=angle, w_angle=w_angle)


# -- cell-load probabilities -------------------------------------------------


def _empty_cell_prob(load):
    """Probability that a cell with mean load `load` users is empty (3.5-moment fit)."""
    return (1.0 + load) ** -3.5


def active_prob_bs(cfg: NetworkConfig) -> float:
    """Probability a BS cell holds at least one user (3.5-moment fit)."""
    if cfg.lambda_bs <= 0.0:
        return 0.0
    return 1.0 - _empty_cell_prob(cfg.lambda_u / cfg.lambda_bs)


@lru_cache(maxsize=64)
def _active_prob_ris_cached(cfg: NetworkConfig) -> float:
    # the eligible-user region around a reflector is a half-plane sector; its
    # effective cell is 1/c times larger than the isotropic Voronoi cell of a
    # process with density lambda_ris / 2, hence the 2/c load scaling
    def idle_kernel(x, y, v):
        c = side_condition(x, y, v)
        return _empty_cell_prob(2.0 * cfg.lambda_u / (c * cfg.lambda_ris))

    # the kernel lies in [0, 1], so 0 <= idle_mass <= total_mass
    idle_mass = ris_joint_expectation(cfg, kernel=idle_kernel)
    total_mass = ris_joint_expectation(cfg)
    if total_mass <= 0.0:
        return 0.0
    return 1.0 - idle_mass / total_mass


def active_prob_ris(cfg: NetworkConfig) -> float:
    """Probability a reflector cell holds at least one user.

    Expectation of the occupancy over the serving geometry (x, y, angle),
    normalized to the mass the serving-reflector densities capture.
    """
    if cfg.lambda_ris <= 0.0 or cfg.lambda_u <= 0.0 or cfg.lambda_bs <= 0.0:
        return 0.0
    return _active_prob_ris_cached(cfg)


# -- ambient reflected power -------------------------------------------------


def ris_interference_power(cfg: NetworkConfig) -> float:
    """Mean power scale re-radiated by an interfering reflector.

    Integrates the blockage-weighted dual-slope path loss over all BS
    distances beyond r_min and scales by pi * lambda_bs * P_bs.  The result
    multiplies the reflector-side gains in the reflected Laplace factors.
    """
    if cfg.lambda_bs <= 0.0:
        return 0.0
    if cfg.beta == 0.0 and cfg.alpha_los <= 1.0:
        raise ValueError("ambient reflected power diverges: beta=0 and alpha_los <= 1")
    if cfg.beta > 0.0 and cfg.alpha_nlos <= 1.0:
        raise ValueError("ambient reflected power diverges: alpha_nlos <= 1")

    laws = [(state, path_law(state, cfg)) for state in _STATES]

    def integrand(z):
        return sum(c * z**-alpha * state_weight(state, z, cfg.beta) for state, (c, alpha) in laws)

    scale = max(1.0 / cfg.beta if cfg.beta > 0.0 else 10.0 * cfg.r_min, 10.0 * cfg.r_min)

    def integral(count):
        r, w = halfline_nodes(count, scale, cfg.r_min)
        return float(np.sum(w * integrand(r)))

    check = refined(integral(384), integral(768), "ambient reflected power integral",
                    1e-9, floor=1e-30)
    return float(np.pi * cfg.lambda_bs * cfg.p_bs_watt * check)


# -- interference Laplace transforms -----------------------------------------

# interfering point sets; the two reflector sets share their tail tables
_SET_KINDS = ("bs", "ris", "ris_idle")


def _set_parameters(set_kind: str, cfg: NetworkConfig) -> tuple[float, float]:
    """(spatial density, power*gain scale) of one interfering point set."""
    if set_kind == "bs":
        density = 2.0 * np.pi * cfg.lambda_bs * active_prob_bs(cfg)
        power_gain = cfg.p_bs_watt * mean_direct_interference_gain(cfg)
    elif set_kind in ("ris", "ris_idle"):
        idle = set_kind == "ris_idle"
        p_active = active_prob_ris(cfg)
        density = np.pi * cfg.lambda_ris * (1.0 - p_active if idle else p_active)
        power_gain = ris_interference_power(cfg) * mean_reflected_interference_gain(
            cfg, idle=idle
        )
    else:
        raise ValueError(f"unknown interferer set {set_kind!r}")
    return float(density), float(power_gain)


# inner end of the void-free log map, in units of r_min; the disc it leaves
# out holds at most (floor*r_min)^2/2 of J per unit density at any c
_VOID_FREE_FLOOR = 1e-9
# log-map nodes of a void-free table per node of its half-line part
_VOID_FREE_NODES = 8


def _tail_table(state: LinkKind, exclusion, cfg: NetworkConfig, nodes: int):
    """Tables (A, B) with J(c) = sum_k A[k] * (1 - exp(-c * B[k])).

    J(c) integrates the state-thinning weight times (1 - exp(-c*r^-alpha))*r
    over r beyond `exclusion`: the exponent of one interfering set's Laplace
    transform per unit density.  The node axis comes first; the other axes
    follow `exclusion`.  An all-zero `exclusion` (no void) adds a rule in
    ln r below the map scale.
    """
    exclusion = np.asarray(exclusion, dtype=float)
    # support is bounded by the blockage decay for LOS sets and by the
    # pathloss rolloff otherwise; the map reaches far past `scale` anyway
    scale = np.maximum(3.0 * exclusion, 100.0 * cfg.r_min)
    if state is LinkKind.LOS and cfg.beta > 0.0:
        scale = np.maximum(np.minimum(scale, 5.0 / cfg.beta), 1.0 / cfg.beta)
    if exclusion.any():
        r, w = halfline_nodes(nodes, scale, exclusion)
    else:
        # without a void the knee of the integrand sits at r = c^(1/alpha),
        # anywhere in (0, scale) as c ranges over the tables: Gauss-Legendre
        # in ln r covers that stretch, the half-line map the rest
        t, w_log = gauss_legendre_01(_VOID_FREE_NODES * nodes)
        extra = (1,) * exclusion.ndim
        lo, hi = math.log(_VOID_FREE_FLOOR * cfg.r_min), np.log(scale)
        r_log = np.exp(lo + (hi - lo) * t.reshape(-1, *extra))
        r_out, w_out = halfline_nodes(nodes, scale, scale)
        r = np.concatenate([r_log, r_out])
        w = np.concatenate([(hi - lo) * w_log.reshape(-1, *extra) * r_log, w_out])
    _, exponent = path_law(state, cfg)
    return w * state_weight(state, r, cfg.beta) * r, r**-exponent


def _j(c, table, derivatives: bool = False):
    """J(c) of one tail table; c broadcasts against the exclusion axes.

    With `derivatives`, also J_u = sum A*x*exp(-x) and J_uu = sum
    A*x*(1-x)*exp(-x), the derivatives in u = ln c, where x = c*B.
    """
    a, b = table
    x = c * b
    em1 = np.expm1(-x)
    value = -np.einsum("k...,k...->...", a, em1)
    if not derivatives:
        return value
    # exp(-x) = 1 + expm1(-x); the rounding this leaves near x = 40 is tiny
    # against J, the scale any error in the derivatives is felt on
    em1 += 1.0
    em1 *= x
    first = np.einsum("k...,k...->...", a, em1)
    x -= 1.0
    em1 *= x
    return value, first, -np.einsum("k...,k...->...", a, em1)


# -- interference exponent tables --------------------------------------------

# step of the u = ln s lattice every exponent table sits on
_TABLE_STEP = 0.1
# below a column's lattice every node has c*B <= this, so the two-term series
# of J is within (c*B)^2/6 < 2e-11 relative
_SERIES_EDGE = 1e-5
# above it every node with weight has c*B >= this: J is saturated to exp(-40)
_SATURATION_EDGE = 40.0
# elements of one (nodes, lattice points) temporary while filling a table
_CHUNK = 1 << 16
# the build check holds every table to this relative error at its midpoints;
# exponents under the floor are invisible in exp(-L) and reach subnormals
_TABLE_RTOL = 1e-9
_TABLE_FLOOR = 1e-250


# quintic Hermite weights of (f0, h*f0', h^2*f0'', f1, h*f1', h^2*f1'') on
# t in [0, 1], one row each, in powers 1, t, ..., t^5
_HERMITE = np.array([
    [1.0, 0.0, 0.0, -10.0, 15.0, -6.0],
    [0.0, 1.0, 0.0, -6.0, 8.0, -3.0],
    [0.0, 0.0, 0.5, -1.5, 1.5, -0.5],
    [0.0, 0.0, 0.0, 10.0, -15.0, 6.0],
    [0.0, 0.0, 0.0, -4.0, 7.0, -3.0],
    [0.0, 0.0, 0.0, 0.5, -1.0, 0.5],
])


def _hermite_basis(t):
    """The six Hermite weights at t, stacked on a first axis."""
    t = np.asarray(t, dtype=float)
    powers = np.empty((6,) + t.shape)
    powers[0] = 1.0
    powers[1] = t
    for p in range(2, 6):
        powers[p] = powers[p - 1] * t
    return (_HERMITE @ powers.reshape(6, -1)).reshape(powers.shape)


class _ExponentTable:
    """One side's interference exponent L(u) = sum density * J(e^u * scale).

    `terms` lists (density, scale, tail table) triples whose tail tables share
    one exclusion shape; each exclusion node is a column with its own run of
    lattice nodes u = k*_TABLE_STEP, stored one after the other.  Between
    nodes L is quintic Hermite from its value and first two u-derivatives;
    with x = c*B these are J_u = sum A*x*exp(-x) and J_uu = sum
    A*x*(1-x)*exp(-x).  Below a column's run L is the two-term series
    s*S1 - s^2*S2/2, above it the saturated sum(A*density).
    """

    def __init__(self, terms):
        shape = terms[0][2][0].shape[1:]  # the exclusion shape of the tail tables
        self.col = np.arange(math.prod(shape)).reshape(shape)
        self.terms = [(d, sc, (a.reshape(len(a), -1), b.reshape(len(b), -1)))
                      for d, sc, (a, b) in terms if d > 0.0 and sc > 0.0]
        size = self.col.size
        lo, hi = np.full(size, np.inf), np.full(size, -np.inf)
        s1, s2, sat = np.zeros((3, size))
        for d, sc, (a, b) in self.terms:
            with np.errstate(divide="ignore"):
                lo = np.minimum(lo, np.log(_SERIES_EDGE / (sc * b.max(axis=0))))
                b_live = np.where(a > 0.0, b, np.inf).min(axis=0)
                hi = np.maximum(hi, np.log(_SATURATION_EDGE / (sc * b_live)))
            s1 += d * sc * np.sum(a * b, axis=0)
            s2 += d * sc**2 * np.sum(a * b * b, axis=0)
            sat += d * np.sum(a, axis=0)
        h = _TABLE_STEP
        # a column no term reaches is zero everywhere: two zero nodes
        empty = ~(hi > lo)
        k_lo = np.floor(np.where(empty, 0.0, lo) / h).astype(np.intp)
        count = np.ceil(np.where(empty, h, hi) / h).astype(np.intp) - k_lo + 1
        offset = np.cumsum(count) - count
        # per-column constants, shaped like the exclusions
        self.k_lo, self.count, self.offset = (v.reshape(shape) for v in (k_lo, count, offset))
        self.s1, self.s2, self.sat = (v.reshape(shape) for v in (s1, s2, sat))
        self.s_edge = np.exp(self.k_lo * h)

        node_col = np.repeat(np.arange(size), count)
        node_k = np.arange(count.sum()) - np.repeat(offset, count) + np.repeat(k_lo, count)
        f, df, ddf = self._exact(node_k * h, node_col, derivatives=True)
        # (f, h*f', h^2*f'') per node; interval j reads the six values from j
        self.windows = np.lib.stride_tricks.sliding_window_view(
            np.stack([f, h * df, h * h * ddf], axis=-1).ravel(), 6
        )[::3]
        # build check: the interpolant against the exact sum at every midpoint
        left = np.flatnonzero(np.diff(node_col, append=-1) == 0)
        exact = self._exact((node_k[left] + 0.5) * h, node_col[left])[0]
        interp = self.windows[left] @ _hermite_basis(0.5)
        rel = np.abs(interp - exact) / np.maximum(np.abs(exact), _TABLE_FLOOR)
        worst = int(np.argmax(rel))
        self.residual = float(rel[worst])
        refined(float(interp[worst]), float(exact[worst]),
                "interference exponent table", _TABLE_RTOL, floor=_TABLE_FLOOR)

    def _exact(self, u, cols, derivatives: bool = False):
        """(L,) or (L, L_u, L_uu) from `_j` at each (u, column) pair."""
        out = np.zeros((3 if derivatives else 1, len(u)))
        for d, sc, (a, b) in self.terms:
            chunk = max(1, _CHUNK // len(a))
            for start in range(0, len(u), chunk):
                part = slice(start, start + chunk)
                table = (a[:, cols[part]], b[:, cols[part]])
                out[:, part] += d * np.array(_j(np.exp(u[part]) * sc, table, derivatives),
                                             ndmin=2)
        return out

    def __call__(self, s, k, basis):
        """L at s = exp(u) where u/_TABLE_STEP = k + t and basis is
        `_hermite_basis(t)`; s, k and basis[0] broadcast against the columns."""
        i = k - self.k_lo
        nodes = self.windows.take(self.offset + np.clip(i, 0, self.count - 2), axis=0)
        value = np.einsum("...m,m...->...", nodes, basis)
        below = i < 0
        if below.any():
            sb = np.minimum(s, self.s_edge)
            value = np.where(below, sb * (self.s1 - 0.5 * sb * self.s2), value)
        above = i >= self.count - 1
        if above.any():
            value = np.where(above, self.sat, value)
        return value


def laplace_interference(
    set_kind: str,
    state: LinkKind,
    s: float,
    exclusion: float,
    cfg: NetworkConfig,
) -> float:
    """Laplace transform of the interference from one thinned point set.

    set_kind: "bs", "ris" or "ris_idle"; state selects the LOS or NLOS
    thinning; exclusion is the guard radius of the serving link's void.
    """
    if s < 0.0:
        raise ValueError("s must be >= 0")
    if exclusion < 0.0:
        raise ValueError("exclusion must be >= 0")
    density, power_gain = _set_parameters(set_kind, cfg)
    if s == 0.0 or density == 0.0 or power_gain == 0.0:
        return 1.0
    intercept, _ = path_law(state, cfg)
    c = s * power_gain * intercept
    total = _j(c, _tail_table(state, exclusion, cfg, 192))
    check = refined(total, _j(c, _tail_table(state, exclusion, cfg, 384)),
                    "interference tail integral", 1e-8, floor=1e-12)
    return float(np.exp(-density * check))


# -- coverage evaluator ------------------------------------------------------

class _CoverageEvaluator:
    """Precomputed grids and exponent tables for one (cfg, quad) pair.

    Building the evaluator fills, for each side (base stations over the x
    exclusions, reflectors over the y exclusions) and serving state, one
    `_ExponentTable` of the interference exponent in u = ln s; the NLOS-free
    set is filled on the first `coverage_small_beta` call.  Evaluating one
    threshold then forms s = gamma*T/signal on the grid and looks each side
    up once per Laplace product.  Arrays live on the (x, y, angle) grid, with
    size-1 axes where a quantity does not depend on that coordinate.
    """

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec):
        if cfg.lambda_bs <= 0.0:
            raise ValueError("coverage requires lambda_bs > 0")
        self.cfg = cfg
        self.quad = quad
        self.has_ris = cfg.lambda_ris > 0.0
        self.sigma2 = cfg.noise_power_watt

        nodes = gcq_nodes(quad)
        # serving-BS distance grid, scaled to the nearest-point scale
        sx = 0.6 / math.sqrt(cfg.lambda_bs)
        self.x = sx * nodes.x
        self.fdw = [
            sx * nodes.wx * serving_bs_density(self.x, state, cfg) for state in _STATES
        ]
        self.v = nodes.angle
        self.wv = nodes.w_angle
        # serving-reflector grid; one global scale keeps the factor tables
        # two-dimensional (exclusions depend on y alone)
        if self.has_ris:
            sy = math.sqrt(2.0 / (np.pi * cfg.lambda_ris * 0.4))
            if cfg.beta > 0.0:
                sy = min(sy, 3.0 / cfg.beta)
            sy = max(sy, 10.0 * cfg.r_min)
        else:
            sy = 1.0
        self.y = sy * nodes.y
        wy = sy * nodes.wy

        xg = self.x[:, None, None]
        yg = self.y[None, :, None]
        vg = self.v[None, None, :]
        self.z = bs_ris_distance(xg, yg, vg, r_min=cfg.r_min)
        if self.has_ris:
            self.gw = [
                wy[None, :, None] * ris_case_density(yg, xg, vg, state, cfg)
                for state in _STATES
            ]
        else:
            shape = (quad.q1, quad.q2, quad.q3)
            self.gw = [np.zeros(shape), np.zeros(shape)]
        mass = self.gw[0].sum(axis=1) + self.gw[1].sum(axis=1)
        # conditional case masses cannot exceed one per (x, angle) node; far
        # off the grid's natural scale the tan-map tail can overshoot, which
        # would double-count signal mass, so rescale instead of clipping
        over = np.maximum(mass, 1.0)
        self.gw = [g / over[:, None, :] for g in self.gw]
        self.remainder = np.clip(1.0 - mass / over, 0.0, 1.0)
        # normalizer: total measure of the grid, so T->0 gives exactly 1
        self.norm = sum(float(w.sum()) for w in self.fdw) * float(self.wv.sum())

        self._build_signal_tables()
        self._build_factor_tables()

    # signal powers per association case

    def _build_signal_tables(self) -> None:
        cfg = self.cfg
        gain_direct, gain_reflected = serving_gains(cfg)
        power = cfg.p_bs_watt
        xl = np.maximum(self.x, cfg.r_min)[:, None, None]
        yl = np.maximum(self.y, cfg.r_min)[None, :, None]
        laws = [path_law(state, cfg) for state in _STATES]
        self.sig_direct = [power * gain_direct * (c * xl**-alpha) for c, alpha in laws]
        leg_bs = [c * self.z**-alpha for c, alpha in laws]
        leg_user = [c * yl**-alpha for c, alpha in laws]
        # reflected signal: the BS->reflector leg state is mixed per node
        leg_prob = [state_weight(state, self.z, cfg.beta) for state in _STATES]
        self.reflected = {}
        for irho, ixi in itertools.product(range(2), repeat=2):
            amp_direct = np.sqrt(self.sig_direct[irho])
            amp = [np.sqrt(power * gain_reflected * leg * leg_user[ixi]) for leg in leg_bs]
            self.reflected[irho, ixi] = [
                (prob, (amp_direct + a) ** 2) for prob, a in zip(leg_prob, amp)
            ]

    # tail tables, keyed by (side, factor state, serving state of that side);
    # the reflector tables with serving state None have no void

    def _build_factor_tables(self) -> None:
        cfg = self.cfg
        kinds = _SET_KINDS if self.has_ris else _SET_KINDS[:1]
        self.sets = {kind: _set_parameters(kind, cfg) for kind in kinds}
        distances = {"bs": self.x[:, None, None]}
        if self.has_ris:
            distances["ris"] = self.y[None, :, None]
        self.tables = {}
        for fstate, state in enumerate(_STATES):
            for side, d in distances.items():
                for serving in range(2):
                    # interferers in the serving link's own state are excluded
                    # up to d, the other state up to equal received power
                    excl = equivalent_distance(d, _STATES[serving], state, cfg)
                    self.tables[side, fstate, serving] = _tail_table(
                        state, excl, cfg, self.quad.q_tail
                    )
            if self.has_ris:
                self.tables["ris", fstate, None] = _tail_table(
                    state, np.zeros((1, 1, 1)), cfg, self.quad.q_tail
                )
        self.exponents = {}
        self._exponent_tables(los_only=False)

    def _exponent_tables(self, los_only: bool) -> dict:
        """Each side's exponent table, keyed (side, serving state); the
        los_only set is filled on first use (two sweep threads may both fill
        it, with equal results)."""
        if los_only not in self.exponents:
            fstates = (0,) if los_only else (0, 1)
            self.exponents[los_only] = {
                (side, serving): _ExponentTable([
                    (density, power_gain * path_law(_STATES[f], self.cfg)[0],
                     self.tables[side, f, serving])
                    for f in fstates
                    for kind, (density, power_gain) in self.sets.items()
                    if (kind == "bs") == (side == "bs")
                ])
                for side, fstate, serving in self.tables
                if fstate == 0
            }
        return self.exponents[los_only]

    def _log_laplace(self, s, irho: int, ixi: int | None, los_only: bool):
        """Log of the interference Laplace product times exp(-s*sigma2) at s.

        irho and ixi are the serving BS and reflector states; ixi None takes
        the reflector sets without a void.  los_only drops the NLOS factors.
        """
        tables = self._exponent_tables(los_only)
        u = np.log(s) / _TABLE_STEP
        k = np.floor(u)
        basis = _hermite_basis(u - k)
        k = k.astype(np.intp)
        expo = -(s * self.sigma2) - tables["bs", irho](s, k, basis)
        if self.has_ris:
            expo = expo - tables["ris", ixi](s, k, basis)
        return expo

    # public evaluation

    def evaluate(
        self,
        threshold: float,
        direct_signal: bool = False,
        los_only: bool = False,
    ) -> CoverageResult:
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        w_terms = self.quad.w_alzer
        eps = alzer_epsilon(w_terms)
        # gamma-dummy sum: (scale of s, binomial coefficient) per term
        terms = [
            (w * eps, (-1.0) ** (w + 1) * math.comb(w_terms, w))
            for w in range(1, w_terms + 1)
        ]

        by_case: dict[AssociationCase, float] = {}
        for irho, rho in enumerate(_STATES):
            direct = [(1.0, self.sig_direct[irho])]
            fdw = self.fdw[irho][:, None, None] * self.wv
            # cases served through a reflector
            for ixi, xi in enumerate(_STATES):
                if self.has_ris:
                    signals = direct if direct_signal else self.reflected[irho, ixi]
                    value = self._case_value(
                        threshold, terms, signals, fdw * self.gw[ixi], irho, ixi, los_only
                    )
                else:
                    value = 0.0
                by_case[AssociationCase(rho, xi)] = value
            # no-reflector bucket: direct signal only
            by_case[AssociationCase(rho, None)] = self._case_value(
                threshold, terms, direct, fdw * self.remainder[:, None, :],
                irho, None, los_only,
            )

        total = sum(by_case.values()) / self.norm
        by_case = {case: val / self.norm for case, val in by_case.items()}
        clamped = not 0.0 <= total <= 1.0
        result_total = float(min(max(total, 0.0), 1.0))
        meta = {
            "quad": self.quad,
            "signal": "direct" if direct_signal else "combined",
            "los_only_interference": los_only,
            "clamped": clamped,
            "raw_total": float(total),
            "table_residual": max(
                table.residual for table in self._exponent_tables(los_only).values()
            ),
        }
        engine = "analytic-small-beta" if los_only else "analytic"
        return CoverageResult(result_total, by_case, engine, meta)

    def _case_value(self, threshold, terms, signals, weight, irho, ixi, los_only):
        """Grid integral of weight times the coverage kernel of one case.

        signals lists (probability, signal power) pairs that mix into the
        kernel; each contributes its gamma-dummy sum of Laplace products.
        """
        acc = 0.0
        for prob, sig in signals:
            ksum = 0.0
            for gamma, coef in terms:
                s = gamma * threshold / sig
                ksum = ksum + coef * np.exp(self._log_laplace(s, irho, ixi, los_only))
            acc = acc + prob * ksum
        return float(np.sum(weight * acc))


@lru_cache(maxsize=8)
def _get_evaluator(cfg: NetworkConfig, quad: QuadratureSpec) -> _CoverageEvaluator:
    return _CoverageEvaluator(cfg, quad)


def _resolve_quad(quad: QuadratureSpec | None) -> QuadratureSpec:
    return quad if quad is not None else QuadratureSpec()


def coverage_probability(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec | None = None,
) -> CoverageResult:
    """Coverage of the typical user with the reflected path in the signal."""
    ev = _get_evaluator(cfg, _resolve_quad(quad))
    return ev.evaluate(threshold)


def coverage_direct(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec | None = None,
) -> CoverageResult:
    """Coverage counting only the direct-link signal power.

    The interference field (including both reflector sets and their voids) is
    unchanged; only the serving signal drops the reflected amplitude.
    """
    ev = _get_evaluator(cfg, _resolve_quad(quad))
    return ev.evaluate(threshold, direct_signal=True)


def coverage_small_beta(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec | None = None,
) -> CoverageResult:
    """Reduced form for weak blockage: NLOS interference factors dropped.

    Valid when beta is small enough that NLOS serving weights are negligible;
    agrees with the full expression as beta -> 0.
    """
    ev = _get_evaluator(cfg, _resolve_quad(quad))
    return ev.evaluate(threshold, los_only=True)


# -- area spectral efficiency and energy efficiency --------------------------


def energy_efficiency(
    threshold: float, cfg: NetworkConfig, quad: QuadratureSpec | None = None
) -> EfficiencyResult:
    """Area spectral efficiency (bit/s/Hz per m^2) and energy efficiency.

    When active reflectors outnumber active BSs every BS serves through a
    reflector; otherwise the surplus BSs serve direct links.
    """
    quad = _resolve_quad(quad)
    p_bs = active_prob_bs(cfg)
    p_ris = active_prob_ris(cfg)
    served_bs = cfg.lambda_bs * p_bs
    served_ris = cfg.lambda_ris * p_ris
    rate = math.log2(1.0 + threshold)
    if served_bs > 0.0:
        ev = _get_evaluator(cfg, quad)
        p_cov = ev.evaluate(threshold).total
        if served_bs > served_ris:
            p_dir = ev.evaluate(threshold, direct_signal=True).total
            spectral = (served_ris * p_cov + (served_bs - served_ris) * p_dir) * rate
        else:
            spectral = served_bs * p_cov * rate
    else:
        spectral = 0.0
    power = served_bs * (cfg.p0_watt + cfg.delta * cfg.p_bs_watt)
    power += served_ris * cfg.n_ris * cfg.p_elem_watt
    ee = spectral / power if power > 0.0 else 0.0
    return EfficiencyResult(ase=float(spectral), power_density=float(power), ee=float(ee))
