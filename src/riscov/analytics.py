"""Semianalytical coverage, spectral-efficiency and energy-efficiency engine.

Coverage of the typical user is computed with the gamma-dummy (Alzer)
approximation: an alternating binomial sum over products of interference
Laplace transforms, averaged over the serving geometry (direct-link
distance, reflected-link distance and the angle between them) on a
Gauss-Chebyshev quadrature grid.  The angle enters only through its cosine,
so the grid keeps one node of each (v, 2*pi - v) pair of the Chebyshev rule
at double weight: the same sum, to rounding.  Interferers enter through four
thinned point processes (LOS/NLOS base stations, LOS/NLOS reflectors, the
latter split again into active and idle) whose Laplace transforms share one
half-line integral template.  The evaluator tabulates each side's summed
exponent once, in u = ln s, as per-interval polynomial coefficients, so a
threshold costs two table lookups per Laplace product.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ._quad import fold_circle, halfline_nodes, log_halfline_nodes, refined, tan_halfline_nodes
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


def alzer_epsilon(w: int) -> float:
    """Scale constant of the gamma-dummy SINR bound.

    W*(W!)^(-1/W) is the tight-bound constant for the CDF of a unit-mean
    gamma variable with shape W: it equals 1 at W=1 (where the bound is
    exact) and approaches e from below.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    return w * math.factorial(w) ** (-1.0 / w)


def _chebyshev_angle(count: int) -> tuple[np.ndarray, np.ndarray]:
    # cosine map onto (0, 2*pi); weights average (the 1/(2*pi) is folded in)
    k = np.arange(1, count + 1)
    theta = (2 * k - 1) * np.pi / (2 * count)
    nodes = np.pi * (np.cos(theta) + 1.0)
    weights = np.pi * np.sin(theta) / (2 * count)
    return nodes, weights


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
def active_prob_ris(cfg: NetworkConfig) -> float:
    """Probability a reflector cell holds at least one user.

    Expectation of the occupancy over the serving geometry (x, y, angle),
    normalized to the mass the serving-reflector densities capture.
    """
    if cfg.lambda_ris <= 0.0 or cfg.lambda_u <= 0.0 or cfg.lambda_bs <= 0.0:
        return 0.0

    # the eligible-user region around a reflector is a half-plane sector; its
    # effective cell is 1/c times larger than the isotropic Voronoi cell of a
    # process with density lambda_ris / 2, hence the 2/c load scaling
    def idle_kernel(x, y, v):
        c = side_condition(x, y, v)
        return _empty_cell_prob(2.0 * cfg.lambda_u / (c * cfg.lambda_ris))

    # the kernel lies in [0, 1], so 0 <= idle_mass <= total_mass
    idle_mass, total_mass = ris_joint_expectation(cfg, (idle_kernel, None))
    if total_mass <= 0.0:
        return 0.0
    return 1.0 - idle_mass / total_mass


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

    # the z^-alpha mass sits near r_min, the LOS tail reaches to 1/beta
    scale = max(1.0 / cfg.beta if cfg.beta > 0.0 else 0.0, 10.0 * cfg.r_min)

    def integral(count):
        z, w = log_halfline_nodes(count, count, cfg.r_min, scale)
        return float(np.sum(w * integrand(z)))

    check = refined(integral(384), integral(768), "ambient reflected power integral",
                    1e-9, floor=1e-30)
    return float(np.pi * cfg.lambda_bs * cfg.p_bs_watt * check)


# -- interference Laplace transforms -----------------------------------------

def _interferers(side: str, cfg: NetworkConfig) -> tuple[tuple[float, float], ...]:
    """(spatial density, power*gain scale) of each interfering point set of
    one side: the active base stations for "bs"; the active, then the idle
    reflectors for "ris", whose two sets share their tail tables."""
    if side == "bs":
        return ((float(2.0 * np.pi * cfg.lambda_bs * active_prob_bs(cfg)),
                 float(cfg.p_bs_watt * mean_direct_interference_gain(cfg))),)
    p_active, power = active_prob_ris(cfg), ris_interference_power(cfg)
    return tuple(
        (float(np.pi * cfg.lambda_ris * p),
         float(power * mean_reflected_interference_gain(cfg, idle=idle)))
        for p, idle in ((p_active, False), (1.0 - p_active, True))
    )


# inner end of the void-free log map, in units of r_min; the disc it leaves
# out holds at most (floor*r_min)^2/2 of J per unit density at any c
_VOID_FREE_FLOOR = 1e-9
# log-map nodes of a void-free table per node of its half-line part
_VOID_FREE_NODES = 8


def _tail_table(state: LinkKind, exclusion, cfg: NetworkConfig, nodes: int,
                knee: float = 0.0):
    """Tables (A, B) with J(c) = sum_k A[k] * (1 - exp(-c * B[k])).

    J(c) integrates the state-thinning weight times (1 - exp(-c*r^-alpha))*r
    over r beyond `exclusion`: the exponent of one interfering set's Laplace
    transform per unit density.  The node axis comes first; the other axes
    follow `exclusion`.  An all-zero `exclusion` (no void) adds a rule in
    ln r below the map scale.  `knee`, the c^(1/alpha) of a table serving
    one c, is a floor on the map scale wherever blockage does not bound it.
    """
    exclusion = np.asarray(exclusion, dtype=float)
    # support is bounded by the blockage decay for LOS sets and by the
    # pathloss rolloff at the knee otherwise; the map reaches far past `scale`
    scale = np.maximum(3.0 * exclusion, 100.0 * cfg.r_min)
    if state is LinkKind.LOS and cfg.beta > 0.0:
        scale = np.maximum(np.minimum(scale, 5.0 / cfg.beta), 1.0 / cfg.beta)
    else:
        scale = np.maximum(scale, knee)
    if exclusion.any():
        r, w = halfline_nodes(nodes, scale, exclusion)
    else:
        # without a void the knee of the integrand sits at r = c^(1/alpha),
        # anywhere in (0, scale) as c ranges over the tables
        r, w = log_halfline_nodes(_VOID_FREE_NODES * nodes, nodes,
                                  _VOID_FREE_FLOOR * cfg.r_min, scale)
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
# and exp(-x) rounds to zero, so `_j` returns sum(A) and zero derivatives
_SATURATION_EDGE = 40.0
# below it one term takes the two-term series in the fill: J, J_u and J_uu
# are then within (c*B)^2/6, (c*B)^2/2 and 3*(c*B)^2/2 < 4e-13 relative
_TERM_SERIES_EDGE = 5e-7
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


class _Term(NamedTuple):
    """One (density, scale, tail table) summand of an `_ExponentTable`, with
    per column the u range where `_j` is needed, and the series sums
    sum(A*B), sum(A*B^2) and the saturated sum(A) that stand in outside."""

    density: float
    scale: float
    table: tuple
    live_lo: np.ndarray
    live_hi: np.ndarray
    ab: np.ndarray
    abb: np.ndarray
    sat: np.ndarray


class _ExponentTable:
    """One side's interference exponent L(u) = sum density * J(e^u * scale).

    `terms` lists (density, scale, tail table) triples whose tail tables share
    one exclusion shape; each exclusion node is a column with its own run of
    lattice nodes u = k*_TABLE_STEP.  A column keeps three kinds of rows of
    six coefficients in `coef`, one after the other: the two-term series
    s*S1 - s^2*S2/2 in s below the run; per interval of the run, the quintic
    Hermite of L in t from its value and first two u-derivatives (with
    x = c*B, J_u = sum A*x*exp(-x) and J_uu = sum A*x*(1-x)*exp(-x)); and
    the saturated sum(A*density) above the run.  A lookup is one Horner pass.
    """

    def __init__(self, terms):
        shape = terms[0][2][0].shape[1:]  # the exclusion shape of the tail tables
        size = math.prod(shape)
        lo, hi = np.full(size, np.inf), np.full(size, -np.inf)
        s1, s2, sat = np.zeros((3, size))
        self.terms = []
        for d, sc, (a, b) in terms:
            if not (d > 0.0 and sc > 0.0):
                continue
            a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
            with np.errstate(divide="ignore"):
                b_max = b.max(axis=0)
                b_live = np.where(a > 0.0, b, np.inf).min(axis=0)
                lo = np.minimum(lo, np.log(_SERIES_EDGE / (sc * b_max)))
                live_hi = np.log(_SATURATION_EDGE / (sc * b_live))
                hi = np.maximum(hi, live_hi)
            ab, abb = np.sum(a * b, axis=0), np.sum(a * b * b, axis=0)
            a_sum = np.sum(a, axis=0)
            s1 += d * sc * ab
            s2 += d * sc**2 * abb
            sat += d * a_sum
            self.terms.append(_Term(d, sc, (a, b), np.log(_TERM_SERIES_EDGE / (sc * b_max)),
                                    live_hi, ab, abb, a_sum))
        h = _TABLE_STEP
        # a column no term reaches is zero everywhere: two zero nodes
        empty = ~(hi > lo)
        k_lo = np.floor(np.where(empty, 0.0, lo) / h).astype(np.intp)
        count = np.ceil(np.where(empty, h, hi) / h).astype(np.intp) - k_lo + 1
        offset = np.cumsum(count) - count
        # per-column constants, shaped like the exclusions; a column's rows
        # follow the previous column's, and `first` is the row of its first
        # interval, one after its series row
        first = offset + np.arange(size) + 1
        self.k_lo, self.count, self.first = (v.reshape(shape) for v in (k_lo, count, first))
        self.s_edge = np.exp(self.k_lo * h)

        node_col = np.repeat(np.arange(size), count)
        node_k = np.arange(count.sum()) - np.repeat(offset, count) + np.repeat(k_lo, count)
        node_row = np.arange(count.sum()) + node_col + 1
        f, df, ddf = self._exact(node_k * h, node_col, derivatives=True)
        # (f, h*f', h^2*f'') per node at its row; row j is the quintic of the
        # six values from row j
        values = np.zeros((len(node_row) + size + 1, 3))
        values[node_row] = np.stack([f, h * df, h * h * ddf], axis=-1)
        self.coef = np.lib.stride_tricks.sliding_window_view(values.ravel(), 6)[::3] @ _HERMITE
        # the row before a column's first node takes the series, and the row
        # of its last node, which starts no interval, the saturated value
        series, last = first - 1, first + count - 1
        self.coef[series] = self.coef[last] = 0.0
        self.coef[series, 1], self.coef[series, 2], self.coef[last, 0] = s1, -0.5 * s2, sat
        # build check: the interpolant against the exact sum at every midpoint
        left = np.flatnonzero(np.diff(node_col, append=-1) == 0)
        exact = self._exact((node_k[left] + 0.5) * h, node_col[left])[0]
        interp = self._horner(node_row[left], 0.5)
        rel = np.abs(interp - exact) / np.maximum(np.abs(exact), _TABLE_FLOOR)
        worst = int(np.argmax(rel))
        self.residual = float(rel[worst])
        refined(float(interp[worst]), float(exact[worst]),
                "interference exponent table", _TABLE_RTOL, floor=_TABLE_FLOOR)

    def _exact(self, u, cols, derivatives: bool = False):
        """(L,) or (L, L_u, L_uu) at each (u, column) pair; `cols` is sorted
        and u ascends within each column's run of pairs.

        A term takes its two-term series below its live range and its
        saturated value above it; inside, `_j` reads a (nodes, 1) slice of
        the tail tables, _CHUNK elements at a time.
        """
        out = np.zeros((3 if derivatives else 1, len(u)))
        runs = np.searchsorted(cols, np.arange(self.k_lo.size + 1))
        for term in self.terms:
            d, sc, (a, b) = term.density, term.scale, term.table
            below = u < term.live_lo[cols]
            above = u > term.live_hi[cols]
            i = np.flatnonzero(below)
            c = np.exp(u[i]) * sc
            first, second = c * term.ab[cols[i]], c * c * term.abb[cols[i]]
            out[0, i] += d * (first - 0.5 * second)
            if derivatives:
                out[1, i] += d * (first - second)
                out[2, i] += d * (first - 2.0 * second)
            i = np.flatnonzero(above)
            out[0, i] += d * term.sat[cols[i]]
            # below is a prefix and above a suffix of each run
            n_below = np.diff(np.concatenate(([0], np.cumsum(below)))[runs])
            n_above = np.diff(np.concatenate(([0], np.cumsum(above)))[runs])
            starts, stops = runs[:-1] + n_below, runs[1:] - n_above
            chunk = max(1, _CHUNK // len(a))
            for col in np.flatnonzero(stops > starts):
                table = (a[:, col:col + 1], b[:, col:col + 1])
                for start in range(starts[col], stops[col], chunk):
                    part = slice(start, min(start + chunk, stops[col]))
                    out[:, part] += d * np.array(_j(np.exp(u[part]) * sc, table, derivatives),
                                                 ndmin=2)
        return out

    def _horner(self, rows, t):
        """Each row of `coef` in `rows` at its variable t, by Horner's rule."""
        coef = self.coef.take(rows, axis=0)
        value = coef[..., 5] * t
        for p in range(4, 0, -1):
            value += coef[..., p]
            value *= t
        value += coef[..., 0]
        return value

    def __call__(self, s, k, t):
        """L at s = exp(u) where u/_TABLE_STEP = k + t, t in [0, 1); s, k and
        t broadcast against the columns.  The series rows take min(s, s_edge)
        in place of t."""
        i = np.minimum(np.maximum(k - self.k_lo, -1), self.count - 1)
        return self._horner(self.first + i, np.where(i < 0, np.minimum(s, self.s_edge), t))


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
    try:
        side, index = {"bs": ("bs", 0), "ris": ("ris", 0), "ris_idle": ("ris", 1)}[set_kind]
    except KeyError:
        raise ValueError(f"unknown interferer set {set_kind!r}") from None
    density, power_gain = _interferers(side, cfg)[index]
    if s == 0.0 or density == 0.0 or power_gain == 0.0:
        return 1.0
    intercept, alpha = path_law(state, cfg)
    c = s * power_gain * intercept
    knee = c ** (1.0 / alpha)
    total = _j(c, _tail_table(state, exclusion, cfg, 192, knee))
    check = refined(total, _j(c, _tail_table(state, exclusion, cfg, 384, knee)),
                    "interference tail integral", 1e-8, floor=1e-12)
    return float(np.exp(-density * check))


# -- coverage evaluator ------------------------------------------------------

class _CoverageEvaluator:
    """Precomputed grids and exponent tables for one (cfg, quad) pair.

    Each evaluator describes one side: the base stations over the x
    exclusions without reflectors, the reflectors over the y exclusions with
    them.  It keeps that side's point sets `sets`, tail tables and, per
    serving state, one `_ExponentTable` of the interference exponent in
    u = ln s; the NLOS-free set is filled on the first `coverage_small_beta`
    call.  The base-station side (x grid, its weights `fdw` and tables) is
    built only by the configuration's reflector-free twin; an evaluator with
    reflectors holds the twin's evaluator as `base` and reads that side from
    it, so the cache keeps one copy for both.  Evaluating one threshold forms
    s = gamma*T/signal on the grid and looks each side up once per Laplace
    product; it keeps no result.  Arrays live on the (x, y, angle) grid, with
    size-1 axes where a quantity does not depend on that coordinate.
    """

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec):
        if cfg.lambda_bs <= 0.0:
            raise ValueError("coverage requires lambda_bs > 0")
        self.cfg = cfg
        self.quad = quad
        self.has_ris = cfg.lambda_ris > 0.0
        self.sigma2 = cfg.noise_power_watt
        self._lock = threading.Lock()
        # nothing on the base-station side depends on lambda_ris: a
        # configuration with reflectors shares that side with its twin
        # without them, whose evaluator comes from (and lands in) the cache;
        # None, not self, on the twin, so no cycle outlives the cache entry
        self.base = _get_evaluator(cfg.replace(lambda_ris=0.0), quad) if self.has_ris else None

        # every integrand sees the angle through its cosine only
        self.v, self.wv = fold_circle(*_chebyshev_angle(quad.q3))
        if self.has_ris:
            self.x, self.fdw = self.base.x, self.base.fdw
            # serving-reflector grid; one global scale keeps the factor tables
            # two-dimensional (exclusions depend on y alone)
            sy = math.sqrt(2.0 / (np.pi * cfg.lambda_ris * 0.4))
            if cfg.beta > 0.0:
                sy = min(sy, 3.0 / cfg.beta)
            sy = max(sy, 10.0 * cfg.r_min)
            self.y, wy = tan_halfline_nodes(quad.q2, sy)

            xg = self.x[:, None, None]
            yg = self.y[None, :, None]
            vg = self.v[None, None, :]
            self.z = bs_ris_distance(xg, yg, vg, r_min=cfg.r_min)
            self.gw = [
                wy[None, :, None] * ris_case_density(yg, xg, vg, state, cfg)
                for state in _STATES
            ]
            mass = self.gw[0].sum(axis=1) + self.gw[1].sum(axis=1)
            # conditional case masses cannot exceed one per (x, angle) node; far
            # off the grid's natural scale the tan-map tail can overshoot, which
            # would double-count signal mass, so rescale instead of clipping
            over = np.maximum(mass, 1.0)
            self.gw = [g / over[:, None, :] for g in self.gw]
            self.remainder = np.clip(1.0 - mass / over, 0.0, 1.0)
        else:
            # serving-BS distance grid, scaled to the nearest-point scale
            sx = 0.6 / math.sqrt(cfg.lambda_bs)
            self.x, wx = tan_halfline_nodes(quad.q1, sx)
            self.fdw = [wx * serving_bs_density(self.x, state, cfg) for state in _STATES]
            self.remainder = np.ones((quad.q1, self.v.size))
        # normalizer: total measure of the grid, so T->0 gives exactly 1
        self.norm = sum(float(w.sum()) for w in self.fdw) * float(self.wv.sum())

        self._build_signal_tables()
        self._build_factor_tables()

    # signal powers per association case

    def _build_signal_tables(self) -> None:
        cfg = self.cfg
        # the direct gain is not shared with the twin: beams aim at the
        # reflected path only when there are reflectors
        gain_direct, gain_reflected = serving_gains(cfg)
        power = cfg.p_bs_watt
        xl = np.maximum(self.x, cfg.r_min)[:, None, None]
        laws = [path_law(state, cfg) for state in _STATES]
        self.sig_direct = [power * gain_direct * (c * xl**-alpha) for c, alpha in laws]
        self.reflected = {}
        if not self.has_ris:
            return
        yl = np.maximum(self.y, cfg.r_min)[None, :, None]
        leg_bs = [c * self.z**-alpha for c, alpha in laws]
        leg_user = [c * yl**-alpha for c, alpha in laws]
        # reflected signal: the BS->reflector leg state is mixed per node
        leg_prob = [state_weight(state, self.z, cfg.beta) for state in _STATES]
        for irho, ixi in itertools.product(range(2), repeat=2):
            amp_direct = np.sqrt(self.sig_direct[irho])
            amp = [np.sqrt(power * gain_reflected * leg * leg_user[ixi]) for leg in leg_bs]
            self.reflected[irho, ixi] = [
                (prob, (amp_direct + a) ** 2) for prob, a in zip(leg_prob, amp)
            ]

    # this side's tail tables, keyed by (factor state, serving state); the
    # reflector tables with serving state None have no void

    def _build_factor_tables(self) -> None:
        cfg = self.cfg
        self.sets = _interferers("ris" if self.has_ris else "bs", cfg)
        d = self.y[None, :, None] if self.has_ris else self.x[:, None, None]
        self.tables = {}
        for fstate, state in enumerate(_STATES):
            for serving in (0, 1, None) if self.has_ris else (0, 1):
                # interferers in the serving link's own state are excluded
                # up to d, the other state up to equal received power
                excl = (np.zeros((1, 1, 1)) if serving is None
                        else equivalent_distance(d, _STATES[serving], state, cfg))
                self.tables[fstate, serving] = _tail_table(state, excl, cfg, self.quad.q_tail)
        self.exponents = {}
        self._exponent_tables(los_only=False)

    def _exponent_tables(self, los_only: bool) -> dict:
        """This side's exponent tables, keyed by serving state.

        The los_only set is filled on first use, once even when sweep threads
        ask together.
        """
        with self._lock:
            if los_only not in self.exponents:
                fstates = (0,) if los_only else (0, 1)
                self.exponents[los_only] = {
                    serving: _ExponentTable([
                        (density, power_gain * path_law(_STATES[f], self.cfg)[0],
                         self.tables[f, serving])
                        for f in fstates
                        for density, power_gain in self.sets
                    ])
                    for fstate, serving in self.tables
                    if fstate == 0
                }
        return self.exponents[los_only]

    def _sides(self) -> tuple:
        """The evaluators of the Laplace product's sides, base stations first."""
        return (self.base, self) if self.has_ris else (self,)

    def _log_laplace(self, s, irho: int, ixi: int | None, los_only: bool):
        """Log of the interference Laplace product times exp(-s*sigma2) at s.

        irho and ixi are the serving BS and reflector states; ixi None takes
        the reflector sets without a void.  los_only drops the NLOS factors.
        """
        u = np.log(s) / _TABLE_STEP
        k = np.floor(u)
        t = u - k
        k = k.astype(np.intp)
        expo = -(s * self.sigma2)
        for side, serving in zip(self._sides(), (irho, ixi)):
            expo = expo - side._exponent_tables(los_only)[serving](s, k, t)
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
                table.residual for side in self._sides()
                for table in side._exponent_tables(los_only).values()
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


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _BuildOnce:
    """A bounded LRU cache of `build(*key)` that builds each key once.

    Each key holds one `Future`: the first caller for a key inserts it and
    builds, and later callers wait on it and count as hits.  A failed build
    is not kept.  `cache_info()` and `cache_clear()` behave as those of
    `functools.lru_cache`, except that `currsize` counts builds still in
    flight.
    """

    def __init__(self, build, maxsize: int):
        self._build = build
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self._lock:
            self._futures = OrderedDict()
            self._hits = self._misses = 0

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._futures))

    def __call__(self, *key):
        with self._lock:
            future = self._futures.get(key)
            if future is not None:
                self._hits += 1
                self._futures.move_to_end(key)
            else:
                self._misses += 1
                building = self._futures[key] = Future()
                if len(self._futures) > self._maxsize:
                    self._futures.popitem(last=False)
        if future is not None:
            return future.result()
        try:
            value = self._build(*key)
        except BaseException as exc:
            with self._lock:
                # a cache_clear() during the build may have let another caller in
                if self._futures.get(key) is building:
                    del self._futures[key]
            building.set_exception(exc)
            raise
        building.set_result(value)
        return value


# one sweep point asks for at most four configurations: its own, p2's and
# their reflector-free twins (p_t's is the first twin)
_get_evaluator = _BuildOnce(_CoverageEvaluator, maxsize=8)


def coverage_probability(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CoverageResult:
    """Coverage of the typical user with the reflected path in the signal."""
    ev = _get_evaluator(cfg, quad)
    return ev.evaluate(threshold)


def coverage_direct(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CoverageResult:
    """Coverage counting only the direct-link signal power.

    The interference field (including both reflector sets and their voids) is
    unchanged; only the serving signal drops the reflected amplitude.
    """
    ev = _get_evaluator(cfg, quad)
    return ev.evaluate(threshold, direct_signal=True)


def coverage_small_beta(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CoverageResult:
    """Reduced form for weak blockage: NLOS interference factors dropped.

    Valid when beta is small enough that NLOS serving weights are negligible;
    agrees with the full expression as beta -> 0.
    """
    ev = _get_evaluator(cfg, quad)
    return ev.evaluate(threshold, los_only=True)


# -- area spectral efficiency and energy efficiency --------------------------


def energy_efficiency(
    threshold: float,
    cfg: NetworkConfig,
    quad: QuadratureSpec = QuadratureSpec(),
    coverage: Callable[[bool], float] | None = None,
) -> EfficiencyResult:
    """Area spectral efficiency (bit/s/Hz per m^2) and energy efficiency.

    When active reflectors outnumber active BSs every BS serves through a
    reflector; otherwise the surplus BSs serve direct links.  `coverage`,
    if given, maps direct_signal to the coverage total of (threshold, cfg,
    quad), so a caller that has it already need not evaluate it again.
    """
    p_bs = active_prob_bs(cfg)
    p_ris = active_prob_ris(cfg)
    served_bs = cfg.lambda_bs * p_bs
    served_ris = cfg.lambda_ris * p_ris
    rate = math.log2(1.0 + threshold)
    if served_bs > 0.0:
        if coverage is None:
            ev = _get_evaluator(cfg, quad)

            def coverage(direct_signal: bool) -> float:
                return ev.evaluate(threshold, direct_signal=direct_signal).total

        p_cov = coverage(False)
        if served_bs > served_ris:
            p_dir = coverage(True)
            spectral = (served_ris * p_cov + (served_bs - served_ris) * p_dir) * rate
        else:
            spectral = served_bs * p_cov * rate
    else:
        spectral = 0.0
    power = served_bs * (cfg.p0_watt + cfg.delta * cfg.p_bs_watt)
    power += served_ris * cfg.n_ris * cfg.p_elem_watt
    ee = spectral / power if power > 0.0 else 0.0
    return EfficiencyResult(ase=float(spectral), power_density=float(power), ee=float(ee))
