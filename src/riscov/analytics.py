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
exponent in u = ln s as per-interval polynomial coefficients, filled on
demand.  Per threshold, an evaluate reads only the live grid nodes: those
whose weight, times the bound the noise term alone puts on their kernel,
can reach the total.  It first fills the intervals that its lookups at live
nodes reach and no earlier one did, in batched `_j` calls, so a threshold
costs two table lookups per Laplace product and live node.
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
    _serving_density,
    _serving_factors,
    bs_ris_distance,
    equivalent_distance,
    path_law,
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
# terms W of the gamma-dummy binomial sum; the smoothed SINR step it defines
# moves with the depth (see `alzer_epsilon`)
_W_ALZER = 5


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the semianalytical engine.

    q1, q2, q3 and q_tail are quadrature resolutions: doubling them refines
    the same integrals.  The series depth is not a resolution but a constant
    of the gamma-dummy approximation, `_W_ALZER`.
    """

    q1: int = 32  # serving-BS distance nodes
    q2: int = 32  # serving-reflector distance nodes
    q3: int = 16  # angle nodes
    q_tail: int = 48  # Gauss-Legendre nodes of the interference tail tables

    def __post_init__(self) -> None:
        for name in ("q1", "q2", "q3", "q_tail"):
            count = getattr(self, name)
            if not isinstance(count, int) or count < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {count!r}")


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


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")


def _chebyshev_angle(count: int) -> tuple[np.ndarray, np.ndarray]:
    # cosine map onto (0, 2*pi); weights average (the 1/(2*pi) is folded in)
    k = np.arange(1, count + 1)
    theta = (2 * k - 1) * np.pi / (2 * count)
    nodes = np.pi * (np.cos(theta) + 1.0)
    weights = np.pi * np.sin(theta) / (2 * count)
    return nodes, weights


# -- cell-load probabilities -------------------------------------------------


def _log_empty_cell(load):
    """Log of the probability that a cell with mean load `load` users is
    empty (3.5-moment fit), in log1p form: its busy complement -expm1 of it
    keeps full relative precision at small loads."""
    return -3.5 * np.log1p(load)


def active_prob_bs(cfg: NetworkConfig) -> float:
    """Probability a BS cell holds at least one user (3.5-moment fit)."""
    if cfg.lambda_bs <= 0.0:
        return 0.0
    return float(-np.expm1(_log_empty_cell(cfg.lambda_u / cfg.lambda_bs)))


@lru_cache(maxsize=64)
def _ris_activity(cfg: NetworkConfig) -> tuple[float, float]:
    """(busy, idle) probabilities of a reflector cell.

    The expectation of the occupancy over the serving geometry (x, y,
    angle), normalized to the geometry's mass, which the same pass sums.
    The busy kernel is integrated as it stands, so a small busy probability
    keeps its full relative precision; idle is the rest of the mass.
    """
    if cfg.lambda_ris <= 0.0 or cfg.lambda_u <= 0.0 or cfg.lambda_bs <= 0.0:
        return 0.0, 1.0

    # the eligible-user region around a reflector is a half-plane sector; its
    # effective cell is 1/c times larger than the isotropic Voronoi cell of a
    # process with density lambda_ris / 2, hence the 2/c load scaling
    def busy_kernel(x, y, v, side):
        return -np.expm1(_log_empty_cell(2.0 * cfg.lambda_u / (side * cfg.lambda_ris)))

    # busy <= 1 at every node, and both sums add non-negative terms in one
    # order, so busy <= total and idle is never negative
    busy, total = map(sum, ris_joint_expectation(cfg, (busy_kernel, None)))
    if total <= 0.0:
        return 0.0, 1.0
    return busy / total, (total - busy) / total


def active_prob_ris(cfg: NetworkConfig) -> float:
    """Probability a reflector cell holds at least one user: the busy
    probability of `_ris_activity`."""
    return _ris_activity(cfg)[0]


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
    p_busy, p_idle = _ris_activity(cfg)
    power = ris_interference_power(cfg)
    return tuple(
        (float(np.pi * cfg.lambda_ris * p),
         float(power * mean_reflected_interference_gain(cfg, idle=idle)))
        for p, idle in ((p_busy, False), (p_idle, True))
    )


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
    # pathloss rolloff at the knee otherwise; the map reaches far past `scale`
    scale = np.maximum(3.0 * exclusion, 100.0 * cfg.r_min)
    if state is LinkKind.LOS and cfg.beta > 0.0:
        scale = np.maximum(np.minimum(scale, 5.0 / cfg.beta), 1.0 / cfg.beta)
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
# below a column's lattice every node has x = c*B <= this, so the five-term
# series of J is within x^5/720 < 4.5e-12 relative
_SERIES_EDGE = 0.02
# above it every node with weight has c*B >= this: J is saturated to exp(-40)
# and exp(-x) rounds to zero, so `_j` returns sum(A) and zero derivatives
_SATURATION_EDGE = 40.0
# elements of one (table nodes, values) temporary of a `_j` call in a fill
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


def _ranges(starts, counts):
    """(range number, value) of each element of the ranges [starts,
    starts + counts), laid end to end."""
    stops = np.cumsum(counts)
    return (np.repeat(np.arange(len(counts)), counts),
            np.arange(stops[-1]) + np.repeat(starts - (stops - counts), counts))


def _horner(coef, rows, t):
    """Each row of `coef` in `rows` at its variable t, by Horner's rule."""
    coef = coef.take(rows, axis=0)
    value = coef[..., 5] * t
    for p in range(4, 0, -1):
        value += coef[..., p]
        value *= t
    value += coef[..., 0]
    return value


class _Rows(NamedTuple):
    """The rows an `_ExponentTable` holds, replaced whole by each fill so a
    lookup reads one consistent set.  Per column, shaped like the
    exclusions, or per node once `_ExponentTable.at` gathers them: the
    lattice index k0 of its first filled interval, their count `width`
    (zero while no lookup has read the column), the row `start` of `coef`
    that holds it, and the series edge s_edge; the series row comes just
    before and the saturated row just after them."""

    coef: np.ndarray
    k0: np.ndarray
    width: np.ndarray
    start: np.ndarray
    s_edge: np.ndarray

    def __call__(self, s, k, t):
        """L at s = exp(u) where u/_TABLE_STEP = k + t, t in [0, 1), one per
        node of gathered rows, in intervals `cover` has filled.  Below the
        span a lookup takes the series row, with min(s/s_edge, 1) in place
        of t, and above it the saturated row."""
        j = np.minimum(np.maximum(k - self.k0, -1), self.width)
        return _horner(self.coef, self.start + j,
                       np.where(j < 0, np.minimum(s / self.s_edge, 1.0), t))


class _ExponentTable:
    """One side's interference exponent L(u) = sum density * J(e^u * scale).

    `groups` lists (tail table, [(density, scale), ...]) pairs whose tail
    tables share one exclusion shape; the terms of a group share the table's
    `_j` calls.  Each exclusion node is a column with its own run of lattice
    nodes u = k*_TABLE_STEP, the first at s_edge = e^u.  A column keeps three
    kinds of rows of six coefficients, one after the other: below the run,
    J's five-term series sum_n (-1)^(n+1) x^n/n! summed over the nodes, in
    t = s/s_edge; per interval of the run, the quintic Hermite of L in t
    from its value and first two u-derivatives (with x = c*B,
    J_u = sum A*x*exp(-x) and J_uu = sum A*x*(1-x)*exp(-x)); and the
    saturated sum(A*density) above the run.  A lookup is one Horner pass of
    the rows that `at` gathers.

    Intervals are filled on demand: `cover` fills those a u range reads, and
    each column holds one contiguous span of them.  `residual` is the worst
    midpoint error over the intervals filled so far.
    """

    def __init__(self, groups):
        shape = groups[0][0][0].shape[1:]  # the exclusion shape of the tail tables
        size = math.prod(shape)
        lo, hi = np.full(size, np.inf), np.full(size, -np.inf)
        sat = np.zeros(size)
        # the groups with their terms of zero density or scale dropped, and
        # the tail tables flattened to (nodes, columns)
        self.groups = []
        for table, terms in groups:
            terms = [(d, sc) for d, sc in terms if d > 0.0 and sc > 0.0]
            if not terms:
                continue
            a, b = table = tuple(t.reshape(len(t), -1) for t in table)
            for d, sc in terms:
                with np.errstate(divide="ignore"):
                    lo = np.minimum(lo, np.log(_SERIES_EDGE / (sc * b.max(axis=0))))
                    b_live = np.where(a > 0.0, b, np.inf).min(axis=0)
                    hi = np.maximum(hi, np.log(_SATURATION_EDGE / (sc * b_live)))
                sat += d * np.sum(a, axis=0)
            self.groups.append((table, terms))
        h = _TABLE_STEP
        # a column no term reaches is zero everywhere: two zero nodes
        empty = ~(hi > lo)
        k_lo = np.floor(np.where(empty, 0.0, lo) / h).astype(np.intp)
        count = np.ceil(np.where(empty, h, hi) / h).astype(np.intp) - k_lo + 1
        # per-column constants, shaped like the exclusions
        self.k_lo, self.count = k_lo.reshape(shape), count.reshape(shape)
        self.s_edge = np.exp(self.k_lo * h)
        # the series row's coefficients of t^1 .. t^5: each x^n is summed at
        # x = s_edge*c*B <= _SERIES_EDGE, so no power of s_edge under- or
        # overflows on its own
        series = np.zeros((5, size))
        edge = np.where(empty, 0.0, self.s_edge.ravel())
        for (a, b), terms in self.groups:
            for d, sc in terms:
                x = edge * sc * b
                power = x
                for n in range(1, 6):
                    series[n - 1] += (-1) ** (n + 1) * d / math.factorial(n) * np.sum(
                        a * power, axis=0)
                    power = power * x
        # the series and saturated rows
        self._outside = (series.T, sat)
        self._rows = None  # until the first fill
        self._lock = threading.Lock()
        self.residual = 0.0

    def cover(self, u_lo, u_hi):
        """Fill the intervals that lookups at u in [u_lo, u_hi] read.

        u_lo and u_hi broadcast against the columns; a column where u_lo >
        u_hi asks for nothing.  A range off a column's lattice fills the
        interval nearest to it, so a span filled for two ranges holds every
        range between them.  Each column's span grows to the one run that
        holds its old span and the new range; only the new intervals and
        their end nodes are computed, and every new interval is held to
        _TABLE_RTOL at its midpoint before a lookup can read it.  Fills run
        under the table's lock, so threads may share a table.
        """
        h = _TABLE_STEP
        k_lo = self.k_lo.ravel()
        end = self.count.ravel() - 1  # intervals 0 .. count - 2 hold quintics
        u_lo, u_hi = (np.broadcast_to(u, self.k_lo.shape).ravel() for u in (u_lo, u_hi))
        # the lookups' interval index, floor(u/h) - k_lo, at either end; a
        # column asking for nothing gets the empty span (end, 0), which is
        # the identity of the union below
        i_lo, i_hi = (np.floor(u / h) - k_lo for u in (u_lo, u_hi))
        none = ~(u_lo <= u_hi)
        want_lo = np.where(none, end, np.clip(i_lo, 0, end - 1)).astype(np.intp)
        want_hi = np.where(none, 0, np.clip(i_hi + 1, want_lo + 1, end)).astype(np.intp)
        with self._lock:
            old = self._rows
            if old is None:
                old_lo, old_hi = end, np.zeros_like(end)
            else:
                old_lo = old.k0.ravel() - k_lo
                old_hi = np.where(old.width.ravel() > 0, old_lo + old.width.ravel(), 0)
            lo, hi = np.minimum(old_lo, want_lo), np.maximum(old_hi, want_hi)
            if np.array_equal(lo, old_lo) and np.array_equal(hi, old_hi):
                return
            width = np.maximum(hi - lo, 0)
            # every node lo .. hi of each column with a span; interval i runs
            # from node i to node i + 1, and it is new outside the old span
            col, i = _ranges(lo, np.where(width > 0, width + 1, 0))
            k = i + k_lo[col]  # the lattice index
            new = ((i < old_lo[col]) | (i >= old_hi[col])) & (i < hi[col])
            needed = new | np.concatenate(([False], new[:-1]))
            values = np.empty((len(i), 3))
            f, df, ddf = self._exact(k[needed] * h, col[needed], derivatives=True)
            values[needed] = np.stack([f, h * df, h * h * ddf], axis=-1)
            # per column its series row, intervals lo .. hi - 1, saturated row
            start = np.cumsum(width + 2) - width - 1
            coef = np.zeros((start[-1] + width[-1] + 1, 6))
            coef[start - 1, 1:] = self._outside[0]
            coef[start + width, 0] = self._outside[1]
            if old is not None:
                c, j = _ranges(old_lo, old.width.ravel())
                coef[start[c] + j - lo[c]] = old.coef[old.start.ravel()[c] + j - old_lo[c]]
            cols = col[new]
            rows = start[cols] + i[new] - lo[cols]
            windows = np.lib.stride_tricks.sliding_window_view(values.ravel(), 6)[::3][new[:-1]]
            # matmul takes matrix-vector code, which rounds otherwise, for a
            # lone row; a pair keeps each row independent of the batching
            if len(rows) == 1:
                windows = np.repeat(windows, 2, axis=0)
            coef[rows] = (windows @ _HERMITE)[:len(rows)]
            # the interpolant against the exact sum at every new midpoint
            exact = self._exact((k[new] + 0.5) * h, cols)[0]
            interp = _horner(coef, rows, 0.5)
            rel = np.abs(interp - exact) / np.maximum(np.abs(exact), _TABLE_FLOOR)
            worst = int(np.argmax(rel))
            refined(float(interp[worst]), float(exact[worst]),
                    "interference exponent table", _TABLE_RTOL, floor=_TABLE_FLOOR)
            self.residual = max(self.residual, float(rel[worst]))
            self._rows = _Rows(coef, *(v.reshape(self.k_lo.shape)
                                       for v in (k_lo + lo, width, start)), self.s_edge)

    def _exact(self, u, cols, derivatives: bool = False):
        """(L,) or (L, L_u, L_uu) at each (u, column) pair.

        The terms of a group share its `_j` calls: each call takes the next
        _CHUNK elements' worth of (pair, term) values, whatever their
        columns, on the tail table's columns gathered one per value.  Each
        pair then adds its terms in group then term order, so no value
        depends on how they share calls.
        """
        out = np.zeros((3 if derivatives else 1, len(u)))
        for (a, b), terms in self.groups:
            n = len(terms)
            # each pair's terms, end to end, with their column
            c = np.multiply.outer(np.exp(u), [sc for _, sc in terms]).ravel()
            col = np.repeat(cols, n)
            values = np.empty((len(out), len(c)))
            chunk = max(1, _CHUNK // len(a))
            for start in range(0, len(c), chunk):
                stop = min(start + chunk, len(c))
                # einsum sums over the nodes in another order for a lone c;
                # a pair keeps each value independent of the batching
                part = np.arange(start, stop).repeat(2 if stop - start == 1 else 1)
                value = _j(c[part], (a[:, col[part]], b[:, col[part]]), derivatives)
                values[:, start:stop] = np.array(value, ndmin=2)[:, :stop - start]
            for k, (d, _) in enumerate(terms):
                out += d * values[:, k::n]
        return out

    def at(self, cols):
        """The rows the last fill left, gathered for nodes in the columns
        `cols`, flat column indices one per node."""
        rows = self._rows
        return _Rows(rows.coef, *(v.take(cols) for v in rows[1:]))


# -- coverage evaluator ------------------------------------------------------

# a case keeps the grid nodes whose weight exceeds this share of the grid
# measure over (2^W - 1) times its node count, and at a threshold reads those
# whose weight times exp(-x) still does (x the noise term's least exponent):
# the gamma-dummy kernel is at most (2^W - 1) exp(-x) in magnitude, so the
# nodes it drops or skips move its part of the total by at most this share
_NEGLIGIBLE = 2.0**-100


class _CoverageEvaluator:
    """Precomputed grids and exponent tables for one (cfg, quad) pair.

    Each evaluator describes one side: the base stations over the x
    exclusions without reflectors, the reflectors over the y exclusions with
    them.  It keeps that side's point sets `sets`, tail tables and, per
    serving state, one `_ExponentTable` of the interference exponent in
    u = ln s for all factors and one for the LOS factors alone
    (`coverage_small_beta`).  The base-station side (x grid, its weights
    `fdw` and tables) is built only by the configuration's reflector-free
    twin; an evaluator with reflectors holds the twin's evaluator as `base`
    and reads that side from it, so the cache keeps one copy for both.
    Arrays live on the (x, y, angle) grid, with size-1 axes where a
    quantity does not depend on that coordinate.

    Per association case (irho, ixi), `_kept` holds the flat indices of the
    nodes of the case's broadcast grid whose weight exceeds the floor
    _NEGLIGIBLE * norm / ((2^W - 1) * N), N the case's node count and
    W = _W_ALZER.  The kernel is at most 2^W - 1, so the rest move the case's
    part by at most _NEGLIGIBLE; their weight over `norm`, summed over the
    cases, is `neglected_weight`.  The kept sets do not depend on the
    threshold, and they are the only per-node arrays an evaluator holds.

    Evaluating one threshold T gathers each case anew at its live nodes: the
    kept nodes whose weight times exp(-x), x = eps*T*sigma2 over the node's
    largest signal, still exceeds the floor.  L >= 0, so the noise term alone
    holds the kernel to (2^W - 1) exp(-x), and the skipped nodes add no more
    than the kept-node rule allows.  The evaluate then covers each table it
    reads over the s range of its lookups at live nodes, and forms
    s = gamma*T/signal on each case's view, looking each side up once per
    Laplace product; it keeps no result.
    """

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec):
        if cfg.lambda_bs <= 0.0:
            raise ValueError("coverage requires lambda_bs > 0")
        # the interference exponent integrates r^(1 - alpha) out to infinity
        if cfg.beta == 0.0 and cfg.alpha_los <= 2.0:
            raise ValueError("LOS interference diverges: beta=0 and alpha_los <= 2")
        if cfg.beta > 0.0 and cfg.alpha_nlos <= 2.0:
            raise ValueError("NLOS interference diverges: alpha_nlos <= 2")
        self.cfg = cfg
        self.quad = quad
        self.has_ris = cfg.lambda_ris > 0.0
        self.sigma2 = cfg.noise_power_watt
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
            # each state's serving-reflector density, with the intensity
            # computed once and dropped before the rest of the build
            intensity = np.pi * cfg.lambda_ris * side_condition(xg, yg, vg)
            self.gw = [
                wy[None, :, None] * _serving_density(intensity, _serving_factors(yg, state, cfg))
                for state in _STATES
            ]
            del intensity
            mass = self.gw[0].sum(axis=1) + self.gw[1].sum(axis=1)
            # conditional case masses cannot exceed one per (x, angle) node; far
            # off the grid's natural scale the tan-map tail can overshoot, which
            # would double-count signal mass, so rescale instead of clipping,
            # and keep the largest mass: above one, something was rescaled
            self.mass_rescale = float(mass.max())
            over = np.maximum(mass, 1.0)
            self.gw = [g / over[:, None, :] for g in self.gw]
            self.remainder = np.clip(1.0 - mass / over, 0.0, 1.0)
        else:
            # serving-BS distance grid, scaled to the nearest-point scale
            sx = 0.6 / math.sqrt(cfg.lambda_bs)
            self.x, wx = tan_halfline_nodes(quad.q1, sx)
            self.fdw = [wx * serving_bs_density(self.x, state, cfg) for state in _STATES]
            self.remainder = np.ones((quad.q1, self.v.size))
            self.mass_rescale = 0.0
        # normalizer: total measure of the grid, so T->0 gives exactly 1
        self.norm = sum(float(w.sum()) for w in self.fdw) * float(self.wv.sum())
        # the floor of a case is this over its node count
        self._bound = _NEGLIGIBLE * self.norm / (2**_W_ALZER - 1)
        self._kept, dropped = {}, 0.0
        for irho in (0, 1):
            for ixi in (0, 1, None) if self.has_ris else (None,):
                weight = self._weight(irho, ixi)
                kept = weight > self._bound / weight.size
                # int32 halves what the cached evaluators hold
                self._kept[irho, ixi] = np.flatnonzero(kept).astype(np.int32)
                dropped += float(np.sum(weight, where=~kept))
        self.neglected_weight = dropped / self.norm

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
        z = bs_ris_distance(self.x[:, None, None], self.y[None, :, None], self.v[None, None, :],
                            r_min=cfg.r_min)
        leg_bs = [c * z**-alpha for c, alpha in laws]
        leg_user = [c * yl**-alpha for c, alpha in laws]
        # reflected signal: the BS->reflector leg state is mixed per node
        leg_prob = [state_weight(state, z, cfg.beta) for state in _STATES]
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
        # keyed by los_only, then serving state; rows are filled on demand
        self.exponents = {
            los_only: {
                serving: _ExponentTable([
                    (self.tables[f, serving],
                     [(density, power_gain * path_law(_STATES[f], cfg)[0])
                      for density, power_gain in self.sets])
                    for f in ((0,) if los_only else (0, 1))
                ])
                for fstate, serving in self.tables
                if fstate == 0
            }
            for los_only in (False, True)
        }

    def _sides(self) -> tuple:
        """The evaluators of the Laplace product's sides, base stations first."""
        return (self.base, self) if self.has_ris else (self,)

    def _view(self, irho: int, ixi: int | None, threshold: float, direct_signal: bool,
              los_only: bool):
        """One case at its live nodes at `threshold`, in flat arrays: the
        weight, the (probability, signal power) pairs that mix into its
        kernel, per side, base stations first, the exponent table an
        evaluate reads with each node's column of it, and the sum of weight
        times exp(-x) over the kept nodes it skips.

        irho and ixi are the serving BS and reflector states; ixi None takes
        the reflector sets without a void and the direct signal.  los_only
        drops the NLOS factors.
        """
        weight = self._weight(irho, ixi)
        # gathers with intp indices, which take reads without a cast
        nodes = self._kept[irho, ixi].astype(np.intp)
        pairs = ([(1.0, self.sig_direct[irho])] if ixi is None or direct_signal
                 else self.reflected[irho, ixi])
        kept = weight.take(nodes)
        signals = [np.broadcast_to(sig, weight.shape).take(nodes) for _, sig in pairs]
        with np.errstate(divide="ignore"):
            reach = kept * np.exp(-(alzer_epsilon(_W_ALZER) * threshold * self.sigma2)
                                  / np.max(signals, axis=0))
        live = reach > self._bound / weight.size
        skipped = float(np.sum(reach, where=~live))
        nodes = nodes[live]

        def gather(values):
            return np.broadcast_to(values, weight.shape).take(nodes)

        tables = [side.exponents[los_only][serving]
                  for side, serving in zip(self._sides(), (irho, ixi))]
        return (kept[live],
                [(gather(prob), sig[live]) for (prob, _), sig in zip(pairs, signals)],
                [(t, gather(np.arange(t.k_lo.size).reshape(t.k_lo.shape))) for t in tables],
                skipped)

    def _spans(self, views: dict) -> dict:
        """Per (side index, serving state) of each table `views` read: per
        column, the log of the largest and of the smallest signal over the
        nodes of the views that read it, -inf and inf where none does."""
        top, bottom = {}, {}
        for (irho, ixi), (_, pairs, sides, _) in views.items():
            for key, (table, cols) in zip(enumerate((irho, ixi)), sides):
                hi = top.setdefault(key, np.zeros(table.k_lo.shape))
                lo = bottom.setdefault(key, np.full(table.k_lo.shape, np.inf))
                for _, sig in pairs:
                    # the reductions write flat views
                    np.maximum.at(hi.reshape(-1), cols, sig)
                    np.minimum.at(lo.reshape(-1), cols, sig)
        with np.errstate(divide="ignore"):
            return {key: (np.log(hi), np.log(bottom[key])) for key, hi in top.items()}

    def _log_laplace(self, s, lookups):
        """Log of the interference Laplace product times exp(-s*sigma2), s
        flat over some nodes and `lookups` each side's table rows gathered
        at their columns: one lookup per side.
        """
        u = np.log(s) / _TABLE_STEP
        k = np.floor(u)
        t = u - k
        k = k.astype(np.intp)
        expo = -(s * self.sigma2)
        for lookup in lookups:
            expo = expo - lookup(s, k, t)
        return expo

    def _weight(self, irho: int, ixi: int | None):
        """Grid weight of one case: fdw*wv times the serving-reflector case
        density, or for ixi None the no-reflector remainder."""
        fdw = self.fdw[irho][:, None, None] * self.wv
        return fdw * (self.remainder[:, None, :] if ixi is None else self.gw[ixi])

    def _cover(self, threshold: float, views: dict, los_only: bool) -> None:
        """Fill each exponent table `views` read over the rows its lookups
        reach: per column, ln s = ln(gamma*T/signal) from the first Alzer
        term at the largest signal to the last at the smallest, over the
        live nodes of the cases that read the table, one lattice step wider
        each way against the rounding of s.  A column no live node reads
        asks for nothing.

        Spans are contiguous, so two covered thresholds cover every one
        between them at the nodes both read.
        """
        eps = alzer_epsilon(_W_ALZER)
        u_t = math.log(threshold)
        u_lo = u_t + math.log(eps) - _TABLE_STEP
        u_hi = u_t + math.log(_W_ALZER * eps) + _TABLE_STEP
        sides = self._sides()
        for (side, serving), (log_top, log_bottom) in self._spans(views).items():
            sides[side].exponents[los_only][serving].cover(u_lo - log_top, u_hi - log_bottom)

    # public evaluation

    def evaluate(
        self,
        threshold: float,
        direct_signal: bool = False,
        los_only: bool = False,
    ) -> CoverageResult:
        _check_threshold(threshold)
        views = {case: self._view(*case, threshold, direct_signal, los_only)
                 for case in self._kept}
        self._cover(threshold, views, los_only)
        eps = alzer_epsilon(_W_ALZER)
        # gamma-dummy sum: (scale of s, binomial coefficient) per term
        terms = [
            (w * eps, (-1.0) ** (w + 1) * math.comb(_W_ALZER, w))
            for w in range(1, _W_ALZER + 1)
        ]

        by_case: dict[AssociationCase, float] = {}
        for irho, rho in enumerate(_STATES):
            # cases served through a reflector, then the no-reflector bucket
            # (direct signal only)
            for ixi, xi in (*enumerate(_STATES), (None, None)):
                view = views.get((irho, ixi))
                by_case[AssociationCase(rho, xi)] = (
                    0.0 if view is None else self._case_value(threshold, terms, view))

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
            # the weight of the nodes no case keeps, and weight times exp(-x)
            # of those kept but not live at this threshold, over the grid
            # measure; times 2^W - 1 it bounds how far they could move the total
            "neglected_weight": self.neglected_weight
            + sum(skipped for *_, skipped in views.values()) / self.norm,
            # the largest reflector case mass of an (x, angle) node before the
            # rescale to one; at most one when nothing was rescaled
            "mass_rescale": self.mass_rescale,
            # the worst midpoint over the intervals filled so far: those
            # that lookups at live nodes reach
            "table_residual": max(
                table.residual for side in self._sides()
                for table in side.exponents[los_only].values()
            ),
        }
        engine = "analytic-small-beta" if los_only else "analytic"
        return CoverageResult(result_total, by_case, engine, meta)

    def _case_value(self, threshold, terms, view):
        """Integral of weight times the coverage kernel of one case over the
        live nodes of its `_view`.

        Each side's rows are gathered at the nodes' columns once; each
        (probability, signal power) pair then contributes its gamma-dummy
        sum of Laplace products, looked up on flat arrays.
        """
        weight, pairs, sides, _ = view
        if not weight.size:
            return 0.0
        lookups = [table.at(cols) for table, cols in sides]
        acc = 0.0
        for prob, sig in pairs:
            ksum = 0.0
            for gamma, coef in terms:
                s = gamma * threshold / sig
                ksum = ksum + coef * np.exp(self._log_laplace(s, lookups))
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
    _check_threshold(threshold)
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
