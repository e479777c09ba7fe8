"""Semianalytical engine: quadrature tables, Laplace factors and coverage."""

import copy
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from riscov import analytics
from riscov._quad import (
    IntegrationError,
    halfline_nodes,
    log_halfline_nodes,
    refined,
    tan_halfline_nodes,
)
from riscov.analytics import (
    _TABLE_STEP,
    _VOID_FREE_FLOOR,
    _VOID_FREE_NODES,
    _W_ALZER,
    QuadratureSpec,
    _CoverageEvaluator,
    _ExponentTable,
    _chebyshev_angle,
    _get_evaluator,
    _interferers,
    _j,
    _log_empty_cell,
    _ris_activity,
    _tail_table,
    active_prob_bs,
    active_prob_ris,
    alzer_epsilon,
    coverage_direct,
    coverage_probability,
    coverage_small_beta,
    energy_efficiency,
    ris_interference_power,
)
from riscov.sweeps import THRESHOLD_GRID_DB
from riscov.association import (
    bs_ris_distance,
    equivalent_distance,
    path_law,
    ris_joint_expectation,
    state_weight,
)
from riscov.beamforming import mean_direct_interference_gain
from riscov.config import NetworkConfig
from riscov.propagation import LinkKind

TINY_DENSITY = 1e-12
STATES = (LinkKind.LOS, LinkKind.NLOS)


def test_alzer_epsilon_values():
    w = 5
    assert alzer_epsilon(w) == pytest.approx(w * math.factorial(w) ** (-1.0 / w))
    assert alzer_epsilon(1) == pytest.approx(1.0)
    # the constant grows toward e as the series deepens
    assert alzer_epsilon(5) < alzer_epsilon(20) < math.e
    with pytest.raises(ValueError):
        alzer_epsilon(0)


def test_gcq_nodes_match_direct_formulas():
    x, wx = tan_halfline_nodes(8)
    angle, w_angle = _chebyshev_angle(8)
    for q in range(1, 9):
        theta = (2 * q - 1) * math.pi / 16.0
        arg = 0.25 * math.pi * math.cos(theta) + 0.25 * math.pi
        assert x[q - 1] == pytest.approx(math.tan(arg), abs=1e-15)
        assert wx[q - 1] == pytest.approx(
            math.pi**2 * math.sin(theta) / (32.0 * math.cos(arg) ** 2), abs=1e-15
        )
        assert angle[q - 1] == pytest.approx(math.pi * (math.cos(theta) + 1.0), abs=1e-13)
        assert w_angle[q - 1] == pytest.approx(math.pi * math.sin(theta) / 16.0, abs=1e-15)
    assert (wx > 0).all() and (w_angle > 0).all()
    # angle weights carry the 1/(2*pi) averaging; their sum tends to one
    assert w_angle.sum() == pytest.approx(1.0, abs=0.01)


def test_gcq_midpoint_node_is_one():
    x, _ = tan_halfline_nodes(7)
    assert x[3] == pytest.approx(1.0, abs=1e-15)  # tan(pi/4)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(q1=3)
    with pytest.raises(ValueError):
        QuadratureSpec(q_tail=3)


def test_active_prob_bs_closed_form(cfg):
    # ten users per BS on average
    assert cfg.lambda_u / cfg.lambda_bs == pytest.approx(10.0)
    assert active_prob_bs(cfg) == pytest.approx(1.0 - 11.0 ** (-3.5), abs=1e-12)
    assert active_prob_bs(cfg.replace(lambda_bs=0.0)) == 0.0


def test_active_prob_bs_small_load(cfg):
    """At a load of 1e-7 users per cell the busy probability keeps its full
    relative precision: it matches the series 3.5L - 7.875L^2 + 14.4375L^3,
    whose next term is below 1e-20 of it."""
    case = cfg.replace(lambda_u=1e-6 * UNIT)
    load = case.lambda_u / case.lambda_bs
    series = 3.5 * load - 7.875 * load**2 + 14.4375 * load**3
    assert active_prob_bs(case) == pytest.approx(series, rel=1e-12, abs=0.0)


def test_active_prob_ris_range(cfg):
    p = active_prob_ris(cfg)
    assert 0.0 < p < 1.0
    # spreading the same users over many more reflectors idles some of them
    sparse = active_prob_ris(cfg.replace(lambda_ris=50.0 * cfg.lambda_ris))
    assert sparse < p
    assert active_prob_ris(cfg.replace(lambda_ris=0.0)) == 0.0


def test_active_prob_ris_extreme_densities(cfg):
    # the occupancy is a mass ratio in [0, 1] with no clipping behind it
    unit = 1.0 / (math.pi * 500.0**2)
    for lambda_u, lambda_ris, beta in itertools.product((1e-6, 1e4), (0.1, 1e3), (1e-4, 0.1)):
        p = active_prob_ris(
            cfg.replace(lambda_u=lambda_u * unit, lambda_ris=lambda_ris * unit, beta=beta)
        )
        assert math.isfinite(p) and 0.0 <= p <= 1.0


def test_ris_interference_power_matches_quadrature(cfg):
    # at beta = 1e-4 the LOS tail reaches 10 km while the z^-alpha mass
    # stays near r_min; the half-line rule alone failed its doubling check
    for case in (cfg, cfg.replace(beta=1e-4)):
        def integrand(z):
            los = case.c_los * z**-case.alpha_los * math.exp(-case.beta * z)
            nlos = case.c_nlos * z**-case.alpha_nlos * -math.expm1(-case.beta * z)
            return los + nlos

        ref, _ = integrate.quad(integrand, case.r_min, np.inf, limit=400)
        expected = math.pi * case.lambda_bs * case.p_bs_watt * ref
        assert ris_interference_power(case) == pytest.approx(expected, rel=1e-6)


def test_ris_interference_power_divergence_flags():
    with pytest.raises(ValueError):
        ris_interference_power(NetworkConfig(beta=0.0, alpha_los=1.0))
    with pytest.raises(ValueError):
        ris_interference_power(NetworkConfig(alpha_nlos=1.0))


def test_coverage_divergent_interference_raises(cfg):
    # beta = 0 makes every link LOS, and alpha <= 2 leaves the interference
    # exponent's integral of r^(1 - alpha) unbounded
    with pytest.raises(ValueError, match="LOS interference diverges"):
        coverage_probability(1.0, cfg.replace(beta=0.0))
    with pytest.raises(ValueError, match="NLOS interference diverges"):
        coverage_probability(1.0, cfg.replace(alpha_nlos=1.8, lambda_ris=0.0))
    finite = coverage_probability(1.0, cfg.replace(beta=0.0, alpha_los=2.5))
    assert 0.0 <= finite.total <= 1.0


def test_laplace_trivial_values(cfg):
    assert laplace_interference("bs", LinkKind.LOS, 0.0, 10.0, cfg) == 1.0
    none = cfg.replace(lambda_bs=0.0, lambda_u=0.0)
    assert laplace_interference("bs", LinkKind.LOS, 1e9, 10.0, none) == 1.0
    with pytest.raises(ValueError):
        laplace_interference("bs", LinkKind.LOS, -1.0, 10.0, cfg)
    with pytest.raises(ValueError):
        laplace_interference("unknown", LinkKind.LOS, 1.0, 10.0, cfg)
    # the kind is checked before the trivial values return
    with pytest.raises(ValueError):
        laplace_interference("nope", LinkKind.LOS, 0.0, 10.0, cfg)


def test_laplace_monotone_properties(cfg):
    s = 5e9
    base = laplace_interference("bs", LinkKind.LOS, s, 50.0, cfg)
    assert 0.0 < base <= 1.0
    # a larger guard zone removes interferers
    wider = laplace_interference("bs", LinkKind.LOS, s, 100.0, cfg)
    assert wider > base
    # a denser network adds them
    dense = cfg.replace(lambda_bs=2.0 * cfg.lambda_bs)
    assert laplace_interference("bs", LinkKind.LOS, s, 50.0, dense) < base


@pytest.mark.parametrize("state", STATES)
def test_laplace_without_void_converges(cfg, state):
    """Exclusion 0 passes the transform's own doubling check over the whole
    range: base stations from s = 1e-6 to 1e4, reflectors to 1e12."""
    for kind, top in (("bs", 4), ("ris", 12)):
        for s in np.logspace(-6.0, top, top + 7):
            value = laplace_interference(kind, state, s, 0.0, cfg)
            assert 0.0 < value <= 1.0


@pytest.mark.parametrize("exclusion", [0.0, 50.0])
@pytest.mark.parametrize("state", STATES)
def test_laplace_converges_at_large_s(cfg, state, exclusion):
    """The transform passes its doubling check up to s = 1e40, where the
    NLOS knee c^(1/alpha) lies far beyond the exclusion, and never rises."""
    for kind in ("bs", "ris"):
        values = [laplace_interference(kind, state, s, exclusion, cfg)
                  for s in np.logspace(-6.0, 40.0, 47)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


def laplace_interference(
    set_kind: str,
    state: LinkKind,
    s: float,
    exclusion: float,
    cfg: NetworkConfig,
) -> float:
    """Laplace transform of the interference from one thinned point set: the
    single-set oracle the evaluator's exponent tables are checked against.

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
    total = _j(c, _knee_table(state, exclusion, cfg, 192, knee))
    check = refined(total, _j(c, _knee_table(state, exclusion, cfg, 384, knee)),
                    "interference tail integral", 1e-8, floor=1e-12)
    return float(np.exp(-density * check))


def _knee_table(state, exclusion, cfg, nodes, knee):
    """`_tail_table`'s rule for a table that serves one c: the knee
    c^(1/alpha) is a floor on the map scale wherever blockage does not bound
    it, so the rule resolves that c however far its knee lies."""
    scale = max(3.0 * exclusion, 100.0 * cfg.r_min)
    if state is LinkKind.LOS and cfg.beta > 0.0:
        scale = max(min(scale, 5.0 / cfg.beta), 1.0 / cfg.beta)
    else:
        scale = max(scale, knee)
    if exclusion > 0.0:
        r, w = halfline_nodes(nodes, scale, exclusion)
    else:
        r, w = log_halfline_nodes(_VOID_FREE_NODES * nodes, nodes,
                                  _VOID_FREE_FLOOR * cfg.r_min, scale)
    _, alpha = path_law(state, cfg)
    return w * state_weight(state, r, cfg.beta) * r, r**-alpha


def _void_free_reference(cfg, state, c):
    """J(c) without a void by adaptive quadrature in ln r, split around the knee."""
    _, alpha = path_law(state, cfg)

    def integrand(v):
        r = math.exp(v)
        return state_weight(state, r, cfg.beta) * -math.expm1(-c * r**-alpha) * r * r

    knee = math.log(c) / alpha
    edges = np.linspace(min(knee, 0.0) - 25.0, max(knee, math.log(1e4)) + 30.0, 121)
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize("state", STATES)
def test_void_free_tail_table_matches_quadrature(cfg, state):
    # the knee of the integrand sits at c^(1/alpha): 1 mm to 1 km for LOS,
    # 3 cm to 30 m for NLOS
    table = _tail_table(state, 0.0, cfg, QuadratureSpec().q_tail)
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        assert _j(c, table) == pytest.approx(_void_free_reference(cfg, state, c), rel=1e-8)
    if state is LinkKind.LOS:
        # the half-line rule alone gave 0.00802 here
        assert _j(1e-3, table) == pytest.approx(0.0076936, rel=1e-5)


def _laplace_sampling_oracle(cfg, state, s, exclusion, draws, seed):
    """Average exp(-s * interference) over sampled thinned interferer sets.

    Interferers carry the mean misalignment gain, matching the transform's
    average-gain semantics; positions are a PPP of active BSs outside the
    guard radius, state-thinned by the blockage law.
    """
    rng = np.random.default_rng(seed)
    lam = cfg.lambda_bs * active_prob_bs(cfg)
    power = cfg.p_bs_watt * mean_direct_interference_gain(cfg)
    if state is LinkKind.LOS:
        intercept, alpha = cfg.c_los, cfg.alpha_los
        r_max = exclusion + 14.0 / cfg.beta  # blockage kills the tail
    else:
        intercept, alpha = cfg.c_nlos, cfg.alpha_nlos
        # truncate where a single interferer's exponent drops below 1e-6;
        # the neglected tail mass is orders below the test tolerance
        r_max = (1e6 * s * power * intercept) ** (1.0 / alpha)
    area = math.pi * (r_max**2 - exclusion**2)
    acc = 0.0
    done = 0
    while done < draws:
        block = min(10_000, draws - done)
        counts = rng.poisson(lam * area, size=block)
        total = int(counts.sum())
        u = rng.random(total)
        r = np.sqrt(exclusion**2 + u * (r_max**2 - exclusion**2))
        thin = (
            np.exp(-cfg.beta * r)
            if state is LinkKind.LOS
            else -np.expm1(-cfg.beta * r)
        )
        kept = rng.random(total) < thin
        log_terms = np.where(kept, -s * power * intercept * r ** (-alpha), 0.0)
        ids = np.repeat(np.arange(block), counts)
        log_sums = np.bincount(ids, weights=log_terms, minlength=block)
        acc += float(np.sum(np.exp(log_sums)))
        done += block
    return acc / draws


@pytest.mark.parametrize(
    "state,s,exclusion,draws",
    [
        (LinkKind.LOS, 2e10, 50.0, 100_000),
        (LinkKind.LOS, 2e9, 120.0, 100_000),
        (LinkKind.NLOS, 1e14, 30.0, 30_000),
    ],
)
def test_laplace_against_sampling(cfg, state, s, exclusion, draws):
    analytic = laplace_interference("bs", state, s, exclusion, cfg)
    sampled = _laplace_sampling_oracle(cfg, state, s, exclusion, draws, seed=17)
    assert 0.0 < analytic < 1.0
    assert analytic == pytest.approx(sampled, abs=0.01)


# -- coverage ---------------------------------------------------------------


def test_coverage_limits(cfg):
    assert coverage_probability(1e-9, cfg).total > 0.999
    assert coverage_probability(1e9, cfg).total < 1e-3
    with pytest.raises(ValueError):
        coverage_probability(-0.5, cfg)


def test_coverage_monotone_in_threshold(cfg, light_quad):
    grid = np.logspace(-2.0, 3.0, 20)
    values = [coverage_probability(t, cfg, light_quad).total for t in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_by_case_partition(cfg):
    res = coverage_probability(1.0, cfg)
    assert res.engine == "analytic"
    assert all(v >= 0.0 for v in res.by_case.values())
    assert sum(res.by_case.values()) == pytest.approx(res.total, abs=1e-12)
    labels = sorted(case.label for case in res.by_case)
    assert labels == [
        "los-direct", "los-los", "los-nlos", "nlos-direct", "nlos-los", "nlos-nlos",
    ]


def test_pinned_default_coverage(cfg):
    # golden value from the validated build; guards silent numeric drift
    assert coverage_probability(1.0, cfg).total == pytest.approx(
        0.5266917188631257, abs=1e-6
    )


# golden 0 dB values of the evaluate paths the default pin does not reach,
# recorded from the same validated build
PINNED_BY_CASE = {
    "los-los": 0.13519581517790477,
    "los-nlos": 0.3438321321859617,
    "los-direct": 0.04475982056744594,
    "nlos-los": 0.0009894621094647038,
    "nlos-nlos": 0.0018748331734974655,
    "nlos-direct": 3.965564885102831e-05,
}


def test_pinned_default_paths(cfg):
    assert coverage_direct(1.0, cfg).total == pytest.approx(0.5265618359498161, abs=1e-6)
    assert coverage_small_beta(1.0, cfg).total == pytest.approx(
        0.5269994448067232, abs=1e-6
    )
    by_case = {case.label: v for case, v in coverage_probability(1.0, cfg).by_case.items()}
    assert by_case == pytest.approx(PINNED_BY_CASE, abs=1e-6)


def test_pinned_variant_configs(cfg):
    bare = cfg.replace(lambda_ris=0.0)
    assert coverage_probability(1.0, bare).total == pytest.approx(
        0.5713067505465825, abs=1e-6
    )
    weak = cfg.replace(beta=0.001)
    assert coverage_small_beta(1.0, weak).total == pytest.approx(
        0.27159775563612265, abs=1e-6
    )


@pytest.mark.parametrize("threshold", [0.1, 1.0, 10.0])
def test_log_laplace_matches_public_transform(cfg, threshold):
    """The evaluator's Laplace product equals the product of the public
    per-set transforms, each at the guard radius of its serving link."""
    ev = _get_evaluator(cfg, QuadratureSpec())
    states = (LinkKind.LOS, LinkKind.NLOS)

    def guard(state, serving, d):
        if state is serving:
            return d
        return float(equivalent_distance(d, serving, state, cfg))

    # angle nodes of the folded axis: 2 and 5 hold the angles of the full
    # rule's nodes 13 and 10 mirrored to 2*pi - v, which share their cosine
    nodes = [(21, 14, 2), (24, 20, 2), (26, 8, 7), (28, 26, 5)]
    for irho, rho in enumerate(states):
        for ixi, xi in enumerate(states):
            _, sig = ev.reflected[irho, ixi][0]
            s = threshold / sig
            _cover(ev, s, irho, ixi, los_only=False)
            s_flat, lookups, _, shape = _every_node(ev, s, irho, ixi, los_only=False)
            expo = ev._log_laplace(s_flat, lookups).reshape(shape)
            for i, j, k in nodes:
                x, y, s_node = float(ev.x[i]), float(ev.y[j]), float(s[i, j, k])
                expected = -s_node * cfg.noise_power_watt
                for state in states:
                    expected += math.log(laplace_interference(
                        "bs", state, s_node, guard(state, rho, x), cfg
                    ))
                    for kind in ("ris", "ris_idle"):
                        expected += math.log(laplace_interference(
                            kind, state, s_node, guard(state, xi, y), cfg
                        ))
                assert expo[i, j, k] == pytest.approx(expected, rel=1e-9)


def _sides(ev, irho=None, ixi=None):
    """(evaluator, serving state) per side: the twin's base stations, then
    the evaluator's own reflectors."""
    return [(ev.base, irho), (ev, ixi)] if ev.has_ris else [(ev, irho)]


def _all_exponent_tables(ev, los_only):
    """The exponent tables of both sides, the twin's base-station ones included."""
    return [table for side, _ in _sides(ev) for table in side.exponents[los_only].values()]


def _cover(ev, s, irho, ixi, los_only):
    """Fill the rows that `_log_laplace` at s reads from each side's table."""
    u = np.log(s)
    for side, serving in _sides(ev, irho, ixi):
        side.exponents[los_only][serving].cover(u.min(), u.max())


def _fresh_evaluator(cfg, quad, monkeypatch):
    """An evaluator whose base-station twin is built for it alone, so no
    other test's evaluates have filled any of its rows."""
    monkeypatch.setattr(analytics, "_get_evaluator",
                        analytics._BuildOnce(_CoverageEvaluator, maxsize=8))
    return _CoverageEvaluator(cfg, quad)


class _ExactTable:
    """Stands in for one side's exponent table (serving state `serving`):
    `at(cols)` gives a lookup that sums the side's exponent straight from
    its tail tables, at each node's column of them."""

    def __init__(self, side, serving, los_only):
        self.side, self.serving, self.los_only = side, serving, los_only
        self.k_lo = side.exponents[los_only][serving].k_lo

    def at(self, cols):
        def lookup(s, k, t):
            expo = 0.0
            for fstate in (0,) if self.los_only else (0, 1):
                intercept, _ = path_law(STATES[fstate], self.side.cfg)
                # (table nodes, looked-up nodes)
                table = tuple(part.reshape(len(part), -1)[:, cols]
                              for part in self.side.tables[fstate, self.serving])
                for density, power_gain in self.side.sets:
                    expo = expo + density * _j(s * power_gain * intercept, table)
            return expo

        return lookup


def _exact_sides(ev, irho, ixi, los_only, sides):
    """The (table, columns) `sides` of a `_view` with each table replaced
    by its `_ExactTable`."""
    return [(_ExactTable(side, serving, los_only), cols)
            for (side, serving), (_, cols) in zip(_sides(ev, irho, ixi), sides)]


def _every_node(ev, s, irho, ixi, los_only):
    """s flat over every node of the grid it spans with both sides' tables,
    each side's table lookups and exact lookups at those nodes' columns, and
    that grid's shape."""
    shape = np.broadcast_shapes(np.shape(s), *(
        side.exponents[los_only][serving].k_lo.shape for side, serving in _sides(ev, irho, ixi)
    ))
    sides = [(table, np.broadcast_to(np.arange(table.k_lo.size).reshape(table.k_lo.shape),
                                     shape).ravel())
             for table in (side.exponents[los_only][serving]
                           for side, serving in _sides(ev, irho, ixi))]
    return (np.broadcast_to(s, shape).ravel(), [table.at(cols) for table, cols in sides],
            [table.at(cols) for table, cols in _exact_sides(ev, irho, ixi, los_only, sides)],
            shape)


def _exact_evaluator(cfg, quad):
    """A fresh evaluator whose Laplace exponent skips the exponent tables."""
    ev = _CoverageEvaluator(cfg, quad)
    view = ev._view

    def exact_view(irho, ixi, threshold, direct_signal, los_only):
        weight, pairs, sides, skipped = view(irho, ixi, threshold, direct_signal, los_only)
        return weight, pairs, _exact_sides(ev, irho, ixi, los_only, sides), skipped

    ev._view = exact_view
    return ev


def _serving_pairs(ev):
    return [(irho, ixi) for irho in (0, 1) for ixi in ((0, 1, None) if ev.has_ris else (None,))]


def test_log_laplace_beyond_table_edges(cfg):
    """s below every table takes the five-term series, s above it saturates."""
    ev = _get_evaluator(cfg, QuadratureSpec())
    for los_only in (False, True):
        tables = _all_exponent_tables(ev, los_only)
        k_lo = min(table.k_lo.min() for table in tables)
        k_hi = max((table.k_lo + table.count).max() for table in tables)
        edges = np.array([k_lo - 30.0, k_lo - 0.5, k_hi + 0.5, k_hi + 30.0])
        s = np.exp(_TABLE_STEP * edges)[None, None, :]
        for irho, ixi in _serving_pairs(ev):
            _cover(ev, s, irho, ixi, los_only)
            s_flat, lookups, exact, _ = _every_node(ev, s, irho, ixi, los_only)
            got = ev._log_laplace(s_flat, lookups)
            want = ev._log_laplace(s_flat, exact)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_lookup_at_column_row_edges(cfg):
    """In every column of both sides' tables, lookups on either side of each
    edge between the series, quintic and saturated rows match the exact sum."""
    ev = _get_evaluator(cfg, QuadratureSpec())
    for los_only in (False, True):
        for table in _all_exponent_tables(ev, los_only):
            table.cover(-np.inf, np.inf)
            cols = np.arange(table.k_lo.size)
            last = table.k_lo + table.count - 1
            for k in (table.k_lo - 1, table.k_lo, last - 1, last, last + 4):
                for t in (0.0, 0.5):
                    u = ((k + t) * _TABLE_STEP).ravel()
                    got = table.at(cols)(np.exp(u), k.ravel(), t)
                    want = table._exact(u, cols)[0]
                    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_coverage_tables_match_exact_sum(cfg, light_quad):
    # at 1e-6 some s fall below the base-station and reflector tables; no s
    # of an evaluate grid gets above them (test_log_laplace_beyond_table_edges).
    # Without users no base station and no reflector is active: the tables
    # drop the zero-density terms, and the base-station side has none left
    for case in (cfg, cfg.replace(lambda_u=0.0)):
        tabled = _CoverageEvaluator(case, light_quad)
        exact = _exact_evaluator(case, light_quad)
        for threshold in (1e-6, 1.0, 1e6):
            for direct in (False, True):
                got = tabled.evaluate(threshold, direct_signal=direct)
                want = exact.evaluate(threshold, direct_signal=direct)
                assert got.total == pytest.approx(want.total, abs=1e-9)
                assert got.by_case == pytest.approx(want.by_case, abs=1e-9)
        assert 0.0 < got.meta["table_residual"] < 1e-9
    groups = [[len(terms) for _, terms in table.groups]
              for table in _all_exponent_tables(tabled, False)]
    assert groups == [[], [], [1, 1], [1, 1], [1, 1]]


def test_small_beta_tables_built_lazily(cfg, light_quad):
    """The LOS-only tables get their rows on the first los_only evaluate."""
    weak = cfg.replace(beta=0.001)
    tabled = _CoverageEvaluator(weak, light_quad)
    assert all(table._rows is None for table in tabled.exponents[True].values())
    exact = _exact_evaluator(weak, light_quad)
    for threshold in (1e-6, 1.0, 1e6):
        got = tabled.evaluate(threshold, los_only=True)
        want = exact.evaluate(threshold, los_only=True)
        assert got.total == pytest.approx(want.total, abs=1e-9)
        assert got.by_case == pytest.approx(want.by_case, abs=1e-9)
    assert all(table._rows is not None for table in tabled.exponents[True].values())
    assert 0.0 < got.meta["table_residual"] < 1e-9


def test_table_check_rejects_coarse_lattice(cfg, light_quad, monkeypatch):
    # a tenfold step leaves the quintic interpolant ~1e-4 off at the
    # midpoints; the check runs when the first evaluate fills its rows, on
    # tables (the twin's too) that have the coarse lattice from the start
    monkeypatch.setattr(analytics, "_TABLE_STEP", 1.0)
    ev = _fresh_evaluator(cfg, light_quad, monkeypatch)
    with pytest.raises(IntegrationError, match="interference exponent table"):
        ev.evaluate(1.0)


@pytest.mark.parametrize("direct, los_only", [(False, False), (True, False), (False, True)])
def test_span_fill_matches_whole_lattice(cfg, monkeypatch, direct, los_only):
    """Tables filled span by span, over the 21-point threshold grid, give
    bitwise the coverage of tables filled over their whole lattice first."""
    spans = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
    whole = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
    for los in (False, True):
        for table in _all_exponent_tables(whole, los):
            table.cover(-np.inf, np.inf)
    for db in THRESHOLD_GRID_DB:
        got = spans.evaluate(10.0 ** (db / 10.0), direct, los_only)
        want = whole.evaluate(10.0 ** (db / 10.0), direct, los_only)
        assert got.total == want.total
        assert got.by_case == want.by_case


def test_evaluate_fills_a_minority_of_rows(cfg, monkeypatch):
    """One default 0 dB evaluate fills fewer than a quarter of the interval
    rows of the tables it reads, and none of the LOS-only tables."""
    ev = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
    ev.evaluate(1.0)
    tables = _all_exponent_tables(ev, False)
    filled = sum(int(np.sum(table._rows.width)) for table in tables)
    intervals = sum(int(np.sum(table.count - 1)) for table in tables)
    assert 0 < filled < 0.25 * intervals
    assert all(table._rows is None for table in _all_exponent_tables(ev, True))


def test_zero_weight_nodes_do_not_widen_spans(cfg, monkeypatch):
    """Only lookups at the grid nodes a case keeps set the spans: signals
    scaled by 1e30 at every node it does not keep, those of zero weight
    among them, leave each filled span and the coverage bitwise unchanged.
    Every range `cover` gets is finite, except the empty (inf, -inf) of the
    columns that no live lookup reads, which keep an empty span."""
    cover = _ExponentTable.cover
    unread = []

    def finite_cover(table, u_lo, u_hi):
        empty = (u_lo == np.inf) & (u_hi == -np.inf)
        assert np.all(np.isfinite(u_lo) | empty) and np.all(np.isfinite(u_hi) | empty)
        unread.append(int(np.sum(empty)))
        cover(table, u_lo, u_hi)

    monkeypatch.setattr(_ExponentTable, "cover", finite_cover)

    def run():
        ev = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
        results = [ev.evaluate(1.0, direct) for direct in (False, True)]
        spans = [(table._rows.k0, table._rows.width) for table in _all_exponent_tables(ev, False)]
        return ev, results, spans

    ev, want, want_spans = run()
    assert sum(unread) > 0
    assert any(np.any(table._rows.width == 0) for table in _all_exponent_tables(ev, False))
    build = _CoverageEvaluator._build_signal_tables
    scaled = []

    def build_scaled(ev):
        build(ev)
        for irho in (0, 1):
            live = {ixi: _kept_mask(ev, irho, ixi) for ixi in (0, 1, None)
                    if ev.has_ris or ixi is None}
            # the direct signal of x rows no case of irho weights
            dead = ~np.logical_or.reduce([w.any(axis=(1, 2)) for w in live.values()])
            ev.sig_direct[irho] = np.where(dead[:, None, None], 1e30, 1.0) * ev.sig_direct[irho]
            scaled.append(int(dead.sum()))
            for ixi in (0, 1) if ev.has_ris else ():
                ev.reflected[irho, ixi] = [(prob, np.where(live[ixi], 1.0, 1e30) * sig)
                                           for prob, sig in ev.reflected[irho, ixi]]
                scaled.append(int(np.sum(~live[ixi])))

    monkeypatch.setattr(_CoverageEvaluator, "_build_signal_tables", build_scaled)
    _, got, got_spans = run()
    assert sum(scaled) > 0
    for (k0, width), (want_k0, want_width) in zip(got_spans, want_spans):
        assert np.array_equal(k0, want_k0) and np.array_equal(width, want_width)
    for result, ref in zip(got, want):
        assert result.total == ref.total
        assert result.by_case == ref.by_case


def _kept_mask(ev, irho, ixi):
    """The nodes case (irho, ixi) keeps, as a mask over its weight's grid."""
    mask = np.zeros(ev._weight(irho, ixi).shape, dtype=bool)
    mask.flat[ev._kept[irho, ixi]] = True
    return mask


def _live_nodes(ev, irho, ixi, threshold, direct):
    """The kept nodes of case (irho, ixi) whose weight times exp(-x), x =
    eps*T*sigma2 over the node's largest signal, exceeds the kept-node
    floor, and that product summed over the kept nodes it does not."""
    weight = ev._weight(irho, ixi)
    pairs = [(1.0, ev.sig_direct[irho])] if direct or ixi is None else ev.reflected[irho, ixi]
    top = np.max([np.broadcast_to(sig, weight.shape) for _, sig in pairs], axis=0)
    reach = weight * np.exp(-alzer_epsilon(_W_ALZER) * threshold * ev.sigma2 / top)
    kept = _kept_mask(ev, irho, ixi)
    live = kept & (reach > ev._bound / weight.size)
    return np.flatnonzero(live), float(np.sum(reach, where=kept & ~live))


def _views(ev, threshold, direct, los_only=False):
    return {case: ev._view(*case, threshold, direct, los_only) for case in ev._kept}


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("index", [0, 7])
def test_spans_match_plain_loop(cfg, index, direct):
    """At 10 dB, each span `_spans` gives a (side, serving state) table is
    the log of the largest and smallest signal over the live nodes of every
    case that reads the table, found node by node, and it is (-inf, inf)
    in exactly the columns no live node reads."""
    ev = _get_evaluator(_fill_configs(cfg)[index], QuadratureSpec())
    want = {}
    for irho, ixi in ev._kept:
        nodes, _ = _live_nodes(ev, irho, ixi, 10.0, direct)
        shape = ev._weight(irho, ixi).shape
        pairs = ([(1.0, ev.sig_direct[irho])] if direct or ixi is None
                 else ev.reflected[irho, ixi])
        signals = [np.broadcast_to(sig, shape) for _, sig in pairs]
        for key, (side, serving) in enumerate(_sides(ev, irho, ixi)):
            columns = side.exponents[False][serving].k_lo.shape
            extremes = want.setdefault((key, serving), {})
            for node in nodes:
                index = np.unravel_index(node, shape)
                col = np.ravel_multi_index(
                    tuple(i if n > 1 else 0 for i, n in zip(index, columns)), columns)
                for sig in signals:
                    hi, lo = extremes.get(col, (0.0, math.inf))
                    extremes[col] = (max(hi, sig[index]), min(lo, sig[index]))
    spans = ev._spans(_views(ev, 10.0, direct))
    assert spans.keys() == want.keys()
    unread = 0
    for key, (log_top, log_bottom) in spans.items():
        read = sorted(want[key])
        assert np.array_equal(np.flatnonzero(np.isfinite(log_top)), read)
        assert np.all(log_top.ravel()[~np.isfinite(log_top.ravel())] == -np.inf)
        assert np.array_equal(np.isfinite(log_top), np.isfinite(log_bottom))
        assert np.all(log_bottom.ravel()[~np.isfinite(log_bottom.ravel())] == np.inf)
        hi, lo = np.array([want[key][col] for col in read]).T
        np.testing.assert_allclose(log_top.ravel()[read], np.log(hi), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(log_bottom.ravel()[read], np.log(lo), rtol=1e-15, atol=0.0)
        unread += log_top.size - len(read)
    assert unread > 0


def test_kept_nodes_fill_fewer_intervals(cfg, monkeypatch):
    """A default 0 dB evaluate reads fewer nodes than it keeps, and every
    lookup it makes at a node it reads matches the exact sum; the nodes it
    skips as dead are not looked up, and their intervals need not be
    filled (test_cold_evaluate_work_counts caps the fill)."""
    ev = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
    ev.evaluate(1.0)
    read = 0
    for (irho, ixi), view in _views(ev, 1.0, False).items():
        nodes = ev._kept[irho, ixi]
        assert 0 < nodes.size < ev._weight(irho, ixi).size
        weight, pairs, sides, _ = view
        read += weight.size
        lookups = [table.at(cols) for table, cols in sides]
        exact = [table.at(cols) for table, cols in _exact_sides(ev, irho, ixi, False, sides)]
        for _, sig in pairs:
            for w in range(1, _W_ALZER + 1):
                s = w * alzer_epsilon(_W_ALZER) / sig
                np.testing.assert_allclose(ev._log_laplace(s, lookups), ev._log_laplace(s, exact),
                                           rtol=1e-9, atol=0.0)
    assert 0 < read < sum(nodes.size for nodes in ev._kept.values())


def test_cold_evaluate_work_counts(cfg, monkeypatch):
    """A fresh default evaluator's cold 0 dB evaluate fills at most 3 144
    table intervals and runs `_j` on at most 1.4 M (node, value) elements,
    against 8 255 intervals and 3.48 M elements before the evaluate read
    live nodes only, closed each column with the five-term series and
    batched its `_j` calls."""
    ev = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
    elements = [0]
    j = analytics._j

    def counted_j(c, table, derivatives=False):
        elements[0] += math.prod(np.broadcast_shapes(np.shape(c), table[1].shape))
        return j(c, table, derivatives)

    monkeypatch.setattr(analytics, "_j", counted_j)
    ev.evaluate(1.0)
    filled = sum(int(np.sum(table._rows.width)) for table in _all_exponent_tables(ev, False))
    assert 0 < filled <= 3144
    assert 0 < elements[0] <= 1_400_000


def _lattice(table):
    """(u, column) of every lattice node and interval midpoint of a table."""
    count = table.count.ravel()
    cols = np.repeat(np.arange(count.size), count)
    k = (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
         + np.repeat(table.k_lo.ravel(), count))
    left = np.flatnonzero(np.diff(cols, append=-1) == 0)
    return ((k * _TABLE_STEP, cols), ((k[left] + 0.5) * _TABLE_STEP, cols[left]))


def test_shared_tail_table_fill_is_per_term_fill(cfg, light_quad):
    """The active and idle reflector sets share each `_j` call on their tail
    table; every node and midpoint value is bitwise the one-term-at-a-time
    fill's."""
    ev = _CoverageEvaluator(cfg, light_quad)
    shared = 0
    for los_only in (False, True):
        for table in ev.exponents[los_only].values():
            alone = copy.copy(table)
            # a group of its own for each term
            alone.groups = [(tail, [term]) for tail, terms in table.groups for term in terms]
            shared += len(alone.groups) - len(table.groups)
            for u, cols in _lattice(table):
                got = table._exact(u, cols, derivatives=True)
                assert np.array_equal(got, alone._exact(u, cols, derivatives=True))
    assert shared > 0


def test_one_j_call_per_tail_table_chunk(cfg, monkeypatch):
    """A fresh reflector evaluator calls `_j` once per (tail table, chunk)
    of each fill, whatever columns its values fall in and however many
    terms share the table: fewer calls than one per (term, column, chunk)."""
    ev = _fresh_evaluator(cfg, QuadratureSpec(), monkeypatch)
    calls, chunks, per_term = [0], [0], [0]
    j, exact = analytics._j, _ExponentTable._exact

    def counted_j(*args):
        calls[0] += 1
        return j(*args)

    def counted_exact(table, u, cols, derivatives=False):
        count = np.bincount(cols, minlength=table.k_lo.size)  # pairs per column
        for (a, _), terms in table.groups:
            chunk = max(1, analytics._CHUNK // len(a))
            per_term[0] += len(terms) * int(np.sum(-(-count // chunk)))
            chunks[0] += -(-len(terms) * len(u) // chunk)
        return exact(table, u, cols, derivatives)

    monkeypatch.setattr(analytics, "_j", counted_j)
    monkeypatch.setattr(_ExponentTable, "_exact", counted_exact)
    ev.evaluate(1.0)
    assert 0 < calls[0] == chunks[0] < per_term[0]


def test_threads_share_table_fills(cfg, light_quad, monkeypatch):
    """Four threads, more than the host's cores, evaluating different
    thresholds on one fresh evaluator get bitwise what a serial run gets."""
    thresholds = (0.02, 0.5, 5.0, 60.0)
    serial = _fresh_evaluator(cfg, light_quad, monkeypatch)
    want = [[serial.evaluate(t, direct) for direct in (False, True)] for t in thresholds]
    start = threading.Barrier(len(thresholds), timeout=60)

    def run(shared, threshold):
        start.wait()
        return [shared.evaluate(threshold, direct) for direct in (False, True)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):  # a lost update shows in some interleavings only
            shared = _fresh_evaluator(cfg, light_quad, monkeypatch)
            with ThreadPoolExecutor(max_workers=len(thresholds)) as pool:
                futures = [pool.submit(run, shared, t) for t in thresholds]
                got = [future.result(timeout=120) for future in futures]
            for part, ref in zip(got, want):
                assert [r.total for r in part] == [r.total for r in ref]
                assert [r.by_case for r in part] == [r.by_case for r in ref]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0])
def test_analytic_rejects_bad_threshold(cfg, threshold):
    for evaluate in (coverage_probability, coverage_direct, coverage_small_beta,
                     energy_efficiency):
        with pytest.raises(ValueError, match="threshold"):
            evaluate(threshold, cfg)


def _full_sum(table, u, cols):
    """(L, L_u, L_uu) with `_j` over every term at every (u, column) pair."""
    out = np.zeros((3, len(u)))
    for (a, b), terms in table.groups:
        for density, scale in terms:
            for col in np.unique(cols):
                i = cols == col
                out[:, i] += density * np.array(
                    _j(np.exp(u[i]) * scale, (a[:, col:col + 1], b[:, col:col + 1]), True)
                )
    return out


def _fill_configs(cfg):
    # the default and the extreme densities and blockage of
    # test_joint_expectation_kernels_share_one_pass
    unit = 1.0 / (math.pi * 500.0**2)
    return [cfg] + [
        cfg.replace(lambda_u=lambda_u * unit, lambda_ris=lambda_ris * unit, beta=beta)
        for lambda_u, lambda_ris, beta in itertools.product((1e-6, 1e4), (0.1, 1e3),
                                                            (1e-4, 0.1))
    ]


@pytest.mark.parametrize("index", range(9))
def test_pruned_fill_matches_full_sum(cfg, light_quad, index):
    """The fill, with its shared `_j` calls over whole columns, stays within
    1e-12 of the term-by-term sum at every lattice node and midpoint."""
    ev = _CoverageEvaluator(_fill_configs(cfg)[index], light_quad)
    for los_only in (False, True):
        for table in _all_exponent_tables(ev, los_only):
            for u, c in _lattice(table):
                got = table._exact(u, c, derivatives=True)
                want = _full_sum(table, u, c)
                scale = np.maximum(np.abs(want[0]), 1e-300)
                assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("index", range(9))
def test_series_row_matches_exact_sum(cfg, light_quad, monkeypatch, index):
    """Below every column's lattice the five-term series row is within
    5e-12 of the exact sum, at the column's s_edge and 30 lattice steps
    below; the default holds a column whose exponent there is below 1e-250."""
    ev = _fresh_evaluator(_fill_configs(cfg)[index], light_quad, monkeypatch)
    smallest = math.inf
    for los_only in (False, True):
        for table in _all_exponent_tables(ev, los_only):
            # only the top interval is filled, so each lookup below takes the
            # series row (zero in the two-node columns no term reaches)
            top = (table.k_lo + table.count - 1) * _TABLE_STEP
            table.cover(top, top)
            cols = np.arange(table.k_lo.size)
            for steps in range(31):
                k = (table.k_lo - steps).ravel()
                u = k * _TABLE_STEP
                got = table.at(cols)(np.exp(u), k, 0.0)
                want = table._exact(u, cols)[0]
                np.testing.assert_allclose(got, want, rtol=5e-12, atol=0.0)
                if steps == 0 and np.any(want > 0.0):
                    smallest = min(smallest, want[want > 0.0].min())
    if index == 0:
        assert smallest < 1e-250


@pytest.mark.parametrize("q3", [8, 7])
@pytest.mark.parametrize("index", range(10))
def test_folded_angle_axis_matches_full_circle(cfg, monkeypatch, index, q3):
    """The half-circle angle axis gives the full q3-node rule's coverage.

    On the full circle each angle-dependent array of the evaluator repeats
    itself at 2*pi - v, so folding it changes nothing beyond rounding."""
    case = (_fill_configs(cfg) + [cfg.replace(lambda_ris=0.0)])[index]
    quad = QuadratureSpec(q1=12, q2=12, q3=q3)
    folded = _CoverageEvaluator(case, quad)
    # the base-station side comes from the folded build's cached twin
    with monkeypatch.context() as m:
        m.setattr(analytics, "fold_circle", lambda nodes, weights: (nodes, weights))
        full = _CoverageEvaluator(case, quad)
    assert (folded.v.size, full.v.size) == ((q3 + 1) // 2, q3)
    if full.has_ris:
        z = bs_ris_distance(full.x[:, None, None], full.y[None, :, None], full.v[None, None, :],
                            r_min=case.r_min)
        for values in [z, *full.gw, *(sig for pair in full.reflected.values()
                                           for _, sig in pair)]:
            np.testing.assert_allclose(values[..., ::-1], values, rtol=1e-9)
    for threshold in (0.1, 1.0, 10.0):
        for direct, los_only in ((False, False), (True, False), (False, True)):
            got = folded.evaluate(threshold, direct, los_only)
            want = full.evaluate(threshold, direct, los_only)
            assert got.total == pytest.approx(want.total, rel=1e-13, abs=0.0)
            # a part 1e-10 of the total (nlos-direct at lambda_u = 1e4 units)
            # is 1 - mass per node, where cancellation amplifies the last-bit
            # cosine difference of a node pair: parts are held to the total
            assert got.by_case == pytest.approx(want.by_case, rel=1e-13, abs=1e-13 * want.total)


UNIT = 1.0 / (math.pi * 500.0**2)


@pytest.mark.parametrize("index", range(10))
def test_neglected_weight_bound(cfg, index):
    """The weight of the nodes no case keeps, plus weight times exp(-x) of
    the kept nodes a 0 dB evaluate skips as dead, over the grid measure, is
    what the evaluate reports and at most 2 * 2^-100 / (2^W - 1) per case."""
    case = (_fill_configs(cfg) + [cfg.replace(lambda_ris=0.0)])[index]
    ev = _get_evaluator(case, QuadratureSpec())
    got = ev.evaluate(1.0).meta["neglected_weight"]
    assert 0.0 <= got <= 2 * len(ev._kept) * 2.0**-100 / (2**_W_ALZER - 1)
    dropped = sum(float(np.sum(ev._weight(*key), where=~_kept_mask(ev, *key))) for key in ev._kept)
    skipped = sum(_live_nodes(ev, *key, 1.0, False)[1] for key in ev._kept)
    assert got == pytest.approx((dropped + skipped) / ev.norm, rel=1e-12, abs=0.0)
    if index == 0:
        assert got > 0.0


@settings(max_examples=10, deadline=None)
@given(
    log_lambda_u=st.floats(-6.0, 4.0),
    log_lambda_ris=st.floats(-6.0, 4.0),
    log_beta=st.floats(-4.0, -1.0),
    n_ris=st.integers(1, 256),
    threshold_db=st.floats(-10.0, 20.0),
)
def test_kept_nodes_match_every_weighted_node(
    cfg, log_lambda_u, log_lambda_ris, log_beta, n_ris, threshold_db
):
    """Evaluating at the kept nodes gives, within 1e-15, the coverage of
    evaluating at every node of nonzero weight, for each signal and the
    LOS-only form; each case reads the kept nodes the liveness rule passes
    at the threshold and signal of each evaluate."""
    case = cfg.replace(lambda_u=10.0**log_lambda_u * UNIT, lambda_ris=10.0**log_lambda_ris * UNIT,
                       beta=10.0**log_beta, n_ris=n_ris)
    quad = QuadratureSpec(q1=16, q2=16, q3=8)
    read = {}
    view = _CoverageEvaluator._view

    def recorded(ev, irho, ixi, threshold, direct_signal, los_only):
        got = view(ev, irho, ixi, threshold, direct_signal, los_only)
        read.setdefault((ev, irho, ixi), []).append((threshold, direct_signal, got[0]))
        return got

    with pytest.MonkeyPatch.context() as m:
        # no other test's evaluates reach the twin, and no twin built here
        # outlives the test
        m.setattr(analytics, "_get_evaluator", analytics._BuildOnce(_CoverageEvaluator, maxsize=8))
        m.setattr(_CoverageEvaluator, "_view", recorded)
        kept = _CoverageEvaluator(case, quad)
        m.setattr(analytics, "_NEGLIGIBLE", 0.0)
        every = _CoverageEvaluator(case, quad)
        for key, nodes in every._kept.items():
            assert np.array_equal(nodes, np.flatnonzero(every._weight(*key)))
        for threshold in (10.0 ** (threshold_db / 10.0), 1.0):
            for direct, los_only in ((False, False), (True, False), (False, True)):
                got = kept.evaluate(threshold, direct, los_only)
                want = every.evaluate(threshold, direct, los_only)
                assert got.total == pytest.approx(want.total, rel=0.0, abs=1e-15)
                assert got.by_case == pytest.approx(want.by_case, rel=0.0, abs=1e-15)
    # each of the six evaluates reads every case's view once
    for (ev, irho, ixi), calls in read.items():
        assert len(calls) == 6
        weight = ev._weight(irho, ixi).ravel()
        for threshold, direct, got in calls:
            nodes, _ = _live_nodes(ev, irho, ixi, threshold, direct)
            assert np.array_equal(got, weight[nodes])


@settings(max_examples=10, deadline=None)
@given(
    log_lambda_u=st.floats(-6.0, 4.0),
    log_lambda_ris=st.floats(-6.0, 4.0),
    log_beta=st.floats(-4.0, -1.0),
    n_ris=st.integers(1, 1024),
    threshold_db=st.floats(-20.0, 40.0),
)
def test_live_nodes_match_every_kept_node(
    cfg, log_lambda_u, log_lambda_ris, log_beta, n_ris, threshold_db
):
    """Evaluating at the live nodes gives, within 1e-15 relative, the
    coverage of evaluating at every kept node (those where weight times
    exp(-x) is not zero), for each signal and the LOS-only form.  The rule
    bounds what a case loses against the total, so parts are held to it."""
    case = cfg.replace(lambda_u=10.0**log_lambda_u * UNIT, lambda_ris=10.0**log_lambda_ris * UNIT,
                       beta=10.0**log_beta, n_ris=n_ris)
    quad = QuadratureSpec(q1=16, q2=16, q3=8)
    threshold = 10.0 ** (threshold_db / 10.0)
    with pytest.MonkeyPatch.context() as m:
        # no other test's evaluates reach the twin, and no twin built here
        # outlives the test
        m.setattr(analytics, "_get_evaluator", analytics._BuildOnce(_CoverageEvaluator, maxsize=8))
        live = _CoverageEvaluator(case, quad)
        every = _CoverageEvaluator(case, quad)
    # a zero floor leaves the kept sets and passes every kept node
    every._bound = 0.0
    for direct, los_only in ((False, False), (True, False), (False, True)):
        got = live.evaluate(threshold, direct, los_only)
        want = every.evaluate(threshold, direct, los_only)
        assert got.total == pytest.approx(want.total, rel=1e-15, abs=0.0)
        assert got.by_case == pytest.approx(want.by_case, rel=0.0, abs=1e-15 * want.total)
        assert got.meta["neglected_weight"] >= want.meta["neglected_weight"]


def test_mass_rescale_reported(cfg):
    """meta["mass_rescale"] is the largest summed LOS + NLOS reflector case
    mass of an (x, angle) node before the evaluator rescales it to one:
    below one at the default, 2.94 where the serving-reflector grid's tail
    overshoots, and zero without reflectors."""
    def reported(case):
        return _get_evaluator(case, QuadratureSpec()).evaluate(1.0).meta["mass_rescale"]

    assert reported(cfg) == pytest.approx(0.99999661, rel=0.0, abs=5e-9)
    over = cfg.replace(lambda_u=1e-6 * UNIT, lambda_ris=0.1 * UNIT, beta=0.1)
    assert reported(over) == pytest.approx(2.94, rel=0.0, abs=0.005)
    ev = _get_evaluator(over, QuadratureSpec())
    # after the rescale the largest mass is one
    assert float(np.max(ev.gw[0].sum(axis=1) + ev.gw[1].sum(axis=1))) == pytest.approx(1.0)
    assert reported(cfg.replace(lambda_ris=0.0)) == 0.0


@pytest.mark.parametrize("beta", [0.1, 1e-4])
def test_ris_activity_keeps_small_busy_probability(cfg, beta):
    """A reflector busy with probability 2e-8 gets it to full precision: it
    matches the same grid's small-load series 3.5L - 7.875L^2, whose next
    term is below 1e-16 of it, and the idle set takes the rest."""
    case = cfg.replace(lambda_u=1e-6 * UNIT, lambda_ris=1e3 * UNIT, beta=beta)

    def series(x, y, v, side):
        load = 2.0 * case.lambda_u / (side * case.lambda_ris)
        return 3.5 * load - 7.875 * load * load

    busy, total = map(sum, ris_joint_expectation(case, (series, None)))
    assert active_prob_ris(case) == pytest.approx(busy / total, rel=1e-11)
    (busy_density, _), (idle_density, _) = _interferers("ris", case)
    assert busy_density / (math.pi * case.lambda_ris) == active_prob_ris(case)
    assert idle_density / (math.pi * case.lambda_ris) == pytest.approx(1.0 - busy / total,
                                                                       rel=1e-15)


def test_ris_activity_idle_is_the_rest_of_the_mass(cfg, monkeypatch):
    """One grid pass integrates the busy kernel beside the mass (kernel None)
    and idle is what busy leaves: never negative, summing with busy to one
    within 2 ulp, and where idle is at least 1e-3 equal to the integral of
    its own occupancy kernel, the form the activity used to take."""
    passed = []

    def counted(case, kernels):
        passed.append(kernels)
        return ris_joint_expectation(case, kernels)

    monkeypatch.setattr(analytics, "ris_joint_expectation", counted)
    compared = 0
    for lambda_u, lambda_ris, beta in itertools.product((1e-6, 1e4), (0.1, 1e3), (1e-4, 0.1)):
        case = cfg.replace(lambda_u=lambda_u * UNIT, lambda_ris=lambda_ris * UNIT, beta=beta)
        passed.clear()
        busy, idle = _ris_activity.__wrapped__(case)
        # one pass, and one kernel in it besides None
        assert len(passed) == 1 and len(passed[0]) == 2
        assert sum(kernel is None for kernel in passed[0]) == 1
        assert idle >= 0.0
        assert abs(busy + idle - 1.0) <= 2.0 * math.ulp(1.0)
        if idle < 1e-3:
            continue

        def load(side):
            return 2.0 * case.lambda_u / (side * case.lambda_ris)

        def busy_kernel(x, y, v, side):
            return -np.expm1(_log_empty_cell(load(side)))

        def idle_kernel(x, y, v, side):
            return np.exp(_log_empty_cell(load(side)))

        busy_mass, idle_mass = map(sum, ris_joint_expectation(case, (busy_kernel, idle_kernel)))
        assert idle == pytest.approx(idle_mass / (busy_mass + idle_mass), rel=1e-12)
        compared += 1
    assert compared == 4


@settings(max_examples=8, deadline=None)
@given(
    beta=st.floats(1e-3, 0.05),
    alpha_los=st.floats(2.0, 3.0),
    alpha_nlos=st.floats(3.0, 5.0),
    lambda_bs=st.floats(1.0, 40.0),
    lambda_ris=st.sampled_from([0.0, 1.0, 10.0, 40.0]),
    log_threshold=st.floats(-3.0, 3.0),
)
def test_log_laplace_matches_exact_sum(
    beta, alpha_los, alpha_nlos, lambda_bs, lambda_ris, log_threshold
):
    cfg = NetworkConfig(
        beta=beta, alpha_los=alpha_los, alpha_nlos=alpha_nlos,
        lambda_bs=lambda_bs * UNIT, lambda_ris=lambda_ris * UNIT,
    )
    ev = _CoverageEvaluator(cfg, QuadratureSpec(q1=8, q2=8, q3=4, q_tail=16))
    for irho, ixi in _serving_pairs(ev):
        sig = ev.reflected[irho, ixi][0][1] if ixi is not None else ev.sig_direct[irho]
        for scale, los_only in itertools.product((1.0, 1e-4, 1e4), (False, True)):
            s = scale * 10.0**log_threshold / sig
            _cover(ev, s, irho, ixi, los_only)
            s_flat, lookups, exact, _ = _every_node(ev, s, irho, ixi, los_only)
            got = ev._log_laplace(s_flat, lookups)
            want = ev._log_laplace(s_flat, exact)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_no_reflectors_identity(cfg):
    bare = cfg.replace(lambda_ris=0.0)
    total = coverage_probability(1.0, bare).total
    direct = coverage_direct(1.0, bare).total
    assert total == pytest.approx(direct, abs=1e-12)


def test_reflected_path_helps(cfg):
    # the coherent reflected amplitude can only add signal power
    assert coverage_probability(1.0, cfg).total >= coverage_direct(1.0, cfg).total


def test_tiny_density_approaches_direct(cfg):
    sparse = cfg.replace(lambda_ris=TINY_DENSITY)
    total = coverage_probability(1.0, sparse).total
    direct = coverage_direct(1.0, sparse).total
    assert total == pytest.approx(direct, abs=0.005)


def test_tiny_density_below_default(cfg):
    # with the serving gains fixed, removing reflectors cannot help
    sparse = coverage_probability(1.0, cfg.replace(lambda_ris=TINY_DENSITY)).total
    assert sparse <= coverage_probability(1.0, cfg).total + 1e-9


def test_series_depth_drift_bounded(cfg, monkeypatch):
    """Doubling the binomial depth shifts the smoothed threshold slightly.

    The gamma-dummy kernel is not asymptotically tight at the coverage step,
    so the value drifts with the depth; the regression bound pins the
    measured drift (about 1.2e-2) without asserting false convergence.  The
    deeper series is built on a cache of its own.
    """
    base = coverage_probability(1.0, cfg).total
    monkeypatch.setattr(analytics, "_get_evaluator",
                        analytics._BuildOnce(_CoverageEvaluator, maxsize=8))
    monkeypatch.setattr(analytics, "_W_ALZER", 10)
    deeper = coverage_probability(1.0, cfg).total
    assert abs(deeper - base) < 0.02


def test_node_doubling_converged(cfg):
    quad = QuadratureSpec()
    dense = QuadratureSpec(q1=2 * quad.q1, q2=2 * quad.q2, q3=2 * quad.q3)
    base = coverage_probability(1.0, cfg, quad).total
    fine = coverage_probability(1.0, cfg, dense).total
    assert abs(fine - base) < 1e-3


def test_small_beta_reduction(cfg):
    weak = cfg.replace(beta=0.001)
    reduced = coverage_small_beta(1.0, weak).total
    full = coverage_probability(1.0, weak).total
    assert reduced == pytest.approx(full, abs=0.02)
    assert coverage_small_beta(1e9, weak).total < 1e-3


# -- spectral and energy efficiency -----------------------------------------


def test_ase_collapse_without_reflectors(cfg):
    bare = cfg.replace(lambda_ris=0.0)
    res = energy_efficiency(1.0, bare)
    expected = (
        bare.lambda_bs
        * active_prob_bs(bare)
        * coverage_direct(1.0, bare).total
        * math.log2(2.0)
    )
    assert res.ase == pytest.approx(expected, rel=1e-9)


def test_ase_branch_boundary(cfg):
    served_bs = cfg.lambda_bs * active_prob_bs(cfg)
    served_ris = cfg.lambda_ris * active_prob_ris(cfg)
    p_cov = coverage_probability(1.0, cfg).total
    p_dir = coverage_direct(1.0, cfg).total
    rate = math.log2(2.0)
    surplus = (served_ris * p_cov + (served_bs - served_ris) * p_dir) * rate
    shared = served_bs * p_cov * rate
    # equal deployment densities put the defaults at the branch boundary
    assert abs(surplus - shared) < 1e-12
    assert energy_efficiency(1.0, cfg).ase == pytest.approx(surplus, abs=1e-12)


def test_efficiency_consistency(cfg):
    res = energy_efficiency(1.0, cfg)
    power = cfg.lambda_bs * active_prob_bs(cfg) * (cfg.p0_watt + cfg.delta * cfg.p_bs_watt)
    power += cfg.lambda_ris * active_prob_ris(cfg) * cfg.n_ris * cfg.p_elem_watt
    assert res.power_density == pytest.approx(power, rel=1e-12)
    assert res.ee == pytest.approx(res.ase / res.power_density, rel=1e-12)


def test_efficiency_limits(cfg):
    assert energy_efficiency(1e-12, cfg).ase == pytest.approx(0.0, abs=1e-15)
    dead = cfg.replace(lambda_bs=0.0, lambda_ris=0.0, lambda_u=0.0)
    res = energy_efficiency(1.0, dead)
    assert res.ase == 0.0 and res.ee == 0.0
