"""Association probabilities, serving-distance densities and side geometry."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from riscov import association
from riscov._quad import tan_halfline_nodes
from riscov.analytics import _chebyshev_angle
from riscov.association import (
    _bs_masses,
    _serving_density,
    association_probabilities,
    bs_ris_distance,
    equivalent_distance,
    los_weighted_area,
    nlos_weighted_area,
    ris_joint_expectation,
    serving_bs_density,
    side_condition,
    state_weight,
)
from riscov.config import NetworkConfig
from riscov.propagation import LinkKind


def test_weighted_areas_match_quadrature(cfg):
    for x in (10.0, 120.0, 400.0):
        los_ref, _ = integrate.quad(lambda r: r * math.exp(-cfg.beta * r), 0.0, x)
        nlos_ref, _ = integrate.quad(
            lambda r: r * -math.expm1(-cfg.beta * r), 0.0, x
        )
        assert los_weighted_area(x, cfg.beta) == pytest.approx(los_ref, rel=1e-9)
        assert nlos_weighted_area(x, cfg.beta) == pytest.approx(nlos_ref, rel=1e-9)


def test_weighted_areas_sum_to_disk(cfg):
    # the LOS and NLOS weights partition integral_0^x r dr
    for x in (5.0, 250.0):
        total = los_weighted_area(x, cfg.beta) + nlos_weighted_area(x, cfg.beta)
        assert total == pytest.approx(0.5 * x**2, rel=1e-12)


def test_state_weights_partition(cfg):
    r = np.linspace(0.0, 3000.0, 301)
    for beta in (0.0, 1e-4, cfg.beta, 0.2):
        total = state_weight(LinkKind.LOS, r, beta) + state_weight(LinkKind.NLOS, r, beta)
        np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-15)


def test_equivalent_distances_round_trip(cfg):
    los, nlos = LinkKind.LOS, LinkKind.NLOS
    for x in (2.0, 50.0, 300.0):
        z = equivalent_distance(x, los, nlos, cfg)
        assert equivalent_distance(z, nlos, los, cfg) == pytest.approx(x, rel=1e-9)
        # an equal-power NLOS link is much shorter than the LOS one
        assert z < x or x < 1.0
        # within one state the equal-power radius is the distance itself
        assert equivalent_distance(x, los, los, cfg) == x
        assert equivalent_distance(x, nlos, nlos, cfg) == x


def test_nearest_los_bs_pdf_normalizes(cfg):
    # a vanishing NLOS intercept removes the NLOS guard, which leaves the
    # density of the distance to the nearest LOS BS
    no_guard = cfg.replace(c_nlos=1e-30)
    total, _ = integrate.quad(
        lambda x: serving_bs_density(x, LinkKind.LOS, no_guard), 0.0, 2000.0, limit=200
    )
    # finite LOS intensity: total mass 1 - exp(-2 pi lambda / beta^2)
    expected = -math.expm1(-math.pi * cfg.lambda_bs * 2.0 / cfg.beta**2)
    assert total == pytest.approx(expected, rel=1e-6)


def test_serving_bs_masses(cfg):
    a_los, a_nlos = _bs_masses(cfg)
    assert 0.0 < a_los < 1.0
    assert a_los + a_nlos == pytest.approx(1.0, abs=1e-9)
    # each mass equals the integral of its unnormalized density
    mass, _ = integrate.quad(
        lambda x: serving_bs_density(x, LinkKind.LOS, cfg), 0.0, 3000.0, limit=400
    )
    assert mass == pytest.approx(a_los, rel=1e-6)


def test_serving_bs_mixture_normalizes(cfg):
    # the state-blind serving-BS density that weights `_ris_grid`'s x axis
    total = sum(_bs_masses(cfg))
    mass, _ = integrate.quad(
        lambda x: (serving_bs_density(x, LinkKind.LOS, cfg)
                   + serving_bs_density(x, LinkKind.NLOS, cfg)) / total,
        0.0, 4000.0, limit=400,
    )
    assert mass == pytest.approx(1.0, rel=1e-6)


def test_bs_association_limits(cfg):
    # removing blockage pushes every serving link to LOS
    assert _bs_masses(cfg.replace(beta=1e-6))[0] > 0.999
    # strong blockage leaves mostly NLOS service
    assert _bs_masses(cfg.replace(beta=0.2))[1] > 0.9


def test_side_condition_hand_cases():
    # wall behind the reflector relative to both endpoints: always same side
    assert side_condition(120.0, 80.0, math.pi) == pytest.approx(1.0, abs=1e-12)
    # right angle with equal legs
    assert side_condition(50.0, 50.0, math.pi / 2) == pytest.approx(0.75, abs=1e-12)
    # degenerate coincident geometry falls back to the symmetric tie
    assert side_condition(50.0, 50.0, 0.0) == pytest.approx(0.5)
    # equal legs: C(x, x, v) = 1 - arccos(sin(v/2))/pi whatever x is
    for x, v in itertools.product((3.0, 50.0, 900.0), (0.1, 1.0, 2.5, math.pi, 4.0)):
        closed = 1.0 - math.acos(math.sin(v / 2.0)) / math.pi
        assert side_condition(x, x, v) == pytest.approx(closed, abs=1e-12)


def test_side_condition_against_brute_force():
    rng = np.random.default_rng(11)
    walls = rng.uniform(0.0, 2.0 * math.pi, size=200_000)
    normals = np.stack([np.cos(walls), np.sin(walls)], axis=1)
    for _ in range(5):
        x = rng.uniform(5.0, 400.0)
        y = rng.uniform(5.0, 400.0)
        ups = rng.uniform(0.05, 2.0 * math.pi - 0.05)
        user = np.array([0.0, 0.0])
        ris = np.array([y, 0.0])
        bs = x * np.array([math.cos(ups), math.sin(ups)])
        side_user = (user - ris) @ normals.T
        side_bs = (bs - ris) @ normals.T
        frac = np.mean(side_user * side_bs > 0.0)
        assert side_condition(x, y, ups) == pytest.approx(frac, abs=0.01)


def test_bs_ris_distance_law_of_cosines():
    assert bs_ris_distance(3.0, 4.0, math.pi / 2) == pytest.approx(5.0)
    assert bs_ris_distance(10.0, 10.0, 0.0) == pytest.approx(0.0)
    assert bs_ris_distance(10.0, 10.0, 0.0, r_min=1.0) == 1.0


def _ris_case_density(y, x, upsilon, state, cfg):
    """Serving-reflector distance density of one state at (x, upsilon)."""
    intensity = np.pi * cfg.lambda_ris * side_condition(x, y, upsilon)
    return _serving_density(y, intensity, state, cfg)


def test_nearest_los_ris_pdf_mass(cfg):
    # conditional on (x, ups): total mass is the LOS-reflector hit probability;
    # a vanishing NLOS intercept removes the NLOS guard
    x, ups = 150.0, 1.3
    no_guard = cfg.replace(c_nlos=1e-30)
    mass, _ = integrate.quad(
        lambda y: _ris_case_density(y, x, ups, LinkKind.LOS, no_guard), 0.0, 3000.0, limit=400
    )
    assert 0.0 < mass < 1.0
    # doubling the density increases the hit probability
    dense = no_guard.replace(lambda_ris=2.0 * cfg.lambda_ris)
    mass2, _ = integrate.quad(
        lambda y: _ris_case_density(y, x, ups, LinkKind.LOS, dense), 0.0, 3000.0, limit=400
    )
    assert mass2 > mass


def test_ris_masses_partition(cfg):
    probs = association_probabilities(cfg)
    a_ul, a_un = probs["u_los"], probs["u_nlos"]
    assert a_ul > 0.0 and a_un > 0.0
    assert a_ul + a_un <= 1.0 + 1e-9
    # the masses are the joint expectation of the kernel 1
    assert ris_joint_expectation(cfg, (None,)) == ((a_ul, a_un),)


def test_joint_expectation_kernels_share_one_pass(cfg):
    """Each (kernel, state) total of a multi-kernel pass is bitwise its
    single-kernel pass's, on the default configuration and at extreme
    densities and blockage."""
    unit = 1.0 / (math.pi * 500.0**2)
    configs = [cfg] + [
        cfg.replace(lambda_u=lambda_u * unit, lambda_ris=lambda_ris * unit, beta=beta)
        for lambda_u, lambda_ris, beta in itertools.product((1e-6, 1e4), (0.1, 1e3),
                                                            (1e-4, 0.1))
    ]
    for case in configs:
        def occupancy(x, y, v, side):
            # the pass hands each kernel the block's side condition
            assert np.array_equal(side, side_condition(x, y, v))
            load = 2.0 * case.lambda_u / (side_condition(x, y, v) * case.lambda_ris)
            return (1.0 + load) ** -3.5

        pair = ris_joint_expectation(case, (occupancy, None))
        assert pair == ris_joint_expectation(case, (occupancy,)) + ris_joint_expectation(
            case, (None,)
        )
        for idle, total in zip(*pair):
            assert 0.0 <= idle <= total


def _full_circle(mp):
    """Let every angle rule keep all of its nodes."""
    mp.setattr(association, "fold_circle", lambda nodes, weights: (nodes, weights))


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(4, 64),
    midpoint=st.booleans(),
    x=st.floats(0.0, 3.7),
    y=st.floats(0.0, 3.7),
    beta=st.sampled_from([1e-4, 1 / 141.4, 0.1]),
)
def test_angle_integrands_symmetric(count, midpoint, x, y, beta):
    """Both angle rules pair node i with node n-1-i at 2*pi - v and equal
    weight, and every angle-dependent integrand agrees on each pair.  The two
    cosines differ in their last bit, which the cancellation in x^2 + y^2 -
    2xy*cos v amplifies near v = 0 to about 1e-11 of a row's largest value."""
    cfg = NetworkConfig(beta=beta)
    x, y = 10.0**x, 10.0**y  # 1 m to 5 km
    if midpoint:
        with pytest.MonkeyPatch.context() as mp:
            _full_circle(mp)
            _, vg, _, weight_xv, _ = association._ris_grid(cfg, 4, count, 4)
        v, w = vg.ravel(), weight_xv[0]
    else:
        v, w = _chebyshev_angle(count)
    np.testing.assert_allclose(v + v[::-1], 2.0 * math.pi, rtol=4e-16)
    np.testing.assert_allclose(w[::-1], w, rtol=0.0, atol=1e-15 * w.max())

    def los_leg(x, y, v):
        return state_weight(LinkKind.LOS, bs_ris_distance(x, y, v, cfg.r_min), cfg.beta)

    def idle(x, y, v):
        return (1.0 + 2.0 * cfg.lambda_u / (side_condition(x, y, v) * cfg.lambda_ris)) ** -3.5

    integrands = [bs_ris_distance, side_condition, los_leg, idle] + [
        lambda x, y, v, state=state: _ris_case_density(y, x, v, state, cfg)
        for state in (LinkKind.LOS, LinkKind.NLOS)
    ]
    for integrand in integrands:
        values = integrand(x, y, v)
        np.testing.assert_allclose(integrand(x, y, v[::-1]), values, rtol=0.0,
                                   atol=1e-10 * np.abs(values).max())


@pytest.mark.parametrize("q_v", [48, 47])
def test_joint_expectation_folded_matches_full_circle(cfg, q_v):
    """The folded angle rule sums every kernel as the full q_v-node rule does."""
    unit = 1.0 / (math.pi * 500.0**2)
    for case in (cfg, cfg.replace(lambda_u=1e4 * unit, lambda_ris=0.1 * unit, beta=1e-4)):
        def occupancy(x, y, v, side):
            load = 2.0 * case.lambda_u / (side_condition(x, y, v) * case.lambda_ris)
            return (1.0 + load) ** -3.5

        def los_leg(x, y, v, side):
            return state_weight(LinkKind.LOS, bs_ris_distance(x, y, v), case.beta)

        kernels = (occupancy, los_leg, None)
        folded = ris_joint_expectation(case, kernels, q_v=q_v)
        with pytest.MonkeyPatch.context() as mp:
            _full_circle(mp)
            full = ris_joint_expectation(case, kernels, q_v=q_v)
        np.testing.assert_allclose(folded, full, rtol=1e-13, atol=0.0)


def test_ris_grid_y_nodes_depend_on_angle_alone(cfg):
    """Every x row shares one set of reflector-distance nodes and weights,
    whose per-angle scale is the one side_condition(x, x, v) gives on each
    row of the 96-node x grid."""
    xg, vg, y, _, wy = association._ris_grid(cfg, 96, 48, 96)
    assert y.shape == wy.shape == (1, 24, 96)
    c = side_condition(xg[:, :, 0], xg[:, :, 0], vg[:, :, 0])
    # the 3/beta cap binds at the small angles of the default configuration
    scale = np.minimum(np.sqrt(2.0 / (np.pi * cfg.lambda_ris * c)), 3.0 / cfg.beta)
    t, wt = tan_halfline_nodes(96, 1.0)
    for got, nodes in ((y, t), (wy, wt)):
        np.testing.assert_allclose(np.broadcast_to(got, (96, 24, 96)),
                                   scale[:, :, None] * nodes, rtol=1e-14, atol=0.0)


def test_association_probabilities_peak_memory():
    # the y nodes, and the serving density's y-only factors, are one set for
    # all x rows rather than one per row
    tracemalloc.start()
    try:
        association_probabilities(NetworkConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_reflected_path_state_split(cfg):
    probs = association_probabilities(cfg)
    # a fully LOS reflected path requires an LOS serving reflector
    assert 0.0 < probs["g_los"] <= probs["u_los"] + 1e-9
