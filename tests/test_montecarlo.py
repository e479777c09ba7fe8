"""Sampling engine: determinism, closed-form checks and blockage calibration."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from riscov import montecarlo as mc
from riscov.beamforming import fejer_kernel, spatial_frequency
from riscov.config import NetworkConfig
from riscov.montecarlo import (
    Deployment,
    association_frequencies,
    default_radius,
    empirical_coverage,
    realize_sinr,
    sample_deployment,
    sinr_samples,
    wilson_interval,
)
from riscov.propagation import LinkKind, path_loss
from riscov.sweeps import RIS_DENSITY_GRID, RIS_SIZE_GRID, UNIT_DENSITY

NO_POINTS = np.empty((0, 2))
NO_ANGLES = np.empty((0,))


def _single_bs_deployment(distance: float, radius: float = 1000.0) -> Deployment:
    return Deployment(
        bs_points=np.array([[distance, 0.0]]),
        ris_points=NO_POINTS.copy(),
        ris_normals=NO_ANGLES.copy(),
        user_points=NO_POINTS.copy(),
        radius=radius,
    )


def test_deployment_validation():
    with pytest.raises(ValueError):
        Deployment(
            bs_points=np.zeros((2, 3)), ris_points=NO_POINTS.copy(),
            ris_normals=NO_ANGLES.copy(), user_points=NO_POINTS.copy(), radius=100.0,
        )
    with pytest.raises(ValueError):
        Deployment(
            bs_points=np.array([[200.0, 0.0]]), ris_points=NO_POINTS.copy(),
            ris_normals=NO_ANGLES.copy(), user_points=NO_POINTS.copy(), radius=100.0,
        )
    with pytest.raises(ValueError):
        Deployment(
            bs_points=NO_POINTS.copy(), ris_points=np.array([[1.0, 1.0]]),
            ris_normals=NO_ANGLES.copy(), user_points=NO_POINTS.copy(), radius=100.0,
        )
    ends = np.zeros((3, 2))
    valid = dict(
        bs_points=NO_POINTS.copy(), ris_points=NO_POINTS.copy(),
        ris_normals=NO_ANGLES.copy(), user_points=NO_POINTS.copy(), radius=100.0,
    )
    assert Deployment(**valid, blockage_segments=(ends, ends)).blockage_segments[0] is ends
    # blockage segments are two (n, 2) endpoint arrays with the same n
    for bad in (
        (ends, ends, ends), (ends, np.zeros((2, 2))), (ends, np.zeros((3, 3))),
        (ends[:, 0], ends[:, 0]), [ends, ends],
    ):
        with pytest.raises(ValueError):
            Deployment(**valid, blockage_segments=bad)


def test_default_radius(cfg):
    # five nearest-neighbor scales of the BS process
    assert default_radius(cfg) == pytest.approx(5.0 / math.sqrt(cfg.lambda_bs * math.pi))


def test_sample_deployment_determinism(cfg):
    a = sample_deployment(cfg, seed=12)
    b = sample_deployment(cfg, seed=12)
    np.testing.assert_array_equal(a.bs_points, b.bs_points)
    np.testing.assert_array_equal(a.ris_points, b.ris_points)
    np.testing.assert_array_equal(a.user_points, b.user_points)
    c = sample_deployment(cfg, seed=13)
    assert a.bs_points.shape != c.bs_points.shape or not np.array_equal(
        a.bs_points, c.bs_points
    )


def test_sample_deployment_in_disk(cfg):
    dep = sample_deployment(cfg, radius=400.0, seed=3)
    assert dep.radius == 400.0
    assert np.hypot(dep.bs_points[:, 0], dep.bs_points[:, 1]).max() <= 400.0
    assert dep.blockage_segments is None
    geo = sample_deployment(cfg, radius=400.0, seed=3, geometric_blockage=True)
    seg_p, seg_q = geo.blockage_segments
    assert seg_p.shape[0] > 0


def test_sinr_batch_determinism(cfg):
    a = sinr_samples(cfg, 40, seed=9)
    b = sinr_samples(cfg, 40, seed=9)
    assert a.sinr.tobytes() == b.sinr.tobytes()
    assert np.array_equal(a.bs_state, b.bs_state)
    assert np.array_equal(a.ris_state, b.ris_state)


def test_trials_are_counter_indexed(cfg):
    # extending the batch must not disturb earlier trials
    short = sinr_samples(cfg, 25, seed=21)
    long = sinr_samples(cfg, 40, seed=21)
    assert short.sinr.tobytes() == long.sinr[:25].tobytes()


def test_realization_does_not_reuse_deployment_draws(cfg, monkeypatch):
    # a deployment and its realization drawn with the same seed: no LOS
    # draw of the realization may be one of the deployment's radius
    # uniforms (|x| / radius)^2
    dep = sample_deployment(cfg, seed=3)
    los_draw, drawn = mc._los_draw, []

    def recording(rng, dist, beta):
        drawn.append(copy.deepcopy(rng).random(dist.shape).ravel())
        return los_draw(rng, dist, beta)

    monkeypatch.setattr(mc, "_los_draw", recording)
    realize_sinr(dep, cfg, seed=3)
    drawn = np.sort(np.concatenate(drawn))
    points = np.vstack((dep.bs_points, dep.ris_points, dep.user_points))
    radius_u = np.sum(points**2, axis=1) / dep.radius**2
    assert drawn.size > 1000 and radius_u.size > 100
    above = np.clip(np.searchsorted(drawn, radius_u), 1, drawn.size - 1)
    gap = np.minimum(np.abs(drawn[above] - radius_u), np.abs(drawn[above - 1] - radius_u))
    assert gap.min() > 1e-12


def test_single_bs_noise_limited_closed_form(cfg):
    distance = 120.0
    dep = _single_bs_deployment(distance)
    # no blockage: the only link is LOS and both beams align on it
    sure_los = cfg.replace(beta=0.0)
    sample = realize_sinr(dep, sure_los, seed=5)
    expected = (
        sure_los.p_bs_watt
        * sure_los.c_los
        * distance**-sure_los.alpha_los
        * (sure_los.n_bs * sure_los.n_u)
        / sure_los.noise_power_watt
    )
    assert sample.sinr == pytest.approx(expected, rel=1e-12)
    assert sample.interference_w == 0.0
    assert sample.serving_case.bs_state is LinkKind.LOS
    assert sample.serving_case.ris_state is None


def test_single_bs_nlos_closed_form(cfg):
    distance = 120.0
    dep = _single_bs_deployment(distance)
    blocked = cfg.replace(beta=50.0)  # certain blockage at 120 m
    sample = realize_sinr(dep, blocked, seed=5)
    expected = (
        blocked.p_bs_watt
        * blocked.c_nlos
        * distance**-blocked.alpha_nlos
        * (blocked.n_bs * blocked.n_u)
        / blocked.noise_power_watt
    )
    assert sample.sinr == pytest.approx(expected, rel=1e-12)
    assert sample.serving_case.bs_state is LinkKind.NLOS


def test_empty_deployment_raises(cfg):
    dep = Deployment(
        bs_points=NO_POINTS.copy(), ris_points=NO_POINTS.copy(),
        ris_normals=NO_ANGLES.copy(), user_points=NO_POINTS.copy(), radius=100.0,
    )
    with pytest.raises(ValueError):
        realize_sinr(dep, cfg)


def test_wilson_interval_properties():
    low, high = wilson_interval(50, 100)
    assert 0.0 <= low < 0.5 < high <= 1.0
    # against the textbook expression
    z = 1.959963984540054
    p, n = 0.5, 100
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    assert low == pytest.approx(center - half, rel=1e-12)
    assert high == pytest.approx(center + half, rel=1e-12)
    # edge counts stay inside the unit interval
    assert wilson_interval(0, 50)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(50, 50)[1] == pytest.approx(1.0, abs=1e-12)
    tight = wilson_interval(500, 1000)
    assert tight[1] - tight[0] < high - low


def test_empirical_coverage_structure(cfg):
    batch = sinr_samples(cfg, 400, seed=2)
    res = empirical_coverage(1.0, cfg, 400, seed=2, samples=batch)
    assert res.engine == "montecarlo"
    assert 0.0 <= res.total <= 1.0
    assert sum(res.by_case.values()) == pytest.approx(res.total, abs=1e-12)
    assert res.meta["trials"] == 400
    assert res.meta["ci_low"] <= res.total <= res.meta["ci_high"]
    # reuse path equals recompute
    again = empirical_coverage(1.0, cfg, 400, seed=2)
    assert again.total == res.total
    with pytest.raises(ValueError):
        empirical_coverage(-1.0, cfg, 10)


def test_coverage_decreasing_in_threshold(cfg):
    batch = sinr_samples(cfg, 600, seed=8)
    totals = [
        empirical_coverage(t, cfg, 600, seed=8, samples=batch).total
        for t in (0.1, 1.0, 10.0)
    ]
    assert totals[0] >= totals[1] >= totals[2]


def test_association_frequencies_structure(cfg):
    freq = association_frequencies(cfg, 600, seed=6)
    assert freq["d_los"] + freq["d_nlos"] == pytest.approx(1.0)
    assert freq["u_los"] + freq["u_nlos"] + freq["no_ris"] == pytest.approx(1.0)
    assert freq["g_los"] + freq["g_nlos"] == pytest.approx(1.0)
    assert freq["trials"] == 600.0
    again = association_frequencies(cfg, 600, seed=6)
    assert again == freq


def test_serve_rule_is_the_typical_user_rule(cfg):
    # every link LOS; the reflector at (50, 30) has its coated face toward -y
    dep = Deployment(
        bs_points=np.array([[100.0, 0.0], [-300.0, 200.0]]),
        ris_points=np.array([[50.0, 30.0]]),
        ris_normals=np.array([1.5 * math.pi]),
        user_points=np.array([[90.0, 10.0], [0.0, 100.0], [-250.0, -50.0]]),
        radius=500.0,
    )
    clear = cfg.replace(beta=0.0)
    links = mc._link_states(dep, clear, np.random.default_rng(0))
    users = np.vstack((np.zeros((1, 2)), dep.user_points))
    d_ub = mc._distances(users, dep.bs_points)
    d_ur = mc._distances(users, dep.ris_points)
    serving_bs, serving_ris = mc._serve(
        users, d_ub, np.ones(d_ub.shape, dtype=bool), d_ur, np.ones(d_ur.shape, dtype=bool),
        dep, clear,
    )
    assert mc._associate(dep, clear, links) == (serving_bs[0], serving_ris[0]) == (0, 0)
    # (90, 10) faces the reflector with its BS; (0, 100) is behind it; the
    # BS serving (-250, -50) is behind it
    np.testing.assert_array_equal(serving_bs, [0, 0, 0, 1])
    np.testing.assert_array_equal(serving_ris, [0, 0, -1, -1])


def test_geometric_blockage_calibrates_to_exponential(cfg):
    """Boolean segment fields reproduce p_los(x) = exp(-beta x) for real links."""
    trials = 4000
    distances = (50.0, 100.0, 200.0)
    hits = {d: 0 for d in distances}
    for t in range(trials):
        dep = sample_deployment(cfg, radius=250.0, seed=t, geometric_blockage=True)
        for d in distances:
            probe = dataclasses.replace(
                dep,
                bs_points=np.array([[d, 0.0]]),
                ris_points=NO_POINTS.copy(),
                ris_normals=NO_ANGLES.copy(),
                user_points=NO_POINTS.copy(),
            )
            sample = realize_sinr(probe, cfg, seed=t)
            hits[d] += sample.serving_case.bs_state is LinkKind.LOS
    for d in distances:
        assert hits[d] / trials == pytest.approx(math.exp(-cfg.beta * d), abs=0.02)


def test_blockage_modes_agree_on_coverage(cfg):
    drawn = empirical_coverage(1.0, cfg, 1200, radius=450.0, seed=14).total
    geometric = empirical_coverage(
        1.0, cfg, 1200, radius=450.0, seed=14, geometric_blockage=True
    ).total
    assert geometric == pytest.approx(drawn, abs=0.06)


def test_activity_modes_agree_on_coverage(cfg):
    # cells are almost surely loaded at ten users per BS, so the thinning
    # approximation and the sampled user assignment nearly coincide
    exact = empirical_coverage(1.0, cfg, 1200, radius=450.0, seed=15).total
    thinned = empirical_coverage(
        1.0, cfg, 1200, radius=450.0, seed=15, bernoulli_activity=True
    ).total
    assert thinned == pytest.approx(exact, abs=0.06)


def test_drawn_serving_gains_lower_coverage(cfg):
    # plugging the mean misaligned gain into the serving direct amplitude is
    # optimistic: the drawn kernel product has a median far below its mean,
    # so realizing the gain per trial must cost coverage at mid thresholds
    plugged = empirical_coverage(1.0, cfg, 1200, radius=450.0, seed=16).total
    drawn = empirical_coverage(
        1.0, cfg, 1200, radius=450.0, seed=16, draw_serving_gains=True
    ).total
    assert 0.1 < drawn < plugged


def test_radius_insensitivity(cfg):
    small = empirical_coverage(1.0, cfg, 1500, radius=500.0, seed=18).total
    large = empirical_coverage(1.0, cfg, 1500, radius=800.0, seed=18).total
    assert large == pytest.approx(small, abs=0.06)


def test_trials_validation(cfg):
    with pytest.raises(ValueError):
        sinr_samples(cfg, 0)
    with pytest.raises(ValueError):
        association_frequencies(cfg, 0)


def test_association_frequencies_match_sinr_codes(cfg):
    # both draw trial t's link states from the same (seed, t) stream
    freq = association_frequencies(cfg, 300, radius=500.0, seed=6)
    batch = sinr_samples(cfg, 300, radius=500.0, seed=6)
    has_bs = batch.sinr > 0.0  # a trial without a BS is coded with sinr 0
    bs, ris, leg = batch.bs_state[has_bs], batch.ris_state[has_bs], batch.leg_state[has_bs]
    assert freq["trials"] == has_bs.sum()
    assert freq["d_los"] == np.mean(bs == 0)
    assert freq["u_los"] == np.mean(ris == 0)
    assert freq["u_nlos"] == np.mean(ris == 1)
    assert freq["no_ris"] == pytest.approx(np.mean(ris == -1), abs=1e-12)
    assert freq["g_los"] == np.mean((ris == 0) & (leg == 0))


# -- the vectorized interference stage against the per-reflector loop ---------


def _interference_loop(
    dep, cfg, rng, links, serving_bs, serving_ris, bs_active, ris_active, nu_bs0, nu_u0
):
    """Reference: the interference stage written as one pass per reflector."""
    two_pi = 2.0 * math.pi
    power = cfg.p_bs_watt
    n_bs = dep.bs_points.shape[0]
    n_ris = dep.ris_points.shape[0]
    beam_nu = spatial_frequency(rng.uniform(0.0, two_pi, n_bs), cfg)
    beam_nu[serving_bs] = nu_bs0
    prof_u = rng.uniform(0.0, two_pi, n_ris)
    prof_g = rng.uniform(0.0, two_pi, n_ris)
    profile_delta = spatial_frequency(prof_u, cfg) - spatial_frequency(prof_g, cfg)

    total = 0.0
    others = bs_active.copy()
    others[serving_bs] = False
    if others.any():
        nu_arr = spatial_frequency(mc._angles(-dep.bs_points[others]), cfg)
        g_bs = fejer_kernel(nu_arr - beam_nu[others], cfg.n_bs)
        nu_at_user = spatial_frequency(mc._angles(dep.bs_points[others]), cfg)
        g_u = fejer_kernel(nu_at_user - nu_u0, cfg.n_u)
        ld = path_loss(links.bs_dist[others], links.bs_los[others], cfg)
        total += float(np.sum(power * ld * g_bs * g_u) / (cfg.n_bs * cfg.n_u))

    active_bs = np.flatnonzero(bs_active)
    bs_pts = dep.bs_points[active_bs]
    for j in range(n_ris):
        if j == serving_ris:
            continue
        ris_j = dep.ris_points[j]
        vec = ris_j[None, :] - bs_pts
        nu_dep = spatial_frequency(mc._angles(vec), cfg)
        nu_inc = spatial_frequency(mc._angles(-vec), cfg)
        lg = path_loss(links.leg_dist[active_bs, j], links.leg_los[active_bs, j], cfg)
        incident = power * lg * fejer_kernel(nu_dep - beam_nu[active_bs], cfg.n_bs) / cfg.n_bs
        nu_out = spatial_frequency(mc._angles(-ris_j), cfg)
        if ris_active[j]:
            element = fejer_kernel(nu_out - nu_inc - profile_delta[j], cfg.n_ris)
        else:
            psi = rng.uniform(0.0, two_pi, cfg.n_ris)
            phase = two_pi * np.arange(cfg.n_ris)[None, :] * (nu_out - nu_inc)[:, None]
            element = np.abs(np.exp(1j * (phase - psi[None, :])).sum(axis=1)) ** 2
        nu_at_user = spatial_frequency(mc._angles(ris_j), cfg)
        g_u = fejer_kernel(nu_at_user - nu_u0, cfg.n_u) / cfg.n_u
        lu = path_loss(links.ris_dist[j], links.ris_los[j], cfg)
        total += float(lu * g_u * np.sum(incident * element))
    return total


def _check_against_loop(dep, cfg, seed, bernoulli=False, loaded=None):
    """Run the stages up to interference, optionally override which
    reflectors are loaded, then compare the stage with the loop on identical
    generator states. Returns the stage inputs for case-specific asserts."""
    rng = np.random.Generator(np.random.Philox(seed))
    links = mc._link_states(dep, cfg, rng)
    serving_bs, serving_ris = mc._associate(dep, cfg, links)
    bs_active, ris_active = mc._activity(dep, cfg, rng, serving_bs, serving_ris, bernoulli)
    if loaded is not None:
        ris_active = np.full(ris_active.shape, loaded)
    _, nu_bs0, nu_u0 = mc._signal(dep, cfg, links, serving_bs, serving_ris, False)
    args = (links, serving_bs, serving_ris, bs_active, ris_active, nu_bs0, nu_u0)
    stage_rng, loop_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    stage = mc._interference(dep, cfg, stage_rng, *args)
    loop = _interference_loop(dep, cfg, loop_rng, *args)
    assert stage == pytest.approx(loop, rel=1e-12, abs=0.0)
    # the same draws were consumed, in the same order
    assert stage_rng.random() == loop_rng.random()
    return stage, args


@pytest.mark.parametrize(
    "case", ("sampled", "all-active", "all-idle", "scheme2", "geometric", "bernoulli")
)
def test_interference_stage_matches_loop(cfg, case):
    geometric = case == "geometric"
    run_cfg = cfg.replace(antenna_scheme="scheme2") if case == "scheme2" else cfg
    loaded = {"all-active": True, "all-idle": False}.get(case)
    mixed = False
    for seed in (31, 32, 33):
        dep = sample_deployment(run_cfg, radius=500.0, seed=seed, geometric_blockage=geometric)
        _, args = _check_against_loop(dep, run_cfg, seed, case == "bernoulli", loaded)
        ris_active = args[4]
        assert len(ris_active) > 1  # several reflectors, so the loop has work
        mixed |= ris_active.any() and not ris_active.all()
    if case == "sampled":
        assert mixed  # some reflectors loaded and some idle


def test_interference_stage_without_reflectors(cfg):
    dep = sample_deployment(cfg, radius=500.0, seed=31)
    bare = dataclasses.replace(dep, ris_points=NO_POINTS.copy(), ris_normals=NO_ANGLES.copy())
    value, args = _check_against_loop(bare, cfg, 31)
    assert args[2] is None and value > 0.0


def test_interference_stage_serving_reflector_only(cfg):
    # every link LOS: the BS at (100, 0) serves, and the reflector at
    # (50, 30) faces both it and the user, so it is the serving one
    dep = Deployment(
        bs_points=np.array([[100.0, 0.0], [-300.0, 200.0], [250.0, -350.0]]),
        ris_points=np.array([[50.0, 30.0]]),
        ris_normals=np.array([1.5 * math.pi]),
        user_points=np.array([[-200.0, 100.0], [240.0, -300.0], [90.0, 10.0]]),
        radius=500.0,
    )
    clear = cfg.replace(beta=0.0)
    value, args = _check_against_loop(dep, clear, 7)
    serving_bs, serving_ris, bs_active = args[1:4]
    assert (serving_bs, serving_ris) == (0, 0)
    assert bs_active.all()
    # no other reflector: only the direct links of the two other BSs interfere
    assert value > 0.0


def test_interference_stage_chunks_idle_reflectors(cfg):
    # the densest and largest reflectors of the sweep grids: the idle block
    # spans several chunks of the bounded temporary
    big = cfg.replace(
        lambda_ris=max(RIS_DENSITY_GRID) * UNIT_DENSITY, n_ris=max(RIS_SIZE_GRID)
    )
    dep = sample_deployment(big, seed=41)
    _, args = _check_against_loop(dep, big, 41)
    bs_active, ris_active = args[3], args[4]
    idle_elements = bs_active.sum() * (~ris_active).sum() * big.n_ris
    assert idle_elements > 4 * mc._IDLE_BLOCK_ELEMENTS
