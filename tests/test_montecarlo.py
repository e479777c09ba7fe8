"""Sampling engine: determinism, closed-form checks and per-trial reference passes."""

import copy
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from riscov import montecarlo as mc
from riscov.beamforming import (
    _IDLE_BLOCK_ELEMENTS,
    fejer_kernel,
    serving_gains,
    spatial_frequency,
)
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
from test_propagation import blockage_density, crossings, segment_endpoints

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
    valid = dict(
        bs_points=NO_POINTS.copy(), ris_points=NO_POINTS.copy(),
        ris_normals=NO_ANGLES.copy(), user_points=NO_POINTS.copy(), radius=100.0,
    )
    # a NaN point is never outside the disk, and would reach the SINR
    for name, bad in (("bs_points", np.array([[np.nan, 0.0]])),
                      ("user_points", np.array([[np.inf, 0.0]]))):
        with pytest.raises(ValueError, match="finite"):
            Deployment(**{**valid, name: bad})
    with pytest.raises(ValueError, match="finite"):
        Deployment(**{**valid, "ris_points": np.zeros((1, 2)), "ris_normals": np.array([np.nan])})
    # a NaN radius passes every disk check, so the radius is checked first,
    # also when the deployment holds points
    for radius in (math.nan, math.inf, 0.0, -5.0):
        for points in (NO_POINTS.copy(), np.array([[10.0, 0.0]])):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                Deployment(**{**valid, "bs_points": points, "radius": radius})


def test_default_radius(cfg):
    # five nearest-neighbor scales of the BS process
    assert default_radius(cfg) == pytest.approx(5.0 / math.sqrt(cfg.lambda_bs * math.pi))


@pytest.mark.parametrize("radius", [-5.0, 0.0, math.nan, math.inf])
def test_sampling_rejects_bad_radius(cfg, radius):
    """A radius that is not positive and finite is refused, not read as an
    all-outage batch or handed to numpy's Poisson draw."""
    for sample in (lambda: sample_deployment(cfg, radius=radius),
                   lambda: sinr_samples(cfg, 3, radius=radius),
                   lambda: association_frequencies(cfg, 3, radius=radius)):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sample()


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


def test_sinr_batch_determinism(cfg):
    a = sinr_samples(cfg, 40, seed=9)
    b = sinr_samples(cfg, 40, seed=9)
    assert a.sinr.tobytes() == b.sinr.tobytes()
    assert np.array_equal(a.bs_state, b.bs_state)
    assert np.array_equal(a.ris_state, b.ris_state)


def test_empty_trials_counted(cfg):
    # a 130 m disk holds no BS at the default density about half the time
    radius, seed, trials = 130.0, 12, 60
    batch = sinr_samples(cfg, trials, radius=radius, seed=seed)
    empty = np.array([
        mc._sample(cfg, radius, mc._rng(seed, (t,))).bs_points.shape[0] == 0
        for t in range(trials)
    ])
    assert 0 < batch.empty_trials == empty.sum() < trials
    # they are still coded as outage, the no-RIS NLOS case
    assert np.all(batch.sinr[empty] == 0.0)
    assert np.all(batch.bs_state[empty] == 1) and np.all(batch.ris_state[empty] == -1)
    assert sinr_samples(cfg, 20, seed=seed).empty_trials == 0


def test_trials_are_counter_indexed(cfg):
    # extending the batch must not disturb earlier trials
    short = sinr_samples(cfg, 25, seed=21)
    long = sinr_samples(cfg, 40, seed=21)
    assert short.sinr.tobytes() == long.sinr[:25].tobytes()


def test_trial_values_do_not_depend_on_their_block(cfg, monkeypatch):
    # denser reflectors than the default, so a block holds a handful of
    # trials, and path-loss intercepts raised until reflected interference
    # shows in the last bits of the SINR. Batches of 7, 23 and 40 trials end
    # their last block early, and block budgets of one link (a block per
    # trial) and of 2**16 links (one block for all) group the same trials
    # otherwise; no trial's values may move by a single bit
    dense = cfg.replace(lambda_ris=2 * cfg.lambda_ris, c_los=1e-2, c_nlos=1e-2)
    realize, sizes = mc._realize, []

    def recording(trials, *args):
        sizes[-1].append(len(trials))
        return realize(trials, *args)

    monkeypatch.setattr(mc, "_realize", recording)
    runs, default_budget = {}, mc._BLOCK_LINKS
    for budget in (1, default_budget, 2**16):
        monkeypatch.setattr(mc, "_BLOCK_LINKS", budget)
        for n in (7, 23, 40):
            sizes.append([])
            runs[budget, n] = sinr_samples(dense, n, seed=23), sizes[-1]
    alone, _ = runs.pop((1, 40))
    *short, full = (runs[default_budget, n][1] for n in (7, 23, 40))
    assert len(full) > 3 and max(full) > 1 and runs[2**16, 40][1] == [40]
    ends = set(np.cumsum(full))
    for n, blocks in zip((7, 23), short):
        # the short batch closes a block at its last trial, the full one
        # carries that block on
        assert sum(blocks) == n not in ends
    for batch, _ in runs.values():
        n = batch.sinr.size
        assert batch.sinr.tobytes() == alone.sinr[:n].tobytes()
        for name in ("bs_state", "ris_state", "leg_state"):
            assert getattr(batch, name).tobytes() == getattr(alone, name)[:n].tobytes()


def _position(rng):
    """Where a Philox generator stands in its stream."""
    state = rng.bit_generator.state
    return tuple(state["state"]["counter"]), state["buffer_pos"]


def _recording_rng(monkeypatch):
    """Make mc._rng keep every generator it hands out, with a copy of it as
    it was handed out."""
    make_rng, made = mc._rng, []

    def recording(seed, key=()):
        rng = make_rng(seed, key)
        made.append((copy.deepcopy(rng), rng))
        return rng

    monkeypatch.setattr(mc, "_rng", recording)
    return made


def test_realization_does_not_reuse_deployment_draws(cfg, monkeypatch):
    # a deployment and its realization drawn with the same seed: no uniform
    # the realization consumes may be one of the deployment's radius
    # uniforms (|x| / radius)^2
    dep = sample_deployment(cfg, seed=3)
    made = _recording_rng(monkeypatch)
    realize_sinr(dep, cfg, seed=3)
    (start, used), = made
    drawn = []
    while _position(start) != _position(used):
        drawn.append(start.random())
        assert len(drawn) < 10**6
    drawn = np.sort(drawn)
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


def test_empirical_coverage_rejects_nan_threshold(cfg):
    """NaN would count every trial uncovered; an infinite threshold is a
    threshold no SINR reaches."""
    batch = sinr_samples(cfg, 20, seed=3)
    with pytest.raises(ValueError, match="threshold"):
        empirical_coverage(math.nan, cfg, 20, samples=batch)
    assert empirical_coverage(math.inf, cfg, 20, samples=batch).total == 0.0


def test_empirical_coverage_rejects_zero_threshold(cfg):
    """At a zero threshold the trials without a base station, SINR 0, would
    count as covered."""
    batch = sinr_samples(cfg, 60, radius=130.0, seed=12)
    assert batch.empty_trials > 0
    with pytest.raises(ValueError, match="threshold"):
        empirical_coverage(0.0, cfg, 60, samples=batch)


def test_empirical_coverage_reports_empty_trials(cfg):
    # a 130 m disk holds no BS at the default density about half the time
    batch = sinr_samples(cfg, 60, radius=130.0, seed=12)
    reused = empirical_coverage(1.0, cfg, 60, samples=batch)
    drawn = empirical_coverage(1.0, cfg, 60, radius=130.0, seed=12)
    assert reused.meta["empty_trials"] == drawn.meta["empty_trials"] == batch.empty_trials > 0
    assert empirical_coverage(1.0, cfg, 20, seed=12).meta["empty_trials"] == 0


def test_coverage_decreasing_in_threshold(cfg):
    batch = sinr_samples(cfg, 600, seed=8)
    totals = [
        empirical_coverage(t, cfg, 600, seed=8, samples=batch).total
        for t in (0.1, 1.0, 10.0)
    ]
    assert totals[0] >= totals[1] >= totals[2]


def test_association_frequencies_structure(cfg):
    freq = association_frequencies(cfg, 600, seed=6)
    assert freq["u_los"] + freq["u_nlos"] + freq["no_ris"] == pytest.approx(1.0)
    assert 0.0 < freq["g_los"] <= freq["u_los"]
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
    block = mc._Block([mc._trial(dep, clear, np.random.default_rng(0), links_only=True)], clear)
    typical_bs, typical_ris = mc._associate(block)
    users = np.vstack((np.zeros((1, 2)), dep.user_points))
    d_ub = mc._distances(users, dep.bs_points)
    dx, dy = mc._offsets(users, dep.ris_points)
    d_ur = np.sqrt(dx * dx + dy * dy)
    serving_bs, serving_ris = mc._serve_users(
        dep, path_loss(d_ub, True, clear), path_loss(d_ur, True, clear), dx, dy
    )
    assert (typical_bs[0], typical_ris[0]) == (serving_bs[0], serving_ris[0]) == (0, 0)
    # (90, 10) faces the reflector with its BS; (0, 100) is behind it; the
    # BS serving (-250, -50) is behind it
    np.testing.assert_array_equal(serving_bs, [0, 0, 0, 1])
    np.testing.assert_array_equal(serving_ris, [0, 0, -1, -1])


def test_geometric_blockage_calibrates_to_exponential(cfg):
    """A line-Boolean segment field and the engine's per-link draws both give
    p_los(x) = exp(-beta x) on real links."""
    distances = np.array([50.0, 100.0, 200.0])
    law = np.exp(-cfg.beta * distances)
    # the engine: one BS at each distance, the serving link's drawn state
    trials = 4000
    drawn = np.array([
        sum(
            realize_sinr(_single_bs_deployment(d), cfg, seed=t).serving_case.bs_state
            is LinkKind.LOS
            for t in range(trials)
        )
        for d in distances
    ])
    np.testing.assert_allclose(drawn / trials, law, atol=0.02)
    # the field: links from the origin along the x axis, one field of
    # segments with lengths U(5, 15) per trial, midpoints in the rectangle
    # from which a segment can reach any of them
    rng = np.random.default_rng(11)
    lo, hi = 5.0, 15.0
    density = blockage_density(cfg.beta, 0.5 * (lo + hi))
    a, b = np.zeros((3, 2)), np.column_stack((distances, np.zeros(3)))
    x0, x1, half_y = -0.5 * hi, distances.max() + 0.5 * hi, 0.5 * hi
    trials, clear = 10000, np.zeros(3)
    for _ in range(trials):
        n = rng.poisson(density * (x1 - x0) * 2.0 * half_y)
        mid = np.column_stack((rng.uniform(x0, x1, n), rng.uniform(-half_y, half_y, n)))
        ends = segment_endpoints(mid, rng.uniform(lo, hi, n), rng.uniform(0.0, math.pi, n))
        clear += ~crossings(a, b, *ends).any(axis=1)
    np.testing.assert_allclose(clear / trials, law, atol=0.02)


def test_drawn_serving_gains_lower_coverage(cfg):
    # plugging the mean misaligned gain into the serving direct amplitude is
    # optimistic: the drawn kernel product has a median far below its mean,
    # so realizing the gain per trial must cost coverage at mid thresholds
    plugged = empirical_coverage(1.0, cfg, 1200, radius=450.0, seed=16).total
    drawn = empirical_coverage(
        1.0, cfg, 1200,
        samples=sinr_samples(cfg, 1200, radius=450.0, seed=16, draw_serving_gains=True),
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


# -- the block pass against a per-trial reference -------------------------------
#
# The reference realizes one trial at a time, each stage on that trial's
# arrays, with the interference written as one pass per reflector. It draws
# from the trial's generator in the order the engine promises: link states,
# activity, interfering beams and profiles, then idle-reflector phases.


def _reference_links(dep, cfg, rng):
    """Distances and LOS states of every link toward the typical user, then
    of the (n_bs, n_ris) BS-RIS leg matrix."""
    bs_dist = np.hypot(dep.bs_points[:, 0], dep.bs_points[:, 1])
    ris_dist = np.hypot(dep.ris_points[:, 0], dep.ris_points[:, 1])
    diff = dep.bs_points[:, None, :] - dep.ris_points[None, :, :]
    leg_dist = np.hypot(diff[..., 0], diff[..., 1])
    bs_los = mc._los_draw(rng, bs_dist, cfg.beta)
    ris_los = mc._los_draw(rng, ris_dist, cfg.beta)
    leg_los = mc._los_draw(rng, leg_dist, cfg.beta)
    return SimpleNamespace(
        bs_dist=bs_dist, bs_los=bs_los, ris_dist=ris_dist, ris_los=ris_los,
        leg_dist=leg_dist, leg_los=leg_los,
    )


def _reference_serve(users, bs_dist, bs_los, ris_dist, ris_los, dep, cfg):
    """Serving BS of each user (rows) by max received power, then its
    strongest eligible reflector on the user-side leg, -1 where none is."""
    serving_bs = np.argmax(path_loss(bs_dist, bs_los, cfg), axis=1)
    if dep.ris_points.shape[0] == 0:
        return serving_bs, np.full(users.shape[0], -1)
    nx, ny = np.cos(dep.ris_normals), np.sin(dep.ris_normals)
    eligible = np.ones(ris_dist.shape, dtype=bool)
    for pts in (users, dep.bs_points[serving_bs]):
        dx, dy = mc._offsets(pts, dep.ris_points)
        eligible &= dx * nx + dy * ny > 0.0
    metric = np.where(eligible, path_loss(ris_dist, ris_los, cfg), -np.inf)
    return serving_bs, np.where(eligible.any(axis=1), np.argmax(metric, axis=1), -1)


def _reference_associate(dep, cfg, links):
    serving_bs, serving_ris = _reference_serve(
        np.zeros((1, 2)), links.bs_dist[None], links.bs_los[None],
        links.ris_dist[None], links.ris_los[None], dep, cfg,
    )
    return int(serving_bs[0]), (int(serving_ris[0]) if serving_ris[0] >= 0 else None)


def _reference_activity(dep, cfg, rng, serving_bs, serving_ris):
    bs_active = np.zeros(dep.bs_points.shape[0], dtype=bool)
    ris_active = np.zeros(dep.ris_points.shape[0], dtype=bool)
    bs_active[serving_bs] = True
    if serving_ris is not None:
        ris_active[serving_ris] = True
    users = dep.user_points
    d_ub = mc._distances(users, dep.bs_points)
    d_ur = mc._distances(users, dep.ris_points)
    los_ub = mc._los_draw(rng, d_ub, cfg.beta)
    los_ur = mc._los_draw(rng, d_ur, cfg.beta)
    serving, served = _reference_serve(users, d_ub, los_ub, d_ur, los_ur, dep, cfg)
    bs_active[serving] = True
    ris_active[served[served >= 0]] = True
    return bs_active, ris_active


def _reference_signal(dep, cfg, links, serving_bs, serving_ris, draw_serving_gains):
    power = cfg.p_bs_watt
    bs0 = dep.bs_points[serving_bs]
    ld0 = path_loss(links.bs_dist[serving_bs], links.bs_los[serving_bs], cfg)
    if serving_ris is None:
        nu_bs0 = spatial_frequency(mc._angles(-bs0), cfg)
        nu_u0 = spatial_frequency(mc._angles(bs0), cfg)
        return float(power * ld0 * cfg.n_bs * cfg.n_u), nu_bs0, nu_u0
    ris0 = dep.ris_points[serving_ris]
    lu0 = path_loss(links.ris_dist[serving_ris], links.ris_los[serving_ris], cfg)
    lg0 = path_loss(
        links.leg_dist[serving_bs, serving_ris], links.leg_los[serving_bs, serving_ris], cfg
    )
    gain_direct, gain_reflected = serving_gains(cfg)
    nu_d = spatial_frequency(mc._angles(-bs0), cfg)
    nu_g = spatial_frequency(mc._angles(ris0 - bs0), cfg)
    nu_ud = spatial_frequency(mc._angles(bs0), cfg)
    nu_ur = spatial_frequency(mc._angles(ris0), cfg)
    if cfg.antenna_scheme == "scheme1":
        nu_bs0, nu_u0 = nu_g, nu_ur
        if draw_serving_gains:
            gain_direct = (
                fejer_kernel(nu_d - nu_g, cfg.n_bs)
                * fejer_kernel(nu_ud - nu_ur, cfg.n_u)
                / (cfg.n_bs * cfg.n_u)
            )
    else:
        nu_bs0, nu_u0 = nu_d, nu_ud
        if draw_serving_gains:
            gain_reflected = (
                fejer_kernel(nu_g - nu_d, cfg.n_bs) / cfg.n_bs
                * fejer_kernel(nu_ur - nu_ud, cfg.n_u) / cfg.n_u
                * cfg.n_ris**2
            )
    amp = math.sqrt(power * ld0 * gain_direct) + math.sqrt(power * lg0 * lu0 * gain_reflected)
    return float(amp**2), nu_bs0, nu_u0


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


def _reference_realize(dep, cfg, rng, draw_serving_gains):
    """(sinr, state codes) of one trial, stage after stage."""
    links = _reference_links(dep, cfg, rng)
    serving_bs, serving_ris = _reference_associate(dep, cfg, links)
    bs_active, ris_active = _reference_activity(dep, cfg, rng, serving_bs, serving_ris)
    signal, nu_bs0, nu_u0 = _reference_signal(
        dep, cfg, links, serving_bs, serving_ris, draw_serving_gains
    )
    interference = _interference_loop(
        dep, cfg, rng, links, serving_bs, serving_ris, bs_active, ris_active, nu_bs0, nu_u0
    )
    codes = [int(not links.bs_los[serving_bs]), -1, -1]
    if serving_ris is not None:
        codes[1] = int(not links.ris_los[serving_ris])
        codes[2] = int(not links.leg_los[serving_bs, serving_ris])
    return signal / (interference + cfg.noise_power_watt), codes


def _reference_samples(cfg, trials, radius, seed, draw_serving_gains):
    """sinr_samples trial by trial: SINR, state codes, empty trials, and
    where each trial's generator ends."""
    sinr, codes, ends = np.zeros(trials), np.zeros((trials, 3), dtype=np.int8), []
    empty = 0
    for t in range(trials):
        rng = mc._rng(seed, (t,))
        dep = mc._sample(cfg, radius, rng)
        if dep.bs_points.shape[0] == 0:
            codes[t] = (1, -1, -1)
            empty += 1
        else:
            sinr[t], codes[t] = _reference_realize(dep, cfg, rng, draw_serving_gains)
        ends.append(_position(rng))
    return sinr, codes, empty, ends


@pytest.mark.parametrize("case", (
    "sampled", "drawn-gains", "scheme2", "no-reflectors", "empty-bs", "no-users",
))
def test_block_pass_matches_per_trial_reference(cfg, monkeypatch, case):
    run_cfg = {
        "scheme2": cfg.replace(antenna_scheme="scheme2"),
        "no-reflectors": cfg.replace(lambda_ris=0.0),
        # the activity stage returns at once, and its empty draws must not
        # have moved the stream
        "no-users": cfg.replace(lambda_u=0.0),
    }.get(case, cfg)
    radius = 130.0 if case == "empty-bs" else default_radius(run_cfg)
    drawn = case in ("drawn-gains", "scheme2")
    trials = 30
    made = _recording_rng(monkeypatch)
    batch = sinr_samples(run_cfg, trials, radius=radius, seed=17, draw_serving_gains=drawn)
    block_ends = [_position(used) for _, used in made]
    sinr, codes, empty, ends = _reference_samples(run_cfg, trials, radius, 17, drawn)
    np.testing.assert_array_equal(batch.bs_state, codes[:, 0])
    np.testing.assert_array_equal(batch.ris_state, codes[:, 1])
    np.testing.assert_array_equal(batch.leg_state, codes[:, 2])
    assert batch.empty_trials == empty
    np.testing.assert_allclose(batch.sinr, sinr, rtol=1e-12, atol=0.0)
    # every trial's generator ends where the reference's does
    assert block_ends == ends
    if case == "empty-bs":
        assert 0 < batch.empty_trials < trials
    elif case == "no-reflectors":
        assert np.all(batch.ris_state == -1)
    else:
        assert batch.empty_trials == 0 and np.any(batch.ris_state >= 0)


def _check_against_loop(dep, cfg, seed, loaded=None):
    """Run the reference stages up to interference, optionally override
    which reflectors are loaded, then compare the block pass's interference
    stage, on a block of one, with the loop from the same generator state.
    Returns the stage inputs for case-specific asserts."""
    rng = np.random.Generator(np.random.Philox(seed))
    links = _reference_links(dep, cfg, rng)
    serving_bs, serving_ris = _reference_associate(dep, cfg, links)
    bs_active, ris_active = _reference_activity(dep, cfg, rng, serving_bs, serving_ris)
    if loaded is not None:
        ris_active = np.full(ris_active.shape, loaded)
    _, nu_bs0, nu_u0 = _reference_signal(dep, cfg, links, serving_bs, serving_ris, False)
    args = (links, serving_bs, serving_ris, bs_active, ris_active, nu_bs0, nu_u0)
    loop = _interference_loop(dep, cfg, rng, *args)

    trial = mc._trial(dep, cfg, np.random.Generator(np.random.Philox(seed)))
    block = mc._Block([trial], cfg)
    serving, served = mc._associate(block)
    assert (serving[0], served[0]) == (serving_bs, -1 if serving_ris is None else serving_ris)
    if loaded is None:
        # the typical user's pair joins what the other users load
        bs_on, ris_on = trial.bs_busy.copy(), trial.ris_busy.copy()
        bs_on[serving] = True
        ris_on[served[served >= 0]] = True
        np.testing.assert_array_equal(bs_on, bs_active)
        np.testing.assert_array_equal(ris_on, ris_active)
    _, nu_b, nu_u = mc._signal(block, cfg, serving, served, False)
    stage = mc._interference(block, cfg, serving, served, bs_active, ris_active, nu_b, nu_u)
    assert stage[0] == pytest.approx(loop, rel=1e-12, abs=0.0)
    # the same draws were consumed, in the same order
    assert trial.rng.random() == rng.random()
    return stage[0], args


@pytest.mark.parametrize("case", ("sampled", "all-active", "all-idle", "scheme2"))
def test_interference_stage_matches_loop(cfg, case):
    run_cfg = cfg.replace(antenna_scheme="scheme2") if case == "scheme2" else cfg
    loaded = {"all-active": True, "all-idle": False}.get(case)
    mixed = False
    for seed in (31, 32, 33):
        dep = sample_deployment(run_cfg, radius=500.0, seed=seed)
        _, args = _check_against_loop(dep, run_cfg, seed, loaded)
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
    assert idle_elements > 4 * _IDLE_BLOCK_ELEMENTS
