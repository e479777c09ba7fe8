"""System-level Monte Carlo engine on sampled point processes.

Every quantity the analytic engine derives through Laplace functionals is
realized here directly: deployments are drawn as Poisson point processes,
link states per link, beams from the actual geometry, and cell activity from
the sampled users. The typical user sits at the disk center; interferers are
sampled out to the full radius so edge effects only bias against coverage.

The per-trial draw order is fixed (deployment, then link states, then
activity, then interfering beams and reflector phases), so identical seeds
reproduce identical samples and trials can be evaluated in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytics import CoverageResult, active_prob_bs, active_prob_ris
from .association import AssociationCase
from .beamforming import fejer_kernel, serving_gains, spatial_frequency
from .config import NetworkConfig
from .propagation import (
    LinkKind,
    blockage_density,
    crossings,
    los_probability,
    path_loss,
    segment_endpoints,
)

_TWO_PI = 2.0 * math.pi
_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# blockage segment lengths drawn uniformly from this range [m]
BLOCKAGE_LENGTH_RANGE = (5.0, 15.0)


@dataclass(frozen=True, eq=False)
class Deployment:
    """One sampled realization of the network geometry."""

    bs_points: np.ndarray = field(repr=False)     # (n_bs, 2) [m]
    ris_points: np.ndarray = field(repr=False)    # (n_ris, 2) [m]
    ris_normals: np.ndarray = field(repr=False)   # (n_ris,) coated-face normal [rad]
    user_points: np.ndarray = field(repr=False)   # (n_user, 2) [m]
    radius: float                                 # simulation disk radius [m]
    # both endpoints of every blockage segment, two (n_seg, 2) arrays [m];
    # None draws link states from exp(-beta x) instead
    blockage_segments: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("bs_points", "ris_points", "user_points"):
            pts = getattr(self, name)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"{name} must be an (n, 2) array, got {pts.shape}")
            if pts.size and np.hypot(pts[:, 0], pts[:, 1]).max() > self.radius * (1 + 1e-9):
                raise ValueError(f"{name} contains points outside the simulation disk")
        if self.ris_normals.shape != (self.ris_points.shape[0],):
            raise ValueError("ris_normals must hold one angle per RIS")
        segs = self.blockage_segments
        if segs is not None and not (
            isinstance(segs, tuple)
            and len(segs) == 2
            and all(isinstance(e, np.ndarray) and e.ndim == 2 and e.shape[1] == 2 for e in segs)
            and segs[0].shape == segs[1].shape
        ):
            raise ValueError("blockage_segments must be two (n, 2) endpoint arrays of equal n")


@dataclass(frozen=True)
class SinrSample:
    """SINR of the typical user in one realization."""

    sinr: float                    # linear ratio
    serving_case: AssociationCase
    signal_w: float
    interference_w: float
    noise_w: float
    # state of the serving BS to serving RIS leg; None without a serving RIS
    bs_ris_state: LinkKind | None = None


@dataclass(frozen=True, eq=False)
class SinrBatch:
    """SINR draws plus association codes for a block of independent trials.

    State codes: 0 LOS, 1 NLOS, -1 no serving RIS (for the RIS columns).
    A trial whose disk holds no BS is coded as outage (sinr 0, NLOS, no
    RIS); `empty_trials` counts them.
    """

    sinr: np.ndarray        # (trials,)
    bs_state: np.ndarray    # (trials,) int8
    ris_state: np.ndarray   # (trials,) int8
    leg_state: np.ndarray   # (trials,) int8
    radius: float
    seed: int
    empty_trials: int = 0


def default_radius(cfg: NetworkConfig) -> float:
    """Simulation disk radius covering several nearest-neighbor scales."""
    if cfg.lambda_bs <= 0.0:
        raise ValueError("default radius requires lambda_bs > 0")
    return 5.0 / math.sqrt(cfg.lambda_bs * math.pi)


# stream keys under one seed: sample_deployment draws from the root key (),
# trial t of sinr_samples from (t,), and realize_sinr from a key no trial
# uses, so a deployment and its realization never share uniforms
_REALIZE_KEY = (0, 0)


def _rng(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    # counter-based: every (seed, key) pair owns an independent stream
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _disk_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(count))
    ang = rng.uniform(0.0, _TWO_PI, count)
    return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


def _sample(
    cfg: NetworkConfig,
    radius: float,
    rng: np.random.Generator,
    geometric_blockage: bool,
) -> Deployment:
    area = math.pi * radius**2
    n_bs = rng.poisson(cfg.lambda_bs * area)
    n_ris = rng.poisson(cfg.lambda_ris * area)
    n_user = rng.poisson(cfg.lambda_u * area)
    bs = _disk_points(rng, n_bs, radius)
    ris = _disk_points(rng, n_ris, radius)
    normals = rng.uniform(0.0, _TWO_PI, n_ris)
    users = _disk_points(rng, n_user, radius)
    segments = None
    if geometric_blockage:
        lo, hi = BLOCKAGE_LENGTH_RANGE
        lam_b = blockage_density(cfg.beta, 0.5 * (lo + hi))
        # margin so segments whose midpoint falls outside can still cut links
        reach = radius + hi
        n_seg = rng.poisson(lam_b * math.pi * reach**2)
        mid = _disk_points(rng, n_seg, reach)
        length = rng.uniform(lo, hi, n_seg)
        orient = rng.uniform(0.0, math.pi, n_seg)
        segments = segment_endpoints(mid, length, orient)
    return Deployment(bs, ris, normals, users, radius, segments)


def sample_deployment(
    cfg: NetworkConfig,
    radius: float | None = None,
    seed: int = 0,
    geometric_blockage: bool = False,
) -> Deployment:
    """Draw one deployment; identical seeds give identical point sets."""
    if radius is None:
        radius = default_radius(cfg)
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return _sample(cfg, radius, _rng(seed), geometric_blockage)


# -- one realization ----------------------------------------------------------
#
# A trial runs five stages in a fixed order, each on whole arrays: link
# states, association, activity, signal and interference. Only link states,
# activity and interference draw from the trial's generator, in that order.

# complex elements in one block of the idle-reflector element sum (1 MiB);
# idle reflectors are processed in column chunks under this size, so memory
# stays flat however many reflectors are deployed
_IDLE_BLOCK_ELEMENTS = 2**16


def _los_draw(rng: np.random.Generator, dist: np.ndarray, beta: float) -> np.ndarray:
    return rng.random(dist.shape) < los_probability(dist, beta)


def _angles(vec: np.ndarray) -> np.ndarray:
    return np.arctan2(vec[..., 1], vec[..., 0])


def _offsets(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y components of every vector b[j] -> a[i], each (len(a), len(b))."""
    return a[:, 0, None] - b[None, :, 0], a[:, 1, None] - b[None, :, 1]


@dataclass(frozen=True, eq=False)
class _Links:
    """Distances and LOS states of every link one trial uses."""

    bs_dist: np.ndarray   # (n_bs,) BS to typical user [m]
    bs_los: np.ndarray    # (n_bs,) bool
    ris_dist: np.ndarray  # (n_ris,) RIS to typical user [m]
    ris_los: np.ndarray   # (n_ris,) bool
    leg_dist: np.ndarray  # (n_bs, n_ris) BS to RIS [m]
    leg_los: np.ndarray   # (n_bs, n_ris) bool


def _link_states(dep: Deployment, cfg: NetworkConfig, rng: np.random.Generator) -> _Links:
    """Links toward the typical user, then the BS-RIS leg matrix; states are
    drawn from exp(-beta x), or cut by the deployment's blockage segments."""
    bs_dist = np.hypot(dep.bs_points[:, 0], dep.bs_points[:, 1])
    ris_dist = np.hypot(dep.ris_points[:, 0], dep.ris_points[:, 1])
    diff = dep.bs_points[:, None, :] - dep.ris_points[None, :, :]
    leg_dist = np.hypot(diff[..., 0], diff[..., 1])
    if dep.blockage_segments is None:
        bs_los = _los_draw(rng, bs_dist, cfg.beta)
        ris_los = _los_draw(rng, ris_dist, cfg.beta)
        leg_los = _los_draw(rng, leg_dist, cfg.beta)
    else:
        seg = dep.blockage_segments
        bs_los = ~crossings(np.zeros_like(dep.bs_points), dep.bs_points, *seg).any(axis=1)
        ris_los = ~crossings(np.zeros_like(dep.ris_points), dep.ris_points, *seg).any(axis=1)
        a = np.repeat(dep.bs_points, dep.ris_points.shape[0], axis=0)
        b = np.tile(dep.ris_points, (dep.bs_points.shape[0], 1))
        leg_los = ~crossings(a, b, *seg).any(axis=1).reshape(leg_dist.shape)
    return _Links(bs_dist, bs_los, ris_dist, ris_los, leg_dist, leg_los)


def _serve(
    users: np.ndarray,
    bs_dist: np.ndarray,
    bs_los: np.ndarray,
    ris_dist: np.ndarray,
    ris_los: np.ndarray,
    dep: Deployment,
    cfg: NetworkConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Serving BS of each user by max received power, then its strongest
    eligible reflector judged on the user-side leg, -1 where none is eligible.

    A reflector is eligible when the user and the serving BS both lie on its
    coated side. Link arrays are (n_user, n_bs) and (n_user, n_ris).
    """
    serving_bs = np.argmax(path_loss(bs_dist, bs_los, cfg), axis=1)
    if dep.ris_points.shape[0] == 0:
        return serving_bs, np.full(users.shape[0], -1)
    nx, ny = np.cos(dep.ris_normals), np.sin(dep.ris_normals)
    eligible = np.ones(ris_dist.shape, dtype=bool)
    for pts in (users, dep.bs_points[serving_bs]):
        dx, dy = _offsets(pts, dep.ris_points)
        eligible &= dx * nx + dy * ny > 0.0
    metric = np.where(eligible, path_loss(ris_dist, ris_los, cfg), -np.inf)
    return serving_bs, np.where(eligible.any(axis=1), np.argmax(metric, axis=1), -1)


def _associate(dep: Deployment, cfg: NetworkConfig, links: _Links) -> tuple[int, int | None]:
    """Serving BS and reflector of the typical user (None when no reflector
    is eligible)."""
    serving_bs, serving_ris = _serve(
        np.zeros((1, 2)), links.bs_dist[None], links.bs_los[None],
        links.ris_dist[None], links.ris_los[None], dep, cfg,
    )
    return int(serving_bs[0]), (int(serving_ris[0]) if serving_ris[0] >= 0 else None)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dx, dy = _offsets(a, b)
    return np.sqrt(dx * dx + dy * dy)


def _activity(
    dep: Deployment,
    cfg: NetworkConfig,
    rng: np.random.Generator,
    serving_bs: int,
    serving_ris: int | None,
    bernoulli: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Loaded BSs and RISs, from the sampled users' own associations or, with
    ``bernoulli``, thinned at the analytic activity probabilities."""
    n_bs = dep.bs_points.shape[0]
    n_ris = dep.ris_points.shape[0]
    bs_active = np.zeros(n_bs, dtype=bool)
    ris_active = np.zeros(n_ris, dtype=bool)
    bs_active[serving_bs] = True
    if serving_ris is not None:
        ris_active[serving_ris] = True

    if bernoulli:
        bs_active |= rng.random(n_bs) < active_prob_bs(cfg)
        ris_active |= rng.random(n_ris) < active_prob_ris(cfg)
        return bs_active, ris_active

    users = dep.user_points
    # other users associate exactly like the typical one; their link states
    # stay analytic draws even in geometric mode (they only set cell
    # occupancy, not any path toward the origin)
    d_ub = _distances(users, dep.bs_points)
    d_ur = _distances(users, dep.ris_points)
    los_ub = _los_draw(rng, d_ub, cfg.beta)
    los_ur = _los_draw(rng, d_ur, cfg.beta)
    serving, served = _serve(users, d_ub, los_ub, d_ur, los_ur, dep, cfg)
    bs_active[serving] = True
    ris_active[served[served >= 0]] = True
    return bs_active, ris_active


def _signal(
    dep: Deployment,
    cfg: NetworkConfig,
    links: _Links,
    serving_bs: int,
    serving_ris: int | None,
    draw_serving_gains: bool,
) -> tuple[float, float, float]:
    """(received signal power [W], serving BS beam, user beam), the beams as
    spatial frequencies."""
    power = cfg.p_bs_watt
    bs0 = dep.bs_points[serving_bs]
    ld0 = path_loss(links.bs_dist[serving_bs], links.bs_los[serving_bs], cfg)

    if serving_ris is None:
        # beams can only aim at the direct path
        nu_bs0 = spatial_frequency(_angles(-bs0), cfg)
        nu_u0 = spatial_frequency(_angles(bs0), cfg)
        return float(power * ld0 * cfg.n_bs * cfg.n_u), nu_bs0, nu_u0

    ris0 = dep.ris_points[serving_ris]
    lu0 = path_loss(links.ris_dist[serving_ris], links.ris_los[serving_ris], cfg)
    lg0 = path_loss(
        links.leg_dist[serving_bs, serving_ris], links.leg_los[serving_bs, serving_ris], cfg
    )
    gain_direct, gain_reflected = serving_gains(cfg)
    # spatial frequencies of the two departure/arrival pairs
    nu_d = spatial_frequency(_angles(-bs0), cfg)           # BS toward user
    nu_g = spatial_frequency(_angles(ris0 - bs0), cfg)     # BS toward RIS
    nu_ud = spatial_frequency(_angles(bs0), cfg)           # user toward BS
    nu_ur = spatial_frequency(_angles(ris0), cfg)          # user toward RIS
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


def _idle_element(rng: np.random.Generator, offset: np.ndarray, n_ris: int) -> np.ndarray:
    """|sum_m exp(i(2 pi m x - psi_m))|^2 at each (BS, idle reflector) offset
    x, with one uniform phase profile psi per reflector column, drawn in
    column order (the same stream as one draw per reflector).

    The m-th phase factor is built as the m-th power of exp(2 pi i x) by a
    running product: one complex exponential per offset instead of one per
    element, at the same accuracy (both err by about m ulp).
    """
    n_rows, n_idle = offset.shape
    element = np.empty(offset.shape)
    step = max(1, _IDLE_BLOCK_ELEMENTS // (n_rows * n_ris))
    for lo in range(0, n_idle, step):
        x = offset[:, lo:lo + step]
        psi = rng.uniform(0.0, _TWO_PI, (x.shape[1], n_ris))
        terms = np.empty((*x.shape, n_ris), dtype=complex)
        terms[..., 0] = 1.0
        terms[..., 1:] = np.exp(1j * _TWO_PI * x)[..., None]
        np.cumprod(terms, axis=-1, out=terms)
        terms *= np.exp(-1j * psi)
        total = terms.sum(axis=-1)
        element[:, lo:lo + step] = total.real**2 + total.imag**2
    return element


def _interference(
    dep: Deployment,
    cfg: NetworkConfig,
    rng: np.random.Generator,
    links: _Links,
    serving_bs: int,
    serving_ris: int | None,
    bs_active: np.ndarray,
    ris_active: np.ndarray,
    nu_bs0: float,
    nu_u0: float,
) -> float:
    """Power [W] the typical user receives from every other active BS, and
    from every other reflector through the legs of every active BS."""
    power = cfg.p_bs_watt
    n_bs = dep.bs_points.shape[0]
    n_ris = dep.ris_points.shape[0]

    # interfering beams target their own scheduled users; under the point
    # process those azimuths are uniform, so they are drawn directly
    beam_nu = spatial_frequency(rng.uniform(0.0, _TWO_PI, n_bs), cfg)
    beam_nu[serving_bs] = nu_bs0
    # phase profiles of loaded reflectors align to their own served pair
    prof_u = rng.uniform(0.0, _TWO_PI, n_ris)
    prof_g = rng.uniform(0.0, _TWO_PI, n_ris)
    profile_delta = spatial_frequency(prof_u, cfg) - spatial_frequency(prof_g, cfg)

    total = 0.0
    others = bs_active.copy()
    others[serving_bs] = False
    if others.any():
        nu_arr = spatial_frequency(_angles(-dep.bs_points[others]), cfg)
        g_bs = fejer_kernel(nu_arr - beam_nu[others], cfg.n_bs)
        nu_at_user = spatial_frequency(_angles(dep.bs_points[others]), cfg)
        g_u = fejer_kernel(nu_at_user - nu_u0, cfg.n_u)
        ld = path_loss(links.bs_dist[others], links.bs_los[others], cfg)
        total += float(np.sum(power * ld * g_bs * g_u) / (cfg.n_bs * cfg.n_u))

    ris = np.arange(n_ris)
    if serving_ris is not None:
        ris = np.delete(ris, serving_ris)
    if ris.size == 0:
        return total

    # rows: active BSs (the serving one included); columns: other reflectors
    active_bs = np.flatnonzero(bs_active)
    ris_pts = dep.ris_points[ris]
    vec = ris_pts[None, :, :] - dep.bs_points[active_bs, None, :]   # BS -> RIS
    nu_dep = spatial_frequency(_angles(vec), cfg)                    # at the BS
    nu_inc = spatial_frequency(_angles(-vec), cfg)                   # at the RIS
    legs = np.ix_(active_bs, ris)
    lg = path_loss(links.leg_dist[legs], links.leg_los[legs], cfg)
    incident = power * lg * fejer_kernel(nu_dep - beam_nu[active_bs, None], cfg.n_bs) / cfg.n_bs
    offset = spatial_frequency(_angles(-ris_pts), cfg) - nu_inc      # RIS toward user
    loaded = ris_active[ris]
    element = np.empty(offset.shape)
    if loaded.any():
        element[:, loaded] = fejer_kernel(
            offset[:, loaded] - profile_delta[ris[loaded]], cfg.n_ris
        )
    if not loaded.all():
        element[:, ~loaded] = _idle_element(rng, offset[:, ~loaded], cfg.n_ris)
    nu_at_user = spatial_frequency(_angles(ris_pts), cfg)            # user toward RIS
    g_u = fejer_kernel(nu_at_user - nu_u0, cfg.n_u) / cfg.n_u
    lu = path_loss(links.ris_dist[ris], links.ris_los[ris], cfg)
    return total + float(np.sum(lu * g_u * np.sum(incident * element, axis=0)))


def _realize(
    dep: Deployment,
    cfg: NetworkConfig,
    rng: np.random.Generator,
    draw_serving_gains: bool,
    bernoulli_activity: bool,
) -> SinrSample:
    if dep.bs_points.shape[0] == 0:
        raise ValueError("deployment has no base stations")
    links = _link_states(dep, cfg, rng)
    serving_bs, serving_ris = _associate(dep, cfg, links)
    bs_active, ris_active = _activity(dep, cfg, rng, serving_bs, serving_ris, bernoulli_activity)
    signal, nu_bs0, nu_u0 = _signal(dep, cfg, links, serving_bs, serving_ris, draw_serving_gains)
    interference = _interference(
        dep, cfg, rng, links, serving_bs, serving_ris, bs_active, ris_active, nu_bs0, nu_u0
    )
    noise = cfg.noise_power_watt
    sinr = signal / (interference + noise)

    rho = LinkKind.LOS if links.bs_los[serving_bs] else LinkKind.NLOS
    xi = leg = None
    if serving_ris is not None:
        xi = LinkKind.LOS if links.ris_los[serving_ris] else LinkKind.NLOS
        leg = LinkKind.LOS if links.leg_los[serving_bs, serving_ris] else LinkKind.NLOS
    case = AssociationCase(rho, xi)
    return SinrSample(float(sinr), case, float(signal), float(interference), noise, leg)


def realize_sinr(
    dep: Deployment,
    cfg: NetworkConfig,
    seed: int = 0,
    draw_serving_gains: bool = False,
    bernoulli_activity: bool = False,
) -> SinrSample:
    """Realize link states, beams and activity on a fixed deployment."""
    return _realize(dep, cfg, _rng(seed, _REALIZE_KEY), draw_serving_gains, bernoulli_activity)


_STATE_CODE = {LinkKind.LOS: 0, LinkKind.NLOS: 1, None: -1}
_CODE_STATE = {0: LinkKind.LOS, 1: LinkKind.NLOS}


def sinr_samples(
    cfg: NetworkConfig,
    trials: int,
    radius: float | None = None,
    seed: int = 0,
    geometric_blockage: bool = False,
    draw_serving_gains: bool = False,
    bernoulli_activity: bool = False,
) -> SinrBatch:
    """Independent SINR draws; trial t uses the (seed, t) counter stream.

    Trials with an empty BS draw count as outage (sinr 0, NLOS direct case);
    the batch's `empty_trials` says how many.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if radius is None:
        radius = default_radius(cfg)
    sinr = np.zeros(trials)
    codes = np.zeros((trials, 3), dtype=np.int8)
    empty = 0
    for t in range(trials):
        rng = _rng(seed, (t,))
        dep = _sample(cfg, radius, rng, geometric_blockage)
        if dep.bs_points.shape[0] == 0:
            codes[t] = (1, -1, -1)
            empty += 1
            continue
        sample = _realize(dep, cfg, rng, draw_serving_gains, bernoulli_activity)
        sinr[t] = sample.sinr
        codes[t, 0] = _STATE_CODE[sample.serving_case.bs_state]
        codes[t, 1] = _STATE_CODE[sample.serving_case.ris_state]
        codes[t, 2] = _STATE_CODE[sample.bs_ris_state]
    return SinrBatch(sinr, codes[:, 0], codes[:, 1], codes[:, 2], radius, seed, empty)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def empirical_coverage(
    threshold: float,
    cfg: NetworkConfig,
    trials: int,
    radius: float | None = None,
    seed: int = 0,
    samples: SinrBatch | None = None,
    **modes,
) -> CoverageResult:
    """Fraction of realizations with SINR at or above the threshold.

    Pass a precomputed ``samples`` batch to evaluate several thresholds on
    the same draws; its trials/radius/seed then take precedence.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if samples is None:
        samples = sinr_samples(cfg, trials, radius, seed, **modes)
    n = samples.sinr.size
    covered = samples.sinr >= threshold
    by_case = {}
    for rho_code, rho in _CODE_STATE.items():
        for xi_code in (0, 1, -1):
            case = AssociationCase(rho, _CODE_STATE.get(xi_code))
            mask = (samples.bs_state == rho_code) & (samples.ris_state == xi_code)
            by_case[case] = float(np.sum(covered & mask)) / n
    low, high = wilson_interval(int(covered.sum()), n)
    meta = {
        "trials": n,
        "covered": int(covered.sum()),
        "ci_low": low,
        "ci_high": high,
        "radius": samples.radius,
        "seed": samples.seed,
    }
    return CoverageResult(float(covered.mean()), by_case, "montecarlo", meta)


def association_frequencies(
    cfg: NetworkConfig,
    trials: int,
    radius: float | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Empirical association-case frequencies over independent deployments.

    Keys: serving direct-link state (d_los, d_nlos), serving reflector state
    (u_los, u_nlos, no_ris) and the full reflected path state (g_los, g_nlos),
    where g_los needs both reflected legs unblocked. Trial t draws the same
    link states as trial t of ``sinr_samples`` without geometric blockage,
    so the two agree on every association code.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if radius is None:
        radius = default_radius(cfg)
    counts = {key: 0 for key in ("d_los", "u_los", "u_nlos", "g_los")}
    done = 0
    for t in range(trials):
        rng = _rng(seed, (t,))
        dep = _sample(cfg, radius, rng, geometric_blockage=False)
        if dep.bs_points.shape[0] == 0:
            continue
        links = _link_states(dep, cfg, rng)
        serving_bs, serving_ris = _associate(dep, cfg, links)
        done += 1
        counts["d_los"] += bool(links.bs_los[serving_bs])
        if serving_ris is None:
            continue
        ris_is_los = bool(links.ris_los[serving_ris])
        counts["u_los" if ris_is_los else "u_nlos"] += 1
        counts["g_los"] += ris_is_los and bool(links.leg_los[serving_bs, serving_ris])
    if done == 0:
        raise ValueError("no deployment contained a base station")
    freq = {key: val / done for key, val in counts.items()}
    freq["d_nlos"] = 1.0 - freq["d_los"]
    freq["no_ris"] = 1.0 - freq["u_los"] - freq["u_nlos"]
    freq["g_nlos"] = 1.0 - freq["g_los"]
    freq["trials"] = float(done)
    return freq
