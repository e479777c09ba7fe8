"""System-level Monte Carlo engine on sampled point processes.

Every quantity the analytic engine derives through Laplace functionals is
realized here directly: deployments are drawn as Poisson point processes,
link states per link, beams from the actual geometry, and cell activity from
the sampled users. The typical user sits at the disk center; interferers are
sampled out to the full radius so edge effects only bias against coverage.

The per-trial draw order is fixed (deployment, then link states, then
activity, then interfering beams and reflector phases), so identical seeds
reproduce identical samples and trials can be evaluated in any order. A
batch realizes its trials in blocks on flat arrays; each trial still draws
from its own stream, and no trial's values depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytics import CoverageResult
from .association import AssociationCase
from .beamforming import fejer_kernel, profile_gain, serving_gains, spatial_frequency
from .config import NetworkConfig
from .propagation import LinkKind, los_probability, path_loss

_TWO_PI = 2.0 * math.pi
_Z95 = 1.959963984540054  # two-sided 95% normal quantile

@dataclass(frozen=True, eq=False)
class Deployment:
    """One sampled realization of the network geometry."""

    bs_points: np.ndarray = field(repr=False)     # (n_bs, 2) [m]
    ris_points: np.ndarray = field(repr=False)    # (n_ris, 2) [m]
    ris_normals: np.ndarray = field(repr=False)   # (n_ris,) coated-face normal [rad]
    user_points: np.ndarray = field(repr=False)   # (n_user, 2) [m]
    radius: float                                 # simulation disk radius [m]

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        for name in ("bs_points", "ris_points", "user_points"):
            pts = getattr(self, name)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"{name} must be an (n, 2) array, got {pts.shape}")
            if not np.isfinite(pts).all():
                raise ValueError(f"{name} must be finite")
            if pts.size and np.hypot(pts[:, 0], pts[:, 1]).max() > self.radius * (1 + 1e-9):
                raise ValueError(f"{name} contains points outside the simulation disk")
        if self.ris_normals.shape != (self.ris_points.shape[0],):
            raise ValueError("ris_normals must hold one angle per RIS")
        if not np.isfinite(self.ris_normals).all():
            raise ValueError("ris_normals must be finite")


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


def _radius(cfg: NetworkConfig, radius: float | None) -> float:
    """``radius``, or the default radius for None; it must be positive and
    finite."""
    if radius is None:
        return default_radius(cfg)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    return radius


# stream keys under one seed: sample_deployment draws from the root key (),
# trial t of sinr_samples from (t,), and realize_sinr from a key no trial
# uses, so a deployment and its realization never share uniforms
_REALIZE_KEY = (0, 0)


def _rng(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    # counter-based: every (seed, key) pair owns an independent stream
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _disk_points(
    rng: np.random.Generator, count: int, radius: float, keep: bool = True
) -> np.ndarray:
    """``count`` uniform points in the disk; without ``keep`` the draws are
    made, so the stream moves on as usual, and no point is returned."""
    u = rng.random(count)
    ang = rng.uniform(0.0, _TWO_PI, count)
    if not keep:
        return np.empty((0, 2))
    r = radius * np.sqrt(u)
    return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


def _sample(
    cfg: NetworkConfig, radius: float, rng: np.random.Generator, keep_users: bool = True
) -> Deployment:
    """One deployment; without ``keep_users`` the other users are drawn but
    not kept, for passes that never read them."""
    area = math.pi * radius**2
    n_bs = rng.poisson(cfg.lambda_bs * area)
    n_ris = rng.poisson(cfg.lambda_ris * area)
    n_user = rng.poisson(cfg.lambda_u * area)
    bs = _disk_points(rng, n_bs, radius)
    ris = _disk_points(rng, n_ris, radius)
    normals = rng.uniform(0.0, _TWO_PI, n_ris)
    users = _disk_points(rng, n_user, radius, keep_users)
    return Deployment(bs, ris, normals, users, radius)


def sample_deployment(
    cfg: NetworkConfig, radius: float | None = None, seed: int = 0
) -> Deployment:
    """Draw one deployment; identical seeds give identical point sets."""
    return _sample(cfg, _radius(cfg, radius), _rng(seed))


# -- trials in blocks ---------------------------------------------------------
#
# A batch runs in two passes. The per-trial pass draws everything random from
# the trial's own generator, in a fixed order: the deployment, the link-state
# uniforms, the other users' activity, then the interfering beams and the
# loaded reflectors' profiles. It also does the work on per-trial matrices:
# the other users' association. The block pass then runs link states, the
# typical user's association, signal and interference once for a chunk of
# trials whose points are laid end to end.
# Its last stage hands each trial's generator back for the trial's last
# draws, the idle reflectors' phases, whose count the association sets.
# Every reduction is per trial (reduceat, bincount), so a trial's values do
# not depend on the trials that share its block.

# links (BS, reflector and BS-reflector ones) in one block of trials; a block
# closes once it holds this many, which bounds the block's arrays
_BLOCK_LINKS = 2**13


def _los_draw(rng: np.random.Generator, dist: np.ndarray, beta: float) -> np.ndarray:
    return rng.random(dist.shape) < los_probability(dist, beta)


def _angles(vec: np.ndarray) -> np.ndarray:
    return np.arctan2(vec[..., 1], vec[..., 0])


def _offsets(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y components of every vector b[j] -> a[i], each (len(a), len(b))."""
    return a[:, 0, None] - b[None, :, 0], a[:, 1, None] - b[None, :, 1]


def _faces(dx: np.ndarray, dy: np.ndarray, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Whether each offset (dx, dy) from a reflector with coated-face normal
    (nx, ny) lies on its coated side."""
    return dx * nx + dy * ny > 0.0


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each run of counts[k] entries, laid end to end, starts."""
    return np.cumsum(counts) - counts


def _first_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat index of the first largest entry in each run of ``values``, runs
    of counts[k] entries laid end to end; no run may be empty."""
    starts = _starts(counts)
    if counts.size and (counts == counts[0]).all():
        # equal runs, as every user's in one deployment, are the rows of a
        # matrix, and a row argmax is several times cheaper than the match
        return values.reshape(counts.size, -1).argmax(axis=1) + starts
    top = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == np.repeat(top, counts))
    return hits[np.searchsorted(hits, starts)]


def _serve(
    bs_gain: np.ndarray,
    bs_counts: np.ndarray,
    ris_gain: np.ndarray,
    ris_counts: np.ndarray,
    user_side: np.ndarray,
    serving_side,
) -> tuple[np.ndarray, np.ndarray]:
    """The association rule of every user, typical or not.

    User k has bs_counts[k] candidate BSs and ris_counts[k] reflectors, laid
    end to end user after user in ``bs_gain`` and ``ris_gain`` (path gains
    toward the user). It is served by its first BS of largest path gain,
    then by its strongest eligible reflector, judged on the user-side leg.
    A reflector is eligible when the user (``user_side``, flat like
    ``ris_gain``) and the serving BS both lie on its coated side;
    ``serving_side(serving)`` gives the latter for every reflector entry.
    Returns flat indices, -1 where no reflector is eligible.
    """
    serving = _first_max(bs_gain, bs_counts)
    served = np.full(bs_counts.size, -1)
    has = ris_counts > 0
    if not has.any():
        return serving, served
    metric = np.where(user_side & serving_side(serving), ris_gain, -np.inf)
    best = _first_max(metric, ris_counts[has])
    served[has] = np.where(metric[best] > -np.inf, best, -1)
    return serving, served


def _serve_users(
    dep: Deployment, gain_ub: np.ndarray, gain_ur: np.ndarray, dx: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Serving BS and reflector (-1 for none) of users whose path gains
    toward every BS and reflector are the rows of ``gain_ub`` and
    ``gain_ur``; (dx, dy) are the users' offsets from each reflector."""
    n_user, n_bs = gain_ub.shape
    n_ris = gain_ur.shape[1]
    nx, ny = np.cos(dep.ris_normals), np.sin(dep.ris_normals)
    bs_dx, bs_dy = _offsets(dep.bs_points, dep.ris_points)
    bs_side = _faces(bs_dx, bs_dy, nx, ny)    # (n_bs, n_ris)
    row = np.arange(n_user)
    serving, served = _serve(
        gain_ub.ravel(), np.full(n_user, n_bs), gain_ur.ravel(), np.full(n_user, n_ris),
        _faces(dx, dy, nx, ny).ravel(), lambda serving: bs_side[serving - row * n_bs].ravel(),
    )
    return serving - row * n_bs, np.where(served >= 0, served - row * n_ris, -1)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dx, dy = _offsets(a, b)
    return np.sqrt(dx * dx + dy * dy)


def _activity(
    dep: Deployment, cfg: NetworkConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """BSs and RISs loaded by the other users, from their own associations."""
    n_bs = dep.bs_points.shape[0]
    n_ris = dep.ris_points.shape[0]
    users = dep.user_points
    if users.shape[0] == 0:
        # the users' draws would be empty, so the stream is where it would be
        return np.zeros(n_bs, dtype=bool), np.zeros(n_ris, dtype=bool)
    # other users associate exactly like the typical one, on their own
    # link-state draws
    d_ub = _distances(users, dep.bs_points)
    dx, dy = _offsets(users, dep.ris_points)
    d_ur = np.sqrt(dx * dx + dy * dy)
    gain_ub = path_loss(d_ub, _los_draw(rng, d_ub, cfg.beta), cfg)
    gain_ur = path_loss(d_ur, _los_draw(rng, d_ur, cfg.beta), cfg)
    serving, served = _serve_users(dep, gain_ub, gain_ur, dx, dy)
    bs_busy = np.zeros(n_bs, dtype=bool)
    ris_busy = np.zeros(n_ris, dtype=bool)
    bs_busy[serving] = True
    ris_busy[served[served >= 0]] = True
    return bs_busy, ris_busy


@dataclass(frozen=True, eq=False)
class _Trial:
    """A trial after its per-trial pass; ``rng`` is left at the trial's last
    draws, the idle reflectors' phases."""

    dep: Deployment
    rng: np.random.Generator
    # link-state uniforms of the BS, reflector and BS-reflector links (legs
    # row-major)
    links: tuple[np.ndarray, np.ndarray, np.ndarray]
    # BSs and reflectors loaded by the other users
    bs_busy: np.ndarray | None = None
    ris_busy: np.ndarray | None = None
    # azimuths of the interfering beams, then the two angles each loaded
    # reflector's profile aligns to
    azimuths: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _split(values: np.ndarray, n_bs: int, n_ris: int) -> tuple[np.ndarray, ...]:
    """The BS, reflector and leg parts of per-link values."""
    return values[:n_bs], values[n_bs:n_bs + n_ris], values[n_bs + n_ris:]


def _trial(
    dep: Deployment,
    cfg: NetworkConfig,
    rng: np.random.Generator,
    links_only: bool = False,
) -> _Trial:
    """The per-trial pass; ``links_only`` stops after the link states."""
    n_bs, n_ris = dep.bs_points.shape[0], dep.ris_points.shape[0]
    links = _split(rng.random(n_bs + n_ris + n_bs * n_ris), n_bs, n_ris)
    if links_only:
        return _Trial(dep, rng, links)
    bs_busy, ris_busy = _activity(dep, cfg, rng)
    azimuths = _split(rng.uniform(0.0, _TWO_PI, n_bs + 2 * n_ris), n_bs, n_ris)
    return _Trial(dep, rng, links, bs_busy, ris_busy, azimuths)


class _Block:
    """A chunk of trials laid end to end: every trial's BSs, reflectors and
    BS-reflector legs (row-major per trial), with their link states and
    path gains. Indices into these flat arrays are called global."""

    def __init__(self, trials: list[_Trial], cfg: NetworkConfig):
        self.trials = trials
        self.size = len(trials)
        deps = [t.dep for t in trials]
        self.n_bs = n_bs = np.array([d.bs_points.shape[0] for d in deps])
        self.n_ris = n_ris = np.array([d.ris_points.shape[0] for d in deps])
        n_leg = n_bs * n_ris
        self.bs_start, self.ris_start, self.leg_start = (
            _starts(n_bs), _starts(n_ris), _starts(n_leg)
        )
        trial = np.arange(self.size)
        self.bs_trial = np.repeat(trial, n_bs)
        self.ris_trial = np.repeat(trial, n_ris)
        self.leg_trial = np.repeat(trial, n_leg)
        row, col = np.divmod(
            np.arange(n_leg.sum()) - self.leg_start[self.leg_trial], n_ris[self.leg_trial]
        )
        self.leg_bs = self.bs_start[self.leg_trial] + row
        self.leg_ris = self.ris_start[self.leg_trial] + col

        self.bs = np.concatenate([d.bs_points for d in deps])
        self.ris = np.concatenate([d.ris_points for d in deps])
        normals = np.concatenate([d.ris_normals for d in deps])
        self.nx, self.ny = np.cos(normals), np.sin(normals)
        # offsets of each leg's BS from its reflector
        self.leg_dx = self.bs[self.leg_bs, 0] - self.ris[self.leg_ris, 0]
        self.leg_dy = self.bs[self.leg_bs, 1] - self.ris[self.leg_ris, 1]
        leg_dist = np.hypot(self.leg_dx, self.leg_dy)
        bs_dist = np.hypot(self.bs[:, 0], self.bs[:, 1])
        ris_dist = np.hypot(self.ris[:, 0], self.ris[:, 1])
        bs_draw, ris_draw, leg_draw = (np.concatenate(d) for d in zip(*(t.links for t in trials)))
        self.bs_los = bs_draw < los_probability(bs_dist, cfg.beta)
        self.ris_los = ris_draw < los_probability(ris_dist, cfg.beta)
        self.leg_los = leg_draw < los_probability(leg_dist, cfg.beta)
        self.bs_gain = path_loss(bs_dist, self.bs_los, cfg)
        self.ris_gain = path_loss(ris_dist, self.ris_los, cfg)
        self.leg_gain = path_loss(leg_dist, self.leg_los, cfg)

    def leg(self, bs: np.ndarray, ris: np.ndarray) -> np.ndarray:
        """Global index of the leg between a global BS and reflector of the
        same trial."""
        trial = self.bs_trial[bs]
        return (self.leg_start[trial] + (bs - self.bs_start[trial]) * self.n_ris[trial]
                + ris - self.ris_start[trial])


def _associate(block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Global serving BS and reflector (-1 for none) of each trial's typical
    user, which sits at the origin."""
    leg_side = _faces(block.leg_dx, block.leg_dy, block.nx[block.leg_ris], block.ny[block.leg_ris])
    return _serve(
        block.bs_gain, block.n_bs, block.ris_gain, block.n_ris,
        _faces(-block.ris[:, 0], -block.ris[:, 1], block.nx, block.ny),
        # each trial's legs from its serving BS, one per reflector in order
        lambda serving: leg_side[block.leg_bs == serving[block.leg_trial]],
    )


def _signal(
    block: _Block,
    cfg: NetworkConfig,
    serving: np.ndarray,
    served: np.ndarray,
    draw_serving_gains: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Received signal power [W] of each trial's typical user, and the
    spatial frequencies its serving BS and the user aim their beams at."""
    power = cfg.p_bs_watt
    bs0 = block.bs[serving]
    ld0 = block.bs_gain[serving]
    nu_d = spatial_frequency(_angles(-bs0), cfg)     # BS toward user
    nu_ud = spatial_frequency(_angles(bs0), cfg)     # user toward BS
    # without a serving reflector the beams can only aim at the direct path
    signal = power * ld0 * cfg.n_bs * cfg.n_u
    nu_bs0, nu_u0 = nu_d.copy(), nu_ud.copy()
    via = served >= 0
    if not via.any():
        return signal, nu_bs0, nu_u0

    ris = served[via]
    ris0 = block.ris[ris]
    lu0 = block.ris_gain[ris]
    lg0 = block.leg_gain[block.leg(serving[via], ris)]
    gain_direct, gain_reflected = serving_gains(cfg)
    nu_d, nu_ud = nu_d[via], nu_ud[via]
    nu_g = spatial_frequency(_angles(ris0 - bs0[via]), cfg)    # BS toward RIS
    nu_ur = spatial_frequency(_angles(ris0), cfg)              # user toward RIS
    if cfg.antenna_scheme == "scheme1":
        nu_bs0[via], nu_u0[via] = nu_g, nu_ur
        if draw_serving_gains:
            gain_direct = (
                fejer_kernel(nu_d - nu_g, cfg.n_bs)
                * fejer_kernel(nu_ud - nu_ur, cfg.n_u)
                / (cfg.n_bs * cfg.n_u)
            )
    elif draw_serving_gains:
        gain_reflected = (
            fejer_kernel(nu_g - nu_d, cfg.n_bs) / cfg.n_bs
            * fejer_kernel(nu_ur - nu_ud, cfg.n_u) / cfg.n_u
            * cfg.n_ris**2
        )
    amp = np.sqrt(power * ld0[via] * gain_direct) + np.sqrt(power * lg0 * lu0 * gain_reflected)
    signal[via] = amp**2
    return signal, nu_bs0, nu_u0


def _idle_element(block: _Block, offset: np.ndarray, ris: np.ndarray, n_ris: int) -> np.ndarray:
    """Element gain at the offset x of each leg into an idle reflector
    (global index ``ris``), with one uniform phase profile psi per idle
    reflector. Each trial draws its idle reflectors' profiles in reflector
    order, as its last draws."""
    idle = np.zeros(block.ris.shape[0], dtype=bool)
    idle[ris] = True
    counts = np.bincount(block.ris_trial[idle], minlength=block.size)
    psi = np.concatenate([
        t.rng.uniform(0.0, _TWO_PI, (count, n_ris)) for t, count in zip(block.trials, counts)
    ])
    return profile_gain(offset, np.exp(-1j * psi), (np.cumsum(idle) - 1)[ris])


def _interference(
    block: _Block,
    cfg: NetworkConfig,
    serving: np.ndarray,
    served: np.ndarray,
    bs_active: np.ndarray,
    ris_active: np.ndarray,
    nu_bs0: np.ndarray,
    nu_u0: np.ndarray,
) -> np.ndarray:
    """Power [W] each trial's typical user receives from every other active
    BS, and from every other reflector through the legs of every active BS."""
    power = cfg.p_bs_watt
    beam, prof_u, prof_g = (np.concatenate(a) for a in zip(*(t.azimuths for t in block.trials)))
    # interfering beams target their own scheduled users; under the point
    # process those azimuths are uniform, so they are drawn directly
    beam_nu = spatial_frequency(beam, cfg)
    beam_nu[serving] = nu_bs0
    # phase profiles of loaded reflectors align to their own served pair
    profile_delta = spatial_frequency(prof_u, cfg) - spatial_frequency(prof_g, cfg)

    others = bs_active.copy()
    others[serving] = False
    bs = np.flatnonzero(others)
    bs_pts = block.bs[bs]
    g_bs = fejer_kernel(spatial_frequency(_angles(-bs_pts), cfg) - beam_nu[bs], cfg.n_bs)
    nu_at_user = spatial_frequency(_angles(bs_pts), cfg)
    g_u = fejer_kernel(nu_at_user - nu_u0[block.bs_trial[bs]], cfg.n_u)
    direct = power * block.bs_gain[bs] * g_bs * g_u
    total = np.bincount(block.bs_trial[bs], direct, block.size) / (cfg.n_bs * cfg.n_u)

    # legs from every active BS, the serving one included, into every other
    # reflector
    legs = np.flatnonzero(bs_active[block.leg_bs] & (block.leg_ris != served[block.leg_trial]))
    if legs.size == 0:
        return total
    leg_bs, leg_ris = block.leg_bs[legs], block.leg_ris[legs]
    dx, dy = block.leg_dx[legs], block.leg_dy[legs]                # RIS -> BS
    nu_dep = spatial_frequency(np.arctan2(-dy, -dx), cfg)          # at the BS
    nu_inc = spatial_frequency(np.arctan2(dy, dx), cfg)            # at the RIS
    incident = (power * block.leg_gain[legs]
                * fejer_kernel(nu_dep - beam_nu[leg_bs], cfg.n_bs) / cfg.n_bs)
    offset = spatial_frequency(_angles(-block.ris), cfg)[leg_ris] - nu_inc  # RIS toward user
    loaded = ris_active[leg_ris]
    element = np.empty(legs.size)
    element[loaded] = fejer_kernel(offset[loaded] - profile_delta[leg_ris[loaded]], cfg.n_ris)
    idle = ~loaded
    if idle.any():
        element[idle] = _idle_element(block, offset[idle], leg_ris[idle], cfg.n_ris)
    column = np.bincount(leg_ris, incident * element, block.ris.shape[0])
    nu_at_user = spatial_frequency(_angles(block.ris), cfg)        # user toward RIS
    g_u = fejer_kernel(nu_at_user - nu_u0[block.ris_trial], cfg.n_u) / cfg.n_u
    return total + np.bincount(block.ris_trial, block.ris_gain * g_u * column, block.size)


def _codes(block: _Block, serving: np.ndarray, served: np.ndarray) -> np.ndarray:
    """(trials, 3) int8 states of each typical user's serving BS link, its
    serving reflector link and that reflector's BS leg: 0 LOS, 1 NLOS, -1
    without a serving reflector."""
    codes = np.full((block.size, 3), -1, dtype=np.int8)
    codes[:, 0] = ~block.bs_los[serving]
    via = served >= 0
    ris = served[via]
    codes[via, 1] = ~block.ris_los[ris]
    codes[via, 2] = ~block.leg_los[block.leg(serving[via], ris)]
    return codes


def _realize(
    trials: list[_Trial], cfg: NetworkConfig, draw_serving_gains: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block pass: signal [W], interference [W] and state codes of each
    trial's typical user."""
    block = _Block(trials, cfg)
    serving, served = _associate(block)
    bs_active = np.concatenate([t.bs_busy for t in trials])
    ris_active = np.concatenate([t.ris_busy for t in trials])
    bs_active[serving] = True
    ris_active[served[served >= 0]] = True
    signal, nu_bs0, nu_u0 = _signal(block, cfg, serving, served, draw_serving_gains)
    interference = _interference(
        block, cfg, serving, served, bs_active, ris_active, nu_bs0, nu_u0
    )
    return signal, interference, _codes(block, serving, served)


def _blocks(
    cfg: NetworkConfig, trials: int, radius: float, seed: int, links_only: bool = False
):
    """The per-trial pass of trials 0 .. trials - 1, trial t on the (seed, t)
    stream, grouped into blocks of about _BLOCK_LINKS links. Yields each
    block's trial indices and trials; a trial whose disk holds no BS has
    nothing to realize and is left out."""
    index, block, links = [], [], 0
    for t in range(trials):
        rng = _rng(seed, (t,))
        dep = _sample(cfg, radius, rng, keep_users=not links_only)
        n_bs, n_ris = dep.bs_points.shape[0], dep.ris_points.shape[0]
        if n_bs == 0:
            continue
        index.append(t)
        block.append(_trial(dep, cfg, rng, links_only))
        links += n_bs * (1 + n_ris) + n_ris
        if links >= _BLOCK_LINKS:
            yield index, block
            index, block, links = [], [], 0
    if block:
        yield index, block


_CODE_STATE = {0: LinkKind.LOS, 1: LinkKind.NLOS}


def realize_sinr(
    dep: Deployment,
    cfg: NetworkConfig,
    seed: int = 0,
) -> SinrSample:
    """Realize link states, beams and activity on a fixed deployment."""
    if dep.bs_points.shape[0] == 0:
        raise ValueError("deployment has no base stations")
    trial = _trial(dep, cfg, _rng(seed, _REALIZE_KEY))
    signal, interference, codes = _realize([trial], cfg, False)
    noise = cfg.noise_power_watt
    rho, xi, leg = (_CODE_STATE.get(int(c)) for c in codes[0])
    return SinrSample(
        float(signal[0] / (interference[0] + noise)), AssociationCase(rho, xi),
        float(signal[0]), float(interference[0]), noise, leg,
    )


def sinr_samples(
    cfg: NetworkConfig,
    trials: int,
    radius: float | None = None,
    seed: int = 0,
    draw_serving_gains: bool = False,
) -> SinrBatch:
    """Independent SINR draws; trial t uses the (seed, t) counter stream.

    Trials with an empty BS draw count as outage (sinr 0, NLOS direct case);
    the batch's `empty_trials` says how many.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    radius = _radius(cfg, radius)
    sinr = np.zeros(trials)
    codes = np.tile(np.array([1, -1, -1], dtype=np.int8), (trials, 1))
    done = 0
    for index, block in _blocks(cfg, trials, radius, seed):
        signal, interference, block_codes = _realize(block, cfg, draw_serving_gains)
        sinr[index] = signal / (interference + cfg.noise_power_watt)
        codes[index] = block_codes
        done += len(index)
    return SinrBatch(sinr, codes[:, 0], codes[:, 1], codes[:, 2], radius, seed, trials - done)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95 %) for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p, z = successes / trials, _Z95
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
) -> CoverageResult:
    """Fraction of realizations with SINR at or above the threshold.

    Pass a precomputed ``samples`` batch to evaluate several thresholds on
    the same draws; its trials/radius/seed then take precedence.
    """
    # at a zero threshold a trial without a base station (SINR 0) would
    # count as covered; an infinite one is a threshold no SINR reaches
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if samples is None:
        samples = sinr_samples(cfg, trials, radius, seed)
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
        "empty_trials": samples.empty_trials,
    }
    return CoverageResult(float(covered.mean()), by_case, "montecarlo", meta)



def association_frequencies(
    cfg: NetworkConfig,
    trials: int,
    radius: float | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Empirical association-case frequencies over independent deployments.

    Keys: d_los, a LOS serving BS; the serving reflector's state (u_los,
    u_nlos, no_ris); and g_los, a serving reflected path with both legs
    unblocked. Trial t draws the same link states as trial t of
    ``sinr_samples``, so the two agree on every association code.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    radius = _radius(cfg, radius)
    counts = dict.fromkeys(("d_los", "u_los", "u_nlos", "g_los"), 0)
    done = 0
    for index, trial_block in _blocks(cfg, trials, radius, seed, links_only=True):
        block = _Block(trial_block, cfg)
        bs, ris, leg = _codes(block, *_associate(block)).T
        counts["d_los"] += int(np.sum(bs == 0))
        counts["u_los"] += int(np.sum(ris == 0))
        counts["u_nlos"] += int(np.sum(ris == 1))
        counts["g_los"] += int(np.sum((ris == 0) & (leg == 0)))
        done += len(index)
    if done == 0:
        raise ValueError("no deployment contained a base station")
    freq = {key: val / done for key, val in counts.items()}
    freq["no_ris"] = 1.0 - freq["u_los"] - freq["u_nlos"]
    freq["trials"] = float(done)
    return freq
