"""The three benchmark workloads: inputs drawn from the seed, warm-up, one op
and the output checks run on every op.

Importing this module imports riscov, so the caller times the import as part
of set-up. Every workload is a closed loop with one caller: the next op starts
when the previous one returns.
"""

from __future__ import annotations

import functools
import json
import math
import random
from pathlib import Path

from riscov import NetworkConfig, analytics, montecarlo, sweeps

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# analytic values must match the reference this closely; it is the tolerance
# the test suite pins default coverage to, far below what a changed kernel moves
ANALYTIC_TOL = 1e-6
# by_case is the total split into parts, so only rounding may separate them
SUM_TOL = 1e-9

# density-sweep bases: beta is moved off its default by 0.5 % steps (at most
# 6 %), a field the tradeoff grid never touches, so every grid configuration
# is new to every cache; each step has its own reference table
DENSITY_KIND = "ris-density-tradeoff"
DENSITY_METRICS = ("p1", "p_t", "ee")
BETA_STEPS = tuple(k for k in range(-12, 13) if k != 0)
MC_THRESHOLDS_DB = (-5.0, 0.0, 5.0, 10.0)
MC_BLOCK_TRIALS = 100
# a block's coverage may sit this many standard errors from the reference;
# the pooled run gets the tighter z, each block of 100 trials the looser one
MC_Z_POOLED = 5.0
MC_Z_BLOCK = 6.0


@functools.cache
def reference() -> dict:
    """Values recorded by make_reference.py; see README.md for when they may change."""
    return json.loads(REFERENCE_FILE.read_text())


def beta_for(step: int) -> float:
    return NetworkConfig().beta * (1.0 + 0.005 * step)


def _db(value: float) -> float:
    return 10.0 ** (value / 10.0)


def _coverage_problems(label: str, result) -> list[str]:
    problems = []
    if not (math.isfinite(result.total) and 0.0 <= result.total <= 1.0):
        problems.append(f"{label}: coverage {result.total!r} outside [0, 1]")
    parts = sum(result.by_case.values())
    if not abs(parts - result.total) <= SUM_TOL:
        problems.append(f"{label}: by_case sums to {parts!r}, total is {result.total!r}")
    return problems


def analytic_warm_up() -> None:
    """One default 0 dB point. It builds the evaluator threshold-sweep ops
    use and fills the lazy tables (quadrature nodes, average gains); no
    density-sweep op asks for the default configuration."""
    result = analytics.coverage_probability(1.0, NetworkConfig())
    ref = reference()["threshold-sweep"]["0"]
    if abs(result.total - ref) > ANALYTIC_TOL:
        raise RuntimeError(f"warm-up 0 dB coverage {result.total!r}, reference {ref!r}")


class ThresholdSweep:
    """Default config, one coverage point per op, thresholds in seeded order."""

    name = "threshold-sweep"
    points_per_op = 1
    trials_per_op = 0
    replayable = True
    warm_up = staticmethod(analytic_warm_up)

    def __init__(self, seed: int):
        self.cfg = NetworkConfig()
        order = list(sweeps.THRESHOLD_GRID_DB)
        random.Random(seed).shuffle(order)
        self.order = order
        self.done: dict[int, float] = {}

    def inputs(self):
        # cycle through the shuffled grid; evaluate() keeps no cache, so a
        # repeated threshold costs the same as the first time
        while True:
            yield from self.order

    def run(self, db: int):
        return analytics.coverage_probability(_db(db), self.cfg)

    def check(self, db: int, result) -> list[str]:
        problems = _coverage_problems(f"{db:+d} dB", result)
        ref = reference()[self.name][str(db)]
        if not abs(result.total - ref) <= ANALYTIC_TOL:
            problems.append(f"{db:+d} dB: coverage {result.total!r}, reference {ref!r}")
        self.done[db] = result.total
        return problems

    def finish(self) -> list[str]:
        values = [self.done[db] for db in sorted(self.done)]
        if any(b > a for a, b in zip(values, values[1:])):
            return ["coverage increases somewhere along the threshold grid"]
        return []

    def layer_counts(self) -> dict:
        return {}


class DensitySweep:
    """One cold ris-density-tradeoff sweep per op on a seeded beta step."""

    name = "density-sweep"
    trials_per_op = 0
    replayable = False
    warm_up = staticmethod(analytic_warm_up)

    def __init__(self, seed: int):
        self.steps = random.Random(seed).sample(BETA_STEPS, len(BETA_STEPS))
        self.grid = [(m, float(10 * i)) for m in DENSITY_METRICS for i in sweeps.TRADEOFF_STEPS]
        self.points_per_op = len(self.grid)
        self.tables: dict[int, tuple[int, int]] = {}  # step -> (rows, errors)

    def inputs(self):
        # each step once: a second pass would find its configs cached
        return iter(self.steps)

    def run(self, step: int):
        base = NetworkConfig(beta=beta_for(step))
        return sweeps.run_sweep(DENSITY_KIND, base, metrics=DENSITY_METRICS, workers=1)

    def check(self, step: int, table) -> list[str]:
        self.tables[step] = (len(table.rows), len(table.errors))
        problems = [f"step {step}: sweep error: {e}" for e in table.errors]
        got = {(r.metric, r.sweep_value): r.value for r in table.rows}
        if len(table.rows) != len(self.grid) or set(got) != set(self.grid):
            problems.append(f"step {step}: table has {len(table.rows)} rows, "
                            f"expected the {len(self.grid)}-point grid")
        ref = reference()[self.name][str(step)]
        for metric, value in self.grid:
            v = got.get((metric, value), math.nan)
            expected = ref[metric][int(value) // 10 - 1]
            if metric == "ee":
                ok = math.isfinite(v) and v > 0.0 and abs(v - expected) <= ANALYTIC_TOL * expected
            else:
                ok = 0.0 <= v <= 1.0 and abs(v - expected) <= ANALYTIC_TOL
            if not ok:
                problems.append(f"step {step}: {metric} at {value:g} is {v!r}, "
                                f"reference {expected!r}")
        return problems

    def finish(self) -> list[str]:
        return []

    def layer_counts(self) -> dict:
        n = len(self.tables) or 1
        return {"sweeps.rows": sum(r for r, _ in self.tables.values()) / n,
                "sweeps.errors": sum(e for _, e in self.tables.values()) / n}


def mc_warm_up() -> None:
    montecarlo.sinr_samples(NetworkConfig(), 10, seed=2**40)


class McCoverage:
    """One Monte Carlo block per op: sinr_samples, then four thresholds."""

    name = "mc-coverage"
    points_per_op = len(MC_THRESHOLDS_DB)
    trials_per_op = MC_BLOCK_TRIALS
    replayable = True
    warm_up = staticmethod(mc_warm_up)

    def __init__(self, seed: int):
        self.cfg = NetworkConfig()
        self.rng = random.Random(seed)
        # block seed -> (covered per threshold, empty-BS trials, no-RIS trials);
        # keyed so that a replayed block is pooled once
        self.blocks: dict[int, tuple[list[int], int, int]] = {}

    def inputs(self):
        while True:
            yield self.rng.randrange(2**31)

    def run(self, block_seed: int):
        batch = montecarlo.sinr_samples(self.cfg, MC_BLOCK_TRIALS, seed=block_seed)
        covs = [
            montecarlo.empirical_coverage(_db(db), self.cfg, MC_BLOCK_TRIALS, samples=batch)
            for db in MC_THRESHOLDS_DB
        ]
        return batch, covs

    def check(self, block_seed: int, output) -> list[str]:
        batch, covs = output
        problems = []
        for db, cov in zip(MC_THRESHOLDS_DB, covs):
            problems += _coverage_problems(f"block {block_seed} {db:+g} dB", cov)
            if cov.meta["trials"] != MC_BLOCK_TRIALS:
                problems.append(f"block {block_seed}: {cov.meta['trials']} trials")
        totals = [c.total for c in covs]
        if any(b > a for a, b in zip(totals, totals[1:])):
            problems.append(f"block {block_seed}: coverage increases with threshold {totals}")
        problems += _binomial_problems(f"block {block_seed}", totals, MC_BLOCK_TRIALS, MC_Z_BLOCK)
        # sinr_samples codes a trial with no BS as (NLOS, no RIS) with sinr 0
        empty = (batch.sinr == 0.0) & (batch.bs_state == 1) & (batch.ris_state == -1)
        self.blocks[block_seed] = ([c.meta["covered"] for c in covs], int(empty.sum()),
                                   int((batch.ris_state == -1).sum()))
        return problems

    def finish(self) -> list[str]:
        if not self.blocks:
            return []
        trials = len(self.blocks) * MC_BLOCK_TRIALS
        pooled = [sum(b[0][i] for b in self.blocks.values()) / trials
                  for i in range(len(MC_THRESHOLDS_DB))]
        return _binomial_problems("pooled", pooled, trials, MC_Z_POOLED)

    def layer_counts(self) -> dict:
        trials = len(self.blocks) * MC_BLOCK_TRIALS or 1
        return {"montecarlo.empty_bs_trials": sum(b[1] for b in self.blocks.values()),
                "montecarlo.no_ris_fraction": sum(b[2] for b in self.blocks.values()) / trials}


def _binomial_problems(label: str, totals, trials: int, z: float) -> list[str]:
    """Coverage fractions within z standard errors of the recorded reference;
    the reference's own sampling error is part of the allowance."""
    ref = reference()["mc-coverage"]
    problems = []
    for db, p in zip(MC_THRESHOLDS_DB, totals):
        p_ref = ref["coverage"][f"{db:+g}"]
        se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / trials + 1.0 / ref["trials"]))
        if abs(p - p_ref) > z * se:
            problems.append(f"{label} {db:+g} dB: coverage {p:.4f}, reference {p_ref:.4f} "
                            f"(allowed +-{z * se:.4f})")
    return problems


def evaluator_cache_info() -> tuple[int, int]:
    """(hits, misses) of the analytic evaluator cache, (0, 0) if it is gone."""
    info = getattr(getattr(analytics, "_get_evaluator", None), "cache_info", None)
    if info is None:
        return 0, 0
    return info().hits, info().misses


WORKLOADS = {w.name: w for w in (ThresholdSweep, DensitySweep, McCoverage)}
