"""Parameter sweeps, machine-readable result tables and cross-engine checks.

A sweep walks one axis of the model (SINR threshold, node densities, array
size), evaluates the requested metrics on each grid point with the requested
engines, and collects everything into a flat table that serializes to CSV or
JSON lines. `validate` runs the built-in cross-engine tolerance checks and
produces a deterministic pass/fail report.

Metrics: p1 (coverage, reflect-assisted scheme), p2 (same with the alternate
beam scheme), p_d (direct-link signal only), p_t (no reflectors deployed),
ase (area spectral efficiency) and ee (energy efficiency).
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from . import montecarlo
from .analytics import (
    QuadratureSpec,
    active_prob_bs,
    coverage_direct,
    coverage_probability,
    coverage_small_beta,
    energy_efficiency,
)
from .association import assoc_prob_bs, assoc_prob_ris, assoc_prob_via_ris
from .config import NetworkConfig
from .propagation import LinkKind

# reference density: one node per disk of radius 500 m, the unit all density
# grids are quoted in
UNIT_DENSITY = 1.0 / (math.pi * 500.0**2)

THRESHOLD_GRID_DB = tuple(range(-10, 31, 2))
BS_DENSITY_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
RIS_DENSITY_GRID = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
TRADEOFF_STEPS = tuple(range(1, 10))  # lambda_ris = 10i, lambda_bs = 10 - i
RIS_SIZE_GRID = (32, 64, 128, 256)

SWEEP_KINDS = (
    "sinr-threshold",
    "bs-density",
    "ris-density-fixed-bs",
    "ris-density-tradeoff",
    "ris-size",
)
ENGINES = ("analytic", "montecarlo")
METRICS = ("p1", "p2", "p_d", "p_t", "ase", "ee")

_DEFAULT_METRICS = {
    "sinr-threshold": ("p1", "p2", "p_d", "p_t"),
    "bs-density": ("p1", "p_t", "ase", "ee"),
    "ris-density-fixed-bs": ("p1", "ase", "ee"),
    "ris-density-tradeoff": ("p1", "p_t", "ase", "ee"),
    "ris-size": ("p1", "p2"),
}
# coverage metrics the sampling engine can realize; p_d needs the reflected
# amplitude removed from an otherwise unchanged system, which only the
# analytic engine expresses, and ase/ee are density-weighted combinations of
# analytic coverage terms
_MC_METRICS = ("p1", "p2", "p_t")

_CSV_FIELDS = ("sweep_param", "sweep_value", "metric", "engine", "value", "ci_low", "ci_high")


@dataclass(frozen=True)
class SweepRow:
    sweep_param: str
    sweep_value: float
    metric: str
    engine: str
    value: float
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass
class SweepTable:
    """Sorted sweep results plus any per-row evaluation failures.

    Failed evaluations keep their row (value NaN) so the grid stays complete;
    the matching message lands in `errors`.
    """

    rows: list[SweepRow] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def finalize(self) -> "SweepTable":
        self.rows.sort(key=lambda r: (r.metric, r.engine, r.sweep_value))
        keys = [(r.sweep_param, r.sweep_value, r.metric, r.engine) for r in self.rows]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate sweep rows for one (param, value, metric, engine) key")
        return self

    def to_csv(self) -> str:
        lines = [",".join(_CSV_FIELDS)]
        for r in self.rows:
            lines.append(",".join(_cell(getattr(r, name)) for name in _CSV_FIELDS))
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for r in self.rows:
            record = asdict(r)
            record["value"] = None if math.isnan(r.value) else r.value
            lines.append(json.dumps(record))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> list[Path]:
        """Write CSV and/or JSON lines depending on the path suffix.

        A `.csv` or `.jsonl` suffix selects that single format; any other
        path is treated as a stem and both files are written next to it.
        """
        path = Path(path)
        if path.suffix == ".csv":
            targets = [(path, self.to_csv())]
        elif path.suffix == ".jsonl":
            targets = [(path, self.to_jsonl())]
        else:
            targets = [
                (path.with_suffix(".csv"), self.to_csv()),
                (path.with_suffix(".jsonl"), self.to_jsonl()),
            ]
        for target, text in targets:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8", newline="\n")
        return [t for t, _ in targets]


def _cell(value) -> str:
    if value is None:
        return ""
    # repr gives the shortest round-trip form, stable across runs
    return value if isinstance(value, str) else repr(float(value))


# -- sweep grids -------------------------------------------------------------


def _sweep_points(kind: str, cfg: NetworkConfig, threshold: float):
    """(param_name, sweep_value, point_cfg, threshold) per grid point."""
    if kind == "sinr-threshold":
        return [
            ("threshold_db", float(db), cfg, 10.0 ** (db / 10.0))
            for db in THRESHOLD_GRID_DB
        ]
    if kind == "bs-density":
        return [
            ("lambda_bs_multiple", m, cfg.replace(lambda_bs=m * UNIT_DENSITY), threshold)
            for m in BS_DENSITY_GRID
        ]
    if kind == "ris-density-fixed-bs":
        return [
            ("lambda_ris_multiple", m, cfg.replace(lambda_ris=m * UNIT_DENSITY), threshold)
            for m in RIS_DENSITY_GRID
        ]
    if kind == "ris-density-tradeoff":
        # coupled rule: ten reflectors bought per base station given up
        return [
            (
                "lambda_ris_multiple",
                float(10 * i),
                cfg.replace(
                    lambda_ris=10.0 * i * UNIT_DENSITY,
                    lambda_bs=(10.0 - i) * UNIT_DENSITY,
                ),
                threshold,
            )
            for i in TRADEOFF_STEPS
        ]
    if kind == "ris-size":
        return [
            ("n_ris", float(n), cfg.replace(n_ris=n), threshold)
            for n in RIS_SIZE_GRID
        ]
    raise ValueError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")


def metric_config(metric: str, point_cfg: NetworkConfig) -> NetworkConfig:
    """The configuration a metric is evaluated on at one sweep point."""
    if metric == "p2":
        return point_cfg.replace(antenna_scheme="scheme2")
    if metric == "p_t":
        return point_cfg.replace(lambda_ris=0.0)
    return point_cfg


def _point_coverage(threshold: float, quad: QuadratureSpec):
    """coverage(cfg, direct_signal) -> total at one sweep point's threshold,
    each (configuration, signal) pair evaluated once."""
    memo: dict[tuple[NetworkConfig, bool], float] = {}

    def coverage(cfg: NetworkConfig, direct_signal: bool) -> float:
        key = (cfg, direct_signal)
        if key not in memo:
            evaluate = coverage_direct if direct_signal else coverage_probability
            memo[key] = evaluate(threshold, cfg, quad).total
        return memo[key]

    return coverage


def _analytic_value(metric: str, threshold: float, point_cfg: NetworkConfig,
                    quad: QuadratureSpec, coverage) -> float:
    cfg = metric_config(metric, point_cfg)
    if metric in ("p1", "p2", "p_t"):
        return coverage(cfg, False)
    if metric == "p_d":
        return coverage(cfg, True)
    if metric in ("ase", "ee"):
        res = energy_efficiency(threshold, cfg, quad, coverage=partial(coverage, cfg))
        return res.ase if metric == "ase" else res.ee
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


# -- sweep driver ------------------------------------------------------------


def run_sweep(
    kind: str,
    cfg: NetworkConfig,
    engines=("analytic",),
    output: str | Path | None = None,
    metrics=None,
    threshold_db: float = 0.0,
    trials: int = 2000,
    seed: int = 0,
    quad: QuadratureSpec = QuadratureSpec(),
    workers: int = 1,
) -> SweepTable:
    """Evaluate one sweep and optionally write it to `output`.

    Density and size sweeps hold the threshold fixed at `threshold_db`; the
    sampling engine draws `trials` deployments per grid point (one shared
    batch across all thresholds of a sinr-threshold sweep) and reports Wilson
    intervals. The grid is walked point by point, each point's metrics and
    engines in turn (failed rows enter `errors` in that order, after any
    analytic-only notes). Within a point each (configuration, signal)
    coverage is evaluated once, so p1, ase and ee share one evaluate. A point
    uses at most four evaluators: its own configuration's, p2's, and their
    reflector-free twins, which also hold the base-station side of the
    first two (p_t's is the first twin); the 8-entry evaluator cache keeps
    them for the point's later metrics. Points go to a worker pool when
    `workers` > 1, and an evaluator still being built by one worker is
    waited for, not built again; the table is ordered deterministically
    regardless.
    """
    requested = tuple(dict.fromkeys(engines))
    unknown = [e for e in requested if e not in ENGINES]
    if not requested or unknown:
        raise ValueError(f"engines must be a non-empty subset of {ENGINES}, got {engines!r}")
    points = _sweep_points(kind, cfg, 10.0 ** (threshold_db / 10.0))
    metrics = _DEFAULT_METRICS[kind] if metrics is None else tuple(metrics)
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; expected one of {METRICS}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    table = SweepTable()

    batches: dict[NetworkConfig, montecarlo.SinrBatch] = {}
    if "montecarlo" in requested:
        # sample each distinct configuration once, up front and serially, so
        # threshold evaluations stay cheap and thread-safe
        for metric in metrics:
            if metric not in _MC_METRICS:
                table.errors.append(
                    f"metric {metric} is analytic-only; no montecarlo rows emitted"
                )
                continue
            for _, _, point_cfg, _ in points:
                mc_cfg = metric_config(metric, point_cfg)
                if mc_cfg not in batches:
                    batches[mc_cfg] = montecarlo.sinr_samples(
                        mc_cfg, trials, seed=seed
                    )

    def run_task(metric, engine, param, value, point_cfg, threshold, coverage):
        try:
            if engine == "analytic":
                res = _analytic_value(metric, threshold, point_cfg, quad, coverage)
                return SweepRow(param, value, metric, engine, res), None
            mc_cfg = metric_config(metric, point_cfg)
            cov = montecarlo.empirical_coverage(
                threshold, mc_cfg, trials, seed=seed, samples=batches[mc_cfg]
            )
            return (
                SweepRow(param, value, metric, engine, cov.total,
                         cov.meta["ci_low"], cov.meta["ci_high"]),
                None,
            )
        except Exception as exc:  # annotate and keep sweeping
            row = SweepRow(param, value, metric, engine, float("nan"))
            return row, f"{metric}/{engine} at {param}={value:g}: {exc}"

    def run_point(point):
        param, value, point_cfg, threshold = point
        coverage = _point_coverage(threshold, quad)
        return [
            run_task(metric, engine, param, value, point_cfg, threshold, coverage)
            for metric in metrics
            for engine in requested
            if engine == "analytic" or metric in _MC_METRICS
        ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(run_point, points))
    else:
        per_point = [run_point(p) for p in points]
    for row, err in itertools.chain.from_iterable(per_point):
        table.rows.append(row)
        if err is not None:
            table.errors.append(err)

    table.finalize()
    if output is not None:
        table.write(output)
    return table


# -- cross-engine validation -------------------------------------------------

_COVERAGE_CHECK_DB = (-5.0, 0.0, 5.0, 10.0)
_COVERAGE_TOL = 0.03
_ASSOC_TOL = 0.015
_SMALL_BETA_TOL = 0.02
_DOUBLING_TOL = 2e-3
_ACTIVE_PROB_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult]
    seed: int
    budget: int

    @property
    def exit_status(self) -> int:
        return 1 if any(c.status == "FAIL" for c in self.checks) else 0

    @property
    def text(self) -> str:
        lines = [
            "validation report",
            f"seed={self.seed} budget={self.budget}",
            "",
        ]
        for c in self.checks:
            lines.append(f"{c.status:<4} {c.name:<42} {c.detail}")
        failed = sum(c.status == "FAIL" for c in self.checks)
        skipped = sum(c.status == "SKIP" for c in self.checks)
        verdict = "FAIL" if failed else "PASS"
        lines.append("")
        lines.append(
            f"result: {verdict} ({failed} of {len(self.checks)} checks failed, {skipped} skipped)"
        )
        return "\n".join(lines) + "\n"


def _tol_check(name: str, delta: float, limit: float, fmt: str = ".4f") -> CheckResult:
    status = "PASS" if abs(delta) <= limit else "FAIL"
    return CheckResult(name, status, f"delta={delta:+{fmt}} limit={limit:{fmt}}")


def validate(
    cfg: NetworkConfig,
    budget: int = 10_000,
    output: str | Path | None = None,
    seed: int = 0,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ValidationReport:
    """Run the cross-engine tolerance checks and write a deterministic report.

    `budget` is the trial count for every sampling-based check; a budget of
    zero skips those and runs the analytic-only checks. The report text
    depends only on (cfg, budget, seed, quad), so identical calls produce
    byte-identical reports.
    """
    checks: list[CheckResult] = []

    # analytic-only checks
    cfg_nr = cfg.replace(lambda_ris=0.0)
    thm = coverage_probability(1.0, cfg_nr, quad).total
    direct = coverage_direct(1.0, cfg_nr, quad).total
    checks.append(_tol_check("direct-consistency[thm-dir]", thm - direct, _COVERAGE_TOL))

    cfg_sb = cfg.replace(beta=0.001)
    reduced = coverage_small_beta(1.0, cfg_sb, quad).total
    full = coverage_probability(1.0, cfg_sb, quad).total
    checks.append(_tol_check("small-beta-consistency", reduced - full, _SMALL_BETA_TOL))

    # double every quadrature resolution; the Alzer depth is a constant of
    # the approximation, not a resolution, so it is carried over
    doubled = QuadratureSpec(
        q1=2 * quad.q1, q2=2 * quad.q2, q3=2 * quad.q3, q_tail=2 * quad.q_tail,
        w_alzer=quad.w_alzer,
    )
    drift = (
        coverage_probability(1.0, cfg, doubled).total
        - coverage_probability(1.0, cfg, quad).total
    )
    checks.append(_tol_check("quadrature-doubling", drift, _DOUBLING_TOL, ".2e"))

    cfg_act = cfg.replace(lambda_u=10.0 * cfg.lambda_bs)
    act_err = active_prob_bs(cfg_act) - (1.0 - 11.0 ** (-3.5))
    checks.append(_tol_check("active-prob-closed-form", act_err, _ACTIVE_PROB_TOL, ".2e"))

    # sampling checks
    if budget < 1:
        for name in ("cross-coverage", "direct-consistency[mc]", "association"):
            checks.append(CheckResult(name, "SKIP", "no trial budget"))
    else:
        batch = montecarlo.sinr_samples(cfg, budget, radius=500.0, seed=seed)
        for db in _COVERAGE_CHECK_DB:
            t = 10.0 ** (db / 10.0)
            ana = coverage_probability(t, cfg, quad).total
            emp = montecarlo.empirical_coverage(
                t, cfg, budget, radius=500.0, seed=seed, samples=batch
            ).total
            checks.append(
                _tol_check(f"cross-coverage[{db:+.0f}dB]", ana - emp, _COVERAGE_TOL)
            )

        emp_nr = montecarlo.empirical_coverage(1.0, cfg_nr, budget, seed=seed).total
        checks.append(_tol_check("direct-consistency[thm-mc]", thm - emp_nr, _COVERAGE_TOL))
        checks.append(_tol_check("direct-consistency[dir-mc]", direct - emp_nr, _COVERAGE_TOL))

        freq = montecarlo.association_frequencies(cfg, budget, seed=seed)
        expected = {
            "d_los": assoc_prob_bs(LinkKind.LOS, cfg),
            "d_nlos": assoc_prob_bs(LinkKind.NLOS, cfg),
            "u_los": assoc_prob_ris(LinkKind.LOS, cfg),
            "g_los": assoc_prob_via_ris(LinkKind.LOS, cfg),
            "g_nlos": assoc_prob_via_ris(LinkKind.NLOS, cfg),
        }
        for key, ana in expected.items():
            checks.append(
                _tol_check(f"association[{key}]", ana - freq[key], _ASSOC_TOL)
            )

    report = ValidationReport(checks=checks, seed=seed, budget=budget)
    if output is not None:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.text, encoding="utf-8", newline="\n")
    return report
