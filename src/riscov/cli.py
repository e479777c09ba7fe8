"""Command-line front end.

Subcommands: `sweep` (parameter sweeps to CSV / JSON lines), `coverage`,
`ase` and `ee` (single-point metrics printed as JSON), `gains` (the average
misalignment gain table) and `validate` (cross-engine tolerance checks with
a pass/fail report). Exit codes: 0 on success, 1 when validation fails,
2 on usage, config or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import montecarlo, sweeps
from .analytics import coverage_direct, coverage_probability, energy_efficiency
from .beamforming import average_gains
from .config import ConfigError, NetworkConfig, load_config

_ENGINE_SETS = {
    "analytic": ("analytic",),
    "montecarlo": ("montecarlo",),
    "both": ("analytic", "montecarlo"),
}


def _threshold_db(text: str) -> float:
    """A finite SINR threshold in dB: -inf would be a zero threshold, and
    inf or nan would be written into the output, where JSON has no token
    for either."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"threshold must be a finite dB value, got {text}")
    return value


def _count(minimum: int):
    """The argparse type of a trial budget or a worker count: an integer of
    at least `minimum`."""

    def count(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text}")
        return int(text)

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscov",
        description="coverage, spectral- and energy-efficiency analysis of "
        "reflector-assisted mmWave cellular networks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="model config file (YAML key: value)")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sampled = argparse.ArgumentParser(add_help=False, parents=[common])
    sampled.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[sampled], help="run a parameter sweep")
    p.add_argument("--engine", choices=sorted(_ENGINE_SETS), default="analytic",
                   help="evaluation engine(s) (default analytic)")
    p.add_argument("--kind", required=True, choices=sweeps.SWEEP_KINDS)
    p.add_argument(
        "--metrics", metavar="LIST",
        help=f"comma-separated subset of {','.join(sweeps.METRICS)} (default per kind)",
    )
    p.add_argument("--threshold-db", type=_threshold_db, default=0.0,
                   help="fixed SINR threshold for density/size sweeps (default 0 dB)")
    p.add_argument("--trials", type=_count(1), default=2000,
                   help="sampling trials per grid point (default 2000)")
    p.add_argument("--workers", type=_count(1), default=1, help="worker threads (default 1)")

    p = sub.add_parser("coverage", parents=[sampled], help="coverage at one threshold")
    p.add_argument("--engine", choices=sweeps.ENGINES, default="analytic",
                   help="evaluation engine (default analytic)")
    p.add_argument("--threshold-db", type=_threshold_db, default=0.0)
    p.add_argument("--metric", choices=("p1", "p2", "p_d", "p_t"), default="p1")
    p.add_argument("--trials", type=_count(1), default=10_000)

    for name, text in (("ase", "area spectral efficiency"), ("ee", "energy efficiency")):
        p = sub.add_parser(name, parents=[common], help=f"{text} at one threshold")
        p.add_argument("--threshold-db", type=_threshold_db, default=0.0)

    sub.add_parser("gains", parents=[common], help="dump average misalignment gains")

    p = sub.add_parser("validate", parents=[sampled], help="cross-engine tolerance checks")
    p.add_argument("--trials", type=_count(0), default=10_000,
                   help="trial budget for sampling checks; 0 skips them")
    return parser


def _load(args) -> NetworkConfig:
    if args.config is None:
        return NetworkConfig()
    return load_config(args.config)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_sweep(args, cfg: NetworkConfig) -> int:
    metrics = None if args.metrics is None else tuple(args.metrics.split(","))
    table = sweeps.run_sweep(
        args.kind, cfg,
        engines=_ENGINE_SETS[args.engine],
        metrics=metrics,
        threshold_db=args.threshold_db,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    for err in table.errors:
        print(f"warning: {err}", file=sys.stderr)
    if args.out is None:
        sys.stdout.write(table.to_csv())
    else:
        table.write(args.out)
    return 0


def _cmd_coverage(args, cfg: NetworkConfig) -> int:
    threshold = 10.0 ** (args.threshold_db / 10.0)
    metric_cfg = sweeps.metric_config(args.metric, cfg)
    payload = {"metric": args.metric, "threshold_db": args.threshold_db}
    if args.engine == "montecarlo":
        if args.metric == "p_d":
            print("error: metric p_d is analytic-only", file=sys.stderr)
            return 2
        res = montecarlo.empirical_coverage(
            threshold, metric_cfg, args.trials, seed=args.seed
        )
        payload["ci_low"] = res.meta["ci_low"]
        payload["ci_high"] = res.meta["ci_high"]
        payload["trials"] = res.meta["trials"]
    elif args.metric == "p_d":
        res = coverage_direct(threshold, metric_cfg)
    else:
        res = coverage_probability(threshold, metric_cfg)
    payload["engine"] = res.engine
    payload["total"] = res.total
    payload["by_case"] = {case.label: value for case, value in sorted(
        res.by_case.items(), key=lambda item: item[0].label)}
    _emit(_json(payload), args.out)
    return 0


def _cmd_efficiency(args, cfg: NetworkConfig) -> int:
    threshold = 10.0 ** (args.threshold_db / 10.0)
    res = energy_efficiency(threshold, cfg)
    payload = {
        "threshold_db": args.threshold_db,
        "ase": res.ase,
        "power_density": res.power_density,
        "ee": res.ee,
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_gains(args, cfg: NetworkConfig) -> int:
    _emit(_json(dataclasses.asdict(average_gains(cfg))), args.out)
    return 0


def _cmd_validate(args, cfg: NetworkConfig) -> int:
    report = sweeps.validate(cfg, budget=args.trials, seed=args.seed)
    sys.stdout.write(report.text)
    if args.out is not None:
        _emit(report.text, args.out)
    return report.exit_status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"sweep": _cmd_sweep, "coverage": _cmd_coverage, "ase": _cmd_efficiency,
                "ee": _cmd_efficiency, "gains": _cmd_gains, "validate": _cmd_validate}
    try:
        return commands[args.command](args, _load(args))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
