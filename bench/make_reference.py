"""Record the reference values the benchmark checks its outputs against.

    python3 bench/make_reference.py

Writes bench/reference.json: the 21-point default coverage curve, one
ris-density-tradeoff table per beta step, and Monte Carlo coverage from one
large batch. Takes about ten minutes on two cores. Rerun only when the model
changes on purpose, and say why in the change that commits the new file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402
from riscov import NetworkConfig, analytics, montecarlo, sweeps  # noqa: E402

MC_REFERENCE_TRIALS = 20_000
MC_REFERENCE_SEED = 20_211_004


def main() -> None:
    cfg = NetworkConfig()
    ref = {
        "threshold-sweep": {
            str(db): analytics.coverage_probability(w._db(db), cfg).total
            for db in sweeps.THRESHOLD_GRID_DB
        },
        "density-sweep": {},
    }
    for step in w.BETA_STEPS:
        table = sweeps.run_sweep(w.DENSITY_KIND, NetworkConfig(beta=w.beta_for(step)),
                                 metrics=w.DENSITY_METRICS, workers=1)
        if table.errors:
            raise SystemExit(f"step {step}: {table.errors}")
        ref["density-sweep"][str(step)] = {
            m: [r.value for r in table.rows if r.metric == m] for m in w.DENSITY_METRICS
        }
        print(f"beta step {step:+d} done", file=sys.stderr)
    batch = montecarlo.sinr_samples(cfg, MC_REFERENCE_TRIALS, seed=MC_REFERENCE_SEED)
    ref["mc-coverage"] = {
        "trials": MC_REFERENCE_TRIALS,
        "seed": MC_REFERENCE_SEED,
        "coverage": {
            f"{db:+g}": montecarlo.empirical_coverage(
                w._db(db), cfg, MC_REFERENCE_TRIALS, samples=batch).total
            for db in w.MC_THRESHOLDS_DB
        },
    }
    w.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
