"""Coverage, rate and energy-efficiency analysis of RIS-assisted mmWave networks."""

from .analytics import (
    CoverageResult,
    EfficiencyResult,
    QuadratureSpec,
    coverage_direct,
    coverage_probability,
    coverage_small_beta,
    energy_efficiency,
)
from .config import NetworkConfig, dbm_to_watt, load_config, parse_config, watt_to_dbm
from .montecarlo import (
    Deployment,
    SinrBatch,
    empirical_coverage,
    realize_sinr,
    sample_deployment,
    sinr_samples,
)
from .sweeps import SweepTable, run_sweep, validate

__all__ = [
    "CoverageResult",
    "Deployment",
    "EfficiencyResult",
    "NetworkConfig",
    "QuadratureSpec",
    "SinrBatch",
    "SweepTable",
    "coverage_direct",
    "coverage_probability",
    "coverage_small_beta",
    "dbm_to_watt",
    "empirical_coverage",
    "energy_efficiency",
    "load_config",
    "parse_config",
    "realize_sinr",
    "run_sweep",
    "sample_deployment",
    "sinr_samples",
    "validate",
    "watt_to_dbm",
]

__version__ = "0.1.0"
