"""Network-level configuration shared by the analytic and Monte Carlo engines.

All distances are in metres, powers in watt unless a ``_dbm`` suffix says
otherwise, densities in points per square metre.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

SPEED_OF_LIGHT = 299792458.0  # [m/s]

# Beams aligned to the reflected path (scheme1) or to the direct path (scheme2).
ANTENNA_SCHEMES = ("scheme1", "scheme2")


class ConfigError(ValueError):
    """Raised for malformed documents or out-of-range field values."""


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watt_to_dbm(p_watt: float) -> float:
    if p_watt <= 0.0:
        raise ConfigError(f"power must be positive to convert to dBm, got {p_watt}")
    return 10.0 * math.log10(p_watt) + 30.0


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable deployment parameters. Defaults reproduce the baseline setup."""

    p_bs_dbm: float = 33.0          # BS transmit power [dBm]
    p0_watt: float = 10.0           # BS static power draw [W]
    delta: float = 6.0              # BS amplifier load slope [1]
    n_bs: int = 8                   # BS ULA elements
    n_u: int = 4                    # user ULA elements
    n_ris: int = 128                # reflecting elements per RIS
    p_elem_dbm: float = 7.0         # power draw per RIS element [dBm]
    alpha_los: float = 2.0          # LOS path-loss exponent
    alpha_nlos: float = 4.0         # NLOS path-loss exponent
    lambda_bs: float = 10.0 / (math.pi * 500.0**2)    # BS density [1/m^2]
    lambda_ris: float = 10.0 / (math.pi * 500.0**2)   # RIS density [1/m^2]
    lambda_u: float = 100.0 / (math.pi * 500.0**2)    # user density [1/m^2]
    beta: float = 0.01              # blockage parameter [1/m]; p_los(x) = exp(-beta x)
    f_c: float = 28e9               # carrier frequency [Hz]
    c_los: float | None = None      # LOS path-loss intercept; default (wavelength/4pi)^2
    c_nlos: float | None = None     # NLOS path-loss intercept; default (wavelength/4pi)^2
    bandwidth_hz: float = 100e6     # system bandwidth [Hz]
    noise_figure_db: float = 10.0   # receiver noise figure [dB]
    d_over_omega: float = 0.5       # element spacing over wavelength
    antenna_scheme: str = "scheme1"
    r_min: float = 1.0              # minimum link distance [m]

    def __post_init__(self) -> None:
        self._validate()
        default_c = (self.wavelength_m / (4.0 * math.pi)) ** 2
        if self.c_los is None:
            object.__setattr__(self, "c_los", default_c)
        if self.c_nlos is None:
            object.__setattr__(self, "c_nlos", default_c)

    # -- derived quantities -------------------------------------------------

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.f_c

    @property
    def p_bs_watt(self) -> float:
        return dbm_to_watt(self.p_bs_dbm)

    @property
    def p_elem_watt(self) -> float:
        return dbm_to_watt(self.p_elem_dbm)

    @property
    def noise_power_watt(self) -> float:
        # thermal noise floor -174 dBm/Hz plus the receiver noise figure
        noise_dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return dbm_to_watt(noise_dbm)

    def replace(self, **changes) -> "NetworkConfig":
        """Return a copy with the given fields replaced (config stays frozen).

        Intercepts are materialized at construction; pass ``c_los=None`` /
        ``c_nlos=None`` to re-derive them after changing ``f_c``.
        """
        return dataclasses.replace(self, **changes)

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        def check(names, kind, ok, what: str) -> None:
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")

        real = (int, float)
        check(("p0_watt", "alpha_los", "alpha_nlos", "f_c", "bandwidth_hz", "d_over_omega",
               "r_min"), real, lambda v: math.isfinite(v) and v > 0,
              "a positive finite number")
        # intercepts left None are derived once the rest is valid
        intercepts = [name for name in ("c_los", "c_nlos") if getattr(self, name) is not None]
        check(("delta", "lambda_bs", "lambda_ris", "lambda_u", "beta", *intercepts), real,
              lambda v: math.isfinite(v) and v >= 0, "a nonnegative finite number")
        check(("p_bs_dbm", "p_elem_dbm", "noise_figure_db"), real, math.isfinite,
              "a finite number")
        check(("n_bs", "n_u", "n_ris"), int, lambda v: v >= 1, "an integer >= 1")
        if self.antenna_scheme not in ANTENNA_SCHEMES:
            raise ConfigError(
                f"antenna_scheme must be one of {ANTENNA_SCHEMES}, got {self.antenna_scheme!r}"
            )


_FIELDS = {f.name for f in dataclasses.fields(NetworkConfig)}


def parse_config(text: str) -> NetworkConfig:
    """Build a config from a flat key/value document (YAML mapping syntax)."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(
            f"config document must be a flat key/value mapping, got {type(raw).__name__}"
        )
    unknown = sorted(str(key) for key in set(raw) - _FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return NetworkConfig(**raw)


def load_config(path: str | Path) -> NetworkConfig:
    """Read a config document from disk; missing keys keep their defaults."""
    return parse_config(Path(path).read_text())
