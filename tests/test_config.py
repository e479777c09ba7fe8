"""Configuration defaults, unit conversions and document parsing."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import riscov
from riscov.config import (
    ConfigError,
    NetworkConfig,
    dbm_to_watt,
    load_config,
    parse_config,
    watt_to_dbm,
)

DISK_AREA = math.pi * 500.0**2


def test_default_densities(cfg):
    assert cfg.lambda_bs == pytest.approx(10.0 / DISK_AREA)
    assert cfg.lambda_ris == pytest.approx(10.0 / DISK_AREA)
    assert cfg.lambda_u == pytest.approx(100.0 / DISK_AREA)


def test_default_intercepts_follow_carrier(cfg):
    wavelength = 299792458.0 / 28e9
    expected = (wavelength / (4.0 * math.pi)) ** 2
    assert cfg.c_los == pytest.approx(expected, rel=1e-12)
    assert cfg.c_nlos == pytest.approx(expected, rel=1e-12)


def test_noise_power():
    cfg = NetworkConfig()
    # -174 dBm/Hz + 10 log10(100 MHz) + NF 10 dB = -84 dBm
    assert watt_to_dbm(cfg.noise_power_watt) == pytest.approx(-84.0, abs=1e-9)


def test_power_conversions():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(33.0) == pytest.approx(1.9952623, rel=1e-6)
    assert watt_to_dbm(10.0) == pytest.approx(40.0)
    with pytest.raises(ConfigError):
        watt_to_dbm(0.0)


@given(st.floats(min_value=-60.0, max_value=60.0))
def test_power_conversion_round_trip(p_dbm):
    assert watt_to_dbm(dbm_to_watt(p_dbm)) == pytest.approx(p_dbm, abs=1e-9)


def test_replace_keeps_original(cfg):
    changed = cfg.replace(beta=0.005)
    assert changed.beta == 0.005
    assert cfg.beta == 0.01
    # intercepts were materialized, so they survive a carrier change unless reset
    moved = cfg.replace(f_c=60e9)
    assert moved.c_los == cfg.c_los
    rederived = cfg.replace(f_c=60e9, c_los=None, c_nlos=None)
    assert rederived.c_los == pytest.approx((moved.wavelength_m / (4 * math.pi)) ** 2)


@pytest.mark.parametrize(
    "changes",
    [
        {"beta": -0.01},
        {"n_bs": 0},
        {"n_ris": 2.5},
        {"antenna_scheme": "scheme3"},
        {"bandwidth_hz": 0.0},
        {"alpha_los": float("nan")},
        {"beta": True},
        {"p_bs_dbm": False},
        {"f_c": "x"},
    ],
)
def test_invalid_values_rejected(changes):
    with pytest.raises(ConfigError):
        NetworkConfig(**changes)


def test_parse_config_basic():
    parsed = parse_config("beta: 0.005\nn_ris: 64\nantenna_scheme: scheme2\n")
    assert parsed.beta == 0.005
    assert parsed.n_ris == 64
    assert parsed.antenna_scheme == "scheme2"
    # untouched keys keep their defaults
    assert parsed.n_bs == 8
    # a YAML integer stands for the float it equals
    assert parse_config("beta: 1") == NetworkConfig(beta=1.0)


def test_parse_config_rejects_non_string_keys():
    with pytest.raises(ConfigError, match="unknown config keys: 1"):
        parse_config("1: 2\n")


def test_parse_config_empty_is_default():
    assert parse_config("") == NetworkConfig()


@pytest.mark.parametrize(
    "doc",
    [
        "- a\n- b\n",                # not a mapping
        "unknown_knob: 3\n",         # unknown key
        "n_bs: eight\n",             # non-integer count
        "n_bs: true\n",              # bool is not an int here
        "beta: [1, 2]\n",            # non-scalar value
        "beta: {{\n",                # malformed document
    ],
)
def test_parse_config_rejects(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text("lambda_ris: 0.0\n")
    assert load_config(path).lambda_ris == 0.0


def test_load_config_rejects_malformed_file(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text("beta: {{\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_import_leaves_scipy_and_yaml_unloaded():
    """scipy is a test dependency only, and YAML loads on the first parse."""
    src = str(Path(riscov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, riscov; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"
