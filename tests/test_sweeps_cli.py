"""Sweep tables, the consistency report and the command line front end."""

import csv
import io
import json
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from riscov import analytics, cli, sweeps
from riscov.sweeps import (
    CheckResult,
    SweepRow,
    SweepTable,
    ValidationReport,
    run_sweep,
    validate,
)


def _rows(table):
    reader = csv.DictReader(io.StringIO(table.to_csv()))
    return list(reader)


def test_threshold_sweep_monotone(cfg, light_quad):
    table = run_sweep("sinr-threshold", cfg, quad=light_quad)
    vals = [
        float(r["value"])
        for r in _rows(table)
        if r["metric"] == "p1" and r["engine"] == "analytic"
    ]
    assert len(vals) == len(sweeps.THRESHOLD_GRID_DB)
    assert vals == sorted(vals, reverse=True)


def test_table_sorting_and_duplicates():
    rows = [
        SweepRow("x", 2.0, "p1", "analytic", 0.5),
        SweepRow("x", 1.0, "p1", "analytic", 0.7),
        SweepRow("x", 1.0, "ase", "analytic", 0.1),
    ]
    table = SweepTable(rows=rows)
    table.finalize()
    keys = [(r.metric, r.engine, r.sweep_value) for r in table.rows]
    assert keys == sorted(keys)
    dup = SweepTable(rows=[SweepRow("x", 1.0, "p1", "analytic", 0.5)] * 2)
    with pytest.raises(ValueError):
        dup.finalize()


def test_serialization_round_trip():
    rows = [
        SweepRow("t", 1.0, "p1", "analytic", 0.25),
        SweepRow("t", 1.0, "p1", "montecarlo", 0.26, 0.24, 0.28),
    ]
    table = SweepTable(rows=rows)
    parsed = _rows(table)
    assert parsed[0]["ci_low"] == ""
    assert float(parsed[1]["ci_low"]) == 0.24
    jl = [json.loads(line) for line in table.to_jsonl().splitlines()]
    assert jl[0]["ci_low"] is None
    assert jl[1]["value"] == 0.26
    nan_table = SweepTable(rows=[SweepRow("t", 1.0, "p1", "analytic", float("nan"))])
    assert json.loads(nan_table.to_jsonl())["value"] is None


def test_write_suffix_dispatch(tmp_path):
    table = SweepTable(rows=[SweepRow("t", 1.0, "p1", "analytic", 0.25)])
    lone_csv = tmp_path / "out.csv"
    table.write(lone_csv)
    assert lone_csv.read_text() == table.to_csv()
    assert not (tmp_path / "out.jsonl").exists()
    lone_jsonl = tmp_path / "other.jsonl"
    table.write(lone_jsonl)
    assert lone_jsonl.read_text() == table.to_jsonl()
    stem = tmp_path / "pair"
    table.write(stem)
    assert (tmp_path / "pair.csv").read_text() == table.to_csv()
    assert (tmp_path / "pair.jsonl").read_text() == table.to_jsonl()


def test_sweep_byte_stability(cfg, light_quad):
    kwargs = dict(
        engines=("analytic", "montecarlo"),
        metrics=("p1",),
        trials=40,
        seed=4,
        quad=light_quad,
    )
    first = run_sweep("ris-size", cfg, **kwargs).to_csv()
    second = run_sweep("ris-size", cfg, **kwargs).to_csv()
    assert first == second
    # parallel dispatch must not change the table either
    third = run_sweep("ris-size", cfg, workers=4, **kwargs).to_csv()
    assert first == third


def test_tradeoff_sweep_builds_each_config_once(cfg, light_quad):
    # p1's build asks for its reflector-free twin (a miss), p_t then finds
    # that twin (a hit), and ee reads p1's coverage from the point: 18 builds
    analytics._get_evaluator.cache_clear()
    fresh = cfg.replace(beta=cfg.beta * 1.0137)
    run_sweep("ris-density-tradeoff", fresh, metrics=("p1", "p_t", "ee"), quad=light_quad)
    info = analytics._get_evaluator.cache_info()
    assert (info.misses, info.hits) == (18, 9)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_tradeoff_sweep_evaluates_once_per_point(cfg, light_quad, monkeypatch):
    # per point: p1 and ee share one evaluate of the point's configuration,
    # p_t one of its twin, which also holds the point's base-station tables;
    # the LOS-only tables are made too but never filled
    evaluates = _count_calls(monkeypatch, analytics._CoverageEvaluator, "evaluate")
    tables = _count_calls(monkeypatch, analytics._ExponentTable, "cover")
    fresh = cfg.replace(beta=cfg.beta * 1.0151)
    run_sweep("ris-density-tradeoff", fresh, metrics=("p1", "p_t", "ee"), quad=light_quad)
    assert sum(ev.has_ris for ev in evaluates) == 9
    assert len(evaluates) == 18
    assert len({id(table) for table in tables}) == 9 * (2 + 3)


@pytest.mark.parametrize("kind", ["ris-density-tradeoff", "ris-density-fixed-bs"])
def test_parallel_sweep_builds_as_often_as_serial(cfg, light_quad, monkeypatch, kind):
    # the fixed-bs points all share one twin, which two workers ask for at once
    builds = _count_calls(monkeypatch, analytics._CoverageEvaluator, "__init__")
    counts = []
    for workers, scale in ((1, 1.0191), (2, 1.0193)):
        analytics._get_evaluator.cache_clear()
        start = len(builds)
        run_sweep(kind, cfg.replace(beta=cfg.beta * scale), metrics=("p1", "p_t", "ee"),
                  quad=light_quad, workers=workers)
        counts.append(len(builds) - start)
    assert counts[0] == counts[1]


def test_build_once_waits_for_a_build_in_flight():
    started, release = threading.Event(), threading.Event()
    built = []

    def build(key):
        built.append(key)
        started.set()
        release.wait(5.0)
        return object()

    cache = analytics._BuildOnce(build, maxsize=2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(cache, "k")
        started.wait(5.0)
        second = pool.submit(cache, "k")
        deadline = time.monotonic() + 5.0
        while cache.cache_info().hits == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        assert first.result(timeout=5.0) is second.result(timeout=5.0)
    assert built == ["k"]
    assert cache.cache_info() == (1, 1, 2, 1)
    cache("a"), cache("b")  # evicts "k", the least recently used
    assert cache.cache_info().currsize == 2
    cache("k")
    assert built == ["k", "a", "b", "k"]
    cache.cache_clear()
    assert cache.cache_info() == (0, 0, 2, 0)


def test_build_once_stress_builds_each_key_once():
    # more threads than cores and a short switch interval, so callers
    # interleave inside the cache; a lost update would build a key twice
    builds = []
    cache = analytics._BuildOnce(lambda key: builds.append(key) or key, maxsize=64)
    keys = [i % 16 for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [f.result(timeout=30.0) for f in [pool.submit(cache, k) for k in keys]]
    finally:
        sys.setswitchinterval(interval)
    assert got == keys
    assert sorted(builds) == list(range(16))
    info = cache.cache_info()
    assert (info.misses, info.hits) == (16, len(keys) - 16)


def test_build_once_keeps_no_failed_build():
    attempts = []

    def build(key):
        attempts.append(key)
        raise RuntimeError("no build")

    cache = analytics._BuildOnce(build, maxsize=2)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no build"):
            cache("k")
    assert attempts == ["k", "k"]
    assert cache.cache_info().currsize == 0


def test_build_once_clear_during_build_keeps_the_new_entry():
    started, release = threading.Event(), threading.Event()
    built = []

    def build(key):
        built.append(key)
        if len(built) == 1:
            started.set()
            release.wait(5.0)
            raise RuntimeError("first build")
        return object()

    cache = analytics._BuildOnce(build, maxsize=2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        first = pool.submit(cache, "k")
        assert started.wait(5.0)
        cache.cache_clear()
        second = cache("k")  # the cleared cache builds the key anew
        release.set()
        with pytest.raises(RuntimeError, match="first build"):
            first.result(timeout=5.0)
    # the failed first build leaves the second caller's entry in place
    assert cache("k") is second
    assert built == ["k", "k"]
    assert cache.cache_info() == (1, 1, 2, 1)


def test_tradeoff_sweep_parallel_matches_serial(cfg, light_quad):
    # each run starts from an empty evaluator cache, so the pool builds too
    fresh = cfg.replace(beta=cfg.beta * 1.0173)
    tables = []
    for workers in (1, 2):
        analytics._get_evaluator.cache_clear()
        tables.append(run_sweep("ris-density-tradeoff", fresh, metrics=("p1", "p_t", "ee"),
                                quad=light_quad, workers=workers).to_csv())
    assert tables[0] == tables[1]


def test_sweep_error_rows_become_nan(cfg, light_quad, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(sweeps, "coverage_probability", boom)
    table = run_sweep("ris-size", cfg, metrics=("p1",), quad=light_quad)
    assert all(r.value != r.value for r in table.rows)  # NaN
    assert len(table.errors) == len(sweeps.RIS_SIZE_GRID)
    assert "synthetic failure" in table.errors[0]


def test_sweep_rejects_bad_arguments(cfg):
    with pytest.raises(ValueError):
        run_sweep("no-such-kind", cfg)
    with pytest.raises(ValueError):
        run_sweep("sinr-threshold", cfg, metrics=("p9",))
    with pytest.raises(ValueError):
        run_sweep("sinr-threshold", cfg, engines=("exact",))
    with pytest.raises(ValueError):
        run_sweep("sinr-threshold", cfg, engines=("montecarlo",), trials=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_sweep("ris-size", cfg, workers=workers)
    # analytic-only metrics on the sampling engine annotate instead of raising
    table = run_sweep("ris-size", cfg, engines=("montecarlo",), metrics=("ase",), trials=5)
    assert table.rows == []
    assert any("analytic-only" in err for err in table.errors)


@pytest.mark.parametrize("threshold_db", [math.inf, -math.inf, math.nan])
def test_sweep_rejects_non_finite_threshold(cfg, monkeypatch, threshold_db):
    # refused once, before any sample is drawn, rather than once per row
    def never(*args, **kwargs):
        raise AssertionError("sampled before the threshold was checked")

    monkeypatch.setattr(sweeps.montecarlo, "sinr_samples", never)
    with pytest.raises(ValueError, match="threshold_db must be finite"):
        run_sweep("ris-size", cfg, engines=("analytic", "montecarlo"),
                  threshold_db=threshold_db, trials=5)


# the rows of a validate report with a trial budget, in order
_VALIDATE_ROWS = [
    "small-beta-consistency",
    "quadrature-doubling",
    "active-prob-closed-form",
    "cross-coverage[-5dB]",
    "cross-coverage[+0dB]",
    "cross-coverage[+5dB]",
    "cross-coverage[+10dB]",
    "direct-consistency[thm-mc]",
    "association[d_los]",
    "association[u_los]",
    "association[g_los]",
]


def test_validate_without_budget(cfg, light_quad):
    report = validate(cfg, budget=0, quad=light_quad)
    names = [c.name for c in report.checks]
    assert names.count("cross-coverage") == 1
    skipped = [c for c in report.checks if c.status == "SKIP"]
    assert len(skipped) == 3
    assert all("budget" in c.detail for c in skipped)
    # each SKIP row carries the name of the check it stands for, or the part
    # before the brackets of a family of them
    for c in skipped:
        assert any(name == c.name or name.startswith(c.name + "[") for name in _VALIDATE_ROWS)
    # the three analytic checks pass on their own, quadrature doubling included
    assert report.exit_status == 0
    assert "FAIL" not in report.text
    # the doubling residual is printed in e-notation: at default nodes it is
    # about 1e-5, which a fixed four-decimal format would show as zero
    (doubling,) = [c for c in report.checks if c.name == "quadrature-doubling"]
    match = re.fullmatch(r"delta=([+-]\d\.\d\de[+-]\d\d) limit=2\.00e-03", doubling.detail)
    assert match and float(match.group(1)) != 0.0


def test_validate_report_rows(cfg, light_quad):
    """Each row compares two independent results; none repeats or negates
    another."""
    report = validate(cfg, budget=200, quad=light_quad)
    assert [c.name for c in report.checks] == _VALIDATE_ROWS


def test_validation_report_fail_exit_status():
    report = ValidationReport(
        checks=[
            CheckResult("small-beta-consistency", "PASS", "delta=+0.0004 limit=0.0200"),
            CheckResult("cross-coverage[+10dB]", "FAIL", "delta=-0.0854 limit=0.0300"),
            CheckResult("association", "SKIP", "no trial budget"),
        ],
        seed=0,
        budget=0,
    )
    assert report.exit_status == 1
    assert "result: FAIL" in report.text
    assert "1 of 3 checks failed, 1 skipped" in report.text


def test_cli_gains_json(capsys):
    code = cli.main(["gains"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_bs_dl"] > 1.0


def test_cli_coverage_rejects_both_engines(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["coverage", "--engine", "both"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
def test_cli_coverage_rejects_zero_threshold(capsys, engine):
    # -inf dB is a zero threshold, which every trial without a base station
    # would pass; no JSON with -Infinity in it is printed
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["coverage", "--engine", engine, "--threshold-db=-inf"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    ["coverage", "--engine", "montecarlo", "--trials", "10"],
    ["coverage", "--engine", "analytic"],
    ["sweep", "--kind", "ris-size", "--engine", "montecarlo", "--trials", "10"],
    ["ase"],
    ["ee"],
])
@pytest.mark.parametrize("value", ["inf", "nan", "zero"])
def test_cli_rejects_non_finite_threshold(capsys, command, value):
    # an infinite, NaN or non-numeric threshold is a usage error, refused
    # before anything runs: no JSON with Infinity or NaN in it, no row per
    # warning
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, f"--threshold-db={value}"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite dB value" in err and "warning" not in err


def test_cli_rejects_missing_config(capsys):
    assert cli.main(["gains", "--config", "/no/such/file.yaml"]) == 2


def test_cli_sweep_rejects_zero_workers(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--kind", "ris-size", "--workers", "0"])
    assert exit_info.value.code == 2
    assert "argument --workers: must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value, minimum", [
    (["coverage"], "--trials", "-5", 1),
    (["coverage", "--engine", "montecarlo"], "--trials", "0", 1),
    (["coverage"], "--trials", "many", 1),
    (["sweep", "--kind", "ris-size", "--engine", "montecarlo"], "--trials", "0", 1),
    (["sweep", "--kind", "ris-size"], "--workers", "-2", 1),
    (["sweep", "--kind", "ris-size"], "--workers", "1.5", 1),
    (["validate"], "--trials", "-3", 0),
    (["validate"], "--trials", "2.5", 0),
])
def test_cli_rejects_bad_counts(capsys, command, option, value, minimum):
    # a trial budget or worker count out of range is a usage error, refused
    # before anything runs: no budget=-3 report whose sampling checks all SKIP
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, f"{option}={value}"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: must be an integer >= {minimum}, got {value}" in err


def test_validate_rejects_negative_budget(cfg, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a check ran before the budget was checked")

    monkeypatch.setattr(sweeps, "coverage_small_beta", never)
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        validate(cfg, budget=-1)


def test_cli_ase_requires_analytic(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["ase", "--engine", "montecarlo"])
    assert exit_info.value.code == 2


def test_cli_sweep_writes_both_formats(tmp_path, capsys):
    out = tmp_path / "table"
    code = cli.main(
        [
            "sweep",
            "--kind",
            "ris-size",
            "--metrics",
            "p1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "table.jsonl").exists()
    rows = list(csv.DictReader((tmp_path / "table.csv").open()))
    assert len(rows) == len(sweeps.RIS_SIZE_GRID)


def test_cli_coverage_payload(capsys):
    code = cli.main(["coverage", "--threshold-db", "0", "--metric", "p_d"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "analytic"
    assert 0.0 < payload["total"] < 1.0
    assert payload["by_case"] == dict(sorted(payload["by_case"].items()))


def test_cli_validate_exit_code(tmp_path, capsys):
    # zero trials keeps only the analytic checks, which all pass
    path = tmp_path / "report" / "validate.txt"
    assert cli.main(["validate", "--trials", "0", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "FAIL" not in out
    assert "result: PASS" in out
    # --out writes exactly the report printed to stdout
    assert path.read_text(encoding="utf-8") == out
