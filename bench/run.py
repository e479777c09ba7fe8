#!/usr/bin/env python3
"""riscov benchmark: three workloads, end-to-end metrics, per-module spans.

    python3 bench/run.py --workload threshold-sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1          # every workload, one process each

Each workload runs in its own process with BLAS/OpenMP pinned to one thread.
The last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-module ones. Every op's output
is checked; the exit code is 1 when any check fails and 2 when the program
cannot be found. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans  # stdlib only; bench/ is on sys.path as the script's directory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PINNED_ENV = {
    **{var: "1" for var in THREAD_VARS},
    # glibc keeps freed arrays in the process instead of handing the pages
    # back; re-faulting them costs whatever the host's huge-page state makes
    # it (one density op took 18 s with these, 31 s and 5M page faults without)
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(2**34),
    # numpy asks for huge pages on large arrays; with them the time per
    # threshold rose from 0.75 s to 1.4 s within one 30 s run, without them
    # runs stayed between 0.8 s and 1.2 s
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONPATH": str(SRC),
}
WORKLOADS = ("threshold-sweep", "density-sweep", "mc-coverage")
# set-up is timed in this many fresh interpreters (this one included); the
# median hides a one-off stall such as a slow first page-in
SETUP_SAMPLES = 3
SPLIT_TRIALS = 100
CHILD_TIMEOUT_S = 170


def timed_setup(name: str) -> dict:
    """Import riscov and warm the workload up; both timed from a fresh start."""
    t0 = time.perf_counter()
    import riscov
    import workloads
    t1 = time.perf_counter()
    if Path(riscov.__file__).resolve().parent != SRC / "riscov":
        raise SystemExit(f"riscov imported from {riscov.__file__}, not from {SRC}")
    workloads.WORKLOADS[name].warm_up()
    return {"import_s": t1 - t0, "setup_s": time.perf_counter() - t0}


def run_op(wl, inp, recorder=None) -> tuple:
    """One timed op and its checks: (input, seconds, problems)."""
    start = time.perf_counter()
    try:
        with recorder.span("op") if recorder else nullcontext():
            out = wl.run(inp)
        dur = time.perf_counter() - start
        problems = wl.check(inp, out)
    except Exception as exc:  # a failed op is counted, not fatal
        dur = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    return inp, dur, problems


def run_ops(wl, seconds: float, recorder=None) -> tuple[list, list, list[str]]:
    """Closed loop until the next op would end past the deadline (one op at
    least). Returns (untraced ops, traced ops, span names not found).

    With a recorder every untraced op is followed by a traced one, so the
    two see the same machine state. The traced op repeats the input where no
    cache makes a repeat cheaper; a density step must be new to be cold, so
    that workload takes the next one.
    """
    deadline = time.perf_counter() + seconds
    inputs = wl.inputs()
    ops, traced, missing = [], [], []
    for inp in inputs:
        ops.append(run_op(wl, inp))
        pair_s = ops[-1][1]
        if recorder is not None:
            again = inp if wl.replayable else next(inputs, None)
            if again is None:
                break
            restore, missing = spans.install(recorder)
            try:
                traced.append(run_op(wl, again, recorder))
            finally:
                spans.uninstall(restore)
            pair_s += traced[-1][1]
        if time.perf_counter() + pair_s > deadline:
            break
    return ops, traced, missing


def environment() -> dict:
    import numpy
    import scipy
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {var: os.environ[var] for var in PINNED_ENV if var != "PYTHONPATH"},
    }


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def setup_probe(name: str) -> dict:
    proc = child([str(Path(__file__)), "--workload", name, "--setup-probe"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def cli_cold_point() -> tuple[float, list[str]]:
    """Wall time of `riscov coverage --threshold-db 0` in a fresh process."""
    import workloads
    start = time.perf_counter()
    proc = child(["-m", "riscov.cli", "coverage", "--threshold-db", "0"])
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return wall, [f"cli: exit {proc.returncode}: {proc.stderr.strip()}"]
    total = json.loads(proc.stdout)["total"]
    ref = workloads.reference()["threshold-sweep"]["0"]
    if abs(total - ref) > workloads.ANALYTIC_TOL:
        return wall, [f"cli: 0 dB coverage {total!r}, reference {ref!r}"]
    return wall, []


def mc_split(wl) -> tuple[float, float]:
    """ms per trial of the public sample_deployment and realize_sinr."""
    from riscov import montecarlo
    sample = realize = 0.0
    for seed in range(SPLIT_TRIALS):
        t0 = time.perf_counter()
        dep = montecarlo.sample_deployment(wl.cfg, seed=seed)
        t1 = time.perf_counter()
        montecarlo.realize_sinr(dep, wl.cfg, seed=seed)
        sample += t1 - t0
        realize += time.perf_counter() - t1
    return 1e3 * sample / SPLIT_TRIALS, 1e3 * realize / SPLIT_TRIALS


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# per-module metrics read from the span tables: name -> (span, field, divisor)
# where the divisor is "op" (per traced op) or "trial" (per Monte Carlo trial)
SPAN_METRICS = {
    "analytics.evaluate_s": ("analytics.evaluate", "self_s", "op"),
    "analytics.evaluate_calls": ("analytics.evaluate", "calls", "op"),
    "analytics.build_s": ("analytics.build", "self_s", "op"),
    "analytics.build_calls": ("analytics.build", "calls", "op"),
    "analytics.active_prob_ris_s": ("analytics.active_prob_ris", "self_s", "op"),
    "analytics.ris_interference_power_s": ("analytics.ris_interference_power", "self_s", "op"),
    "analytics.energy_efficiency_s": ("analytics.energy_efficiency", "self_s", "op"),
    "association.ris_joint_expectation_s": ("association.ris_joint_expectation", "self_s", "op"),
    "association.ris_joint_expectation_calls": ("association.ris_joint_expectation", "calls", "op"),
    "association.ris_case_density_s": ("association.ris_case_density", "self_s", "op"),
    "association.ris_case_density_calls": ("association.ris_case_density", "calls", "op"),
    "association.serving_bs_density_s": ("association.serving_bs_density", "self_s", "op"),
    "association.serving_bs_density_calls": ("association.serving_bs_density", "calls", "op"),
    "beamforming.fejer_kernel_s": ("beamforming.fejer_kernel", "self_s", "trial"),
    "beamforming.fejer_kernel_calls": ("beamforming.fejer_kernel", "calls", "trial"),
    "beamforming.average_gains_s": ("beamforming.average_gains", "self_s", "op"),
    "quad.gauss_legendre_01_s": ("quad.gauss_legendre_01", "self_s", "op"),
    "quad.gauss_legendre_01_calls": ("quad.gauss_legendre_01", "calls", "op"),
    "montecarlo.sinr_samples_s": ("montecarlo.sinr_samples", "self_s", "op"),
    "montecarlo.empirical_coverage_s": ("montecarlo.empirical_coverage", "total_s", "op"),
    "sweeps.run_sweep_s": ("sweeps.run_sweep", "total_s", "op"),
    "sweeps.self_s": ("sweeps.run_sweep", "self_s", "op"),
}


# module functions a warm-up calls; their set-up self time is reported too
SETUP_SPANS = (
    "analytics.evaluate", "analytics.build", "analytics.active_prob_ris",
    "analytics.ris_interference_power", "association.ris_joint_expectation",
    "association.ris_case_density", "association.serving_bs_density",
    "beamforming.fejer_kernel", "beamforming.average_gains", "quad.gauss_legendre_01",
    "montecarlo.sinr_samples",
)

# per-module counts the workloads take from the program's outputs
COUNT_METRICS = {
    "montecarlo.empty_bs_trials": "count",
    "montecarlo.no_ris_fraction": "ratio",
    "sweeps.rows": "count",
    "sweeps.errors": "count",
}


def layer_metrics(wl, recorder, traced_ops, untraced_ops, extra: dict) -> dict:
    tables = spans.summarize(recorder.spans)
    ops_table, setup_table = tables.get("op", {}), tables.get("setup", {})
    n_ops = len(traced_ops)
    n_trials = n_ops * wl.trials_per_op
    out = {}
    for name, (span, field, per) in SPAN_METRICS.items():
        total = ops_table.get(span, {}).get(field, 0)
        divisor = n_ops if per == "op" else n_trials
        unit = "s" if field != "calls" else "count"
        out[name] = metric(total / divisor if divisor else 0.0, unit)
    # set-up scope: self time of each module function during the traced warm-up
    for span in SETUP_SPANS:
        out[f"setup.{span}_s"] = metric(setup_table.get(span, {}).get("self_s", 0.0), "s")
    untraced_p50 = statistics.median(d for _, d, _ in untraced_ops)
    traced_p50 = statistics.median(d for _, d, _ in traced_ops)
    spans_in_ops = sum(row["calls"] for row in ops_table.values())
    out.update({
        "analytics.evaluator_hit_ratio": metric(extra["hit_ratio"], "ratio"),
        "montecarlo.ms_per_trial": metric(extra["ms_per_trial"], "ms"),
        "montecarlo.sample_ms": metric(extra["sample_ms"], "ms"),
        "montecarlo.realize_ms": metric(extra["realize_ms"], "ms"),
        "cli.coverage_cold_s": metric(extra["cli_s"], "s"),
        "setup.import_s": metric(extra["import_s"], "s"),
        "setup.warm_up_s": metric(extra["warm_up_s"], "s"),
        "trace.untraced_op_p50_s": metric(untraced_p50, "s"),
        "trace.traced_op_p50_s": metric(traced_p50, "s"),
        "trace.overhead_s": metric(traced_p50 - untraced_p50, "s"),
        "trace.spans_per_op": metric(spans_in_ops / n_ops, "count"),
    })
    counts = wl.layer_counts()
    for key, unit in COUNT_METRICS.items():
        out[key] = metric(counts.get(key, 0.0), unit)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    recorder = spans.Recorder() if traced else None
    if traced:
        t0 = time.perf_counter()
        import workloads
        import_s = time.perf_counter() - t0
        restore, _ = spans.install(recorder)
        with recorder.span("setup"):
            workloads.WORKLOADS[name].warm_up()
        spans.uninstall(restore)
        setup = [{"import_s": import_s, "setup_s": time.perf_counter() - t0}]
    else:
        setup = [timed_setup(name)] + [setup_probe(name) for _ in range(SETUP_SAMPLES - 1)]
        import workloads

    wl = workloads.WORKLOADS[name](seed)
    before = workloads.evaluator_cache_info()
    ops, traced_ops, missing = run_ops(wl, seconds, recorder)
    if traced:
        hits, misses = (a - b for a, b in zip(workloads.evaluator_cache_info(), before))
        extra = {"import_s": setup[0]["import_s"],
                 "warm_up_s": setup[0]["setup_s"] - setup[0]["import_s"],
                 "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                 "ms_per_trial": 0.0, "sample_ms": 0.0, "realize_ms": 0.0}
        if wl.trials_per_op:
            extra["ms_per_trial"] = (1e3 * statistics.median(d for _, d, _ in ops)
                                     / wl.trials_per_op)
            extra["sample_ms"], extra["realize_ms"] = mc_split(wl)
        extra["cli_s"], cli_problems = cli_cold_point()
    all_ops = ops + traced_ops
    # a run-level check (pooled statistics, monotone curve) judges every op
    run_problems = wl.finish()
    if traced:
        run_problems += cli_problems
        if not traced_ops:
            run_problems.append("no input left for a traced op")
    problems = [p for _, _, op_problems in all_ops for p in op_problems] + run_problems
    failed = len(all_ops) if run_problems else sum(1 for _, _, p in all_ops if p)
    durations = [d for _, d, _ in ops]
    op_time = sum(durations)
    tail = spans.tail(durations)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "ops": len(ops), "traced_ops": len(traced_ops),
        "setup_samples": [s["setup_s"] for s in setup],
        "op_tail_s": None if tail is None else
        {"percentile": tail[0], "value": tail[1], "samples": len(durations)},
        "failed_ops_ratio": failed / len(all_ops),
        "op_s": [round(d, 6) for d in durations],
        "trials_per_s": len(ops) * wl.trials_per_op / op_time if wl.trials_per_op else None,
        "missing_spans": missing,
        **environment(),
    }
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if traced:
        metrics = layer_metrics(wl, recorder, traced_ops, ops, extra) if traced_ops else {}
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{name}-seed{seed}.json"
        origin = recorder.spans[0][1]
        rows = [[n, round(1e6 * (a - origin)), round(1e6 * (b - origin)), parent]
                for n, a, b, parent in recorder.spans]
        span_file.write_text(json.dumps({"detail": detail, "unit": "us", "spans": rows}))
        samples = {key: len(traced_ops) for key in metrics}
    else:
        metrics = {
            "setup_s": metric(statistics.median(s["setup_s"] for s in setup), "s"),
            "op_p50_s": metric(statistics.median(durations), "s"),
            "points_per_s": metric(len(ops) * wl.points_per_op / op_time, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {key: len(ops) for key in metrics}
        samples["setup_s"] = len(setup)
        if tail is not None:
            print(f"{name:<16} {'op_tail_s (p%g)' % tail[0]:<40} {tail[1]:>14.6g} s      "
                  f"n={len(durations)}")
        print(f"{name:<16} {'failed_ops_ratio':<40} {detail['failed_ops_ratio']:>14.6g} ratio  "
              f"n={len(all_ops)}")
        if wl.trials_per_op:
            print(f"{name:<16} {'trials_per_s':<40} {detail['trials_per_s']:>14.6g} 1/s    "
                  f"n={len(durations)}")
    for key, m in metrics.items():
        print(f"{name:<16} {key:<40} {m['value']:>14.6g} {m['unit']:<6} n={samples[key]}")
    print(json.dumps(detail))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "riscov" / "__init__.py").is_file():
        print(f"error: no riscov sources under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        # the allocator reads its settings at start-up, so start again with them
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(SRC), str(BENCH)]

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        print(json.dumps(timed_setup(args.workload)))
        return 0
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:  # warm-up output wrong or a set-up probe failed
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
