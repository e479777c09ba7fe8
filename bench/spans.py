"""Spans recorded from outside the program, and the arithmetic on them.

The tracer replaces a function by a timing wrapper in the namespace its
callers look it up in, so nothing under src/ changes. Spans stay in memory as
[name, start, end, parent] and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict

# span name -> the places callers look the function up, as "module:attribute";
# a function imported by name into several modules is wrapped in each of them
TARGETS = {
    "analytics.evaluate": ["riscov.analytics:_CoverageEvaluator.evaluate"],
    "analytics.build": ["riscov.analytics:_CoverageEvaluator.__init__"],
    "analytics.active_prob_ris": ["riscov.analytics:active_prob_ris"],
    "analytics.ris_interference_power": ["riscov.analytics:ris_interference_power"],
    "analytics.energy_efficiency": ["riscov.sweeps:energy_efficiency"],
    "association.ris_joint_expectation": ["riscov.analytics:ris_joint_expectation",
                                          "riscov.association:ris_joint_expectation"],
    "association.ris_case_density": ["riscov.analytics:ris_case_density",
                                     "riscov.association:ris_case_density"],
    "association.serving_bs_density": ["riscov.analytics:serving_bs_density",
                                       "riscov.association:serving_bs_density"],
    "beamforming.fejer_kernel": ["riscov.montecarlo:fejer_kernel"],
    "beamforming.average_gains": ["riscov.beamforming:average_gains"],
    "quad.gauss_legendre_01": ["riscov.analytics:gauss_legendre_01"],
    "montecarlo.sinr_samples": ["riscov.montecarlo:sinr_samples"],
    "montecarlo.empirical_coverage": ["riscov.montecarlo:empirical_coverage"],
    "sweeps.run_sweep": ["riscov.sweeps:run_sweep"],
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def _resolve(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> tuple[list, list[str]]:
    """Wrap every target; returns (what to restore, span names not found).

    A target that a later version of the program renamed is reported, not
    fatal, so the untraced benchmark keeps working across refactors.
    """
    restore, missing = [], []
    for name, targets in TARGETS.items():
        for target in targets:
            try:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            restore.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
    return restore, sorted(set(missing))


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict:
    """{root span name: {span name: {"self_s", "total_s", "calls"}}}.

    Every span is charged to the root of its tree, so the work of ops and the
    work of set-up land in separate tables.
    """
    own = self_times(spans)
    roots = []
    for name, _, _, parent in spans:
        roots.append(len(roots) if parent is None else roots[parent])
    out: dict = defaultdict(lambda: defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0,
                                                          "calls": 0}))
    for i, (name, start, end, _) in enumerate(spans):
        row = out[spans[roots[i]][0]][name]
        row["self_s"] += own[i]
        row["total_s"] += end - start
        row["calls"] += 1
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile with at least ten
    samples beyond it, or None when the run has too few samples."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, nearest_rank(values, pct)
    return None
