"""Acceptance checks: every release criterion at its stated tolerance.

Each test prints one `criterion N (...): PASS/FAIL ...` line with the
measured numbers before asserting, so the full scorecard is visible in the
test log (run pytest with `-rP`). Criterion 1 currently fails at +5/+10 dB.
The reflector void is not the cause: combined and direct-only coverage at
+10 dB differ by only 6.2e-5. The analytic engine puts each interferer set's
mean gain inside the Laplace exponent, which overstates interference more as
the threshold grows (ROADMAP open item 2); see the README notes.
"""

import math
import time

import numpy as np
import pytest

from riscov.analytics import (
    QuadratureSpec,
    active_prob_bs,
    coverage_direct,
    coverage_probability,
    coverage_small_beta,
)
from riscov.association import (
    assoc_prob_bs,
    assoc_prob_ris,
    assoc_prob_via_ris,
    side_condition,
)
from riscov.beamforming import (
    SteeringAngleSet,
    average_gains,
    direct_gain,
    fejer_kernel,
    optimal_ris_phases,
    reflected_gain_serving,
    ris_array_gain,
)
from riscov.config import NetworkConfig
from riscov.montecarlo import association_frequencies, empirical_coverage, sinr_samples
from riscov.propagation import LinkKind
from riscov.sweeps import (
    BS_DENSITY_GRID,
    RIS_SIZE_GRID,
    TRADEOFF_STEPS,
    UNIT_DENSITY,
    run_sweep,
    validate,
)

CFG = NetworkConfig()


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_cross_engine_coverage():
    """Analytic and sampled coverage agree on the default network."""
    start = time.perf_counter()
    batch = sinr_samples(CFG, 10_000, radius=500.0, seed=11)
    deltas = {}
    for db in (-5.0, 0.0, 5.0, 10.0):
        t = 10.0 ** (db / 10.0)
        ana = coverage_probability(t, CFG).total
        emp = empirical_coverage(t, CFG, 10_000, samples=batch).total
        deltas[db] = ana - emp
    elapsed = time.perf_counter() - start
    worst = max(abs(d) for d in deltas.values())
    listing = " ".join(f"{db:+.0f}dB:{d:+.4f}" for db, d in deltas.items())
    ok = worst <= 0.03 and elapsed < 300.0
    _report(
        1,
        "cross-engine coverage",
        ok,
        f"max|delta|={worst:.4f} limit=0.03 [{listing}] elapsed={elapsed:.0f}s",
    )


def test_criterion_2_no_reflector_consistency():
    """Without reflectors the three coverage routes coincide."""
    cfg = CFG.replace(lambda_ris=0.0)
    thm = coverage_probability(1.0, cfg).total
    direct = coverage_direct(1.0, cfg).total
    emp = empirical_coverage(1.0, cfg, 10_000, seed=11).total
    worst = max(abs(thm - direct), abs(thm - emp), abs(direct - emp))
    _report(
        2,
        "no-reflector consistency",
        worst <= 0.03,
        f"max pairwise delta={worst:.4f} limit=0.03 "
        f"(full={thm:.4f} direct={direct:.4f} sampled={emp:.4f})",
    )


def test_criterion_3_rare_blockage_limit():
    """The reduced evaluator matches the full one when blockage is rare."""
    cfg = CFG.replace(beta=0.001)
    reduced = coverage_small_beta(1.0, cfg).total
    full = coverage_probability(1.0, cfg).total
    diff = abs(reduced - full)
    _report(
        3,
        "rare-blockage limit",
        diff <= 0.02,
        f"|delta|={diff:.4f} limit=0.02 (reduced={reduced:.4f} full={full:.4f})",
    )


def test_criterion_4_association_statistics():
    """Closed-form association masses match empirical frequencies."""
    freq = association_frequencies(CFG, 100_000, seed=5)
    expected = {
        "d_los": assoc_prob_bs(LinkKind.LOS, CFG),
        "d_nlos": assoc_prob_bs(LinkKind.NLOS, CFG),
        "u_los": assoc_prob_ris(LinkKind.LOS, CFG),
        "g_los": assoc_prob_via_ris(LinkKind.LOS, CFG),
        "g_nlos": assoc_prob_via_ris(LinkKind.NLOS, CFG),
    }
    deltas = {key: expected[key] - freq[key] for key in expected}
    worst = max(abs(d) for d in deltas.values())
    listing = " ".join(f"{k}:{d:+.4f}" for k, d in deltas.items())
    _report(
        4,
        "association statistics",
        worst <= 0.015,
        f"max|delta|={worst:.4f} limit=0.015 [{listing}]",
    )


def _chunked_mean(draw, total: int, chunk: int) -> float:
    acc = 0.0
    done = 0
    while done < total:
        k = min(chunk, total - done)
        acc += float(np.sum(draw(k)))
        done += k
    return acc / total


def test_criterion_5_beam_and_reflection_gains():
    """Aligned gains are exact and average gains match sampling oracles."""
    angles = SteeringAngleSet(theta_d=0.7, phi_d=1.9)
    aligned = direct_gain(angles, angles, CFG)
    exact_direct = aligned == pytest.approx(CFG.n_bs * CFG.n_u, rel=1e-12)
    exact_reflected = reflected_gain_serving(CFG) == pytest.approx(
        CFG.n_bs * CFG.n_u * CFG.n_ris**2, rel=1e-12
    )

    # brute force a 4-element reflector over a full 16-level phase grid: no
    # profile may beat the closed-form optimum
    cfg4 = CFG.replace(n_ris=4)
    rng = np.random.default_rng(77)
    grid = np.indices((16,) * 4).reshape(4, -1).T * (2.0 * math.pi / 16.0)
    brute_ok = True
    for _ in range(3):
        theta_u, phi_g = rng.uniform(0.0, 2.0 * math.pi, 2)
        opt = ris_array_gain(
            theta_u, phi_g, optimal_ris_phases(theta_u, phi_g, cfg4), cfg4
        )
        delta = cfg4.d_over_omega * (math.sin(theta_u) - math.sin(phi_g))
        base = 2.0 * math.pi * np.arange(4) * delta
        vals = np.abs(np.exp(1j * (base[None, :] - grid)).sum(axis=1)) ** 2
        brute = float(vals.max())
        brute_ok &= (
            opt == pytest.approx(16.0, rel=1e-12)
            and brute <= opt + 1e-9
            and brute >= 15.0
        )

    # independent sampling oracles for the average misalignment gains
    g = average_gains(CFG)
    delta = CFG.d_over_omega
    rng = np.random.default_rng(2024)

    def two_angle(n):
        def draw(k):
            a, b = rng.uniform(0.0, 2.0 * math.pi, (2, k))
            return fejer_kernel(delta * (np.sin(a) - np.sin(b)), n)

        return _chunked_mean(draw, 10_000_000, 1_000_000)

    def four_angle(n):
        def draw(k):
            a, b, c, d = rng.uniform(0.0, 2.0 * math.pi, (4, k))
            off = delta * (np.sin(a) - np.sin(b) + np.sin(c) - np.sin(d))
            return fejer_kernel(off, n)

        return _chunked_mean(draw, 10_000_000, 1_000_000)

    def idle(n):
        def draw(k):
            phases = rng.uniform(0.0, 2.0 * math.pi, (k, n))
            return np.abs(np.exp(1j * phases).sum(axis=1)) ** 2

        return _chunked_mean(draw, 1_000_000, 20_000)

    oracle = {
        "m_bs_dl": (g.m_bs_dl, two_angle(CFG.n_bs)),
        "m_u_dl": (g.m_u_dl, two_angle(CFG.n_u)),
        "m_r_rl": (g.m_r_rl, four_angle(CFG.n_ris)),
        "m_r_rl_idle": (g.m_r_rl_idle, idle(CFG.n_ris)),
    }
    rel = {k: abs(a - b) / abs(b) for k, (a, b) in oracle.items()}
    worst = max(rel.values())
    listing = " ".join(f"{k}:{r:.2e}" for k, r in rel.items())
    ok = exact_direct and exact_reflected and brute_ok and worst <= 0.005
    _report(
        5,
        "beam and reflection gains",
        ok,
        f"aligned exact={exact_direct and exact_reflected} brute-force={brute_ok} "
        f"max rel err={worst:.2e} limit=5e-3 [{listing}]",
    )


def test_criterion_6_orientation_side_condition():
    """The same-side probability matches wall-orientation sampling."""
    hand_ok = (
        side_condition(120.0, 80.0, math.pi) == pytest.approx(1.0, abs=1e-12)
        and side_condition(50.0, 50.0, math.pi / 2) == pytest.approx(0.75, abs=1e-12)
        and side_condition(50.0, 50.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    )
    rng = np.random.default_rng(31)
    worst = 0.0
    triples = 0
    while triples < 100:
        x, y = rng.uniform(1.0, 300.0, 2)
        upsilon = rng.uniform(0.0, 2.0 * math.pi)
        ris = np.array([y, 0.0])
        bs = x * np.array([math.cos(upsilon), math.sin(upsilon)])
        if np.hypot(*(bs - ris)) < 1.0:  # skip near-degenerate triangles
            continue
        triples += 1
        phi = rng.uniform(0.0, 2.0 * math.pi, 1_000_000)
        normal = np.column_stack((np.cos(phi), np.sin(phi)))
        user_side = normal @ (-ris) > 0.0
        bs_side = normal @ (bs - ris) > 0.0
        # same side of the wall, either orientation; the coated-face factor
        # one-half lives in the reflector densities, not here
        emp = float(np.mean(user_side == bs_side))
        worst = max(worst, abs(side_condition(x, y, upsilon) - emp))
    ok = hand_ok and worst <= 0.005
    _report(
        6,
        "orientation side condition",
        ok,
        f"hand cases={hand_ok} max|delta|={worst:.4f} limit=0.005 over 100 triples",
    )


def test_criterion_7_qualitative_trends():
    """Coverage moves the right way along every default sweep axis."""
    thr = run_sweep("sinr-threshold", CFG, metrics=("p1",))
    t_vals = [r.value for r in thr.rows]
    thr_ok = all(a > b for a, b in zip(t_vals, t_vals[1:]))

    dens = run_sweep("bs-density", CFG, metrics=("p1",))
    d_vals = [r.value for r in dens.rows]
    peak = int(np.argmax(d_vals))
    dens_ok = 0 < peak < len(d_vals) - 1

    # trading base stations for reflectors costs coverage at these settings
    # (reflections also carry interference), but the cost shrinks when
    # blockage is common enough for reflected paths to pay off
    gaps = {}
    for beta in (0.01, 0.005):
        cfg_b = CFG.replace(beta=beta)
        table = run_sweep("ris-density-tradeoff", cfg_b, metrics=("p1", "p_t"))
        p1 = [r.value for r in table.rows if r.metric == "p1"]
        p_t = [r.value for r in table.rows if r.metric == "p_t"]
        best = int(np.argmax(p1))
        gaps[beta] = p1[best] - p_t[best]
    trade_ok = gaps[0.01] > gaps[0.005]

    size = run_sweep("ris-size", CFG, metrics=("p1",))
    s_vals = [r.value for r in size.rows]
    size_ok = all(a < b for a, b in zip(s_vals, s_vals[1:]))

    ok = thr_ok and dens_ok and trade_ok and size_ok
    _report(
        7,
        "qualitative trends",
        ok,
        f"threshold-monotone={thr_ok} density-peak-interior={dens_ok} "
        f"(peak at x{BS_DENSITY_GRID[peak]:g}) tradeoff-gap-order={trade_ok} "
        f"(beta .01:{gaps[0.01]:+.3f} .005:{gaps[0.005]:+.3f}) "
        f"size-monotone={size_ok} over {RIS_SIZE_GRID}",
    )
    assert len(list(TRADEOFF_STEPS)) == 9
    assert UNIT_DENSITY == pytest.approx(1.0 / (math.pi * 500.0**2))


def test_criterion_8_quadrature_stability():
    """Doubling every quadrature resolution leaves coverage within tolerance.

    The resolutions are the serving-geometry node counts q1, q2, q3 and the
    tail-table node count q_tail. The Alzer depth w_alzer is a constant of
    the gamma-dummy approximation, not a resolution: its smoothed step moves
    by about +0.6 dB per doubling without limit, so it is held at its
    default (its drift is pinned by test_series_depth_drift_bounded).
    """
    base = QuadratureSpec()
    doubled = QuadratureSpec(
        q1=2 * base.q1, q2=2 * base.q2, q3=2 * base.q3, q_tail=2 * base.q_tail
    )
    drift = (
        coverage_probability(1.0, CFG, doubled).total
        - coverage_probability(1.0, CFG, base).total
    )
    act_err = abs(
        active_prob_bs(CFG.replace(lambda_u=10.0 * CFG.lambda_bs))
        - (1.0 - 11.0 ** (-3.5))
    )
    ok = abs(drift) < 2e-3 and act_err <= 1e-12
    _report(
        8,
        "quadrature stability",
        ok,
        f"doubling q1,q2,q3,q_tail (w_alzer={base.w_alzer} held) "
        f"drift={drift:+.2e} limit=2e-3; "
        f"activity closed-form err={act_err:.1e} limit=1e-12",
    )


def test_criterion_9_deterministic_validation():
    """Identical validation calls produce byte-identical reports."""
    first = validate(CFG, budget=400, seed=7)
    second = validate(CFG, budget=400, seed=7)
    ok = first.text == second.text
    _report(
        9,
        "deterministic validation",
        ok,
        f"reports identical={ok} ({len(first.text)} bytes, "
        f"{len(first.checks)} checks)",
    )
