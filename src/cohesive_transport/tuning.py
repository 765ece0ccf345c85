"""Controller selection for a specified settling time.

Settling estimates use the dominant decay factor of the closed loop:
a mode shrinking by factor r per sample reaches and stays within a
fractional band eps of its target after about

    T = dt * ln(eps) / ln(r)        (ln(1/0.02) = ln 50 ~= 3.9 for 2%)

Baseline: the decay factor is max_k |1 - gamma*lam_k|, so the settling
estimate is swept over the stable gain range and the target is matched
by interpolation plus bisection on the slow (small-gamma) branch. The
curve is not monotone over the whole range - the two extreme modes
trade dominance at gamma = 2/(lam_min + lam_max) - and the small-gamma
branch is the one where the slowest mode rules, so the smallest gain
achieving the target is returned.

Cohesive controller: the two gains do nearly separable jobs. The
reinforcement gain sets how uniformly the modes decay, so it is chosen
to balance the per-mode envelopes |1 - beta*lam_k|, which lands at
2/(lam_min + lam_max) and minimizes the spectral radius surrogate. The
rate gain then sets the overall speed and is solved against the
dominant-root settling estimate, mirroring the baseline procedure. The
result is verified against the closed-form stability condition and a
unit-step simulation for the commanded-speed constraint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .dynamics import ControllerConfig, simulate
from .errors import TuningInfeasibleError, UnstableGainError
from .metrics import SETTLING_BAND
from .network import CouplingNetwork, PinnedLaplacian
from .scenario import ScenarioConfig
from .stability import (baseline_gamma_bound, baseline_spectral_radius,
                        closed_form_stable, spectral_radius)
from .trajectory import TrajectorySpec


@dataclass(frozen=True)
class TuningSpec:
    """Tuning problem: hit ``target_settling`` without commanding more
    than ``speed_limit``, judged on ``reference`` (default: unit step).

    Grid fields control the search resolution; results are refined by
    bisection afterwards, so they only need to bracket the answer.
    """

    target_settling: float
    dt: float
    speed_limit: float = 5.0
    band: float = SETTLING_BAND
    reference: TrajectorySpec = field(
        default_factory=lambda: TrajectorySpec(kind="step", amplitude=1.0))
    gamma_points: int = 1024
    alpha_range: tuple[float, float] = (0.05, 2.0)
    alpha_step: float = 0.01
    beta_points: int = 200

    def __post_init__(self):
        if not self.target_settling > 0:
            raise ValueError("target settling time must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.speed_limit <= 0:
            raise ValueError("speed limit must be positive")
        if not 0 < self.band < 1:
            raise ValueError("band must be a fraction in (0, 1)")


@dataclass(frozen=True)
class TuningResult:
    """Chosen controller with its predicted and simulated behavior."""

    controller: ControllerConfig
    predicted_settling: float
    measured_settling: float
    max_speed: float
    spectral_radius: float
    feasible: bool


def _decay_to_settling(decay: float, dt: float, band: float) -> float:
    if decay >= 1.0:
        return math.inf
    if decay <= 0.0:
        return 0.0
    return dt * math.log(band) / math.log(decay)


def settling_time_estimate(laplacian: PinnedLaplacian, gamma: float,
                           dt: float, band: float = SETTLING_BAND) -> float:
    """Dominant-mode settling estimate for the baseline controller."""
    if not 0 < gamma < baseline_gamma_bound(laplacian):
        raise UnstableGainError(
            f"unstable gain: gamma must lie in (0, "
            f"{baseline_gamma_bound(laplacian):.6g}), got {gamma:.6g}")
    return _decay_to_settling(baseline_spectral_radius(laplacian, gamma), dt, band)


def dsr_settling_estimate(laplacian: PinnedLaplacian, alpha: float,
                          beta: float, dt: float,
                          band: float = SETTLING_BAND) -> float:
    """Dominant-root settling estimate for the cohesive controller."""
    return _decay_to_settling(
        spectral_radius(laplacian, alpha, beta, dt).spectral_radius, dt, band)


def _decreasing_branch_solve(xs: np.ndarray, values: np.ndarray, target: float,
                             func: Callable[[float], float],
                             allow_below_grid: bool) -> float | None:
    """Solve func(x) = target on the decreasing branch of a grid sweep.

    The branch runs from the first grid point to the sweep minimum.
    Returns the smallest solution, refined by bisection, or None when
    the target is not bracketed.
    """
    branch_end = int(np.argmin(values))
    lo = hi = None
    if values[0] < target:
        if not allow_below_grid:
            return None
        lo, hi = xs[0] * 1e-15, xs[0]
    else:
        for i in range(branch_end):
            if values[i] >= target >= values[i + 1]:
                lo, hi = xs[i], xs[i + 1]
                break
        if lo is None:
            return None
    # func is decreasing on [lo, hi] with func(lo) >= target >= func(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if func(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def _network_from_laplacian(laplacian: PinnedLaplacian) -> CouplingNetwork:
    """Recover the stiffness topology from K's off-diagonals."""
    k = laplacian.matrix
    couplings = {}
    n = laplacian.n
    for i in range(n):
        for j in range(i + 1, n):
            if k[i, j] != 0.0:
                couplings[(i, j)] = -float(k[i, j])
    return CouplingNetwork(n=n, couplings=couplings,
                           leader_stiffness=tuple(laplacian.leader_vector))


def _measure_step_response(laplacian: PinnedLaplacian, controller: ControllerConfig,
                           spec: TuningSpec) -> tuple[float, float]:
    """Simulate the tuning reference and return (settling, max speed)."""
    network = _network_from_laplacian(laplacian)
    duration = 2.0 * max(spec.target_settling, spec.dt)
    for _ in range(4):
        scenario = ScenarioConfig(network=network, controller=controller,
                                  trajectory=spec.reference, duration=duration)
        trace = simulate(scenario)
        settled = metrics.measured_settling_time(trace, spec.reference.amplitude,
                                                 spec.band)
        if math.isfinite(settled):
            return settled, metrics.max_speed(trace)
        duration *= 2.0
    return math.inf, metrics.max_speed(trace)


def tune_gamma(laplacian: PinnedLaplacian, spec: TuningSpec) -> TuningResult:
    """Baseline gain for a target settling time.

    Sweeps the stable range, interpolates the settling-estimate curve
    on its slow branch, and verifies the result on a simulated step.
    """
    gbar = baseline_gamma_bound(laplacian)
    xs = np.linspace(gbar / spec.gamma_points, gbar * (1.0 - 1e-12),
                     spec.gamma_points)
    est = np.array([settling_time_estimate(laplacian, g, spec.dt, spec.band)
                    for g in xs])
    achievable_min = float(np.min(est))
    if not math.isfinite(spec.target_settling) or spec.target_settling < achievable_min:
        raise TuningInfeasibleError(
            f"target {spec.target_settling:.6g} s is outside the achievable "
            f"settling range [{achievable_min:.6g}, inf) s for gains in "
            f"(0, {gbar:.6g})")
    gamma = _decreasing_branch_solve(
        xs, est, spec.target_settling,
        lambda g: settling_time_estimate(laplacian, g, spec.dt, spec.band),
        allow_below_grid=True)
    if gamma is None:
        raise TuningInfeasibleError(
            f"target {spec.target_settling:.6g} s not bracketed on the "
            "slow-mode branch")
    controller = ControllerConfig.baseline(gamma, spec.dt)
    measured, vmax = _measure_step_response(laplacian, controller, spec)
    return TuningResult(
        controller=controller,
        predicted_settling=settling_time_estimate(laplacian, gamma, spec.dt,
                                                  spec.band),
        measured_settling=measured,
        max_speed=vmax,
        spectral_radius=baseline_spectral_radius(laplacian, gamma),
        feasible=vmax <= spec.speed_limit,
    )


def _balance_mode_envelopes(laplacian: PinnedLaplacian, spec: TuningSpec) -> float:
    """Reinforcement gain minimizing max_k |1 - beta*lam_k|.

    The envelope is the convex upper hull of per-mode V curves, so a
    grid argmin plus ternary refinement finds the unique minimum. The
    grid is capped at the stability bound for a first-order guess of
    the rate gain, keeping every candidate usable downstream.
    """
    alpha_guess = math.log(1.0 / spec.band) / spec.target_settling
    cap = 4.0 / (laplacian.lambda_max * (alpha_guess * spec.dt + 2.0))
    xs = np.linspace(cap / spec.beta_points, cap * (1.0 - 1e-9), spec.beta_points)

    def envelope(b: float) -> float:
        return max(abs(1.0 - b * lam) for lam in laplacian.eigenvalues)

    values = np.array([envelope(b) for b in xs])
    best = int(np.argmin(values))
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, len(xs) - 1)]
    for _ in range(200):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if envelope(m1) <= envelope(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def tune_dsr(laplacian: PinnedLaplacian, spec: TuningSpec,
             v_nodsr: float) -> TuningResult:
    """Cohesive gains for a target settling time under a speed cap.

    ``v_nodsr`` is the peak commanded speed of the tuned baseline on
    the same reference; the cohesive controller must not exceed it.
    The reinforcement gain balances the mode envelopes, the rate gain
    matches the settling estimate, and the pair is then checked against
    the closed-form stability condition and the simulated speed.
    """
    beta = _balance_mode_envelopes(laplacian, spec)

    a_lo, a_hi = spec.alpha_range
    count = int(round((a_hi - a_lo) / spec.alpha_step)) + 1
    xs = a_lo + spec.alpha_step * np.arange(count)
    est = np.array([dsr_settling_estimate(laplacian, a, beta, spec.dt, spec.band)
                    for a in xs])
    alpha = _decreasing_branch_solve(
        xs, est, spec.target_settling,
        lambda a: dsr_settling_estimate(laplacian, a, beta, spec.dt, spec.band),
        allow_below_grid=False)
    if alpha is None:
        finite = est[np.isfinite(est)]
        raise TuningInfeasibleError(
            f"no feasible rate gain: target {spec.target_settling:.6g} s not "
            f"reachable with beta = {beta:.6g}; grid of {len(xs)} gains in "
            f"[{a_lo:g}, {a_hi:g}] spans settling estimates "
            f"[{np.min(finite):.6g}, {np.max(finite):.6g}] s")
    if not closed_form_stable(laplacian, alpha, beta, spec.dt):
        raise TuningInfeasibleError(
            f"tuned gains (alpha={alpha:.6g}, beta={beta:.6g}) violate the "
            "stability condition")

    controller = ControllerConfig.dsr(alpha, beta, spec.dt)
    measured, vmax = _measure_step_response(laplacian, controller, spec)
    if vmax > v_nodsr:
        raise TuningInfeasibleError(
            f"no feasible point: tuned gains command {vmax:.6g} cm/s, above "
            f"the baseline's {v_nodsr:.6g} cm/s")
    report = spectral_radius(laplacian, alpha, beta, spec.dt)
    return TuningResult(
        controller=controller,
        predicted_settling=dsr_settling_estimate(laplacian, alpha, beta,
                                                 spec.dt, spec.band),
        measured_settling=measured,
        max_speed=vmax,
        spectral_radius=report.spectral_radius,
        feasible=report.stable and vmax <= v_nodsr,
    )


def ts_vs_gamma_table(laplacian: PinnedLaplacian,
                      spec: TuningSpec) -> list[tuple[float, float]]:
    """(gamma, settling estimate) rows across the stable range."""
    gbar = baseline_gamma_bound(laplacian)
    xs = np.linspace(gbar / spec.gamma_points, gbar * (1.0 - 1e-12),
                     spec.gamma_points)
    return [(float(g),
             settling_time_estimate(laplacian, float(g), spec.dt, spec.band))
            for g in xs]


def dsr_gains_vs_ts_table(laplacian: PinnedLaplacian, spec: TuningSpec,
                          targets: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """(target, alpha, beta, spectral radius) for a range of settling
    targets; rows with unreachable targets are skipped."""
    rows = []
    for target in targets:
        try:
            result = tune_dsr(laplacian, replace(spec, target_settling=float(target)),
                              v_nodsr=math.inf)
        except TuningInfeasibleError:
            continue
        rows.append((float(target), result.controller.alpha,
                     result.controller.beta, result.spectral_radius))
    return rows
