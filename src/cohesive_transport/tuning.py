"""Controller selection for a specified settling time.

Settling estimates use the dominant decay factor of the closed loop:
a mode shrinking by factor r per sample reaches and stays within a
fractional band eps of its target after about

    T = dt * ln(eps) / ln(r)        (ln(1/0.02) = ln 50 ~= 3.9 for 2%)

Baseline: the decay factor is max_k |1 - gamma*lam_k|. The two extreme
modes trade dominance at gamma* = 2/(lam_min + lam_max), where the
estimate is smallest. Below gamma* the slowest mode rules,
r = 1 - gamma*lam_min, and the estimate inverts in closed form:

    gamma = -expm1(dt * ln(eps) / T) / lam_min.

A target is reachable iff this gain does not exceed gamma*; it is
then the smallest gain achieving the target.

Cohesive controller: the two gains do nearly separable jobs. The
reinforcement gain sets how uniformly the modes decay, so it balances
the per-mode envelopes |1 - beta*lam_k|. Their maximum is smallest
where the extreme modes cross, beta = 2/(lam_min + lam_max), which is
capped just below the stability bound for a first-order guess of the
rate gain. The rate gain then sets the overall speed. With
c_k = 1 - beta*lam_k, mode k's characteristic quadratic

    D_k(z) = (z - 1)(z - c_k) + alpha*beta*dt*lam_k*z

is linear in alpha, so D_k(r) = 0 at the target decay r = eps**(dt/T)
inverts in closed form:

    alpha_k(r) = (1 - r)/(dt*r) * (1 - (1 - r)/(beta*lam_k)).

As alpha grows each mode's larger real root falls from 1, reaching r
at alpha_k(r), which increases with lam_k; complex pairs (|z| =
sqrt(c_k)) and the lam_max mode's negative root do not fall. So
alpha_{lam_max}(r) is the smallest gain that can reach the target, and
one spectral radius there decides whether it does. The result is also
checked against the closed-form stability condition and a unit-step
simulation for the commanded-speed constraint.

The cohesive floor: D_k's roots multiply to c_k, so for c_k > 0 one has
magnitude >= sqrt(c_k) whatever alpha. The lam_min mode, with the largest
c_k, puts every target below F = dt*ln(eps) / (1/2 * ln(1 - beta*lam_min))
out of reach (there is no floor if 1 - beta*lam_min <= 0). At the balanced
beta, 1 - beta*lam_min is the baseline's decay at gamma*, so
F = 2*T(gamma*); a capped beta raises F.

The unit step is stepped once, up to 16 T, as a batch of one run checked a
block at a time, keeping only its last sample outside the band and its largest
move per sample. It is judged at the first horizon 2*T*2**k (k = 0..3) that
ends inside the band; stepping stops earlier where the modal tail bound
(``stability.first_stop``, shared with the cutoff sweep) proves that no later
sample can change those numbers, so tuning.json keeps its bits
(``_measure_step_response``). Where ``stability.ModalTail.of`` finds no bound,
the step runs to the horizon; ``tune`` builds N = 1 controllers only. A target
is infeasible if 16 T/dt exceeds MAX_STEP_SAMPLES, over an hour's stepping
(2e8 suffice for the shortest target both controllers reach on a 1024-robot
chain at dt = 0.03).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import MAX_STEP_SAMPLES, ControllerConfig, _run, num_steps
# not called here: perfbench's test_tracer_restores_every_rebound_name reads this copy
from .dynamics import simulate  # noqa: F401
from .errors import DivergenceError, TuningInfeasibleError, UnstableGainError
from .metrics import SETTLING_BAND, Peaks
from .network import CouplingNetwork, PinnedLaplacian, build_pinned_laplacian
from .stability import (ModalTail, StabilityReport, _beta_bound, baseline_gamma_bound,
                        baseline_spectral_radius, closed_form_stable, first_stop,
                        spectral_radius)

# rounding allowed between the target decay and the root that meets it
_ROOT_RTOL = 8 * 2.0 ** -52
SPEED_LIMIT = 5.0          # cm/s, the baseline's commanded-speed cap


@dataclass(frozen=True)
class TuningSpec:
    """Tuning problem: settle a unit step to SETTLING_BAND within
    ``target_settling`` (s), sampled every ``dt`` (s)."""

    target_settling: float
    dt: float

    def __post_init__(self):
        if not 0 < self.target_settling < math.inf:
            raise ValueError("target settling time must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")


@dataclass(frozen=True)
class TuningResult:
    """Chosen controller with its predicted and simulated behavior."""

    controller: ControllerConfig
    predicted_settling: float
    measured_settling: float
    max_speed: float
    spectral_radius: float
    feasible: bool

    def as_dict(self) -> dict:
        """tuning.json's block: the controller's gains, then its checks."""
        ctl = self.controller
        gains = ({"gamma": ctl.gamma} if ctl.kind == "baseline"
                 else {"alpha": ctl.alpha, "beta": ctl.beta})
        return {**gains, "predicted_settling_s": self.predicted_settling,
                "measured_settling_s": self.measured_settling,
                "max_speed_cmps": self.max_speed,
                "spectral_radius": self.spectral_radius, "feasible": self.feasible}


def _decay_to_settling(decay: float, dt: float) -> float:
    if decay >= 1.0:
        return math.inf
    if decay <= 0.0:
        return 0.0
    return dt * math.log(SETTLING_BAND) / math.log(decay)


def settling_time_estimate(laplacian: PinnedLaplacian, gamma: float,
                           dt: float) -> float:
    """Dominant-mode settling estimate for the baseline controller."""
    if not 0 < gamma < baseline_gamma_bound(laplacian):
        raise UnstableGainError(
            f"unstable gain: gamma must lie in (0, "
            f"{baseline_gamma_bound(laplacian):.6g}), got {gamma:.6g}")
    return _decay_to_settling(baseline_spectral_radius(laplacian, gamma), dt)


def dsr_settling_estimate(laplacian: PinnedLaplacian, alpha: float,
                          beta: float, dt: float) -> float:
    """Dominant-root settling estimate for the cohesive controller."""
    return _decay_to_settling(
        spectral_radius(laplacian, alpha, beta, dt).spectral_radius, dt)


def _measure_step_response(network: CouplingNetwork,
                           controller: ControllerConfig,
                           spec: TuningSpec) -> tuple[float, float]:
    """(settling, max speed) of the unit step up to the first horizon that ends
    inside the band, else (inf, max speed) up to the last.

    Stepping stops earlier, at the first sample c from which the modal tail
    bound (``stability.first_stop``, with A = 1 and C = 0) proves that every
    sample up to the last horizon stays inside the band and moves less than the
    peak move so far: no later sample can then change the numbers. The first c
    is predicted from rest. At c the bound is derived again from the stepped
    positions, so rounding before c does not count; where it does not hold yet,
    the stepped state predicts the next c. Where ``ModalTail.of`` finds no
    bound, every horizon is stepped.

    The unit step is handed to ``_run`` as a batch of one run, so it takes the
    block route on every network: it is stepped a block at a time, each block
    ending at a horizon or a predicted stop and checked before it is yielded,
    and row 0 of each (samples, 1, n) block is reduced. A diverging step
    raises at the sample its public step would, after its block is stepped.
    """
    horizons = [num_steps(2.0 * max(spec.target_settling, spec.dt) * 2.0 ** k, spec.dt)
                for k in range(4)]
    if horizons[-1] > MAX_STEP_SAMPLES:
        raise TuningInfeasibleError(f"target {spec.target_settling:.9g} s is too long to "
                                    f"verify: its unit step takes {horizons[-1]} samples")
    # samples 0 and 1 are at rest: step from sample 1 on a constant 1, stride 0,
    # as a batch of one run
    reference = np.broadcast_to(1.0, (horizons[-1], 1))
    ends = {h - 1 for h in horizons}   # _run's sample m is the unit step's m + 1
    laplacian = build_pinned_laplacian(network)
    tail = ModalTail.of(laplacian, controller)
    peaks, peak_move = Peaks(final_value=1.0), math.inf   # no move is stepped from rest

    def final(spread, reach, move):   # inside the band, and no move reaches the peak
        return (reach <= SETTLING_BAND) & (move < peak_move)

    rest = np.zeros(laplacian.n)
    stop = (None if tail is None else
            first_stop(tail, rest, rest, 1, horizons[-1], horizons[-1], 1.0, final))
    if stop is not None:
        ends.add(stop - 1)
    try:
        for m, batch in _run(network, controller, reference, ends=ends):
            block = batch[:, 0]
            peaks.add(m + 1, block)
            if peaks.end in horizons and peaks.last_outside < peaks.end:
                break
            if peaks.end == stop:
                peak_move = peaks.peak_move
                stop = first_stop(tail, block[-1], block[-2], stop, horizons[-1],
                                  horizons[-1], 1.0, final)
                if stop == peaks.end and peaks.last_outside < stop:
                    break
                if stop is not None:
                    ends.add(stop - 1)
    except DivergenceError as exc:   # count steps from sample 0
        raise DivergenceError(exc.step + 1) from None
    return float(peaks.settling_time(spec.dt)), float(peaks.peak_move / spec.dt)


def tune_gamma(network: CouplingNetwork,
               spec: TuningSpec) -> TuningResult:
    """Baseline gain for a target settling time.

    Inverts the settling estimate on its slow branch in closed form
    and verifies the result on a simulated unit step, judged at the first
    horizon 2*T*2**k that ends inside the band; stepping stops earlier where
    the modal tail bound proves the rest cannot change the numbers.
    """
    laplacian = build_pinned_laplacian(network)
    gamma_star = 2.0 / (laplacian.lambda_min + laplacian.lambda_max)
    gamma = -math.expm1(spec.dt * math.log(SETTLING_BAND)
                        / spec.target_settling) / laplacian.lambda_min
    if not gamma > 0.0:
        raise TuningInfeasibleError(f"target {spec.target_settling:.9g} s is too long: "
                                    "the baseline gain for it underflows to 0")
    if gamma > gamma_star:
        fastest = settling_time_estimate(laplacian, gamma_star, spec.dt)
        raise TuningInfeasibleError(
            f"target {spec.target_settling:.9g} s is outside the achievable "
            f"settling range [{fastest:.9g}, inf) s for gains in "
            f"(0, {baseline_gamma_bound(laplacian):.6g})")
    controller = ControllerConfig.baseline(gamma, spec.dt)
    measured, vmax = _measure_step_response(network, controller, spec)
    radius = baseline_spectral_radius(laplacian, gamma)
    return TuningResult(
        controller=controller,
        predicted_settling=_decay_to_settling(radius, spec.dt),
        measured_settling=measured,
        max_speed=vmax,
        spectral_radius=radius,
        feasible=vmax <= SPEED_LIMIT,
    )


def _balance_mode_envelopes(laplacian: PinnedLaplacian, spec: TuningSpec) -> float:
    """Reinforcement gain minimizing max_k |1 - beta*lam_k|.

    The envelope is the upper hull of per-mode V curves, smallest where
    the extreme modes cross. The gain is capped just below the
    stability bound for a first-order guess of the rate gain, keeping
    it usable downstream.
    """
    alpha_guess = math.log(1.0 / SETTLING_BAND) / spec.target_settling
    cap = _beta_bound(laplacian.lambda_max, alpha_guess, spec.dt)
    return min(2.0 / (laplacian.lambda_min + laplacian.lambda_max),
               cap * (1.0 - 1e-9))


def _dsr_gains(laplacian: PinnedLaplacian,
               spec: TuningSpec) -> tuple[float, float, StabilityReport]:
    """(alpha, beta) matching the settling estimate, with the stability
    report that verified them."""
    beta = _balance_mode_envelopes(laplacian, spec)
    log_decay = spec.dt * math.log(SETTLING_BAND) / spec.target_settling
    decay, shortfall = math.exp(log_decay), -math.expm1(log_decay)  # r, 1 - r
    if decay == 0.0:
        raise TuningInfeasibleError(f"target {spec.target_settling:.6g} s is shorter "
                                    "than a sample can settle: its decay underflows")
    alpha = (shortfall / (spec.dt * decay)
             * (1.0 - shortfall / (beta * laplacian.lambda_max)))
    report = spectral_radius(laplacian, alpha, beta, spec.dt)
    if not report.spectral_radius <= decay * (1.0 + _ROOT_RTOL):
        reached = _decay_to_settling(report.spectral_radius, spec.dt)
        c_min = 1.0 - beta * laplacian.lambda_min
        floor = _decay_to_settling(math.sqrt(c_min), spec.dt) if c_min > 0.0 else 0.0
        raise TuningInfeasibleError(
            f"no feasible rate gain: target {spec.target_settling:.6g} s not "
            f"reachable with beta = {beta:.6g}; "
            + (f"at alpha = {alpha:.6g}, where the lambda_max mode decays at the target "
               f"rate, the settling estimate is {reached:.6g} s" if alpha > 0.0 else
               "no positive rate gain brings the lambda_max mode's root down to the "
               "target decay at this beta")
            + (f"; no rate gain settles faster than the cohesive floor {floor:.6g} s "
               "at this beta" if spec.target_settling < floor else ""))
    if not closed_form_stable(laplacian, alpha, beta, spec.dt):
        raise TuningInfeasibleError(f"tuned gains (alpha={alpha:.6g}, beta={beta:.6g}) "
                                    "violate the stability condition")
    return alpha, beta, report


def tune(network: CouplingNetwork,
         spec: TuningSpec) -> tuple[TuningResult, TuningResult]:
    """(baseline, cohesive) tuned to one settling target.

    The cohesive gains are found first, before any step is simulated;
    then the baseline is tuned, and the cohesive unit step must not
    command more speed than the baseline's. Both unit steps are judged as in
    ``tune_gamma``, stopped early where the modal tail bound allows.
    """
    alpha, beta, report = _dsr_gains(build_pinned_laplacian(network), spec)
    base = tune_gamma(network, spec)
    controller = ControllerConfig.dsr(alpha, beta, spec.dt)
    measured, vmax = _measure_step_response(network, controller, spec)
    if vmax > base.max_speed:
        raise TuningInfeasibleError(f"no feasible point: tuned gains command {vmax:.6g} "
                                    f"cm/s, above the baseline's {base.max_speed:.6g} cm/s")
    sigma = report.spectral_radius
    return base, TuningResult(controller=controller,
                              predicted_settling=_decay_to_settling(sigma, spec.dt),
                              measured_settling=measured, max_speed=vmax,
                              spectral_radius=sigma, feasible=report.stable)


def ts_vs_gamma_table(laplacian: PinnedLaplacian,
                      spec: TuningSpec) -> list[tuple[float, float]]:
    """(gamma, settling estimate) rows across the stable range."""
    # The rows are built on the fraction s of the stable bound 2/lam_max,
    # not on gamma: the last row sits 1e-12 below the bound, where
    # rounding gamma*lam_max moves the settling estimate in its 5th digit.
    # On fractions the binding mode's multiplier is exactly 1 - 2s, so
    # the table does not depend on the last ulps of the spectrum.
    fractions = np.linspace(1.0 / 1024, 1.0 - 1e-12, 1024)   # 1,024 rows
    ratios = laplacian.eigenvalues / laplacian.lambda_max
    decay = np.max(np.abs(1.0 - 2.0 * fractions[:, None] * ratios), axis=1)
    gammas = baseline_gamma_bound(laplacian) * fractions
    return [(float(g), _decay_to_settling(float(r), spec.dt))
            for g, r in zip(gammas, decay)]


def dsr_gains_vs_ts_table(laplacian: PinnedLaplacian, spec: TuningSpec,
                          targets: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """(target, alpha, beta, spectral radius) for a range of settling
    targets; rows with unreachable targets are skipped."""
    rows = []
    for target in targets:
        try:
            alpha, beta, report = _dsr_gains(
                laplacian, replace(spec, target_settling=float(target)))
        except TuningInfeasibleError:
            continue
        rows.append((float(target), alpha, beta, report.spectral_radius))
    return rows
