import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import hypothesis
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohesive_transport import (ControllerConfig, DivergenceError, PinnedLaplacian,
                                StiffnessChain, TuningInfeasibleError, TuningSpec,
                                UnstableGainError, baseline_gamma_bound,
                                build_pinned_laplacian, dsr_settling_estimate,
                                closed_form_stable, settling_time_estimate,
                                simulate, summarize, tune, tune_gamma)
from cohesive_transport import ScenarioConfig, TrajectorySpec, stability, tuning, write_config
from cohesive_transport.cli import main
from cohesive_transport.dynamics import _run, num_steps
from cohesive_transport.metrics import SETTLING_BAND, Peaks
from cohesive_transport.stability import _mode_roots
from cohesive_transport.tuning import dsr_gains_vs_ts_table, ts_vs_gamma_table

from conftest import DT, step_counts, unit_step_scenario
from strategies import coupling_networks

BAND_LOG = math.log(1.0 / 0.02)  # 2% band needs ln 50 decades of decay


def spec_for(target):
    return TuningSpec(target_settling=target, dt=DT)


def single_mode_chain(stiffness=1.0):
    return StiffnessChain((), (stiffness,))


def single_mode_lap(stiffness=1.0):
    return build_pinned_laplacian(single_mode_chain(stiffness))


def _grid_rate_gain(lap, spec, alpha_range=(0.05, 2.0), alpha_step=0.01):
    """Independent oracle for the rate gain: the grid search the closed
    form replaced. The settling estimate is evaluated on a fixed alpha
    grid, the target is bracketed on its decreasing branch and the
    bracket is bisected. Returns None where the grid holds no bracket.
    The grid's dominant roots come from one broadcast ``_mode_roots`` call,
    which equals the per-gain ``dsr_settling_estimate`` root for root.
    """
    beta = tuning._balance_mode_envelopes(lap, spec)
    a_lo, a_hi = alpha_range
    count = int(round((a_hi - a_lo) / alpha_step)) + 1
    xs = a_lo + alpha_step * np.arange(count)
    z1, _ = _mode_roots(lap.eigenvalues, xs[:, None], beta, spec.dt)
    est = np.array([tuning._decay_to_settling(sigma, spec.dt)
                    for sigma in np.hypot(z1.real, z1.imag).max(axis=-1).tolist()])
    for i in range(int(np.argmin(est))):
        if est[i] >= spec.target_settling >= est[i + 1]:
            lo, hi = xs[i], xs[i + 1]
            break
    else:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dsr_settling_estimate(lap, mid, beta, spec.dt) > spec.target_settling:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def fastest_baseline_settling(lap):
    """T(gamma*): at gamma* = 2/(lam_min + lam_max) both extreme modes
    shrink by (lam_max - lam_min)/(lam_max + lam_min) per sample."""
    decay = (lap.lambda_max - lap.lambda_min) / (lap.lambda_max + lap.lambda_min)
    return DT * math.log(0.02) / math.log(decay)


def test_estimate_reference_gain(lap4):
    estimate = settling_time_estimate(lap4, 1.93, DT)
    # oracle: dominant mode is the smallest eigenvalue at this gain
    decay = 1.0 - 1.93 * lap4.lambda_min
    assert estimate == pytest.approx(DT * BAND_LOG / -math.log(decay), rel=1e-12)
    assert estimate == pytest.approx(10.0, abs=0.1)


def test_estimate_band_identity():
    lap = single_mode_lap(1.0)
    estimate = settling_time_estimate(lap, 0.98, DT)  # decay factor = band
    assert estimate == pytest.approx(DT, rel=1e-12)


def test_estimate_deadbeat_mode():
    lap = single_mode_lap(1.0)
    assert settling_time_estimate(lap, 1.0, DT) == 0.0


def test_estimate_rejects_unstable_gain(lap4):
    with pytest.raises(UnstableGainError, match="unstable gain"):
        settling_time_estimate(lap4, 11.4, DT)
    with pytest.raises(UnstableGainError):
        settling_time_estimate(lap4, 0.0, DT)


def test_tune_gamma_reference_target(chain4, lap4):
    result = tune_gamma(chain4, spec_for(10.0))
    gamma = result.controller.gamma
    assert abs(gamma - 1.93) <= 0.02 * 1.93
    # closed-form inversion of the dominant-mode estimate
    exact = (1.0 - math.exp(-BAND_LOG * DT / 10.0)) / lap4.lambda_min
    assert gamma == pytest.approx(exact, rel=1e-9)
    assert result.predicted_settling == pytest.approx(10.0, rel=1e-9)
    assert result.feasible
    assert result.max_speed == pytest.approx(gamma * 0.05 / DT, rel=1e-9)
    assert result.max_speed < 5.0


def test_tune_gamma_single_mode_closed_form():
    target = 7.0
    result = tune_gamma(single_mode_chain(0.5), spec_for(target))
    exact = (1.0 - math.exp(-BAND_LOG * DT / target)) / 0.5
    assert result.controller.gamma == pytest.approx(exact, rel=1e-9)


def test_tune_gamma_measured_settling_recorded(chain4):
    result = tune_gamma(chain4, spec_for(10.0))
    assert math.isfinite(result.measured_settling)
    # estimate and simulation agree to well within 10% at this gain
    assert result.measured_settling == pytest.approx(result.predicted_settling,
                                                     rel=0.10)


def test_tune_gamma_unreachable_targets(chain4):
    with pytest.raises(TuningInfeasibleError, match="achievable"):
        tune_gamma(chain4, spec_for(0.5))
    with pytest.raises((TuningInfeasibleError, ValueError)):
        tune_gamma(chain4, spec_for(math.inf))


def test_baseline_gain_underflow_is_infeasible(tmp_path, capsys):
    """On 1e20 N/cm springs a 1e308 s target needs a baseline gain below the
    smallest float: the tuner reports it as infeasible and names the target,
    and tune exits 1 with one error line and no output directory."""
    stiff = StiffnessChain((1e20,), (1e20, 1e20))
    with pytest.raises(TuningInfeasibleError, match=re.escape("target 1e+308 s")):
        tune_gamma(stiff, spec_for(1e308))
    config = tmp_path / "stiff.cfg"
    write_config(ScenarioConfig(
        network=stiff, controller=ControllerConfig.baseline(1e-21, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=1.0), duration=1.0), config)
    assert main(["tune", "--config", str(config), "--target-ts", "1e308",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target 1e+308 s") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_target_too_long_to_step_is_infeasible(chain4, tmp_path, capsys):
    """A 1e15 s target's unit step would take 1.6e17 samples at dt = 0.1:
    the tuner refuses it before any step, and tune exits 1 with one error
    line and no output directory, where it once stepped without end."""
    with pytest.raises(TuningInfeasibleError, match="too long to verify"):
        tune_gamma(chain4, TuningSpec(target_settling=1e15, dt=0.1))
    config = tmp_path / "chain4.cfg"
    write_config(unit_step_scenario(chain4, ControllerConfig.baseline(1.93, 0.1)), config)
    assert main(["tune", "--config", str(config), "--target-ts", "1e15",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target 1e+15 s is too long") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_tune_gamma_reaches_the_fastest_settling(chain4, lap4):
    fastest = fastest_baseline_settling(lap4)
    assert fastest == pytest.approx(1.71773, abs=5e-6)
    target = fastest * (1.0 + 1e-6)
    result = tune_gamma(chain4, spec_for(target))
    assert result.controller.gamma <= 2.0 / (lap4.lambda_min + lap4.lambda_max)
    assert result.predicted_settling == pytest.approx(target, rel=1e-9)


def test_tune_gamma_below_the_fastest_settling_quotes_it(chain4, lap4):
    fastest = fastest_baseline_settling(lap4)
    with pytest.raises(TuningInfeasibleError,
                       match=re.escape(f"[{fastest:.9g}, inf) s")):
        tune_gamma(chain4, spec_for(fastest * (1.0 - 1e-6)))


def test_tune_gamma_deterministic_and_reanchorable(chain4):
    first = tune_gamma(chain4, spec_for(10.0))
    second = tune_gamma(chain4, spec_for(10.0))
    assert first.controller.gamma == second.controller.gamma
    # feeding the achieved estimate back as the target returns the same gain
    anchored = tune_gamma(chain4, spec_for(first.predicted_settling))
    assert anchored.controller.gamma == pytest.approx(first.controller.gamma,
                                                      rel=1e-9)


def test_tune_gamma_monotone_in_target(chain4):
    gammas = [tune_gamma(chain4, spec_for(t)).controller.gamma
              for t in (8.0, 10.0, 14.0)]
    assert gammas[0] > gammas[1] > gammas[2]


def test_estimate_tracks_measurement_on_slow_branch(chain4, lap4):
    """Dominant-mode estimate vs simulated 2% settling across the
    interpolation branch: within 10% (the estimate ignores the mode's
    amplitude, which costs a few percent here)."""
    for gamma in (0.5, 1.0, 1.93, 3.0, 5.0, 8.0, 10.5):
        estimate = settling_time_estimate(lap4, gamma, DT)
        trace = simulate(unit_step_scenario(
            chain4, ControllerConfig.baseline(gamma, DT),
            duration=2.2 * estimate))
        measured = summarize(trace, final_value=1.0).settling_time
        assert estimate == pytest.approx(measured, rel=0.10), gamma


def _retry_loop(network, controller, spec):
    """Oracle: the loop the streamed step response replaced. It simulates
    the unit step over 2*max(T, dt), from rest each time, and doubles the
    horizon up to three times until the step ends inside the band. Settling
    and speed are read off each whole trace with plain numpy."""
    duration = 2.0 * max(spec.target_settling, spec.dt)
    for _ in range(4):
        trace = simulate(unit_step_scenario(network, controller, duration))
        speed = float(np.max(np.abs(np.diff(trace.positions, axis=0) / trace.dt)))
        # sample 0, at rest, is always outside the band around 1
        outside = np.flatnonzero(np.any(np.abs(trace.positions - 1.0) > 0.02, axis=1))
        if outside[-1] < trace.num_samples - 1:
            return float(trace.times[outside[-1]]), speed
        duration *= 2.0
    return math.inf, speed


def _outcome(measure, network, controller, spec):
    """(settling, max speed) or ("diverged", step)."""
    try:
        return measure(network, controller, spec)
    except DivergenceError as exc:
        return "diverged", exc.step


def _stream_and_oracle(network, controller, spec):
    """The outcome streamed and by the oracle."""
    return [_outcome(measure, network, controller, spec)
            for measure in (tuning._measure_step_response, _retry_loop)]


_B, _D = ControllerConfig.baseline, ControllerConfig.dsr
# alpha = (1 - sqrt(1 - beta*lam))**2 / (lam*beta*dt) on chain4's lam_min gives
# its mode a double root; at beta = 8 the roots come out equal, at 10.92 apart
# by 2.1e-8
_REPEATED_ALPHA, _NEARLY_REPEATED_ALPHA = 0.4120505051423894, 0.5676477096046304


@pytest.mark.filterwarnings("ignore::cohesive_transport.UnstableControllerWarning")
@pytest.mark.parametrize("controller, target, expected", [
    (_B(1.93, DT), 10.0, 10.59),        # inside the first horizon, 20 s
    (_B(1.93, DT), 3.0, 10.59),         # second, 12 s
    (_B(1.93, DT), 2.0, 10.59),         # third, 16 s
    (_B(0.25, DT), 10.0, 82.08),        # fourth, 160 s
    (_B(1.93, DT), 0.5, math.inf),      # not inside the fourth, 8 s
    (_B(15.0, DT), 1.0, "diverged"),    # at step 48, in the first horizon
    (_B(15.0, DT), 0.3, "diverged"),    # at step 48, in the third
    (_D(0.39, 10.92, DT), 10.0, 9.36),
    (_D(0.39, 10.92, DT), 3.0, 9.36),
    (_D(0.05, 10.92, DT), 10.0, 77.64),
    (_D(0.39, 10.92, DT), 0.5, math.inf),
    (_D(0.39, 10.92, DT, 2), 10.0, 8.91),
    (_D(0.39, 10.92, DT, 3), 3.0, 8.28),
    (_D(0.39, 15.0, DT, 3), 2.0, 9.03),
    (_D(0.39, 30.0, DT), 1.0, "diverged"),
    (_D(0.39, 30.0, DT, 2), 0.3, "diverged"),
    # the tail bound stops these early, at sample 354, 75, 142, 338 and 340
    (_B(1.93, DT), 30.0, 10.59),        # of the first horizon's 2,000
    (_B(9.0, DT), 10.0, 74 * DT),       # of 667 (2.22 s)
    (_D(1.5, 10.0, DT), 10.0, 3.42),
    (_D(0.39, 10.92, DT), 30.0, 9.36),
    (_D(0.39, 5.0, DT), 10.0, 9.36),
    # lam_min's pair of roots repeated (|z1 - z2| = 0) and nearly (2.1e-8):
    # no tail bound, every sample of the first horizon is stepped
    (_D(_REPEATED_ALPHA, 8.0, DT), 10.0, 282 * DT),
    (_D(_NEARLY_REPEATED_ALPHA, 10.92, DT), 10.0, 205 * DT),
])
def test_streamed_step_response_matches_the_retry_loop(chain4, controller, target,
                                                        expected):
    stream, oracle = _stream_and_oracle(chain4, controller, spec_for(target))
    assert stream == oracle
    assert stream[0] == expected


@pytest.mark.filterwarnings("ignore::cohesive_transport.UnstableControllerWarning")
@settings(deadline=None)
@given(coupling_networks(max_robots=5), st.sampled_from(["baseline", "dsr"]),
       st.integers(1, 3), st.floats(0.05, 1.3), st.floats(0.05, 2.0),
       st.floats(0.1, 3.0))
def test_streamed_step_response_matches_the_retry_loop_on_any_network(
        network, kind, delay, gain, alpha, target):
    # gain is a fraction of 2/lam_max, the bound on gamma and about that on beta
    bound = baseline_gamma_bound(build_pinned_laplacian(network))
    controller = (_B(gain * bound, DT) if kind == "baseline"
                  else _D(alpha, gain * bound, DT, delay))
    first_stop, stops = tuning.first_stop, []

    def recorded(tail, now, prev, at, *args):
        stop = first_stop(tail, now, prev, at, *args)
        stops.append(stop == at)
        return stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuning, "first_stop", recorded)
        stream, oracle = _stream_and_oracle(network, controller, spec_for(target))
    assert stream == oracle
    hypothesis.event("stopped by the tail bound" if any(stops) else
                     "no tail bound" if not stops else "tail bound never held")


def test_tune_stops_chain4_where_the_tail_bound_holds(chain4, monkeypatch):
    """At T = 10 s both unit steps settle inside their first horizon, 666
    samples after sample 1; the tail bound stops them at samples 353 and 337."""
    counts = step_counts(monkeypatch)
    tune(chain4, spec_for(10.0))
    assert counts == {"step_baseline": 352, "step_dsr": 336}
    assert num_steps(20.0, DT) - 1 == 666


@pytest.mark.filterwarnings("ignore::cohesive_transport.UnstableControllerWarning")
@pytest.mark.parametrize("controller, target, steps", [
    (_B(15.0, DT), 1.0, 47),                   # unstable: diverges at step 48
    (_D(0.39, 30.0, DT), 1.0, 19),             # unstable: diverges at step 20
    (_D(_REPEATED_ALPHA, 8.0, DT), 10.0, 666),  # a repeated pair of roots
    (_D(_NEARLY_REPEATED_ALPHA, 10.92, DT), 10.0, 666),   # and a nearly repeated one
])
def test_unbounded_tails_step_as_the_horizons_do(chain4, controller, target, steps,
                                                 monkeypatch):
    """Where no tail bound exists the unit step is stepped as the oracle steps
    its first horizon: the same samples, but for the oracle's step from sample
    0 to 1 at rest, to the same divergence or the horizon's end."""
    assert stability.ModalTail.of(build_pinned_laplacian(chain4), controller) is None
    counts = step_counts(monkeypatch)
    outcomes, stepped = [], []
    for measure in (tuning._measure_step_response, _retry_loop):
        counts.clear()
        outcomes.append(_outcome(measure, chain4, controller, spec_for(target)))
        stepped.append(sum(counts.values()))
    assert outcomes[0] == outcomes[1]
    assert stepped == [steps, steps + 1]


def test_a_too_early_prediction_costs_a_retry_not_a_number(chain4, monkeypatch):
    """A first stop predicted halfway to the true one fails at the stepped
    state, which then predicts the stop itself: the same numbers, after the
    same samples."""
    counts = step_counts(monkeypatch)
    stream = [tuning._measure_step_response(chain4, c, spec_for(10.0))
              for c in (_B(1.93, DT), _D(0.39, 10.92, DT))]
    honest = dict(counts)
    first_stop, stops = tuning.first_stop, []

    def early_from_rest(tail, now, prev, at, *args):
        stop = first_stop(tail, now, prev, at, *args)
        stops.append(stop)
        return (at + stop) // 2 if at == 1 else stop

    monkeypatch.setattr(tuning, "first_stop", early_from_rest)
    counts.clear()
    assert [tuning._measure_step_response(chain4, c, spec_for(10.0))
            for c in (_B(1.93, DT), _D(0.39, 10.92, DT))] == stream
    assert dict(counts) == honest
    assert stops == [354, 354, 354, 338, 338, 338]


def test_the_tuners_test_holds_the_band_and_the_peak_move_exactly(chain4, monkeypatch):
    """The test the tuner hands ``first_stop`` accepts a reach of exactly
    SETTLING_BAND and a move one ulp below the peak move so far, and rejects
    the next float above the band and the peak move itself: inf from rest,
    where no move is stepped, then the stepped peak."""
    first_stop, made, judged = tuning.first_stop, [], []

    class RecordedPeaks(Peaks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def judging(tail, now, prev, at, until, end, amplitude, test, *args):
        peak = math.inf if at == 1 else float(made[-1].peak_move)
        above, below = math.nextafter(SETTLING_BAND, math.inf), math.nextafter(peak, 0.0)
        judged.append((bool(test(0.0, SETTLING_BAND, 0.0)), bool(test(0.0, above, 0.0)),
                       bool(test(0.0, 0.0, below)), bool(test(0.0, 0.0, peak))))
        return first_stop(tail, now, prev, at, until, end, amplitude, test, *args)

    monkeypatch.setattr(tuning, "Peaks", RecordedPeaks)
    monkeypatch.setattr(tuning, "first_stop", judging)
    for controller in (_B(1.93, DT), _D(0.39, 10.92, DT)):
        tuning._measure_step_response(chain4, controller, spec_for(10.0))
    assert len(judged) == 4   # per law: from rest, and at the stop it predicts
    assert set(judged) == {(True, False, True, False)}


def settled(peak_move):
    """The tuner's test: inside the band, and no move as large as ``peak_move``."""
    return lambda spread, reach, move: (reach <= SETTLING_BAND) & (move < peak_move)


def test_the_stop_waits_until_no_later_move_can_reach_the_peak(chain4):
    """The reference baseline step may stop at sample 354; given a peak move a
    fifth of the move from there, the stop comes later, and no move after it
    up to the end reaches that peak."""
    lap = build_pinned_laplacian(chain4)
    controller = _B(1.93, DT)
    tail = stability.ModalTail.of(lap, controller)
    end = 1000   # positions[u - 1] is the unit step's sample u
    positions = np.vstack([np.zeros(lap.n)] + [block[1:].copy() for _, block in _run(
        chain4, controller, np.broadcast_to(1.0, (end,)))])
    moves = np.max(np.abs(np.diff(positions, axis=0)), axis=1)   # from sample u: moves[u - 1]
    now, prev = positions[353], positions[352]
    assert stability.first_stop(tail, now, prev, 354, end, end, 1.0, settled(math.inf)) == 354
    peak = moves[353] / 5.0
    stop = stability.first_stop(tail, now, prev, 354, end, end, 1.0, settled(peak))
    assert stop > 354
    assert np.max(moves[stop - 1:]) < peak


def _tuned_or_infeasible(network, spec):
    try:
        return [result.as_dict() for result in tune(network, spec)]
    except TuningInfeasibleError as exc:
        return str(exc)


@pytest.mark.parametrize("target", range(4, 21))
def test_tune_matches_the_retry_loop_on_chain4(chain4, target, monkeypatch):
    streamed = _tuned_or_infeasible(chain4, spec_for(float(target)))
    monkeypatch.setattr(tuning, "_measure_step_response", _retry_loop)
    assert _tuned_or_infeasible(chain4, spec_for(float(target))) == streamed


@settings(deadline=None)
@given(coupling_networks(max_robots=5), st.floats(1.0, 4.0))
def test_tune_matches_the_retry_loop_on_any_network(network, stretch):
    """Both blocks of tune's results, streamed and by the oracle, at a target
    between the cohesive floor 2*T(gamma*) and four times it, within [0.1, 30] s."""
    lap = build_pinned_laplacian(network)
    decay = (lap.lambda_max - lap.lambda_min) / (lap.lambda_max + lap.lambda_min)
    floor = 2.0 * tuning._decay_to_settling(decay, DT)
    target = min(30.0, max(0.1, stretch * floor))
    streamed = _tuned_or_infeasible(network, spec_for(target))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuning, "_measure_step_response", _retry_loop)
        assert _tuned_or_infeasible(network, spec_for(target)) == streamed
    hypothesis.event("infeasible" if isinstance(streamed, str) else "tuned")


@settings(deadline=None)
@given(coupling_networks(max_robots=6), st.sampled_from(["baseline", "dsr"]),
       st.floats(1e-3, 0.999), st.floats(1e-3, 3.0), st.integers(50, 600))
def test_tail_margin_covers_the_rounding_of_every_later_sample(network, kind, gain,
                                                                alpha, samples):
    """From rest, the stepped unit step stays within the rounding margins of
    the modal solution over ``samples`` samples: its positions within the
    position margin, its moves within the move margin. The modal solution is
    evaluated here on its own, with each mode's amplitudes from a Vandermonde
    solve, up to its own rounding, (n + 4) eps times the tail bound."""
    lap = build_pinned_laplacian(network)
    controller = (_B(gain * baseline_gamma_bound(lap), DT) if kind == "baseline"
                  else _D(alpha, gain * baseline_gamma_bound(lap), DT))
    tail = stability.ModalTail.of(lap, controller)
    assume(tail is not None)
    roots = tail.roots
    stepped = np.concatenate([block[1:].copy() for _, block in _run(
        network, controller, np.broadcast_to(1.0, (samples + 1,)))])
    error = np.vstack([np.zeros(lap.n), stepped]) - 1.0       # samples 0..samples
    start = lap.eigenvectors.T @ -np.ones(lap.n)               # at rest: e[0] = e[-1]
    if roots.shape[1] == 1:
        amplitudes = start[:, None]
    else:   # e_k[0] and e_k[1] = (z1 + z2) e_k[0] - z1 z2 e_k[-1]
        z1, z2 = roots.T
        amplitudes = np.linalg.solve(
            np.stack([np.ones_like(roots), roots], axis=1),
            np.stack([start, (z1 + z2 - z1 * z2) * start], axis=1)[..., None])[..., 0]
    powers = roots[None] ** np.arange(samples + 1)[:, None, None]
    solution = ((amplitudes[None] * powers).sum(axis=-1) @ lap.eigenvectors.T).real
    bounds = (np.abs(amplitudes)[None] * np.abs(powers)).sum(axis=-1) @ np.abs(
        lap.eigenvectors).T
    evaluation = (lap.n + 4) * 2.0 ** -52 * bounds
    margin, move_margin = tail.margins(samples, tail.per_sample * (1.0 + bounds.max()))
    drift = np.abs(error - solution)
    assert np.all(drift <= margin + evaluation)
    move_drift = np.abs(np.diff(error, axis=0) - np.diff(solution, axis=0))
    assert np.all(move_drift <= move_margin + evaluation[1:] + evaluation[:-1])
    hypothesis.target(float(np.max(drift / (margin + evaluation))), label="drift / margin")


def test_tune_gamma_holds_no_trace():
    # 16 robots at 4*T(gamma*) = 103 s: a trace of the first horizon alone
    # is four (6,868, 16) float64 arrays, 3.5 MB
    chain = StiffnessChain((0.05,) * 15, (0.05,) + (0.0,) * 15)
    spec = spec_for(4.0 * fastest_baseline_settling(build_pinned_laplacian(chain)))
    tracemalloc.start()
    try:
        result = tune_gamma(chain, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(result.measured_settling)
    assert peak < 1.5e6


@pytest.mark.filterwarnings("ignore::cohesive_transport.UnstableControllerWarning")
def test_step_response_holds_no_reference(chain4):
    """From sample 1 on the unit step is the constant 1, one value with
    stride 0: a 2,000 s target's 1,066,667-sample horizon costs no memory,
    where an array of it would take 8.5 MB. The step diverges at step 48."""
    tracemalloc.start()
    try:
        with pytest.raises(DivergenceError, match="step 48$"):
            tuning._measure_step_response(chain4, _B(15.0, DT), spec_for(2000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_tune_reference_target(chain4, lap4):
    base, result = tune(chain4, spec_for(10.0))
    assert base == tune_gamma(chain4, spec_for(10.0))
    alpha = result.controller.alpha
    beta = result.controller.beta

    assert abs(alpha - 0.39) <= 0.05 * 0.39
    assert abs(beta - 10.92) <= 0.05 * 10.92
    # closed-form anchors: first-order rate guess and envelope balance
    assert abs(4.0 / 10.0 - alpha) / alpha <= 0.05
    balance = 2.0 / (lap4.lambda_min + lap4.lambda_max)
    assert abs(balance - beta) / beta <= 0.05

    assert result.predicted_settling == pytest.approx(10.0, rel=1e-9)
    assert result.feasible
    assert result.spectral_radius < 1.0
    assert result.max_speed <= base.max_speed


def test_tune_cohesive_result_revalidates(chain4, lap4):
    base, result = tune(chain4, spec_for(10.0))
    assert closed_form_stable(lap4, result.controller.alpha, result.controller.beta, DT)
    trace = simulate(unit_step_scenario(chain4, result.controller, duration=25.0))
    speed = float(np.max(np.abs(np.diff(trace.positions, axis=0) / DT)))
    assert speed <= base.max_speed
    assert speed == pytest.approx(result.max_speed, rel=1e-9)


def test_tune_results_as_dicts(chain4):
    base, result = tune(chain4, spec_for(10.0))
    checks = ["predicted_settling_s", "measured_settling_s", "max_speed_cmps",
              "spectral_radius", "feasible"]
    assert list(base.as_dict()) == ["gamma"] + checks
    assert list(result.as_dict()) == ["alpha", "beta"] + checks
    assert result.as_dict()["beta"] == result.controller.beta
    assert base.as_dict()["max_speed_cmps"] == base.max_speed


def test_tune_speed_constraint_binds(chain4, monkeypatch):
    # a baseline that commands 0.01 cm/s leaves the cohesive pair no room
    real = tuning.tune_gamma
    monkeypatch.setattr(tuning, "tune_gamma",
                        lambda network, spec: replace(real(network, spec), max_speed=0.01))
    with pytest.raises(TuningInfeasibleError, match="above the baseline's 0.01 cm/s"):
        tune(chain4, spec_for(10.0))


def test_tune_unreachable_target_fails_before_any_step(chain4, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("an unreachable target simulated a step")

    monkeypatch.setattr(tuning, "_run", no_simulation)
    with pytest.raises(TuningInfeasibleError, match="settling"):
        tune(chain4, spec_for(0.5))
    # the target decay per sample, 0.02**(dt/T), underflows to 0
    with pytest.raises(TuningInfeasibleError, match="underflows"):
        tune(chain4, spec_for(1e-300))


@pytest.mark.parametrize("robots, floor", [(4, 3.43546), (16, 51.3684)])
def test_cohesive_floor_is_named_and_tight(robots, floor):
    """At the balanced beta the lam_min mode decays no faster than
    sqrt(1 - beta*lam_min) = sqrt(r(gamma*)) per sample, so the fastest
    cohesive target is F = 2*T(gamma*): just below it fails naming F,
    just above it both controllers tune."""
    chain = StiffnessChain((0.05,) * (robots - 1), (0.05,) + (0.0,) * (robots - 1))
    lap = build_pinned_laplacian(chain)
    fastest = 2.0 * fastest_baseline_settling(lap)
    assert fastest == pytest.approx(floor, abs=5e-5)
    below, above = spec_for(fastest * (1.0 - 1e-6)), spec_for(fastest * (1.0 + 1e-6))
    assert tuning._balance_mode_envelopes(lap, below) == 2.0 / (lap.lambda_min
                                                               + lap.lambda_max)
    with pytest.raises(TuningInfeasibleError,
                       match=re.escape(f"cohesive floor {fastest:.6g} s")):
        tuning._dsr_gains(lap, below)
    _, cohesive = tune(chain, above)
    assert cohesive.predicted_settling == pytest.approx(above.target_settling, rel=1e-9)


def test_cohesive_floor_extends_the_estimate_in_the_error(lap4):
    with pytest.raises(TuningInfeasibleError) as info:
        tuning._dsr_gains(lap4, spec_for(2.0))
    assert str(info.value) == (
        "no feasible rate gain: target 2 s not reachable with beta = 10.9508; "
        "at alpha = 1.95517, where the lambda_max mode decays at the target rate, "
        "the settling estimate is 12.1708 s; no rate gain settles faster than "
        "the cohesive floor 3.43546 s at this beta")


def test_a_negative_rate_gain_is_not_quoted(chain4, tmp_path, capsys):
    """Under about two samples the rate gain at which the lambda_max mode would
    decay at the target is negative: at 0.01 s it is -1.01415e7. tune exits 1
    saying that no positive rate gain reaches the target decay, and names the
    cohesive floor, without quoting that gain."""
    config = tmp_path / "chain4.cfg"
    write_config(unit_step_scenario(chain4, ControllerConfig.baseline(1.93, DT)), config)
    assert main(["tune", "--config", str(config), "--target-ts", "0.01",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "alpha = -" not in err
    assert err == (
        "error: no feasible rate gain: target 0.01 s not reachable with beta = 1.64891; "
        "no positive rate gain brings the lambda_max mode's root down to the target "
        "decay at this beta; no rate gain settles faster than the cohesive floor "
        "23.4865 s at this beta\n")


def test_rate_gain_matches_the_grid_oracle_on_chain4(lap4):
    for target in range(4, 21):
        spec = spec_for(float(target))
        alpha, beta, report = tuning._dsr_gains(lap4, spec)
        assert alpha == pytest.approx(_grid_rate_gain(lap4, spec), rel=1e-12, abs=0)
        assert beta == tuning._balance_mode_envelopes(lap4, spec)
        assert report.as_dict() == tuning.spectral_radius(lap4, alpha, beta, DT).as_dict()
        assert dsr_settling_estimate(lap4, alpha, beta, DT) == pytest.approx(
            float(target), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(coupling_networks(), st.floats(min_value=1.0, max_value=100.0))
def test_rate_gain_matches_the_grid_oracle_wherever_it_finds_one(network, target):
    lap = build_pinned_laplacian(network)
    spec = spec_for(target)
    oracle = _grid_rate_gain(lap, spec)
    if oracle is None:
        return
    alpha, _, report = tuning._dsr_gains(lap, spec)
    assert alpha == pytest.approx(oracle, rel=1e-12, abs=0)
    assert report.spectral_radius == pytest.approx(
        math.exp(DT * math.log(0.02) / target), rel=1e-13)


def test_rate_gain_tunes_a_32_robot_chain_beyond_the_grid():
    # alpha* = 1.96e-3 lies below the grid's 0.05, which found no bracket
    lap = build_pinned_laplacian(StiffnessChain((0.05,) * 31, (0.05,) + (0.0,) * 31))
    spec = spec_for(2000.0)
    assert _grid_rate_gain(lap, spec) is None
    alpha, beta, report = tuning._dsr_gains(lap, spec)
    assert alpha == pytest.approx(1.956011e-3, rel=1e-6)
    assert closed_form_stable(lap, alpha, beta, DT) and report.stable
    assert dsr_settling_estimate(lap, alpha, beta, DT) == pytest.approx(2000.0, rel=1e-9)


def test_tune_deterministic(chain4):
    assert tune(chain4, spec_for(10.0)) == tune(chain4, spec_for(10.0))


def test_dsr_estimate_matches_spectral_radius(lap4):
    estimate = dsr_settling_estimate(lap4, 0.39, 10.92, DT)
    assert estimate == pytest.approx(10.0, abs=0.1)
    assert dsr_settling_estimate(lap4, 0.39, 20.0, DT) == math.inf


def test_gamma_table_shape(lap4):
    rows = ts_vs_gamma_table(lap4, spec_for(10.0))
    assert len(rows) == 1024
    gammas = [g for g, _ in rows]
    assert gammas == sorted(gammas)
    assert all(t > 0 for _, t in rows)


def test_gamma_table_ignores_the_last_ulps_of_the_spectrum(lap4):
    # the last row sits 1e-12 below the bound 2/lam_max; a table built
    # on gamma*lam_max would move there in its 5th digit
    spec = spec_for(10.0)
    rows = ts_vs_gamma_table(lap4, spec)
    for direction in (-np.inf, np.inf):
        nudged = lap4.eigenvalues
        for _ in range(3):
            nudged = np.nextafter(nudged, direction)
        shifted = PinnedLaplacian(matrix=lap4.matrix, leader_vector=lap4.leader_vector,
                                  eigenvalues=nudged, eigenvectors=lap4.eigenvectors)
        moved = ts_vs_gamma_table(shifted, spec)
        assert moved[-1][1] == rows[-1][1]
        assert np.allclose(moved, rows, rtol=1e-9, atol=0.0)


def test_dsr_table_alpha_decreases_with_target(lap4):
    rows = dsr_gains_vs_ts_table(lap4, spec_for(10.0), targets=[8.0, 10.0, 12.0])
    assert [t for t, *_ in rows] == [8.0, 10.0, 12.0]
    alphas = [a for _, a, _, _ in rows]
    assert alphas[0] > alphas[1] > alphas[2]
    betas = [b for _, _, b, _ in rows]
    assert all(b == pytest.approx(betas[0], rel=1e-6) for b in betas)


def test_dsr_table_runs_no_simulation(lap4, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the gain table simulated a step")

    monkeypatch.setattr(tuning, "_run", no_simulation)
    rows = dsr_gains_vs_ts_table(lap4, spec_for(10.0), targets=[8.0, 10.0, 12.0])
    assert len(rows) == 3


def test_tuning_spec_validation():
    with pytest.raises(ValueError):
        TuningSpec(target_settling=0.0, dt=DT)
    with pytest.raises(ValueError):
        TuningSpec(target_settling=10.0, dt=0.0)
