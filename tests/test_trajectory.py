import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohesive_transport import (ControllerConfig, CouplingNetwork, DivergenceError,
                                ScenarioConfig, StiffnessChain, SweepRow, TrajectorySpec,
                                build_pinned_laplacian, cutoff_sweep, dynamics, load_config,
                                reference_series, simulate, stability, trajectory)
from cohesive_transport.cli import _DEFAULT_SWEEP
from cohesive_transport.dynamics import _BLOCK_VALUES, _run, num_steps
from cohesive_transport.metrics import Peaks

from conftest import CONFIG_DIR, step_counts
from strategies import coupling_networks

DT = 0.03


def tustin_coefficients(cutoff, dt):
    wd = cutoff * dt
    return (2.0 - wd) / (2.0 + wd), wd / (2.0 + wd)


def closed_form_filtered(amplitude, cutoff, dt, steps):
    """Independent route for a step switching on at m=1: first-order
    recursion solved explicitly, y[m] = A(1 - (1-feed)*keep^(m-1))."""
    keep, feed = tustin_coefficients(cutoff, dt)
    y = np.zeros(steps + 1)
    m = np.arange(1, steps + 1)
    y[1:] = amplitude * (1.0 - (1.0 - feed) * keep ** (m - 1))
    return y


def test_zero_amplitude_is_identically_zero():
    spec = TrajectorySpec(kind="filtered_step", amplitude=0.0, cutoff=0.1)
    assert np.all(reference_series(spec, DT, 500) == 0.0)


def test_first_sample_value():
    spec = TrajectorySpec(kind="filtered_step", amplitude=50.0, cutoff=0.1)
    expected = 50.0 * (0.1 * DT) / (2.0 + 0.1 * DT)  # only y_ds[1] contributes
    assert reference_series(spec, DT, 1)[1] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.0749, abs=5e-5)


def test_matches_closed_form():
    spec = TrajectorySpec(kind="filtered_step", amplitude=50.0, cutoff=0.1)
    series = reference_series(spec, DT, 2000)
    assert np.allclose(series, closed_form_filtered(50.0, 0.1, DT, 2000),
                       rtol=1e-12, atol=1e-12)


def test_unit_dc_gain():
    # a constant already-converged signal is a fixed point of the filter
    keep, feed = tustin_coefficients(0.1, DT)
    assert keep + 2.0 * feed == pytest.approx(1.0, abs=1e-15)


def test_reaches_98_percent_by_four_time_constants():
    spec = TrajectorySpec(kind="filtered_step", amplitude=50.0, cutoff=0.1)
    series = reference_series(spec, DT, 1500)
    tsf_index = int(round(4.0 / 0.1 / DT))  # 40 s
    assert series[tsf_index] >= 0.98 * 50.0
    assert series[1000] < 50.0  # still converging from below


def test_monotone_and_converging():
    spec = TrajectorySpec(kind="filtered_step", amplitude=50.0, cutoff=0.1)
    series = reference_series(spec, DT, 4000)
    assert np.all(np.diff(series) >= 0)
    assert series[-1] == pytest.approx(50.0, rel=1e-4)


def test_linearity_in_amplitude():
    small = reference_series(TrajectorySpec("filtered_step", 1.0, 0.1), DT, 400)
    large = reference_series(TrajectorySpec("filtered_step", -7.5, 0.1), DT, 400)
    assert np.allclose(large, -7.5 * small, rtol=1e-12, atol=1e-15)


def test_geometric_error_decay():
    spec = TrajectorySpec(kind="filtered_step", amplitude=10.0, cutoff=0.25)
    series = reference_series(spec, DT, 300)
    keep, _ = tustin_coefficients(0.25, DT)
    err = 10.0 - series
    ratios = err[2:] / err[1:-1]
    assert np.allclose(ratios, keep, rtol=1e-9)


def test_plain_step():
    spec = TrajectorySpec(kind="step", amplitude=2.0)
    series = reference_series(spec, DT, 5)
    assert np.array_equal(series, [0.0, 2.0, 2.0, 2.0, 2.0, 2.0])


def test_step_start_index_zero():
    spec = TrajectorySpec(kind="step", amplitude=2.0, start_index=0)
    assert np.all(reference_series(spec, DT, 5) == 2.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        TrajectorySpec(kind="ramp", amplitude=1.0)
    with pytest.raises(ValueError, match="cutoff"):
        TrajectorySpec(kind="filtered_step", amplitude=1.0)
    with pytest.raises(ValueError, match="finite"):
        TrajectorySpec(kind="step", amplitude=float("inf"))
    with pytest.raises(ValueError, match="start_index"):
        TrajectorySpec(kind="step", amplitude=1.0, start_index=-1)


def test_tustin_validity_guard():
    spec = TrajectorySpec(kind="filtered_step", amplitude=1.0, cutoff=100.0)
    with pytest.raises(ValueError, match="Tustin"):
        reference_series(spec, DT, 10)


def test_cutoff_sweep_reference_point_and_monotonicity():
    scenario = load_config(CONFIG_DIR / "chain4_baseline.cfg")
    cutoffs = [0.001, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2]
    rows = cutoff_sweep(scenario, cutoffs)

    assert [r.omega_c for r in rows] == sorted(cutoffs)
    anchor = next(r for r in rows if r.omega_c == 0.1)
    assert anchor.max_deformation == pytest.approx(5.824, rel=0.05)
    assert anchor.max_deformation < 7.0
    assert anchor.max_speed <= 5.0

    deformations = [r.max_deformation for r in rows]
    assert deformations == sorted(deformations)  # slower reference, flatter object
    assert rows[0].max_deformation < 0.2  # quasi-static limit


def _assert_matches_one_run_per_cutoff(scenario, cutoffs, rel=1e-12):
    rows = cutoff_sweep(scenario, cutoffs)
    assert [r.omega_c for r in rows] == sorted(cutoffs)
    for row in rows:
        trajectory = replace(scenario.trajectory, kind="filtered_step",
                             cutoff=row.omega_c)
        y = simulate(replace(scenario, trajectory=trajectory)).positions
        deformation = np.max(y.max(axis=1) - y.min(axis=1))
        speed = np.max(np.abs(np.diff(y, axis=0) / scenario.controller.dt))
        assert row.max_deformation == pytest.approx(deformation, rel=rel, abs=0.0)
        assert row.max_speed == pytest.approx(speed, rel=rel, abs=0.0)


@pytest.mark.parametrize("config", ["chain4_baseline.cfg", "chain4_dsr.cfg"])
def test_batched_sweep_matches_one_run_per_cutoff(config):
    # unsorted, with a duplicate; each row is its single run bit for bit
    _assert_matches_one_run_per_cutoff(load_config(CONFIG_DIR / config),
                                       [0.3, 0.05, 0.1, 0.05, 0.02], rel=0.0)


def test_sweep_of_no_cutoffs_is_empty():
    assert cutoff_sweep(load_config(CONFIG_DIR / "chain4_baseline.cfg"), []) == []


@pytest.mark.parametrize("config", ["chain4_baseline.cfg", "chain4_dsr.cfg"])
def test_sweep_of_a_run_with_no_steps_has_zero_peaks(config):
    """A 1e-12 s run has sample 0 alone, at rest, as its single run's trace
    does: each row's deformation and speed are 0."""
    scenario = replace(load_config(CONFIG_DIR / config),
                       trajectory=TrajectorySpec("step", 50.0, start_index=0), duration=1e-12)
    assert simulate(scenario).num_samples == 1
    assert cutoff_sweep(scenario, [0.2, 0.1]) == [SweepRow(0.1, 0.0, 0.0),
                                                  SweepRow(0.2, 0.0, 0.0)]


@settings(max_examples=25, deadline=None)
@given(coupling_networks(max_robots=6), st.sampled_from(["baseline", "dsr"]),
       st.lists(st.floats(0.02, 1.0), max_size=4))
# a batched y @ K.T (a matrix-matrix product) once put these sweep rows
# 7.7e-5 cm off their single runs, near 5 cm
@example(CouplingNetwork(n=2, couplings={(0, 1): 3.09375}, leader_stiffness=(8.125, 8.1875)),
         "dsr", [1.0, 0.25])
def test_batched_sweep_matches_one_run_per_cutoff_on_random_networks(network, kind,
                                                                     cutoffs):
    lam_max = build_pinned_laplacian(network).lambda_max
    if kind == "baseline":
        controller = ControllerConfig.baseline(1.0 / lam_max, DT)
    else:
        controller = ControllerConfig.dsr(0.39, 2.0 / (lam_max * (0.39 * DT + 2.0)), DT)
    scenario = ScenarioConfig(network=network, controller=controller,
                              trajectory=TrajectorySpec(kind="step", amplitude=5.0),
                              duration=6.0)
    _assert_matches_one_run_per_cutoff(scenario, cutoffs)


_CHAIN4 = StiffnessChain((0.05, 0.05, 0.05), (0.05, 0.0, 0.0, 0.0))


def _full_horizon(scenario, cutoffs):
    """Oracle: the sweep's rows from every sample of the duration. Each cutoff's
    reference comes from ``reference_series`` on its own; the batch of them is
    stepped by ``_run`` to the end and reduced by ``Peaks``."""
    dt, cutoffs = scenario.controller.dt, sorted(cutoffs)
    steps = num_steps(scenario.duration, dt)
    references = np.stack([reference_series(replace(
        scenario.trajectory, kind="filtered_step", cutoff=wc), dt, steps) for wc in cutoffs],
        axis=1)
    peaks = Peaks()
    for m, block in _run(scenario.network, scenario.controller, references):
        peaks.add(m, block)
    return [SweepRow(omega_c=wc, max_deformation=float(d), max_speed=float(v / dt))
            for wc, d, v in zip(cutoffs, peaks.peak_spread, peaks.peak_move)]


def _outcome(sweep, scenario, cutoffs):
    """The rows, or ("diverged", step)."""
    try:
        return sweep(scenario, cutoffs)
    except DivergenceError as exc:
        return "diverged", exc.step


def _stable_controller(network, kind, gain, alpha, delay=1):
    """The baseline at ``gain`` of its bound 2/lam_max, or the cohesive law at
    ``gain`` of the N = 1 bound on beta, 4/(lam_max (alpha dt + 2))."""
    lam_max = build_pinned_laplacian(network).lambda_max
    if kind == "baseline":
        return ControllerConfig.baseline(gain * 2.0 / lam_max, DT)
    return ControllerConfig.dsr(alpha, gain * 4.0 / (lam_max * (alpha * DT + 2.0)), DT, delay)


# on _CHAIN4 at gain 0.5 the baseline's slowest root is 0.96585172; these
# cutoffs put the filter's pole 3e-6 above it (bounded) and 5e-7 (not bounded)
_POLE_NEAR_ROOT, _POLE_AT_ROOT = 1.1579451632069526, 1.1580314166535777


@pytest.mark.filterwarnings("ignore::cohesive_transport.UnstableControllerWarning")
@settings(deadline=None)
@given(coupling_networks(max_robots=5), st.sampled_from(["baseline", "dsr"]), st.just(1),
       st.floats(0.2, 0.95), st.floats(0.05, 2.0),
       st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
       st.floats(0.01, 100.0) | st.floats(-100.0, -0.01) | st.just(0.0),
       st.integers(20, 60), st.integers(0, 5))
# N = 2: no tail bound, the batch steps to the end
@example(_CHAIN4, "dsr", 2, 0.5, 0.39, [0.1, 0.3], 50.0, 20, 1)
# a pole 3e-6 from a root: bounded, with forced amplitudes ~3e5 times the input
@example(_CHAIN4, "baseline", 1, 0.5, 1.0, [_POLE_NEAR_ROOT, 0.1], 50.0, 30, 1)
# 5e-7 from it: no tail bound
@example(_CHAIN4, "baseline", 1, 0.5, 1.0, [_POLE_AT_ROOT], -20.0, 20, 0)
# past DIVERGENCE_LIMIT_CM (1e9) on the way to 1e10, at the same step
@example(_CHAIN4, "baseline", 1, 0.5, 1.0, [0.5, 2.0], 1e10, 20, 1)
@example(_CHAIN4, "dsr", 1, 0.5, 0.39, [0.05], -1e10, 20, 3)
def test_sweep_matches_the_full_horizon_on_any_network(network, kind, delay, gain, alpha,
                                                       cutoffs, amplitude, duration, start):
    """The rows of a sweep that stops where the modal tail bound holds are
    those of every sample, the same divergence included; where there is no
    bound, every sample is stepped."""
    controller = _stable_controller(network, kind, gain, alpha, delay)
    scenario = ScenarioConfig(network=network, controller=controller,
                              trajectory=TrajectorySpec("step", amplitude, start_index=start),
                              duration=float(duration))
    with pytest.MonkeyPatch.context() as patch:
        counts = step_counts(patch)
        swept = _outcome(cutoff_sweep, scenario, cutoffs)
    assert swept == _outcome(_full_horizon, scenario, cutoffs)
    stepped, steps = sum(counts.values()), num_steps(scenario.duration, DT)
    poles = trajectory._tustin_pole(np.array(cutoffs) * DT)
    if stability.ModalTail.of(build_pinned_laplacian(network), controller, poles) is None:
        assert stepped == steps or swept[0] == "diverged"
    hypothesis.event("diverged" if swept[0] == "diverged" else
                     "stopped early" if stepped < steps else "stepped to the end")


@pytest.mark.parametrize("config, stepped", [
    ("chain4_baseline.cfg", 530),   # of 2,000: the rows at 0.38 and 0.40 rad/s stop last
    ("chain4_dsr.cfg", 843),
])
def test_default_sweep_stops_where_every_row_is_bounded(config, stepped, monkeypatch):
    """The bundled 25-cutoff sweeps stop at the first sample from which the
    bound holds for every row, found one block ahead; each row is that of
    the whole duration."""
    scenario = load_config(CONFIG_DIR / config)
    counts = step_counts(monkeypatch)
    rows = cutoff_sweep(scenario, _DEFAULT_SWEEP)
    assert sum(counts.values()) == stepped
    assert rows == _full_horizon(scenario, _DEFAULT_SWEEP)


@pytest.mark.parametrize("config, stepped", [
    ("chain4_baseline.cfg", 530),
    ("chain4_dsr.cfg", 843),
])
def test_sweep_cost_does_not_grow_with_the_duration(config, stepped, monkeypatch):
    """At 60, 600 and 6,000 s the bundled sweeps step the same samples to the
    same rows; their references are filtered at most one block and one row past
    the last sample stepped, and the 6,000 s sweep's traced memory peaks within
    twice the 60 s sweep's (a table of every sample's references is 40 MB)."""
    scenario = load_config(CONFIG_DIR / config)
    series = []

    def run(network, controller, references, ends=(), _run=dynamics._run):
        series.append(references)
        return _run(network, controller, references, ends)

    monkeypatch.setattr(dynamics, "_run", run)
    counts = step_counts(monkeypatch)
    block = _BLOCK_VALUES // (len(_DEFAULT_SWEEP) * scenario.network.n)
    rows, peak = {}, {}
    for duration in (60.0, 600.0, 6000.0):
        counts.clear()
        tracemalloc.start()
        try:
            rows[duration] = cutoff_sweep(replace(scenario, duration=duration), _DEFAULT_SWEEP)
            peak[duration] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == stepped
        assert len(series[-1]) == num_steps(duration, DT) + 1
        assert series[-1].filled <= stepped + block + 1
    assert rows[600.0] == rows[60.0] and rows[6000.0] == rows[60.0]
    assert peak[6000.0] <= 2 * peak[60.0]


@pytest.mark.parametrize("config", ["chain4_baseline.cfg", "chain4_dsr.cfg"])
@pytest.mark.parametrize("cutoff", [1e-300, 1e-17, 5e-15])
def test_sweep_where_the_filter_pole_rounds_to_one(config, cutoff):
    """At 1e-300 and 1e-17 rad/s the Tustin pole rounds to exactly 1 (wc dt
    at most 2**-53), and at 5e-15 to 1 - 2**-53. The sweep divides by no
    zero (the suite turns a RuntimeWarning into an error), and its row is
    that of every sample."""
    scenario = load_config(CONFIG_DIR / config)
    assert cutoff_sweep(scenario, [cutoff]) == _full_horizon(scenario, [cutoff])


@settings(deadline=None)
@given(coupling_networks(max_robots=5), st.sampled_from(["baseline", "dsr"]),
       st.floats(0.05, 0.95), st.floats(0.05, 2.0), st.sampled_from(["step", "filtered_step"]),
       st.floats(0.01, 2.0), st.floats(-100.0, 100.0), st.integers(0, 5), st.floats(0.0, 1.0))
def test_a_stop_is_found_only_where_no_later_sample_raises_a_peak(
        network, kind, gain, alpha, reference_kind, cutoff, amplitude, start, where):
    """From any sample c of a 20 s run, ``stability.first_stop`` finds c only if no
    sample from c on spreads wider than the peak spread it is given, moves as
    far as the peak move, reaches the limit or, as the tuner tests, lies
    outside the band around A: given the largest of these less one ulp (the
    move exactly), it finds nothing. The reference is the sweep's filtered
    step, or a raw step, constant A from c on as the tuner's is. A run that
    stays exactly 0 stops at c whatever the test."""
    controller = _stable_controller(network, kind, gain, alpha)
    lap = build_pinned_laplacian(network)
    filtered = reference_kind == "filtered_step"
    poles = trajectory._tustin_pole(np.array([cutoff]) * DT) if filtered else None
    tail = stability.ModalTail.of(lap, controller, poles)
    hypothesis.assume(tail is not None)
    steps = num_steps(20.0, DT)
    spec = TrajectorySpec(reference_kind, amplitude, cutoff if filtered else None, start)
    references = reference_series(spec, DT, steps)[:, None]
    positions = np.concatenate([np.zeros((1, 1, lap.n))] + [
        block[1:].copy() for _, block in _run(network, controller, references)])
    c = max(start, 1) + int(where * (steps - 1 - max(start, 1)))
    later = positions[c:, 0]
    spread = np.max(later.max(axis=1) - later.min(axis=1))
    move = np.max(np.abs(np.diff(later, axis=0)))
    size, off = np.max(np.abs(later)), np.max(np.abs(later - amplitude))

    def first_stop(peak_spread=np.inf, peak_move=np.inf, limit=np.inf, band=np.inf):
        def test(spread, reach, move):
            return ((spread <= peak_spread) & (move < peak_move)
                    & (abs(amplitude) + reach <= limit) & (reach <= band))
        return stability.first_stop(tail, positions[c], positions[c - 1], c, c + 1, steps,
                                amplitude, test, references[c])

    below = np.nextafter([spread, size, off], -np.inf)
    for bound in [{"peak_spread": below[0]}, {"peak_move": move}, {"limit": below[1]},
                  {"band": below[2]}]:
        assert first_stop(**bound) == (c if amplitude == 0.0 else None)
    hypothesis.event("a stop with unbounded peaks" if first_stop() == c else
                     "no stop even then")


@pytest.mark.parametrize("scenario, stepped", [
    # every position is exactly 0: the peaks are 0 from the start and final
    (replace(load_config(CONFIG_DIR / "chain4_baseline.cfg"), duration=600.0,
             trajectory=TrajectorySpec("filtered_step", 0.0, 0.1)), 16),
    # one robot: the spread is exactly 0 at every sample
    (ScenarioConfig(network=StiffnessChain((), (0.05,)),
                    controller=ControllerConfig.baseline(1.93, DT),
                    trajectory=TrajectorySpec("filtered_step", 50.0, 0.1),
                    duration=600.0), 51),
])
def test_sweep_stops_where_a_peak_stays_zero(scenario, stepped, monkeypatch):
    """A peak that is exactly 0 at every sample cannot be raised; the sweep
    stops early, not after all 20,000 samples, with the rows of every sample."""
    cutoffs = _DEFAULT_SWEEP if scenario.network.n > 1 else [0.1, 0.2]
    counts = step_counts(monkeypatch)
    rows = cutoff_sweep(scenario, cutoffs)
    assert sum(counts.values()) == stepped
    assert rows == _full_horizon(scenario, cutoffs)
