import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cohesive_transport import (ControllerConfig, ScenarioConfig,
                                SimulationTrace, TrajectorySpec,
                                deformation_series, improvement,
                                max_deformation, max_force, max_speed,
                                measured_settling_time, simulate, summarize)
from cohesive_transport.benchmark import baseline_scenario, dsr_scenario

from conftest import DT


def make_trace(positions, reference=None, forces=None, dt=DT):
    positions = np.asarray(positions, dtype=float)
    samples, n = positions.shape
    if reference is None:
        reference = np.zeros(samples)
    if forces is None:
        forces = np.zeros_like(positions)
    speeds = np.zeros_like(positions)
    speeds[:-1] = np.diff(positions, axis=0) / dt
    return SimulationTrace(dt=dt, times=np.arange(samples) * dt,
                           positions=positions, forces=np.asarray(forces, float),
                           reference=np.asarray(reference, float), speeds=speeds)


def test_deformation_of_coincident_robots():
    trace = make_trace(np.full((5, 4), 2.5))
    assert np.all(deformation_series(trace) == 0.0)


def test_deformation_is_spread():
    trace = make_trace([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
    assert deformation_series(trace)[1] == 2.0
    assert max_deformation(trace) == 2.0


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (7, 5), elements=st.floats(-50, 50)))
def test_deformation_matches_pairwise_scan(positions):
    trace = make_trace(positions)
    series = deformation_series(trace)
    for m in range(positions.shape[0]):
        pairwise = max(abs(positions[m, i] - positions[m, j])
                       for i in range(5) for j in range(5))
        assert series[m] == pytest.approx(pairwise, abs=1e-12)


def test_metrics_invariant_under_relabeling_and_translation(rng):
    positions = rng.normal(0.0, 5.0, (40, 4))
    forces = rng.normal(0.0, 0.2, (40, 4))
    trace = make_trace(positions, forces=forces)
    perm = rng.permutation(4)
    relabeled = make_trace(positions[:, perm], forces=forces[:, perm])
    shifted = make_trace(positions + 11.0, forces=forces)
    for metric in (max_deformation, max_force, max_speed):
        assert metric(relabeled) == pytest.approx(metric(trace), rel=1e-12)
    assert max_deformation(shifted) == pytest.approx(max_deformation(trace), rel=1e-9)
    assert max_force(shifted) == max_force(trace)


def test_settling_time_already_at_final():
    trace = make_trace(np.full((10, 3), 5.0))
    assert measured_settling_time(trace, 5.0) == 0.0


def test_settling_time_last_band_exit():
    positions = np.full((6, 2), 1.0)
    positions[:3] = 0.5           # outside the 2% band until sample 2
    trace = make_trace(positions)
    assert measured_settling_time(trace, 1.0) == pytest.approx(2 * DT)


def test_settling_time_never_settles_is_inf():
    positions = np.linspace(0.0, 0.5, 8)[:, None] * np.ones((1, 3))
    trace = make_trace(positions)
    assert measured_settling_time(trace, 1.0) == math.inf


def test_settling_time_requires_nonzero_final():
    trace = make_trace(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        measured_settling_time(trace, 0.0)


def test_settling_reference_unit_steps(baseline_step_trace, dsr_step_trace):
    """Simulated 2% settling at the reference gains. The dominant-mode
    estimates sit near 10 s for both; the trace-measured values land
    about 6% later (baseline) and earlier (cohesive) because the slow
    modes do not carry unit amplitude."""
    assert measured_settling_time(baseline_step_trace, 1.0) == pytest.approx(
        10.59, abs=0.05)
    assert measured_settling_time(dsr_step_trace, 1.0) == pytest.approx(
        9.36, abs=0.05)


def test_improvement_paper_scenarios():
    base = summarize(simulate(baseline_scenario()), final_value=50.0)
    dsr = summarize(simulate(dsr_scenario()), final_value=50.0)
    gain = improvement(base, dsr)
    assert gain.deformation_pct == pytest.approx(90.0, abs=1.0)
    assert gain.force_pct == pytest.approx(90.0, abs=1.0)


def test_improvement_edge_cases():
    trace = make_trace([[0.0, 1.0], [0.5, 1.5]], forces=[[0.1, 0.0], [0.0, 0.0]])
    summary = summarize(trace, final_value=None)
    unchanged = improvement(summary, summary)
    assert unchanged.deformation_pct == pytest.approx(0.0)
    assert unchanged.force_pct == pytest.approx(0.0)
    zero = summarize(make_trace(np.zeros((2, 2))), final_value=None)
    assert improvement(summary, zero).deformation_pct == 100.0
    with pytest.raises(ValueError):
        improvement(zero, summary)


def test_summary_fields(baseline_step_trace):
    summary = summarize(baseline_step_trace, final_value=1.0)
    assert summary.max_deformation == max_deformation(baseline_step_trace)
    assert summary.max_force == max_force(baseline_step_trace)
    assert summary.max_speed == max_speed(baseline_step_trace)
    assert summary.settling_time == measured_settling_time(baseline_step_trace, 1.0)
    assert math.isnan(summarize(baseline_step_trace).settling_time)


@pytest.mark.parametrize("amplitude", [1.0, 10.0, 50.0])
def test_metrics_scale_with_reference_amplitude(chain4, amplitude):
    scenario = ScenarioConfig(
        network=chain4, controller=ControllerConfig.baseline(1.93, DT),
        trajectory=TrajectorySpec(kind="filtered_step", amplitude=amplitude,
                                  cutoff=0.1),
        duration=60.0)
    summary = summarize(simulate(scenario), final_value=amplitude)
    assert summary.max_deformation == pytest.approx(5.8242 * amplitude / 50.0,
                                                    rel=1e-6)
    assert summary.max_force == pytest.approx(0.14582 * amplitude / 50.0,
                                              rel=1e-4)
