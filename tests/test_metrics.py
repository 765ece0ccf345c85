import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cohesive_transport import (ControllerConfig, ScenarioConfig,
                                SimulationTrace, TrajectorySpec, improvement,
                                simulate, summarize)
from cohesive_transport.benchmark import baseline_scenario, dsr_scenario
from cohesive_transport.metrics import Peaks, spread

from conftest import DT


def make_trace(positions, reference=None, forces=None, dt=DT):
    positions = np.asarray(positions, dtype=float)
    samples, n = positions.shape
    if reference is None:
        reference = np.zeros(samples)
    if forces is None:
        forces = np.zeros_like(positions)
    return SimulationTrace(dt=dt, times=np.arange(samples) * dt,
                           positions=positions, forces=np.asarray(forces, float),
                           reference=np.asarray(reference, float))


def settling(positions, final_value):
    return summarize(make_trace(positions), final_value).settling_time


def test_deformation_of_coincident_robots():
    positions = np.full((5, 4), 2.5)
    assert np.all(spread(positions) == 0.0)
    assert summarize(make_trace(positions)).max_deformation == 0.0


def test_deformation_is_spread():
    positions = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
    assert spread(positions)[1] == 2.0
    assert summarize(make_trace(positions)).max_deformation == 2.0


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (7, 5), elements=st.floats(-50, 50)))
def test_deformation_matches_pairwise_scan(positions):
    series = spread(positions)
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
    summary = summarize(trace)
    for field in ("max_deformation", "max_force", "max_speed"):
        assert getattr(summarize(relabeled), field) == pytest.approx(
            getattr(summary, field), rel=1e-12)
    assert summarize(shifted).max_deformation == pytest.approx(summary.max_deformation,
                                                               rel=1e-9)
    assert summarize(shifted).max_force == summary.max_force


def test_settling_time_already_at_final():
    assert settling(np.full((10, 3), 5.0), 5.0) == 0.0


def test_settling_time_last_band_exit():
    positions = np.full((6, 2), 1.0)
    positions[:3] = 0.5           # outside the 2% band until sample 2
    assert settling(positions, 1.0) == 2 * DT


def test_settling_time_never_settles_is_inf():
    positions = np.linspace(0.0, 0.5, 8)[:, None] * np.ones((1, 3))
    assert settling(positions, 1.0) == math.inf


def test_settling_time_needs_a_nonzero_final_value():
    positions = np.zeros((4, 2))
    assert math.isnan(settling(positions, 0.0))
    assert math.isnan(settling(positions, None))


def test_one_sample_trace_has_no_spread_and_no_speed():
    scenario = ScenarioConfig(
        network=baseline_scenario().network,
        controller=ControllerConfig.baseline(1.93, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=1.0, start_index=0),
        duration=1e-12)
    trace = simulate(scenario)
    assert trace.num_samples == 1
    summary = summarize(trace, final_value=1.0)
    assert summary.max_deformation == 0.0
    assert summary.max_speed == 0.0
    assert summary.max_force == 0.0
    assert summary.settling_time == math.inf   # the only sample is outside the band


@st.composite
def _runs_and_splits(draw):
    """A run of 1-12 samples, (n,) or (batch, n) each, and the sorted samples
    its blocks end at before the last one (consecutive ones give one-sample
    blocks)."""
    samples = draw(st.integers(1, 12))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    n = draw(st.integers(1, 4))
    positions = draw(arrays(np.float64, (samples,) + batch + (n,),
                            elements=st.floats(-2.0, 2.0)))
    cuts = sorted(draw(st.sets(st.integers(1, samples - 2)))) if samples > 2 else []
    final_value = draw(st.sampled_from([None, 1.0, -0.5]))
    return positions, cuts, final_value


@settings(max_examples=200, deadline=None)
@given(_runs_and_splits())
def test_reducing_in_blocks_equals_one_whole_block(case):
    """Blocks as the stepping core yields them: each block after the first
    repeats the sample before it in row 0."""
    positions, cuts, final_value = case
    whole = Peaks(final_value)
    whole.add(1, positions)
    split = Peaks(final_value)
    starts = [1] + [cut + 1 for cut in cuts]
    ends = [cut + 1 for cut in cuts] + [len(positions)]
    for m, end in zip(starts, ends):
        split.add(m, positions[m - 1:end])
    for field in ("peak_spread", "peak_move", "last_outside", "end"):
        assert np.array_equal(getattr(split, field), getattr(whole, field)), field
    assert whole.end == len(positions) - 1
    # the whole-block peaks against plain numpy over all samples
    assert np.array_equal(whole.peak_spread,
                          (positions.max(axis=-1) - positions.min(axis=-1)).max(axis=0))
    moves = np.abs(positions[1:] - positions[:-1]).max(axis=-1)
    assert np.array_equal(whole.peak_move, np.max(moves, axis=0, initial=0.0))
    if final_value:
        outside = (np.abs(positions - final_value) > 0.02 * abs(final_value)).any(axis=-1)
        last = [np.flatnonzero(run)[-1] if run.any() else -1
                for run in outside.reshape(len(positions), -1).T]
        assert np.array_equal(whole.last_outside,
                              np.reshape(last, np.shape(whole.last_outside)))


def test_settling_reference_unit_steps(baseline_step_trace, dsr_step_trace):
    """Simulated 2% settling at the reference gains. The dominant-mode
    estimates sit near 10 s for both; the trace-measured values land
    about 6% later (baseline) and earlier (cohesive) because the slow
    modes do not carry unit amplitude."""
    assert summarize(baseline_step_trace, 1.0).settling_time == pytest.approx(
        10.59, abs=0.05)
    assert summarize(dsr_step_trace, 1.0).settling_time == pytest.approx(
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
    """Every field against plain numpy over the whole trace: commanded
    speeds divided by dt before the maximum, the settling time read off
    the trace's own time grid."""
    trace = baseline_step_trace
    summary = summarize(trace, final_value=1.0)
    y = trace.positions
    assert summary.max_deformation == float(np.max(y.max(axis=1) - y.min(axis=1)))
    assert summary.max_force == float(np.max(np.abs(trace.forces)))
    assert summary.max_speed == float(np.max(np.abs(np.diff(y, axis=0) / trace.dt)))
    outside = np.flatnonzero(np.any(np.abs(y - 1.0) > 0.02, axis=1))
    assert outside[-1] < trace.num_samples - 1
    assert summary.settling_time == float(trace.times[outside[-1]])
    assert math.isnan(summarize(trace).settling_time)


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
