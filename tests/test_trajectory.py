from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesive_transport import (ControllerConfig, ScenarioConfig, TrajectorySpec,
                                build_pinned_laplacian, cutoff_sweep,
                                reference_series, simulate)
from cohesive_transport.benchmark import baseline_scenario, dsr_scenario

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
    scenario = baseline_scenario()
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


def _assert_matches_one_run_per_cutoff(scenario, cutoffs):
    rows = cutoff_sweep(scenario, cutoffs)
    assert [r.omega_c for r in rows] == sorted(cutoffs)
    for row in rows:
        trajectory = replace(scenario.trajectory, kind="filtered_step",
                             cutoff=row.omega_c)
        y = simulate(replace(scenario, trajectory=trajectory)).positions
        deformation = np.max(y.max(axis=1) - y.min(axis=1))
        speed = np.max(np.abs(np.diff(y, axis=0) / scenario.controller.dt))
        assert row.max_deformation == pytest.approx(deformation, rel=1e-12, abs=0.0)
        assert row.max_speed == pytest.approx(speed, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scenario_fn", [baseline_scenario, dsr_scenario])
def test_batched_sweep_matches_one_run_per_cutoff(scenario_fn):
    # unsorted, with a duplicate
    _assert_matches_one_run_per_cutoff(scenario_fn(), [0.3, 0.05, 0.1, 0.05, 0.02])


def test_sweep_of_no_cutoffs_is_empty():
    assert cutoff_sweep(baseline_scenario(), []) == []


@settings(max_examples=25, deadline=None)
@given(coupling_networks(max_robots=6), st.sampled_from(["baseline", "dsr"]),
       st.lists(st.floats(0.02, 1.0), max_size=4))
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
