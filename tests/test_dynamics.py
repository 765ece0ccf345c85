import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cohesive_transport
from cohesive_transport import (ControllerConfig, CrosscheckError, DivergenceError,
                                NetworkState, ScenarioConfig, StiffnessChain,
                                TrajectorySpec, UnstableControllerWarning,
                                UnstableGainError, build_pinned_laplacian, measured_force,
                                simulate, step_baseline, step_dsr)
from cohesive_transport.dynamics import (_BLOCK_VALUES, _crosscheck, _run,
                                         baseline_update_forms, dsr_update_forms,
                                         num_steps)

from conftest import DT, unit_step_scenario


def single_node():
    chain = StiffnessChain((), (0.05,))
    return chain, build_pinned_laplacian(chain)


def test_controller_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        ControllerConfig.baseline(0.0, DT)
    with pytest.raises(ValueError, match="alpha"):
        ControllerConfig.dsr(0.0, 10.0, DT)
    with pytest.raises(ValueError, match="beta"):
        ControllerConfig.dsr(0.4, 0.0, DT)
    with pytest.raises(ValueError, match="delay_multiple"):
        ControllerConfig.dsr(0.4, 10.0, DT, delay_multiple=0)
    with pytest.raises(ValueError, match="dt"):
        ControllerConfig.baseline(1.0, 0.0)
    with pytest.raises(ValueError, match="kind"):
        ControllerConfig(kind="pid", dt=DT)


def test_network_state_history():
    state = NetworkState.at_rest(np.zeros(3), delay_multiple=2)
    assert len(state.history) == 2
    s1 = state.advanced(np.ones(3))
    s2 = s1.advanced(2 * np.ones(3))
    assert np.array_equal(s2.delayed_positions, np.zeros(3))
    s3 = s2.advanced(3 * np.ones(3))
    assert np.array_equal(s3.delayed_positions, np.ones(3))
    assert s3.step == 3


def test_baseline_step_at_consensus_is_fixed(chain4, lap4):
    config = ControllerConfig.baseline(1.93, DT)
    state = NetworkState.at_rest(np.full(4, 7.5))
    nxt = step_baseline(state, lap4, chain4, config, y_d=7.5)
    assert np.allclose(nxt, 7.5, atol=1e-12)


def test_baseline_step_single_node():
    chain, lap = single_node()
    config = ControllerConfig.baseline(1.0, DT)
    state = NetworkState.at_rest(np.zeros(1))
    nxt = step_baseline(state, lap, chain, config, y_d=1.0)
    assert nxt[0] == pytest.approx(0.05, abs=1e-15)


def test_baseline_first_step_from_rest(chain4, lap4):
    config = ControllerConfig.baseline(1.93, DT)
    state = NetworkState.at_rest(np.zeros(4))
    nxt = step_baseline(state, lap4, chain4, config, y_d=50.0)
    # independent route: (I - gamma K) 0 + gamma B y_d
    expected = 1.93 * lap4.leader_vector * 50.0
    assert np.array_equal(nxt, expected)
    assert nxt[0] == pytest.approx(4.825, abs=1e-12)
    assert np.all(nxt[1:] == 0.0)


def test_dsr_step_at_consensus_is_fixed(chain4, lap4):
    config = ControllerConfig.dsr(0.39, 10.92, DT)
    state = NetworkState.at_rest(np.full(4, -3.0))
    nxt = step_dsr(state, lap4, chain4, config, y_d=-3.0)
    assert np.allclose(nxt, -3.0, atol=1e-12)


def test_dsr_step_single_node_from_rest():
    chain, lap = single_node()
    config = ControllerConfig.dsr(0.4, 10.9, DT)
    state = NetworkState.at_rest(np.zeros(1))
    nxt = step_dsr(state, lap, chain, config, y_d=1.0)
    assert nxt[0] == pytest.approx(0.4 * 10.9 * DT * 0.05, rel=1e-12)
    assert nxt[0] == pytest.approx(0.00654, abs=1e-10)


def test_update_forms_agree_on_random_states(chain4, lap4, rng):
    worst_base = worst_dsr = 0.0
    for _ in range(200):
        y = rng.normal(0.0, 10.0, 4)
        y_old = rng.normal(0.0, 10.0, 4)
        y_d = float(rng.normal(0.0, 10.0))
        stacked, local = baseline_update_forms(y, lap4, chain4,
                                               float(rng.uniform(0.1, 5.0)), y_d)
        worst_base = max(worst_base, float(np.max(np.abs(stacked - local))))
        stacked, local = dsr_update_forms(y, y_old, lap4, chain4,
                                          float(rng.uniform(0.05, 2.0)),
                                          float(rng.uniform(0.1, 11.0)), DT, 1, y_d)
        worst_dsr = max(worst_dsr, float(np.max(np.abs(stacked - local))))
    assert worst_base < 1e-12
    assert worst_dsr < 1e-12


def test_crosscheck_rejects_springs_that_disagree_with_the_laplacian(chain4, lap4):
    # middle spring stiffer than lap4 says: the per-robot route reads
    # other forces than the stacked law uses
    stiffer = StiffnessChain((0.05, 0.06, 0.05), chain4.leader_stiffness)
    state = NetworkState.at_rest([0.0, 1.0, 3.0, 6.0], delay_multiple=2)
    with pytest.raises(CrosscheckError, match="disagree"):
        step_baseline(state, lap4, stiffer, ControllerConfig.baseline(1.93, DT), 1.0)
    with pytest.raises(CrosscheckError, match="disagree"):
        step_dsr(state, lap4, stiffer, ControllerConfig.dsr(0.39, 10.92, DT, 2), 1.0)
    # the matching network passes the same check
    step_baseline(state, lap4, chain4, ControllerConfig.baseline(1.93, DT), 1.0)


def test_batched_steps_reject_springs_that_disagree_with_the_laplacian(chain4, lap4):
    stiffer = StiffnessChain((0.05, 0.06, 0.05), chain4.leader_stiffness)
    rows = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 3.0, 6.0]])
    y_d = np.ones((2, 1))
    base = ControllerConfig.baseline(1.93, DT)
    dsr = ControllerConfig.dsr(0.39, 10.92, DT, 2)
    batch = NetworkState.at_rest(rows, delay_multiple=2)
    with pytest.raises(CrosscheckError, match="disagree"):
        step_baseline(batch, lap4, stiffer, base, y_d)
    with pytest.raises(CrosscheckError, match="disagree"):
        step_dsr(batch, lap4, stiffer, dsr, y_d)
    # the undeformed row reads no spring, so on its own it passes
    undeformed = NetworkState.at_rest(rows[:1], delay_multiple=2)
    step_baseline(undeformed, lap4, stiffer, base, y_d[:1])
    step_dsr(undeformed, lap4, stiffer, dsr, y_d[:1])


def test_crosscheck_bounds_each_row_by_its_own_scale():
    stacked = np.array([[1.0, 0.5, -0.25], [1e6, 2.0, 3.0]])
    small_row_off = stacked.copy()
    small_row_off[0, 1] += 1e-9   # bound 1e-12 at scale 1
    with pytest.raises(CrosscheckError, match="disagree by 1e-09"):
        _crosscheck(stacked, small_row_off)
    large_row_off = stacked.copy()
    large_row_off[1, 1] += 1e-9   # bound 1e-6 at scale 1e6
    _crosscheck(stacked, large_row_off)
    with pytest.raises(CrosscheckError):
        _crosscheck(stacked, np.where(stacked == 2.0, np.nan, stacked))


@pytest.mark.parametrize("row_scale", [250.0, 0.5])
@pytest.mark.parametrize("offset, fails", [(0.99, False), (1.01, True), (np.nan, True)])
def test_crosscheck_decides_a_state_as_the_same_row_in_a_batch(row_scale, offset, fails):
    stacked = np.array([3e-3, -row_scale, 0.25, 0.0])
    local = stacked.copy()
    local[2] += offset * 1e-12 * max(1.0, row_scale)   # just inside / outside the bound
    outcomes = []
    for args in ((stacked, local), (stacked[None], local[None])):
        try:
            outcomes.append(("passed", float(_crosscheck(*args))))
        except CrosscheckError as exc:
            outcomes.append(("raised", str(exc)))
    verdict, detail = outcomes[0]
    assert outcomes[1] == (verdict, detail)
    assert verdict == ("raised" if fails else "passed")
    assert fails or detail == row_scale


def _update_forms(state, lap, network, config, y_d):
    if config.kind == "baseline":
        return baseline_update_forms(state.positions, lap, network, config.gamma, y_d)
    return dsr_update_forms(state.positions, state.delayed_positions, lap, network,
                            config.alpha, config.beta, config.dt,
                            config.delay_multiple, y_d)


def test_controllers_sharing_a_network_each_get_their_own_coefficients(rng):
    def build():
        return StiffnessChain((0.05, 0.07, 0.04), (0.05, 0.0, 0.02, 0.0))
    shared = build()
    lap = build_pinned_laplacian(shared)
    configs = (ControllerConfig.baseline(1.93, DT), ControllerConfig.baseline(0.8, DT),
               ControllerConfig.dsr(0.39, 10.92, DT), ControllerConfig.dsr(0.2, 5.0, DT, 2))
    for _ in range(3):
        for config in configs:   # interleaved: all four entries share one cache
            state = NetworkState(rng.normal(0.0, 10.0, 4), (rng.normal(0.0, 10.0, 4),) * 2)
            y_d = float(rng.normal(0.0, 10.0))
            step = step_baseline if config.kind == "baseline" else step_dsr
            fresh = build()
            fresh_lap = build_pinned_laplacian(fresh)
            assert np.array_equal(step(state, lap, shared, config, y_d),
                                  step(state, fresh_lap, fresh, config, y_d))
            assert np.array_equal(_update_forms(state, lap, shared, config, y_d),
                                  _update_forms(state, fresh_lap, fresh, config, y_d))
    assert len(shared._law_coefficients) == len(configs)


@pytest.mark.parametrize("step, config", [
    (step_baseline, ControllerConfig.baseline(1.93, DT)),
    (step_dsr, ControllerConfig.dsr(0.39, 10.92, DT)),
])
def test_direct_step_past_the_divergence_limit_raises(chain4, lap4, step, config):
    # the leader is pulled toward 1.5e9, the others follow their own motion
    below = NetworkState(np.full(4, 0.5e9), (np.full(4, 0.45e9),), step=41)
    assert np.abs(step(below, lap4, chain4, config, 0.6e9)).max() < 1e9
    past = NetworkState(np.full(4, 0.99e9), (np.full(4, 0.9e9),), step=41)
    with pytest.raises(DivergenceError) as exc:
        step(past, lap4, chain4, config, 1.5e9)
    assert exc.value.step == 42


def test_batched_steps_match_single_runs_row_by_row(chain4, lap4, rng):
    rows = rng.normal(0.0, 10.0, (6, 4))
    delayed = rng.normal(0.0, 10.0, (6, 4))
    y_d = rng.normal(0.0, 10.0, (6, 1))
    for step, config in ((step_baseline, ControllerConfig.baseline(1.93, DT)),
                         (step_dsr, ControllerConfig.dsr(0.39, 10.92, DT))):
        batched = step(NetworkState(rows, (delayed,)), lap4, chain4, config, y_d)
        assert batched.shape == rows.shape
        for k in range(len(rows)):
            single = step(NetworkState(rows[k], (delayed[k],)), lap4, chain4,
                          config, float(y_d[k, 0]))
            assert np.allclose(batched[k], single, rtol=1e-14, atol=1e-13)


def _stepped_one_at_a_time(network, config, references):
    """Samples 0..steps of ``references`` from rest, one public step call each."""
    lap = build_pinned_laplacian(network)
    step = step_baseline if config.kind == "baseline" else step_dsr
    state = NetworkState.at_rest(np.zeros(references.shape[1:] + (network.n,)),
                                 config.delay_multiple)
    samples = [state.positions]
    for y_d in references[:-1]:
        y_d = float(y_d) if references.ndim == 1 else y_d[:, None]
        state = state.advanced(step(state, lap, network, config, y_d))
        samples.append(state.positions)
    return np.array(samples)


def _joined_blocks(network, config, references, ends=()):
    """_run's blocks end to end, and their lengths; each block must start
    on the sample before its first."""
    samples, lengths = [np.zeros(references.shape[1:] + (network.n,))], []
    for m, block in _run(network, config, references, ends):
        assert m == len(samples)
        assert np.array_equal(block[0], samples[-1])
        samples.extend(block[1:].copy())
        lengths.append(len(block) - 1)
    return np.array(samples), lengths


_CONFIGS = [ControllerConfig.baseline(1.93, DT), ControllerConfig.dsr(0.39, 10.92, DT, 2)]


@pytest.mark.parametrize("config", _CONFIGS, ids=["baseline", "dsr"])
def test_run_blocks_equal_single_sample_stepping(chain4, rng, config):
    rows = _BLOCK_VALUES // 4               # samples per full block of 4 robots
    references = rng.normal(0.0, 10.0, 2 * rows + 30)
    joined, lengths = _joined_blocks(chain4, config, references, ends=(5, 6, rows + 7))
    assert np.array_equal(joined, _stepped_one_at_a_time(chain4, config, references))
    assert lengths == [5, 1, rows, 1, rows, 22]


@pytest.mark.parametrize("config", _CONFIGS, ids=["baseline", "dsr"])
@pytest.mark.parametrize("batch, steps", [(3, 600), (_BLOCK_VALUES // 4 + 1, 4)],
                         ids=["narrow", "wider-than-a-block"])
def test_batched_run_blocks_equal_single_sample_stepping(chain4, rng, config, batch, steps):
    references = rng.normal(0.0, 10.0, (steps + 1, batch))
    joined, lengths = _joined_blocks(chain4, config, references, ends=(2,))
    assert np.array_equal(joined, _stepped_one_at_a_time(chain4, config, references))
    rows = max(1, _BLOCK_VALUES // (4 * batch))
    assert lengths == ([2, rows, steps - 2 - rows] if batch == 3 else [1] * steps)


_OPTIMIZED_SCRIPT = """
assert False, "asserts are still on"
import numpy as np
from cohesive_transport import *
chain = StiffnessChain((0.05, 0.05, 0.05), (0.05, 0, 0, 0))
stiffer = StiffnessChain((0.05, 0.06, 0.05), (0.05, 0, 0, 0))
lap = build_pinned_laplacian(chain)
single = NetworkState.at_rest([0.0, 1.0, 3.0, 6.0], delay_multiple=2)
batch = NetworkState.at_rest([[0.0] * 4, [0.0, 1.0, 3.0, 6.0]], delay_multiple=2)
for label, state, y_d in (("", single, 1.0), ("batched ", batch, np.ones((2, 1)))):
    for step, config in ((step_baseline, ControllerConfig.baseline(1.93, 0.03)),
                         (step_dsr, ControllerConfig.dsr(0.39, 10.92, 0.03, 2))):
        try:
            step(state, lap, stiffer, config, y_d)
        except CrosscheckError:
            print(label + step.__name__, "raised")
"""


def test_crosscheck_survives_optimized_python():
    src = Path(cohesive_transport.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["step_baseline raised", "step_dsr raised",
                                          "batched step_baseline raised",
                                          "batched step_dsr raised"]


def test_multisample_delay_matches_manual_form(chain4, lap4, rng):
    n_delay = 3
    y = rng.normal(0.0, 5.0, 4)
    y_old = rng.normal(0.0, 5.0, 4)
    alpha, beta, y_d = 0.4, 8.0, 2.0
    stacked, local = dsr_update_forms(y, y_old, lap4, chain4, alpha, beta, DT,
                                      n_delay, y_d)
    k = lap4.matrix
    manual = (y - alpha * beta * DT * (k @ y)
              + alpha * beta * DT * lap4.leader_vector * y_d
              + (np.eye(4) - beta * k) @ (y - y_old) / n_delay)
    assert np.allclose(stacked, manual, atol=1e-14)
    assert np.allclose(local, manual, atol=1e-12)


def test_dsr_delay_buffer_in_simulation(chain4):
    """With delay N the first N steps reinforce against the rest state."""
    scenario = unit_step_scenario(
        chain4, ControllerConfig.dsr(0.39, 10.92, DT, delay_multiple=4),
        duration=1.0)
    trace = simulate(scenario)
    assert np.all(np.isfinite(trace.positions))
    assert trace.positions[1, 0] == 0.0  # reference still zero at m=0


def test_translation_invariance_of_steps(chain4, lap4, rng):
    shift = 13.7
    y = rng.normal(0.0, 5.0, 4)
    y_old = rng.normal(0.0, 5.0, 4)
    base_a, _ = baseline_update_forms(y, lap4, chain4, 1.93, 2.0)
    base_b, _ = baseline_update_forms(y + shift, lap4, chain4, 1.93, 2.0 + shift)
    assert np.allclose(base_b, base_a + shift, atol=1e-12)
    dsr_a, _ = dsr_update_forms(y, y_old, lap4, chain4, 0.39, 10.92, DT, 1, 2.0)
    dsr_b, _ = dsr_update_forms(y + shift, y_old + shift, lap4, chain4,
                                0.39, 10.92, DT, 1, 2.0 + shift)
    assert np.allclose(dsr_b, dsr_a + shift, atol=1e-12)


def test_dsr_reduces_to_baseline_from_rest(chain4, lap4, rng):
    """With the delayed state equal to the current one, the cohesive
    update with alpha*beta*dt = gamma is exactly the baseline update."""
    y = rng.normal(0.0, 5.0, 4)
    alpha, beta = 0.7, 3.0
    gamma = alpha * beta * DT
    base, _ = baseline_update_forms(y, lap4, chain4, gamma, 4.0)
    dsr, _ = dsr_update_forms(y, y.copy(), lap4, chain4, alpha, beta, DT, 1, 4.0)
    assert np.array_equal(base, dsr)


def test_dsr_baseline_gap_is_first_order_in_beta(chain4, lap4, rng):
    """Away from rest the two laws differ by the reinforcement term,
    which collapses to the raw position delta as beta -> 0."""
    y = rng.normal(0.0, 5.0, 4)
    y_old = y + rng.normal(0.0, 1.0, 4)
    beta = 1e-8
    gamma = 0.5
    alpha = gamma / (beta * DT)
    base, _ = baseline_update_forms(y, lap4, chain4, gamma, 4.0)
    dsr, _ = dsr_update_forms(y, y_old, lap4, chain4, alpha, beta, DT, 1, 4.0)
    assert np.max(np.abs(dsr - base - (y - y_old))) < 1e-6


def test_simulate_zero_reference_stays_at_rest(chain4):
    scenario = ScenarioConfig(network=chain4,
                              controller=ControllerConfig.baseline(1.93, DT),
                              trajectory=TrajectorySpec(kind="step", amplitude=0.0),
                              duration=5.0)
    trace = simulate(scenario)
    assert np.all(trace.positions == 0.0)
    assert np.all(trace.forces == 0.0)


def test_overflowing_baseline_gain_stops_before_stepping():
    """gamma * k_leader overflows: the run raises UnstableGainError before
    any position is computed, and no numpy warning leaks."""
    scenario = ScenarioConfig(
        network=StiffnessChain((1.0,), (1e10, 0.0)),
        controller=ControllerConfig.baseline(1e300, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=1.0), duration=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(UnstableGainError,
                           match=re.escape("gamma = 1e+300 (gamma*k_leader = inf)")):
            simulate(scenario)
    assert [w.category for w in caught] == [UnstableControllerWarning]


def test_simulate_is_deterministic(chain4):
    scenario = unit_step_scenario(chain4, ControllerConfig.dsr(0.39, 10.92, DT),
                                  duration=5.0)
    a = simulate(scenario)
    b = simulate(scenario)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.forces, b.forces)


def test_simulate_linearity_in_reference(chain4):
    base = unit_step_scenario(chain4, ControllerConfig.baseline(1.93, DT),
                              duration=8.0)
    scaled = ScenarioConfig(network=chain4, controller=base.controller,
                            trajectory=TrajectorySpec(kind="step", amplitude=-6.5),
                            duration=8.0)
    a = simulate(base)
    b = simulate(scaled)
    assert np.allclose(b.positions, -6.5 * a.positions, rtol=1e-12, atol=1e-12)
    assert np.allclose(b.forces, -6.5 * a.forces, rtol=1e-12, atol=1e-12)


def test_simulate_converges_to_constant_reference(chain4, lap4):
    scenario = ScenarioConfig(
        network=chain4, controller=ControllerConfig.baseline(1.93, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=3.0, start_index=0),
        duration=110.0)
    trace = simulate(scenario)
    assert np.max(np.abs(trace.positions[-1] - 3.0)) < 1e-6


def test_trace_fields_consistent(chain4):
    scenario = unit_step_scenario(chain4, ControllerConfig.baseline(1.93, DT),
                                  duration=2.0)
    trace = simulate(scenario)
    assert trace.num_samples == num_steps(2.0, DT) + 1
    assert np.allclose(np.diff(trace.times), DT, atol=1e-12)
    assert np.array_equal(trace.times, np.arange(trace.num_samples) * DT)
    # spot-check recorded forces against the per-robot sums
    for m in (0, 17, trace.num_samples - 1):
        assert np.allclose(trace.forces[m], measured_force(chain4, trace.positions[m]),
                           rtol=0.0, atol=1e-12)


def test_num_steps_handles_inexact_ratio():
    assert num_steps(60.0, 0.03) == 2000
    assert num_steps(1.0, 0.03) == 34


def test_unstable_gain_warns_but_runs(chain4):
    scenario = unit_step_scenario(chain4, ControllerConfig.baseline(12.0, DT),
                                  duration=2.0)
    with pytest.warns(UnstableControllerWarning):
        trace = simulate(scenario)
    assert trace.num_samples == num_steps(2.0, DT) + 1


def test_unstable_dsr_warns(chain4):
    scenario = unit_step_scenario(chain4,
                                  ControllerConfig.dsr(0.39, 20.0, DT),
                                  duration=0.5)
    with pytest.warns(UnstableControllerWarning):
        simulate(scenario)


def test_divergence_aborts_with_step(chain4):
    scenario = unit_step_scenario(chain4, ControllerConfig.baseline(1000.0, DT),
                                  duration=5.0)
    with pytest.warns(UnstableControllerWarning):
        with pytest.raises(DivergenceError, match="diverged at step") as exc:
            simulate(scenario)
    assert exc.value.step > 0
