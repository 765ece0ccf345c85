import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohesive_transport
from cohesive_transport import cli, dynamics
from cohesive_transport import (ControllerConfig, CouplingNetwork, CrosscheckError,
                                DivergenceError, NetworkState, ScenarioConfig,
                                StiffnessChain, TrajectorySpec, UnstableControllerWarning,
                                UnstableGainError, build_pinned_laplacian, load_config,
                                measured_force, simulate, step_baseline, step_dsr)
from cohesive_transport.dynamics import (_BLOCK_VALUES, _crosscheck, _run,
                                         baseline_update_forms, dsr_update_forms,
                                         num_steps)
from cohesive_transport.network import _FLOAT_WORK_LIMIT
from cohesive_transport.stability import baseline_gamma_bound
from cohesive_transport.trajectory import cutoff_sweep
from cohesive_transport.tuning import TuningSpec, tune

from conftest import CONFIG_DIR, DT, grid_network, step_counts, unit_step_scenario
from strategies import coupling_networks


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


@pytest.mark.parametrize("value", [2.0, 2.5, "2"])
def test_integer_fields_reject_non_integers(value):
    # rejected when built, not by a TypeError deep in a run
    with pytest.raises(ValueError, match="delay_multiple must be an integer"):
        ControllerConfig.dsr(0.39, 10.92, DT, delay_multiple=value)
    with pytest.raises(ValueError, match="start_index must be an integer"):
        TrajectorySpec(kind="step", amplitude=1.0, start_index=value)


def test_integer_fields_accept_numpy_integers(chain4):
    delayed = ControllerConfig.dsr(0.39, 10.92, DT, delay_multiple=np.int64(2))
    spec = TrajectorySpec(kind="step", amplitude=1.0, start_index=np.int64(2))
    scenario = ScenarioConfig(network=chain4, controller=delayed, trajectory=spec,
                              duration=3.0)
    expected = ScenarioConfig(network=chain4,
                              controller=ControllerConfig.dsr(0.39, 10.92, DT, 2),
                              trajectory=TrajectorySpec(kind="step", amplitude=1.0,
                                                        start_index=2),
                              duration=3.0)
    assert np.array_equal(simulate(scenario).positions, simulate(expected).positions)


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


@pytest.mark.parametrize("delay", [1, 3])
@pytest.mark.parametrize("runs", ["chain4", "mesh64", "chain4-batch"])
def test_each_robot_reads_its_force_once_per_sample(chain4, monkeypatch, delay, runs):
    # chain4 is read sample by sample (floats); the 64-robot mesh and a batch
    # of three chain4 runs a block at a time
    network = grid_network(8, 1) if runs == "mesh64" else chain4
    beta = 0.25 * baseline_gamma_bound(build_pinned_laplacian(network))
    config = ControllerConfig.dsr(0.39, beta, DT, delay)
    sensed = []

    def counting(network, positions):
        sensed.append(np.array(positions))
        return measured_force(network, positions)

    monkeypatch.setattr(dynamics, "measured_force", counting)
    if runs == "chain4-batch":
        positions = _joined_blocks(network, config, np.tile([1.0, 2.0, 3.0], (101, 1)))[0]
    else:
        positions = simulate(unit_step_scenario(network, config, duration=3.0)).positions
    rows = np.concatenate([np.reshape(p, (-1, network.n)) for p in sensed])
    stepped_from, runs = positions[:-1].reshape(-1, network.n), positions[0].size // network.n
    # each sample stepped from is read once, plus at most one reading of each
    # at-rest padding sample: the rows read that are not at rest are theirs
    assert len(stepped_from) <= len(rows) <= len(stepped_from) + delay * runs
    assert np.array_equal(rows[rows.any(axis=1)], stepped_from[stepped_from.any(axis=1)])


@pytest.mark.parametrize("step, config", [
    (step_baseline, ControllerConfig.baseline(1.93, DT)),
    (step_dsr, ControllerConfig.dsr(0.39, 10.92, DT, 2)),
], ids=["baseline", "dsr"])
def test_stored_readings_are_the_readings_sensed_again(chain4, lap4, rng, step, config):
    # both laws store their reading; only the cohesive law reads it again
    state = NetworkState.at_rest(np.zeros(4), delay_multiple=2)
    for y_d in rng.normal(0.0, 10.0, 12):
        state = state.advanced(step(state, lap4, chain4, config, y_d))
        if len(state.readings) == len(state.history):
            assert np.array_equal(state.readings[0],
                                  measured_force(chain4, state.delayed_positions))
    assert len(state.readings) == 2 and state.sensed_on is chain4


@pytest.mark.parametrize("rows", [(), (1,)], ids=["floats", "arrays"])
def test_the_baseline_reads_no_history(chain4, lap4, rows):
    # an empty history: a step that read the delayed positions would raise IndexError
    y = np.reshape([0.0, 1.0, 3.0, 6.0], rows + (4,))
    y_d = np.full(rows + (1,), 2.5) if rows else 2.5
    config = ControllerConfig.baseline(1.93, DT)
    assert np.array_equal(step_baseline(NetworkState.at_rest(y, 0), lap4, chain4, config, y_d),
                          baseline_update_forms(y, lap4, chain4, 1.93, y_d)[0])


def test_no_reading_crosses_networks(chain4, lap4):
    stiffer = StiffnessChain((0.05, 0.06, 0.05), chain4.leader_stiffness)
    config = ControllerConfig.dsr(0.39, 10.92, DT, 2)
    state = NetworkState.at_rest([0.0, 1.0, 3.0, 6.0], delay_multiple=2)
    for _ in range(2):   # fill the delay buffer with readings taken on `stiffer`
        with pytest.raises(CrosscheckError, match="disagree"):
            step_dsr(state, lap4, stiffer, config, 1.0)
        state = state.advanced(2.0 * state.positions)
    assert state.sensed_on is stiffer and len(state.readings) == 2
    with pytest.raises(CrosscheckError, match="disagree"):
        step_dsr(state, lap4, stiffer, config, 1.0)
    fresh = NetworkState(state.positions, state.history)
    assert np.array_equal(step_dsr(state, lap4, chain4, config, 1.0),
                          step_dsr(fresh, lap4, chain4, config, 1.0))
    with pytest.raises(CrosscheckError, match="disagree"):
        step_dsr(state, lap4, stiffer, config, 1.0)


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


def _crosscheck_row_by_row(stacked, local):
    """The crosscheck's documented bound, one Python float at a time: entry
    (b, k) must be within 1e-12 * max(1, max_k |stacked[b, k]|), a NaN in the
    row failing all of it. Returns (largest |stacked|, None), or (None, the
    message naming the first entry that fails)."""
    scales = []
    for stacked_row, local_row in zip(stacked.tolist(), local.tolist()):
        magnitudes = [abs(v) for v in stacked_row]
        scale = math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)
        bound = 1e-12 * (scale if math.isnan(scale) else max(1.0, scale))
        for s, l in zip(stacked_row, local_row):
            if not abs(s - l) <= bound:
                return None, (f"per-robot and stacked updates disagree by "
                              f"{abs(s - l):.3g} (bound {bound:.3g})")
        scales.append(scale)
    return max(scales), None


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _crosscheck_pairs(draw):
    """(stacked, local) of shape (batch, n), rows of scales from 0 to 1e6. Each
    row is exact, or one entry is off by about 1e-12 or about 1e-12 times the
    row's scale, by a non-finite residual, or is non-finite in ``stacked``."""
    batch, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    stacked, local = [], []
    for _ in range(batch):
        scale = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 250.0, 1e6]))
        row = [u * scale for u in draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                                max_size=n))]
        off = list(row)
        kind = draw(st.sampled_from(["exact", "atol", "row bound", "residual", "stacked"]))
        k, sign = draw(st.integers(0, n - 1)), draw(st.sampled_from([-1.0, 1.0]))
        near = sign * draw(st.floats(0.5, 1.5))
        if kind == "atol":
            off[k] += near * 1e-12
        elif kind == "row bound":
            off[k] += near * 1e-12 * max(1.0, max(map(abs, row)))
        elif kind == "residual":
            off[k] += draw(_NON_FINITE)
        elif kind == "stacked":
            row[k] = draw(_NON_FINITE)
            off[k] = draw(st.one_of(st.just(row[k]), _NON_FINITE, st.just(off[k])))
        stacked.append(row)
        local.append(off)
    return np.array(stacked), np.array(local)


@settings(max_examples=300, deadline=None)
@given(_crosscheck_pairs())
@example((np.array([[1.0, 0.5], [1e6, 2.0]]), np.array([[1.0, 0.5], [1e6, 2.0 + 1e-9]])))
@example((np.array([[1.0, 0.5], [1e6, 2.0]]), np.array([[1.0, 0.5 + 1e-9], [1e6, 2.0]])))
@example((np.array([[1.0, math.inf]]), np.array([[1.0, 5.0]])))
def test_crosscheck_of_a_batch_is_the_documented_bound_row_by_row(pair):
    # each row also as one state checked in floats, from its (stacked, local) pairs
    stacked, local = pair

    def crosscheck_floats(row, local_row):
        checked, scale = dynamics._crosscheck_floats(list(zip(row.tolist(), local_row)))
        assert _same_bits(checked, row)
        return scale

    cases = [(_crosscheck, stacked, local)] + [
        (crosscheck_floats, row, local_row.tolist()) for row, local_row in zip(stacked, local)]
    with np.errstate(invalid="ignore"):   # inf - inf is a NaN residual
        for crosscheck, rows, local_rows in cases:
            expected_scale, expected_message = _crosscheck_row_by_row(
                np.atleast_2d(rows), np.atleast_2d(local_rows))
            if expected_message is None:
                assert float(crosscheck(rows, local_rows)) == expected_scale
            else:
                with pytest.raises(CrosscheckError) as exc:
                    crosscheck(rows, local_rows)
                assert str(exc.value) == expected_message


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
    shapes = ((), (1,), (3,))   # one state, and batches of 1 and 3 rows
    for _ in range(3):
        for config in configs:   # interleaved: all twelve entries share one cache
            step = step_baseline if config.kind == "baseline" else step_dsr
            for rows in shapes:
                positions, delayed = rng.normal(0.0, 10.0, (2,) + rows + (4,))
                y_d = rng.normal(0.0, 10.0, rows + (1,)) if rows else float(rng.normal(0.0, 10.0))
                state = NetworkState(positions, (delayed,) * config.delay_multiple)
                fresh = build()
                fresh_lap = build_pinned_laplacian(fresh)
                stepped = step(state, lap, shared, config, y_d)
                assert np.array_equal(stepped, step(state, fresh_lap, fresh, config, y_d))
                assert np.array_equal(_update_forms(state, lap, shared, config, y_d),
                                      _update_forms(state, fresh_lap, fresh, config, y_d))
                for k in range(len(positions)) if rows else ():
                    single = NetworkState(positions[k], (delayed[k],) * config.delay_multiple)
                    assert np.array_equal(stepped[k], step(single, lap, shared, config,
                                                           float(y_d[k, 0])))
    # one entry: the gains and shape last stepped, the last single state's
    assert list(shared._law_coefficients) == [(("dsr", 0.2, 5.0, DT, 2), (4,))]


def test_stepping_one_network_at_many_gains_keeps_one_law_entry(rng):
    def build():
        return StiffnessChain((0.05, 0.07, 0.04), (0.05, 0.0, 0.02, 0.0))
    shared = build()
    lap = build_pinned_laplacian(shared)
    state = NetworkState.at_rest(rng.normal(0.0, 10.0, 4))
    for gamma in np.linspace(0.1, 5.0, 50).tolist():
        config = ControllerConfig.baseline(gamma, DT)
        fresh = build()
        assert np.array_equal(step_baseline(state, lap, shared, config, 2.5),
                              step_baseline(state, build_pinned_laplacian(fresh), fresh,
                                            config, 2.5))
    assert list(shared._law_coefficients) == [(("baseline", gamma), (4,))]


def _random_chain(n):
    rng = np.random.default_rng(n)
    return StiffnessChain(tuple(rng.uniform(0.01, 10.0, n - 1)), (0.05,) + (0.0,) * (n - 1))


@settings(max_examples=60, deadline=None)
@given(coupling_networks(), st.integers(0, 2**32 - 1))
@example(StiffnessChain((0.05,) * 3, (0.05, 0.0, 0.0, 0.0)), 0)   # the reference chain
@example(_random_chain(1), 1)
@example(_random_chain(64), 64)
@example(_random_chain(256), 256)
def test_stacked_forms_use_the_laplacian_they_are_handed_bit_for_bit(network, seed):
    # np.matvec on one state must round as y @ K.T does, since trace.csv's
    # bytes rest on it. The mirrored leader springs give another K and B
    # for the same network.
    other = build_pinned_laplacian(CouplingNetwork(network.n, network.couplings,
                                                   network.leader_stiffness[::-1]))
    own = build_pinned_laplacian(network)
    y, y_old = np.random.default_rng(seed).normal(0.0, 10.0, (2, network.n))
    rate, delta = 0.39 * 10.92 * DT, y - y_old
    for lap in (own, other, own):
        k_y, k_delta = y @ lap.matrix.T, delta @ lap.matrix.T
        stacked, _ = baseline_update_forms(y, lap, network, 1.93, 2.5)
        assert np.array_equal(stacked, y - 1.93 * k_y + 1.93 * lap.leader_vector * 2.5)
        stacked, _ = dsr_update_forms(y, y_old, lap, network, 0.39, 10.92, DT, 2, 2.5)
        assert np.array_equal(stacked, y - rate * k_y + rate * lap.leader_vector * 2.5
                              + (delta - 10.92 * k_delta) / 2)


@pytest.mark.parametrize("rows", [(), (2,)])
def test_step_dsr_rejects_a_history_of_another_delay(chain4, lap4, rows):
    config = ControllerConfig.dsr(0.39, 10.92, DT, 3)
    y_d = np.ones(rows + (1,)) if rows else 1.0
    for held in (1, 2, 4):
        state = NetworkState.at_rest(np.zeros(rows + (4,)), held)
        with pytest.raises(ValueError, match=f"holds {held} samples; delay_multiple is 3"):
            step_dsr(state, lap4, chain4, config, y_d)
    step_dsr(NetworkState.at_rest(np.zeros(rows + (4,)), 3), lap4, chain4, config, y_d)


@pytest.mark.parametrize("offset", [-1, 1], ids=["n-1", "n+1"])
@pytest.mark.parametrize("robots, rows", [(4, ()), (15, ()), (4, (2,))],
                         ids=["chain4-floats", "chain15-arrays", "chain4-batch"])
@pytest.mark.parametrize("step, config", [
    (step_baseline, ControllerConfig.baseline(1.93, DT)),
    (step_dsr, ControllerConfig.dsr(0.39, 10.92, DT)),
], ids=["baseline", "dsr"])
def test_both_laws_name_a_state_of_the_wrong_width(step, config, robots, rows, offset):
    # one chain4 state takes the float route, one of 15 robots (15 + 28 springs) the arrays
    network = StiffnessChain((0.05,) * (robots - 1), (0.05,) + (0.0,) * (robots - 1))
    assert (network._spring_floats is None) == (robots == 15)
    lap = build_pinned_laplacian(network)
    y_d = np.ones(rows + (1,)) if rows else 1.0
    step(NetworkState.at_rest(np.zeros(rows + (robots,))), lap, network, config, y_d)
    shape = rows + (robots + offset,)   # stepped after a state of the right width
    with pytest.raises(ValueError) as exc:
        step(NetworkState.at_rest(np.zeros(shape)), lap, network, config, y_d)
    assert str(exc.value) == (f"positions of shape {shape} for {robots} robots: "
                              f"need ({robots},) or (batch, {robots})")
    with pytest.raises(ValueError, match=re.escape(str(exc.value))):
        measured_force(network, np.zeros(shape))


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
            assert np.array_equal(batched[k], single)


def _stepped_one_at_a_time(network, config, references):
    """Samples 0..steps of ``references`` from rest, one public step call each."""
    samples, error = _stepped_to_the_first_error(network, build_pinned_laplacian(network),
                                                 config, references)
    assert error is None
    return samples


def _stepped_to_the_first_error(network, lap, config, references):
    """(samples from rest, one public step call each, up to the first that
    raises; that error as (class, message, step) or None)."""
    step = step_baseline if config.kind == "baseline" else step_dsr
    state = NetworkState.at_rest(np.zeros(references.shape[1:] + (network.n,)),
                                 config.delay_multiple)
    samples = [state.positions]
    try:
        for y_d in references[:-1]:
            y_d = float(y_d) if references.ndim == 1 else y_d[:, None]
            state = state.advanced(step(state, lap, network, config, y_d))
            samples.append(state.positions)
    except (CrosscheckError, DivergenceError) as exc:
        return np.array(samples), (type(exc), str(exc), getattr(exc, "step", None))
    return np.array(samples), None


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


def _network_of_work(work):
    """A chain of as many robots as ``work`` allows, plus couplings (0, k):
    ``work`` robots plus directed springs."""
    n = (work + 2) // 3
    n -= (work - n) % 2
    couplings = {(i, i + 1): 0.05 + 0.001 * i for i in range(n - 1)}
    couplings.update({(0, k): 0.04 for k in range(2, 2 + (work - n) // 2 - (n - 1))})
    network = CouplingNetwork(n, couplings, (0.05,) + (0.0,) * (n - 1))
    assert network.n + 2 * len(network.couplings) == work
    return network


def _stiffer(network):
    """The network with its first coupling 1.5 times as stiff."""
    couplings = dict(network.couplings)
    couplings[next(iter(couplings))] *= 1.5
    return CouplingNetwork(network.n, couplings, network.leader_stiffness)


def _ramp(network, rows):
    return np.arange(rows * network.n, dtype=float).reshape(rows, network.n)


_AT_THE_LIMIT = [_network_of_work(_FLOAT_WORK_LIMIT + d) for d in (-1, 0, 1)]
_EDGES = st.sampled_from([-0.0, 1e300, -1e300, math.nan, math.inf, -math.inf, 1e9, -1e9,
                          math.nextafter(1e9, 0.0), math.nextafter(1e9, math.inf)])


def _law(kind, gain, delay):
    """gamma = gain; or alpha = 0.39 and beta = min(gain, 11), but alpha = gain
    for the overflowing gain 1e308."""
    return (ControllerConfig.baseline(gain, DT) if kind == "baseline"
            else ControllerConfig.dsr(0.39 if gain < 1e300 else gain, min(gain, 11.0), DT,
                                      delay))


@st.composite
def _single_runs(draw, networks=coupling_networks(max_robots=20)):
    """(network, the network stepped on, law, positions then history oldest
    first as rows, references): the network stepped on may have one spring
    stiffer than the Laplacian's, the state sits near 0 or near 1e9 cm with up
    to two edge values, the references likewise, and a gain of 1e308
    overflows the per-robot coefficients of strong leader springs."""
    network = draw(networks)
    gain = draw(st.sampled_from([None] * 7 + [1e308])) or draw(st.floats(0.01, 5.0))
    config = _law(draw(st.sampled_from(["baseline", "dsr"])), gain, draw(st.integers(1, 3)))
    stepped_on = network
    if network.couplings and draw(st.booleans()):
        stepped_on = _stiffer(network)
    offset = draw(st.sampled_from([0.0, 0.9999e9]))
    size = (config.delay_multiple + 1) * network.n
    values = [v + offset for v in draw(st.lists(st.floats(-100.0, 100.0),
                                                min_size=size, max_size=size))]
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, size - 1))] = draw(_EDGES)
    references = draw(st.lists(st.floats(-100.0, 100.0).map(lambda v: v + offset) | _EDGES,
                               min_size=1, max_size=6))
    return network, stepped_on, config, np.reshape(values, (-1, network.n)), references


def _outcome(step, state, lap, network, config, y_d):
    try:
        return step(state, lap, network, config, y_d)
    except (CrosscheckError, DivergenceError, UnstableGainError) as exc:
        return type(exc), str(exc)


def _same_bits(a, b):
    """Bitwise equal arrays, every NaN counted as one value."""
    a, b = (np.where(np.isnan(x), np.nan, x) for x in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(_single_runs())
@example((_AT_THE_LIMIT[0], _AT_THE_LIMIT[0], _law("dsr", 5.0, 3), _ramp(_AT_THE_LIMIT[0], 4),
          [1.0, 2.0, -0.0]))
@example((_AT_THE_LIMIT[1], _AT_THE_LIMIT[1], _law("baseline", 1.0, 1),
          _ramp(_AT_THE_LIMIT[1], 2), [1.0, math.nan]))
@example((_AT_THE_LIMIT[2], _AT_THE_LIMIT[2], _law("dsr", 5.0, 2), _ramp(_AT_THE_LIMIT[2], 3),
          [1.0, 2.0, 3.0]))
@example((_AT_THE_LIMIT[1], _stiffer(_AT_THE_LIMIT[1]), _law("dsr", 5.0, 1),
          _ramp(_AT_THE_LIMIT[1], 2), [1.0]))
@example((_AT_THE_LIMIT[2], _stiffer(_AT_THE_LIMIT[2]), _law("baseline", 1.0, 1),
          _ramp(_AT_THE_LIMIT[2], 2), [1.0]))
def test_single_run_routes_match_their_batch_row(case):
    """One state steps, reads and fails as its row in a (1, n) batch, which
    takes the array route: the same bits, the same error and message. On a
    small network both laws are evaluated robot by robot in floats, each with
    the bits of the array route's form."""
    network, stepped_on, config, rows, references = case
    small = stepped_on.n + 2 * len(stepped_on.couplings) <= _FLOAT_WORK_LIMIT
    hypothesis.event("floats" if small else "arrays")
    lap = build_pinned_laplacian(network)
    step = step_baseline if config.kind == "baseline" else step_dsr
    single = NetworkState(rows[0], tuple(rows[1:]))
    batch = NetworkState(rows[0][None], tuple(row[None] for row in rows[1:]))
    checked, crosscheck_floats = [], dynamics._crosscheck_floats

    def recorded(pairs):
        checked.append(np.array(pairs).T)   # the stacked values, then the per-robot ones
        return crosscheck_floats(pairs)

    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_crosscheck_floats", recorded)
        for y_d in references:
            assert _same_bits(measured_force(stepped_on, single.positions),
                              measured_force(stepped_on, batch.positions)[0])
            try:   # the array route's two forms
                forms = np.array(_update_forms(single, lap, stepped_on, config, y_d))
            except UnstableGainError:
                forms = None
            checked.clear()
            got = _outcome(step, single, lap, stepped_on, config, y_d)
            assert len(checked) == (small and forms is not None)
            assert not checked or _same_bits(checked[0], forms)
            want = _outcome(step, batch, lap, stepped_on, config, np.full((1, 1), y_d))
            assert _same_bits(single.reading, batch.reading[0])   # the stored reading
            if isinstance(want, tuple):
                assert got == want
                hypothesis.event(want[0].__name__)
                return
            assert _same_bits(got, want[0])
            single, batch = single.advanced(got), batch.advanced(want)


@settings(deadline=None)
@given(coupling_networks(max_robots=20), st.sampled_from(["baseline", "dsr"]),
       st.integers(1, 3), st.floats(0.5e9, 3e9), st.floats(0.1, 3.0))
@example(StiffnessChain((0.05,) * 3, (0.05, 0.0, 0.0, 0.0)), "baseline", 1, 1.5e9, 1.0)
@example(StiffnessChain((0.05,) * 3, (0.05, 0.0, 0.0, 0.0)), "dsr", 2, 1.5e9, 2.5)
@example(_AT_THE_LIMIT[0], "dsr", 3, 1.5e9, 1.0)
@example(_AT_THE_LIMIT[1], "baseline", 1, 2e9, 2.0)
@example(_AT_THE_LIMIT[2], "dsr", 1, 1.5e9, 1.0)
def test_single_run_routes_diverge_at_their_batch_rows_step(network, kind, delay,
                                                            amplitude, gain):
    """Driven towards ``amplitude`` past 1e9 cm, a single run (Python-float
    references, the float route on a small network) steps the same samples
    as its batch of one and raises the same error at the same step."""
    lap = build_pinned_laplacian(network)
    config = _law(kind, gain * baseline_gamma_bound(lap), delay)
    references = np.full(301, amplitude)
    runs = []
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UnstableControllerWarning)
        for refs in (references, references[:, None]):
            samples = []
            try:
                for _, block in _run(network, config, refs):
                    samples.append(block[1:].reshape(-1, network.n).copy())
                error = None
            except (CrosscheckError, DivergenceError) as exc:
                error = (type(exc), str(exc))
            runs.append((np.concatenate(samples) if samples else None, error))
    (single, single_error), (batch, batch_error) = runs
    assert single_error == batch_error
    assert (single is None and batch is None) or _same_bits(single, batch)
    hypothesis.event("diverged" if single_error else "stayed below 1e9 cm")


_CHAIN4 = StiffnessChain((0.05,) * 3, (0.05, 0.0, 0.0, 0.0))
_LARGE = _AT_THE_LIMIT[2]   # one more than the float route's limit


def _refs(values, batch=None):
    """References of a single run, or of ``batch`` runs that share them."""
    values = np.array(values, dtype=float)
    return values if batch is None else np.repeat(values[:, None], batch, axis=1)


@st.composite
def _block_runs(draw):
    """(network, the network stepped on, law, references, samples a block): a
    batch of 1-3 runs on a network of up to 5 robots, or one run on a network
    above the float route's limit; the network stepped on may have one spring
    stiffer than the Laplacian's, the references sit near 0 or near 1e9 cm
    with up to two edge values, and a block holds 1-3 samples, fewer than the
    delay of up to 3 samples or more."""
    batch = draw(st.sampled_from([None, 1, 2, 3]))
    network = draw(coupling_networks(max_robots=5) if batch else st.sampled_from(
        [_LARGE, grid_network(4, 2)]))
    stepped_on = _stiffer(network) if network.couplings and draw(st.booleans()) else network
    gain = draw(st.floats(0.05, 1.5)) * baseline_gamma_bound(build_pinned_laplacian(network))
    config = _law(draw(st.sampled_from(["baseline", "dsr"])), gain, draw(st.integers(1, 3)))
    offset = draw(st.sampled_from([0.0, 0.9999e9]))
    values = draw(st.lists(st.floats(-100.0, 100.0).map(lambda v: v + offset),
                           min_size=2, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] = draw(_EDGES)
    return network, stepped_on, config, _refs(values, batch), draw(st.integers(1, 3))


@settings(deadline=None)
@given(_block_runs())
# NaN, +inf and -inf references, a 1e9 cm divergence and a stiffer spring, each
# failing at a block's first sample, then at its last
@example((_CHAIN4, _CHAIN4, _law("baseline", 1.93, 1), _refs([1, 2, math.nan, 4, 5], 2), 2))
@example((_LARGE, _LARGE, _law("dsr", 5.0, 3), _refs([1, 2, 3, math.nan, 5, 6]), 2))
@example((_LARGE, _LARGE, _law("baseline", 1.0, 1), _refs([1, 2, 3, math.inf, 5, 6]), 3))
@example((_CHAIN4, _CHAIN4, _law("dsr", 10.92, 2), _refs([1, 2, 3, 4, 5, -math.inf, 7], 3), 3))
@example((_CHAIN4, _CHAIN4, _law("dsr", 10.92, 1), _refs([1, 2, 2e11, 2e11, 2e11], 1), 2))
@example((_LARGE, _LARGE, _law("baseline", 1.0, 1), _refs([1, 2, 3, 3e10, 3e10, 3e10]), 2))
@example((_CHAIN4, _stiffer(_CHAIN4), _law("baseline", 1.93, 1), _refs([0, 1, 1, 1, 1], 3), 2))
@example((_LARGE, _stiffer(_LARGE), _law("dsr", 5.0, 3), _refs([0, 0, 1, 1, 1, 1]), 2))
def test_block_check_matches_per_sample_steps(case):
    """Batches and large networks step only the stacked law per sample and
    check a block at a time. They yield the positions of the public step
    called sample by sample, bitwise, and raise its error, with its message
    and step, at the same sample; no sample from the failing one on reaches
    the caller, and no sample stepped past it warns."""
    network, stepped_on, config, references, rows = case
    lap = build_pinned_laplacian(network)
    with np.errstate(all="ignore"):
        want, want_error = _stepped_to_the_first_error(stepped_on, lap, config, references)
    got, error = [np.zeros(references.shape[1:] + (network.n,))], None
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("ignore", UnstableControllerWarning)
        patch.setattr(dynamics, "_BLOCK_VALUES", rows * references[0].size * network.n)
        patch.setattr(dynamics, "build_pinned_laplacian", lambda _: lap)
        try:
            for m, block in _run(stepped_on, config, references):
                assert m == len(got) and len(block) - 1 <= rows
                got.extend(block[1:].copy())
        except (CrosscheckError, DivergenceError) as exc:
            error = (type(exc), str(exc), getattr(exc, "step", None))
    assert error == want_error
    if error is None:
        assert _same_bits(np.array(got), want)
        return
    failed = len(want)   # the sample that raised
    assert len(got) <= failed < len(got) + rows
    assert _same_bits(np.array(got), want[:len(got)])
    hypothesis.event(f"{error[0].__name__} at a block's "
                     f"{'first' if failed == len(got) else 'last'} sample"
                     if failed in (len(got), min(len(got) + rows, len(references)) - 1)
                     else f"{error[0].__name__} inside a block")


def _route_scenario(name):
    """A bundled chain4 config, or one law on the 64-robot mesh (3 s)."""
    if name.endswith(".cfg"):
        return load_config(CONFIG_DIR / name)
    mesh = grid_network(8, 1)
    gain = 0.25 * baseline_gamma_bound(build_pinned_laplacian(mesh))
    controller = (ControllerConfig.baseline(gain, DT) if name == "mesh64-baseline"
                  else ControllerConfig.dsr(0.39, gain, DT))
    return ScenarioConfig(network=mesh, controller=controller, duration=3.0,
                          trajectory=TrajectorySpec("filtered_step", 50.0, 0.1))


@pytest.mark.parametrize("name, route", [
    ("chain4_baseline.cfg", "floats"), ("chain4_dsr.cfg", "floats"),
    ("mesh64-baseline", "arrays"), ("mesh64-dsr", "arrays")])
def test_simulate_steps_every_sample_on_its_route(monkeypatch, name, route):
    # chain4 (10 robots plus directed springs) is stepped in floats, one check a
    # sample; the mesh (64 + 224) a block of 64 samples at a time, one check a
    # block: 2 for its 100 samples
    checks, counts = _counted_checks(monkeypatch), step_counts(monkeypatch)
    steps = simulate(_route_scenario(name)).num_samples - 1
    assert sum(counts.values()) == steps
    assert checks == {route: steps if route == "floats" else -(-steps // 64)}


@pytest.mark.parametrize("command, route, samples, checked", [
    ("tune", "arrays", 352 + 336, 2), ("sweep", "arrays", 530, 17)])
def test_tune_and_sweep_step_on_their_routes(monkeypatch, chain4, command, route, samples,
                                             checked):
    # the tuner steps chain4's unit responses as batches of one run, one check a
    # block: the baseline's 352 samples, then the cohesive law's 336, each one
    # block that ends where the tail bound predicts the stop from rest; the
    # sweep steps its 25 cutoffs as one batch until it stops at sample 530, in
    # blocks of at most 40 samples that also end at samples 16, 32, 64, ...,
    # 512 and at each stop tried
    checks, counts = _counted_checks(monkeypatch), step_counts(monkeypatch)
    if command == "tune":
        tune(chain4, TuningSpec(10, 0.03))
    else:
        cutoff_sweep(_route_scenario("chain4_baseline.cfg"), cli._DEFAULT_SWEEP)
    assert sum(counts.values()) == samples
    assert checks == {route: checked}


def _counted_checks(monkeypatch):
    """Counts the checks by route from here on: one per sample in floats,
    one per block as arrays; a float step that falls back to the arrays
    counts on both."""
    checks = Counter()
    for check, counted_as in (("_crosscheck_floats", "floats"), ("_crosscheck", "arrays")):
        def counted(*args, _check=getattr(dynamics, check), _as=counted_as):
            checks[_as] += 1
            return _check(*args)
        monkeypatch.setattr(dynamics, check, counted)
    return checks


_OPTIMIZED_SCRIPT = """
assert False, "asserts are still on"
import numpy as np
from cohesive_transport import *
from cohesive_transport.network import _FLOAT_WORK_LIMIT
chain = StiffnessChain((0.05, 0.05, 0.05), (0.05, 0, 0, 0))
stiffer = StiffnessChain((0.05, 0.06, 0.05), (0.05, 0, 0, 0))
lap = build_pinned_laplacian(chain)
single = NetworkState.at_rest([0.0, 1.0, 3.0, 6.0], delay_multiple=2)
batch = NetworkState.at_rest([[0.0] * 4, [0.0, 1.0, 3.0, 6.0]], delay_multiple=2)
# a chain of 3 n - 2 > _FLOAT_WORK_LIMIT robots plus directed springs
n = _FLOAT_WORK_LIMIT // 3 + 2
leaders = (0.05,) + (0.0,) * (n - 1)
large_lap = build_pinned_laplacian(StiffnessChain((0.05,) * (n - 1), leaders))
large = StiffnessChain((0.06,) + (0.05,) * (n - 2), leaders)
large_single = NetworkState.at_rest(np.arange(n) ** 2.0, delay_multiple=2)
for label, network, laplacian, state, y_d in (
        ("", stiffer, lap, single, 1.0), ("large ", large, large_lap, large_single, 1.0),
        ("batched ", stiffer, lap, batch, np.ones((2, 1)))):
    for step, config in ((step_baseline, ControllerConfig.baseline(1.93, 0.03)),
                         (step_dsr, ControllerConfig.dsr(0.39, 10.92, 0.03, 2))):
        try:
            step(state, laplacian, network, config, y_d)
        except CrosscheckError:
            (_, constants), = network._law_coefficients.values()
            route = "arrays" if constants[-1] is None else "floats"
            print(label + step.__name__, "raised on the", route, "route")
"""


def test_crosscheck_survives_optimized_python():
    src = Path(cohesive_transport.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    # one state of four robots is checked in floats, a larger one and a batch as arrays
    assert result.stdout.splitlines() == [
        "step_baseline raised on the floats route", "step_dsr raised on the floats route",
        "large step_baseline raised on the arrays route",
        "large step_dsr raised on the arrays route",
        "batched step_baseline raised on the arrays route",
        "batched step_dsr raised on the arrays route"]


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
