import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesive_transport import (CalibrationError, CalibrationRecord,
                                CouplingNetwork, StiffnessChain,
                                UnpinnedNetworkError, build_pinned_laplacian,
                                calibrate_stiffness, measured_force,
                                neighbor_forces)
from cohesive_transport.dynamics import baseline_update_forms, dsr_update_forms

from conftest import DT
from strategies import (chains, chains_with_positions, coupling_networks,
                        position_values)


def test_reference_chain_matrix(lap4):
    expected = np.array([
        [0.10, -0.05, 0.0, 0.0],
        [-0.05, 0.10, -0.05, 0.0],
        [0.0, -0.05, 0.10, -0.05],
        [0.0, 0.0, -0.05, 0.05],
    ])
    assert np.array_equal(lap4.matrix, expected)
    assert np.array_equal(lap4.leader_vector, [0.05, 0.0, 0.0, 0.0])


def test_reference_chain_extreme_eigenvalues(lap4):
    # closed form: 0.05*(2 - 2cos(pi/9)) and 0.05*(2 - 2cos(7pi/9))
    assert lap4.lambda_min == pytest.approx(0.00603074, abs=5e-7)
    assert lap4.lambda_max == pytest.approx(0.17660444, abs=5e-7)
    # the balance gain these imply is the usual quoted figure
    assert 2.0 / (lap4.lambda_min + lap4.lambda_max) == pytest.approx(10.95, abs=5e-3)


def test_single_pinned_robot():
    lap = build_pinned_laplacian(StiffnessChain((), (0.05,)))
    assert np.array_equal(lap.matrix, [[0.05]])
    assert np.array_equal(lap.leader_vector, [0.05])
    assert np.allclose(lap.eigenvalues, [0.05])


def test_unpinned_network_rejected():
    chain = StiffnessChain((0.05, 0.05), (0.0, 0.0, 0.0))
    with pytest.raises(UnpinnedNetworkError, match="unpinned"):
        build_pinned_laplacian(chain)


def test_arrays_are_read_only(lap4):
    with pytest.raises(ValueError):
        lap4.matrix[0, 0] = 1.0


def test_coupling_map_equivalent_to_chain(chain4, lap4):
    explicit = CouplingNetwork(4, {(0, 1): 0.05, (1, 2): 0.05, (2, 3): 0.05},
                               (0.05, 0.0, 0.0, 0.0))
    assert type(chain4) is CouplingNetwork and chain4 == explicit
    assert list(chain4.couplings) == [(0, 1), (1, 2), (2, 3)]
    assert pickle.loads(pickle.dumps(chain4)) == explicit
    for ours, theirs in zip(chain4._springs, explicit._springs, strict=True):
        assert ours.tobytes() == theirs.tobytes()
    lap = build_pinned_laplacian(explicit)
    for field in ("matrix", "leader_vector", "eigenvalues", "eigenvectors"):
        assert getattr(lap, field).tobytes() == getattr(lap4, field).tobytes()


def test_coupling_network_caches_its_laplacian_and_pickles():
    net = CouplingNetwork(3, {(1, 0): 0.1, (1, 2): 0.2}, (0.05, 0.0, 0.0))
    assert dict(net.couplings) == {(0, 1): 0.1, (1, 2): 0.2}
    assert build_pinned_laplacian(net) is build_pinned_laplacian(net)
    copy = pickle.loads(pickle.dumps(net))
    assert copy == net
    assert np.array_equal(build_pinned_laplacian(copy).matrix,
                          build_pinned_laplacian(net).matrix)


def test_general_topology_star():
    # robot 0 in the middle, pinned; three satellites
    lap = build_pinned_laplacian(CouplingNetwork(
        4, {(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3}, (0.05, 0, 0, 0)))
    assert lap.matrix[0, 0] == pytest.approx(0.65)
    assert lap.matrix[1, 1] == pytest.approx(0.1)
    assert np.all(lap.eigenvalues > 0)


def test_coupling_network_validation():
    with pytest.raises(ValueError, match="duplicate"):
        CouplingNetwork(3, {(0, 1): 0.1, (1, 0): 0.2}, (0.1, 0, 0))
    with pytest.raises(ValueError, match="invalid coupling"):
        CouplingNetwork(3, {(0, 3): 0.1}, (0.1, 0, 0))
    with pytest.raises(ValueError, match="positive"):
        CouplingNetwork(3, {(0, 1): -0.1}, (0.1, 0, 0))


def test_disconnected_component_rejected():
    # robots 2,3 form an island that is not pinned anywhere
    with pytest.raises(UnpinnedNetworkError):
        build_pinned_laplacian(CouplingNetwork(4, {(0, 1): 0.1, (2, 3): 0.1},
                                               (0.05, 0, 0, 0)))


def test_chain_validation():
    with pytest.raises(ValueError, match="one entry per robot"):
        StiffnessChain((0.05,), (0.05,))
    with pytest.raises(ValueError, match="one entry per robot"):
        StiffnessChain((0.05,), (0.05, 0.0, 0.0))
    with pytest.raises(ValueError, match="positive"):
        StiffnessChain((0.0,), (0.05, 0.0))
    with pytest.raises(ValueError, match="non-negative"):
        StiffnessChain((0.05,), (-0.05, 0.0))


@settings(max_examples=60, deadline=None)
@given(chains())
def test_rows_sum_to_leader_vector(chain):
    lap = build_pinned_laplacian(chain)
    assert np.max(np.abs(lap.matrix.sum(axis=1) - lap.leader_vector)) < 1e-12
    ones = np.ones(lap.n)
    assert np.max(np.abs(lap.matrix @ ones - lap.leader_vector)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(chains())
def test_eigendecomposition_bounds(chain):
    lap = build_pinned_laplacian(chain)
    n = lap.n
    p = lap.eigenvectors
    assert np.max(np.abs(p.T @ p - np.eye(n))) < 1e-10
    recon = p @ np.diag(lap.eigenvalues) @ p.T
    assert np.max(np.abs(recon - lap.matrix)) < 1e-10 * np.max(np.abs(lap.matrix))
    assert np.all(lap.eigenvalues > 0)


@settings(max_examples=60, deadline=None)
@given(coupling_networks(), st.integers(0, 4), st.data())
def test_measured_force_on_a_batch_is_row_by_row(network, batch, data):
    rows = np.array([data.draw(st.lists(position_values, min_size=network.n,
                                        max_size=network.n))
                     for _ in range(batch)]).reshape(batch, network.n)
    forces = measured_force(network, rows)
    assert forces.shape == rows.shape
    for k in range(batch):
        assert np.array_equal(forces[k], measured_force(network, rows[k]))


def test_measured_force_scatter_index_is_kept_for_the_largest_batch(rng):
    def build():
        return StiffnessChain((0.05, 0.07, 0.04), (0.05, 0.0, 0.02, 0.0))
    network = build()
    kept = []
    for batch in (3, 2, 3, 1, 2, 5, 4):   # smaller batches read the largest's prefix
        rows = rng.normal(0.0, 10.0, (batch, network.n))
        forces = measured_force(network, rows)
        assert len(network._batch_bins) == 1
        kept.append(network._batch_bins[max(network._batch_bins)])
        assert np.array_equal(forces, measured_force(build(), rows))
        for k in range(batch):
            assert np.array_equal(forces[k], measured_force(network, rows[k]))
    assert list(network._batch_bins) == [5]
    # built at the first 3 rows and again at 5, never when the size shrinks
    assert [arrays is kept[0] for arrays in kept] == [True] * 5 + [False] * 2
    assert kept[-1] is kept[-2]


@pytest.mark.parametrize("shape", [(2, 5), (5,), (3,), (2, 3, 4), ()])
def test_measured_force_rejects_positions_that_are_not_one_per_robot(chain4, shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} for 4 robots")):
        measured_force(chain4, np.zeros(shape))


@settings(max_examples=100, deadline=None)
@given(coupling_networks())
def test_unit_moves_read_the_pinned_laplacian_less_its_leader_springs(network):
    # Row b moves robot b by 1 cm and holds the rest, so robot k != b reads
    # -khat_kb = K[b, k] and robot b reads the sum of its springs, K[b, b] - B[b].
    lap = build_pinned_laplacian(network)
    forces = measured_force(network, np.eye(network.n))
    expected = lap.matrix - np.diag(lap.leader_vector)
    off = ~np.eye(network.n, dtype=bool)
    assert np.array_equal(forces[off], expected[off])   # one term each: exact
    # The diagonal sums robot b's d_b springs in two orders: the reading
    # rounds d_b - 1 partial sums, K[b, b] rounds d_b (its springs, then
    # B[b]), and subtracting B[b] rounds once more. Each rounding is at
    # most eps/2 * K[b, b], so they differ by at most d_b * eps * K[b, b]
    # to first order; one more eps * K[b, b] covers the higher orders.
    degree = np.bincount(np.array(list(network.couplings), dtype=np.intp).ravel(),
                         minlength=network.n)
    bound = (degree + 1) * np.finfo(float).eps * np.diag(lap.matrix)
    assert np.all(np.abs(np.diag(forces) - np.diag(expected)) <= bound)


def test_measured_force_undeformed(chain4):
    positions = [3.0, 3.0, 3.0, 3.0]
    for robot in range(4):
        assert measured_force(chain4, positions)[robot] == 0.0


def test_measured_force_reference_values(chain4):
    # one robot displaced by 1 cm loads only its own spring
    positions = [1.0, 0.0, 0.0, 0.0]
    forces = measured_force(chain4, positions)
    assert forces[0] == pytest.approx(0.05, abs=1e-15)
    assert forces[1] == pytest.approx(-0.05, abs=1e-15)
    assert forces[2] == 0.0


@settings(max_examples=60, deadline=None)
@given(chains_with_positions())
def test_stacked_forces_match_per_robot(chain_positions):
    chain, positions = chain_positions
    lap = build_pinned_laplacian(chain)
    stacked = neighbor_forces(lap, np.asarray(positions))
    scale = max(1.0, float(np.max(np.abs(stacked))))
    assert np.max(np.abs(stacked - measured_force(chain, positions))) <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(coupling_networks(), st.data())
def test_spring_list_sensing_on_random_networks(net, data):
    positions = st.lists(position_values, min_size=net.n, max_size=net.n)
    y = np.array(data.draw(positions))
    y_old = np.array(data.draw(positions))
    y_d = data.draw(position_values)
    lap = build_pinned_laplacian(net)
    # Rounding grows with the size of the summed terms, not of their sum,
    # so every bound is 1e-12 of the terms each result adds up.
    terms = np.abs(lap.matrix) @ (np.abs(y) + np.abs(y_old) + abs(y_d))

    forces = measured_force(net, y)
    scale = max(1.0, float(np.max(terms)))
    assert np.max(np.abs(forces - neighbor_forces(lap, y))) <= 1e-12 * scale

    gamma = data.draw(st.floats(0.1, 5.0))
    stacked, local = baseline_update_forms(y, lap, net, gamma, y_d)
    scale = max(1.0, float(np.max(np.abs(y) + gamma * terms)))
    assert np.max(np.abs(stacked - local)) <= 1e-12 * scale

    alpha, beta = data.draw(st.floats(0.05, 2.0)), data.draw(st.floats(0.1, 11.0))
    delay = data.draw(st.integers(2, 5))
    stacked, local = dsr_update_forms(y, y_old, lap, net, alpha, beta, DT, delay, y_d)
    scale = max(1.0, float(np.max(np.abs(y) + np.abs(y_old)
                                  + (alpha * beta * DT + beta) * terms)))
    assert np.max(np.abs(stacked - local)) <= 1e-12 * scale

    with pytest.raises(TypeError):
        net.couplings[(0, 1)] = 1.0


def test_calibration_reference_procedure():
    records = [CalibrationRecord(0, 10.0, 0.5),
               CalibrationRecord(1, 10.0, 1.0),
               CalibrationRecord(2, 10.0, 1.0)]
    chain = calibrate_stiffness(records, leader_stiffness=(0.05, 0, 0, 0))
    assert tuple(chain.couplings.values()) == pytest.approx((0.05, 0.05, 0.05))
    assert chain.leader_stiffness == (0.05, 0.0, 0.0, 0.0)


def test_calibration_single_record():
    chain = calibrate_stiffness([CalibrationRecord(0, 4.0, 0.6)])
    assert tuple(chain.couplings.values()) == pytest.approx((0.15,))
    assert chain.n == 2


def test_calibration_degenerate_rejected():
    # second move implies zero forward stiffness
    records = [CalibrationRecord(0, 10.0, 0.5),
               CalibrationRecord(1, 10.0, 0.5)]
    with pytest.raises(CalibrationError, match="inconsistent"):
        calibrate_stiffness(records)


def test_calibration_rejects_out_of_order():
    with pytest.raises(CalibrationError, match="chain order"):
        calibrate_stiffness([CalibrationRecord(1, 10.0, 0.5)])


def test_calibration_record_rejects_zero_displacement():
    with pytest.raises(ValueError, match="nonzero"):
        CalibrationRecord(0, 0.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(chains(min_robots=2))
def test_calibration_roundtrip(chain):
    """Synthesizing the move-one-robot records from a chain and
    calibrating recovers the chain."""
    records = []
    springs = tuple(chain.couplings.values())
    for robot in range(chain.n - 1):
        loaded = springs[robot] + (springs[robot - 1] if robot > 0 else 0.0)
        records.append(CalibrationRecord(robot, 2.5, loaded * 2.5))
    recovered = calibrate_stiffness(records)
    assert np.allclose(tuple(recovered.couplings.values()), springs, rtol=1e-9)
