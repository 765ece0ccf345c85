"""Spring-network model of a flexible object carried by robots.

The object is idealized as linear springs between neighboring robots.
Robot k measures the force the object exerts on it, which for small
local deformations is

    f_k = sum_j khat_kj * (y_k - y_j)        [N, positions in cm]

with khat_kj the effective stiffness (N/cm) between robots k and j.
Leaders additionally feel a virtual spring of stiffness khat_kd pulling
them toward the reference position. Collecting the stiffnesses gives
the pinned Laplacian K (symmetric positive definite as long as at least
one robot is pinned to the virtual source) and the leader vector B with
B_k = khat_kd, the workhorses of every update law in this package.

Units throughout: cm, N, s, N/cm. Robot indices are 0-based.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .eigensolve import eigen_decompose
from .errors import CalibrationError, UnpinnedNetworkError

_EIGEN_RECONSTRUCT_RTOL = 1e-10
# Robots plus directed springs up to which one state is sensed, and one run's
# robots are stepped by both laws and checked (dynamics), in Python floats: there
# numpy's overhead of about 1 us a call costs more than the vector work saves.
# Timed, the two routes broke even at 37 to 40 (chains of 13 and 14 robots).
_FLOAT_WORK_LIMIT = 37


@dataclass(frozen=True)
class CouplingNetwork:
    """Undirected stiffness topology of the carried object.

    ``couplings`` maps unordered robot pairs (stored with i < j) to a
    positive stiffness; it is a read-only view. ``leader_stiffness[k]``
    is the virtual-source spring of robot k (zero for non-leaders, one
    entry per robot). The network is frozen, so its spring list and pinned
    Laplacian are built once per object and can never go stale; every
    caller of one network object shares a single assembly and
    eigendecomposition. It also keeps one batch spring list, for the batch
    size last read, and one set of update-law constants, for the gains and
    state shape last stepped (set by dynamics); another key replaces each.
    """

    n: int
    couplings: Mapping[tuple[int, int], float]
    leader_stiffness: tuple[float, ...]

    def __post_init__(self):
        normalized: dict[tuple[int, int], float] = {}
        for (i, j), k in self.couplings.items():
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"invalid coupling pair ({i}, {j}) for n={self.n}")
            key = (min(i, j), max(i, j))
            if key in normalized:
                raise ValueError(f"duplicate coupling pair {key}")
            if k <= 0 or not np.isfinite(k):
                raise ValueError(f"coupling stiffness for {key} must be positive and finite")
            normalized[key] = float(k)
        object.__setattr__(self, "couplings", MappingProxyType(normalized))
        object.__setattr__(self, "leader_stiffness",
                           tuple(float(k) for k in self.leader_stiffness))
        if len(self.leader_stiffness) != self.n:
            raise ValueError(
                "leader_stiffness must have one entry per robot "
                f"(got {len(self.leader_stiffness)} for {self.n} robots)")
        if any(k < 0 or not np.isfinite(k) for k in self.leader_stiffness):
            raise ValueError("leader stiffnesses must be non-negative and finite")

    def __reduce__(self):
        # the read-only view cannot be pickled; rebuild from a plain dict
        return CouplingNetwork, (self.n, dict(self.couplings), self.leader_stiffness)

    @cached_property
    def _springs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed spring list (robot, neighbour, stiffness): every
        coupling appears once from each end, so robot k's reading sums
        the rows where robot == k."""
        ends = np.array(list(self.couplings), dtype=np.intp).reshape(-1, 2)
        stiffness = np.fromiter(self.couplings.values(), dtype=float,
                                count=len(self.couplings))
        springs = (np.concatenate((ends[:, 0], ends[:, 1])),
                   np.concatenate((ends[:, 1], ends[:, 0])),
                   np.concatenate((stiffness, stiffness)))
        for arr in springs:
            arr.flags.writeable = False
        return springs

    @cached_property
    def _spring_floats(self) -> tuple[tuple[int, int, float], ...] | None:
        """The spring list as (robot, neighbour, stiffness) Python triples, in
        its order, if the robots plus directed springs are at most
        _FLOAT_WORK_LIMIT; None for a larger network."""
        robots, neighbours, stiffness = self._springs
        if self.n + len(robots) > _FLOAT_WORK_LIMIT:
            return None
        return tuple(zip(robots.tolist(), neighbours.tolist(), stiffness.tolist()))

    @cached_property
    def _batch_bins(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The spring list of every row of a (batch, n) state, keyed by the
        batch size last read, indexed into the flattened state: row b's
        robot k is entry b*n + k, and so is its bincount bin."""
        return {}

    @cached_property
    def _laplacian(self) -> PinnedLaplacian:
        return _assemble(self.n, self.couplings, self.leader_stiffness)

    @cached_property
    def _law_coefficients(self) -> dict[tuple, tuple[PinnedLaplacian, tuple[np.ndarray, ...]]]:
        return {}


def StiffnessChain(neighbor_stiffness: Sequence[float],
                   leader_stiffness: Sequence[float]) -> CouplingNetwork:
    """Open chain of robots: robot i couples to robot i+1.

    ``neighbor_stiffness[i]`` is the spring between robots i and i+1
    (length n-1), ``leader_stiffness[k]`` the virtual-source spring of
    robot k (length n). The couplings are inserted in chain order, which
    fixes the order of the spring list and of the Laplacian assembly.
    """
    return CouplingNetwork(len(neighbor_stiffness) + 1,
                           {(i, i + 1): k for i, k in enumerate(neighbor_stiffness)},
                           leader_stiffness)


@dataclass(frozen=True)
class CalibrationRecord:
    """One stiffness-estimation move: robot ``moved_robot`` displaced by
    ``displacement`` cm with every other robot held fixed and no virtual
    source attached; ``measured_force`` is the force it then reads."""

    moved_robot: int
    displacement: float
    measured_force: float

    def __post_init__(self):
        if self.displacement == 0:
            raise ValueError("calibration displacement must be nonzero")


@dataclass(frozen=True)
class PinnedLaplacian:
    """Pinned Laplacian K with leader vector B and eigendecomposition.

    ``matrix[k][k] = leader_stiffness[k] + sum_j khat_kj`` and
    off-diagonals are ``-khat_kj``, so rows sum to the pinning stiffness
    and ``K @ ones == B``. Eigenvalues are ascending, eigenvectors the
    columns of an orthogonal matrix. All arrays are read-only; instances
    are safe to share across threads.
    """

    matrix: np.ndarray
    leader_vector: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for field in ("matrix", "leader_vector", "eigenvalues", "eigenvectors"):
            arr = getattr(self, field)
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _assemble(n: int, couplings: Mapping[tuple[int, int], float],
              leader_stiffness: Sequence[float]) -> PinnedLaplacian:
    leaders = np.asarray(leader_stiffness, dtype=float)
    if not np.any(leaders > 0):
        raise UnpinnedNetworkError(
            "unpinned network: every leader stiffness is zero, "
            "the pinned Laplacian would be singular")
    k = np.zeros((n, n))
    # Overflow is caught by the check below, not reported as a warning.
    with np.errstate(over="ignore"):
        for (i, j), stiff in couplings.items():
            k[i, j] -= stiff
            k[j, i] -= stiff
            k[i, i] += stiff
            k[j, j] += stiff
        k[np.diag_indices(n)] += leaders
        # The largest absolute row sum bounds lambda_max (Gershgorin), so a
        # finite one keeps the spectrum and the reconstruction below finite.
        row_sums = np.abs(k).sum(axis=1)
    if not np.all(np.isfinite(row_sums)):
        raise ValueError("stiffness sums overflow: the pinned Laplacian "
                         "would have non-finite entries or eigenvalues")

    eigenvalues, eigenvectors = eigen_decompose(k)
    # Both guards are written so that a NaN fails them.
    if not eigenvalues[0] > 1e-12 * abs(eigenvalues[-1]):
        # cannot happen for a connected pinned network; guards disconnected maps
        raise UnpinnedNetworkError(
            "network has a non-positive Laplacian eigenvalue; "
            "some component is not pinned to the virtual source")
    recon = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T
    err = np.max(np.abs(recon - k))
    if not err <= _EIGEN_RECONSTRUCT_RTOL * max(np.max(np.abs(k)), 1e-300):
        raise RuntimeError("eigendecomposition failed its reconstruction bound")
    return PinnedLaplacian(matrix=k, leader_vector=leaders.copy(),
                           eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def build_pinned_laplacian(network: CouplingNetwork) -> PinnedLaplacian:
    """K and B of a network, assembled and decomposed on the first call
    for a network object and shared after."""
    return network._laplacian


def _shape_error(network: CouplingNetwork, shape: tuple[int, ...]) -> ValueError:
    """The error for positions of ``shape`` where (n,) or (batch, n) is needed."""
    return ValueError(f"positions of shape {shape} for {network.n} robots: "
                      f"need ({network.n},) or (batch, {network.n})")


def measured_force(network: CouplingNetwork, positions: Sequence[float]) -> np.ndarray:
    """Local object force on each robot: the sum of its neighbor spring forces.

    This is the quantity a force sensor between robot and object reads.
    The virtual-source force on leaders is not included here; update
    laws add it separately. Every robot's reading comes from one pass over
    the spring list; a (batch, n) state takes one pass over every row's
    springs, gathered from the flattened state. One state of a small network
    (``_spring_floats``) takes the pass in Python floats, summing each robot's
    springs in list order as ``np.bincount`` does, so with the same bits.
    Positions of any other shape raise ValueError.
    """
    y = np.asarray(positions, dtype=float)
    if y.shape[-1:] != (network.n,) or y.ndim > 2:
        raise _shape_error(network, y.shape)
    if y.ndim == 1:
        springs = network._spring_floats
        if springs is not None:
            ys, forces = y.tolist(), [0.0] * network.n
            for robot, neighbour, stiffness in springs:
                forces[robot] += stiffness * (ys[robot] - ys[neighbour])
            return np.array(forces)
        robots, neighbours, stiffness = network._springs
        flat = y
    else:
        springs = network._batch_bins.get(len(y))
        if springs is None:
            robots, neighbours, stiffness = network._springs
            offsets = network.n * np.arange(len(y))[:, None]
            springs = ((robots + offsets).ravel(), (neighbours + offsets).ravel(),
                       np.tile(stiffness, len(y)))
            for arr in springs:
                arr.flags.writeable = False
            network._batch_bins.clear()
            network._batch_bins[len(y)] = springs
        robots, neighbours, stiffness = springs
        flat = y.ravel()
    pulls = stiffness * (flat[robots] - flat[neighbours])
    forces = np.bincount(robots, weights=pulls, minlength=y.size)
    return forces if y.ndim == 1 else forces.reshape(y.shape)


def neighbor_forces(laplacian: PinnedLaplacian, positions: np.ndarray) -> np.ndarray:
    """All robots' local forces at once, via f = K @ Y - B * Y.

    Works on a single position vector or row-wise on a (steps, n) array.
    Equivalent to ``measured_force(network, positions)``; the identity
    holds because the leader stiffness appears in K's diagonal only.
    """
    y = np.asarray(positions, dtype=float)
    return y @ laplacian.matrix.T - laplacian.leader_vector * y


def calibrate_stiffness(records: Sequence[CalibrationRecord],
                        leader_stiffness: Sequence[float] | None = None) -> CouplingNetwork:
    """Recover chain stiffnesses from move-one-robot force measurements.

    Records must be in chain order starting at robot 0. Moving robot i
    with all others fixed loads both of its springs, so the first move
    gives khat_01 = f/y directly and each later move gives the forward
    stiffness after subtracting the already-known backward one.

    The procedure knows nothing about virtual sources; pass
    ``leader_stiffness`` to attach them, otherwise they default to zero
    and must be set before building a pinned Laplacian.
    """
    if not records:
        raise CalibrationError("no calibration records given")
    stiffnesses: list[float] = []
    for idx, rec in enumerate(records):
        if rec.moved_robot != idx:
            raise CalibrationError(
                f"records must be in chain order: expected robot {idx}, "
                f"got {rec.moved_robot}")
        ratio = rec.measured_force / rec.displacement
        value = ratio if idx == 0 else ratio - stiffnesses[idx - 1]
        if value <= 0:
            raise CalibrationError(
                f"inconsistent calibration data: record {idx} implies "
                f"stiffness {value:.6g} N/cm")
        stiffnesses.append(value)
    n = len(stiffnesses) + 1
    leaders = leader_stiffness if leader_stiffness is not None else (0.0,) * n
    return StiffnessChain(neighbor_stiffness=stiffnesses, leader_stiffness=leaders)
