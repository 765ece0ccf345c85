"""Discrete-time transport dynamics of the robot network.

Baseline controller: each robot descends its measured force,

    y_k[m+1] = y_k[m] - gamma * (f_k[m] + khat_kd * (y_k[m] - y_d[m])),

which in stacked form is Y[m+1] = (I - gamma K) Y[m] + gamma B y_d[m].

Cohesive controller: the same network additionally reinforces its own
recent motion (delayed self reinforcement), which approximates the
ideal all-leader first-order response without any communication:

    Y[m+1] = Y[m] - a*b*dt K Y[m] + a*b*dt B y_d[m]
             + (I - b K)(Y[m] - Y[m-N]) / N,

with rate gain ``a`` (1/s), reinforcement gain ``b`` (cm/N), and delay of
N samples. Every robot can evaluate its own row of this update from local
measurements only: the row needs y_k, f_k, their N-step-old values, and
y_d if the robot is a leader. Both laws are implemented twice, per-robot
from local quantities and stacked via K, and cross-checked on every step
of every run; that check certifies the laws as decentralized. The step
functions raise CrosscheckError on a disagreement, also under
``python -O``, and DivergenceError past DIVERGENCE_LIMIT_CM.

Positions are cm, forces N, time s.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import stability
from .errors import CrosscheckError, DivergenceError
from .network import (CouplingNetwork, PinnedLaplacian,
                      build_pinned_laplacian, measured_force, neighbor_forces)
from .trajectory import reference_series

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

# Positions beyond this are treated as numerical blow-up, not physics.
DIVERGENCE_LIMIT_CM = 1e9

_CROSSCHECK_ATOL = 1e-12


class UnstableControllerWarning(RuntimeWarning):
    """Configured gains violate the stability conditions; the simulation
    still runs because watching the divergence is often the point."""


@dataclass(frozen=True)
class ControllerConfig:
    """Gains for one controller; ``kind`` is "baseline" or "dsr".

    Baseline uses ``gamma`` (cm/N per step). The cohesive controller
    uses ``alpha`` (1/s), ``beta`` (cm/N), and an integer delay of
    ``delay_multiple`` samples. ``dt`` is the sampling period in s.
    """

    kind: str
    dt: float
    gamma: float | None = None
    alpha: float | None = None
    beta: float | None = None
    delay_multiple: int = 1

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ValueError("dt must be positive")
        if self.kind == "baseline":
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ValueError("baseline controller requires a finite gamma > 0")
        elif self.kind == "dsr":
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ValueError("dsr controller requires a finite alpha > 0")
            if self.beta is None or not 0 < self.beta < math.inf:
                raise ValueError("dsr controller requires a finite beta > 0")
            if self.delay_multiple < 1:
                raise ValueError("dsr delay_multiple must be >= 1")
        else:
            raise ValueError(f"unknown controller kind {self.kind!r}")

    @classmethod
    def baseline(cls, gamma: float, dt: float) -> "ControllerConfig":
        return cls(kind="baseline", dt=dt, gamma=gamma)

    @classmethod
    def dsr(cls, alpha: float, beta: float, dt: float,
            delay_multiple: int = 1) -> "ControllerConfig":
        return cls(kind="dsr", dt=dt, alpha=alpha, beta=beta,
                   delay_multiple=delay_multiple)


@dataclass
class NetworkState:
    """Positions plus the delay buffer the cohesive update needs.

    ``history`` holds the last ``delay_multiple`` position vectors,
    oldest first, so ``history[0]`` is Y[m-N]. Before N steps have
    elapsed the buffer is padded with the initial positions (system
    starts at rest).
    """

    positions: np.ndarray
    history: tuple[np.ndarray, ...]
    step: int = 0

    @classmethod
    def at_rest(cls, initial_positions, delay_multiple: int = 1) -> "NetworkState":
        y0 = np.asarray(initial_positions, dtype=float).copy()
        return cls(positions=y0, history=(y0.copy(),) * delay_multiple, step=0)

    @property
    def delayed_positions(self) -> np.ndarray:
        return self.history[0]

    def advanced(self, new_positions: np.ndarray) -> "NetworkState":
        return NetworkState(positions=new_positions,
                            history=self.history[1:] + (self.positions,),
                            step=self.step + 1)


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled history of one run; row m is time m*dt.

    ``forces`` are the object forces f_k, ``augmented_forces`` add the
    leaders' virtual-source force, ``speeds`` are the commanded speeds
    (y_k[m+1] - y_k[m])/dt with zeros in the final row. Arrays are
    read-only.
    """

    dt: float
    times: np.ndarray
    positions: np.ndarray
    forces: np.ndarray
    augmented_forces: np.ndarray
    reference: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        for field in ("times", "positions", "forces", "augmented_forces",
                      "reference", "speeds"):
            getattr(self, field).flags.writeable = False

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    @property
    def num_samples(self) -> int:
        return self.positions.shape[0]


def _local_coefficients(network: CouplingNetwork, gains: tuple) -> tuple[np.ndarray, ...]:
    """Per-robot law coefficients for ("baseline", gamma) or ("dsr", alpha, beta,
    dt, N), cached per network object; robot k's use its own leader spring."""
    cache = network._law_coefficients
    if gains not in cache:
        leaders = np.asarray(network.leader_stiffness)
        if gains[0] == "baseline":   # multiply y, f, y_d
            gamma = gains[1]
            cache[gains] = (1.0 - gamma * leaders, np.full_like(leaders, -gamma),
                            gamma * leaders)
        else:                        # multiply y, f, y_old, f_old, y_d
            _, alpha, beta, dt, delay = gains
            rate, reinforcement = alpha * beta * dt, (1.0 - beta * leaders) / delay
            cache[gains] = (1.0 - rate * leaders + reinforcement,
                            np.full_like(leaders, -rate - beta / delay), -reinforcement,
                            np.full_like(leaders, beta / delay), rate * leaders)
    return cache[gains]


def baseline_update_forms(positions, laplacian: PinnedLaplacian,
                          network: CouplingNetwork, gamma: float,
                          y_d) -> tuple[np.ndarray, np.ndarray]:
    """Next positions computed both ways: (stacked, per-robot); a batch
    of states (batch, n) takes one reference per row, ``y_d`` (batch, 1)."""
    y = np.asarray(positions, dtype=float)
    stacked = y - gamma * (y @ laplacian.matrix.T) + gamma * laplacian.leader_vector * y_d
    # Row k reads only robot k's position, force and leader spring.
    c_y, c_f, c_yd = _local_coefficients(network, ("baseline", gamma))
    local = c_y * y + c_f * measured_force(network, y) + c_yd * y_d
    return stacked, local


def dsr_update_forms(positions, delayed_positions, laplacian: PinnedLaplacian,
                     network: CouplingNetwork, alpha: float, beta: float, dt: float,
                     delay_multiple: int, y_d) -> tuple[np.ndarray, np.ndarray]:
    """Next positions via the stacked law and via local measurements.

    The per-robot route touches nothing global: each robot combines its
    own position and force, their N-step-old values, and (for leaders)
    the reference. Shapes as in ``baseline_update_forms``."""
    y = np.asarray(positions, dtype=float)
    y_old = np.asarray(delayed_positions, dtype=float)
    k_t = laplacian.matrix.T
    rate = alpha * beta * dt
    delta = y - y_old
    stacked = (y - rate * (y @ k_t) + rate * laplacian.leader_vector * y_d
               + (delta - beta * (delta @ k_t)) / delay_multiple)

    # Row k reads only robot k's quantities, all robots evaluated at once.
    c_y, c_f, c_old, c_fold, c_yd = _local_coefficients(
        network, ("dsr", alpha, beta, dt, delay_multiple))
    local = (c_y * y + c_f * measured_force(network, y) + c_old * y_old
             + c_fold * measured_force(network, y_old) + c_yd * y_d)
    return stacked, local


def _crosscheck(stacked: np.ndarray, local: np.ndarray) -> float:
    """Each row (one run) of ``local`` must be within 1e-12 * max(1, largest
    |stacked| of the row) of ``stacked``, NaN failing; returns the largest |stacked|."""
    if stacked.ndim == 1:
        scale = np.maximum.reduce(np.abs(stacked))
        if np.maximum.reduce(np.abs(stacked - local)) <= _CROSSCHECK_ATOL * max(1.0, scale):
            return scale
    # row by row; also names the worst entry of a failed 1-D state
    row_scale = np.abs(stacked).max(axis=-1, keepdims=True)
    bound = _CROSSCHECK_ATOL * np.maximum(1.0, row_scale)
    residual = np.abs(stacked - local)
    if not (residual <= bound).all():
        worst = np.flatnonzero(~(residual <= bound))[0]
        raise CrosscheckError(
            f"per-robot and stacked updates disagree by {residual.flat[worst]:.3g} "
            f"(bound {np.broadcast_to(bound, residual.shape).flat[worst]:.3g})")
    return row_scale.max()


def step_baseline(state: NetworkState, laplacian: PinnedLaplacian,
                  network: CouplingNetwork, config: ControllerConfig,
                  y_d) -> np.ndarray:
    """One baseline update; returns the next positions, (n,) or (batch, n).
    Any beyond DIVERGENCE_LIMIT_CM raises DivergenceError."""
    stacked, local = baseline_update_forms(state.positions, laplacian, network,
                                           config.gamma, y_d)
    if not _crosscheck(stacked, local) <= DIVERGENCE_LIMIT_CM:
        raise DivergenceError(step=state.step + 1)
    return stacked


def step_dsr(state: NetworkState, laplacian: PinnedLaplacian,
             network: CouplingNetwork, config: ControllerConfig,
             y_d) -> np.ndarray:
    """One cohesive update; returns and raises as ``step_baseline``."""
    stacked, local = dsr_update_forms(state.positions, state.delayed_positions,
                                      laplacian, network, config.alpha,
                                      config.beta, config.dt,
                                      config.delay_multiple, y_d)
    if not _crosscheck(stacked, local) <= DIVERGENCE_LIMIT_CM:
        raise DivergenceError(step=state.step + 1)
    return stacked


def _warn_if_unstable(laplacian: PinnedLaplacian, config: ControllerConfig) -> None:
    if config.kind == "baseline":
        bound = stability.baseline_gamma_bound(laplacian)
        if not config.gamma < bound:
            warnings.warn(
                f"gamma = {config.gamma:.6g} is at or above the stable bound "
                f"{bound:.6g}; simulating anyway", UnstableControllerWarning,
                stacklevel=4)
    else:
        if not stability.closed_form_stable(laplacian, config.alpha, config.beta,
                                            config.dt, config.delay_multiple):
            warnings.warn(
                f"(alpha, beta) = ({config.alpha:.6g}, {config.beta:.6g}) "
                "violates the stability conditions; simulating anyway",
                UnstableControllerWarning, stacklevel=4)


def num_steps(duration: float, dt: float) -> int:
    """Samples after t=0 covering ``duration``: ceil with a guard against
    float noise in duration/dt ratios like 60/0.03."""
    return math.ceil(duration / dt - 1e-9)


def _run(network: CouplingNetwork, config: ControllerConfig, references: np.ndarray):
    """The one stepping core: from rest, yield the cross-checked positions
    of samples 1..steps. References (steps + 1,) step a state (n,);
    (steps + 1, batch) step ``batch`` runs at once as a state (batch, n)."""
    laplacian = build_pinned_laplacian(network)
    _warn_if_unstable(laplacian, config)
    stepper = step_baseline if config.kind == "baseline" else step_dsr
    # one run reads Python floats, made one at a time; a batch reads columns
    y_ds = memoryview(references) if references.ndim == 1 else references[:, :, None]
    state = NetworkState.at_rest(np.zeros(references.shape[1:] + (laplacian.n,)),
                                 config.delay_multiple)
    for m in range(len(references) - 1):
        nxt = stepper(state, laplacian, network, config, y_ds[m])
        state = state.advanced(nxt)
        yield nxt


def simulate(scenario: "ScenarioConfig") -> SimulationTrace:
    """Run one scenario from the undeformed rest configuration.

    The trace covers samples m = 0 .. ceil(duration/dt) and is a pure
    function of the scenario: identical inputs give bitwise identical
    traces. Unstable gains only raise UnstableControllerWarning;
    positions beyond DIVERGENCE_LIMIT_CM abort with DivergenceError
    (non-finite ones fail the crosscheck first).
    """
    laplacian = build_pinned_laplacian(scenario.network)
    dt = scenario.controller.dt
    steps = num_steps(scenario.duration, dt)
    reference = reference_series(scenario.trajectory, dt, steps)

    positions = np.empty((steps + 1, laplacian.n))
    positions[0] = 0.0
    for m, nxt in enumerate(_run(scenario.network, scenario.controller, reference), 1):
        positions[m] = nxt

    forces = neighbor_forces(laplacian, positions)
    augmented = forces + laplacian.leader_vector * (positions - reference[:, None])
    speeds = np.zeros_like(positions)
    speeds[:-1] = np.diff(positions, axis=0) / dt
    times = np.arange(steps + 1) * dt
    return SimulationTrace(dt=dt, times=times, positions=positions,
                           forces=forces, augmented_forces=augmented,
                           reference=reference, speeds=speeds)
