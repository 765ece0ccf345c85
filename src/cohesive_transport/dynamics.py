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
measurements only: the row needs y_k, f_k, the values of both the robot
stored N samples earlier, and y_d if the robot is a leader. Each law is
written twice, once per robot from local quantities (``_robot_row``) and
once stacked via K (``_stacked_law``), and the two are cross-checked on
every step of every run (``_run``, which hands samples out in blocks that
the sweep and the tuner reduce as they come); that check certifies the laws
as decentralized. Both step functions share one core (``_step``), which
raises CrosscheckError on a disagreement, also under ``python -O``, and
DivergenceError past DIVERGENCE_LIMIT_CM.

The stacked law takes K Y as np.matvec(K, Y) for one state and each batch
row alike. A run builds its constants once, not per sample: the stacked
law's (gamma*B, or a*b*dt*B, b and N) and the per-robot coefficients, each
as an array of the state's shape (``_law_constants``), and the spring list
of a batch of that size; the network keeps only the last of each. A batch's
references are tiled to its (batch, n) shape once per block of samples.
Every sample of every row is still checked, within 1e-12 * max(1, the row's
largest |Y[m+1]|); a batch whose entries all agree within 1e-12, the
smallest such bound, is accepted without the row-by-row pass.

``_robot_row`` evaluates every robot at once on arrays, or one robot on
Python floats. One run (an (n,) state with a scalar reference) on a network
of at most ``network._FLOAT_WORK_LIMIT`` robots plus directed springs, the
paper's four robots among them, takes its per-robot half robot by robot in
floats: the readings, each robot's row and the crosscheck's bound. On four
robots numpy's overhead of about 1 us a call is most of that half's cost.
The floats round as the arrays do, so readings, positions and every raised
error are the array route's; batches and larger networks keep the arrays.

Positions are cm, forces N, time s.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import metrics, stability
from .errors import CrosscheckError, DivergenceError, UnstableGainError
from .network import (CouplingNetwork, PinnedLaplacian, _shape_error,
                      build_pinned_laplacian, measured_force, neighbor_forces)
from .trajectory import reference_series

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

# Positions beyond this are treated as numerical blow-up, not physics.
DIVERGENCE_LIMIT_CM = 1e9

_CROSSCHECK_ATOL = 1e-12
SAMPLE_NOISE = 1e-9   # of a sample: num_steps' guard against float noise in duration/dt
MAX_STEP_SAMPLES = 10 ** 9   # most samples a sweep or the tuner steps: over an hour
_BLOCK_VALUES = 4096   # positions per block of _run's samples


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
        try:
            operator.index(self.delay_multiple)
        except TypeError:
            raise ValueError(f"delay_multiple must be an integer, "
                             f"got {self.delay_multiple!r}") from None
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

    The robots also keep their force readings, all taken on the network
    object ``sensed_on``: either law's step stores the one at ``positions``
    in ``reading``, and ``advanced`` moves it into ``readings``, which holds
    those of the newest ``history`` samples (None where none was taken).
    Only the cohesive law reads them, or ``history``, again.
    """

    positions: np.ndarray
    history: tuple[np.ndarray, ...]
    step: int = 0
    readings: tuple[np.ndarray | None, ...] = field(default=(), repr=False)
    reading: np.ndarray | None = field(default=None, repr=False)
    sensed_on: CouplingNetwork | None = field(default=None, repr=False)

    @classmethod
    def at_rest(cls, initial_positions, delay_multiple: int = 1) -> "NetworkState":
        y0 = np.asarray(initial_positions, dtype=float).copy()
        return cls(positions=y0, history=(y0.copy(),) * delay_multiple, step=0)

    @property
    def delayed_positions(self) -> np.ndarray:
        return self.history[0]

    def advanced(self, new_positions: np.ndarray) -> "NetworkState":
        return NetworkState(new_positions, self.history[1:] + (self.positions,),
                            self.step + 1,
                            (self.readings + (self.reading,))[-len(self.history):],
                            None, self.sensed_on)


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled history of one run; row m is time m*dt.

    ``forces`` are the object forces f_k. Arrays are read-only.
    """

    dt: float
    times: np.ndarray
    positions: np.ndarray
    forces: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        for field in ("times", "positions", "forces", "reference"):
            getattr(self, field).flags.writeable = False

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    @property
    def num_samples(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def sample_metrics(self) -> tuple[np.ndarray, np.ndarray]:
        """Each sample's deformation and the largest robot move from it to the
        next (``metrics.sample_metrics``), made once per trace and read-only:
        its summary and its trace.csv columns share them."""
        per_sample = metrics.sample_metrics(self.positions)
        for arr in per_sample:
            arr.flags.writeable = False
        return per_sample


def _law_constants(network: CouplingNetwork, laplacian: PinnedLaplacian, gains: tuple,
                   shape: tuple[int, ...]) -> tuple:
    """Constants of the law ("baseline", gamma) or ("dsr", alpha, beta, dt, N)
    for states of ``shape``, in three parts, (stacked, local, per_robot).
    ``stacked`` holds the stacked law's, made from the laplacian's B, and
    ``local`` the per-robot coefficients, where robot k's use its own leader
    spring: each a read-only array of ``shape``, so that no ufunc of a sample
    broadcasts one. ``per_robot`` holds the per-robot coefficients as one tuple
    of Python floats per robot, for one state of a network small enough to be
    stepped in floats (``network._spring_floats``), else None. The network
    keeps one entry, for the gains and shape last stepped; other gains,
    another shape or another laplacian replace it. Gains that overflow a
    per-robot coefficient raise UnstableGainError before any arithmetic on
    them. States of a shape other than (n,) and (batch, n) raise ``measured_force``'s
    ValueError, checked only where an entry is built."""
    cache = network._law_coefficients
    cached = cache.get((gains, shape))
    if cached is not None and cached[0] is laplacian:
        return cached[1]
    if shape[-1:] != (network.n,) or len(shape) > 2:
        raise _shape_error(network, shape)
    leaders = np.asarray(network.leader_stiffness)
    with np.errstate(over="ignore", invalid="ignore"):
        if gains[0] == "baseline":   # stacked: gamma, gamma*B; local: multiply y, f, y_d
            gamma = gains[1]
            stacked = (gamma, gamma * laplacian.leader_vector)
            local = (1.0 - gamma * leaders, np.full_like(leaders, -gamma), gamma * leaders)
            named = f"gamma = {gamma:.6g} (gamma*k_leader = {gamma * leaders.max():.6g})"
        else:                        # stacked: a*b*dt, a*b*dt*B, b, N;
            _, alpha, beta, dt, delay = gains   # local: multiply y, f, y_old, f_old, y_d
            rate, reinforcement = alpha * beta * dt, (1.0 - beta * leaders) / delay
            stacked = (rate, rate * laplacian.leader_vector, beta, float(delay))
            local = (1.0 - rate * leaders + reinforcement,
                     np.full_like(leaders, -rate - beta / delay), -reinforcement,
                     np.full_like(leaders, beta / delay), rate * leaders)
            named = f"(alpha, beta) = ({alpha:.6g}, {beta:.6g}) (alpha*beta*dt = {rate:.6g})"
    if not all(np.isfinite(c).all() for c in local):
        raise UnstableGainError(f"{named} overflow the per-robot law coefficients")
    stacked, local = (tuple(np.broadcast_to(c, shape).copy() for c in part)
                      for part in (stacked, local))
    for arr in stacked + local:
        arr.flags.writeable = False
    per_robot = (tuple(zip(*(c.tolist() for c in local)))
                 if len(shape) == 1 and network._spring_floats is not None else None)
    cache.clear()
    cache[gains, shape] = laplacian, (stacked, local, per_robot)
    return stacked, local, per_robot


def _stacked_law(k, constants, y, y_d, y_old=None):
    """Next positions by the stacked law, from ``_law_constants``'s stacked
    part: (gamma, gamma*B) for the baseline, which gives no ``y_old``, or
    (a*b*dt, a*b*dt*B, b, N) for the cohesive law."""
    nxt = y - constants[0] * np.matvec(k, y) + constants[1] * y_d
    if y_old is None:
        return nxt
    delta = y - y_old
    return nxt + (delta - constants[2] * np.matvec(k, delta)) / constants[3]


def _robot_row(c, y_d, y, f, y_old=None, f_old=None):
    """Next positions by the per-robot law: row k reads only robot k's
    position ``y`` and force reading ``f``, for the cohesive law also their
    N-step-old values, and the reference, with ``_law_constants``'s local
    coefficients ``c``. The same expression takes every robot at once as
    arrays, or one robot as Python floats; its terms are added left to
    right, not by ``sum``, whose float addition Python 3.12 changed."""
    if y_old is None:
        c_y, c_f, c_yd = c
        return c_y * y + c_f * f + c_yd * y_d
    c_y, c_f, c_old, c_fold, c_yd = c
    return c_y * y + c_f * f + c_old * y_old + c_fold * f_old + c_yd * y_d


def baseline_update_forms(positions, laplacian: PinnedLaplacian,
                          network: CouplingNetwork, gamma: float,
                          y_d) -> tuple[np.ndarray, np.ndarray]:
    """Next positions computed both ways: (stacked, per-robot); a batch
    of states (batch, n) takes one reference per row, ``y_d`` (batch, n) with
    each row's reference in every column (a (batch, 1) column gives the same
    bits, broadcast on every sample). Both are arrays, whatever the state:
    the reference that the tests hold ``step_baseline``'s routes to."""
    y = np.asarray(positions, dtype=float)
    stacked, local, _ = _law_constants(network, laplacian, ("baseline", gamma), y.shape)
    return (_stacked_law(laplacian.matrix, stacked, y, y_d),
            _robot_row(local, y_d, y, measured_force(network, y)))


def dsr_update_forms(positions, delayed_positions, laplacian: PinnedLaplacian,
                     network: CouplingNetwork, alpha: float, beta: float, dt: float,
                     delay_multiple: int, y_d) -> tuple[np.ndarray, np.ndarray]:
    """Next positions via the stacked law and via local measurements: each
    robot combines its own position and force, their N-step-old values, and
    (for leaders) the reference, both readings sensed here. Shapes and use as
    in ``baseline_update_forms``."""
    y = np.asarray(positions, dtype=float)
    y_old = np.asarray(delayed_positions, dtype=float)
    stacked, local, _ = _law_constants(
        network, laplacian, ("dsr", alpha, beta, dt, delay_multiple), y.shape)
    return (_stacked_law(laplacian.matrix, stacked, y, y_d, y_old),
            _robot_row(local, y_d, y, measured_force(network, y), y_old,
                       measured_force(network, y_old)))


def _crosscheck(stacked: np.ndarray, local: np.ndarray) -> float:
    """Each row (one run) of ``local`` must be within 1e-12 * max(1, largest
    |stacked| of the row) of ``stacked``, NaN failing; returns the largest |stacked|.
    A batch is accepted at once if every entry is within 1e-12, the smallest
    bound a row can have; only otherwise is each row held to its own bound."""
    scale = np.maximum.reduce(np.abs(stacked), axis=None)
    largest_gap = np.maximum.reduce(np.abs(stacked - local), axis=None)
    if largest_gap <= _CROSSCHECK_ATOL * (max(1.0, scale) if stacked.ndim == 1 else 1.0):
        return scale
    # row by row; also names the worst entry of a failed 1-D state
    row_scale = np.maximum.reduce(np.abs(stacked), axis=-1, keepdims=True)
    bound = _CROSSCHECK_ATOL * np.maximum(1.0, row_scale)
    residual = np.abs(stacked - local)
    if not np.logical_and.reduce(residual <= bound, axis=None):
        worst = np.flatnonzero(~(residual <= bound))[0]
        raise CrosscheckError(
            f"per-robot and stacked updates disagree by {residual.flat[worst]:.3g} "
            f"(bound {np.broadcast_to(bound, residual.shape).flat[worst]:.3g})")
    return np.maximum.reduce(row_scale, axis=None)


def _crosscheck_floats(stacked: np.ndarray, local: list[float]) -> float:
    """``_crosscheck`` of one state whose per-robot update is a list of floats,
    robot by robot. Where every robot is within the bound no entry of
    ``stacked`` is NaN, so the largest |stacked| is numpy's; a robot outside
    it (a NaN anywhere is) hands the state to ``_crosscheck``, which names the
    failure as it does for the array route."""
    values = stacked.tolist()
    scale = max(map(abs, values))
    bound = _CROSSCHECK_ATOL * max(1.0, scale)
    for s, l in zip(values, local):
        if not abs(s - l) <= bound:
            return _crosscheck(stacked, np.array(local))
    return scale


def _step(state: NetworkState, laplacian: PinnedLaplacian, network: CouplingNetwork,
          gains: tuple, y_d) -> np.ndarray:
    """The one update of both laws, for the gains of ``_law_constants``. The
    robots sense the current positions and store the reading on the state;
    the cohesive law also reads the one stored N samples earlier on this
    network object, sensed again only if there is none. One state with a
    scalar reference on a small network is checked robot by robot in Python
    floats, anything else as arrays, with the same bits."""
    if state.sensed_on is not network:
        state.readings, state.sensed_on = (), network
    y = np.asarray(state.positions, dtype=float)
    state.reading = force = measured_force(network, y)
    stacked_c, local_c, per_robot = _law_constants(network, laplacian, gains, y.shape)
    y_old = f_old = None
    if gains[0] == "dsr":
        y_old = np.asarray(state.delayed_positions, dtype=float)
        f_old = (state.readings[0] if len(state.readings) == len(state.history)
                 else measured_force(network, y_old))
    stacked = _stacked_law(laplacian.matrix, stacked_c, y, y_d, y_old)
    # one comprehension per law: star-unpacking each robot's values is ~10% slower on chain4
    if per_robot is None or not isinstance(y_d, float):
        scale = _crosscheck(stacked, _robot_row(local_c, y_d, y, force, y_old, f_old))
    elif y_old is None:
        scale = _crosscheck_floats(stacked, [
            _robot_row(c, y_d, y_k, f_k)
            for c, y_k, f_k in zip(per_robot, y.tolist(), force.tolist())])
    else:
        scale = _crosscheck_floats(stacked, [
            _robot_row(c, y_d, y_k, f_k, o_k, g_k) for c, y_k, f_k, o_k, g_k
            in zip(per_robot, y.tolist(), force.tolist(), y_old.tolist(), f_old.tolist())])
    if not scale <= DIVERGENCE_LIMIT_CM:
        raise DivergenceError(step=state.step + 1)
    return stacked


def step_baseline(state: NetworkState, laplacian: PinnedLaplacian,
                  network: CouplingNetwork, config: ControllerConfig,
                  y_d) -> np.ndarray:
    """One baseline update; returns the next positions, (n,) or (batch, n).
    Any beyond DIVERGENCE_LIMIT_CM raises DivergenceError. The robots' reading
    is stored on the state, as ``step_dsr`` stores it."""
    return _step(state, laplacian, network, ("baseline", config.gamma), y_d)


def step_dsr(state: NetworkState, laplacian: PinnedLaplacian,
             network: CouplingNetwork, config: ControllerConfig,
             y_d) -> np.ndarray:
    """One cohesive update; returns and raises as ``step_baseline``, and
    reuses the readings stored on the state (``_step``). A state whose
    history does not hold N samples raises ValueError."""
    if len(state.history) != config.delay_multiple:
        raise ValueError(f"the state's history holds {len(state.history)} samples; "
                         f"delay_multiple is {config.delay_multiple}")
    return _step(state, laplacian, network, ("dsr", config.alpha, config.beta, config.dt,
                                             config.delay_multiple), y_d)


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
    float noise in duration/dt ratios like 60/0.03. MemoryError if they
    are more than one float64 array can index."""
    samples = duration / dt - SAMPLE_NOISE
    if not samples < np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{duration:g} s at dt = {dt:g} s is {samples:.3g} samples, "
                          "more than one array can index")
    return math.ceil(samples)


def _run(network: CouplingNetwork, config: ControllerConfig, references: np.ndarray,
         ends=()):
    """The one stepping core: from rest, step samples 1..steps, each cross-checked.
    References (steps + 1,) step a state (n,); (steps + 1, batch) step ``batch``
    runs at once as a state (batch, n). Yields (m, block): samples m.. in block[1:],
    sample m - 1 in block[0]. A block holds about _BLOCK_VALUES positions, at least
    one sample, ends at each sample in ``ends``, and is overwritten by the next.
    ``ends`` is read as the run goes: a caller may add to it between blocks.
    ``references`` is read only through ``shape``, ``len`` and the row slices
    [m - 1, m - 1 + rows) of the blocks, in order, each starting on the row
    after the last block's last sample: an object that forms its rows as they
    are read (a stride-0 broadcast, the sweep's ``trajectory._Tustin``) serves."""
    laplacian = build_pinned_laplacian(network)
    _warn_if_unstable(laplacian, config)
    stepper = step_baseline if config.kind == "baseline" else step_dsr
    state = NetworkState.at_rest(np.zeros(references.shape[1:] + (laplacian.n,)),
                                 config.delay_multiple)
    steps = len(references) - 1
    rows = max(1, _BLOCK_VALUES // state.positions.size)
    block = np.zeros((rows + 1,) + state.positions.shape)
    first = 1
    for m in range(1, steps + 1):
        if m == first:
            # the block's references: one run reads Python floats, made one at a
            # time; a batch reads rows of the state's shape, tiled once per block
            y_ds = references[m - 1:m - 1 + rows]
            y_ds = (memoryview(y_ds) if y_ds.ndim == 1
                    else np.repeat(y_ds[:, :, None], laplacian.n, axis=2))
        nxt = stepper(state, laplacian, network, config, y_ds[m - first])
        state = state.advanced(nxt)
        block[m - first + 1] = nxt
        if m - first + 1 == rows or m == steps or m in ends:
            yield first, block[:m - first + 2]
            block[0] = nxt
            first = m + 1


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
    for m, block in _run(scenario.network, scenario.controller, reference):
        positions[m:m + len(block) - 1] = block[1:]

    forces = neighbor_forces(laplacian, positions)
    times = np.arange(steps + 1) * dt
    return SimulationTrace(dt=dt, times=times, positions=positions, forces=forces,
                           reference=reference)
