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
written once, in one function (``_law``) that gives both its forms, or either
alone: per robot from local quantities, and stacked via K. The two are
cross-checked on every sample of every run (``_run``, which hands samples
out in blocks that the sweep and the tuner reduce as they come); that check
certifies the laws as decentralized. Both step functions share one core
(``_step``), a pure function of its arguments. Every stepped sample, on any
route, is judged by one function (``_check_block``), which raises
CrosscheckError on a disagreement, also under ``python -O``, and
DivergenceError past DIVERGENCE_LIMIT_CM.

The stacked law takes K Y as np.matvec(K, Y) for one state and each batch
row alike. A run builds its constants once, not per sample: the stacked
law's (gamma*B, or a*b*dt*B, b and N) and the per-robot coefficients, each
as an array of the state's shape (``_law_constants``); the network keeps
only the last. Every sample of every row is checked, within 1e-12 * max(1,
the row's largest |Y[m+1]|); a batch whose entries all agree within 1e-12,
the smallest such bound, is accepted without the row-by-row pass.

``_law`` evaluates every robot at once on arrays, or one robot on Python
floats. One run (an (n,) state with a scalar reference) on a network of at
most ``_FLOAT_WORK_LIMIT`` robots plus directed springs, the paper's four
robots among them, is stepped sample by sample through the public step,
robot by robot in floats: the readings (each robot's springs summed in
list order, as ``measured_force`` sums them on arrays), both forms of the
law, from one flat tuple of constants per robot (only K Y, and K (Y -
Y[m-N]), stay numpy products), and the crosscheck's bound. Only
``simulate`` hands ``_run`` such a run. Batches, the sweep's cutoffs and
each of the tuner's unit steps (a batch of one run) among them, and larger
networks step only the stacked form per sample, as arrays, and check a
block of samples at a time before it is yielded: one reading of each
sample, the per-robot form of the whole block, and each (sample, run) row's
bound; a block keeps each sample's reading for the cohesive law N samples
later. The public steps keep nothing: they sense the delayed positions
again, with the same bits. Both routes round as the public steps' arrays
do, so readings, positions and every raised error, at the sample it is
raised at, are those of stepping sample by sample.

Positions are cm, forces N, time s.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
# Robots plus directed springs up to which one run's state is sensed, stepped
# by both laws and checked in Python floats, one public step per sample. Only
# simulate (and so reproduce) steps such a run; the tuner and the sweep step
# batches. A run on chains of 4, 8 and 13 robots took 1.8-4.0x as long in
# floats as on the block route that batches and larger networks take, with
# the same bits; floats stay while the benchmark pins simulate's route to one
# public step per sample.
_FLOAT_WORK_LIMIT = 37


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
        return NetworkState(new_positions, self.history[1:] + (self.positions,), self.step + 1)


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
    for states of ``shape``, as (constants, per_robot, springs). ``constants``
    holds the stacked law's, made from the laplacian's B, then the per-robot
    coefficients, where robot k's use its own leader spring, as ``_law``
    reads them: each a read-only array of ``shape``, so that no ufunc of a
    sample broadcasts one. One state of a network of at most
    _FLOAT_WORK_LIMIT robots plus directed springs is stepped in Python
    floats: ``per_robot`` holds each robot's entries of the constants as one
    flat tuple, and ``springs`` the spring list as (robot, neighbour,
    stiffness) triples in its order; both are None for any other state. The
    network keeps one entry, for the gains and shape last stepped; other
    gains, another shape or another laplacian replace it. Gains that overflow
    a per-robot coefficient raise UnstableGainError before any arithmetic on
    them. States of a shape other than (n,) and (batch, n) raise
    ``measured_force``'s ValueError, checked only where an entry is built."""
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
    constants = tuple(np.broadcast_to(c, shape).copy() for c in stacked + local)
    for arr in constants:
        arr.flags.writeable = False
    per_robot = springs = None
    robots, neighbours, stiffness = network._springs
    if len(shape) == 1 and network.n + len(robots) <= _FLOAT_WORK_LIMIT:
        per_robot = tuple(zip(*(c.tolist() for c in constants)))
        springs = tuple(zip(robots.tolist(), neighbours.tolist(), stiffness.tolist()))
    cache.clear()
    cache[gains, shape] = laplacian, (constants, per_robot, springs)
    return constants, per_robot, springs


def _law(c, y_d, y, ky, f, d=None, kd=None, y_old=None, f_old=None):
    """Next positions by both forms of a law, (stacked, per-robot), with
    ``_law_constants``'s constants ``c``. The stacked form reads K y as
    ``ky``, and for the cohesive law d = y - y_old and K d as ``kd``. The
    per-robot form reads only each robot's own position ``y`` and force
    reading ``f``, for the cohesive law also their N-step-old values, and the
    reference. Either form is None where its K y or its reading is: one form
    alone costs no work on the other. The same expressions take every robot
    at once as arrays, or one robot as Python floats, with the same bits:
    their terms are added left to right, not by ``sum``, whose float addition
    Python 3.12 changed."""
    if len(c) == 5:
        gamma, gamma_b, c_y, c_f, c_yd = c
        return (ky if ky is None else y - gamma * ky + gamma_b * y_d,
                f if f is None else c_y * y + c_f * f + c_yd * y_d)
    rate, rate_b, beta, delay, c_y, c_f, c_old, c_fold, c_yd = c
    return (ky if ky is None else y - rate * ky + rate_b * y_d + (d - beta * kd) / delay,
            f if f is None else c_y * y + c_f * f + c_old * y_old + c_fold * f_old + c_yd * y_d)


def baseline_update_forms(positions, laplacian: PinnedLaplacian,
                          network: CouplingNetwork, gamma: float,
                          y_d) -> tuple[np.ndarray, np.ndarray]:
    """Next positions computed both ways: (stacked, per-robot); a batch
    of states (batch, n) takes one reference per row, ``y_d`` (batch, n) with
    each row's reference in every column (a (batch, 1) column gives the same
    bits, broadcast on every sample). Both are arrays, whatever the state:
    the reference that the tests hold ``step_baseline``'s routes to."""
    y = np.asarray(positions, dtype=float)
    constants = _law_constants(network, laplacian, ("baseline", gamma), y.shape)[0]
    return _law(constants, y_d, y, np.matvec(laplacian.matrix, y), measured_force(network, y))


def dsr_update_forms(positions, delayed_positions, laplacian: PinnedLaplacian,
                     network: CouplingNetwork, alpha: float, beta: float, dt: float,
                     delay_multiple: int, y_d) -> tuple[np.ndarray, np.ndarray]:
    """Next positions via the stacked law and via local measurements: each
    robot combines its own position and force, their N-step-old values, and
    (for leaders) the reference, both readings sensed here. Shapes and use as
    in ``baseline_update_forms``."""
    y = np.asarray(positions, dtype=float)
    y_old = np.asarray(delayed_positions, dtype=float)
    constants = _law_constants(
        network, laplacian, ("dsr", alpha, beta, dt, delay_multiple), y.shape)[0]
    delta = y - y_old
    return _law(constants, y_d, y, np.matvec(laplacian.matrix, y), measured_force(network, y),
                delta, np.matvec(laplacian.matrix, delta), y_old, measured_force(network, y_old))


def _crosscheck(stacked: np.ndarray, local: np.ndarray) -> float:
    """Each row (one run at one sample) of ``local`` must be within 1e-12 *
    max(1, largest |stacked| of the row) of ``stacked``, NaN failing; returns
    the largest |stacked|. A block is accepted at once if every entry is
    within 1e-12, the smallest bound a row can have; only otherwise is each
    row held to its own bound."""
    scale = np.maximum.reduce(np.abs(stacked), axis=None)
    if np.maximum.reduce(np.abs(stacked - local), axis=None) <= _CROSSCHECK_ATOL:
        return scale
    row_scale = np.maximum.reduce(np.abs(stacked), axis=-1, keepdims=True)
    bound = _CROSSCHECK_ATOL * np.maximum(1.0, row_scale)
    residual = np.abs(stacked - local)
    if not np.logical_and.reduce(residual <= bound, axis=None):
        worst = np.flatnonzero(~(residual <= bound))[0]
        raise CrosscheckError(
            f"per-robot and stacked updates disagree by {residual.flat[worst]:.3g} "
            f"(bound {np.broadcast_to(bound, residual.shape).flat[worst]:.3g})")
    return np.maximum.reduce(row_scale, axis=None)


def _check_block(stacked: np.ndarray, local: np.ndarray, first: int) -> None:
    """The verdict on samples ``first``.. of a run or a batch: row i of
    ``stacked`` and ``local`` holds sample first + i's two forms, each of its
    runs held to its own bound (``_crosscheck``) and to DIVERGENCE_LIMIT_CM.
    Where any sample fails, the first one that does raises CrosscheckError,
    or DivergenceError with its step, also under ``python -O``."""
    try:
        if _crosscheck(stacked, local) <= DIVERGENCE_LIMIT_CM:
            return
    except CrosscheckError:
        pass
    for i, forms in enumerate(zip(stacked, local)):
        if not _crosscheck(*forms) <= DIVERGENCE_LIMIT_CM:
            raise DivergenceError(step=first + i)


def _crosscheck_floats(rows: list[tuple[float, float]], step: int) -> np.ndarray:
    """Accepts sample ``step`` of one run robot by robot, ``rows`` holding each
    robot's (stacked, per-robot) next position as Python floats, and returns
    the stacked positions as an array. A sample that any robot fails, by the
    bound or the divergence limit (a NaN anywhere does), goes to
    ``_check_block``, which raises as it does on arrays."""
    values = [s for s, _ in rows]
    stacked, scale = np.array(values), max(map(abs, values))
    bound = _CROSSCHECK_ATOL * max(1.0, scale)
    if scale <= DIVERGENCE_LIMIT_CM:
        for s, l in rows:   # a loop: all() of a generator costs ~0.3 us of a chain4 step
            if not abs(s - l) <= bound:
                break
        else:
            return stacked
    _check_block(stacked[None], np.array([[l for _, l in rows]]), step)
    return stacked


def _float_readings(ys: list[float], springs: tuple, n: int) -> list[float]:
    """``measured_force`` of one state in Python floats: each robot's
    springs summed in list order, as it sums them on arrays."""
    force = [0.0] * n
    for robot, neighbour, stiffness in springs:
        force[robot] += stiffness * (ys[robot] - ys[neighbour])
    return force


def _step(state: NetworkState, laplacian: PinnedLaplacian, network: CouplingNetwork,
          gains: tuple, y_d) -> np.ndarray:
    """The one update of both laws, for the gains of ``_law_constants``,
    which are checked before anything is sensed. The robots sense the
    current positions; the cohesive law also senses the delayed ones. One
    state with a scalar reference on a small network (``_law_constants``'s
    ``per_robot``) is sensed and steps both laws robot by robot in Python
    floats, anything else as arrays, with the same bits; either is judged
    by ``_check_block``. Nothing is written to ``state``."""
    y = np.asarray(state.positions, dtype=float)
    constants, per_robot, springs = _law_constants(network, laplacian, gains, y.shape)
    floats = per_robot is not None and isinstance(y_d, float)
    ky = np.matvec(laplacian.matrix, y)
    # one map per law over its named lists: building them in a loop costs ~0.4 us
    # of a 7-10 us chain4 step
    if gains[0] == "baseline":
        if floats:
            ys = y.tolist()
            forms = map(_law, per_robot, repeat(y_d), ys, ky.tolist(),
                        _float_readings(ys, springs, network.n))
        else:
            forms = _law(constants, y_d, y, ky, measured_force(network, y))
    else:
        y_old = np.asarray(state.delayed_positions, dtype=float)
        delta = y - y_old
        k_delta = np.matvec(laplacian.matrix, delta)
        if floats:
            ys, ys_old = y.tolist(), y_old.tolist()
            forms = map(_law, per_robot, repeat(y_d), ys, ky.tolist(),
                        _float_readings(ys, springs, network.n), delta.tolist(),
                        k_delta.tolist(), ys_old, _float_readings(ys_old, springs, network.n))
        else:
            forms = _law(constants, y_d, y, ky, measured_force(network, y), delta, k_delta,
                         y_old, measured_force(network, y_old))
    if floats:
        return _crosscheck_floats(list(forms), state.step + 1)
    _check_block(forms[0][None], forms[1][None], state.step + 1)
    return forms[0]


def step_baseline(state: NetworkState, laplacian: PinnedLaplacian,
                  network: CouplingNetwork, config: ControllerConfig,
                  y_d) -> np.ndarray:
    """One baseline update; returns the next positions, (n,) or (batch, n).
    Any beyond DIVERGENCE_LIMIT_CM raises DivergenceError. ``state`` is only
    read."""
    return _step(state, laplacian, network, ("baseline", config.gamma), y_d)


def step_dsr(state: NetworkState, laplacian: PinnedLaplacian,
             network: CouplingNetwork, config: ControllerConfig,
             y_d) -> np.ndarray:
    """One cohesive update; returns and raises as ``step_baseline``. The
    robots sense both the current and the delayed positions (``_step``). A
    state whose history does not hold N samples raises ValueError."""
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
    ``ends`` is read at the start of each block: a caller may add to it between
    blocks. ``references`` is read only through ``shape``, ``len`` and the row
    slices [m - 1, last) of the blocks of samples m..last, in order: an object
    that forms its rows as they are read (a stride-0 broadcast, the sweep's
    ``trajectory._Tustin``) serves.

    One run of a small network (``_law_constants``'s ``per_robot``), which
    only ``simulate`` hands over, calls the public step once per sample, in
    floats. Any other state, a batch (the sweep's, or the tuner's batch of one
    run) or a larger network, steps only the stacked form per sample, and
    checks each block before it is yielded: one reading of each sample stepped
    from, the per-robot form of the whole block as one array evaluation, and
    ``_check_block``. A failing sample raises what its step would, and no
    sample stepped past it reaches a caller."""
    laplacian = build_pinned_laplacian(network)
    _warn_if_unstable(laplacian, config)
    steps = len(references) - 1
    if steps < 1:
        return   # a run of no steps evaluates no law, so none of its gains can fail
    shape = references.shape[1:] + (laplacian.n,)
    gains = (("baseline", config.gamma) if config.kind == "baseline" else   # as the steps key it
             ("dsr", config.alpha, config.beta, config.dt, config.delay_multiple))
    constants, per_robot, _ = _law_constants(network, laplacian, gains, shape)
    if per_robot is not None:
        stepper = step_baseline if config.kind == "baseline" else step_dsr
        state = NetworkState.at_rest(np.zeros(shape), config.delay_multiple)
    rows = max(1, _BLOCK_VALUES // math.prod(shape))
    # block rows lag.. are yielded; the lag rows before them are the cohesive
    # law's delayed samples, and ``sensed`` holds each row's reading
    lag = config.delay_multiple if config.kind == "dsr" and per_robot is None else 0
    block = np.zeros((lag + rows + 1,) + shape)
    sensed = np.empty_like(block)
    matrix, first = laplacian.matrix, 1
    while first <= steps:
        last = min(first + rows - 1, steps, *(m for m in ends if m >= first))
        k = last - first + 1
        y_ds = references[first - 1:last]
        if per_robot is not None:   # Python floats, made one at a time
            y_ds = memoryview(y_ds)
            for i in range(k):
                state = state.advanced(stepper(state, laplacian, network, config, y_ds[i]))
                block[i + 1] = state.positions
        else:
            # rows of the state's shape, tiled once per block; samples stepped
            # past a failing one warn of nothing
            y_ds = np.repeat(y_ds[..., None], laplacian.n, axis=-1)
            y, f = block[lag:lag + k], sensed[lag:lag + k]   # the samples stepped from
            with np.errstate(all="ignore"):
                for i in range(lag, lag + k):
                    y_i, d, kd = block[i], None, None
                    if lag:
                        d = y_i - block[i - lag]
                        kd = np.matvec(matrix, d)
                    block[i + 1] = _law(constants, y_ds[i - lag], y_i, np.matvec(matrix, y_i),
                                        None, d, kd)[0]
                f[:] = measured_force(network, y.reshape(-1, laplacian.n)).reshape(y.shape)
                if first == 1:
                    sensed[:lag] = f[0]   # the rest padding reads as sample 0
                local = _law(constants, y_ds, y, None, f, None, None, block[:k], sensed[:k])[1]
                _check_block(block[lag + 1:lag + k + 1], local, first)
        yield first, block[lag:lag + k + 1]
        block[:lag + 1] = block[k:k + lag + 1]
        sensed[:lag] = sensed[k:k + lag]
        first = last + 1


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
