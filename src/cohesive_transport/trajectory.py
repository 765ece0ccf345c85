"""Reference trajectories for the virtual source.

Two kinds: a raw step and a step smoothed by a first-order low-pass
filter discretized with Tustin's (bilinear) approximation,

    y_d[m] = (2 - wc*dt)/(2 + wc*dt) * y_d[m-1]
           + wc*dt/(2 + wc*dt) * (y_ds[m] + y_ds[m-1]),

where y_ds is the underlying step. The filter has unit DC gain, so the
reference converges to the step amplitude; it gets within 2% after
roughly four filter time constants (4/wc seconds).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .modal import _EPS, ModalTail, first_holding, tail_roots
from .network import build_pinned_laplacian

if TYPE_CHECKING:
    from .metrics import Peaks
    from .scenario import ScenarioConfig


@dataclass(frozen=True)
class TrajectorySpec:
    """Reference description: kind is "step" or "filtered_step".

    The step switches on at sample index ``start_index`` (default 1, so
    the reference is zero at m=0). ``cutoff`` is the low-pass cutoff in
    rad/s and only meaningful for filtered steps.
    """

    kind: str
    amplitude: float
    cutoff: float | None = None
    start_index: int = 1

    def __post_init__(self):
        if self.kind not in ("step", "filtered_step"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        try:
            operator.index(self.start_index)
        except TypeError:
            raise ValueError(f"start_index must be an integer, "
                             f"got {self.start_index!r}") from None
        if self.start_index < 0:
            raise ValueError("start_index must be >= 0")
        if self.kind == "filtered_step":
            if self.cutoff is None or not 0 < self.cutoff < math.inf:
                raise ValueError("filtered_step requires a finite cutoff > 0")

    def validate_dt(self, dt: float) -> None:
        """Tustin mapping needs wc*dt < 2 to keep the pole inside (-1, 1)."""
        if self.kind == "filtered_step" and self.cutoff * dt >= 2.0:
            raise ValueError(
                f"cutoff*dt = {self.cutoff * dt:.3g} must be < 2 for a valid "
                "Tustin discretization")


def _step_series(spec: TrajectorySpec, num_steps: int) -> np.ndarray:
    y = np.zeros(num_steps + 1)
    y[spec.start_index:] = spec.amplitude
    return y


def _tustin_pole(wd):
    """The filter's pole p, which multiplies y_d[m - 1]; wd = wc*dt."""
    return (2.0 - wd) / (2.0 + wd)


def _tustin(steps: np.ndarray, wd) -> np.ndarray:
    """Filtered ``steps``; an array ``wd`` filters one column per value, as if alone."""
    keep = _tustin_pole(wd)
    y = np.zeros(steps.shape + np.shape(wd))
    # y[m] first holds feed * (y_ds[m] + y_ds[m-1]), formed for every m at
    # once, so the loop does one multiply and one add per sample
    np.multiply.outer(steps[1:] + steps[:-1], wd / (2.0 + wd), out=y[1:])
    for m in range(1, len(steps)):
        y[m] += keep * y[m - 1]
    return y


def reference_series(spec: TrajectorySpec, dt: float, num_steps: int) -> np.ndarray:
    """Reference values y_d[0..num_steps] on the sampling grid."""
    spec.validate_dt(dt)
    steps = _step_series(spec, num_steps)
    if spec.kind == "step":
        return steps
    return _tustin(steps, spec.cutoff * dt)


@dataclass(frozen=True)
class SweepRow:
    omega_c: float
    max_deformation: float
    max_speed: float


def _first_stop(tail: ModalTail, now: np.ndarray, prev: np.ndarray, at: int, until: int,
                end: int, peaks: "Peaks", amplitude: float, poles: np.ndarray,
                reference: np.ndarray, limit: float) -> int | None:
    """The first sample c, ``at`` <= c < ``until``, from which no later sample
    up to ``end`` raises any row's peak spread or peak move, or takes a robot
    past ``limit``; None if there is none. Row b's positions are ``now[b]`` at
    ``at`` and ``prev[b]`` before it, and its reference is A - C p**j from
    ``at`` on: A = ``amplitude``, p = ``poles[b]`` and A - C = ``reference[b]``.

    In the terms of ``modal``, robot i's position at c + j is A plus the
    forced part p**j (V G)_i plus the transient, so the spread is at most
    p**j ptp(V G) + 2 max_i T_i(j) and the move from there at most
    max_i [p**j (1 - p) |V G|_i + M_i(j)], T and M being the transient's
    bounds (``ModalTail.per_robot``); the DC part moves no robot apart. Both
    bounds, plus the rounding margins, must lie at or below the row's peak
    spread and below its peak move, and A + the largest |V G|_i p**j + T_i(j),
    plus the margin, at or below ``limit``.

    The margins take s = 2 S, S bounding every later |Y| and |y_d| without
    them: S covers them with the margin if the margin is at most S, which is
    required. On top of per_sample * s, each sample injects the reference's
    own rounding, g |B|_i times at most 8 eps max(|A|, |y_d[at]|) min(J, 1/(1 -
    p)) over the J samples left (the Tustin recursion's rounding and that of its
    constants, about 4 eps of the larger value a sample), and the rounding of G,
    at most (n + 18) eps |C| g max_k (|V|^T B)_k a sample. The margin, at least
    3 (n + 8) eps s, also covers the evaluation of the bounds, each at most
    (n + 8) eps times a value below s.
    """
    n = now.shape[-1]
    lag = amplitude - reference
    forced = tail.forced(poles, lag)
    shape = forced @ tail.vectors.T
    slack = (n + 2) * _EPS * (np.abs(forced) @ tail.magnitudes.T)
    size = np.abs(shape) + slack
    spread = np.ptp(shape, axis=-1) + 2.0 * np.max(slack, axis=-1)
    step = (1.0 - poles)[:, None] * size   # the forced part's move, times p**j
    amplitudes = tail.amplitudes(now - amplitude, prev - amplitude, forced, poles)
    moves = amplitudes * tail.moves
    left = end - at
    level = np.maximum(abs(amplitude), np.abs(reference))
    residual = 8.0 * _EPS * level * np.minimum(left, 1.0 / (1.0 - poles))
    known = abs(amplitude) + np.max(size + tail.per_robot(amplitudes, 0), axis=-1)
    scale = np.maximum.reduce([known, np.max(np.abs(now), axis=-1),
                               np.max(np.abs(prev), axis=-1), level + residual])
    # 2**-1022 bounds the absolute rounding of subnormal values
    margin, move_margin = tail.margins(left, tail.per_sample * (2.0 * scale + 2.0 ** -1022)
                                       + tail.leader_drive * residual
                                       + (n + 18) * _EPS * np.abs(lag) * tail.drive_size)
    if not np.all(margin <= scale):
        return None

    def holds(j: int) -> bool:
        decay = poles ** j
        transient = tail.per_robot(amplitudes, j)
        travel = decay[:, None] * step + tail.per_robot(moves, j)
        reach = decay[:, None] * size + transient
        return bool(np.all(
            (decay * spread + 2.0 * transient.max(axis=-1) + margin <= peaks.peak_spread)
            & (travel.max(axis=-1) + move_margin < peaks.peak_move)
            & (abs(amplitude) + reach.max(axis=-1) + margin <= limit)))

    stop = first_holding(holds, min(until, end) - at)
    return None if stop is None else at + stop


def cutoff_sweep(scenario: "ScenarioConfig",
                 omega_c_values: Iterable[float] | Sequence[float]) -> list[SweepRow]:
    """Rerun one scenario across cutoff frequencies.

    Each run keeps everything but the trajectory cutoff fixed and
    reports the peak object deformation and peak commanded speed, the
    two quantities that decide how fast a transport can be driven.
    Rows come back ordered by cutoff; all cutoffs step as one batch,
    whose peaks are reduced block by block as it streams.

    The batch stops early, at the first sample from which the modal tail
    bound (``_first_stop``) proves for every row that no later sample can
    raise its peak deformation or speed, or diverge: the rows keep the bits
    of the whole duration. The bound is tried at samples 16, 32, 64, ..., each
    time for a stop before the next of them; a stop it finds is requested as a
    block end, where the bound is derived again from the stepped positions.
    The batch steps to the end where no bound exists: a delay N > 1, a root on
    or outside the unit circle, a nearly repeated pair of roots, or a cutoff
    whose pole p lies within 1e-6 of a root.
    """
    from .dynamics import DIVERGENCE_LIMIT_CM, _run, num_steps
    from .metrics import Peaks

    cutoffs = sorted(float(w) for w in omega_c_values)
    if not cutoffs:
        return []
    dt = scenario.controller.dt
    for wc in cutoffs:
        replace(scenario.trajectory, kind="filtered_step", cutoff=wc).validate_dt(dt)
    network, controller = scenario.network, scenario.controller
    steps = _step_series(scenario.trajectory, num_steps(scenario.duration, dt))
    wd = np.array(cutoffs) * dt
    references = _tustin(steps, wd)

    laplacian = build_pinned_laplacian(network)
    poles = _tustin_pole(wd)
    roots = tail_roots(laplacian, controller, poles)
    tail = None if roots is None else ModalTail(laplacian, controller, roots)
    amplitude, start = scenario.trajectory.amplitude, scenario.trajectory.start_index
    peaks = Peaks()   # blocks are (samples, cutoffs, robots): one peak per cutoff
    end = len(steps) - 1
    ends = {2 ** k for k in range(4, end.bit_length())}   # where the bound is tried
    for m, block in _run(network, controller, references, ends=ends):
        peaks.add(m, block)
        # y_d is A - C p**j from the start sample on
        if tail is None or peaks.end < start or peaks.end not in ends:
            continue
        stop = _first_stop(tail, block[-1], block[-2], peaks.end, 2 ** peaks.end.bit_length(),
                           end, peaks, amplitude, poles, references[peaks.end],
                           DIVERGENCE_LIMIT_CM)
        if stop == peaks.end:
            break
        if stop is not None:
            ends.add(stop)
    return [SweepRow(omega_c=wc, max_deformation=float(d), max_speed=float(v / dt))
            for wc, d, v in zip(cutoffs, peaks.peak_spread, peaks.peak_move)]
