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

from .network import build_pinned_laplacian
from .stability import ModalTail, first_stop

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


def _tustin_pole(wd):
    """The filter's pole p, which multiplies y_d[m - 1]; wd = wc*dt."""
    return (2.0 - wd) / (2.0 + wd)


class _Tustin:
    """y_d[0..steps] of a step of ``amplitude`` from sample ``start`` on,
    filtered by the recursion above; an array ``wd`` filters one column per
    value, as if alone. Rows are filtered only as far as they are read, each
    continuing from the last row filtered, and only the rows from the last
    read's start on are kept: reads, row slices [a, b) or rows [a], come in
    order of a, as ``dynamics._run`` makes them. ``filled`` counts the rows
    filtered so far."""

    def __init__(self, amplitude: float, start: int, wd, steps: int):
        self.amplitude, self.start = amplitude, start
        self.keep, self.feed = _tustin_pole(wd), wd / (2.0 + wd)
        self.shape = (steps + 1,) + np.shape(wd)
        self.rows = np.zeros((1,) + self.shape[1:])   # y_d[0] = 0
        self.first = 0       # the row that self.rows[0] holds
        self.filled = 1

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            a, b, stride = index.indices(len(self))
        else:
            a = operator.index(index)
            b, stride = a + 1, 1
        if stride != 1 or not self.first <= a <= b <= len(self):
            raise IndexError(f"reads go in order, by unit-stride rows from {self.first} "
                             f"to {len(self) - 1}; got {index!r}")
        kept = min(a, self.filled - 1)   # also the row the recursion continues from
        if b > self.filled:
            rows = np.empty((b - kept,) + self.shape[1:])
            old = self.filled - kept
            rows[:old] = self.rows[kept - self.first:]
            # y_d[m] first holds feed * (y_ds[m] + y_ds[m-1]), formed for every
            # new m at once, so the loop does one multiply and one add per sample
            steps = np.where(np.arange(self.filled - 1, b) >= self.start, self.amplitude, 0.0)
            np.multiply.outer(steps[1:] + steps[:-1], self.feed, out=rows[old:])
            # one cutoff runs the recursion on Python floats, several on rows, in one order
            filtered, keep = rows.tolist() if rows.ndim == 1 else rows, self.keep
            for m in range(old, len(rows)):
                filtered[m] += keep * filtered[m - 1]
            self.rows, self.filled = np.asarray(filtered, dtype=float), b
        else:
            self.rows = self.rows[kept - self.first:]
        self.first = kept
        return self.rows[a - kept:b - kept] if isinstance(index, slice) else self.rows[a - kept]


def reference_series(spec: TrajectorySpec, dt: float, num_steps: int) -> np.ndarray:
    """Reference values y_d[0..num_steps] on the sampling grid."""
    spec.validate_dt(dt)
    if spec.kind == "step":
        y = np.zeros(num_steps + 1)
        y[spec.start_index:] = spec.amplitude
        return y
    return _Tustin(spec.amplitude, spec.start_index, spec.cutoff * dt, num_steps)[0:]


@dataclass(frozen=True)
class SweepRow:
    omega_c: float
    max_deformation: float
    max_speed: float


def cutoff_sweep(scenario: "ScenarioConfig",
                 omega_c_values: Iterable[float] | Sequence[float]) -> list[SweepRow]:
    """Rerun one scenario across cutoff frequencies.

    Each run keeps everything but the trajectory cutoff fixed and
    reports the peak object deformation and peak commanded speed, the
    two quantities that decide how fast a transport can be driven.
    Rows come back ordered by cutoff; all cutoffs step as one batch,
    whose peaks are reduced block by block as it streams. The batch reads
    its references a block at a time from one ``_Tustin`` series, which
    filters them only as far as they are read: memory and reference work
    follow the samples stepped, not the duration.

    The batch stops early, at the first sample from which the modal tail
    bound (``stability.first_stop``) proves for every row that no later sample
    can raise its peak deformation or speed, or diverge: the rows keep the bits
    of the whole duration. The bound is tried at samples 16, 32, 64, ..., each
    time for a stop before the next of them; a stop it finds is requested as a
    block end, where the bound is derived again from the stepped positions.
    The batch steps to the end where ``ModalTail.of`` finds no bound.
    """
    from .dynamics import DIVERGENCE_LIMIT_CM, MAX_STEP_SAMPLES, _run, num_steps
    from .metrics import Peaks

    cutoffs = sorted(float(w) for w in omega_c_values)
    if not cutoffs:
        return []
    dt = scenario.controller.dt
    for wc in cutoffs:
        replace(scenario.trajectory, kind="filtered_step", cutoff=wc).validate_dt(dt)
    network, controller = scenario.network, scenario.controller
    amplitude, start = scenario.trajectory.amplitude, scenario.trajectory.start_index
    end = num_steps(scenario.duration, dt)
    if end > MAX_STEP_SAMPLES:   # where no bound holds, the batch steps every sample
        raise MemoryError(f"{scenario.duration:g} s at dt = {dt:g} s is {end} samples, "
                          f"more than a sweep steps ({MAX_STEP_SAMPLES})")
    wd = np.array(cutoffs) * dt
    references = _Tustin(amplitude, start, wd, end)

    tail = ModalTail.of(build_pinned_laplacian(network), controller, references.keep)
    peaks = Peaks()   # blocks are (samples, cutoffs, robots): one peak per cutoff

    def final(spread, reach, move):   # no later sample raises a peak or diverges
        return ((spread <= peaks.peak_spread) & (move < peaks.peak_move)
                & (abs(amplitude) + reach <= DIVERGENCE_LIMIT_CM))

    ends = {2 ** k for k in range(4, end.bit_length())}   # where the bound is tried
    for m, block in _run(network, controller, references, ends=ends):
        peaks.add(m, block)
        # y_d is A - C p**j from the start sample on
        if tail is None or peaks.end < start or peaks.end not in ends:
            continue
        stop = first_stop(tail, block[-1], block[-2], peaks.end, 2 ** peaks.end.bit_length(),
                          end, amplitude, final, references[peaks.end])
        if stop == peaks.end:
            break
        if stop is not None:
            ends.add(stop)
    # a run of no steps yields no block, and its peaks stay 0
    spreads, moves = (np.broadcast_to(p, len(cutoffs)) for p in (peaks.peak_spread,
                                                                 peaks.peak_move))
    return [SweepRow(omega_c=wc, max_deformation=float(d), max_speed=float(v / dt))
            for wc, d, v in zip(cutoffs, spreads, moves)]
