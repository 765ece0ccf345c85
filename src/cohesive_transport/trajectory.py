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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
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


def _tustin(steps: np.ndarray, wd) -> np.ndarray:
    """Filtered ``steps``; an array ``wd`` filters one column per value, as if alone."""
    keep = (2.0 - wd) / (2.0 + wd)
    feed = wd / (2.0 + wd)
    y = np.zeros(steps.shape + np.shape(wd))
    for m in range(1, len(steps)):
        y[m] = keep * y[m - 1] + feed * (steps[m] + steps[m - 1])
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


def cutoff_sweep(scenario: "ScenarioConfig",
                 omega_c_values: Iterable[float] | Sequence[float]) -> list[SweepRow]:
    """Rerun one scenario across cutoff frequencies.

    Each run keeps everything but the trajectory cutoff fixed and
    reports the peak object deformation and peak commanded speed, the
    two quantities that decide how fast a transport can be driven.
    Rows come back ordered by cutoff; all cutoffs step as one batch,
    whose peaks are reduced block by block as it streams.
    """
    from .dynamics import _run, num_steps
    from .metrics import Peaks

    cutoffs = sorted(float(w) for w in omega_c_values)
    if not cutoffs:
        return []
    dt = scenario.controller.dt
    for wc in cutoffs:
        replace(scenario.trajectory, kind="filtered_step", cutoff=wc).validate_dt(dt)
    steps = _step_series(scenario.trajectory, num_steps(scenario.duration, dt))
    references = _tustin(steps, np.array(cutoffs) * dt)

    peaks = Peaks()   # blocks are (samples, cutoffs, robots): one peak per cutoff
    for m, block in _run(scenario.network, scenario.controller, references):
        peaks.add(m, block)
    return [SweepRow(omega_c=wc, max_deformation=float(d), max_speed=float(v / dt))
            for wc, d, v in zip(cutoffs, peaks.peak_spread, peaks.peak_move)]
