"""Evaluation quantities computed from a simulation trace.

Deformation at a sample is the largest pairwise spread of robot
positions (single axis, so max - min). A transport run is summarized by
peak deformation, peak object force, peak commanded speed, and the
measured 2% settling time of the network, all defined once by ``Peaks``,
which reduces a whole trace or a run's blocks as they are stepped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationTrace

SETTLING_BAND = 0.02


@dataclass(frozen=True)
class RunSummary:
    """Headline metrics of one run."""

    max_deformation: float
    max_force: float
    max_speed: float
    settling_time: float

    def as_dict(self) -> dict:
        return {
            "max_deformation_cm": self.max_deformation,
            "max_force_N": self.max_force,
            "max_speed_cmps": self.max_speed,
            "settling_time_s": self.settling_time,
        }


def spread(positions: np.ndarray) -> np.ndarray:
    """Deformation: the spread of robot positions (last axis) at each sample."""
    return np.ptp(positions, axis=-1)


def step_moves(positions: np.ndarray) -> np.ndarray:
    """Largest move of any robot from each sample to the next; over dt, the
    peak commanded speed of the step (dt > 0 commutes with the maximum)."""
    return np.abs(np.diff(positions, axis=0)).max(axis=-1)


class Peaks:
    """Running peaks of consecutive blocks of samples, fed as ``dynamics._run``
    yields them: in ``add(m, block)`` block[0] is sample m - 1 (a whole trace is
    ``add(1, positions)``), and each run of a (samples, batch, n) block reduces
    on its own. Kept: the peak spread and move, the last sample judged (``end``)
    and, given a nonzero final value, the last sample with a robot outside
    final_value*(1 +/- SETTLING_BAND) (-1 if none)."""

    def __init__(self, final_value: float | None = None):
        self.final_value = final_value
        self.peak_spread = self.peak_move = 0.0
        self.last_outside = self.end = -1

    def add(self, m: int, block: np.ndarray) -> None:
        self.peak_spread = np.maximum(self.peak_spread, spread(block).max(axis=0))
        self.peak_move = np.maximum(self.peak_move, step_moves(block).max(axis=0, initial=0.0))
        self.end = m + len(block) - 2
        if self.final_value:
            outside = (np.abs(block - self.final_value)
                       > SETTLING_BAND * abs(self.final_value)).any(axis=-1)
            outside_at = np.where(outside.T, np.arange(m - 1, self.end + 1), -1)
            self.last_outside = np.maximum(self.last_outside, outside_at.max(axis=-1))

    def settling_time(self, dt: float):
        """Time of the last sample outside the band: 0 if none, inf if it is
        the last sample judged (not settled within the run), NaN without a band."""
        if not self.final_value:
            return math.nan
        return np.where(self.last_outside == self.end, math.inf,
                        np.maximum(self.last_outside, 0) * dt)


def summarize(trace: SimulationTrace, final_value: float | None = None) -> RunSummary:
    """Bundle the run metrics; settling time is NaN when no nonzero
    final value is available to define the band."""
    peaks = Peaks(final_value)
    peaks.add(1, trace.positions)
    return RunSummary(max_deformation=float(peaks.peak_spread),
                      max_force=float(np.max(np.abs(trace.forces))),
                      max_speed=float(peaks.peak_move / trace.dt),
                      settling_time=float(peaks.settling_time(trace.dt)))


@dataclass(frozen=True)
class Improvement:
    """Relative reduction (percent) of the cohesive run vs the baseline."""

    deformation_pct: float
    force_pct: float


def improvement(baseline: RunSummary, cohesive: RunSummary) -> Improvement:
    """100 * (1 - cohesive/baseline) for peak deformation and force."""
    if baseline.max_deformation <= 0 or baseline.max_force <= 0:
        raise ValueError("baseline peaks must be positive to compare against")
    return Improvement(
        deformation_pct=100.0 * (1.0 - cohesive.max_deformation / baseline.max_deformation),
        force_pct=100.0 * (1.0 - cohesive.max_force / baseline.max_force),
    )
