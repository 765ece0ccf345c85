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
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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


def _robot_major(positions: np.ndarray) -> np.ndarray:
    """A contiguous copy with the robots on axis 0 and the samples on axis 1:
    a reduction over the robots is then one elementwise pass per robot over
    whole rows, however few robots there are."""
    return np.ascontiguousarray(np.moveaxis(positions, -1, 0))


def _per_sample(robots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sample_metrics`` of robot-major positions."""
    return (np.maximum.reduce(robots) - np.minimum.reduce(robots),
            np.maximum.reduce(np.abs(np.diff(robots, axis=1))))


def sample_metrics(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the deformation (the spread of robot positions, last axis)
    and the largest move of any robot from it to the next sample (one value
    fewer); over dt, that move is the peak commanded speed of the step (dt > 0
    commutes with the maximum)."""
    return _per_sample(_robot_major(positions))


class Peaks:
    """Running peaks of consecutive blocks of samples, fed as ``dynamics._run``
    yields them: in ``add(m, block)`` block[0] is sample m - 1 (a whole trace is
    ``add(1, positions)``), and each run of a (samples, batch, n) block reduces
    on its own. Kept: the peak spread and move, the last sample judged (``end``)
    and, given a nonzero final value, the last sample with a robot outside
    final_value*(1 +/- SETTLING_BAND) (-1 if none). ``add`` takes the block's
    ``sample_metrics`` as ``per_sample`` if they are already known."""

    def __init__(self, final_value: float | None = None):
        self.final_value = final_value
        self.peak_spread = self.peak_move = 0.0
        self.last_outside = self.end = -1

    def add(self, m: int, block: np.ndarray, per_sample=None) -> None:
        robots = _robot_major(block)
        spreads, moves = per_sample or _per_sample(robots)
        self.peak_spread = np.maximum(self.peak_spread, spreads.max(axis=0))
        self.peak_move = np.maximum(self.peak_move, moves.max(axis=0, initial=0.0))
        self.end = m + len(block) - 2
        if self.final_value:
            outside = np.logical_or.reduce(np.abs(robots - self.final_value)
                                           > SETTLING_BAND * abs(self.final_value))
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
    peaks.add(1, trace.positions, trace.sample_metrics)
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
