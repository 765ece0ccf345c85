"""Evaluation quantities computed from a simulation trace.

Deformation at a sample is the largest pairwise spread of robot
positions (single axis, so max - min). A transport run is summarized by
peak deformation, peak object force, peak commanded speed, and the
measured 2% settling time of the network.
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


def deformation_series(trace: SimulationTrace) -> np.ndarray:
    """D[m] = spread of robot positions at each sample."""
    return trace.positions.max(axis=1) - trace.positions.min(axis=1)


def max_deformation(trace: SimulationTrace) -> float:
    return float(np.max(deformation_series(trace)))


def max_force(trace: SimulationTrace) -> float:
    """Largest object force magnitude over robots and time, from the
    sensor-measured forces each robot feels."""
    return float(np.max(np.abs(trace.forces)))


def max_speed(trace: SimulationTrace) -> float:
    """Largest commanded speed magnitude over robots and time."""
    return float(np.max(np.abs(trace.speeds)))


def measured_settling_time(trace: SimulationTrace, final_value: float) -> float:
    """Last time any robot sits outside final_value*(1 +/- SETTLING_BAND).

    0.0 if the whole trace is inside the band; inf if the trace ends
    outside it (never settles within the simulated horizon).
    """
    if final_value == 0:
        raise ValueError("settling band is relative: final_value must be nonzero")
    tolerance = SETTLING_BAND * abs(final_value)
    outside = np.any(np.abs(trace.positions - final_value) > tolerance, axis=1)
    indices = np.nonzero(outside)[0]
    if indices.size == 0:
        return 0.0
    last = int(indices[-1])
    if last == trace.num_samples - 1:
        return math.inf
    return float(trace.times[last])


def summarize(trace: SimulationTrace, final_value: float | None = None) -> RunSummary:
    """Bundle the run metrics; settling time is NaN when no nonzero
    final value is available to define the band."""
    if final_value:
        settling = measured_settling_time(trace, final_value)
    else:
        settling = math.nan
    return RunSummary(max_deformation=max_deformation(trace),
                      max_force=max_force(trace),
                      max_speed=max_speed(trace),
                      settling_time=settling)


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
