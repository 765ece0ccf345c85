"""Decentralized cohesive transport of flexible objects by robot networks.

Robots carrying a flexible object update their positions from local
force measurements alone. The package models the object as a spring
network (pinned Laplacian), simulates the plain force-descent update
and the cohesive delayed-self-reinforcement update, analyzes
discrete-time stability, and tunes gains for a target settling time
under a commanded-speed limit. A CLI reproduces the bundled reference
results end to end.
"""

from .benchmark import run_reproduction
from .dynamics import (ControllerConfig, NetworkState, SimulationTrace,
                       UnstableControllerWarning, simulate, step_baseline,
                       step_dsr)
from .eigensolve import eigen_decompose
from .errors import (CalibrationError, CohesiveTransportError, ConfigError,
                     CrosscheckError, DivergenceError, TuningInfeasibleError,
                     UnpinnedNetworkError, UnstableGainError)
from .metrics import Improvement, RunSummary, improvement, summarize
from .network import (CalibrationRecord, CouplingNetwork, PinnedLaplacian,
                      StiffnessChain, build_pinned_laplacian,
                      calibrate_stiffness, measured_force, neighbor_forces)
from .scenario import ScenarioConfig, load_config, write_config
from .stability import (ModeRoots, StabilityReport, baseline_gamma_bound,
                        baseline_spectral_radius, closed_form_stable,
                        dsr_mode_roots, jury_stable, spectral_radius)
from .trajectory import SweepRow, TrajectorySpec, cutoff_sweep, reference_series
from .tuning import (TuningResult, TuningSpec, dsr_settling_estimate,
                     settling_time_estimate, tune, tune_gamma)

__all__ = [
    "CalibrationError", "CalibrationRecord", "CohesiveTransportError",
    "ConfigError", "ControllerConfig", "CouplingNetwork", "CrosscheckError",
    "DivergenceError",
    "Improvement", "ModeRoots", "NetworkState", "PinnedLaplacian",
    "RunSummary", "ScenarioConfig", "SimulationTrace", "StabilityReport",
    "StiffnessChain", "SweepRow", "TrajectorySpec", "TuningInfeasibleError",
    "TuningResult", "TuningSpec", "UnpinnedNetworkError",
    "UnstableControllerWarning", "UnstableGainError",
    "baseline_gamma_bound", "baseline_spectral_radius",
    "build_pinned_laplacian",
    "calibrate_stiffness", "closed_form_stable", "cutoff_sweep",
    "dsr_mode_roots", "dsr_settling_estimate",
    "eigen_decompose", "improvement", "jury_stable",
    "load_config", "measured_force", "neighbor_forces",
    "reference_series", "run_reproduction", "settling_time_estimate",
    "simulate", "spectral_radius", "step_baseline", "step_dsr", "summarize",
    "tune", "tune_gamma", "write_config",
]
