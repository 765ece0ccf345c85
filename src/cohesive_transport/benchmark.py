"""Reference transport scenarios and their expected results.

A four-robot chain carries a soft coil spring (all effective
stiffnesses 0.05 N/cm, robot 1 pinned to the virtual source with the
same stiffness) through a 50 cm move along a low-pass filtered step
(cutoff 0.1 rad/s), sampled at 30 ms. The same move is run twice: with
the plain force-descent controller tuned for a 10 s step settling time
(gamma = 1.93) and with the cohesive controller tuned the same way
(alpha = 0.39, beta = 10.92). The cohesive run cuts peak force and peak
deformation by about 90%.

``run_reproduction`` recomputes both runs and checks the headline
metrics against the expected values, which is the package's end-to-end
regression anchor.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from . import metrics
from .dynamics import ControllerConfig, SimulationTrace, simulate
from .network import CouplingNetwork, StiffnessChain
from .scenario import ScenarioConfig
from .trajectory import TrajectorySpec

DT = 0.03
BASELINE_GAMMA = 1.93
DSR_ALPHA = 0.39
DSR_BETA = 10.92

# Expected peak force (N) and peak deformation (cm) for each run.
EXPECTED_BASELINE_FORCE = 0.146
EXPECTED_BASELINE_DEFORMATION = 5.824
EXPECTED_DSR_FORCE = 0.014
EXPECTED_DSR_DEFORMATION = 0.563
EXPECTED_IMPROVEMENT_PCT = 90.0

DEFAULT_TOLERANCE = 0.05


def reference_chain() -> CouplingNetwork:
    return StiffnessChain(neighbor_stiffness=(0.05, 0.05, 0.05),
                          leader_stiffness=(0.05, 0.0, 0.0, 0.0))


def _transport_trajectory() -> TrajectorySpec:
    return TrajectorySpec(kind="filtered_step", amplitude=50.0, cutoff=0.1)


def baseline_scenario() -> ScenarioConfig:
    return ScenarioConfig(network=reference_chain(),
                          controller=ControllerConfig.baseline(BASELINE_GAMMA, DT),
                          trajectory=_transport_trajectory(),
                          duration=60.0,
                          label="chain4-baseline")


def dsr_scenario() -> ScenarioConfig:
    return ScenarioConfig(network=reference_chain(),
                          controller=ControllerConfig.dsr(DSR_ALPHA, DSR_BETA, DT),
                          trajectory=_transport_trajectory(),
                          duration=60.0,
                          label="chain4-dsr")


@dataclass(frozen=True)
class ReproductionReport:
    """Measured vs expected headline metrics for both reference runs,
    with the traces they were measured on."""

    baseline: metrics.RunSummary
    dsr: metrics.RunSummary
    improvement: metrics.Improvement
    tolerance: float
    elapsed_s: float
    baseline_trace: SimulationTrace
    dsr_trace: SimulationTrace

    @property
    def checks(self) -> list[tuple[str, float, float, bool]]:
        """(name, measured, expected, ok) per checked quantity."""
        tol = self.tolerance
        rows = [
            ("baseline max force [N]", self.baseline.max_force,
             EXPECTED_BASELINE_FORCE),
            ("baseline max deformation [cm]", self.baseline.max_deformation,
             EXPECTED_BASELINE_DEFORMATION),
            ("cohesive max force [N]", self.dsr.max_force, EXPECTED_DSR_FORCE),
            ("cohesive max deformation [cm]", self.dsr.max_deformation,
             EXPECTED_DSR_DEFORMATION),
        ]
        return [(name, measured, expected,
                 abs(measured - expected) <= tol * expected)
                for name, measured, expected in rows]

    @property
    def ok(self) -> bool:
        return all(ok for *_, ok in self.checks)


def run_reproduction(tolerance: float = DEFAULT_TOLERANCE) -> ReproductionReport:
    """Simulate both reference scenarios and compare to expectations."""
    start = time.perf_counter()
    base_trace = simulate(baseline_scenario())
    dsr_trace = simulate(dsr_scenario())
    base = metrics.summarize(base_trace, final_value=50.0)
    dsr = metrics.summarize(dsr_trace, final_value=50.0)
    gain = metrics.improvement(base, dsr)
    return ReproductionReport(baseline=base, dsr=dsr, improvement=gain,
                              tolerance=tolerance,
                              elapsed_s=time.perf_counter() - start,
                              baseline_trace=base_trace, dsr_trace=dsr_trace)


def format_report(report: ReproductionReport) -> str:
    """Fixed-width comparison table, one row per metric."""
    lines = [
        f"{'metric':<32}{'no dsr':>10}{'cohesive':>10}{'reduction':>11}",
        "-" * 63,
        (f"{'max force [N]':<32}{report.baseline.max_force:>10.3f}"
         f"{report.dsr.max_force:>10.3f}{report.improvement.force_pct:>10.1f}%"),
        (f"{'max deformation [cm]':<32}{report.baseline.max_deformation:>10.3f}"
         f"{report.dsr.max_deformation:>10.3f}"
         f"{report.improvement.deformation_pct:>10.1f}%"),
        "",
        f"checks (tolerance {report.tolerance:.0%}):",
    ]
    for name, measured, expected, ok in report.checks:
        status = "ok" if ok else "FAIL"
        lines.append(f"  {name:<34}{measured:>10.4f} vs {expected:<8g} {status}")
    lines.append(f"elapsed: {report.elapsed_s:.2f} s")
    return "\n".join(lines)
