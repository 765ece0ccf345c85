"""Reference transport and its expected results.

The reference transport is declared once, in the two config files
shipped in this package's ``configs/`` directory:
``chain4_baseline.cfg`` (plain force-descent controller) and
``chain4_dsr.cfg`` (cohesive controller), both tuned for a 10 s step
settling time. The cohesive run cuts peak force and peak deformation
by about 90%.

``run_reproduction`` simulates both files and checks the headline
metrics against the expected values, which is the package's end-to-end
regression anchor.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from . import metrics
from .dynamics import SimulationTrace, simulate
from .scenario import load_config

# Expected peak force (N) and peak deformation (cm) for each run.
EXPECTED_BASELINE_FORCE = 0.146
EXPECTED_BASELINE_DEFORMATION = 5.824
EXPECTED_DSR_FORCE = 0.014
EXPECTED_DSR_DEFORMATION = 0.563
EXPECTED_IMPROVEMENT_PCT = 90.0

DEFAULT_TOLERANCE = 0.05


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
    """Simulate both bundled reference configs and compare to expectations."""
    start = time.perf_counter()
    base_trace, dsr_trace = (
        simulate(load_config(Path(__file__).with_name("configs") / name))
        for name in ("chain4_baseline.cfg", "chain4_dsr.cfg"))
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
