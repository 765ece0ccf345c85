"""Command-line harness: run scenarios, tune gains, write CSV/JSON.

Subcommands
    simulate   run one scenario config, write trace.csv + summary.json
    stability  analyze the configured controller, write stability.json
    tune       pick gains for a target settling time, write tables
    sweep      rerun a scenario across filter cutoffs, write sweep.csv
    reproduce  run both bundled reference scenarios and compare against
               the expected results (nonzero exit on mismatch)

Exit codes: 0 success, 1 other package error (infeasible tuning, failed
per-robot crosscheck), 2 config problem, 3 simulation divergence,
4 reproduce mismatch. Set COHESIVE_TRANSPORT_LOG=debug|info|warning for
log verbosity.

The trace CSV schema is one row per sample:
    t,y_1..y_n,f_1..f_n,yd,D,vmax_step
with positions y in cm, object forces f in N, reference yd in cm,
deformation D in cm, and vmax_step the largest commanded speed (cm/s)
issued at that sample (0 in the final row). Floats carry 9 significant
digits; identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import benchmark, metrics, tuning
from .dynamics import SimulationTrace, simulate
from .errors import CohesiveTransportError, ConfigError, DivergenceError
from .network import build_pinned_laplacian
from .scenario import ScenarioConfig, load_config
from .stability import baseline_gamma_bound, baseline_spectral_radius, spectral_radius
from .trajectory import cutoff_sweep

log = logging.getLogger("cohesive_transport")

_DEFAULT_SWEEP = [round(0.02 * i, 10) for i in range(1, 26)]  # 0.02 .. 0.5 rad/s


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_trace_csv(trace: SimulationTrace, path: Path) -> None:
    n = trace.n
    deformation = metrics.deformation_series(trace)
    step_speed = np.max(np.abs(trace.speeds), axis=1)
    header = ("t," + ",".join(f"y_{k + 1}" for k in range(n)) + ","
              + ",".join(f"f_{k + 1}" for k in range(n)) + ",yd,D,vmax_step")
    table = np.column_stack((trace.times, trace.positions, trace.forces,
                             trace.reference, deformation, step_speed))
    # "%.9g" % x matches _fmt(x) byte for byte; rows are formatted one at
    # a time so the whole table never exists as Python floats at once
    row_format = ",".join(["%.9g"] * table.shape[1]) + "\n"
    with path.open("w") as out:
        out.write(header + "\n")
        out.writelines(row_format % tuple(row.tolist()) for row in table)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_summary_json(summary: metrics.RunSummary, path: Path) -> None:
    payload = {k: _json_safe(v) for k, v in summary.as_dict().items()}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _out_dir(args, scenario: ScenarioConfig | None = None) -> Path:
    out = args.out or (scenario.out_dir if scenario else None) or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    scenario = load_config(args.config)
    out = _out_dir(args, scenario)
    trace = simulate(scenario)
    summary = metrics.summarize(trace, final_value=scenario.trajectory.amplitude or None)
    write_trace_csv(trace, out / "trace.csv")
    write_summary_json(summary, out / "summary.json")
    print(f"wrote {out / 'trace.csv'} ({trace.num_samples} samples)")
    for key, value in summary.as_dict().items():
        print(f"  {key}: {value}")
    return 0


def cmd_stability(args) -> int:
    scenario = load_config(args.config)
    out = _out_dir(args, scenario)
    lap = build_pinned_laplacian(scenario.network)
    ctl = scenario.controller
    if ctl.kind == "dsr":
        report = spectral_radius(lap, ctl.alpha, ctl.beta, ctl.dt)
        payload = report.as_dict()
        stable, sigma = report.stable, report.spectral_radius
    else:
        sigma = baseline_spectral_radius(lap, ctl.gamma)
        stable = 0 < ctl.gamma < baseline_gamma_bound(lap)
        payload = {
            "stable": stable,
            "spectral_radius": sigma,
            "gamma_bound": baseline_gamma_bound(lap),
            "per_mode": [{"eigenvalue": float(lam),
                          "multiplier": 1.0 - ctl.gamma * float(lam)}
                         for lam in lap.eigenvalues],
        }
    (out / "stability.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'stable' if stable else 'UNSTABLE'} (spectral radius {sigma:.6f}); "
          f"report in {out / 'stability.json'}")
    return 0


def cmd_tune(args) -> int:
    scenario = load_config(args.config)
    try:
        spec = tuning.TuningSpec(target_settling=args.target_ts,
                                 dt=scenario.controller.dt)
    except ValueError as exc:
        raise ConfigError(f"--target-ts: {exc}") from exc
    out = _out_dir(args, scenario)
    lap = build_pinned_laplacian(scenario.network)

    base = tuning.tune_gamma(scenario.network, spec)
    dsr = tuning.tune_dsr(scenario.network, spec, v_nodsr=base.max_speed)

    rows = tuning.ts_vs_gamma_table(lap, spec)
    gamma_csv = out / "ts_vs_gamma.csv"
    gamma_csv.write_text("gamma,ts_estimate_s\n" + "\n".join(
        f"{_fmt(g)},{_fmt(t)}" for g, t in rows) + "\n")

    targets = [float(t) for t in range(4, 21)]
    dsr_rows = tuning.dsr_gains_vs_ts_table(lap, spec, targets)
    dsr_csv = out / "dsr_gains_vs_ts.csv"
    dsr_csv.write_text("target_ts_s,alpha,beta,sigma\n" + "\n".join(
        f"{_fmt(t)},{_fmt(a)},{_fmt(b)},{_fmt(s)}" for t, a, b, s in dsr_rows) + "\n")

    payload = {
        "target_settling_s": args.target_ts,
        "baseline": {
            "gamma": base.controller.gamma,
            "predicted_settling_s": base.predicted_settling,
            "measured_settling_s": base.measured_settling,
            "max_speed_cmps": base.max_speed,
            "spectral_radius": base.spectral_radius,
            "feasible": base.feasible,
        },
        "dsr": {
            "alpha": dsr.controller.alpha,
            "beta": dsr.controller.beta,
            "predicted_settling_s": dsr.predicted_settling,
            "measured_settling_s": dsr.measured_settling,
            "max_speed_cmps": dsr.max_speed,
            "spectral_radius": dsr.spectral_radius,
            "feasible": dsr.feasible,
        },
    }
    (out / "tuning.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"gamma = {base.controller.gamma:.6g} "
          f"(measured settling {base.measured_settling:.3g} s, "
          f"max speed {base.max_speed:.3g} cm/s)")
    print(f"alpha = {dsr.controller.alpha:.6g}, beta = {dsr.controller.beta:.6g} "
          f"(spectral radius {dsr.spectral_radius:.6f}, "
          f"max speed {dsr.max_speed:.3g} cm/s)")
    print(f"tables in {gamma_csv} and {dsr_csv}")
    return 0


def cmd_sweep(args) -> int:
    scenario = load_config(args.config)
    try:
        omega_list = ([float(w) for w in args.omega_c_list.split(",")]
                      if args.omega_c_list else _DEFAULT_SWEEP)
        for wc in omega_list:
            replace(scenario.trajectory, kind="filtered_step",
                    cutoff=wc).validate_dt(scenario.controller.dt)
    except ValueError as exc:
        raise ConfigError(f"--omega-c-list: {exc}") from exc
    out = _out_dir(args, scenario)
    rows = cutoff_sweep(scenario, omega_list)
    sweep_csv = out / "sweep.csv"
    sweep_csv.write_text("omega_c,D_bar_cm,v_max_cmps\n" + "\n".join(
        f"{_fmt(r.omega_c)},{_fmt(r.max_deformation)},{_fmt(r.max_speed)}"
        for r in rows) + "\n")
    print(f"wrote {sweep_csv} ({len(rows)} cutoffs)")
    return 0


def cmd_reproduce(args) -> int:
    report = benchmark.run_reproduction(tolerance=args.tolerance)
    print(benchmark.format_report(report))
    if args.out:
        out = _out_dir(args)
        write_trace_csv(report.baseline_trace, out / "baseline_trace.csv")
        write_trace_csv(report.dsr_trace, out / "dsr_trace.csv")
        (out / "reproduction.txt").write_text(benchmark.format_report(report) + "\n")
    if not report.ok:
        print("reproduction outside tolerance", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohesive-transport",
        description="Simulate and tune decentralized cohesive transport "
                    "of flexible objects.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", help="output directory (default: results/)")
        p.set_defaults(func=func)
        return p

    add("simulate", cmd_simulate, "run one scenario, write trace + summary")
    add("stability", cmd_stability, "stability report for the configured gains")
    tune_p = add("tune", cmd_tune, "select gains for a target settling time")
    tune_p.add_argument("--target-ts", type=float, required=True,
                        help="target settling time in s")
    sweep_p = add("sweep", cmd_sweep, "rerun across filter cutoff frequencies")
    sweep_p.add_argument("--omega-c-list",
                         help="comma-separated cutoffs in rad/s "
                              "(default 0.02..0.5)")
    rep = add("reproduce", cmd_reproduce,
              "rerun the bundled reference scenarios and check the results",
              needs_config=False)
    rep.add_argument("--tolerance", type=float, default=benchmark.DEFAULT_TOLERANCE,
                     help="relative tolerance for the checks (default 0.05)")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("COHESIVE_TRANSPORT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 3
    except CohesiveTransportError as exc:  # infeasible tuning, failed crosscheck
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
