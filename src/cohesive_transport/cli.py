"""Command-line harness: run scenarios, tune gains, write CSV/JSON.

Subcommands
    simulate   run one scenario config, write trace.csv + summary.json
    stability  analyze the configured controller, write stability.json
    tune       pick gains for a target settling time, write tables
    sweep      rerun a scenario across filter cutoffs, write sweep.csv
    reproduce  run both bundled reference scenarios and compare against
               the expected results (nonzero exit on mismatch)

Exit codes: 0 success, 1 other package error (infeasible tuning, failed
per-robot crosscheck), 2 config problem (also an --out directory that
cannot be created), 3 simulation divergence, 4 reproduce mismatch, 5 out
of memory (a run too long or too wide to hold). A failed run creates no
output directory.

The trace CSV schema is one row per sample:
    t,y_1..y_n,f_1..f_n,yd,D,vmax_step
with positions y in cm, object forces f in N, reference yd in cm,
deformation D in cm, and vmax_step the largest commanded speed (cm/s)
issued at that sample (0 in the final row). Floats carry 9 significant
digits; identical configs produce byte-identical files. The JSON files
write every non-finite number as null.
"""
from __future__ import annotations

import argparse
import json
import math
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

_DEFAULT_SWEEP = [round(0.02 * i, 10) for i in range(1, 26)]  # 0.02 .. 0.5 rad/s


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header line, then one line per row with 9 significant digits per
    value. Rows are formatted one at a time, so a trace never exists as
    Python floats all at once."""
    row_format = ",".join(["%.9g"] * len(header)) + "\n"
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        out.writelines(row_format % tuple(row) for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    """Indented JSON with every non-finite number, at any depth, as null:
    Infinity and NaN are not JSON."""
    def finite(value):
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value
    path.write_text(json.dumps(finite(payload), indent=2, allow_nan=False) + "\n")


def write_trace_csv(trace: SimulationTrace, path: Path) -> None:
    header = (["t"] + [f"y_{k + 1}" for k in range(trace.n)]
              + [f"f_{k + 1}" for k in range(trace.n)] + ["yd", "D", "vmax_step"])
    table = np.column_stack((trace.times, trace.positions, trace.forces, trace.reference,
                             metrics.spread(trace.positions),
                             np.append(metrics.step_moves(trace.positions), 0.0) / trace.dt))
    _write_csv(path, header, map(np.ndarray.tolist, table))


def _out_dir(args, scenario: ScenarioConfig | None = None) -> Path:
    path = Path(args.out or (scenario.out_dir if scenario else None) or "results")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, no permission, ...
        raise ConfigError(f"--out: cannot create directory {path}: {exc.strerror}") from exc
    return path


def cmd_simulate(args) -> int:
    scenario = load_config(args.config)
    trace = simulate(scenario)
    summary = metrics.summarize(trace, final_value=scenario.trajectory.amplitude or None)
    out = _out_dir(args, scenario)
    write_trace_csv(trace, out / "trace.csv")
    _write_json(out / "summary.json", summary.as_dict())
    print(f"wrote {out / 'trace.csv'} ({trace.num_samples} samples)")
    for key, value in summary.as_dict().items():
        print(f"  {key}: {value}")
    return 0


def cmd_stability(args) -> int:
    scenario = load_config(args.config)
    lap = build_pinned_laplacian(scenario.network)
    ctl = scenario.controller
    if ctl.kind == "dsr":
        report = spectral_radius(lap, ctl.alpha, ctl.beta, ctl.dt,
                                 ctl.delay_multiple)
        payload = report.as_dict()
        stable, sigma = report.stable, report.spectral_radius
    else:
        bound = baseline_gamma_bound(lap)
        sigma = baseline_spectral_radius(lap, ctl.gamma)
        stable = ctl.gamma < bound
        payload = {
            "stable": stable,
            "spectral_radius": sigma,
            "gamma_bound": bound,
            "per_mode": [{"eigenvalue": float(lam),
                          "multiplier": 1.0 - ctl.gamma * float(lam)}
                         for lam in lap.eigenvalues],
        }
    out = _out_dir(args, scenario)
    _write_json(out / "stability.json", payload)
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
    base, dsr = tuning.tune(scenario.network, spec)
    lap = build_pinned_laplacian(scenario.network)
    gamma_rows = tuning.ts_vs_gamma_table(lap, spec)
    dsr_rows = tuning.dsr_gains_vs_ts_table(lap, spec, [float(t) for t in range(4, 21)])
    out = _out_dir(args, scenario)
    gamma_csv, dsr_csv = out / "ts_vs_gamma.csv", out / "dsr_gains_vs_ts.csv"
    _write_csv(gamma_csv, ["gamma", "ts_estimate_s"], gamma_rows)
    _write_csv(dsr_csv, ["target_ts_s", "alpha", "beta", "sigma"], dsr_rows)
    _write_json(out / "tuning.json", {"target_settling_s": args.target_ts,
                                      "baseline": base.as_dict(), "dsr": dsr.as_dict()})
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
    rows = cutoff_sweep(scenario, omega_list)
    out = _out_dir(args, scenario)
    sweep_csv = out / "sweep.csv"
    _write_csv(sweep_csv, ["omega_c", "D_bar_cm", "v_max_cmps"],
               ((r.omega_c, r.max_deformation, r.max_speed) for r in rows))
    print(f"wrote {sweep_csv} ({len(rows)} cutoffs)")
    return 0


def cmd_reproduce(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise ConfigError(f"--tolerance: must be non-negative and finite, got {args.tolerance}")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 5
    except CohesiveTransportError as exc:  # infeasible tuning, failed crosscheck
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
