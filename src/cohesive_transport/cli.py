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
digits, the bytes '%.9g' gives; identical configs produce byte-identical
files. Every CSV goes through ``_write_csv``, which formats its table in
numpy a chunk of rows at a time and writes each chunk as it is made. The
JSON files write every non-finite number as null.
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
_CHUNK_VALUES = 4096        # values formatted per chunk of a CSV table

# The %.9g kernel lays each value out in a 32-byte record and drops the zero
# bytes: column 0 the sign, 1-5 the "0.000" prefix of 1e-4 <= |x| < 1, digit
# i of 9 at 6 + 2i with the decimal point's place after it at 7 + 2i, 23-27
# the exponent "e+123" (its hundreds blank below 100), 31 the separator.
_RECORD = 32
_E_MIN, _E_MAX = -300, 300                  # decimal exponents of the table rows
_E_ZERO = _E_MAX - _E_MIN + 1               # the frame row of 0 and -0
_POW10 = np.array([float(f"1e{8 - e}") for e in range(_E_MIN, _E_MAX + 1)])
# 10**(how many of the 9 digits follow the point's place): 8 - E after the
# integer part of fixed notation, 8 after d0 (E < 0 keeps its point in the prefix)
_TAIL = np.array([10.0 ** (8 - e if 0 <= e < 9 else 8) for e in range(_E_MIN, _E_MAX + 1)])
_TIE = 1e-5                                 # declined: |frac(s) - 1/2| below this


def _g9_tables() -> tuple[np.ndarray, np.ndarray]:
    """Records to OR together. Digit rows [group, v] hold the three digits of
    v without its final zeros, [group, v + 1000] all three, at the group's
    columns. Frame rows [exponent, point, negative, newline] hold the sign,
    prefix, point, exponent and separator, and '0' on every digit column of
    the integer part: OR-ing '0' (0x30) keeps a digit and restores a zero."""
    v = np.arange(1000)
    full = np.stack((v // 100, v // 10 % 10, v % 10), axis=1) + ord("0")
    final_zeros = np.logical_and.accumulate(full[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    digits = np.zeros((3, 2000, _RECORD), np.uint8)
    for g in range(3):
        digits[g, :1000, 6 + 6 * g:12 + 6 * g:2] = np.where(final_zeros, 0, full)
        digits[g, 1000:, 6 + 6 * g:12 + 6 * g:2] = full
    frame = np.zeros((_E_ZERO + 1, 2, 2, 2, _RECORD), np.uint8)
    frame[:, :, 1, :, 0] = ord("-")
    frame[..., 0, -1] = ord(",")
    frame[..., 1, -1] = ord("\n")
    for e in range(_E_MIN, _E_MAX + 1):
        row = frame[e - _E_MIN]
        if -4 <= e < 0:
            row[..., 1:2 - e] = list(b"0." + b"0" * (-e - 1))
            continue
        point = e if 0 <= e < 9 else 0
        row[..., 6:7 + 2 * point:2] = ord("0")
        row[1, ..., 7 + 2 * point] = ord(".")
        if not 0 <= e < 9:
            row[..., 23:28] = list(f"e{e:+04d}".encode())
            if abs(e) < 100:
                row[..., 25] = 0
    frame[_E_ZERO, ..., 6] = ord("0")
    return digits, frame.reshape(-1, _RECORD)


_G9_DIGITS, _G9_FRAME = _g9_tables()


class _G9Kernel:
    """Formats float64 values as '%.9g' does, byte for byte, in numpy.

    For |x| in [1e-298, 1e298) let E = floor(log10|x|) and S = |x| * 10**(8-E),
    the exact real in [1e8, 1e9) whose nearest integer (ties to even) is the
    9-digit string '%.9g' prints. The kernel computes s = fl(|x| * P) with P
    = fl(10**(8-E)) from a table of correctly rounded powers: two roundings,
    each of relative error at most u = 2**-53, so |s - S| < 2u * S < 2.3e-7.
    Hence rint(s) = round(S) unless S lies within 2.3e-7 of a half-integer;
    the kernel declines every value with |s - rint(s)| > 1/2 - 1e-5 and
    formats those through '%.9g' itself, as it does NaN, +-inf, subnormals and
    |x| outside the range. E is the floor of numpy's log10|x|; a log10
    accurate to about 1e-10 absolute puts it off by one only for |x| within
    5e-10 relative of a power of ten. There S, taken at the E the kernel
    uses, lies within 0.05 below 1e8 (E one too high) or within 0.5 above
    1e9 (one too low), so rint(s) lands on 1e8 or 1e9; a result of 1e9 is
    written as 1e8 at E + 1, and both are the 1e8 at the power's exponent
    that '%.9g' prints for such |x|. The splits of rint(s) into 3-digit
    groups divide exact integers below 2**53 by powers of ten, so every
    floor is exact. Zeros are written directly; the layout then follows
    '%g': fixed notation for -4 <= E < 9, else d.dddddddde+XX, without
    trailing zeros or a bare point.

    The work buffers are sized once for ``size`` values and reused by every
    chunk. Every table index is in range by the bounds above, so the takes
    clip (an unbuffered take) and never clamp."""

    def __init__(self, size: int):
        self.floats = np.empty((4, size))
        self.ints = np.empty((4, size), np.intp)
        self.masks = np.empty((3, size), bool)
        self.records = np.empty((2, size, _RECORD), np.uint8)

    def format(self, x: np.ndarray, newline: np.ndarray) -> bytes:
        """Bytes of the 1-D ``x``, each value followed by ',' or, where
        ``newline`` (0 or 1 per value) is 1, by a newline."""
        n = len(x)
        a, s, r, t = self.floats[:, :n]
        e, hi, mid, lo = self.ints[:, :n]
        declined, zero, m = self.masks[:, :n]
        rec, tmp = self.records[:, :n]

        np.abs(x, out=a)
        np.greater_equal(a, 1e-298, out=declined)
        np.less(a, 1e298, out=m)
        declined &= m
        np.logical_not(declined, out=declined)   # NaN, +-inf, 0, subnormal, huge
        np.copyto(a, 1.0, where=declined)
        np.log10(a, out=s)
        np.floor(s, out=s)
        np.subtract(s, _E_MIN, out=e, casting="unsafe")   # e: row of E's tables
        np.take(_POW10, e, out=s, mode="clip")
        s *= a
        np.rint(s, out=r)
        np.subtract(s, r, out=s)
        np.abs(s, out=s)
        np.greater(s, 0.5 - _TIE, out=m)
        declined |= m
        np.greater_equal(r, 1e9, out=m)
        np.copyto(r, 1e8, where=m)
        e += m

        # r = 1e6*hi + 1e3*mid + lo; a group keeps its final zeros (row +
        # 1000) while a later group is nonzero
        np.divide(r, 1e6, out=s)
        np.floor(s, out=s)
        np.multiply(s, -1e6, out=t)
        t += r
        np.sign(t, out=a)
        a *= 1000
        a += s
        np.copyto(hi, a, casting="unsafe")
        np.divide(t, 1e3, out=s)
        np.floor(s, out=s)
        np.multiply(s, -1e3, out=a)
        a += t
        np.copyto(lo, a, casting="unsafe")
        np.sign(a, out=a)
        a *= 1000
        a += s
        np.copyto(mid, a, casting="unsafe")

        # a point where a nonzero digit follows the integer part (or d0)
        np.take(_TAIL, e, out=s, mode="clip")
        np.divide(r, s, out=t)
        np.floor(t, out=t)
        t *= s
        np.not_equal(t, r, out=m)
        np.equal(x, 0, out=zero)                 # no digits, the frame's '0'
        np.copyto(e, _E_ZERO, where=zero)
        np.copyto(hi, 0, where=zero)
        np.copyto(declined, False, where=zero)
        e *= 2                                   # e: frame row
        e += m
        np.signbit(x, out=m)
        e *= 2
        e += m
        e *= 2
        e += newline

        records, words = rec.view(np.uint64), tmp.view(np.uint64)
        np.take(_G9_DIGITS[0], hi, axis=0, out=rec, mode="clip")
        np.take(_G9_DIGITS[1], mid, axis=0, out=tmp, mode="clip")
        records |= words
        np.take(_G9_DIGITS[2], lo, axis=0, out=tmp, mode="clip")
        records |= words
        np.take(_G9_FRAME, e, axis=0, out=tmp, mode="clip")
        records |= words
        for i in np.flatnonzero(declined):
            text = b"%.9g" % x[i]
            rec[i, :-1] = 0
            rec[i, :len(text)] = list(text)
        return rec.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """A header line, then one line per row of the equal-length 1-D or 2-D
    float ``blocks`` (arrays, or anything sliced by rows into them) set side
    by side, each value as '%.9g' prints it. Rows are stacked, formatted by
    ``_G9Kernel`` and written a chunk of about _CHUNK_VALUES values at a
    time, so the table never exists whole; no rows leave the header alone."""
    rows, width = len(blocks[0]), len(header)
    chunk = max(1, min(rows, _CHUNK_VALUES // width))
    table = np.empty((chunk, width))
    newline = np.zeros((chunk, width), np.intp)
    newline[:, -1] = 1
    kernel = _G9Kernel(table.size)
    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode())
        for start in range(0, rows, chunk):
            part = table[:min(chunk, rows - start)]
            np.concatenate([np.reshape(block[start:start + len(part)], (len(part), -1))
                            for block in blocks], axis=1, out=part)
            out.write(kernel.format(part.ravel(), newline[:len(part)].ravel()))


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


class _StepSpeeds:
    """trace.csv's vmax_step column, each sample's largest move over dt and 0
    at the last sample, made a slice at a time as ``_write_csv`` reads it."""

    def __init__(self, moves: np.ndarray, dt: float):
        self.moves, self.dt = moves, dt

    def __len__(self) -> int:
        return len(self.moves) + 1

    def __getitem__(self, rows: slice) -> np.ndarray:
        speeds = self.moves[rows] / self.dt
        return np.append(speeds, 0.0) if rows.stop >= len(self) else speeds


def write_trace_csv(trace: SimulationTrace, path: Path) -> None:
    header = (["t"] + [f"y_{k + 1}" for k in range(trace.n)]
              + [f"f_{k + 1}" for k in range(trace.n)] + ["yd", "D", "vmax_step"])
    deformation, moves = trace.sample_metrics
    _write_csv(path, header, (trace.times, trace.positions, trace.forces, trace.reference,
                              deformation, _StepSpeeds(moves, trace.dt)))


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
        payload = spectral_radius(lap, ctl.alpha, ctl.beta, ctl.dt,
                                  ctl.delay_multiple).as_dict()
    else:
        bound, multipliers = baseline_gamma_bound(lap), 1.0 - ctl.gamma * lap.eigenvalues
        payload = {"stable": ctl.gamma < bound,
                   "spectral_radius": baseline_spectral_radius(lap, ctl.gamma),
                   "gamma_bound": bound,
                   "per_mode": [{"eigenvalue": lam, "multiplier": mu} for lam, mu in
                                zip(lap.eigenvalues.tolist(), multipliers.tolist())]}
    out = _out_dir(args, scenario)
    _write_json(out / "stability.json", payload)
    print(f"{'stable' if payload['stable'] else 'UNSTABLE'} "
          f"(spectral radius {payload['spectral_radius']:.6f}); "
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
    _write_csv(gamma_csv, ["gamma", "ts_estimate_s"], [np.reshape(gamma_rows, (-1, 2))])
    _write_csv(dsr_csv, ["target_ts_s", "alpha", "beta", "sigma"], [np.reshape(dsr_rows, (-1, 4))])
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
               [np.reshape([(r.omega_c, r.max_deformation, r.max_speed) for r in rows], (-1, 3))])
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
