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
cannot be created, and ``tune`` on a cohesive controller with
delay_multiple > 1), 3 simulation divergence, 4 reproduce mismatch, 5 out
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
from .stability import baseline_gamma_bound, mode_roots, spectral_radius
from .trajectory import cutoff_sweep

_DEFAULT_SWEEP = [round(0.02 * i, 10) for i in range(1, 26)]  # 0.02 .. 0.5 rad/s
_CHUNK_VALUES = 16384       # values formatted per chunk of a CSV table

# The %.9g kernel lays each value out in a 16-byte record and drops the zero
# bytes. Column 15 holds the separator; the rest depends on the decimal
# exponent E:
#   -4 <= E < 0:   sign 0, the "0.000" prefix ending at 5, digits 6-14
#   0 <= E < 9:    sign 0, digits from 1 with the point after digit E
#   other E:       sign 0, d.dddddddd from 1, "e+12" at 11-14
#   |E| >= 100:    d.dddddddd from 0, "e+123" at 10-14, and the '-' of a
#                  negative value in a record of its own before it
# A declined value's '-' is also a record of its own: '%.9g' can print 16
# characters besides the separator.
# Digits go in three groups of three; a point inside a group, or just before
# it, comes with the group's digits, which each layout places at its columns.
_RECORD = 16
# per layout: the column of digit 0, and the digit the point follows (None:
# no point); layout 1 + E serves 0 <= E < 9, and layout 1 also scientific
# notation with a 2-digit exponent
_LAYOUTS = ((6, None),) + tuple((1, e if e < 8 else None) for e in range(9)) + ((0, 0),)
_ROWS = 2000                                # digit-table rows per layout
_E_MIN, _E_MAX = -300, 300                  # decimal exponents of the table rows
_E_ZERO = _E_MAX - _E_MIN + 1               # the frame row of 0 and -0
_WIDE_LOW, _WIDE_HIGH = -100 - _E_MIN, 100 - _E_MIN   # 3-digit exponents: rows <=, >=
_POW10 = np.array([float(f"1e{8 - e}") for e in range(_E_MIN, _E_MAX + 1)])
_TIE = 1e-6                                 # declined: |frac(s) - 1/2| below this


def _g9_tables() -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Records to OR together. Digit group g (digits 3g to 3g + 2) has a
    table with _ROWS rows per layout: in groups 0 and 1 row 2v holds the
    three digits of v without its final zeros and row 2v + 1 all three, in
    group 2 row v the former. A point after digit 3g - 1, 3g or 3g + 1 is in
    group g's rows, and shown without final zeros only where a kept digit
    follows it. bases[row] is the first row of the layout of the frame row's
    exponent. Frame rows [exponent, negative] hold the sign, prefix,
    exponent and ',', and '0' on every digit column of the integer part:
    OR-ing '0' (0x30) keeps a digit and restores a zero."""
    v = np.arange(1000)
    full = np.stack((v // 100, v // 10 % 10, v % 10), axis=1) + ord("0")
    kept = ~np.logical_and.accumulate(full[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    # the rows 2v and 2v + 1 of groups 0 and 1, and whether a point before
    # each digit shows in them
    paired = np.stack((np.where(kept, full, 0), full), axis=1).reshape(-1, 3)
    shows = np.stack((kept, np.ones_like(kept)), axis=1).reshape(-1, 3)
    first = np.array([column for column, _ in _LAYOUTS])
    point = np.array([9 if k is None else k for _, k in _LAYOUTS])
    digits = []
    for g, (chars, shown) in enumerate([(paired, shows)] * 2 + [(paired[::2], kept)]):
        i = 3 * g + np.arange(3)                    # the group's digits
        table = np.zeros((len(_LAYOUTS), _ROWS, _RECORD), np.uint8)
        table[np.arange(len(_LAYOUTS))[:, None], :len(chars),
              first[:, None] + i + (i > point[:, None])] = chars.T
        inside = np.flatnonzero(abs(point - 3 * g) <= 1)
        table[inside, :len(chars), first[inside] + point[inside] + 1] = \
            np.where(shown[:, point[inside] + 1 - 3 * g].T, ord("."), 0)
        digits.append(table.reshape(-1, _RECORD))

    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed, small, wide = (-4 <= e) & (e < 9), (-4 <= e) & (e < 0), abs(e) >= 100
    bases = _ROWS * np.where(fixed, np.where(small, 0, 1 + e),
                             np.where(wide, len(_LAYOUTS) - 1, 1))
    frame = np.zeros((_E_ZERO + 1, 2, _RECORD), np.uint8)
    frame[:, 1, 0] = ord("-")
    frame[:, :, -1] = ord(",")
    rows = frame[:-1]
    rows[wide, 1, 0] = 0
    column = np.arange(1, 6)                        # "0." + "0" * (-E - 1) ends at 5
    rows[:, :, 1:6] = np.where(small[:, None] & (column >= 5 + e[:, None]),
                               np.where(column == 6 + e[:, None], ord("."), ord("0")),
                               0)[:, None]
    i = np.arange(9)                                # digit i <= E at column 1 + i
    rows[:, :, 1:10] |= np.where((fixed & ~small)[:, None] & (i <= e[:, None]),
                                 ord("0"), 0).astype(np.uint8)[:, None]
    exponent = np.stack([np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                         abs(e) // 100, abs(e) // 10 % 10, abs(e) % 10], axis=1)
    exponent[:, 2:] += ord("0")
    rows[wide, :, 10:15] = exponent[wide, None]
    rows[~fixed & ~wide, :, 11:15] = exponent[~fixed & ~wide][:, None, [0, 1, 3, 4]]
    frame[-1, :, 1] = ord("0")
    return digits, np.append(bases, 0).astype(float), frame.reshape(-1, _RECORD)


(_G9_HI, _G9_MID, _G9_LO), _G9_BASES, _G9_FRAME = _g9_tables()
_MINUS = np.array([ord("-")] + [0] * (_RECORD - 1), np.uint8)


class _G9Kernel:
    """Formats float64 values as '%.9g' does, byte for byte, in numpy.

    For |x| in [1e-298, 1e298) let E = floor(log10|x|) and S = |x| * 10**(8-E),
    the exact real in [1e8, 1e9) whose nearest integer (ties to even) is the
    9-digit string '%.9g' prints. The kernel computes s = fl(|x| * P) with P
    = fl(10**(8-E)) from a table of correctly rounded powers: two roundings,
    each of relative error at most u = 2**-53, so |s - S| < 2u * S < 2.3e-7.
    Hence rint(s) = round(S) unless S lies within 2.3e-7 of a half-integer;
    the kernel declines every value with |s - rint(s)| > 1/2 - 1e-6, a margin
    four times that bound, and formats those through '%.9g' itself, as it
    does NaN, +-inf, subnormals and |x| outside the range. E is the floor of
    numpy's log10|x|; a log10 accurate to about 1e-10 absolute puts it off by
    one only for |x| within 5e-10 relative of a power of ten. There S, taken
    at the E the kernel uses, lies within 0.05 below 1e8 (E one too high) or
    within 0.5 above 1e9 (one too low), so rint(s) lands on 1e8 or 1e9; a
    result of 1e9 is written as 1e8 at E + 1, and both are the 1e8 at the
    power's exponent that '%.9g' prints for such |x|. The splits of rint(s)
    into 3-digit groups divide exact integers below 2**53 by powers of ten,
    so every floor and ceiling is exact. Zeros are written directly; the
    layout then follows '%g': fixed notation for -4 <= E < 9, else
    d.dddddddde+XX, without trailing zeros or a bare point.

    The work buffers are sized once for ``size`` values and reused by every
    chunk; ``declined`` counts the values handed to '%.9g' so far. Every
    table index is in range by the bounds above, so the takes clip (an
    unbuffered take) and never clamp."""

    def __init__(self, size: int):
        self.floats = np.empty((4, size))
        self.ints = np.empty((4, size), np.intp)
        self.masks = np.empty((3, size), bool)
        self.records = np.empty((2, size, _RECORD), np.uint8)
        self.declined = 0

    def format(self, table: np.ndarray) -> bytes:
        """Bytes of the C-contiguous 2-D ``table``, each value followed by
        ',', or by a newline at the end of its row."""
        x = table.reshape(-1)
        n = len(x)
        a, s, r, t = self.floats[:, :n]
        groups = self.floats[:3, :n]             # the rows of a, s and r
        e, rows = self.ints[0, :n], self.ints[1:, :n]
        declined, zero, m = self.masks[:, :n]
        records, tmp = self.records[:, :n]

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
        wide = e.min() <= _WIDE_LOW or e.max() >= _WIDE_HIGH

        # r = 1e6*hi + 1e3*mid + lo. floor + ceil of r / 1e6 is 2 hi, plus 1
        # where a later group is nonzero, so that hi keeps its final zeros
        np.divide(r, 1e6, out=a)
        np.floor(a, out=t)
        np.ceil(a, out=a)
        a += t                                   # a: hi's row
        np.multiply(t, -1e6, out=t)
        r += t                                   # 1e3*mid + lo
        np.divide(r, 1e3, out=s)
        np.floor(s, out=t)
        np.ceil(s, out=s)
        s += t                                   # s: mid's row
        np.multiply(t, -1e3, out=t)
        r += t                                   # r: lo's row
        np.equal(x, 0, out=zero)                 # no digits, the frame's '0'
        np.copyto(e, _E_ZERO, where=zero)
        np.copyto(a, 0, where=zero)
        np.copyto(declined, False, where=zero)
        np.take(_G9_BASES, e, out=t, mode="clip")
        groups += t
        np.copyto(rows, groups, casting="unsafe")
        np.signbit(x, out=m)
        signs = [np.flatnonzero(m & ((e <= _WIDE_LOW) | (e >= _WIDE_HIGH)) & ~zero
                                & ~declined)] if wide else []
        e *= 2                                   # e: frame row
        e += m

        words, extra = records.view(np.uint64), tmp.view(np.uint64)
        np.take(_G9_FRAME, e, axis=0, out=records, mode="clip")
        for digits, row in zip((_G9_HI, _G9_MID, _G9_LO), rows):
            np.take(digits, row, axis=0, out=tmp, mode="clip")
            words |= extra
        records.reshape(table.shape + (_RECORD,))[:, -1, -1] = ord("\n")
        for i in np.flatnonzero(declined):
            text = b"%.9g" % x[i]
            if text[:1] == b"-":
                signs.append([i])
                text = text[1:]
            records[i, :-1] = 0
            records[i, :len(text)] = list(text)
            self.declined += 1
        if signs:
            records = np.insert(records, np.sort(np.concatenate(signs)), _MINUS, axis=0)
        return records.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """A header line, then one line per row of the equal-length 1-D or 2-D
    float ``blocks`` (arrays, or anything sliced by rows into them) set side
    by side, each value as '%.9g' prints it. Rows are stacked, formatted by
    ``_G9Kernel`` and written a chunk at a time, so the table never exists
    whole; no rows leave the header alone. The chunks are as equal as whole
    rows allow and hold at most _CHUNK_VALUES values (or one row), so that
    a short table gets smaller work buffers."""
    rows, width = len(blocks[0]), len(header)
    parts = -(-rows // max(1, _CHUNK_VALUES // width))
    chunk = -(-rows // parts) if rows else 1
    table = np.empty((chunk, width))
    kernel = _G9Kernel(table.size)
    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode())
        for start in range(0, rows, chunk):
            part = table[:min(chunk, rows - start)]
            np.concatenate([np.reshape(block[start:start + len(part)], (len(part), -1))
                            for block in blocks], axis=1, out=part)
            out.write(kernel.format(part))


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
        bound, multipliers = baseline_gamma_bound(lap), mode_roots(lap, ctl)[:, 0]
        payload = {"stable": ctl.gamma < bound,
                   "spectral_radius": float(np.max(np.abs(multipliers))),
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
    if scenario.controller.kind == "dsr" and scenario.controller.delay_multiple > 1:
        raise ConfigError(f"controller.delay_multiple: tune tunes a one-sample delay only, "
                          f"got {scenario.controller.delay_multiple}")
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
                      if args.omega_c_list is not None else _DEFAULT_SWEEP)
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
