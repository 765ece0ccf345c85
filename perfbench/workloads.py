"""The benchmark's workloads: their inputs, CLI commands and output checks.

A workload pass runs a fixed list of CLI commands on inputs written at
set-up. Every pass is checked afterwards, outside the timed region:

- chain4-*: outputs are compared with the expected files recorded under
  ``expected/<workload>/`` (see record_expected.py). Traces and
  summary.json must be byte-identical, numbers in tuning.json must agree
  within 1e-12 relative, and CSV tables within one unit of the ninth
  significant digit they are printed with.
- mesh64-transport: traces, summaries and the stability report are
  compared with the independent numpy oracle in meshgen.py, to one unit
  of the ninth significant digit.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import meshgen

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
JSON_RTOL = 1e-12
CHAIN4_CONFIGS = ("chain4_baseline.cfg", "chain4_dsr.cfg")


def sig9_unit(a, b) -> np.ndarray:
    """One unit of the ninth significant digit of max(|a|, |b|); 0 where both are 0."""
    scale = np.maximum(np.abs(np.asarray(a, dtype=float)), np.abs(np.asarray(b, dtype=float)))
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(np.where(scale > 0, scale, 1.0)))
    return np.where(scale > 0, 10.0 ** (exponent - 8), 0.0)


def sig9_mismatches(actual, expected) -> int:
    """Number of entries differing by more than one unit of the ninth
    significant digit; infinities and NaNs must match exactly."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    finite = np.isfinite(a) & np.isfinite(e)
    same = np.where(finite, np.abs(a - e) <= sig9_unit(a, e), (a == e) | (np.isnan(a) & np.isnan(e)))
    return int(np.count_nonzero(~same))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_mismatches(actual, expected, where: str = "") -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{where or '/'}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in _json_mismatches(actual[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: {len(actual)} items != {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in _json_mismatches(a, e, f"{where}/{i}")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if abs(actual - expected) <= JSON_RTOL * max(abs(actual), abs(expected)):
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


def _csv_mismatches(actual: Path, expected: Path) -> list[str]:
    with actual.open() as fa, expected.open() as fe:
        rows_a, rows_e = list(csv.reader(fa)), list(csv.reader(fe))
    if not rows_a or rows_a[0] != rows_e[0]:
        return [f"{actual.name}: header differs"]
    if [len(r) for r in rows_a] != [len(r) for r in rows_e]:
        return [f"{actual.name}: table shape differs"]
    bad = sig9_mismatches([float(v) for r in rows_a[1:] for v in r],
                          [float(v) for r in rows_e[1:] for v in r])
    return [f"{actual.name}: {bad} values differ beyond the ninth digit"] if bad else []


def _report_lines(path: Path) -> list[str]:
    # the elapsed-time line is the only part of a report that may vary
    return [line for line in path.read_text().splitlines() if not line.startswith("elapsed:")]


def load_expected(directory: Path) -> dict:
    """Manifest {relative path: entry} of one recorded workload."""
    manifest = json.loads((directory / "manifest.json").read_text())
    return {"dir": directory, "files": manifest}


def check_recorded(out: Path, expected: dict) -> list[str]:
    """Compare a pass's output tree with a recorded manifest."""
    files = expected["files"]
    produced = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    problems = []
    if produced != sorted(files):
        problems.append(f"output files {produced} != expected {sorted(files)}")
    for rel, entry in files.items():
        path, reference = out / rel, expected["dir"] / rel
        if not path.is_file():
            continue
        mode = entry["compare"]
        if mode == "bytes":
            if _sha256(path) != entry["sha256"]:
                problems.append(f"{rel}: not byte-identical to the recorded output")
        elif mode == "report":
            if _report_lines(path) != _report_lines(reference):
                problems.append(f"{rel}: report differs")
        elif mode == "json":
            problems += [f"{rel}{p}" for p in _json_mismatches(
                json.loads(path.read_text()), json.loads(reference.read_text()))]
        elif mode == "csv":
            problems += _csv_mismatches(path, reference)
        else:
            problems.append(f"{rel}: unknown compare mode {mode!r}")
    return problems


def _copy_chain4_configs(root: Path, seed: int, inputs: Path) -> None:
    # chain4 inputs are the bundled reference configs; the seed is unused
    for name in CHAIN4_CONFIGS:
        shutil.copyfile(root / "configs" / name, inputs / name)


def _trace_mismatches(out: Path, rel: str, rows: np.ndarray, n: int) -> list[str]:
    header = ("t," + ",".join(f"y_{k + 1}" for k in range(n)) + ","
              + ",".join(f"f_{k + 1}" for k in range(n)) + ",yd,D,vmax_step")
    with (out / rel).open() as f:
        if f.readline().rstrip("\n") != header:
            return [f"{rel}: header differs"]
        actual = np.loadtxt(f, delimiter=",", ndmin=2)
    if actual.shape != rows.shape:
        return [f"{rel}: shape {actual.shape} != {rows.shape}"]
    bad = sig9_mismatches(actual, rows)
    return [f"{rel}: {bad} values differ from the oracle beyond the ninth digit"] if bad else []


def _mesh_expected(root: Path, seed: int) -> dict:
    mesh = meshgen.generate(seed)
    traces = {kind: meshgen.oracle_trace(mesh, kind) for kind in ("baseline", "cohesive")}
    return {"mesh": mesh, "traces": traces,
            "summaries": {k: meshgen.oracle_summary(r, mesh.n) for k, r in traces.items()},
            "spectral_radius": meshgen.oracle_spectral_radius(mesh)}


def _mesh_check(out: Path, expected: dict) -> list[str]:
    n = expected["mesh"].n
    problems = []
    for kind, rows in expected["traces"].items():
        problems += _trace_mismatches(out, f"{kind}/trace.csv", rows, n)
        summary = json.loads((out / kind / "summary.json").read_text())
        want = expected["summaries"][kind]
        if summary.keys() != want.keys():
            problems.append(f"{kind}/summary.json: keys differ")
            continue
        for key, value in want.items():
            got = summary[key]
            if (got is None or value is None) and got is not value:
                problems.append(f"{kind}/summary.json {key}: {got!r} != {value!r}")
            elif value is not None and sig9_mismatches(got, value):
                problems.append(f"{kind}/summary.json {key}: {got!r} != {value!r}")
    report = json.loads((out / "stability" / "stability.json").read_text())
    if report["stable"] is not True or len(report["per_mode"]) != n:
        problems.append("stability/stability.json: not a stable report over every mode")
    if sig9_mismatches(report["spectral_radius"], expected["spectral_radius"]):
        problems.append(f"stability/stability.json spectral_radius: "
                        f"{report['spectral_radius']!r} != {expected['spectral_radius']!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    """``commands(inputs, out)`` gives the pass as (command, argv) pairs;
    ``expect(root, seed)`` builds what ``check(out, expected)`` compares."""

    name: str
    write_inputs: Callable[[Path, int, Path], None]
    commands: Callable[[Path, Path], list[tuple[str, list[str]]]]
    expect: Callable[[Path, int], dict]
    check: Callable[[Path, dict], list[str]]


def _recorded(name: str) -> Callable[[Path, int], dict]:
    return lambda root, seed: load_expected(EXPECTED_DIR / name)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="chain4-reproduce",
        write_inputs=_copy_chain4_configs,
        commands=lambda inputs, out: [
            ("reproduce", ["reproduce", "--out", str(out / "reproduce")]),
            ("simulate", ["simulate", "--config", str(inputs / "chain4_baseline.cfg"),
                          "--out", str(out / "baseline")]),
            ("simulate", ["simulate", "--config", str(inputs / "chain4_dsr.cfg"),
                          "--out", str(out / "dsr")]),
        ],
        expect=_recorded("chain4-reproduce"),
        check=check_recorded),
    Workload(
        name="chain4-design",
        write_inputs=_copy_chain4_configs,
        commands=lambda inputs, out: [
            ("tune", ["tune", "--config", str(inputs / "chain4_baseline.cfg"),
                      "--target-ts", "10", "--out", str(out / "tune")]),
            ("sweep", ["sweep", "--config", str(inputs / "chain4_baseline.cfg"),
                       "--out", str(out / "sweep")]),
        ],
        expect=_recorded("chain4-design"),
        check=check_recorded),
    Workload(
        name="mesh64-transport",
        write_inputs=lambda root, seed, inputs: meshgen.write_configs(
            meshgen.generate(seed), inputs),
        commands=lambda inputs, out: [
            ("simulate", ["simulate", "--config", str(inputs / "mesh64_baseline.cfg"),
                          "--out", str(out / "baseline")]),
            ("simulate", ["simulate", "--config", str(inputs / "mesh64_cohesive.cfg"),
                          "--out", str(out / "cohesive")]),
            ("stability", ["stability", "--config", str(inputs / "mesh64_cohesive.cfg"),
                           "--out", str(out / "stability")]),
        ],
        expect=_mesh_expected,
        check=_mesh_check),
)}


@dataclass
class PassResult:
    """One pass: wall time, time per command, output size, and what failed."""

    wall_s: float = math.nan
    command_s: dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def run_pass(workload: Workload, inputs: Path, out: Path, expected: dict,
             main: Callable[[list[str]], int],
             clock: Callable[[], float] = time.perf_counter) -> PassResult:
    """Run every command of one pass through ``main``, timed by ``clock``,
    then check the outputs and remove them. Console output is captured
    and dropped; a nonzero exit code, an exception, a warning or a failed
    check fails the pass."""
    result = PassResult()
    sink = io.StringIO()
    try:
        with (contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            start = clock()
            for command, argv in workload.commands(inputs, out):
                t0 = clock()
                try:
                    code = main(argv)
                except SystemExit as exc:   # argparse exits on a usage error
                    code = exc.code
                elapsed = clock() - t0
                result.command_s[command] = result.command_s.get(command, 0.0) + elapsed
                if code != 0:
                    result.problems.append(f"{command} exited with code {code}")
                    break
            else:
                result.wall_s = clock() - start
        result.problems += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
        if not result.problems:
            result.problems += workload.check(out, expected)
    except Exception as exc:  # a failing pass is counted, the run goes on
        result.problems.append(f"{type(exc).__name__}: {exc}")
    if out.exists():
        result.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out)
    return result
