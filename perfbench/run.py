"""Outside-in benchmark of the cohesive-transport command line.

    python3 perfbench/run.py --workload chain4-reproduce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a source checkout; the package is imported from ``src/``.
A run writes the workload's inputs, then runs passes of the workload's
CLI commands (``cohesive_transport.cli.main``) for ``--seconds``
seconds, checking every pass's outputs (see workloads.py).

``--trace 0`` reports the end-to-end metrics: medians over the passes
of wall time per pass and per command, the same in units of a reference
kernel sampled during each pass (``*_norm``, see speed.py), the set-up
time of a fresh process (median of several), peak resident memory and
the failed fraction of passes. ``--trace 1`` alternates plain and traced passes
(tracer.py), reports per-layer counts and self times as medians over
the traced passes, the tracing overhead, and then a layer scaling scan
on the reference chain at n = 4, 16, 64 and 256.

Every metric is printed with its unit, sample count and quartiles, and
the run record (git SHA, Python, numpy, nproc, seed) is written to
``perfbench/out/``. The last line of standard output is one JSON object
with the metrics BENCHMARK.json names for the chosen mode.
"""
from __future__ import annotations

import os

# A run is single-threaded: keep BLAS from starting a thread pool, here
# and in the set-up probes that inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedSampler
from tracer import LAYERS, STEP_FUNCTIONS, Tracer
from workloads import WORKLOADS, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10       # spread over the run, so a slow spell of the machine hits few
MIN_SETUP_PROBES = 5
SCALE_SIZES = (4, 16, 64, 256)
# per-layer metrics and the end-to-end metrics each one should move
TABLE = json.loads((HERE / "layers.json").read_text())


def unit_of(name: str) -> str:
    if name.endswith("_norm"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, sample count and samples of one metric."""
    values = [float(v) for v in samples]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3,
            "samples": values}


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def measure_setup(workload: str, seed: int, target: Path) -> float:
    """Wall time of a fresh process that imports the package and writes
    the workload's inputs, from spawn to exit."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls at up to 50 ms intervals
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-into", str(target)],
                   check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    shutil.rmtree(target)
    return elapsed


def layer_metrics(tracer, first: int, result) -> dict[str, float]:
    """Per-layer numbers of one traced pass, whose spans start at ``first``."""
    agg = tracer.aggregate(first, tracer.mark())
    values = {name: 0 for layer in TABLE.values() for name in layer["metrics"]}
    for span, stats in agg.items():
        if stats["calls"]:
            values[f"{span}.calls"] = stats["calls"]
            values[f"{span}.self_s"] = stats["self_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s["self_s"] for span, s in agg.items()
                                        if span.startswith(layer + "."))
    values["dynamics.step.calls"] = sum(agg[s]["calls"] for s in STEP_FUNCTIONS)
    values["dynamics.step.self_s"] = sum(agg[s]["self_s"] for s in STEP_FUNCTIONS)
    for unique, span in (("eigensolve.unique_frac", "eigensolve.eigen_decompose"),
                         ("dynamics.simulate.unique_frac", "dynamics.simulate")):
        values[unique] = len(tracer.distinct[span]) / max(agg[span]["calls"], 1)
    values["dynamics.robot_steps"] = tracer.robot_steps
    values["dynamics.robot_steps_per_s"] = (tracer.robot_steps
                                            / max(agg["dynamics.simulate"]["total_s"], 1e-12))
    values["tuning.simulate_calls"] = tracer.site_calls["tuning.simulate"]
    values["cli.bytes_written"] = result.bytes_written
    return values


def scaling_scan(ct) -> dict[str, dict]:
    """Assembly and one cohesive step on the reference chain extended to
    n robots with a single leader. Assembly at the largest size runs
    once; steps are timed one by one and reported as medians."""
    metrics = {}
    for n in SCALE_SIZES:
        chain = ct.StiffnessChain(neighbor_stiffness=(0.05,) * (n - 1),
                                  leader_stiffness=(0.05,) + (0.0,) * (n - 1))
        assemble = []
        for _ in range(3 if n < 64 else 1):
            start = time.perf_counter()
            lap = ct.build_pinned_laplacian(chain)
            assemble.append(time.perf_counter() - start)
        # beta = 1/G with the Gershgorin bound G = 2 * max row sum keeps the step stable
        config = ct.ControllerConfig.dsr(0.39, 1.0 / (2.0 * 0.1), 0.03)
        state = ct.NetworkState.at_rest([0.0] * n)
        steps = []
        for _ in range(5 if n >= 256 else 40):
            start = time.perf_counter()
            nxt = ct.step_dsr(state, lap, chain, config, 50.0)
            steps.append(time.perf_counter() - start)
            state = state.advanced(nxt)
        metrics[f"scale.n{n}.assemble_s"] = summarize(assemble)
        metrics[f"scale.n{n}.step_s"] = summarize(steps)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the run record."""
    import cohesive_transport as ct
    from cohesive_transport import cli

    workload = WORKLOADS[name]
    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        workload.write_inputs(ROOT, seed, inputs)
        expected = workload.expect(ROOT, seed)
        count = itertools.count()

        def one_pass(clock=time.perf_counter):
            return run_pass(workload, inputs, work / f"pass{next(count)}", expected, cli.main,
                            clock)

        passes = [one_pass()]   # warm-up: checked, not timed
        timed, traced, layers = [], [], []
        units = {}              # timed pass -> its time in reference-kernel units
        tracer = Tracer()
        sampler = SpeedSampler()
        setup = []
        start = time.perf_counter()
        deadline = start + seconds
        while not timed or time.perf_counter() < deadline:
            if not trace and time.perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
                setup.append(measure_setup(name, seed, work / "setup"))
            if not trace:
                with sampler:
                    timed.append(one_pass(sampler.clock))
                units[id(timed[-1])] = sampler.units
            else:
                timed.append(one_pass())
                tracer.reset_counters()
                first = tracer.mark()
                with tracer:
                    traced.append(one_pass())
                layers.append(layer_metrics(tracer, first, traced[-1]))
        passes += timed + traced

        # a pass whose outputs fail their check still timed its commands
        completed = [p for p in timed if not math.isnan(p.wall_s)]
        traced_walls = [p.wall_s for p in traced if not math.isnan(p.wall_s)]
        if not completed or (trace and not traced_walls):
            raise RuntimeError(f"no pass ran to completion: {passes[-1].problems}")
        metrics = {"wall_s": summarize([p.wall_s for p in completed])}
        if trace:
            metrics["trace.wall_s"] = summarize(traced_walls)
            metrics["trace.overhead_s"] = summarize(
                [metrics["trace.wall_s"]["value"] - metrics["wall_s"]["value"]])
            for key in layers[0]:
                metrics[key] = summarize([sample[key] for sample in layers])
            metrics.update(scaling_scan(ct))
            HERE.joinpath("out").mkdir(exist_ok=True)
            tracer.write(HERE / "out" / f"{name}.spans.npz")
        else:
            metrics["wall_norm"] = summarize([units[id(p)] for p in completed])
            for command in dict.fromkeys(c for p in completed for c in p.command_s):
                metrics[f"{command}_s"] = summarize([p.command_s[command] for p in completed])
                # a command's share of the pass, at the pass's mean kernel speed
                metrics[f"{command}_norm"] = summarize(
                    [p.command_s[command] * units[id(p)] / p.wall_s for p in completed])
            while len(setup) < MIN_SETUP_PROBES:
                setup.append(measure_setup(name, seed, work / "setup"))
            metrics["setup_s"] = summarize(setup)
            metrics["peak_rss_mb"] = summarize(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        failed = sum(1 for p in passes if p.problems)
        metrics["fail_frac"] = summarize([failed / len(passes)])
        for key, meta in metrics.items():
            meta["unit"] = unit_of(key)
        return {
            "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "attempted": len(passes), "failed": failed,
            "problems": sorted({q for p in passes for q in p.problems})[:20],
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"git {record['git_sha']}  python {record['python']}  numpy {record['numpy']}  "
          f"nproc {record['nproc']}")
    print(f"passes attempted {record['attempted']}, failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={m['n']:<3} q1={m['q1']:.6g} q3={m['q3']:.6g}")


def result_line(record: dict, wanted: list[dict]) -> dict:
    """The final JSON line: the metrics BENCHMARK.json lists for this mode."""
    metrics = record["metrics"]
    wrong = [m["name"] for m in wanted
             if m["unit"] != metrics.get(m["name"], {}).get("unit")]
    if wrong:
        raise RuntimeError(f"run did not produce {wrong} in the units BENCHMARK.json gives")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                        for m in wanted}}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    lines = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        lines.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in lines),
        "attempted": sum(r["attempted"] for _, r in lines),
        "failed": sum(r["failed"] for _, r in lines),
        "metrics": {f"{name}.{m}": v for name, r in lines for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "cohesive_transport" / "__init__.py"
    spec_file = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec_file.is_file():
        print(f"benchmark needs {package} and {spec_file}; run it from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_into is not None:
        import cohesive_transport  # noqa: F401  (import cost is part of set-up)
        args.setup_into.mkdir(parents=True)
        WORKLOADS[args.workload].write_inputs(ROOT, args.seed, args.setup_into)
        return 0
    if args.workload == "all":
        return run_all(args)

    spec = json.loads(spec_file.read_text())
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print_record(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record, spec["per_layer" if args.trace else "end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
