"""Tests of the benchmark itself: inputs, tracing and output checks."""
import inspect
import json
import os
import shutil
import signal
import statistics
import time
from pathlib import Path

import pytest

from cohesive_transport import (baseline_gamma_bound, build_pinned_laplacian,
                                closed_form_stable, cli, load_config)

import meshgen
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_mesh_generator_is_deterministic_and_stable(tmp_path):
    mesh = meshgen.generate(7)
    assert mesh == meshgen.generate(7)
    assert mesh != meshgen.generate(8)
    assert mesh.n == 64 and len(mesh.couplings) == 112
    assert sorted(k for k in mesh.leader_stiffness if k) == [0.05] * 4
    assert all(0.03 <= k <= 0.07 for _, _, k in mesh.couplings)

    paths = meshgen.write_configs(mesh, tmp_path)
    baseline, cohesive = load_config(paths["baseline"]), load_config(paths["cohesive"])
    lap = build_pinned_laplacian(cohesive.network)
    assert baseline.network == cohesive.network
    assert baseline.controller.gamma < baseline_gamma_bound(lap)
    assert closed_form_stable(lap, cohesive.controller.alpha, cohesive.controller.beta,
                              cohesive.controller.dt)
    assert lap.matrix.tolist() == mesh.laplacian().tolist()


def _function_bindings():
    return {(m.__name__, attr): value for m in tracer.package_modules()
            for attr, value in vars(m).items() if inspect.isfunction(value)}


def test_tracer_restores_every_rebound_name():
    from cohesive_transport import dynamics, trajectory, tuning
    import cohesive_transport

    before = _function_bindings()
    with tracer.Tracer() as t:
        original = before[("cohesive_transport.dynamics", "simulate")]
        copies = [cli.simulate, tuning.simulate, dynamics.simulate,
                  cohesive_transport.simulate]
        assert all(f.__wrapped__ is original for f in copies)
        assert dynamics.measured_force.__wrapped__ is before[
            ("cohesive_transport.network", "measured_force")]
        assert hasattr(trajectory.cutoff_sweep, "__wrapped__")
        trace = dynamics.simulate(load_config(ROOT / "configs" / "chain4_dsr.cfg"))
    assert _function_bindings() == before
    spans = t.aggregate(0, t.mark())
    assert spans["dynamics.simulate"]["calls"] == 1
    assert spans["dynamics.step_dsr"]["calls"] == trace.num_samples - 1
    assert t.robot_steps == 4 * (trace.num_samples - 1)


def test_tampered_expected_output_fails_the_pass(tmp_path):
    workload = workloads.WORKLOADS["chain4-reproduce"]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workload.write_inputs(ROOT, 0, inputs)
    expected_dir = tmp_path / "expected"
    shutil.copytree(workloads.EXPECTED_DIR / workload.name, expected_dir)
    expected = workloads.load_expected(expected_dir)

    clean = workloads.run_pass(workload, inputs, tmp_path / "a", expected, cli.main)
    assert clean.problems == [] and clean.wall_s > 0

    entry = expected["files"]["baseline/trace.csv"]
    entry["sha256"] = entry["sha256"][::-1]
    tampered = workloads.run_pass(workload, inputs, tmp_path / "b", expected, cli.main)
    assert tampered.problems == ["baseline/trace.csv: not byte-identical to the recorded output"]


@pytest.mark.parametrize("factor, fails", [(1 + 1e-9, True), (1 + 1e-14, False)])
def test_tuning_gains_are_compared_within_1e_12(tmp_path, factor, fails):
    source = workloads.EXPECTED_DIR / "chain4-design"
    out = tmp_path / "out"
    shutil.copytree(source, out, ignore=shutil.ignore_patterns("manifest.json"))
    tuning_json = out / "tune" / "tuning.json"
    payload = json.loads(tuning_json.read_text())
    payload["baseline"]["gamma"] *= factor
    tuning_json.write_text(json.dumps(payload))
    problems = workloads.check_recorded(out, workloads.load_expected(source))
    assert bool(problems) is fails


def test_speed_sampler_counts_pass_time_in_kernel_runs():
    sampler = speed.SpeedSampler()
    kernel_s = []
    for _ in range(50):
        start = time.perf_counter()
        speed.reference_kernel()
        kernel_s.append(time.perf_counter() - start)
    with sampler:
        start = sampler.clock()
        while sampler.clock() < start + 0.3:
            pass
    # about 15 samples at 50 Hz; the pass's 0.3 s excludes the kernel's own time
    assert 8 <= sampler.samples <= 25
    assert 0.5 < sampler.units * statistics.median(kernel_s) / 0.3 < 2.0
    spent = sampler.spent
    os.kill(os.getpid(), signal.SIGALRM)   # a late signal is ignored
    assert sampler.spent == spent
