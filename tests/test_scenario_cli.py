import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohesive_transport import benchmark, cli, dynamics, metrics, network, tuning
from cohesive_transport import (ConfigError, ControllerConfig, CouplingNetwork,
                                ScenarioConfig, SimulationTrace, StiffnessChain,
                                TrajectorySpec, UnstableGainError, load_config,
                                simulate, write_config)
from cohesive_transport.cli import main, write_trace_csv

from conftest import CONFIG_DIR, DT, grid_network


def test_reproduction_runs_the_bundled_configs():
    # configs/ is the package's own directory, and reproduce simulates its files
    report = benchmark.run_reproduction()
    package_dir = Path(benchmark.__file__).with_name("configs")
    for name, trace in (("chain4_baseline.cfg", report.baseline_trace),
                        ("chain4_dsr.cfg", report.dsr_trace)):
        assert os.path.samefile(CONFIG_DIR / name, package_dir / name)
        want = simulate(load_config(package_dir / name))
        assert trace.dt == want.dt
        for field in ("positions", "forces", "reference", "times"):
            got, expected = getattr(trace, field), getattr(want, field)
            assert (got.shape, got.tobytes()) == (expected.shape, expected.tobytes())


def test_reproduction_summarizes_against_each_config_amplitude(monkeypatch):
    # the transport's amplitude is read from each config, not declared again
    load = benchmark.load_config

    def moved_20_cm(path):
        scenario = load(path)
        return replace(scenario, trajectory=replace(scenario.trajectory, amplitude=20.0))

    monkeypatch.setattr(benchmark, "load_config", moved_20_cm)
    report = benchmark.run_reproduction()
    for summary, trace in ((report.baseline, report.baseline_trace),
                           (report.dsr, report.dsr_trace)):
        assert summary == metrics.summarize(trace, final_value=20.0)
        assert summary != metrics.summarize(trace, final_value=50.0)


@pytest.mark.parametrize("config", ["chain4_baseline.cfg", "chain4_dsr.cfg"])
def test_config_roundtrip(tmp_path, config):
    scenario = load_config(CONFIG_DIR / config)
    path = tmp_path / "roundtrip.cfg"
    write_config(scenario, path)
    assert load_config(path) == scenario


def test_coupling_network_roundtrip(tmp_path):
    scenario = ScenarioConfig(
        network=CouplingNetwork(3, {(0, 1): 0.07, (1, 2): 0.035, (0, 2): 0.01},
                                (0.05, 0.0, 0.0)),
        controller=ControllerConfig.dsr(0.4, 9.5, DT, delay_multiple=2),
        trajectory=TrajectorySpec(kind="step", amplitude=3.0),
        duration=12.0, label="triangle")
    path = tmp_path / "triangle.cfg"
    write_config(scenario, path)
    assert load_config(path) == scenario


def test_a_raw_step_is_written_without_a_cutoff(tmp_path):
    # no step reads a cutoff, so its file may not set one
    scenario = replace(load_config(CONFIG_DIR / "chain4_baseline.cfg"),
                       trajectory=TrajectorySpec(kind="step", amplitude=50.0, cutoff=0.1))
    path = tmp_path / "step.cfg"
    write_config(scenario, path)
    assert load_config(path) == replace(scenario,
                                        trajectory=TrajectorySpec(kind="step", amplitude=50.0))


def test_validation_reports_all_violations(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("""
[network]
robots = 4
neighbor_stiffness = 0.05, 0.05, 0.05
leader_stiffness = 0, 0, 0, 0

[controller]
kind = dsr
alpha = 0.39
beta = 0
dt = 0.03

[trajectory]
kind = filtered_step
amplitude = 50.0
cutoff = 0.1

[run]
duration = -3
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    message = str(exc.value)
    assert "network.leader_stiffness" in message
    assert "controller" in message and "beta" in message
    assert "run.duration" in message


def test_validation_missing_section(tmp_path):
    path = tmp_path / "missing.cfg"
    path.write_text("[network]\nrobots = 2\n"
                    "neighbor_stiffness = 0.05\nleader_stiffness = 0.05, 0\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    for section in ("controller", "trajectory", "run"):
        assert f"{section}: missing section" in str(exc.value)


def test_validation_robot_count_mismatch(tmp_path):
    path = tmp_path / "mismatch.cfg"
    text = (CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "robots = 4", "robots = 5")
    path.write_text(text)
    with pytest.raises(ConfigError, match="robots"):
        load_config(path)


def test_validation_duration_grows_with_filter(tmp_path):
    text = (CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "duration = 60.0", "duration = 10.0")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="horizon"):
        load_config(path)


@pytest.mark.parametrize("kind, cutoff, start, duration, refused", [
    # 7 * 0.1 is 0.7000000000000001 and 3 * 0.1 is 0.30000000000000004
    ("step", None, 7, "0.7", False),
    ("step", None, 3, "0.3", False),
    ("step", None, 7, "0.6", True),
    ("step", None, 3, "0.2", True),
    # 3 * 0.1 + 4/10 is 0.7000000000000001
    ("filtered_step", "10.0", 3, "0.7", False),
    ("filtered_step", "10.0", 3, "0.6", True),
])
def test_validation_horizon_within_float_noise(tmp_path, kind, cutoff, start, duration,
                                               refused):
    """A duration equal to the trajectory horizon is accepted even where the
    horizon's float sum rounds above it; one sample short is refused."""
    text = (CONFIG_DIR / "chain4_baseline.cfg").read_text()
    for key, value in (("kind", kind), ("cutoff", cutoff), ("start_index", start),
                       ("dt", "0.1"), ("duration", duration)):
        text, count = re.subn(rf"^{key} = (?!baseline).*\n", "" if value is None else
                              f"{key} = {value}\n", text, flags=re.M)
        assert count == 1
    path = tmp_path / "edge.cfg"
    path.write_text(text)
    if refused:
        with pytest.raises(ConfigError, match="shorter than the trajectory horizon"):
            load_config(path)
    else:
        assert load_config(path).duration == float(duration)


def test_validation_bad_number(tmp_path):
    text = (CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "gamma = 1.93", "gamma = fast")
    path = tmp_path / "notnum.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="controller.gamma"):
        load_config(path)


def test_unknown_keys_are_config_errors(tmp_path, capsys):
    """A misspelt key is named, not ignored: misspelt, delay_multiple would
    fall back to one sample and the run would analyse the wrong delay."""
    config = tmp_path / "typo.cfg"
    config.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text().replace(
        "delay_multiple = 1", "delay_mutliple = 3") + "colour = red\n")
    assert main(["stability", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "controller.delay_mutliple: unknown key" in err
    assert "run.colour: unknown key" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name, old, new, problem", [
    ("chain4_baseline.cfg", "gamma = 1.93", "gamma = 1.93\nalpha = 0.39",
     "controller.alpha: not used by kind = baseline"),
    ("chain4_baseline.cfg", "gamma = 1.93", "gamma = 1.93\nbeta = 10.92",
     "controller.beta: not used by kind = baseline"),
    ("chain4_baseline.cfg", "gamma = 1.93", "gamma = 1.93\ndelay_multiple = 3",
     "controller.delay_multiple: not used by kind = baseline"),
    ("chain4_dsr.cfg", "alpha = 0.39", "alpha = 0.39\ngamma = 1.93",
     "controller.gamma: not used by kind = dsr"),
    ("chain4_dsr.cfg", "kind = filtered_step", "kind = step",   # its cutoff = 0.1 stays
     "trajectory.cutoff: not used by kind = step"),
])
def test_keys_for_another_kind_are_config_errors(tmp_path, capsys, name, old, new, problem):
    """A key that its section's kind does not read is named, not ignored: a
    baseline run would take no delay of 3, and a raw step no cutoff."""
    config = tmp_path / "other_kind.cfg"
    config.write_text((CONFIG_DIR / name).read_text().replace(old, new))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"config error: invalid scenario config:\n  {problem}\n"
    assert not (tmp_path / "r").exists()


def test_out_dir_is_not_a_config_key(tmp_path, monkeypatch, capsys):
    # --out alone names the output directory
    config = tmp_path / "run.cfg"
    config.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text() + "out_dir = elsewhere\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 2
    assert "run.out_dir: unknown key" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [config]


def test_parse_error(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("not an ini file at all\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(path)


def test_trace_csv_schema_and_determinism(tmp_path, chain4):
    scenario = ScenarioConfig(network=chain4,
                              controller=ControllerConfig.baseline(1.93, DT),
                              trajectory=TrajectorySpec(kind="step", amplitude=1.0),
                              duration=1.0)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(simulate(scenario), first)
    write_trace_csv(simulate(scenario), second)
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "t,y_1,y_2,y_3,y_4,f_1,f_2,f_3,f_4,yd,D,vmax_step"
    assert len(lines) == 1 + 35  # header + samples
    row = lines[2].split(",")
    assert len(row) == 12
    assert float(row[0]) == pytest.approx(DT)


def test_trace_csv_matches_per_value_formatting(tmp_path, rng):
    """The trace writer gives the bytes of a plain f"{v:.9g}" join, also for
    signed zeros, infinities, NaN and subnormals."""
    samples, n = 40, 3
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                1.0 / 3.0, -123456789.125, 1e300]
    forces = rng.normal(0.0, 1e3, (samples, n))
    forces.flat[:len(specials)] = specials
    positions = rng.normal(0.0, 50.0, (samples, n))
    positions[1] = [0.0, -0.0, 5e-324]
    trace = SimulationTrace(dt=DT, times=np.arange(samples) * DT, positions=positions,
                            forces=forces,
                            reference=rng.permutation(np.resize(specials, samples)))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)

    # D and vmax_step by plain numpy: each speed divided by dt before the maximum
    deformation = positions.max(axis=1) - positions.min(axis=1)
    speeds = np.zeros((samples, n))
    speeds[:-1] = np.diff(positions, axis=0) / DT
    step_speed = np.max(np.abs(speeds), axis=1)
    expected = ["t,y_1,y_2,y_3,f_1,f_2,f_3,yd,D,vmax_step"]
    for m in range(samples):
        values = [trace.times[m], *positions[m], *forces[m], trace.reference[m],
                  deformation[m], step_speed[m]]
        expected.append(",".join(f"{v:.9g}" for v in values))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def _percent_g_csv(header, table) -> bytes:
    """The reference: one f"{v:.9g}" per value, joined line by line."""
    lines = [",".join(header)] + [",".join(f"{v:.9g}" for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


# x * 10**k for mantissas where rounding to 9 digits meets a tie, a carry
# into the next decade or a decade boundary
_EDGE_MANTISSAS = ("1", "9.999999995", "9.9999999949999", "1.0000000005", "2.5", "5")
_edge_exact = st.builds(lambda x, k: float(f"{x}e{k}"), st.sampled_from(_EDGE_MANTISSAS),
                        st.integers(-330, 310))
_edge_values = _edge_exact | st.builds(np.nextafter, _edge_exact, st.sampled_from([-np.inf, np.inf]))
_float64_values = (st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
                   | _edge_values | _edge_values.map(lambda v: -v))


@st.composite
def _csv_tables(draw):
    """1 to 140 columns, rows from none to twice a chunk of the writer, and
    values drawn from a pool of up to 64 (a whole table of drawn values
    would exceed hypothesis's input budget)."""
    width = draw(st.integers(1, 140))
    rows = draw(st.integers(0, 2 * (cli._CHUNK_VALUES // width) + 1))
    pool = np.array(draw(st.lists(_float64_values, min_size=1, max_size=64)))
    return np.random.default_rng(draw(st.integers(0, 2**32))).choice(pool, (rows, width))


@settings(deadline=None)
@given(_csv_tables())
@example(np.zeros((0, 4)))
def test_csv_writer_matches_percent_g(tmp_path_factory, table):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    header = [f"c{k}" for k in range(table.shape[1])]
    cli._write_csv(path, header, [table])
    assert path.read_bytes() == _percent_g_csv(header, table)


def test_csv_writer_matches_percent_g_at_every_decade_edge(tmp_path):
    """Every x * 10**k of the edge mantissas that is finite, and its two
    float neighbours, both signs."""
    exact = np.array([float(f"{x}e{k}") for x in _EDGE_MANTISSAS for k in range(-330, 310)])
    exact = exact[np.isfinite(exact)]
    values = np.concatenate([exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)])
    table = np.concatenate([values, -values]).reshape(-1, 6)
    header = [f"c{k}" for k in range(6)]
    cli._write_csv(tmp_path / "edges.csv", header, [table])
    assert (tmp_path / "edges.csv").read_bytes() == _percent_g_csv(header, table)


@pytest.fixture
def kernels(monkeypatch):
    """The CSV writer's kernels made from here on, each keeping the tables
    it formats."""
    made = []

    class Counting(cli._G9Kernel):
        def __init__(self, size):
            super().__init__(size)
            self.tables = []
            made.append(self)

        def format(self, table):
            self.tables.append(table.copy())
            return super().format(table)

    monkeypatch.setattr(cli, "_G9Kernel", Counting)
    return made


def _layout_values():
    """Both signs of: fixed notation at every exponent from -4 to 8 with 1
    and 9 significant digits, with and without fraction digits and with
    zeros inside the integer part; scientific notation at exponents +-5 to
    +-99 and +-100 to +-297 with 1 and 9 significant digits; carries into
    the next decade, across notations and into 3-digit exponents; and the
    zeros, ties, subnormals, NaN and infinities the kernel declines or
    writes directly."""
    fixed = [float(f"{m}e{e}") for e in range(-4, 9)
             for m in ("1", "7", "1.2", "1.05", "1.00000001", "1.23456789", "9.87654321")]
    integer_zeros = [120000000.0, 102030405.0, 100000001.0, 100000000.5, 1000.25, 10.5]
    scientific = [float(f"{m}e{sign}{e}") for e in [*range(5, 100), *range(100, 298)]
                  for sign in "+-" for m in ("1", "1.23456789", "9.87654321")]
    carries = [9.999999995e99, 9.9999999996e99, 9.9999999996e-100, 999999999.6,
               9.99999999951e-5, 9.9999999996e-6, 9.9999999996e296]
    specials = [0.0, 5e-324, 2.5e-310, 1e-300, 1e300, 1.7976931348623157e308, np.nan, np.inf,
                123456789.5, 1.00000000050e10, 0.125]
    values = np.array(fixed + integer_zeros + scientific + carries + specials)
    return np.concatenate([values, -values])


def test_csv_writer_matches_percent_g_on_every_layout(tmp_path, kernels):
    """One chunk holds every layout of the 16-byte record, both signs, the
    sign records of negative values with 3-digit exponents, and the declined
    values among them; its bytes are those of '%.9g', and it declines only
    NaN, infinities, values out of range and near-ties."""
    values = _layout_values()
    table = np.resize(values, (-(-len(values) // 8), 8))
    assert table.size <= cli._CHUNK_VALUES
    header = [f"c{k}" for k in range(8)]
    cli._write_csv(tmp_path / "layouts.csv", header, [table])
    assert (tmp_path / "layouts.csv").read_bytes() == _percent_g_csv(header, table)
    declined, borderline = _documented_declines(table)
    kernel, = kernels
    assert len(kernel.tables) == 1 and borderline == 0 and kernel.declined == declined > 0


def _documented_declines(values: np.ndarray) -> tuple[int, int]:
    """How many ``values`` README's declined set holds: NaN, infinities,
    nonzero |v| outside [1e-298, 1e298), and values within 1e-6 of a tie in
    their 9th significant digit by more than 2.3e-7, the kernel's bound on
    its own rounding (found exactly); and how many lie within 2.3e-7 of that
    margin, where the kernel may decide either way."""
    magnitude = np.abs(values)
    inside = (magnitude >= 1e-298) & (magnitude < 1e298)
    declined, borderline = np.count_nonzero(~inside & (values != 0)), 0
    scaled = magnitude[inside] * 10.0 ** (8 - np.floor(np.log10(magnitude[inside])))
    for v in values[inside][np.abs(scaled - np.floor(scaled) - 0.5) < 2e-6]:   # float prefilter
        exact = abs(Fraction(float(v))) * Fraction(10) ** (8 - Decimal(float(v)).adjusted())
        gap = abs(exact - math.floor(exact) - Fraction(1, 2)) - Fraction(1, 10**6)
        declined += gap < -Fraction(23, 10**8)
        borderline += abs(gap) <= Fraction(23, 10**8)
    return declined, borderline


def test_kernel_declines_only_near_ties_of_the_reference_traces(tmp_path, kernels):
    """The bundled chain4 traces and the seeded 64-robot mesh traces of the
    benchmark are formatted in numpy apart from their few values within
    1e-6 of a tie (README's declined set): no notation, exponent or sign
    falls back to '%.9g'."""
    mesh = grid_network(8, 1)
    gain = 0.5 / max(sum(k for pair, k in mesh.couplings.items() if i in pair) + lead
                     for i, lead in enumerate(mesh.leader_stiffness))
    reference = TrajectorySpec(kind="filtered_step", amplitude=50.0, cutoff=0.1)
    scenarios = [load_config(CONFIG_DIR / "chain4_baseline.cfg"),
                 load_config(CONFIG_DIR / "chain4_dsr.cfg")] + [
        ScenarioConfig(network=mesh, controller=controller, trajectory=reference, duration=45.0)
        for controller in (ControllerConfig.baseline(gain, DT),
                           ControllerConfig.dsr(0.39, gain, DT))]
    for scenario in scenarios:
        write_trace_csv(simulate(scenario), tmp_path / "trace.csv")
    assert len(kernels) == len(scenarios)
    for kernel in kernels:
        declined, borderline = _documented_declines(np.concatenate(kernel.tables, axis=None))
        assert declined <= kernel.declined <= declined + borderline <= 10


def test_trace_csv_working_set_does_not_grow_with_the_trace(tmp_path, rng):
    """The writer stacks and formats a chunk of rows at a time: writing
    15,000 samples of 64 robots peaks within 10% of writing 1,500, where a
    whole table would be ten times larger."""
    def peak(samples):
        robots = 64
        trace = SimulationTrace(dt=DT, times=np.arange(samples) * DT,
                                positions=rng.normal(0.0, 50.0, (samples, robots)),
                                forces=rng.normal(0.0, 1e3, (samples, robots)),
                                reference=rng.normal(0.0, 50.0, samples))
        trace.sample_metrics      # the trace's own, made once per trace
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "trace.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_500), peak(15_000)
    assert abs(large - small) <= 0.1 * small, (small, large)


def test_cli_simulate_and_stability(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIG_DIR / "chain4_dsr.cfg"),
                 "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_deformation_cm"] == pytest.approx(0.563, rel=0.05)

    assert main(["stability", "--config", str(CONFIG_DIR / "chain4_dsr.cfg"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "stability.json").read_text())
    assert report["stable"] is True
    assert len(report["per_mode"]) == 4

    assert main(["stability", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "stability.json").read_text())
    assert report["stable"] is True
    assert "gamma_bound" in report


def test_cli_stability_analyses_the_configured_delay(tmp_path, capsys):
    config = tmp_path / "delay3.cfg"
    config.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text()
                      .replace("beta = 10.92", "beta = 15")
                      .replace("delay_multiple = 1", "delay_multiple = 3"))
    assert main(["stability", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("stable (spectral radius 0.988469)")
    report = json.loads((tmp_path / "stability.json").read_text())
    assert report["stable"] is True and len(report["per_mode"]) == 4


def _strict_json(path):
    """Parse ``path`` as JSON that holds no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def test_cli_json_files_are_strict_json(tmp_path):
    overflowing = tmp_path / "overflow.cfg"
    overflowing.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text()
                           .replace("alpha = 0.39", "alpha = 1e300")
                           .replace("beta = 10.92", "beta = 1e300"))
    runs = [["simulate", "--config", str(CONFIG_DIR / "chain4_dsr.cfg")],
            ["stability", "--config", str(CONFIG_DIR / "chain4_dsr.cfg")],
            ["stability", "--config", str(CONFIG_DIR / "chain4_baseline.cfg")],
            ["stability", "--config", str(overflowing)],
            ["tune", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"), "--target-ts", "10"]]
    for k, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / str(k))]) == 0
    written = sorted(tmp_path.glob("*/*.json"))
    assert len(written) == 5
    for path in written:
        _strict_json(path)
    report = _strict_json(tmp_path / "3" / "stability.json")
    assert report["stable"] is False and report["spectral_radius"] is None


def test_write_json_nulls_non_finite_numbers_at_any_depth(tmp_path):
    cli._write_json(tmp_path / "x.json", {"a": math.inf, "b": [1.5, (-math.inf, math.nan)],
                                          "c": {"d": [{"e": math.nan}], "f": True}})
    assert _strict_json(tmp_path / "x.json") == {
        "a": None, "b": [1.5, [None, None]], "c": {"d": [{"e": None}], "f": True}}


def test_cli_stability_that_fails_leaves_no_output(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise UnstableGainError("analysis failed")

    monkeypatch.setattr(cli, "spectral_radius", failing)
    assert main(["stability", "--config", str(CONFIG_DIR / "chain4_dsr.cfg"),
                 "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == "error: analysis failed\n"
    assert not (tmp_path / "s").exists()


def test_cli_tune_with_no_reachable_cohesive_target_writes_a_header_only_table(tmp_path):
    # a 16-robot chain: its fastest cohesive settling estimate is above
    # 20 s, the longest target of the cohesive table
    config = tmp_path / "chain16.cfg"
    write_config(ScenarioConfig(
        network=StiffnessChain((0.05,) * 15, (0.05,) + (0.0,) * 15),
        controller=ControllerConfig.baseline(1.0, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=1.0), duration=10.0), config)
    assert main(["tune", "--config", str(config), "--target-ts", "120",
                 "--out", str(tmp_path / "t")]) == 0
    assert ((tmp_path / "t" / "dsr_gains_vs_ts.csv").read_text()
            == "target_ts_s,alpha,beta,sigma\n")


@pytest.mark.parametrize("command, code", [("stability", 0), ("simulate", 1), ("sweep", 1)])
def test_cli_overflowing_delayed_gains_end_in_an_exit_code(tmp_path, command, code):
    # alpha*beta overflows every coefficient of the delay-2 polynomial
    config = tmp_path / "overflow.cfg"
    config.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text()
                      .replace("alpha = 0.39", "alpha = 1e300")
                      .replace("beta = 10.92", "beta = 1e300")
                      .replace("delay_multiple = 1", "delay_multiple = 2"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == code
    assert (tmp_path / "o").exists() is (code == 0)


@pytest.mark.parametrize("delay", [1, 2])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_overflowing_gains_stop_before_the_first_step(tmp_path, capsys, command, delay):
    """alpha*beta*dt overflows the per-robot law: the run stops with an error
    naming the gains and the product, and the unstable-gain warning is the
    only warning (no numpy RuntimeWarning from stepping NaN coefficients)."""
    config = tmp_path / "overflow.cfg"
    config.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text()
                      .replace("alpha = 0.39", "alpha = 1e300")
                      .replace("beta = 10.92", "beta = 1e300")
                      .replace("delay_multiple = 1", f"delay_multiple = {delay}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert [w.category for w in caught] == [dynamics.UnstableControllerWarning]
    assert capsys.readouterr().err == (
        "error: (alpha, beta) = (1e+300, 1e+300) (alpha*beta*dt = inf) "
        "overflow the per-robot law coefficients\n")
    assert not (tmp_path / "o").exists()
    assert main(["stability", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s" / "stability.json").read_text())[
        "spectral_radius"] is None


def test_cli_tune(tmp_path):
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"),
                 "--target-ts", "10", "--out", str(out)]) == 0
    tuned = json.loads((out / "tuning.json").read_text())
    assert tuned["baseline"]["gamma"] == pytest.approx(1.93, rel=0.02)
    assert tuned["dsr"]["alpha"] == pytest.approx(0.39, rel=0.05)
    assert tuned["dsr"]["beta"] == pytest.approx(10.92, rel=0.05)
    assert (out / "ts_vs_gamma.csv").exists()
    table = (out / "dsr_gains_vs_ts.csv").read_text().splitlines()
    assert table[0] == "target_ts_s,alpha,beta,sigma"
    assert len(table) > 5


def test_cli_tune_decomposes_the_network_once(tmp_path, monkeypatch):
    calls = []
    decompose = network.eigen_decompose

    def counting(*args, **kwargs):
        calls.append(1)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(network, "eigen_decompose", counting)
    assert main(["tune", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"),
                 "--target-ts", "10", "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("delay", [1, 3])
def test_cli_tune_refuses_a_cohesive_delay_it_does_not_tune(tmp_path, capsys, monkeypatch,
                                                           delay):
    # tune builds N = 1 gains; at N = 3 it used to write the N = 1 tables
    config = tmp_path / "delayed.cfg"
    config.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text()
                      .replace("delay_multiple = 1", f"delay_multiple = {delay}"))
    args = ["tune", "--config", str(config), "--target-ts", "10", "--out", str(tmp_path / "t")]
    if delay == 1:
        assert main(args) == 0 and (tmp_path / "t" / "tuning.json").exists()
        return

    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned before the delay was checked")

    monkeypatch.setattr(tuning, "tune", no_tuning)
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "config error: controller.delay_multiple: tune tunes a one-sample delay only, "
        "got 3\n")
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("target", ["0", "-1", "nan", "inf"])
def test_cli_tune_bad_target_is_a_config_error(tmp_path, capsys, target):
    assert main(["tune", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"),
                 "--target-ts", target, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --target-ts") and "positive" in err
    assert not (tmp_path / "t").exists()


def test_cli_tune_without_a_stable_rate_gain_is_infeasible(tmp_path, capsys,
                                                          monkeypatch):
    # 32 robots, one leader: lam_min/lam_max ~ 6e-4. At 200 s the rate
    # gain that brings the lam_max mode's positive root down to the
    # target decay leaves that mode's negative root above it; a smaller
    # gain leaves the positive root above it, a larger one raises the
    # negative root further
    robots = 32
    config = tmp_path / "chain32.cfg"
    write_config(ScenarioConfig(
        network=StiffnessChain((0.05,) * (robots - 1),
                               (0.05,) + (0.0,) * (robots - 1)),
        controller=ControllerConfig.baseline(1.0, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=1.0),
        duration=10.0), config)

    def no_simulation(*args, **kwargs):
        raise AssertionError("an infeasible cohesive target was simulated")

    monkeypatch.setattr(tuning, "_run", no_simulation)
    assert main(["tune", "--config", str(config), "--target-ts", "200",
                 "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert "target 200 s not reachable" in err
    assert "settling estimate is 201.063 s" in err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("config_name, key, section", [
    ("chain4_baseline.cfg", "gamma", "controller"),
    ("chain4_dsr.cfg", "alpha", "controller"),
    ("chain4_dsr.cfg", "beta", "controller"),
    ("chain4_baseline.cfg", "cutoff", "trajectory"),
    ("chain4_baseline.cfg", "duration", "run"),
])
@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_cli_non_finite_config_values_are_config_errors(tmp_path, capsys, command,
                                                        config_name, key, section,
                                                        value):
    text = (CONFIG_DIR / config_name).read_text()
    bad, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    config = tmp_path / "bad.cfg"
    config.write_text(bad)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{section}" in err and "finite" in err
    assert not (tmp_path / "o").exists()


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"),
                 "--omega-c-list", "0.05,0.1,0.2", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "omega_c,D_bar_cm,v_max_cmps"
    assert len(lines) == 4
    anchor = dict(zip(("omega_c", "d", "v"), map(float, lines[2].split(","))))
    assert anchor["omega_c"] == 0.1
    assert anchor["d"] == pytest.approx(5.824, rel=0.05)


@pytest.mark.parametrize("cutoffs, reason", [
    ("abc", "could not convert"),
    ("", "could not convert"),
    ("0.1,100", "must be < 2"),      # cutoff*dt = 3
    ("0.1,0", "cutoff > 0"),
])
def test_cli_sweep_bad_cutoffs_are_config_errors(tmp_path, capsys, cutoffs, reason):
    assert main(["sweep", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"),
                 "--omega-c-list", cutoffs, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --omega-c-list") and reason in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--config", str(CONFIG_DIR / "chain4_dsr.cfg")],
    ["stability", "--config", str(CONFIG_DIR / "chain4_dsr.cfg")],
    ["tune", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"), "--target-ts", "10"],
    ["sweep", "--config", str(CONFIG_DIR / "chain4_baseline.cfg"), "--omega-c-list", "0.1"],
    ["reproduce"]], ids=lambda command: command[0])
def test_cli_empty_out_is_a_config_error(tmp_path, monkeypatch, capsys, command):
    # an empty path names no directory: it is not read as the default results/,
    # nor, by reproduce, as no --out
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--out", ""]) == 2
    assert capsys.readouterr().err == "config error: --out: an empty path names no directory\n"
    assert not any(tmp_path.iterdir())


def test_cli_reproduce(tmp_path, capsys):
    assert main(["reproduce", "--out", str(tmp_path / "rep")]) == 0
    printed = capsys.readouterr().out
    assert "max force" in printed and "ok" in printed
    assert (tmp_path / "rep" / "baseline_trace.csv").exists()
    assert (tmp_path / "rep" / "dsr_trace.csv").exists()


def test_cli_reproduce_out_simulates_each_scenario_once(tmp_path, monkeypatch):
    calls = []

    def counting(scenario):
        calls.append(scenario.label)
        return simulate(scenario)

    monkeypatch.setattr(benchmark, "simulate", counting)
    monkeypatch.setattr(cli, "simulate", counting)
    assert main(["reproduce", "--out", str(tmp_path / "rep")]) == 0
    assert sorted(calls) == ["chain4-baseline", "chain4-dsr"]


@pytest.mark.parametrize("command, traces", [
    (["simulate", "--config", str(CONFIG_DIR / "chain4_dsr.cfg")], 1),
    (["reproduce"], 2)])
def test_cli_reduces_each_trace_once(tmp_path, monkeypatch, command, traces):
    # the summary's peaks and the trace.csv columns share one reduction
    reduced = []

    def counting(positions):
        reduced.append(positions)
        return per_sample(positions)

    per_sample = metrics.sample_metrics
    monkeypatch.setattr(metrics, "sample_metrics", counting)
    assert main(command + ["--out", str(tmp_path / "out")]) == 0
    assert len(reduced) == traces


def test_cli_exit_code_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text((CONFIG_DIR / "chain4_dsr.cfg").read_text().replace(
        "beta = 10.92", "beta = 0"))
    assert main(["simulate", "--config", str(bad)]) == 2


def _non_utf8_config(tmp_path):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe" + (CONFIG_DIR / "chain4_baseline.cfg").read_bytes())
    return path


@pytest.mark.parametrize("make_config", [lambda tmp_path: tmp_path, _non_utf8_config],
                         ids=["directory", "non-utf8"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, make_config):
    assert main(["simulate", "--config", str(make_config(tmp_path)),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("repeat", ["1-2", "2-1"])
def test_cli_repeated_coupling_pair_is_a_config_error(tmp_path, capsys, repeat):
    config = tmp_path / "repeat.cfg"
    config.write_text((CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "neighbor_stiffness = 0.05, 0.05, 0.05",
        f"couplings = 1-2: 0.05, 2-3: 0.05, 3-4: 0.05, {repeat}: 5.0"))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 2
    assert f"network: duplicate coupling pair {repeat}" in capsys.readouterr().err


_CHAIN4_NETWORK = ("robots = 4\nneighbor_stiffness = 0.05, 0.05, 0.05\n"
                   "leader_stiffness = 0.05, 0, 0, 0")


@pytest.mark.parametrize("network, message", [
    ("robots = 4\nneighbor_stiffness = 0, 0.05, 0.05\nleader_stiffness = 0.05, 0, 0, 0",
     "network: coupling stiffness for 1-2 must be positive and finite"),
    ("robots = 3\ncouplings = 1-4: 0.1\nleader_stiffness = 0.05, 0, 0",
     "network: invalid coupling pair 1-4 for 3 robots"),
    (_CHAIN4_NETWORK + "\ncouplings = 1-2: 0.05, 2-3: 0.05, 3-4: 0.05",
     "network: give couplings or neighbor_stiffness, not both"),
], ids=["zero-chain-spring", "pair-out-of-range", "both-forms"])
def test_cli_network_errors_name_pairs_as_the_file_does(tmp_path, capsys, network, message):
    text = (CONFIG_DIR / "chain4_dsr.cfg").read_text()
    assert _CHAIN4_NETWORK in text
    config = tmp_path / "net.cfg"
    config.write_text(text.replace(_CHAIN4_NETWORK, network))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("out", ["afile/x", "afile"], ids=["file-in-path", "existing-file"])
def test_cli_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("kept\n")
    assert main(["simulate", "--config", str(CONFIG_DIR / "chain4_dsr.cfg"),
                 "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: cannot create directory")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


def _chain_config(path, neighbor, leaders):
    write_config(ScenarioConfig(
        network=StiffnessChain(neighbor, leaders),
        controller=ControllerConfig.baseline(1.93, DT),
        trajectory=TrajectorySpec(kind="step", amplitude=1.0),
        duration=1.0), path)
    return path


def test_cli_simulates_a_chain_of_more_than_256_robots(tmp_path):
    robots = 300
    config = _chain_config(tmp_path / "chain300.cfg", (0.05,) * (robots - 1),
                           (0.05,) + (0.0,) * (robots - 1))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 0
    header = (tmp_path / "r" / "trace.csv").read_text().splitlines()[0]
    assert f"y_{robots}" in header.split(",")


@pytest.mark.parametrize("neighbor, leaders", [
    ((1e308, 1e308), (0.05, 0.0, 0.0)),   # the middle diagonal entry is inf
    ((1e308,), (5e307, 0.0)),             # K is finite, lambda_max is not
])
def test_cli_overflowing_stiffness_is_a_config_error(tmp_path, capsys, neighbor, leaders):
    config = _chain_config(tmp_path / "overflow.cfg", neighbor, leaders)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "network: stiffness sums overflow" in err


def test_cli_exit_code_divergence(tmp_path):
    config = tmp_path / "diverge.cfg"
    config.write_text((CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "gamma = 1.93", "gamma = 1000.0"))
    with pytest.warns(RuntimeWarning):
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "d")]) == 3


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_divergent_run_warns_once_and_leaves_no_output(tmp_path, capsys, command):
    config = tmp_path / "gamma100.cfg"
    config.write_text((CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "gamma = 1.93", "gamma = 100"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config),
                      "--out", str(tmp_path / "d")]) == 3
    assert [w.category for w in caught] == [dynamics.UnstableControllerWarning]
    assert capsys.readouterr().err.startswith("simulation aborted: diverged at step")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_run_too_long_to_hold_is_exit_5(tmp_path, capsys, command):
    # 3e16 samples: more bytes than any address space holds, so the
    # allocation fails at once; the sweep, which holds no trace, refuses
    # more than MAX_STEP_SAMPLES before any step
    config = tmp_path / "long.cfg"
    config.write_text((CONFIG_DIR / "chain4_baseline.cfg").read_text().replace(
        "duration = 60.0", "duration = 1e15"))
    assert main([command, "--config", str(config),
                 "--out", str(tmp_path / "m")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("out of memory:") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("config_name, key, value, command", [
    ("chain4_baseline.cfg", "dt", "1e-300", ["simulate"]),
    ("chain4_baseline.cfg", "dt", "1e-300", ["sweep"]),
    ("chain4_baseline.cfg", "dt", "1e-300", ["tune", "--target-ts", "10"]),
    ("chain4_dsr.cfg", "duration", "1e300", ["simulate"]),
])
def test_cli_run_too_long_to_index_is_exit_5(tmp_path, capsys, config_name, key, value,
                                             command):
    # about 1e302 samples: more than one float64 array can index at all
    config = tmp_path / "long.cfg"
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}",
                          (CONFIG_DIR / config_name).read_text(), flags=re.M)
    assert count == 1
    config.write_text(text)
    assert main(command + ["--config", str(config), "--out", str(tmp_path / "m")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("out of memory:") and err.count("\n") == 1
    assert "more than one array can index" in err
    assert not (tmp_path / "m").exists()


def test_cli_exit_code_failed_crosscheck(tmp_path, monkeypatch, capsys):
    # a per-robot route that senses no force disagrees with the stacked law as
    # soon as the leader has moved; chain4 is sensed in floats, on the springs
    # that _law_constants lists for it
    law_constants = dynamics._law_constants

    def numb(*args):
        constants, per_robot, springs = law_constants(*args)
        assert springs is not None
        return constants, per_robot, tuple((robot, neighbour, 0.0)
                                           for robot, neighbour, _ in springs)

    monkeypatch.setattr(dynamics, "_law_constants", numb)
    assert main(["simulate", "--config", str(CONFIG_DIR / "chain4_dsr.cfg"),
                 "--out", str(tmp_path / "c")]) == 1
    assert "per-robot and stacked updates disagree" in capsys.readouterr().err


@pytest.mark.parametrize("expected, code", [(0.59, 0), (0.6, 4)])
def test_cli_exit_code_reproduce_tolerance(monkeypatch, capsys, expected, code):
    # the measured 0.5635 cm is 4.5% off 0.59 cm, and 6.1% off 0.6 cm: the
    # tolerance is 5%
    monkeypatch.setattr(benchmark, "EXPECTED_DSR_DEFORMATION", expected)
    assert main(["reproduce"]) == code
    failed = [line.split()[:3] for line in capsys.readouterr().out.splitlines()
              if line.endswith("FAIL")]
    assert failed == ([["cohesive", "max", "deformation"]] if code else [])
