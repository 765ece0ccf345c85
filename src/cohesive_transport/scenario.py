"""Scenario configs: one file fully describes one run.

Flat INI-style files with four sections and only the keys below.
Robots are numbered from 1 in files and in config errors, as the lab
numbers them, and from 0 in memory.
A network gives ``couplings`` or ``neighbor_stiffness``, one or the other;
``write_config`` writes every network in the ``couplings`` form.

    [network]
    robots = 4
    couplings = 1-2: 0.05, 2-3: 0.05, 3-4: 0.05   # springs, N/cm
    leader_stiffness = 0.05, 0, 0, 0              # virtual source, N/cm
    # or, for a chain, its springs in order instead of couplings:
    # neighbor_stiffness = 0.05, 0.05, 0.05

    [controller]
    kind = baseline          # or dsr
    gamma = 1.93             # baseline only
    # alpha = 0.39, beta = 10.92, delay_multiple = 1   (dsr)
    dt = 0.03                # s

    [trajectory]
    kind = filtered_step     # or step
    amplitude = 50.0         # cm
    cutoff = 0.1             # rad/s, filtered_step only
    start_index = 1

    [run]
    duration = 60.0          # s
    label = chain4-baseline
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import SAMPLE_NOISE, ControllerConfig
from .errors import ConfigError, UnpinnedNetworkError
from .network import CouplingNetwork, build_pinned_laplacian
from .trajectory import TrajectorySpec


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs: network, controller, reference, length."""

    network: CouplingNetwork
    controller: ControllerConfig
    trajectory: TrajectorySpec
    duration: float
    label: str = ""


def _parse_floats(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


def _parse_couplings(raw: str, robots: int) -> dict[tuple[int, int], float]:
    couplings = {}   # keyed by the file's 1-based pairs
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        pair, _, value = item.partition(":")
        i_str, _, j_str = pair.partition("-")
        i, j = int(i_str), int(j_str)
        if i == j or not (1 <= i <= robots and 1 <= j <= robots):
            raise ValueError(f"invalid coupling pair {i}-{j} for {robots} robots")
        if (i, j) in couplings or (j, i) in couplings:
            raise ValueError(f"duplicate coupling pair {i}-{j}")
        couplings[(i, j)] = float(value)
    return couplings


_KEYS = {"network": ("robots", "couplings", "neighbor_stiffness", "leader_stiffness"),
         "controller": ("kind", "gamma", "alpha", "beta", "delay_multiple", "dt"),
         "trajectory": ("kind", "amplitude", "cutoff", "start_index"),
         "run": ("duration", "label")}   # any other key is a problem


class _SectionReader:
    """Pulls typed values out of one section, recording every problem
    with its section.key path instead of stopping at the first."""

    def __init__(self, parser: configparser.ConfigParser, section: str,
                 problems: list[str]):
        self.section = section
        self.problems = problems
        self.present = parser.has_section(section)
        self.raw = dict(parser[section]) if self.present else {}
        if not self.present:
            problems.append(f"{section}: missing section")
        problems.extend(f"{section}.{key}: unknown key"
                        for key in self.raw if key not in _KEYS[section])

    def get(self, key: str, convert, required: bool = True, default=None):
        if key not in self.raw:
            if required and self.present:
                self.problems.append(f"{self.section}.{key}: missing")
            return default
        try:
            return convert(self.raw[key])
        except (ValueError, TypeError) as exc:
            self.problems.append(f"{self.section}.{key}: {exc}")
            return default


def load_config(path) -> ScenarioConfig:
    """Parse and fully validate a scenario file.

    Raises ConfigError carrying every violation found, one per line,
    each prefixed with its section.key path.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    problems: list[str] = []
    net = _SectionReader(parser, "network", problems)
    ctl = _SectionReader(parser, "controller", problems)
    trj = _SectionReader(parser, "trajectory", problems)
    run = _SectionReader(parser, "run", problems)

    network = None
    robots = net.get("robots", int)
    leaders = net.get("leader_stiffness", _parse_floats)
    if net.present and robots is not None and leaders is not None:
        try:
            if "couplings" in net.raw:
                if "neighbor_stiffness" in net.raw:
                    raise ValueError("give couplings or neighbor_stiffness, not both")
                pairs = _parse_couplings(net.raw["couplings"], robots)
            else:   # a chain: robot i couples to robot i + 1
                chain = net.get("neighbor_stiffness", _parse_floats)
                pairs = None if chain is None else {
                    (i, i + 1): k for i, k in enumerate(chain, 1)}
                if chain is not None and len(chain) + 1 != robots:
                    problems.append(f"network.robots: {robots} does not match the "
                                    f"{len(chain) + 1} robots of neighbor_stiffness")
                    pairs = None
            if pairs is not None:
                bad = [f"{i}-{j}" for (i, j), k in pairs.items() if not 0 < k < math.inf]
                if bad:
                    raise ValueError(f"coupling stiffness for {bad[0]} "
                                     "must be positive and finite")
                network = CouplingNetwork(
                    robots, {(i - 1, j - 1): k for (i, j), k in pairs.items()}, leaders)
        except ValueError as exc:
            problems.append(f"network: {exc}")

    controller = None
    kind = ctl.get("kind", str)
    dt = ctl.get("dt", float)
    if ctl.present and kind is not None and dt is not None:
        try:
            if kind == "baseline":
                controller = ControllerConfig.baseline(ctl.get("gamma", float), dt)
            elif kind == "dsr":
                controller = ControllerConfig.dsr(
                    ctl.get("alpha", float), ctl.get("beta", float), dt,
                    ctl.get("delay_multiple", int, required=False, default=1))
            else:
                problems.append(f"controller.kind: unknown kind {kind!r}")
        except (ValueError, TypeError) as exc:
            problems.append(f"controller: {exc}")

    trajectory = None
    tkind = trj.get("kind", str)
    if trj.present and tkind is not None:
        try:
            trajectory = TrajectorySpec(
                kind=tkind,
                amplitude=trj.get("amplitude", float, default=math.nan),
                cutoff=trj.get("cutoff", float, required=(tkind == "filtered_step")),
                start_index=trj.get("start_index", int, required=False, default=1))
        except (ValueError, TypeError) as exc:
            problems.append(f"trajectory: {exc}")

    duration = run.get("duration", float)
    label = run.get("label", str, required=False, default="")

    if network is not None:
        try:
            build_pinned_laplacian(network)
        except UnpinnedNetworkError as exc:
            problems.append(f"network.leader_stiffness: {exc}")
        except ValueError as exc:   # stiffness sums that overflow float64
            problems.append(f"network: {exc}")
    if trajectory is not None and controller is not None:
        try:
            trajectory.validate_dt(controller.dt)
        except ValueError as exc:
            problems.append(f"trajectory.cutoff: {exc}")
    if duration is not None:
        if not 0 < duration < math.inf:
            problems.append("run.duration: must be positive and finite")
        elif trajectory is not None and controller is not None:
            horizon = trajectory.start_index * controller.dt
            if trajectory.kind == "filtered_step" and trajectory.cutoff:
                horizon += 4.0 / trajectory.cutoff
            # within num_steps' guard: 7 * 0.1 is 0.7000000000000001, and a
            # 0.7 s run at dt = 0.1 s steps all 7 samples
            if duration < horizon - SAMPLE_NOISE * controller.dt:
                problems.append(
                    f"run.duration: {duration:g} s is shorter than the "
                    f"trajectory horizon {horizon:g} s")

    if problems:
        raise ConfigError("invalid scenario config:\n  " + "\n  ".join(problems))
    return ScenarioConfig(network=network, controller=controller,
                          trajectory=trajectory, duration=duration, label=label)


def write_config(scenario: ScenarioConfig, path) -> None:
    """Serialize a scenario so that load_config reads back an equal one.

    Floats are written with repr, which round-trips exactly.
    """
    net = scenario.network
    # insertion order is kept, so the file reassembles K in the same order
    pairs = ", ".join(f"{i + 1}-{j + 1}: {k!r}" for (i, j), k in net.couplings.items())
    lines = ["[network]", f"robots = {net.n}", f"couplings = {pairs}",
             "leader_stiffness = " + ", ".join(repr(k) for k in net.leader_stiffness)]

    ctl = scenario.controller
    lines += ["", "[controller]", f"kind = {ctl.kind}"]
    if ctl.kind == "baseline":
        lines.append(f"gamma = {ctl.gamma!r}")
    else:
        lines.append(f"alpha = {ctl.alpha!r}")
        lines.append(f"beta = {ctl.beta!r}")
        lines.append(f"delay_multiple = {ctl.delay_multiple}")
    lines.append(f"dt = {ctl.dt!r}")

    trj = scenario.trajectory
    lines += ["", "[trajectory]", f"kind = {trj.kind}",
              f"amplitude = {trj.amplitude!r}"]
    if trj.cutoff is not None:
        lines.append(f"cutoff = {trj.cutoff!r}")
    lines.append(f"start_index = {trj.start_index}")

    lines += ["", "[run]", f"duration = {scenario.duration!r}"]
    if scenario.label:
        lines.append(f"label = {scenario.label}")
    Path(path).write_text("\n".join(lines) + "\n")
