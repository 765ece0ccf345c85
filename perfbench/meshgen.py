"""Seeded 8x8 mesh inputs for the mesh64-transport workload, and the
independent numpy oracle its outputs are checked against.

The mesh is an 8x8 grid of robots (64 robots, 112 couplings) with
stiffnesses drawn uniformly from [0.03, 0.07] N/cm and 4 seeded leaders
pinned at 0.05 N/cm. Both the baseline gamma and the cohesive beta are
1/G with G = 2 * max_k(sum_j k_kj + k_kd), a Gershgorin bound on
lambda_max, so both controllers are stable without an eigensolve. The
reference is a 50 cm filtered step at 0.1 rad/s over 45 s (1500 steps
at dt = 0.03).

Nothing here imports the package: the oracle must stay independent of
the code it checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIDE = 8
LEADERS = 4
LEADER_STIFFNESS = 0.05
STIFFNESS_RANGE = (0.03, 0.07)
ALPHA = 0.39
DT = 0.03
AMPLITUDE = 50.0
CUTOFF = 0.1
DURATION = 45.0
STEPS = 1500
SETTLING_BAND = 0.02


@dataclass(frozen=True)
class Mesh:
    """One generated network with the gains both configs use."""

    n: int
    couplings: tuple[tuple[int, int, float], ...]   # (i, j, k) with i < j, 0-based
    leader_stiffness: tuple[float, ...]
    gain: float                                      # gamma = beta = 1/G

    def laplacian(self) -> np.ndarray:
        k = np.zeros((self.n, self.n))
        for i, j, stiff in self.couplings:
            k[i, j] -= stiff
            k[j, i] -= stiff
            k[i, i] += stiff
            k[j, j] += stiff
        k[np.diag_indices(self.n)] += np.asarray(self.leader_stiffness)
        return k


def generate(seed: int) -> Mesh:
    """The mesh for ``seed``; the same seed always gives the same mesh."""
    rng = np.random.default_rng(seed)
    n = SIDE * SIDE
    pairs = []
    for r in range(SIDE):
        for c in range(SIDE):
            k = r * SIDE + c
            if c + 1 < SIDE:
                pairs.append((k, k + 1))
            if r + 1 < SIDE:
                pairs.append((k, k + SIDE))
    stiffness = rng.uniform(*STIFFNESS_RANGE, size=len(pairs))
    couplings = tuple((i, j, float(s)) for (i, j), s in zip(pairs, stiffness))
    leaders = [0.0] * n
    for k in rng.choice(n, size=LEADERS, replace=False):
        leaders[int(k)] = LEADER_STIFFNESS
    row_sums = np.asarray(leaders)
    for i, j, stiff in couplings:
        row_sums[i] += stiff
        row_sums[j] += stiff
    gain = 1.0 / (2.0 * float(np.max(row_sums)))
    return Mesh(n=n, couplings=couplings, leader_stiffness=tuple(leaders), gain=gain)


def _config_text(mesh: Mesh, controller: list[str], label: str) -> str:
    pairs = ", ".join(f"{i + 1}-{j + 1}: {k!r}" for i, j, k in mesh.couplings)
    lines = ["[network]", f"robots = {mesh.n}", f"couplings = {pairs}",
             "leader_stiffness = " + ", ".join(repr(k) for k in mesh.leader_stiffness),
             "", "[controller]", *controller, f"dt = {DT!r}",
             "", "[trajectory]", "kind = filtered_step", f"amplitude = {AMPLITUDE!r}",
             f"cutoff = {CUTOFF!r}", "start_index = 1",
             "", "[run]", f"duration = {DURATION!r}", f"label = {label}"]
    return "\n".join(lines) + "\n"


def write_configs(mesh: Mesh, directory: Path) -> dict[str, Path]:
    """Write the baseline and cohesive configs; returns {kind: path}."""
    paths = {"baseline": directory / "mesh64_baseline.cfg",
             "cohesive": directory / "mesh64_cohesive.cfg"}
    paths["baseline"].write_text(_config_text(
        mesh, ["kind = baseline", f"gamma = {mesh.gain!r}"], "mesh64-baseline"))
    paths["cohesive"].write_text(_config_text(
        mesh, ["kind = dsr", f"alpha = {ALPHA!r}", f"beta = {mesh.gain!r}",
               "delay_multiple = 1"], "mesh64-cohesive"))
    return paths


def reference() -> np.ndarray:
    """Tustin-filtered 50 cm step switching on at sample 1."""
    wd = CUTOFF * DT
    keep, feed = (2.0 - wd) / (2.0 + wd), wd / (2.0 + wd)
    step = np.full(STEPS + 1, AMPLITUDE)
    step[0] = 0.0
    yd = np.zeros(STEPS + 1)
    for m in range(1, STEPS + 1):
        yd[m] = keep * yd[m - 1] + feed * (step[m] + step[m - 1])
    return yd


def oracle_trace(mesh: Mesh, kind: str) -> np.ndarray:
    """Expected trace rows ``t, y_1..y_n, f_1..f_n, yd, D, vmax_step``
    from the stacked update law, run directly on K."""
    k = mesh.laplacian()
    b = np.asarray(mesh.leader_stiffness)
    yd = reference()
    y = np.zeros((STEPS + 1, mesh.n))
    rate = ALPHA * mesh.gain * DT
    for m in range(STEPS):
        cur = y[m]
        if kind == "baseline":
            y[m + 1] = cur - mesh.gain * (k @ cur) + mesh.gain * b * yd[m]
        else:
            delta = cur - y[m - 1] if m > 0 else np.zeros(mesh.n)
            y[m + 1] = (cur - rate * (k @ cur) + rate * b * yd[m]
                        + (delta - mesh.gain * (k @ delta)))
    forces = y @ k.T - b * y
    spread = y.max(axis=1) - y.min(axis=1)
    speed = np.zeros(STEPS + 1)
    speed[:-1] = np.max(np.abs(np.diff(y, axis=0)), axis=1) / DT
    times = np.arange(STEPS + 1) * DT
    return np.column_stack([times, y, forces, yd, spread, speed])


def oracle_summary(rows: np.ndarray, n: int) -> dict[str, float | None]:
    """summary.json values implied by oracle trace rows."""
    y = rows[:, 1:n + 1]
    outside = np.any(np.abs(y - AMPLITUDE) > SETTLING_BAND * AMPLITUDE, axis=1)
    last = np.nonzero(outside)[0]
    if last.size == 0:
        settling = 0.0
    elif last[-1] == len(rows) - 1:
        settling = None   # never settles: the CLI writes null
    else:
        settling = float(rows[last[-1], 0])
    speeds = np.abs(np.diff(y, axis=0)) / DT
    return {"max_deformation_cm": float(np.max(rows[:, 2 * n + 2])),
            "max_force_N": float(np.max(np.abs(rows[:, n + 1:2 * n + 1]))),
            "max_speed_cmps": float(np.max(speeds)),
            "settling_time_s": settling}


def oracle_spectral_radius(mesh: Mesh) -> float:
    """Largest root magnitude of the cohesive per-mode quadratics
    z^2 - (2 - b*lam - a*b*dt*lam) z + (1 - b*lam)."""
    lam = np.linalg.eigvalsh(mesh.laplacian())
    beta = mesh.gain
    coef_b = -(2.0 - beta * lam - ALPHA * beta * DT * lam)
    coef_c = 1.0 - beta * lam
    disc = (coef_b * coef_b - 4.0 * coef_c).astype(complex)
    roots = np.concatenate([(-coef_b + np.sqrt(disc)) / 2.0,
                            (-coef_b - np.sqrt(disc)) / 2.0])
    return float(np.max(np.abs(roots)))
