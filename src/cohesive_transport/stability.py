"""Stability analysis for both controllers.

Diagonalizing the pinned Laplacian turns each update law into scalar
mode dynamics, one per eigenvalue. The baseline mode multiplier is
1 - gamma*lam, so the baseline is stable iff 0 < gamma < 2/lam_max.

The cohesive update is second order per mode; its characteristic
quadratic in z is

    D(z) = z^2 - (1 - a*b*dt*lam + (1 - b*lam)) z + (1 - b*lam),

and the network is stable iff every mode's roots lie strictly inside
the unit circle. Three equivalent tests are provided: exact root
magnitudes, the second-order Jury conditions (D(1) > 0, D(-1) > 0,
|1 - b*lam| < 1), and the closed form

    a > 0   and   0 < b < 4 / (lam_max * (a*dt + 2)).

With a delay of N > 1 samples each mode is a recursion of order N + 1,
with characteristic polynomial

    z^(N+1) - (1 - a*b*dt*lam + c/N) z^N + c/N,    c = 1 - b*lam,

which is the quadratic above at N = 1. All modes are solved at once:
the quadratic elementwise at N = 1, and for N > 1 the eigenvalues of
every mode's companion matrix in one batched call. The stability
verdict comes from the largest root; the Jury and closed form tests
hold for N = 1 only.

Root magnitudes within MARGINAL_TOL of 1 (and Jury quantities within
MARGINAL_TOL of their boundaries) are treated as unstable: the closed
form is an open set, and a marginal system is useless in practice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import PinnedLaplacian

MARGINAL_TOL = 1e-9


def baseline_gamma_bound(laplacian: PinnedLaplacian) -> float:
    """Largest stable baseline gain: 2 / lam_max."""
    return 2.0 / laplacian.lambda_max


def baseline_spectral_radius(laplacian: PinnedLaplacian, gamma: float) -> float:
    """Spectral radius of I - gamma*K: max_k |1 - gamma*lam_k|."""
    return float(np.max(np.abs(1.0 - gamma * laplacian.eigenvalues)))


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs rounds it (hypot), which numpy's complex
    absolute does not on SIMD builds."""
    return np.hypot(z.real, z.imag)


def _quadratic_coefficients(lam, alpha: float, beta: float, dt: float):
    """(b, c) of z^2 + b z + c = 0 for one mode, or elementwise for many."""
    b = -(2.0 - beta * lam - alpha * beta * dt * lam)
    c = 1.0 - beta * lam
    return b, c


def _mode_roots(eigenvalues: np.ndarray, alpha: float, beta: float, dt: float,
                delay_multiple: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2): the two largest-magnitude roots of every mode, largest
    first, as two complex arrays; the eigenvalues are positive.

    At N = 1 the quadratic is solved in cancellation-free form: real
    roots are q = -(b + sign(b) sqrt(D))/2 and c/q (both 0 when q = 0),
    complex pairs come conjugate, positive imaginary part first. For
    N > 1 the roots are the eigenvalues of every mode's companion matrix
    in one batched call, ordered by a stable sort on -|z|, and a mode
    whose coefficients overflow gets the roots (inf, 0), as the quadratic
    gives an infinite root. At N = 1 the gains may also be arrays that
    broadcast against the eigenvalues.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    with np.errstate(all="ignore"):
        if delay_multiple == 1:
            b, c = _quadratic_coefficients(lam, alpha, beta, dt)
            disc = b * b - 4.0 * c
            root = np.sqrt(np.abs(disc))
            q = -(b + np.copysign(root, b)) / 2.0
            pair, small = disc < 0, c / q
            real = np.where(np.abs(small) > np.abs(q), [small, q], [q, small])
            z = np.where(pair, -b / 2.0, np.where(q == 0.0, 0.0, real)).astype(complex)
            z.imag = np.where(pair, [root / 2.0, -root / 2.0], 0.0)
            return z[0], z[1]
        c = (1.0 - beta * lam) / delay_multiple
        lead = 1.0 - alpha * beta * dt * lam + c
        finite = np.isfinite(lead) & np.isfinite(c)
        size = delay_multiple + 1
        # np.roots' companion matrix: first row -(coefficients after the 1)
        companion = np.zeros((lam.size, size, size))
        companion[:, 0, 1:] = -0.0
        companion[:, 0, 0], companion[:, 0, -1] = lead, -c
        companion[:, range(1, size), range(size - 1)] = 1.0
        companion[~finite] = 0.0
        roots = np.linalg.eigvals(companion).astype(complex)
    order = np.argsort(-_magnitude(roots), axis=1, kind="stable")[:, :2]
    z = np.take_along_axis(roots, order, axis=1).T
    z[:, ~finite] = [[np.inf], [0.0]]
    return z[0], z[1]


def dsr_mode_roots(lam: float, alpha: float, beta: float,
                   dt: float) -> tuple[complex, complex]:
    """Both roots of one mode's characteristic quadratic, largest
    magnitude first: ``_mode_roots`` for one mode."""
    if lam <= 0:
        raise ValueError("mode eigenvalue must be positive")
    z1, z2 = _mode_roots(np.array([lam], dtype=float), alpha, beta, dt)
    return complex(z1[0]), complex(z2[0])


def jury_stable(lam: float, alpha: float, beta: float, dt: float) -> bool:
    """Second-order Jury test for one mode, boundaries counted unstable."""
    if lam <= 0:
        raise ValueError("mode eigenvalue must be positive")
    b, c = _quadratic_coefficients(lam, alpha, beta, dt)
    d_plus = 1.0 + b + c    # D(1)
    d_minus = 1.0 - b + c   # D(-1)
    return (d_plus > MARGINAL_TOL and d_minus > MARGINAL_TOL
            and abs(c) < 1.0 - MARGINAL_TOL)


def closed_form_stable(laplacian: PinnedLaplacian, alpha: float, beta: float,
                  dt: float, delay_multiple: int = 1) -> bool:
    """Closed-form stability of the cohesive network.

    Equivalent to running the Jury test on every mode; only the largest
    eigenvalue can bind. For a delay N > 1 there is no closed form here,
    and the verdict comes from the roots (``spectral_radius``).
    """
    if delay_multiple != 1:
        return spectral_radius(laplacian, alpha, beta, dt, delay_multiple).stable
    bound = 4.0 / (laplacian.lambda_max * (alpha * dt + 2.0))
    return alpha > 0.0 and 0.0 < beta < bound


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Every mode's two largest roots and the overall spectral radius.

    ``eigenvalues``, ``z1`` and ``z2`` are read-only arrays with one
    entry per mode and |z1| >= |z2|. ``stable`` is strict (sigma < 1
    with the marginal band excluded); ``binding_mode`` indexes the first
    mode whose root attains sigma.
    """

    stable: bool
    spectral_radius: float
    eigenvalues: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    binding_mode: int
    marginal: bool

    def as_dict(self) -> dict:
        columns = (self.eigenvalues, self.z1, self.z2,
                   _magnitude(self.z1), _magnitude(self.z2))
        return {"stable": self.stable, "marginal": self.marginal,
                "spectral_radius": self.spectral_radius, "binding_mode": self.binding_mode,
                "per_mode": [{"eigenvalue": lam, "z1": [z1.real, z1.imag],
                              "z2": [z2.real, z2.imag], "magnitude1": m1, "magnitude2": m2}
                             for lam, z1, z2, m1, m2 in zip(*(c.tolist() for c in columns))]}


def spectral_radius(laplacian: PinnedLaplacian, alpha: float, beta: float,
                    dt: float, delay_multiple: int = 1) -> StabilityReport:
    """Exact spectral radius of the cohesive dynamics: max root magnitude
    over all Laplacian modes, with each mode's two largest roots."""
    z1, z2 = _mode_roots(laplacian.eigenvalues, alpha, beta, dt, delay_multiple)
    z1.flags.writeable = z2.flags.writeable = False
    magnitudes = _magnitude(z1)
    binding = int(np.argmax(magnitudes))
    sigma = float(magnitudes[binding])
    return StabilityReport(stable=sigma < 1.0 - MARGINAL_TOL, spectral_radius=sigma,
                           eigenvalues=laplacian.eigenvalues, z1=z1, z2=z2,
                           binding_mode=binding, marginal=abs(sigma - 1.0) <= MARGINAL_TOL)
