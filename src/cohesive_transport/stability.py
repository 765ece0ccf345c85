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

which is the quadratic above at N = 1. Its roots come from numpy, and
the stability verdict from the largest of them; the Jury and closed
form tests hold for N = 1 only.

Root magnitudes within MARGINAL_TOL of 1 (and Jury quantities within
MARGINAL_TOL of their boundaries) are treated as unstable: the closed
form is an open set, and a marginal system is useless in practice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import PinnedLaplacian

MARGINAL_TOL = 1e-9


def baseline_gamma_bound(laplacian: PinnedLaplacian) -> float:
    """Largest stable baseline gain: 2 / lam_max."""
    return 2.0 / laplacian.lambda_max


def baseline_spectral_radius(laplacian: PinnedLaplacian, gamma: float) -> float:
    """Spectral radius of I - gamma*K: max_k |1 - gamma*lam_k|."""
    return max(abs(1.0 - gamma * lam) for lam in laplacian.eigenvalues)


def _quadratic_coefficients(lam: float, alpha: float, beta: float,
                            dt: float) -> tuple[float, float]:
    """(b, c) of z^2 + b z + c = 0 for one mode."""
    b = -(2.0 - beta * lam - alpha * beta * dt * lam)
    c = 1.0 - beta * lam
    return b, c


def dsr_mode_roots(lam: float, alpha: float, beta: float,
                   dt: float) -> tuple[complex, complex]:
    """Both roots of one mode's characteristic quadratic.

    Real roots use the cancellation-free form q = -(b + sign(b) sqrt(D))/2,
    z1 = q, z2 = c/q; complex pairs are returned conjugate, positive
    imaginary part first. Ordered by descending magnitude.
    """
    if lam <= 0:
        raise ValueError("mode eigenvalue must be positive")
    b, c = _quadratic_coefficients(lam, alpha, beta, dt)
    disc = b * b - 4.0 * c
    if disc < 0:
        root = complex(-b / 2.0, math.sqrt(-disc) / 2.0)
        return root, root.conjugate()
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    if q == 0.0:
        return 0j, 0j
    z1, z2 = complex(q), complex(c / q)
    if abs(z2) > abs(z1):
        z1, z2 = z2, z1
    return z1, z2


def jury_stable(lam: float, alpha: float, beta: float, dt: float) -> bool:
    """Second-order Jury test for one mode, boundaries counted unstable."""
    if lam <= 0:
        raise ValueError("mode eigenvalue must be positive")
    b, c = _quadratic_coefficients(lam, alpha, beta, dt)
    d_plus = 1.0 + b + c    # D(1)
    d_minus = 1.0 - b + c   # D(-1)
    return (d_plus > MARGINAL_TOL and d_minus > MARGINAL_TOL
            and abs(c) < 1.0 - MARGINAL_TOL)


def _delayed_mode_roots(lam: float, alpha: float, beta: float, dt: float,
                       delay_multiple: int) -> tuple[complex, complex]:
    """The two largest-magnitude roots of one mode's characteristic
    polynomial under a delay of ``delay_multiple`` samples, largest
    first; N = 1 is ``dsr_mode_roots``. Gains so large that a
    coefficient overflows give an infinite root, as at N = 1."""
    if delay_multiple == 1:
        return dsr_mode_roots(lam, alpha, beta, dt)
    if lam <= 0:
        raise ValueError("mode eigenvalue must be positive")
    c = (1.0 - beta * lam) / delay_multiple
    coefficients = np.zeros(delay_multiple + 2)
    coefficients[:2] = 1.0, -(1.0 - alpha * beta * dt * lam + c)
    coefficients[-1] = c
    if not np.isfinite(coefficients).all():
        return complex(math.inf), 0j
    roots = sorted(np.roots(coefficients), key=abs, reverse=True)
    return complex(roots[0]), complex(roots[1])


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


@dataclass(frozen=True)
class ModeRoots:
    """Root pair of one mode, with magnitudes for quick reading."""

    eigenvalue: float
    z1: complex
    z2: complex
    magnitude1: float
    magnitude2: float


@dataclass(frozen=True)
class StabilityReport:
    """Per-mode roots and the overall spectral radius.

    ``stable`` is strict (sigma < 1 with the marginal band excluded);
    ``binding_mode`` indexes the eigenvalue whose root attains sigma.
    """

    stable: bool
    spectral_radius: float
    per_mode: tuple[ModeRoots, ...]
    binding_mode: int
    marginal: bool

    def as_dict(self) -> dict:
        return {
            "stable": self.stable,
            "marginal": self.marginal,
            "spectral_radius": self.spectral_radius,
            "binding_mode": self.binding_mode,
            "per_mode": [
                {
                    "eigenvalue": m.eigenvalue,
                    "z1": [m.z1.real, m.z1.imag],
                    "z2": [m.z2.real, m.z2.imag],
                    "magnitude1": m.magnitude1,
                    "magnitude2": m.magnitude2,
                }
                for m in self.per_mode
            ],
        }


def spectral_radius(laplacian: PinnedLaplacian, alpha: float, beta: float,
                    dt: float, delay_multiple: int = 1) -> StabilityReport:
    """Exact spectral radius of the cohesive dynamics: max root magnitude
    over all Laplacian modes. ``per_mode`` lists each mode's two largest
    roots."""
    modes = []
    for lam in laplacian.eigenvalues:
        z1, z2 = _delayed_mode_roots(float(lam), alpha, beta, dt, delay_multiple)
        modes.append(ModeRoots(eigenvalue=float(lam), z1=z1, z2=z2,
                               magnitude1=abs(z1), magnitude2=abs(z2)))
    binding = max(range(len(modes)), key=lambda i: modes[i].magnitude1)
    sigma = modes[binding].magnitude1
    return StabilityReport(
        stable=sigma < 1.0 - MARGINAL_TOL,
        spectral_radius=sigma,
        per_mode=tuple(modes),
        binding_mode=binding,
        marginal=abs(sigma - 1.0) <= MARGINAL_TOL,
    )
