"""Each Laplacian mode's roots, and what is read from them: the stability
verdicts of both controllers, and the modal tail bound by which the tuner and
the cutoff sweep stop early.

Since K = V diag(lam) V^T, each update law splits into one scalar recursion
per mode k, with roots z_kr. The baseline's one root is 1 - gamma*lam_k
(R = 1), so the baseline is stable iff 0 < gamma < 2/lam_max. The cohesive
law with a delay of N samples has the characteristic polynomial

    z^(N+1) - (1 - a*b*dt*lam + c/N) z^N + c/N,    c = 1 - b*lam,

which at N = 1 is the quadratic (R = 2)

    D(z) = z^2 - (1 - a*b*dt*lam + c) z + c.

All modes are solved at once: the quadratic elementwise at N = 1, and for
N > 1 the eigenvalues of every mode's companion matrix in one batched call.

The network is stable iff every mode's roots lie strictly inside the unit
circle; the verdict comes from the largest root. At N = 1 two equivalent
tests are also provided: the second-order Jury conditions (D(1) > 0,
D(-1) > 0, |c| < 1) and the closed form

    a > 0   and   0 < b < 4 / (lam_max * (a*dt + 2)).

Root magnitudes within MARGINAL_TOL of 1 (and Jury quantities within
MARGINAL_TOL of their boundaries) are treated as unstable: the closed
form is an open set, and a marginal system is useless in practice.

``ModalTail.of`` builds the tail bound on ``mode_roots``, and lists where there
is none. Let the reference be

    y_d[c + j] = A - C p**j        (j >= 0),

constant (C = 0) for the tuner's unit step, and Tustin-filtered with pole
p = (2 - wc*dt)/(2 + wc*dt) in (0, 1) for the sweep. The error e = V^T (Y - A*1)
of mode k is then, from sample c - R + 1 on, a forced part G_k p**j and a
transient sum_r a_kr z_kr**j:

    G_k = -g C (V^T B)_k p**(R - 1) / prod_r (p - z_kr),

g being the law's gain on the reference (gamma, or alpha*beta*dt), and the
transient's amplitudes a_kr fixed by the error less its forced part at c
(and at c - 1 for a pair). The DC part A*1 moves no robot apart. Robot i's
transient at c + j and its move from there are at most sum_k |V_ik| sum_r
|a_kr| |z_kr|**j times 1 and |z_kr - 1|; these and p**j fall with j, so a
bound built from them holds for every later sample once it holds at one.
``first_stop`` finds the first sample from which such bounds, plus margins
for the rounding after c, pass a caller's test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .network import PinnedLaplacian

MARGINAL_TOL = 1e-9
_EPS = 2.0 ** -52
# roots (or a root and the reference pole) this close give amplitudes ~1/|z1 - z2|
# times the error's: their tail bound would overstate it a millionfold, so it is
# not used
_NEAR_REPEATED = 1e-6


def baseline_gamma_bound(laplacian: PinnedLaplacian) -> float:
    """Largest stable baseline gain: 2 / lam_max."""
    return 2.0 / laplacian.lambda_max


def _baseline_roots(laplacian: PinnedLaplacian, gamma: float) -> np.ndarray:
    """Each mode's baseline root 1 - gamma*lam_k, as a (modes, 1) array."""
    return (1.0 - gamma * laplacian.eigenvalues)[:, None]


def baseline_spectral_radius(laplacian: PinnedLaplacian, gamma: float) -> float:
    """Spectral radius of I - gamma*K: max_k |1 - gamma*lam_k|."""
    return float(np.max(np.abs(_baseline_roots(laplacian, gamma))))


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


def _beta_bound(lambda_max: float, alpha: float, dt: float) -> float:
    """Supremum of the stable cohesive gains beta at rate gain alpha, N = 1."""
    return 4.0 / (lambda_max * (alpha * dt + 2.0))


def closed_form_stable(laplacian: PinnedLaplacian, alpha: float, beta: float,
                  dt: float, delay_multiple: int = 1) -> bool:
    """Closed-form stability of the cohesive network.

    Equivalent to running the Jury test on every mode; only the largest
    eigenvalue can bind. For a delay N > 1 there is no closed form here,
    and the verdict comes from the roots (``spectral_radius``).
    """
    if delay_multiple != 1:
        return spectral_radius(laplacian, alpha, beta, dt, delay_multiple).stable
    return alpha > 0.0 and 0.0 < beta < _beta_bound(laplacian.lambda_max, alpha, dt)


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


def mode_roots(laplacian: PinnedLaplacian, controller) -> np.ndarray:
    """Each mode's roots, largest magnitude first, as a (modes, R) array: the
    baseline's 1 - gamma*lam_k (R = 1), or the cohesive law's two largest (R =
    2, as ``spectral_radius`` reports them)."""
    if controller.kind == "baseline":
        return _baseline_roots(laplacian, controller.gamma)
    return np.stack(_mode_roots(laplacian.eigenvalues, controller.alpha, controller.beta,
                                controller.dt, controller.delay_multiple), axis=1)


class ModalTail:
    """The modal algebra of one network and controller with bounded roots,
    for a reference A - C p**j with one pole p per run (``of``): forced parts,
    transient amplitudes, their bounds per robot, and the rounding margins.
    States may carry leading batch axes, one run per row, as ``dynamics._run``
    steps them."""

    def __init__(self, laplacian: PinnedLaplacian, controller, roots: np.ndarray, poles):
        self.poles = poles   # one per run, or None for a constant reference
        self.vectors, self.magnitudes = laplacian.eigenvectors, np.abs(laplacian.eigenvectors)
        self.roots, self.rates, self.moves = roots, np.abs(roots), np.abs(roots - 1.0)
        if controller.kind == "baseline":
            drive = gain = controller.gamma
        else:
            drive = controller.alpha * controller.beta * controller.dt
            gain = drive + controller.beta
        # delta at s = 1: each sample's rounding per robot, from the stacked step,
        # its sums, the eigendecomposition's backward error and the roots' (a few
        # eps in their sum and product, each times |e|)
        self.per_sample = (laplacian.n + 8) * _EPS * (
            3.0 + 2.0 * gain * np.abs(laplacian.matrix).sum(axis=1).max())
        self.reach = self.magnitudes.sum(axis=0)   # |V^T d|_k <= reach_k |d|max
        leaders = laplacian.leader_vector
        self.drive = drive * (leaders @ self.vectors)     # g (V^T B)_k
        # the largest g |B|_i, and of g (|V|^T B)_k, which bounds the rounding of drive
        self.leader_drive = drive * float(np.max(leaders))
        self.drive_size = drive * float(np.max(leaders @ self.magnitudes))

    @classmethod
    def of(cls, laplacian: PinnedLaplacian, controller, poles=None) -> ModalTail | None:
        """The tail of ``controller`` on ``laplacian``, from ``mode_roots``, for a
        reference with one pole per run in the array ``poles`` (None: constant,
        C = 0). None in the cases without a bound, listed here alone: a delay N > 1,
        a root on or outside the unit circle, a nearly repeated pair of roots,
        or a pole as near a root (apart by _NEAR_REPEATED or less)."""
        if controller.kind != "baseline" and controller.delay_multiple != 1:
            return None
        roots = mode_roots(laplacian, controller)
        gaps = [_magnitude(roots[:, :-1] - roots[:, 1:])]   # the pair's, if any
        if poles is not None:
            gaps.append(np.abs(poles[:, None, None] - roots))
        bounded = np.max(np.abs(roots)) < 1.0 and all(np.all(g > _NEAR_REPEATED) for g in gaps)
        return cls(laplacian, controller, roots, poles) if bounded else None

    def forced(self, lag: np.ndarray) -> np.ndarray:
        """G_k, (..., modes), of the reference A - ``lag`` * p**j, one pole and
        lag per run."""
        pole = self.poles[..., None]
        response = np.prod(pole[..., None] - self.roots, axis=-1).real
        lead = pole ** (self.roots.shape[1] - 1)
        return -np.asarray(lag)[..., None] * lead * self.drive / response

    def amplitudes(self, now: np.ndarray, prev: np.ndarray, forced=None) -> np.ndarray:
        """|a_kr|, (..., modes, R), from the errors Y - A at c (``now``) and
        c - 1 (``prev``), less the forced part G (``forced``) if given, widened
        by their rounding."""
        at_now, at_prev = now @ self.vectors, prev @ self.vectors
        slack = (now.shape[-1] + 2) * _EPS * ((np.abs(now) + np.abs(prev)) @ self.magnitudes)
        if forced is not None:
            back = forced / self.poles[..., None]
            at_now, at_prev = at_now - forced, at_prev - back
            slack = slack + _EPS * (np.abs(back) + np.abs(at_now) + np.abs(at_prev))
        if self.roots.shape[1] == 1:
            return (np.abs(at_now) + slack)[..., None]
        z1, z2 = self.roots.T
        pair = np.stack([z1 * (at_now - z2 * at_prev), z2 * (z1 * at_prev - at_now)],
                        axis=-1) / (z1 - z2)[:, None]
        size = np.abs(at_now) + np.abs(at_prev) + 2.0 * slack
        error = (4.0 * slack + 8.0 * _EPS * size) / _magnitude(z1 - z2)
        return _magnitude(pair) + error[..., None]

    def per_robot(self, weights: np.ndarray, j: int) -> np.ndarray:
        """sum_k |V_ik| sum_r weights_kr |z_kr|**j for each robot i, (..., n)."""
        return (weights * self.rates ** j).sum(axis=-1) @ self.magnitudes.T

    def margins(self, left: int, delta) -> tuple:
        """The rounding margins of the positions and of the moves over ``left``
        samples, each of which adds at most ``delta`` to a robot's error.

        A stepped sample adds at most

            delta = (n + 8) eps s (3 + 2 g' ||K||_inf) = per_sample * s

        to a robot's error (eps = 2**-52, g' = gamma or alpha*beta*dt + beta, s
        at least every later |Y| and |y_d|): the stacked step's products and
        sums, the eigendecomposition's backward error and the roots' rounding.
        Such an injection reaches mode k as at most reach_k = sum_i |V_ik| times
        delta, and mode k passes it on by its impulse response h_k, whose
        magnitudes over the J samples left sum to at most prod_r min(J, 1/(1 -
        |z_kr|)). The margin, max_i sum_k |V_ik| reach_k delta times that sum,
        so grows with J and with 1/(1 - sigma), once per root of a mode; the
        moves' margin sums |h_k(j) - h_k(j - 1)| instead.
        """
        # per root, sum_{j < left} |z|**j at most; then per mode the sums of
        # |h(j)| and of |h(j) - h(j - 1)|, h its response to a unit injection,
        # the latter times the other roots' sums (their product is 1 at R = 1)
        sums = np.minimum(left, 1.0 / (1.0 - self.rates))
        others = np.where(np.eye(sums.shape[1], dtype=bool), 1.0, sums[:, None]).prod(axis=-1)
        grows, move_grows = sums.prod(axis=1), ((1.0 + self.moves * sums) * others).min(axis=1)
        return (delta * float(np.max(self.magnitudes @ (self.reach * grows))),
                delta * float(np.max(self.magnitudes @ (self.reach * move_grows))))


def first_stop(tail: ModalTail, now: np.ndarray, prev: np.ndarray, at: int, until: int,
               end: int, amplitude: float, test: Callable, reference=None) -> int | None:
    """The first sample c, ``at`` <= c < ``until``, from which every sample up
    to ``end`` passes ``test``; None if there is none. Row b (of a batch, or
    the one run) has positions ``now[b]`` at ``at`` and ``prev[b]`` before it,
    and the reference A - C p**j from ``at`` on: A = ``amplitude``, and p =
    ``tail.poles[b]`` and A - C = ``reference[b]`` for a filtered one; for a
    tail without poles the reference is the constant A (C = 0). ``test(spread,
    reach, move)`` judges, per row, bounds from c on of the spread, of max_i
    |Y_i - A| and of the largest move, rounding margins included.

    Robot i's position at c + j is A plus the forced part p**j (V G)_i plus
    the transient, so the spread is at most p**j ptp(V G) + 2 max_i T_i(j),
    |Y_i - A| at most p**j |V G|_i + T_i(j), and the move from there at most
    p**j (1 - p) |V G|_i + M_i(j), T and M being the transient's bounds
    (``ModalTail.per_robot``); the DC part moves no robot apart. Two facts need
    no bound: at n = 1 the spread is exactly 0, and rows whose positions at c
    and c - 1, A and y_d[c] are all exactly 0 stay exactly 0, so no later
    sample changes a number: c = ``at`` is then the stop.

    The margins take s = 2 S, S bounding every later |Y| and |y_d| without
    them: S covers them with the margin if the margin is at most S, which is
    required. On top of per_sample * s, each sample injects the reference's
    own rounding, g |B|_i times at most 8 eps max(|A|, |y_d[at]|) min(J, 1/(1 -
    p)) over the J samples left (the Tustin recursion's rounding and that of its
    constants, about 4 eps of the larger value a sample); at p = 1, where the
    pole rounds to 1 for wc dt up to about 2**-53, the min is J, and the
    recursion ramps the reference by at most |A| wc dt < eps |A| a sample,
    which that term covers with the rounding. It also injects the rounding of G,
    at most (n + 18) eps |C| g max_k (|V|^T B)_k a sample. A constant reference
    has neither. The margin, at least 3 (n + 8) eps s, also covers the
    evaluation of the bounds, each at most (n + 8) eps times a value below s.
    """
    n, left, poles = now.shape[-1], end - at, tail.poles
    if poles is None:
        forced, size, gap, step, lag, residual = None, 0.0, 0.0, 0.0, 0.0, 0.0
        level = abs(amplitude)
    else:
        lag = amplitude - reference
        forced = tail.forced(lag)
        shape = forced @ tail.vectors.T
        slack = (n + 2) * _EPS * (np.abs(forced) @ tail.magnitudes.T)
        size = np.abs(shape) + slack
        gap = np.ptp(shape, axis=-1) + 2.0 * np.max(slack, axis=-1)
        step = (1.0 - poles)[:, None] * size   # the forced part's move, times p**j
        level = np.maximum(abs(amplitude), np.abs(reference))
        samples = np.divide(1.0, 1.0 - poles, out=np.full_like(poles, np.inf),
                            where=poles < 1.0)
        residual = 8.0 * _EPS * level * np.minimum(left, samples)
    if not (np.any(level) or np.any(now) or np.any(prev)):
        return at   # every row stays exactly 0
    amplitudes = tail.amplitudes(now - amplitude, prev - amplitude, forced)
    known = abs(amplitude) + np.max(size + tail.per_robot(amplitudes, 0), axis=-1)
    scale = np.maximum(np.maximum(known, level + residual),
                       np.maximum(np.abs(now), np.abs(prev)).max(axis=-1))
    # 2**-1022 bounds the absolute rounding of subnormal values
    margin, move_margin = tail.margins(left, tail.per_sample * (2.0 * scale + 2.0 ** -1022)
                                       + tail.leader_drive * residual
                                       + (n + 18) * _EPS * np.abs(lag) * tail.drive_size)
    if not np.all(margin <= scale):
        return None
    weights = np.array([amplitudes, amplitudes * tail.moves])   # T's and M's, bounded at once

    def holds(j: int) -> bool:
        transient, travel = tail.per_robot(weights, j)
        if poles is None:
            reach = transient.max(axis=-1)
            spread = 2.0 * reach
        else:
            decay = poles ** j
            spread = decay * gap + 2.0 * transient.max(axis=-1)
            reach = (decay[:, None] * size + transient).max(axis=-1)
            travel = decay[:, None] * step + travel
        return bool(test(spread + margin if n > 1 else 0.0, reach + margin,
                         travel.max(axis=-1) + move_margin).all())

    last = min(until, end) - at - 1
    if last < 0 or not holds(last):
        return None
    if holds(0):   # as it mostly does where a stop found earlier is derived again
        return at
    lo, hi = 0, last
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return at + hi
