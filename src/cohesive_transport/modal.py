"""Modal tail bounds, shared by the tuner and the cutoff sweep.

Since K = V diag(lam) V^T, each update law splits into one scalar recursion
per mode k, with roots z_kr: 1 - gamma*lam_k for the baseline (R = 1), the
cohesive quadratic's pair at delay N = 1 (R = 2). Let the reference be

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

from typing import Callable

import numpy as np

from .network import PinnedLaplacian
from .stability import _magnitude, _mode_roots

_EPS = 2.0 ** -52
# roots (or a root and the reference pole) this close give amplitudes ~1/|z1 - z2|
# times the error's: their tail bound would overstate it a millionfold, so it is
# not used
_NEAR_REPEATED = 1e-6


def tail_roots(laplacian: PinnedLaplacian, controller, poles=()) -> np.ndarray | None:
    """Each mode's roots as a (modes, R) array: 1 - gamma*lam_k for the
    baseline (R = 1), the quadratic's pair for the cohesive law at N = 1
    (R = 2). None where the tail is not bounded: a delay N > 1, a root on or
    outside the unit circle, a nearly repeated pair, or a reference pole in
    ``poles`` as near a root, apart by _NEAR_REPEATED or less."""
    lam = laplacian.eigenvalues
    if controller.kind == "baseline":
        roots = (1.0 - controller.gamma * lam)[:, None]
    elif controller.delay_multiple == 1:
        z1, z2 = _mode_roots(lam, controller.alpha, controller.beta, controller.dt)
        if not np.min(_magnitude(z1 - z2)) > _NEAR_REPEATED:
            return None
        roots = np.stack([z1, z2], axis=1)
    else:
        return None
    poles = np.asarray(poles, dtype=float)
    if poles.size and not np.min(np.abs(poles[:, None, None] - roots)) > _NEAR_REPEATED:
        return None
    return roots if np.max(np.abs(roots)) < 1.0 else None


class ModalTail:
    """The modal algebra of one network and controller with bounded roots
    (``tail_roots``): forced parts, transient amplitudes, their bounds per
    robot, and the rounding margins. States may carry leading batch axes, one
    run per row, as ``dynamics._run`` steps them."""

    def __init__(self, laplacian: PinnedLaplacian, controller, roots: np.ndarray):
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

    def forced(self, pole: np.ndarray, lag: np.ndarray) -> np.ndarray:
        """G_k, (..., modes), of the reference A - ``lag`` * ``pole``**j, one
        pole and lag per run."""
        pole = np.asarray(pole, dtype=float)[..., None]
        response = np.prod(pole[..., None] - self.roots, axis=-1).real
        lead = pole ** (self.roots.shape[1] - 1)
        return -np.asarray(lag)[..., None] * lead * self.drive / response

    def amplitudes(self, now: np.ndarray, prev: np.ndarray, forced=None,
                   pole=None) -> np.ndarray:
        """|a_kr|, (..., modes, R), from the errors Y - A at c (``now``) and
        c - 1 (``prev``), less the forced part G (``forced``, with ``pole``) if
        given, widened by their rounding."""
        at_now, at_prev = now @ self.vectors, prev @ self.vectors
        slack = (now.shape[-1] + 2) * _EPS * ((np.abs(now) + np.abs(prev)) @ self.magnitudes)
        if forced is not None:
            back = forced / np.asarray(pole)[..., None]
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
        # |h(j)| and of |h(j) - h(j - 1)|, h its response to a unit injection
        sums = np.minimum(left, 1.0 / (1.0 - self.rates))
        if sums.shape[1] == 1:
            grows, move_grows = sums[:, 0], 1.0 + self.moves[:, 0] * sums[:, 0]
        else:
            grows = sums[:, 0] * sums[:, 1]
            move_grows = np.min((1.0 + self.moves * sums) * sums[:, ::-1], axis=1)
        return (delta * float(np.max(self.magnitudes @ (self.reach * grows))),
                delta * float(np.max(self.magnitudes @ (self.reach * move_grows))))


def first_stop(tail: ModalTail, now: np.ndarray, prev: np.ndarray, at: int, until: int,
               end: int, amplitude: float, test: Callable, poles=None,
               reference=None) -> int | None:
    """The first sample c, ``at`` <= c < ``until``, from which every sample up
    to ``end`` passes ``test``; None if there is none. Row b (of a batch, or
    the one run) has positions ``now[b]`` at ``at`` and ``prev[b]`` before it,
    and the reference A - C p**j from ``at`` on: A = ``amplitude``, and p =
    ``poles[b]`` and A - C = ``reference[b]`` for a filtered one; without
    ``poles`` the reference is the constant A (C = 0). ``test(spread, reach,
    move)`` judges, per row, bounds from c on of the spread, of max_i |Y_i - A|
    and of the largest move, rounding margins included.

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
    n, left = now.shape[-1], end - at
    if poles is None:
        forced, size, gap, step, lag, residual = None, 0.0, 0.0, 0.0, 0.0, 0.0
        level = abs(amplitude)
    else:
        lag = amplitude - reference
        forced = tail.forced(poles, lag)
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
    amplitudes = tail.amplitudes(now - amplitude, prev - amplitude, forced, poles)
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
