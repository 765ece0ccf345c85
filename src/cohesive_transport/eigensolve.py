"""Symmetric eigendecomposition via cyclic Jacobi rotations.

Eigenvalues come back ascending, eigenvectors as orthonormal columns,
so ``V @ diag(w) @ V.T`` reconstructs the input. The working array is
``T = [K | V^T]``: K stays exactly symmetric, so row p of T holds
column p of K and of V, and the textbook column rotation of a pair
(p, q) is one in-place rotation of rows p and q. The textbook row
rotation that follows computes the same products of the same operands
off the 2x2 block, so copying the two rows into columns p and q of K
replaces it exactly; the 2x2 diagonal keeps its two-stage formulas.
Only the operand order of commutative products and of one addition
differs, so the output is byte-identical to the two-sided loop (the
tests keep it as an oracle). That matters: one ulp of lambda_max
moves the last row of the ``tune`` gain table in its 5th digit. Hence
elementwise ufuncs only (``@``, ``np.dot`` and ``einsum`` may fuse or
reorder) and one pair at a time.
"""
from __future__ import annotations

import math

import numpy as np

DEFAULT_SIZE_CAP = 256

# Sweeps needed in practice: ~log(n) + a few. 64 is a generous safety net.
_MAX_SWEEPS = 64
_CONVERGENCE_RTOL = 1e-12


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def eigen_decompose(matrix, size_cap: int = DEFAULT_SIZE_CAP):
    """Diagonalize a symmetric matrix with cyclic Jacobi rotations.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
    and eigenvectors as orthonormal columns (a new C-contiguous array;
    the input is never modified). Raises ValueError for non-square,
    non-symmetric, or oversized input. Symmetry is checked exactly:
    callers are expected to construct symmetric matrices, not
    approximately symmetric ones.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > size_cap:
        raise ValueError(f"matrix size {n} exceeds cap {size_cap}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")

    scale = float(np.linalg.norm(a))
    if n == 1 or scale == 0.0:
        return np.diag(a).copy(), np.eye(n)

    t = np.hstack([a, np.eye(n)])
    k = t[:, :n]
    rows = list(t)
    k_rows = [row[:n] for row in rows]
    k_cols = list(k.T)
    su, sv = np.empty(2 * n), np.empty(2 * n)   # s*xp, s*xq
    threshold = _CONVERGENCE_RTOL * scale
    for _ in range(_MAX_SWEEPS):
        if _off_diagonal_norm(k) <= threshold:
            break
        for p in range(n - 1):
            xp = rows[p]
            for q in range(p + 1, n):
                apq = t.item(p, q)
                if apq == 0.0:
                    continue
                # Rotation angle that annihilates K[p, q].
                tau = (t.item(q, q) - t.item(p, p)) / (2.0 * apq)
                tan = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, tan)
                s = tan * c

                # Columns p, q of K and V: xp, xq = c*xp - s*xq, s*xp + c*xq,
                # as explicit in-place ufunc calls (cheaper than operators).
                xq = rows[q]
                np.multiply(xp, s, su)
                np.multiply(xq, s, sv)
                np.multiply(xp, c, xp)
                np.subtract(xp, sv, xp)
                np.multiply(xq, c, xq)
                np.add(xq, su, xq)
                # Rows p, q of K: the 2x2 diagonal, then the mirror elsewhere.
                t[p, p] = c * t.item(p, p) - s * t.item(p, q)
                t[q, q] = s * t.item(q, p) + c * t.item(q, q)
                k_cols[p][:] = k_rows[p]
                k_cols[q][:] = k_rows[q]
                # Zero the target pair explicitly to stop rounding creep.
                t[p, q] = t[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")

    eigenvalues = k.diagonal().copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], t[order, n:].T.copy()
