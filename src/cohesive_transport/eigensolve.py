"""Symmetric eigendecomposition: validation around LAPACK's ``eigh``.

Eigenvalues come back ascending, eigenvectors as orthonormal columns,
so ``V @ diag(w) @ V.T`` reconstructs the input. Symmetry is checked
here because ``eigh`` reads one triangle only and would silently
decompose a different matrix.
"""
from __future__ import annotations

import numpy as np


def eigen_decompose(matrix):
    """Diagonalize a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
    and eigenvectors as orthonormal columns (a new float64,
    C-contiguous, writable array; the input is never modified). Raises
    ValueError for non-square or non-symmetric input. Symmetry is
    checked exactly: callers are expected to construct symmetric
    matrices, not approximately symmetric ones.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return eigenvalues, np.ascontiguousarray(eigenvectors)
