import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesive_transport import (CouplingNetwork, build_pinned_laplacian,
                                eigen_decompose)
from cohesive_transport.eigensolve import (_CONVERGENCE_RTOL, _MAX_SWEEPS,
                                           _off_diagonal_norm)


def closed_form_chain_eigenvalues(stiffness, n):
    """Pinned uniform chain of n robots, one end pinned with the same
    stiffness: eigenvalues are k*(2 - 2cos((2j-1)pi/(2n+1)))."""
    return np.array([stiffness * (2.0 - 2.0 * math.cos((2 * j - 1) * math.pi / (2 * n + 1)))
                     for j in range(1, n + 1)])


def test_identity_eigenvalues():
    w, v = eigen_decompose(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-14)
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-14)


def test_diagonal_matrix_sorted():
    w, _ = eigen_decompose(np.diag([5.0, 2.0]))
    assert np.allclose(w, [2.0, 5.0])


def test_reference_chain_matches_closed_form():
    k = np.array([
        [0.10, -0.05, 0.0, 0.0],
        [-0.05, 0.10, -0.05, 0.0],
        [0.0, -0.05, 0.10, -0.05],
        [0.0, 0.0, -0.05, 0.05],
    ])
    w, _ = eigen_decompose(k)
    expected = closed_form_chain_eigenvalues(0.05, 4)
    assert np.allclose(w, expected, atol=1e-12)
    # second, independent route: characteristic polynomial roots
    char_roots = np.sort(np.roots(np.poly(k)).real)
    assert np.allclose(w, char_roots, atol=1e-10)


def test_single_element():
    w, v = eigen_decompose([[0.05]])
    assert w[0] == pytest.approx(0.05, abs=1e-15)
    assert v[0, 0] == 1.0


def test_zero_matrix():
    w, v = eigen_decompose(np.zeros((3, 3)))
    assert np.all(w == 0.0)
    assert np.array_equal(v, np.eye(3))


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigen_decompose([[1.0, 2.0], [2.0000001, 1.0]])


def test_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        eigen_decompose(np.zeros((2, 3)))


def test_rejects_oversized():
    with pytest.raises(ValueError, match="cap"):
        eigen_decompose(np.eye(10), size_cap=8)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_random_symmetric_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    sym = (raw + raw.T) / 2.0
    w, v = eigen_decompose(sym)

    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
    scale = max(np.max(np.abs(sym)), 1e-300)
    assert np.max(np.abs(v @ np.diag(w) @ v.T - sym)) < 1e-10 * scale
    assert np.allclose(w, np.linalg.eigvalsh(sym), atol=1e-10 * scale)


def test_moderately_large_matrix():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(64, 64))
    sym = raw @ raw.T
    w, v = eigen_decompose(sym)
    assert np.max(np.abs(v @ np.diag(w) @ v.T - sym)) < 1e-10 * np.max(np.abs(sym))


def _textbook_jacobi(matrix, size_cap=256):
    """The two-sided cyclic Jacobi loop: every rotation applied to the
    columns and then to the rows of K, and to the columns of V. The
    solver must reproduce its output bit for bit."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > size_cap:
        raise ValueError(f"matrix size {n} exceeds cap {size_cap}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")

    v = np.eye(n)
    scale = float(np.linalg.norm(a))
    if n == 1 or scale == 0.0:
        return np.diag(a).copy(), v

    threshold = _CONVERGENCE_RTOL * scale
    for _ in range(_MAX_SWEEPS):
        if _off_diagonal_norm(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c

                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = 0.0
                a[q, p] = 0.0

                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")

    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def _outcome(solver, matrix):
    """Output bytes, or the exception type and message."""
    try:
        w, v = solver(matrix)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return w.dtype, w.shape, w.tobytes(), v.dtype, v.shape, v.tobytes()


def _assert_bitwise_textbook(matrix):
    with np.errstate(over="ignore"):    # the oracle's numpy scalars warn where tau is inf
        expected = _outcome(_textbook_jacobi, matrix)
    assert _outcome(eigen_decompose, matrix) == expected


def grid_network(side, seed):
    """side x side mesh, seeded stiffnesses in [0.03, 0.07] N/cm and a
    few leaders at 0.05 N/cm."""
    rng = np.random.default_rng(seed)
    couplings = {}
    for r in range(side):
        for c in range(side):
            k = r * side + c
            if c + 1 < side:
                couplings[(k, k + 1)] = float(rng.uniform(0.03, 0.07))
            if r + 1 < side:
                couplings[(k, k + side)] = float(rng.uniform(0.03, 0.07))
    leaders = [0.0] * (side * side)
    for k in rng.choice(side * side, size=4, replace=False):
        leaders[int(k)] = 0.05
    return CouplingNetwork(side * side, couplings, tuple(leaders))


def test_bitwise_textbook_reference_chain(lap4):
    _assert_bitwise_textbook(lap4.matrix)


def test_bitwise_textbook_8x8_grid():
    _assert_bitwise_textbook(build_pinned_laplacian(grid_network(8, 5)).matrix)


# Exact zeros, repeated values (so repeated diagonals) and negatives
# come from the pool; the floats fill in everything else.
_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.05, -0.05, 2.5]),
                     st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def symmetric_matrices(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    upper = np.triu_indices(n)
    values = draw(st.lists(_entries, min_size=len(upper[0]), max_size=len(upper[0])))
    a = np.zeros((n, n))
    a[upper] = values
    a.T[upper] = values
    return a


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices())
def test_bitwise_textbook_random_symmetric(matrix):
    _assert_bitwise_textbook(matrix)


def test_contract_input_untouched_and_vectors_freezable():
    k = build_pinned_laplacian(grid_network(4, 1)).matrix.copy()
    before = k.tobytes()
    w, v = eigen_decompose(k)
    assert k.tobytes() == before
    assert w.dtype == v.dtype == np.float64
    assert v.flags.c_contiguous and v.flags.writeable
    assert np.max(np.abs(v.T @ v - np.eye(len(w)))) < 1e-12
    v.flags.writeable = False       # as PinnedLaplacian does
    # a read-only input works too: the solver works on its own copy
    frozen = k.copy()
    frozen.flags.writeable = False
    assert eigen_decompose(frozen)[0].tobytes() == w.tobytes()


@pytest.mark.parametrize("matrix", [[[0.05]], [[3]], np.zeros((3, 3)), np.zeros((1, 1))])
def test_contract_early_returns_unchanged(matrix):
    _assert_bitwise_textbook(matrix)
    w, v = eigen_decompose(matrix)
    assert v.flags.c_contiguous and v.flags.writeable
    assert np.array_equal(v, np.eye(len(w)))


@pytest.mark.parametrize("matrix, size_cap, message", [
    (np.zeros((2, 3)), 256, "expected a square matrix, got shape (2, 3)"),
    (np.zeros(3), 256, "expected a square matrix, got shape (3,)"),
    ([[1.0, 2.0], [2.0000001, 1.0]], 256, "matrix is not symmetric"),
    (np.eye(10), 8, "matrix size 10 exceeds cap 8"),
    (np.arange(100.0).reshape(10, 10), 8, "matrix size 10 exceeds cap 8"),
])
def test_contract_value_errors_unchanged(matrix, size_cap, message):
    with pytest.raises(ValueError) as new:
        eigen_decompose(matrix, size_cap=size_cap)
    with pytest.raises(ValueError) as textbook:
        _textbook_jacobi(matrix, size_cap=size_cap)
    assert str(new.value) == str(textbook.value) == message
