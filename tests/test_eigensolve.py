import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesive_transport import StiffnessChain, build_pinned_laplacian, eigen_decompose

from conftest import grid_network


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


def test_1024_robot_chain_matches_closed_form():
    robots = 1024
    lap = build_pinned_laplacian(StiffnessChain((0.05,) * (robots - 1),
                                                (0.05,) + (0.0,) * (robots - 1)))
    expected = closed_form_chain_eigenvalues(0.05, robots)
    assert np.max(np.abs(lap.eigenvalues - expected)) <= 1e-13 * expected[-1]


# Stopping rule of the oracle: sweep until the off-diagonal Frobenius
# norm is at most _CONVERGENCE_RTOL * ||K||_F (~log(n) + a few sweeps).
_MAX_SWEEPS = 64
_CONVERGENCE_RTOL = 1e-12


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _textbook_jacobi(matrix):
    """The two-sided cyclic Jacobi loop: every rotation applied to the
    columns and then to the rows of K, and to the columns of V. An
    independent oracle for the solver."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
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


def _assert_agrees_with_textbook(matrix):
    """Eigenvalues within 2e-12 ||K||_F of the oracle's, plus the
    contract. The oracle stops once its off-diagonal part is at most
    1e-12 ||K||_F, so by Weyl's theorem its diagonal lies that close to
    the exact spectrum; the solver's own error is far smaller."""
    k = np.asarray(matrix, dtype=float)
    # The oracle's norms square the entries. It runs on K times a power
    # of two that brings max |K_ij| into [0.5, 1): exact, and a tiny K's
    # norm no longer underflows to 0 and stops it before any rotation.
    _, exponent = np.frexp(np.max(np.abs(k), initial=0.0))
    unit = np.ldexp(k, -exponent)
    with np.errstate(over="ignore"):    # the oracle's numpy scalars warn where tau is inf
        expected = np.ldexp(_textbook_jacobi(unit)[0], exponent)
    w, v = eigen_decompose(k)
    n, scale = len(k), np.ldexp(np.linalg.norm(unit), exponent)
    assert w.dtype == v.dtype == np.float64
    assert w.shape == (n,) and v.shape == (n, n)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - expected), initial=0.0) <= 2e-12 * scale
    assert np.max(np.abs(v @ np.diag(w) @ v.T - k), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(v.T @ v - np.eye(n)), initial=0.0) <= 1e-12


def test_agrees_with_textbook_reference_chain(lap4):
    _assert_agrees_with_textbook(lap4.matrix)


def test_agrees_with_textbook_8x8_grid():
    _assert_agrees_with_textbook(build_pinned_laplacian(grid_network(8, 5)).matrix)


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
def test_agrees_with_textbook_random_symmetric(matrix):
    _assert_agrees_with_textbook(matrix)


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
    _assert_agrees_with_textbook(matrix)
    w, v = eigen_decompose(matrix)
    assert np.array_equal(w, np.diag(matrix))
    assert v.flags.c_contiguous and v.flags.writeable
    assert np.array_equal(v, np.eye(len(w)))


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (np.zeros(3), "expected a square matrix, got shape (3,)"),
    ([[1.0, 2.0], [2.0000001, 1.0]], "matrix is not symmetric"),
])
def test_contract_value_errors_unchanged(matrix, message):
    with pytest.raises(ValueError) as new:
        eigen_decompose(matrix)
    with pytest.raises(ValueError) as textbook:
        _textbook_jacobi(matrix)
    assert str(new.value) == str(textbook.value) == message
