"""Dense kernels: orthonormalization, pencil eigensolve, sigma_max."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from morkit.dense import (
    dense_solve,
    eig_generalized,
    orthonormalize,
    sigma_max,
)
from morkit.errors import (
    DimensionError,
    PencilSingularError,
    RankDeficiencyWarning,
    SingularMatrixError,
)


def test_orthonormalize_single_column():
    Q = orthonormalize(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(Q, [[0.6], [0.8]], rtol=1e-15)


def test_orthonormalize_identity_fixed_point():
    Q = orthonormalize(np.eye(3))
    np.testing.assert_array_equal(Q, np.eye(3))


def test_orthonormalize_drops_dependent_column():
    V = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.warns(RankDeficiencyWarning):
        Q = orthonormalize(V)
    np.testing.assert_array_equal(Q, [[1.0], [0.0], [0.0]])


def test_orthonormalize_rejects_all_zero():
    with pytest.raises(DimensionError):
        orthonormalize(np.zeros((3, 2)))


def test_orthonormalize_rejects_wide_block():
    with pytest.raises(DimensionError):
        orthonormalize(np.ones((2, 3)))


@pytest.mark.parametrize("n, k, seed", [(10, 3, 0), (30, 8, 1), (50, 12, 2)])
def test_orthonormalize_produces_orthonormal_columns(n, k, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    Q = orthonormalize(V)
    assert Q.shape == (n, k)
    np.testing.assert_allclose(Q.conj().T @ Q, np.eye(k), atol=1e-13)
    # span is preserved: every original column lies in range(Q)
    residual = V - Q @ (Q.conj().T @ V)
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(V))


def test_eig_companion_hand_case():
    # companion pencil of the scalar model (M, L, K) = (1, 2, 4.5):
    # det(A - lambda E) = 0 expands to lambda^2 + 2 lambda + 4.5 = 0
    A = np.array([[1.0, 0.0], [0.0, -4.5]])
    E = np.array([[0.0, 1.0], [1.0, 2.0]])
    values = sorted((t.value for t in eig_generalized(A, E)), key=lambda z: z.imag)
    expected = [-1 - 1.8708286933869707j, -1 + 1.8708286933869707j]
    np.testing.assert_allclose(values, expected, rtol=1e-14)


def test_eig_diagonal_standard_case():
    triplets = eig_generalized(np.diag([2.0, 3.0]), np.eye(2))
    values = sorted((t.value for t in triplets), key=lambda z: z.real)
    np.testing.assert_allclose(values, [2.0, 3.0], rtol=1e-15)
    for t in triplets:
        # eigenvectors of a diagonal matrix are the unit basis (up to sign)
        assert np.max(np.abs(np.abs(t.right) - np.eye(2)[:, int(t.value.real) - 2])) < 1e-14


def test_eig_diagonal_pencil():
    values = sorted((t.value for t in eig_generalized(np.eye(2), np.diag([2.0, 4.0]))),
                    key=lambda z: z.real)
    np.testing.assert_allclose(values, [0.25, 0.5], rtol=1e-15)


def test_eig_residual_invariants():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 7))
    E = rng.standard_normal((7, 7)) + 7 * np.eye(7)
    for t in eig_generalized(A, E):
        right_res = np.linalg.norm(A @ t.right - t.value * (E @ t.right))
        left_res = np.linalg.norm(t.left.conj() @ A - t.value * (t.left.conj() @ E))
        scale = np.linalg.norm(A) + abs(t.value) * np.linalg.norm(E)
        assert right_res <= 1e-12 * scale
        assert left_res <= 1e-12 * scale
        assert abs(np.linalg.norm(t.right) - 1.0) < 1e-13
        assert abs(np.linalg.norm(t.left) - 1.0) < 1e-13


def test_eig_real_input_conjugate_closed():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    values = np.array([t.value for t in eig_generalized(A, np.eye(6))])
    conjugated = np.sort_complex(np.conj(values))
    np.testing.assert_allclose(np.sort_complex(values), conjugated, atol=1e-12)


def test_eig_singular_E_raises():
    with pytest.raises(PencilSingularError):
        eig_generalized(np.eye(2), np.diag([1.0, 0.0]))


def test_eig_shape_mismatch():
    with pytest.raises(DimensionError):
        eig_generalized(np.eye(2), np.eye(3))


def test_sigma_max_diagonal():
    assert sigma_max(np.diag([3.0, 4.0])) == 4.0


def test_sigma_max_scalar_modulus():
    assert sigma_max(np.array([[3 + 4j]])) == pytest.approx(5.0, rel=1e-15)


def test_sigma_max_nilpotent():
    assert sigma_max(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def test_dense_solve_diagonal():
    X = dense_solve(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(X, np.diag([0.5, 0.25]), rtol=1e-15)


def test_dense_solve_identity():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(dense_solve(np.eye(2), B), B)


def test_dense_solve_scalar():
    np.testing.assert_allclose(dense_solve([[4.5]], [[1.0]]), [[2.0 / 9.0]],
                               rtol=1e-15)


def test_dense_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.zeros((2, 2)), np.ones(2))


def test_dense_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        dense_solve(np.eye(2), np.ones(3))


def _scipy_solve(A, B):
    return sla.solve(A, B, assume_a="gen")


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 32])
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("kinds", ["real", "complex", "real-A", "real-B"])
@pytest.mark.parametrize("rhs", ["1d", "one-column", "block"])
def test_dense_solve_is_bitwise_scipy_solve(n, layout, kinds, rhs):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    B = rng.standard_normal((n, 3))
    if kinds in ("complex", "real-B"):
        A = A + 1j * rng.standard_normal((n, n))
    if kinds in ("complex", "real-A"):
        B = B + 1j * rng.standard_normal((n, 3))
    if layout == "F":
        A = A.T  # a transposed view, as irka_first_order passes Ms.T
    B = {"1d": B[:, 0], "one-column": B[:, :1], "block": B}[rhs]
    _assert_same_bytes(dense_solve(A, B), _scipy_solve(A, B))


def test_dense_solve_mixed_operands_as_in_dense_schur():
    # DenseSchurSystem.evaluate: complex s^2 M + s L + K against a real F
    rng = np.random.default_rng(7)
    M, L, K = (rng.standard_normal((5, 5)) for _ in range(3))
    F = rng.standard_normal((5, 2))
    s = 0.3 + 40j
    A = s * s * M + s * L + K
    _assert_same_bytes(dense_solve(A, F), _scipy_solve(A, F))


def test_dense_solve_exactly_singular_raises():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 2)))
    with pytest.raises(SingularMatrixError):
        dense_solve(np.zeros((1, 1)), np.ones(1))


@pytest.mark.parametrize("where", ["A", "B"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dense_solve_rejects_non_finite(where, value):
    A, B = np.eye(3), np.ones((3, 2))
    (A if where == "A" else B)[1, 1] = value
    with pytest.raises(ValueError):
        dense_solve(A, B)


def test_dense_solve_warns_on_ill_conditioned():
    A = np.array([[1.0, 1.0], [0.0, 1e-20]])  # nonsingular, rcond ~ 1e-20
    with pytest.warns(sla.LinAlgWarning):
        X = dense_solve(A, np.ones(2))
    with pytest.warns(sla.LinAlgWarning):
        _assert_same_bytes(X, _scipy_solve(A, np.ones(2)))


@pytest.mark.parametrize("seed", range(12))
def test_dense_solve_warns_exactly_when_scipy_does(seed):
    # rcond near eps; the heavy first row parts the 1- and infinity
    # norms, so a different norm in the estimate flips some verdicts
    rng = np.random.default_rng(seed)
    n = 12
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (U * np.logspace(0, -rng.uniform(11.5, 14.5), n)) @ V.T
    A[0] *= 100.0
    if seed % 2:
        A = A + 0.1j * A @ rng.standard_normal((n, n))

    def warned(solve):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(A, np.ones(n))
        return any(issubclass(w.category, sla.LinAlgWarning) for w in caught)

    assert warned(dense_solve) == warned(_scipy_solve)
