"""Dense kernels: orthonormalization, pencil eigensolve, sigma_max."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from morkit.dense import (
    dense_solve,
    eig_generalized,
    orthonormalize,
    _row_norms,
    sigma_max,
    vector_norm,
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
    # eval_reduced of to_dense_schur's model: complex s^2 M + s L + K against a real F
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


# ---------------------------------------------------------------------------
# bitwise references: the straightforward implementations the kernels replace


def _reference_orthonormalize(V, drop_tol=1e-10):
    V = np.asarray(V)
    if V.ndim == 1:
        V = V[:, None]
    dtype = np.result_type(V.dtype, np.float64)
    kept = []
    dropped = 0
    for j in range(V.shape[1]):
        v = V[:, j].astype(dtype, copy=True)
        norm0 = np.linalg.norm(v)
        for _ in range(2):
            for q in kept:
                v -= (q.conj() @ v) * q
        norm_v = np.linalg.norm(v)
        if norm0 == 0.0 or norm_v <= drop_tol * norm0:
            dropped += 1
            continue
        kept.append(v / norm_v)
    if dropped:
        warnings.warn(f"dropped {dropped}", RankDeficiencyWarning)
    return np.column_stack(kept)


def _reference_eig(A, E):
    values, vl, vr = sla.eig(A, E, left=True, right=True)
    return [
        (complex(values[k]),
         vr[:, k] / np.linalg.norm(vr[:, k]),
         vl[:, k] / np.linalg.norm(vl[:, k]))
        for k in range(values.shape[0])
    ]


def _rank_warnings(fn, V):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(V)
    return out, sum(issubclass(w.category, RankDeficiencyWarning) for w in caught)


def _assert_orthonormalize_matches_reference(V):
    got, got_warned = _rank_warnings(orthonormalize, V)
    want, want_warned = _rank_warnings(_reference_orthonormalize, V)
    _assert_same_bytes(got, want)
    assert got_warned == want_warned


def _assert_eig_matches_reference(A, E):
    got = eig_generalized(A, E)
    want = _reference_eig(A, E)
    assert len(got) == len(want)
    for t, (value, right, left) in zip(got, want):
        assert t.value == value
        _assert_same_bytes(t.right, right)
        _assert_same_bytes(t.left, left)


@pytest.mark.parametrize("kind", ["real", "complex", "integer"])
@pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (32, 16), (220, 16)])
@pytest.mark.parametrize("seed", range(3))
def test_orthonormalize_is_bitwise_the_reference(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, k))
    if kind == "complex":
        V = V + 1j * rng.standard_normal((n, k))
    if kind == "integer":
        V = rng.integers(-5, 6, (n, k))
        V[0, 0] = 1  # keep the first column nonzero
    _assert_orthonormalize_matches_reference(V)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_orthonormalize_drops_as_the_reference(kind):
    rng = np.random.default_rng(11)
    V = rng.standard_normal((12, 6))
    if kind == "complex":
        V = V + 1j * rng.standard_normal((12, 6))
    V[:, 2] = 0.0                          # zero column
    V[:, 4] = 2.0 * V[:, 0] - V[:, 1]      # dependent column
    V[:, 5] = V[:, 3] * (1.0 + 1e-13)      # dependent up to rounding
    _assert_orthonormalize_matches_reference(V)
    with pytest.warns(RankDeficiencyWarning, match="dropped 3"):
        assert orthonormalize(V).shape[1] == 3


def test_orthonormalize_single_vector_is_the_reference():
    v = np.array([3.0, -4.0, 12.0])
    _assert_orthonormalize_matches_reference(v)
    _assert_orthonormalize_matches_reference(v[::-1])   # a strided view


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 24),
    k=st.integers(1, 8),
    kind=st.sampled_from(["real", "complex", "integer"]),
    repeat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_orthonormalize_matches_the_reference_on_generated_blocks(n, k, kind, repeat, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    if kind == "integer":
        V = rng.integers(-3, 4, (n, k))
    else:
        V = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, k)
        if kind == "complex":
            V = V + 1j * rng.standard_normal((n, k))
    if repeat and k > 1:
        V[:, -1] = V[:, 0]
    if not np.any(V):
        with pytest.raises(DimensionError):
            orthonormalize(V)
        return
    _assert_orthonormalize_matches_reference(V)


def test_vector_norms_are_numpy_norms():
    rng = np.random.default_rng(5)
    for v in (rng.standard_normal(33), rng.standard_normal(8) + 1j * rng.standard_normal(8),
              rng.standard_normal((6, 5))[:, 2], np.zeros(3)):
        assert vector_norm(v) == np.linalg.norm(v)
    for rows in (rng.standard_normal((7, 33)), rng.standard_normal((16, 16)) * 1e-3j + 1.0,
                 np.asfortranarray(rng.standard_normal((4, 9))).T.copy(), np.zeros((2, 3))):
        norms = _row_norms(rows)
        assert norms.tobytes() == np.array([np.linalg.norm(r) for r in rows]).tobytes()


def _pencil(n, spectrum, seed):
    """A pencil with an all-real spectrum (symmetric-definite), conjugate
    pairs (general real) or complex entries."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    E = rng.standard_normal((n, n))
    if spectrum == "real":
        return A + A.T, E @ E.T + n * np.eye(n)
    E = E + n * np.eye(n)
    if spectrum == "complex":
        return A + 1j * rng.standard_normal((n, n)), E
    return A, E


@pytest.mark.parametrize("spectrum", ["real", "pairs", "complex"])
@pytest.mark.parametrize("n", [1, 2, 7, 16, 32])
@pytest.mark.parametrize("seed", range(3))
def test_eig_is_bitwise_scipy_eig(spectrum, n, seed):
    A, E = _pencil(n, spectrum, seed)
    _assert_eig_matches_reference(A, E)


def test_eig_companion_pencil_is_bitwise_scipy_eig():
    # an order-2 companion pencil as update_interpolation builds it, with
    # a transposed (F-ordered) operand
    rng = np.random.default_rng(2)
    M = np.diag(rng.uniform(1.0, 2.0, 4))
    L = 0.01 * np.eye(4)
    K = np.diag(rng.uniform(1e2, 1e6, 4))
    Z = np.zeros((4, 4))
    E = np.block([[Z, M], [M, L]])
    A = np.block([[M, Z], [Z, -K]])
    _assert_eig_matches_reference(A, E)
    _assert_eig_matches_reference(np.asfortranarray(A), E.T)


def test_eig_real_spectrum_gives_real_vectors():
    A, E = _pencil(5, "real", 0)
    for t in eig_generalized(A, E):
        assert t.right.dtype == np.float64 and t.left.dtype == np.float64
    A, E = _pencil(5, "pairs", 0)
    assert all(t.right.dtype == np.complex128 for t in eig_generalized(A, E))


def test_eig_integer_pencil_is_bitwise_scipy_eig():
    A = np.array([[2, 1], [-3, 0]])
    E = np.array([[1, 0], [0, 1]])
    _assert_eig_matches_reference(A, E)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    spectrum=st.sampled_from(["real", "pairs", "complex"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eig_matches_scipy_on_generated_pencils(n, spectrum, seed):
    A, E = _pencil(n, spectrum, seed)
    _assert_eig_matches_reference(A, E)


@pytest.mark.parametrize("where", ["A", "E"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eig_rejects_non_finite(where, value):
    A, E = np.eye(3), np.eye(3)
    (A if where == "A" else E)[1, 2] = value
    with pytest.raises(ValueError):
        eig_generalized(A, E)


@pytest.mark.parametrize("E", [
    np.diag([1.0, 0.0]),                       # infinite eigenvalue
    np.zeros((2, 2)),                          # undefined with A singular below
    np.array([[1.0, 1.0], [1.0, 1.0]]) * 1j,   # complex, singular
])
def test_eig_singular_pencils_raise(E):
    A = np.eye(2) if E[0, 0] != 0 else np.diag([1.0, 0.0])
    with pytest.raises(PencilSingularError):
        eig_generalized(A, E)


@pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (2, 3)), ((4,), (4,))])
def test_eig_shape_errors(shapes):
    with pytest.raises(DimensionError):
        eig_generalized(np.ones(shapes[0]), np.ones(shapes[1]))
