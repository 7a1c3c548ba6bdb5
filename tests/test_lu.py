"""Sparse LU: factorization identity, solves, singularity reporting, routes."""

import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from morkit import lu as lu_module
from morkit.errors import DimensionError, SingularMatrixError
from morkit.irka import factor_augmented
from morkit.lu import Route, _BandLU, _DenseLU, factor
from morkit.sparse import as_canonical_csc, assemble_shifted_augmented, column_abs_max
from morkit.system import generate_synthetic

from conftest import GRID, chain_system, grid_ids, grid_laplacian


def _random_square(n, seed, density=0.25):
    rng = np.random.default_rng(seed)
    A = sp.random_array((n, n), density=density, rng=rng, format="csc")
    # keep it comfortably nonsingular
    return A + sp.diags_array(np.full(n, float(n)))


def test_worked_2x2_example():
    # minimum degree puts column 1 first; the threshold keeps its
    # diagonal pivot 2, so L U factors [[2, 1], [1, 5]]
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    lu = factor(A)
    np.testing.assert_array_equal(lu.L.toarray(), [[1.0, 0.0], [0.5, 1.0]])
    np.testing.assert_array_equal(lu.U.toarray(), [[2.0, 1.0], [0.0, 4.5]])
    np.testing.assert_array_equal(lu.perm_r, [1, 0])
    np.testing.assert_array_equal(lu.perm_c, [1, 0])


def test_identity_factors_to_identity():
    I = sp.eye_array(3, format="csc")
    lu = factor(I)
    np.testing.assert_array_equal(lu.L.toarray(), np.eye(3))
    np.testing.assert_array_equal(lu.U.toarray(), np.eye(3))


def test_exactly_singular_raises():
    A = sp.csc_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factor(A)


def test_negligible_pivot_reports_column():
    # factors without aborting, but the trailing pivot falls below the
    # relative threshold, so the offending column is named
    eps = np.finfo(np.float64).eps
    A = sp.csc_array(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]))
    with pytest.raises(SingularMatrixError) as err:
        factor(A)
    assert err.value.column in (0, 1)
    assert "column" in str(err.value)


def test_pivot_small_only_beside_another_column_passes():
    # the pivot 1.0 is below eps * n * 1e20 but well above its own
    # column's bound, which is the one that counts
    A = sp.csc_array(np.array([[1e20, 0.0], [0.0, 1.0]]))
    lu = factor(A)
    np.testing.assert_array_equal(np.sort(np.abs(lu.U.diagonal())), [1.0, 1e20])


def test_widely_scaled_columns_pass_the_pivot_check():
    # columns scaled 1e-8 .. 1e8 around a matrix of condition number
    # 1.45: every pivot is large against its own column, so the check
    # must compare it with that column, which minimum degree moved
    rng = np.random.default_rng(16)
    n = 12
    C = np.eye(n) + 0.1 * (rng.random((n, n)) < 0.2) * rng.standard_normal((n, n))
    scales = np.logspace(-8, 8, n)
    lu = factor(sp.csc_array(C * scales))
    assert not np.array_equal(lu.perm_c, np.arange(n))
    np.testing.assert_allclose(lu.solve(C @ np.ones(n)) * scales, 1.0, rtol=1e-12)


def test_structurally_singular_raises():
    # an empty column makes SuperLU itself abort
    A = sp.csc_array(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        factor(A)


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        factor(sp.csc_array(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])))


@pytest.mark.parametrize("n, seed", [(8, 0), (25, 1), (60, 2), (60, 3)])
def test_permuted_factorization_identity(n, seed):
    A = _random_square(n, seed)
    lu = factor(A)
    Pr, Pc = lu.permutation_matrices()
    residual = abs(Pr @ A @ Pc - lu.L @ lu.U).max()
    assert residual <= 1e-12 * abs(A).max()
    # unit lower-triangular L, upper-triangular U
    assert np.all(lu.L.diagonal() == 1.0)
    upperL = sp.triu(lu.L, k=1)
    lowerU = sp.tril(lu.U, k=-1)
    assert (abs(upperL).max() if upperL.nnz else 0.0) == 0.0
    assert (abs(lowerU).max() if lowerU.nnz else 0.0) == 0.0


def test_solve_worked_example():
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    x = factor(A).solve(np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [2.0 / 9.0, -1.0 / 9.0], rtol=1e-15)


def test_solve_identity():
    rhs = np.array([3.0, -1.0, 7.5])
    x = factor(sp.eye_array(3, format="csc")).solve(rhs)
    np.testing.assert_array_equal(x, rhs)


def test_solve_complex_worked_example():
    A = sp.csc_array(np.array([[4 + 2j, 1.0], [1.0, 2.0]]))
    x = factor(A).solve(np.array([1.0, 0.0]))
    expected = np.array([2.0, -1.0]) / (7 + 4j)
    np.testing.assert_allclose(x, expected, rtol=1e-15)


def test_complex_rhs_through_real_factorization():
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    lu = factor(A)
    rhs = np.array([1.0 + 1.0j, 0.0])
    x = lu.solve(rhs)
    np.testing.assert_allclose(A.toarray() @ x, rhs, atol=1e-14)


def test_solve_transposed_symmetric_matches_solve(s1):
    A = assemble_shifted_augmented(s1, 0.0)
    lu = factor(A)
    rhs = np.array([1.0, 0.0])
    np.testing.assert_allclose(lu.solve_transposed(rhs), lu.solve(rhs), rtol=1e-15)
    np.testing.assert_allclose(lu.solve_transposed(rhs), [2.0 / 9.0, -1.0 / 9.0],
                               rtol=1e-15)


def test_solve_transposed_hand_example():
    A = sp.csc_array(np.array([[1.0, 1.0], [0.0, 1.0]]))
    x = factor(A).solve_transposed(np.array([0.0, 1.0]))
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-15)


def test_solve_transposed_is_plain_transpose():
    # complex matrix: trans solve must NOT conjugate
    A = sp.csc_array(np.array([[1j, 2.0], [0.0, 1.0]]))
    lu = factor(A)
    rhs = np.array([1.0 + 0j, 0.0])
    x = lu.solve_transposed(rhs)
    np.testing.assert_allclose(A.toarray().T @ x, rhs, atol=1e-14)


@pytest.mark.parametrize("n, seed", [(30, 5), (50, 6)])
def test_solve_transposed_equals_factoring_the_transpose(n, seed):
    A = _random_square(n, seed)
    rng = np.random.default_rng(seed + 1)
    rhs = rng.standard_normal(n)
    xa = factor(A).solve_transposed(rhs)
    xb = factor(A.T).solve(rhs)
    np.testing.assert_allclose(xa, xb, rtol=1e-12, atol=1e-14)


def test_rhs_dimension_checked():
    lu = factor(sp.eye_array(3, format="csc"))
    with pytest.raises(DimensionError):
        lu.solve(np.zeros(4))


@pytest.mark.parametrize("n1, n2, m, p, sym, seed", GRID[:4], ids=grid_ids()[:4])
def test_augmented_factorization_succeeds_off_spectrum(
    make_system, n1, n2, m, p, sym, seed
):
    system = make_system(n1, n2, m, p, seed, symmetric=sym)
    A = assemble_shifted_augmented(system, 0.3 + 100.0j)
    lu = factor(A)
    rhs = np.zeros(n1 + n2, dtype=complex)
    rhs[0] = 1.0
    x = lu.solve(rhs)
    np.testing.assert_allclose(A @ x, rhs, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_column_abs_max_matches_sparse_max(dtype):
    # empty columns (first, middle, last), an explicit zero, -0.0 and
    # negative entries; complex entries compare by modulus
    data = np.array([-3.0, 0.0, 2.0, -0.0, -7.5, 1.0], dtype=dtype)
    if dtype == np.complex128:
        data = data + 1j * np.array([4.0, 0.0, -1.0, 0.0, 0.5, -2.0])
    indices = np.array([0, 3, 1, 2, 0, 3])
    indptr = np.array([0, 0, 3, 3, 4, 6, 6])
    A = sp.csc_array((data, indices, indptr), shape=(4, 6))
    want = np.ravel(np.abs(A).max(axis=0).toarray())
    got = column_abs_max(A, np.abs(A.data))
    assert got.tobytes() == want.tobytes()
    assert got[0] == got[2] == got[5] == 0.0


def test_negligible_pivot_names_its_original_column_in_any_order():
    # columns 0 and 2 agree to within eps; whichever minimum degree
    # eliminates second gets a negligible pivot, and in every
    # arrangement of the matrix the error names one of those two
    eps = np.finfo(np.float64).eps
    A = np.array([[1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [1.0, 0.0, 1.0 + eps, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    for cols in itertools.permutations(range(4)):
        cols = list(cols)
        with pytest.raises(SingularMatrixError) as err:
            factor(sp.csc_array(A[cols][:, cols]))
        assert err.value.column in (cols.index(0), cols.index(2))


def _dense(A):
    """A's LU on the dense route, as through a route whose first LU
    filled in completely."""
    route = Route()
    route.fill = 1.0
    lu = factor(A, route)
    assert isinstance(lu._factors, _DenseLU)
    return lu


def _band(A):
    """A's LU on the band route, in the reverse Cuthill-McKee order of
    its pattern, as through a route whose first LU chose the band."""
    route = Route()
    route.fill = 0.0
    route._measure_band(as_canonical_csc(A), fill_nnz=np.inf)  # any band will do
    lu = factor(A, route)
    assert isinstance(lu._factors, _BandLU)
    return lu


ROUTES = {"sparse": factor, "dense": _dense, "band": _band}


def test_fill_threshold_chooses_the_route(monkeypatch):
    # the first LU's measured fill against DENSE_FILL: from the threshold
    # on the later LUs are dense, below it they are banded or sparse
    system = generate_synthetic(60, 12, 2, 2, seed=3)
    A = assemble_shifted_augmented(system, 2.0 + 30.0j)
    first = Route()
    lu = factor(A, first)
    assert first.fill == (lu.L.nnz + lu.U.nnz - lu.n) / lu.n**2
    monkeypatch.setattr(lu_module, "BAND_FILL", 0)  # no band is that cheap
    for threshold, kind in ((first.fill, "dense"), (np.nextafter(first.fill, 1.0), "sparse")):
        monkeypatch.setattr(lu_module, "DENSE_FILL", threshold)
        route = Route()
        factor(A, route)
        assert route.kind == kind
        later = factor(assemble_shifted_augmented(system, 5.0), route)
        assert isinstance(later._factors, _DenseLU) == (kind == "dense")
    banded = Route()
    factor(assemble_shifted_augmented(chain_system(400, 40, True), 1.0), banded)
    assert banded.kind == "sparse"


def test_band_threshold_chooses_the_route():
    # below DENSE_FILL, the RCM band's storage against BAND_FILL times the
    # first LU's fill: a chain goes banded, a 2-D grid Laplacian (band
    # about sqrt(n) wide) stays on SuperLU; generated systems go dense
    chain = assemble_shifted_augmented(chain_system(400, 40, True), 2.0 + 30.0j)
    generated = assemble_shifted_augmented(generate_synthetic(60, 12, 2, 2, seed=3), 1.0)
    for A, kind, later in ((chain, "band", _BandLU), (grid_laplacian(40), "sparse", spla.SuperLU),
                           (generated, "dense", _DenseLU)):
        route = Route()
        first = factor(A, route)
        assert route.kind == kind
        assert (route.order is not None) == (kind == "band")
        if kind == "band":
            fill_nnz = first.L.nnz + first.U.nnz - first.n
            assert (2 * route.kl + route.ku + 1) * first.n <= lu_module.BAND_FILL * fill_nnz
        assert isinstance(factor(A, route)._factors, later)


def test_band_route_measures_the_chains_rcm_band():
    route = Route()
    factor(assemble_shifted_augmented(chain_system(400, 40, True), 3.0), route)
    assert route.kind == "band"
    assert (route.kl, route.ku) == (2, 2)
    np.testing.assert_array_equal(np.sort(route.order), np.arange(440))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n, seed", [(8, 0), (25, 1), (60, 2)])
def test_dense_route_factorization_identity(n, seed, dtype):
    A = _random_square(n, seed).astype(dtype)
    if dtype == np.complex128:
        A = A + 1j * _random_square(n, seed + 10)
    lu = _dense(A)
    assert lu.dtype == dtype
    Pr, Pc = lu.permutation_matrices()
    np.testing.assert_array_equal(lu.perm_c, np.arange(n))
    np.testing.assert_array_equal(np.sort(lu.perm_r), np.arange(n))
    assert abs(Pr @ A @ Pc - lu.L @ lu.U).max() <= 1e-12 * abs(A).max()
    assert np.all(lu.L.diagonal() == 1.0)
    assert sp.triu(lu.L, k=1).nnz == 0 and sp.tril(lu.U, k=-1).nnz == 0


def test_dense_route_pivots_rows():
    # a zero leading entry forces a row swap, which perm_r must record
    A = sp.csc_array(np.array([[0.0, 2.0, 1.0], [3.0, 1.0, 0.0], [1.0, 0.0, 4.0]]))
    lu = _dense(A)
    assert not np.array_equal(lu.perm_r, np.arange(3))
    Pr, Pc = lu.permutation_matrices()
    np.testing.assert_allclose((Pr @ A @ Pc).toarray(), (lu.L @ lu.U).toarray(), atol=1e-15)


@pytest.mark.parametrize("route", ["sparse", "dense", "band"])
@pytest.mark.parametrize("factor_dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("rhs_dtype", [np.float64, np.complex128])
def test_solves_match_a_dense_solve_on_both_routes(route, factor_dtype, rhs_dtype):
    rng = np.random.default_rng(11)
    n = 40
    A = _random_square(n, 11).astype(factor_dtype)
    if factor_dtype == np.complex128:
        A = A + 1j * _random_square(n, 12)
    lu = ROUTES[route](A)
    dense = A.toarray()
    for shape in ((n,), (n, 3)):
        rhs = rng.standard_normal(shape).astype(rhs_dtype)
        if rhs_dtype == np.complex128:
            rhs = rhs + 1j * rng.standard_normal(shape)
        x, xt = lu.solve(rhs), lu.solve_transposed(rhs)
        assert x.shape == xt.shape == shape
        assert x.dtype == xt.dtype == np.result_type(factor_dtype, rhs_dtype)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(xt, np.linalg.solve(dense.T, rhs), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("route", ["sparse", "dense", "band"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_singular_matrix_names_its_column_on_both_routes(route, dtype):
    # columns 0 and 2 agree to within eps; the one eliminated second
    # gets the negligible pivot: column 0 after minimum degree, column 2
    # in the dense route's natural order, column 0 again in the band
    # route's RCM order (2, 0, 3, 1). An exactly zero pivot is named as
    # well: the last column eliminated, 2 in natural order and 0 in the
    # RCM order (2, 1, 0)
    eps = np.finfo(np.float64).eps
    near = sp.csc_array(np.array([[1.0, 0.0, 1.0, 0.0],
                                  [0.0, 1.0, 0.0, 0.0],
                                  [1.0, 0.0, 1.0 + eps, 0.0],
                                  [0.0, 0.0, 0.0, 1.0]], dtype=dtype))
    exact = sp.csc_array(np.array([[2.0, 1.0, 0.0],
                                   [0.0, 1.0, 1.0],
                                   [2.0, 2.0, 1.0]], dtype=dtype))
    run = ROUTES[route]
    with pytest.raises(SingularMatrixError) as err:
        run(near)
    assert err.value.column == (2 if route == "dense" else 0)
    if route != "sparse":  # SuperLU stops at an exact zero without naming it
        with pytest.raises(SingularMatrixError) as err:
            run(exact)
        assert err.value.column == (2 if route == "dense" else 0)
        assert "exactly zero" in str(err.value)


def test_dense_route_pivot_check_is_relative_to_the_column():
    # the pivot 1.0 is negligible against the other column, not its own
    A = sp.csc_array(np.array([[1e20, 0.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(np.abs(_dense(A).U.diagonal()), [1e20, 1.0])


def test_band_route_pivot_check_is_relative_to_the_column():
    # as on the dense route, through the RCM order (1, 0) of the columns
    A = sp.csc_array(np.array([[1e20, 0.0], [0.0, 1.0]]))
    lu = _band(A)
    np.testing.assert_array_equal(np.abs(lu.U.diagonal()), [1.0, 1e20])
    np.testing.assert_array_equal(lu.perm_c, [1, 0])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n, seed", [(8, 0), (25, 1), (60, 2)])
def test_band_route_factorization_identity(n, seed, dtype):
    # L, U and the permutations are built from the band factors when
    # first read, and only then
    A = _random_square(n, seed).astype(dtype)
    if dtype == np.complex128:
        A = A + 1j * _random_square(n, seed + 10)
    lu = _band(A)
    assert lu.dtype == dtype
    lu.solve(np.ones(n))
    assert "_triangular" not in vars(lu._factors)
    Pr, Pc = lu.permutation_matrices()
    np.testing.assert_array_equal(np.sort(lu.perm_r), np.arange(n))
    np.testing.assert_array_equal(np.sort(lu.perm_c), np.arange(n))
    assert abs(Pr @ A @ Pc - lu.L @ lu.U).max() <= 1e-12 * abs(A).max()
    assert np.all(lu.L.diagonal() == 1.0)
    assert sp.triu(lu.L, k=1).nnz == 0 and sp.tril(lu.U, k=-1).nnz == 0
    # the factors store the whole band: kl + 1 entries of each column of
    # L and kl + ku + 1 of U, less the corners
    kl, ku = lu._factors._kl, lu._factors._ku
    assert lu.L.nnz == sum(min(kl, n - 1 - j) + 1 for j in range(n))
    assert lu.U.nnz == sum(min(kl + ku, j) + 1 for j in range(n))


def test_band_route_pivots_rows_through_a_zero_diagonal():
    # a tridiagonal matrix whose leading diagonal entry (and another
    # inside the band) is zero: gbtrf must swap rows, which perm_r
    # records once L is built from its deferred interchanges
    A = sp.csc_array(np.array([[0.0, 2.0, 0.0, 0.0, 0.0],
                               [3.0, 1.0, 1.0, 0.0, 0.0],
                               [0.0, 1.0, 4.0, 2.0, 0.0],
                               [0.0, 0.0, 5.0, 0.0, 1.0],
                               [0.0, 0.0, 0.0, 1.0, 2.0]]))
    route = Route()
    route.fill, route.order = 0.0, np.arange(5, dtype=np.int32)  # already banded
    lu = factor(A, route)
    assert np.count_nonzero(lu._factors._piv != np.arange(5)) >= 2
    assert not np.array_equal(lu.perm_r, np.arange(5))
    Pr, Pc = lu.permutation_matrices()
    np.testing.assert_allclose((Pr @ A @ Pc).toarray(), (lu.L @ lu.U).toarray(), atol=1e-15)
    rhs = np.arange(1.0, 6.0)
    np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(A.toarray(), rhs), rtol=1e-14)
    np.testing.assert_allclose(lu.solve_transposed(rhs), np.linalg.solve(A.toarray().T, rhs),
                               rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(4, 60),
    n2=st.integers(1, 15),
    m=st.integers(1, 3),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    symmetric=st.booleans(),
    shared=st.booleans(),
    re=st.floats(-1e4, 1e4),
    im=st.sampled_from([0.0, 1.0, -30.0, 2e3]),
)
def test_augmented_solves_agree_with_a_dense_solve_on_every_route(
    n1, n2, m, p, seed, symmetric, shared, re, im
):
    # whichever arithmetic and route factor_augmented takes (float64 or
    # complex, SuperLU or LAPACK), its solves are those of the matrix
    if symmetric:
        p = m
    system = generate_synthetic(n1, n2, m, p, seed=seed, symmetric=symmetric)
    sigma = complex(re, im)
    route = None
    if shared:  # a first LU elsewhere measures the fill and picks the route
        route = Route()
        factor_augmented(system, 7.0 + 300.0j, route)
    lu = factor_augmented(system, sigma, route)
    assert lu.dtype == (np.float64 if im == 0.0 else np.complex128)
    A = assemble_shifted_augmented(system, sigma).toarray().astype(np.complex128)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((A.shape[0], 2)) + 1j * rng.standard_normal((A.shape[0], 2))
    for got, matrix in ((lu.solve(rhs), A), (lu.solve_transposed(rhs), A.T)):
        want = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 50),
    kl=st.integers(0, 4),
    ku=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    complex_values=st.booleans(),
)
def test_band_route_recovers_a_scrambled_band(n, kl, ku, seed, complex_values):
    # a full band of random values, its rows and columns scrambled by one
    # random permutation: the route's RCM order takes it back to a band
    # no wider than the original, and its solves are the matrix's
    rng = np.random.default_rng(seed)
    kl, ku = min(kl, n - 1), min(ku, n - 1)
    offsets = range(-kl, ku + 1)
    diagonals = [rng.standard_normal(n - abs(k)) for k in offsets]
    if complex_values:
        diagonals = [d + 1j * rng.standard_normal(d.shape) for d in diagonals]
    # well conditioned, yet the diagonal is not always the largest entry
    # of its column, so rows get swapped
    diagonals[kl] = diagonals[kl] + 3.0 * np.sign(diagonals[kl].real)
    band = sp.diags_array(diagonals, offsets=list(offsets), shape=(n, n)).toarray()
    scramble = rng.permutation(n)
    A = sp.csc_array(band[scramble][:, scramble])
    route = Route()
    # however small or filled in, the matrix takes the band route
    with mock.patch.multiple(lu_module, DENSE_FILL=np.inf, BAND_FILL=np.inf):
        factor(A, route)
        assert route.kind == "band"
        lu = factor(A, route)
    assert max(route.kl, route.ku) <= max(kl, ku)
    assert isinstance(lu._factors, _BandLU)
    dense = A.toarray()
    rhs = rng.standard_normal((n, 2))
    for got, matrix in ((lu.solve(rhs), dense), (lu.solve_transposed(rhs), dense.T)):
        want = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
