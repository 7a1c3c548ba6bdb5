"""Canonical CSC storage, symmetry checks and the shifted augmented matrix."""

import numpy as np
import pytest
import scipy.sparse as sp

from morkit.sparse import (
    BandMatrix,
    ShiftedBand,
    as_canonical_csc,
    assemble_shifted_augmented,
    is_symmetric,
)
from morkit.system import SecondOrderIndex1System, generate_synthetic


def test_as_canonical_csc_idempotent():
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    B = as_canonical_csc(A)
    assert B.has_sorted_indices
    np.testing.assert_array_equal(A.toarray(), B.toarray())


def test_as_canonical_csc_sums_duplicates_and_sorts():
    # unsorted, duplicate-bearing input comes out canonical
    rows, cols = np.array([2, 0, 2, 1]), np.array([0, 0, 0, 2])
    A = sp.coo_array((np.array([1.0, 2.0, 4.0, 3.0]), (rows, cols)), shape=(3, 3))
    B = as_canonical_csc(A, dtype=np.complex128)
    assert B.has_sorted_indices
    assert B.dtype == np.complex128
    assert B.nnz == 3
    assert B[2, 0] == 5.0


def test_is_symmetric_exact():
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    assert is_symmetric(A, tol=0.0)


def test_is_symmetric_rejects_upper_shift():
    A = sp.csc_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_symmetric(A, tol=1e-12)


def test_is_symmetric_tolerance_boundary():
    A = sp.csc_array(np.array([[1.0, 1 + 5e-13], [1.0, 1.0]]))
    assert is_symmetric(A, tol=1e-12)
    assert not is_symmetric(A, tol=1e-13)


def test_is_symmetric_rectangular_is_false():
    assert not is_symmetric(sp.csc_array(np.zeros((2, 3))), tol=1.0)


def test_augmented_sigma_zero_is_stiffness(s1):
    A = assemble_shifted_augmented(s1, 0.0)
    assert A.dtype == np.float64
    np.testing.assert_array_equal(A.toarray(), [[5.0, 1.0], [1.0, 2.0]])


def test_augmented_sigma_j(s1):
    A = assemble_shifted_augmented(s1, 1j)
    np.testing.assert_allclose(A.toarray(), [[4.0 + 2.0j, 1.0], [1.0, 2.0]], atol=0.0)


def _bmat_reference(system, sigma, dtype=None):
    """The shifted augmented matrix by the plain block route: every block
    made canonical CSC of `dtype` (default: float64 at a real sigma,
    complex128 otherwise), stacked by ``sp.bmat``, canonicalized."""
    sigma = complex(sigma)
    if dtype is None:
        dtype = np.float64 if sigma.imag == 0.0 else np.complex128
    if dtype == np.float64:
        sigma = sigma.real
    S11 = (sigma * sigma) * system.M11 + sigma * system.L11 + system.K11.astype(dtype)
    blocks = [[S11, system.K12], [system.K21, system.K22]]
    out = sp.bmat(
        [[as_canonical_csc(b, dtype=dtype) for b in row] for row in blocks],
        format="csc",
    )
    return as_canonical_csc(out)


def _stored(entries, shape, index_dtype=np.int32):
    """CSC block storing exactly `entries` {(row, col): value}, zeros included."""
    cols = [sorted((r, v) for (r, c), v in entries.items() if c == j) for j in range(shape[1])]
    indptr = np.cumsum([0] + [len(col) for col in cols]).astype(index_dtype)
    indices = np.array([r for col in cols for r, _ in col], dtype=index_dtype)
    data = np.array([v for col in cols for _, v in col], dtype=np.float64)
    return sp.csc_array((data, indices, indptr), shape=shape)


def _awkward_system(coupling_index):
    """Nonsymmetric 3+2 system with explicit zeros and -0.0 in every
    block kind, entries that cancel at sigma = 0 and sigma = 1, an empty
    column in K12 and `coupling_index` indices on K12 and K21."""
    return SecondOrderIndex1System(
        # (1, 1) cancels at sigma = 1: 1 - 1 + 0; (2, 0) only in M11, gone at 0
        M11=_stored({(0, 0): 2.0, (1, 1): 1.0, (2, 0): 3.0, (2, 2): 1.0}, (3, 3)),
        L11=_stored({(0, 0): 0.5, (1, 1): -1.0, (0, 2): -0.0}, (3, 3)),
        K11=_stored({(0, 0): 4.0, (1, 1): 0.0, (2, 2): -0.0, (1, 2): 7.0}, (3, 3)),
        K12=_stored({(0, 0): 1.0, (2, 0): 0.0}, (3, 2), coupling_index),
        K21=_stored({(0, 1): -0.0, (1, 0): 2.0, (1, 2): 5.0}, (2, 3), coupling_index),
        K22=_stored({(0, 0): 3.0, (1, 1): 0.0, (0, 1): -2.0}, (2, 2)),
        F1=np.ones((3, 1)), F2=np.ones((2, 1)),
        H1=np.ones((2, 3)), H2=np.ones((2, 2)), Da=np.zeros((2, 1)),
    )


@pytest.mark.parametrize("sigma", [0.0, 1.0, -2.5, 3j, 0.25 - 4j, 1e3 + 2e4j])
@pytest.mark.parametrize("kind", ["awkward-int32", "awkward-int64", "generated"])
def test_augmented_is_bytewise_the_bmat_route(kind, sigma):
    if kind.startswith("awkward"):
        system = _awkward_system(np.int32 if kind.endswith("32") else np.int64)
        assert np.signbit(system.K21.data).any()  # -0.0 and explicit zeros survive
        assert (system.K22.data == 0).any()
    else:
        system = generate_synthetic(30, 8, 2, 3, seed=4, symmetric=False)
    got = assemble_shifted_augmented(system, sigma)
    want = _bmat_reference(system, sigma)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert a.tobytes() == b.tobytes(), attr


@pytest.mark.parametrize("sigma", [0.0, 1.0, -2.5, 7e3, complex(-1.76e7, 0.0)])
@pytest.mark.parametrize("kind", ["awkward-int32", "generated"])
def test_real_shift_assembles_the_real_parts_of_the_complex_route(kind, sigma):
    # float64 arithmetic at a real shift is exact: its values are the
    # real parts of the complex route's, bit for bit, on the same pattern
    if kind.startswith("awkward"):
        system = _awkward_system(np.int32)
    else:
        system = generate_synthetic(30, 8, 2, 3, seed=4, symmetric=False)
    got = assemble_shifted_augmented(system, sigma)
    assert got.dtype == np.float64
    want = _bmat_reference(system, sigma, dtype=np.complex128)
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.tobytes() == np.ascontiguousarray(want.data.real).tobytes()
    assert not want.data.imag.any()


def _unband(band):
    """B = A[order][:, order] as a dense array, from band storage."""
    n, kl, ku = band.n, band.kl, band.ku
    B = np.zeros((n, n), dtype=band.data.dtype)
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            B[i, j] = band.data[kl + ku + i - j, j]
    return B


@pytest.mark.parametrize("sigma", [0.0, 1.0, -2.5, 3j, 0.25 - 4j, 1e3 + 2e4j])
@pytest.mark.parametrize("kind", ["awkward-int32", "awkward-int64", "generated"])
def test_shifted_band_is_the_assembled_matrix_in_band_storage(kind, sigma):
    # scattered straight from the blocks, in any order of the rows and
    # columns: the values of the CSC assembly, the same dtype, and the
    # moduli the pivot check reads. Entries that cancel at this sigma
    # stay inside the band as zeros
    if kind.startswith("awkward"):
        system = _awkward_system(np.int32 if kind.endswith("32") else np.int64)
    else:
        system = generate_synthetic(30, 8, 2, 3, seed=4, symmetric=False)
    A = assemble_shifted_augmented(system, sigma)
    order = np.random.default_rng(7).permutation(A.shape[0]).astype(np.int32)
    band = ShiftedBand(system, order)(sigma)
    assert band.data.dtype == A.dtype and band.data.flags.f_contiguous
    want = A.toarray()[order][:, order]
    np.testing.assert_array_equal(_unband(band), want)
    csc = BandMatrix.from_csc(A, order)
    assert csc.kl <= band.kl and csc.ku <= band.ku
    np.testing.assert_array_equal(_unband(csc), want)
    for b in (band, csc):
        assert b.abs_max == np.abs(want).max()
        np.testing.assert_array_equal(b.column_abs_max(), np.abs(want).max(axis=0))
