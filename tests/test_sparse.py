"""Canonical CSC storage, symmetry checks and the shifted augmented matrix."""

import numpy as np
import scipy.sparse as sp

from morkit.sparse import as_canonical_csc, assemble_shifted_augmented, is_symmetric


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
    assert A.dtype == np.complex128
    np.testing.assert_array_equal(A.toarray(), [[5.0, 1.0], [1.0, 2.0]])


def test_augmented_sigma_j(s1):
    A = assemble_shifted_augmented(s1, 1j)
    np.testing.assert_allclose(A.toarray(), [[4.0 + 2.0j, 1.0], [1.0, 2.0]], atol=0.0)
