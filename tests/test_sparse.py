"""Canonical CSC storage, symmetry checks and the shifted augmented matrix."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from morkit.sparse import (
    BandMatrix,
    ShiftedAugmented,
    SymmetricBandMatrix,
    as_canonical_csc,
    assemble_shifted_augmented,
    is_symmetric,
)
from morkit.system import SecondOrderIndex1System, generate_synthetic

from conftest import band_of, chain_system


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


def _stored_entries(A):
    """{(row, col): value} of every entry CSC `A` stores, zeros included."""
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    return {(int(i), int(j)): v for i, j, v in zip(A.indices, cols, A.data)}


def _block_pattern(system):
    """Every (row, col) of the augmented matrix that some block stores,
    zeros included: the pattern the assembly keeps at every sigma."""
    n1 = system.n1
    placed = [(system.M11, 0, 0), (system.L11, 0, 0), (system.K11, 0, 0),
              (system.K12, 0, n1), (system.K21, n1, 0), (system.K22, n1, n1)]
    return {(i + row0, j + col0) for block, row0, col0 in placed
            for i, j in _stored_entries(block)}


def _check_against_the_bmat_route(got, want, system, value=lambda v: v):
    """`got` stores exactly the blocks' pattern, canonically; on every
    entry `want` (the bmat route) stores, `value` of want's entry bit for
    bit, and an exact zero on the entries of the pattern it drops."""
    assert got.shape == want.shape
    for attr in ("indptr", "indices"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype, attr
    assert got.has_canonical_format
    stored, kept = _stored_entries(got), _stored_entries(want)
    assert set(stored) == _block_pattern(system)
    assert set(kept) <= set(stored)
    for key, v in stored.items():
        if key in kept:
            assert np.asarray(v).tobytes() == np.asarray(value(kept[key])).tobytes(), key
        else:
            assert v == 0, key


@pytest.mark.parametrize("sigma", [0.0, 1.0, -2.5, 3j, 0.25 - 4j, 1e3 + 2e4j])
@pytest.mark.parametrize("kind", ["awkward-int32", "awkward-int64", "generated"])
def test_augmented_is_bytewise_the_bmat_route(kind, sigma):
    # the same pattern at every sigma: entries of the shifted block that
    # cancel (at sigma = 0 and 1 here) are stored as zeros
    if kind.startswith("awkward"):
        system = _awkward_system(np.int32 if kind.endswith("32") else np.int64)
        assert np.signbit(system.K21.data).any()  # -0.0 and explicit zeros survive
        assert (system.K22.data == 0).any()
    else:
        system = generate_synthetic(30, 8, 2, 3, seed=4, symmetric=False)
    got = assemble_shifted_augmented(system, sigma)
    want = _bmat_reference(system, sigma)
    assert got.data.dtype == want.data.dtype
    _check_against_the_bmat_route(got, want, system)


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
    _check_against_the_bmat_route(got, want, system, value=np.real)
    assert not want.data.imag.any()


def _unband(band):
    """B = A[order][:, order] as a dense array, from band storage."""
    n, kl, ku = band.data.shape[1], band.kl, band.ku
    B = np.zeros((n, n), dtype=band.data.dtype)
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            B[i, j] = band.data[kl + ku + i - j, j]
    return B


@pytest.mark.parametrize("sigma", [0.0, 1.0, -2.5, 3j, 0.25 - 4j, 1e3 + 2e4j])
@pytest.mark.parametrize("kind", ["awkward-int32", "awkward-int64", "generated"])
def test_shifted_band_is_the_assembled_matrix_in_band_storage(kind, sigma):
    # scattered from the one index map, in any order of the rows and
    # columns: the values of the CSC assembly, the same dtype and band,
    # and the moduli the pivot check reads. Entries that cancel at this
    # sigma stay inside the band as zeros
    if kind.startswith("awkward"):
        system = _awkward_system(np.int32 if kind.endswith("32") else np.int64)
    else:
        system = generate_synthetic(30, 8, 2, 3, seed=4, symmetric=False)
    A = assemble_shifted_augmented(system, sigma)
    order = np.random.default_rng(7).permutation(A.shape[0]).astype(np.int32)
    shifted = ShiftedAugmented(system)
    band = shifted.band(sigma, shifted.band_layout(order))
    assert band.data.dtype == A.dtype and band.data.flags.f_contiguous
    want = A.toarray()[order][:, order]
    np.testing.assert_array_equal(_unband(band), want)
    csc = band_of(A, order)
    assert (csc.kl, csc.ku) == (band.kl, band.ku)
    np.testing.assert_array_equal(_unband(csc), want)
    for b in (band, csc):
        assert b.abs_max == np.abs(want).max()
        np.testing.assert_array_equal(b.column_abs_max(), np.abs(want).max(axis=0))


@pytest.mark.parametrize("sigma", [0.0, 1.0, -2.5, 3j, 0.25 - 4j])
@pytest.mark.parametrize("kind", ["chain", "generated"])
def test_symmetric_band_is_the_lower_triangle_of_the_assembled_matrix(kind, sigma):
    # a system equal to its transpose, in any order of the rows and
    # columns: at a real sigma the lower storage holds the permuted
    # matrix's lower triangle, with the whole matrix's moduli, and full()
    # is its whole band; a complex sigma takes the whole band at once
    system = chain_system(40, 6, True) if kind == "chain" else generate_synthetic(
        30, 8, 2, 2, seed=4)
    shifted = ShiftedAugmented(system)
    assert shifted.is_symmetric()
    A = shifted.csc(sigma)
    order = np.random.default_rng(3).permutation(A.shape[0]).astype(np.int32)
    layout = shifted.lower_band_layout(shifted.band_layout(order))
    assert layout.kl == layout.ku
    band = shifted.band(sigma, layout)
    want = A.toarray()[order][:, order]
    whole = band
    if complex(sigma).imag == 0.0:
        assert isinstance(band, SymmetricBandMatrix)
        assert band.data.dtype == np.float64 and band.data.flags.f_contiguous
        n, kd = want.shape[0], layout.kl
        lower = np.zeros_like(band.data)
        for d in range(kd + 1):
            lower[d, : n - d] = np.diagonal(want, -d)
        np.testing.assert_array_equal(band.data, lower)
        assert band.abs_max == np.abs(want).max()
        np.testing.assert_array_equal(band.column_abs_max(), np.abs(want).max(axis=0))
        whole = band.full()
    assert isinstance(whole, BandMatrix)
    np.testing.assert_array_equal(_unband(whole), want)
    assert whole.abs_max == np.abs(want).max()
    # the layout without the lower maps scatters the same whole band
    np.testing.assert_array_equal(
        shifted.band(sigma, shifted.band_layout(order)).data, whole.data)


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, 3e4, -1e-3])


def _entries(draw, shape, cells=None):
    """{(row, col): value} on a drawn subset of `cells` (default: all of
    `shape`), zeros and -0.0 among the values."""
    if cells is None:
        cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return {cell: draw(_VALUES) for cell, kept in zip(cells, keep) if kept}


@st.composite
def _shifted_systems(draw):
    """(system, sigma, other sigma): a small system whose M11, L11 and
    K11 patterns are independent, shared or disjoint, and a shift that
    is real, complex, or real with one S11 entry cancelling exactly."""
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    layout = draw(st.sampled_from(["independent", "shared", "disjoint"]))
    cells = [(i, j) for i in range(n1) for j in range(n1)]
    if layout == "independent":
        M, L, K = (_entries(draw, (n1, n1)) for _ in range(3))
    elif layout == "shared":
        M = _entries(draw, (n1, n1))
        L, K = ({cell: draw(_VALUES) for cell in M} for _ in range(2))
    else:
        owner = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
        M, L, K = ({cell: draw(_VALUES) for cell, o in zip(cells, owner) if o == k}
                   for k in range(3))
    kind = draw(st.sampled_from(["real", "complex", "cancel"]))
    sigma = draw(st.floats(-50.0, 50.0, allow_nan=False, width=32))
    if kind == "complex":
        sigma = complex(sigma, draw(st.floats(-50.0, 50.0, width=32).filter(bool)))
    elif kind == "cancel":  # K11 takes the value that cancels one entry
        cell = draw(st.sampled_from(cells))
        m, l = M.get(cell, 0.0), L.get(cell, 0.0)
        K[cell] = -((sigma * sigma) * m + sigma * l)
    system = SecondOrderIndex1System(
        M11=_stored(M, (n1, n1)), L11=_stored(L, (n1, n1)), K11=_stored(K, (n1, n1)),
        K12=_stored(_entries(draw, (n1, n2)), (n1, n2)),
        K21=_stored(_entries(draw, (n2, n1)), (n2, n1)),
        K22=_stored(_entries(draw, (n2, n2)), (n2, n2)),
        F1=np.ones((n1, 1)), F2=np.ones((n2, 1)),
        H1=np.ones((1, n1)), H2=np.ones((1, n2)), Da=np.zeros((1, 1)),
    )
    return system, sigma, draw(st.sampled_from([0.0, 2.0, 1.5 - 3j]))


@settings(max_examples=200, deadline=None)
@given(case=_shifted_systems(), seed=st.integers(0, 2**16))
def test_one_map_is_the_dense_augmented_matrix(case, seed):
    # one index map: its CSC is [[s^2 M + s L + K, K12], [K21, K22]] entry
    # for entry on the blocks' pattern at every sigma, and its band in
    # any order is that matrix permuted, with the moduli the pivot check
    # reads
    system, sigma, other = case
    dense = [[b.toarray() for b in row] for row in
             ((system.M11, system.L11, system.K11), (system.K12, system.K21, system.K22))]
    (M, L, K), (K12, K21, K22) = dense
    s = complex(sigma).real if complex(sigma).imag == 0.0 else complex(sigma)
    want = np.block([[(s * s) * M + s * L + K, K12], [K21, K22]])
    shifted = ShiftedAugmented(system)
    A = shifted.csc(sigma)
    assert A.dtype == (np.float64 if complex(sigma).imag == 0.0 else np.complex128)
    assert A.has_canonical_format
    np.testing.assert_array_equal(A.toarray(), want)
    assert set(_stored_entries(A)) == _block_pattern(system)
    B = shifted.csc(other)
    assert A.indptr.tobytes() == B.indptr.tobytes()
    assert A.indices.tobytes() == B.indices.tobytes()
    order = np.random.default_rng(seed).permutation(A.shape[0]).astype(np.int32)
    band = shifted.band(sigma, shifted.band_layout(order))
    assert band.data.dtype == A.dtype
    permuted = want[order][:, order]
    np.testing.assert_array_equal(_unband(band), permuted)
    assert band.abs_max == np.abs(want).max()
    np.testing.assert_array_equal(band.column_abs_max(), np.abs(permuted).max(axis=0))
