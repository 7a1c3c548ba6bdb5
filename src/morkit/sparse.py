"""Sparse block storage and assembly.

All sparse blocks in this package live in compressed-sparse-column (CSC)
form with canonical structure: row indices sorted within each column and
duplicate entries summed. Values are float64 or complex128. The one
exception is :class:`BandMatrix`, LAPACK's band storage of a matrix whose
rows and columns were reordered into a band, which the band route of
:mod:`morkit.lu` factors.
"""

import numpy as np
import scipy.sparse as sp

COMPLEX_DTYPE = np.complex128


def as_canonical_csc(A, dtype=None):
    """Return `A` as a canonical csc_array (copying only when needed),
    with int32 indices whenever they fit, as scipy reads them from file."""
    out = sp.csc_array(A if dtype is None else A.astype(dtype))
    if not out.has_canonical_format:
        out.sum_duplicates()
    out.sort_indices()
    idx = sp.get_index_dtype(maxval=max(out.nnz, *out.shape))
    if out.indptr.dtype != idx:
        out.indices, out.indptr = out.indices.astype(idx), out.indptr.astype(idx)
    return out


def is_symmetric(A, tol=0.0):
    """Check ``max |A - A^T| <= tol`` (exact equality for ``tol=0``)."""
    if A.shape[0] != A.shape[1]:
        return False
    diff = abs(A - A.T)
    return (diff.max() if diff.nnz else 0.0) <= tol


def assemble_shifted_augmented(system, sigma):
    """Assemble the augmented sparse matrix for one interpolation shift::

        [ sigma^2 M11 + sigma L11 + K11   K12 ]
        [            K21                  K22 ]

    It drives the right tangential solves; the left solves use its
    transpose through the same factorization.

    Returns
    -------
    scipy.sparse.csc_array, shape (n1+n2, n1+n2)
        float64 at a real sigma, whose values are the real parts of the
        complex128 matrix the same sigma with a zero imaginary part
        would give; complex128 otherwise. Canonical, as the system's
        blocks are; entries of the shifted block that cancel to zero are
        dropped, explicit zeros of the other blocks are kept.
    """
    sigma = complex(sigma)
    if sigma.imag == 0.0:  # real arithmetic is exact here, and cheaper to factor
        sigma, K11 = sigma.real, system.K11
    else:
        K11 = system.K11.astype(COMPLEX_DTYPE)
    S11 = (sigma * sigma) * system.M11 + sigma * system.L11 + K11
    # the other blocks are float64, as the system stores every sparse block
    return _stack_block_columns(
        ((S11, system.K21), (system.K12, system.K22)), system.n1, S11.dtype)


def _stack_block_columns(block_columns, n_top, dtype):
    """CSC matrix of `dtype` from block columns, each a (top, bottom) pair
    of canonical CSC blocks whose tops have `n_top` rows.

    Each column holds the top block's entries, then the bottom block's
    moved down by `n_top`: the arrays ``sp.bmat(..., format="csc")``
    builds, written straight into place in one pass per block.
    """
    blocks = [block for column in block_columns for block in column]
    nnz = sum(block.nnz for block in blocks)
    n_rows = n_top + block_columns[0][1].shape[0]
    n_cols = sum(top.shape[1] for top, _ in block_columns)
    idx = sp.get_index_dtype([b.indptr for b in blocks], maxval=max(nnz, n_rows, n_cols))
    data = np.empty(nnz, dtype)
    indices = np.empty(nnz, idx)
    indptr = np.zeros(n_cols + 1, idx)
    col = start = 0
    for top, bottom in block_columns:
        tp, bp = top.indptr, bottom.indptr
        cols = slice(col + 1, col + 1 + top.shape[1])
        np.add(tp[1:], bp[1:], out=indptr[cols])
        indptr[cols] += start
        # entry k of the top block's column c lands at start + k + bp[c],
        # entry k of the bottom block's column c at start + k + tp[c + 1]
        at = np.arange(start, start + top.nnz, dtype=idx) + np.repeat(bp[:-1], np.diff(tp))
        data[at] = top.data
        indices[at] = top.indices
        at = np.arange(start, start + bottom.nnz, dtype=idx) + np.repeat(tp[1:], np.diff(bp))
        data[at] = bottom.data
        indices[at] = bottom.indices + n_top
        col = cols.stop - 1
        start += top.nnz + bottom.nnz
    return sp.csc_array((data, indices, indptr), shape=(n_rows, n_cols))


class BandMatrix:
    """A square matrix A in LAPACK band storage, taken in the order `order`.

    B = A[order][:, order] has kl subdiagonals and ku superdiagonals, and
    ``data`` (Fortran order, 2 kl + ku + 1 rows) holds B[i, j] at
    ``data[kl + ku + i - j, j]``, as ``?gbtrf`` reads it: its first kl
    rows are the factorization's workspace. Entries inside the band that
    A does not store are zeros.

    The pivot check reads A's moduli after ``?gbtrf`` has overwritten
    ``data``: ``abs_max`` is the largest modulus in A, and
    ``column_abs_max()`` returns the largest in each of B's columns.
    """

    def __init__(self, data, kl, ku, order, abs_max, column_abs_max):
        self.data, self.kl, self.ku, self.order = data, kl, ku, order
        self.abs_max, self.column_abs_max = abs_max, column_abs_max

    @property
    def n(self):
        return self.data.shape[1]

    @classmethod
    def from_csc(cls, A, order):
        """The band of canonical CSC `A` in `order`, as narrow as A's
        stored entries allow."""
        i, j = _band_coordinates(A, inverse_order(order))
        kl, ku = _bandwidths(i, j)
        data = _band_zeros(kl, ku, A.shape[0], A.dtype)
        data[kl + ku + i - j, j] = A.data
        colmax = np.abs(data[kl:]).max(axis=0, initial=0.0)
        return cls(data, kl, ku, order, colmax.max(initial=0.0), lambda: colmax)


class ShiftedBand:
    """:func:`assemble_shifted_augmented` straight into band storage.

    Built once per system and `order` (an ordering of the augmented
    matrix's rows and columns). It keeps the values of M11, L11 and K11
    aligned on the union of their patterns, the fixed blocks' values,
    and where each lands in the band storage, sorted by position.
    Calling it at a shift computes the shifted block on that union and
    scatters both parts into place, skipping the CSC assembly. The band
    covers every entry the blocks store, so it does not depend on
    entries of the shifted block that cancel at one sigma.
    """

    def __init__(self, system, order):
        self.system, self.order = system, order
        n1 = system.n1
        self.n = n1 + system.n2
        rank = inverse_order(order)
        shifted = [system.M11, system.L11, system.K11]
        fixed = [(system.K12, 0, n1), (system.K21, n1, 0), (system.K22, n1, n1)]
        coords = [_band_coordinates(b, rank) for b in shifted]
        coords += [_band_coordinates(b, rank, row0, col0) for b, row0, col0 in fixed]
        self.kl, self.ku = _bandwidths(*(np.concatenate(c) for c in zip(*coords)))
        ldab = 2 * self.kl + self.ku + 1
        at = [(self.kl + self.ku + i - j) + j * ldab for i, j in coords]  # Fortran-order flat
        union = np.sort(np.concatenate(at[:3]))
        self._at = union[np.diff(union, prepend=-1) != 0]
        self._shifted = []  # M11, L11, K11 values on the union, 0 where absent
        for block, where in zip(shifted, at[:3]):
            values = np.zeros(self._at.shape[0])
            values[np.searchsorted(self._at, where)] = block.data
            self._shifted.append(values)
        at_fixed = np.concatenate(at[3:])
        by_position = np.argsort(at_fixed)
        self._at_fixed = at_fixed[by_position]
        self._fixed = np.concatenate([b.data for b, _, _ in fixed])[by_position]
        # the fixed blocks' moduli, for the pivot check
        self._colmax_fixed = np.zeros(self.n)
        np.maximum.at(self._colmax_fixed, self._at_fixed // ldab, np.abs(self._fixed))
        self._abs_max_fixed = self._colmax_fixed.max(initial=0.0)
        # the shifted block's entries run column by column, as their
        # positions are sorted: where each column's run starts
        columns = self._at // ldab
        self._starts = np.flatnonzero(np.diff(columns, prepend=-1))
        self._columns = columns[self._starts]

    def __call__(self, sigma):
        """The augmented matrix at `sigma` as a :class:`BandMatrix`,
        float64 at a real sigma (as :func:`assemble_shifted_augmented`)
        and complex128 otherwise."""
        sigma = complex(sigma)
        dtype = COMPLEX_DTYPE
        if sigma.imag == 0.0:
            sigma, dtype = sigma.real, np.float64
        M, L, K = self._shifted
        s11 = (sigma * sigma) * M + sigma * L + K  # summed as the CSC assembly adds
        data = _band_zeros(self.kl, self.ku, self.n, dtype)
        flat = data.reshape(-1, order="F")  # a view: data is Fortran-contiguous
        flat[self._at] = s11
        flat[self._at_fixed] = self._fixed
        abs11 = np.abs(s11)

        def column_abs_max():
            colmax, cols = self._colmax_fixed.copy(), self._columns
            colmax[cols] = np.maximum(colmax[cols], np.maximum.reduceat(abs11, self._starts))
            return colmax

        abs_max = max(abs11.max(initial=0.0), self._abs_max_fixed)
        return BandMatrix(data, self.kl, self.ku, self.order, abs_max, column_abs_max)


def bandwidths(A, order):
    """(kl, ku) of canonical CSC `A` with rows and columns taken in `order`."""
    return _bandwidths(*_band_coordinates(A, inverse_order(order)))


def _band_coordinates(block, rank, row0=0, col0=0):
    """Row and column in B = A[order][:, order] (``rank``: the inverse of
    `order`) of every stored entry of CSC `block`, which sits at
    (`row0`, `col0`) in A."""
    cols = np.repeat(np.arange(col0, col0 + block.shape[1]), np.diff(block.indptr))
    return rank[block.indices + row0].astype(np.intp), rank[cols].astype(np.intp)


def inverse_order(order):
    """The inverse permutation of `order`: ``rank[order[k]] = k``."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0], dtype=order.dtype)
    return rank


def _bandwidths(i, j):
    """(kl, ku): the most any (i, j) lies below and above the diagonal."""
    d = i - j
    return (max(int(d.max()), 0), max(-int(d.min()), 0)) if d.size else (0, 0)


def _band_zeros(kl, ku, n, dtype):
    return np.zeros((2 * kl + ku + 1, n), dtype=dtype, order="F")
