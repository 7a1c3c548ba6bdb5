"""Sparse block storage and assembly.

All sparse blocks in this package live in compressed-sparse-column (CSC)
form with canonical structure: row indices sorted within each column and
duplicate entries summed. Values are float64 or complex128. The one
exception is :class:`BandMatrix`, LAPACK's band storage of a matrix whose
rows and columns were reordered into a band, which the band route of
:mod:`morkit.lu` factors.

The shifted augmented matrix has one assembler, :class:`ShiftedAugmented`:
one index map per system, from which every shift's matrix is scattered
into CSC or band storage, on one pattern whatever the shift.
"""

import numpy as np
import scipy.sparse as sp


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
    transpose through the same factorization. See :meth:`ShiftedAugmented.csc`,
    whose index map a run of factorizations keeps for all its shifts.
    """
    return ShiftedAugmented(system).csc(sigma)


class ShiftedAugmented:
    """Index map of the shifted augmented matrix of `system`.

    It keeps M11, L11 and K11 aligned on the union of their patterns,
    the augmented CSC ``pattern`` (holding the fixed blocks' values, 0 on
    the union) and where the union lands in it. At a shift, :meth:`csc`
    and :meth:`band` compute ``(sigma^2 M11 + sigma L11) + K11`` once on
    the union and scatter it into CSC or band storage.
    """

    def __init__(self, system):
        self.system = system
        shifted = (system.M11, system.L11, system.K11)
        # every block's entries tagged with its own bit: the sum stores the
        # union of the patterns, and bit k marks the entries of block k
        tags = [sp.csc_array((np.full(b.nnz, 1 << k, np.int8), b.indices, b.indptr), shape=b.shape)
                for k, b in enumerate(shifted)]
        union = tags[0] + tags[1] + tags[2]
        self._shifted = []  # M11, L11, K11 values on the union, 0 where absent
        for k, block in enumerate(shifted):
            values = np.zeros(union.nnz)
            values[(union.data & (1 << k)) != 0] = block.data
            self._shifted.append(values)
        union.data = np.zeros(union.nnz)
        self.pattern, self._at = _stack_block_columns(
            ((union, system.K21), (system.K12, system.K22)), system.n1)
        self._abs_max_fixed = np.abs(self.pattern.data).max(initial=0.0)
        self._band = None

    def _s11(self, sigma):
        sigma = complex(sigma)
        if sigma.imag == 0.0:  # real arithmetic is exact here, and cheaper to factor
            sigma = sigma.real
        M, L, K = self._shifted
        return (sigma * sigma) * M + sigma * L + K  # scipy's sum order: equal bit for bit

    def csc(self, sigma):
        """The augmented matrix at `sigma` as canonical CSC: float64 at a
        real sigma (the real parts of the complex route's values),
        complex128 otherwise. It stores every entry of ``pattern``, which
        is the same at every sigma: entries that cancel are zeros, and
        its index arrays are shared by every call."""
        s11 = self._s11(sigma)
        data = self.pattern.data.astype(s11.dtype)
        data[self._at] = s11
        pattern = self.pattern
        return sp.csc_array((data, pattern.indices, pattern.indptr), shape=pattern.shape)

    def band(self, sigma, order):
        """The augmented matrix at `sigma` as a :class:`BandMatrix` in
        `order`, of the dtype :meth:`csc` gives."""
        layout = self._band
        if layout is None or layout[0] is not order:
            # racing threads may each build one: each publishes it whole
            at, kl, ku = band_layout(self.pattern, order)
            fixed = np.ones(at.shape[0], dtype=bool)
            fixed[self._at] = False
            layout = self._band = (order, kl, ku, at[self._at], at[fixed], self.pattern.data[fixed])
        _, kl, ku, at11, at_fixed, values_fixed = layout
        s11 = self._s11(sigma)
        data = _band_zeros(kl, ku, self.pattern.shape[0], s11.dtype)
        flat = data.reshape(-1, order="F")  # a view: data is Fortran-contiguous
        flat[at11] = s11
        flat[at_fixed] = values_fixed
        abs11 = np.abs(s11)

        def colmax():
            absdata = np.abs(self.pattern.data)
            absdata[self._at] = abs11
            return column_abs_max(self.pattern, absdata)[order]

        abs_max = max(abs11.max(initial=0.0), self._abs_max_fixed)
        return BandMatrix(data, kl, ku, order, abs_max, colmax)


def _stack_block_columns(block_columns, n_top):
    """CSC matrix from block columns, each a (top, bottom) pair of
    canonical float64 CSC blocks whose tops have `n_top` rows, and where
    the first top block's entries land in it.

    Each column holds the top block's entries, then the bottom block's
    moved down by `n_top`: the arrays ``sp.bmat(..., format="csc")``
    builds, written straight into place in one pass per block.
    """
    blocks = [block for column in block_columns for block in column]
    nnz = sum(block.nnz for block in blocks)
    n_rows = n_top + block_columns[0][1].shape[0]
    n_cols = sum(top.shape[1] for top, _ in block_columns)
    idx = sp.get_index_dtype([b.indptr for b in blocks], maxval=max(nnz, n_rows, n_cols))
    data = np.empty(nnz)
    indices = np.empty(nnz, idx)
    indptr = np.zeros(n_cols + 1, idx)
    first = None
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
        first = at if first is None else first
        at = np.arange(start, start + bottom.nnz, dtype=idx) + np.repeat(tp[1:], np.diff(bp))
        data[at] = bottom.data
        indices[at] = bottom.indices + n_top
        col = cols.stop - 1
        start += top.nnz + bottom.nnz
    return sp.csc_array((data, indices, indptr), shape=(n_rows, n_cols)), first


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

    @classmethod
    def from_csc(cls, A, order):
        """The band of canonical CSC `A` in `order`, as narrow as A's
        stored entries allow."""
        at, kl, ku = band_layout(A, order)
        data = _band_zeros(kl, ku, A.shape[0], A.dtype)
        data.reshape(-1, order="F")[at] = A.data
        absdata = np.abs(A.data)
        colmax = column_abs_max(A, absdata)[order]
        return cls(data, kl, ku, order, absdata.max(initial=0.0), lambda: colmax)


def column_abs_max(A, absdata):
    """Largest of `absdata` (the moduli of canonical CSC `A`'s stored
    entries) in each column of `A`, 0 in empty columns."""
    starts = A.indptr[:-1]
    filled = np.flatnonzero(A.indptr[1:] > starts)
    colmax = np.zeros(A.shape[1])
    if filled.size:
        colmax[filled] = np.maximum.reduceat(absdata, starts[filled])
    return colmax


def band_layout(A, order):
    """``(at, kl, ku)``: the band of canonical CSC `A` with rows and
    columns taken in `order`, as narrow as A's stored entries allow, and
    where each of them lands in its Fortran-order storage, flattened."""
    rank = inverse_order(order)
    i = rank[A.indices].astype(np.intp)
    j = rank[np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))].astype(np.intp)
    d = i - j
    kl, ku = (max(int(d.max()), 0), max(-int(d.min()), 0)) if d.size else (0, 0)
    return (kl + ku + d) + j * (2 * kl + ku + 1), kl, ku


def inverse_order(order):
    """The inverse permutation of `order`: ``rank[order[k]] = k``."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0], dtype=order.dtype)
    return rank


def _band_zeros(kl, ku, n, dtype):
    return np.zeros((2 * kl + ku + 1, n), dtype=dtype, order="F")
