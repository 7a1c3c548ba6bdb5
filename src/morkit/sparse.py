"""Sparse block storage and assembly.

All sparse blocks in this package live in compressed-sparse-column (CSC)
form with canonical structure: row indices sorted within each column and
duplicate entries summed. Values are float64 or complex128.
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
