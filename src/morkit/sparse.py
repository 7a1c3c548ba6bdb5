"""Sparse block storage and assembly.

All sparse blocks in this package live in compressed-sparse-column (CSC)
form with canonical structure: row indices sorted within each column and
duplicate entries summed. Values are float64 or complex128.
"""

import numpy as np
import scipy.sparse as sp

COMPLEX_DTYPE = np.complex128


def as_canonical_csc(A, dtype=None):
    """Return `A` as a canonical csc_array (copying only when needed)."""
    out = sp.csc_array(A if dtype is None else A.astype(dtype))
    if not out.has_canonical_format:
        out.sum_duplicates()
    out.sort_indices()
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
    scipy.sparse.csc_array of complex128, shape (n1+n2, n1+n2)
    """
    sigma = complex(sigma)
    M11, L11, K11 = system.M11, system.L11, system.K11
    S11 = (sigma * sigma) * M11 + sigma * L11 + K11.astype(COMPLEX_DTYPE)
    blocks = [[S11, system.K12], [system.K21, system.K22]]
    out = sp.bmat(
        [[as_canonical_csc(b, dtype=COMPLEX_DTYPE) for b in row] for row in blocks],
        format="csc",
    )
    return as_canonical_csc(out)
