"""Sparse LU factorization with threshold partial pivoting.

Thin, contract-enforcing layer over SuperLU. Equilibration is disabled
so that the factorization identity ``Pr @ A @ Pc == L @ U`` holds
exactly in terms of the returned permutations and triangular factors.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionError, SingularMatrixError
from .sparse import as_canonical_csc

PIVOT_TOL = 0.1  # threshold partial pivoting; 1.0 would be classical pivoting

_ORDERINGS = {
    "amd": "MMD_AT_PLUS_A",  # minimum degree on the pattern of A + A^T
    "natural": "NATURAL",
}


class SparseLU:
    """LU factorization ``Pr @ A @ Pc = L @ U`` of a square sparse matrix.

    Attributes
    ----------
    n : int
        Matrix dimension.
    L, U : scipy.sparse.csc_array
        Unit-lower and upper triangular factors.
    perm_r, perm_c : numpy.ndarray of int
        Row and column permutations; ``Pr[perm_r[k], k] = 1`` and
        ``Pc[k, perm_c[k]] = 1``.
    """

    def __init__(self, superlu, dtype, n):
        self._superlu = superlu
        self.dtype = dtype
        self.n = n

    @property
    def L(self):
        return as_canonical_csc(self._superlu.L)

    @property
    def U(self):
        return as_canonical_csc(self._superlu.U)

    @property
    def perm_r(self):
        return self._superlu.perm_r

    @property
    def perm_c(self):
        return self._superlu.perm_c

    def permutation_matrices(self):
        """Return (Pr, Pc) as sparse matrices satisfying Pr @ A @ Pc = L @ U."""
        n = self.n
        ones = np.ones(n)
        Pr = sp.csc_array((ones, (self.perm_r, np.arange(n))), shape=(n, n))
        Pc = sp.csc_array((ones, (np.arange(n), self.perm_c)), shape=(n, n))
        return Pr, Pc

    def _solve(self, rhs, trans):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise DimensionError(
                f"right-hand side has {rhs.shape[0]} rows, factorization has {self.n}"
            )
        if np.iscomplexobj(rhs) and not np.issubdtype(self.dtype, np.complexfloating):
            # real factorization, complex right-hand side: solve parts separately
            real = self._superlu.solve(np.ascontiguousarray(rhs.real), trans=trans)
            imag = self._superlu.solve(np.ascontiguousarray(rhs.imag), trans=trans)
            return real + 1j * imag
        return self._superlu.solve(rhs.astype(self.dtype, copy=False), trans=trans)

    def solve(self, rhs):
        """Solve ``A x = rhs`` for a dense vector or block of vectors."""
        return self._solve(rhs, "N")

    def solve_transposed(self, rhs):
        """Solve ``A^T x = rhs`` (plain transpose, no conjugation)."""
        return self._solve(rhs, "T")


def factor(A, ordering="amd"):
    """Factor a square sparse matrix as ``Pr @ A @ Pc = L @ U``.

    Parameters
    ----------
    A : sparse matrix
        Square, real or complex.
    ordering : {"amd", "natural"}
        Fill-reducing column ordering; "amd" applies minimum degree to
        the pattern of A + A^T, "natural" keeps the given order.

    Raises
    ------
    SingularMatrixError
        If a zero (or negligible, ``|u_jj| <= eps * n * colmax``) pivot
        is encountered; the offending column is reported when the
        factorization got far enough to identify it.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"cannot factor non-square matrix of shape {A.shape}")
    try:
        permc_spec = _ORDERINGS[ordering]
    except KeyError:
        raise ValueError(
            f"unknown ordering {ordering!r}, expected one of {sorted(_ORDERINGS)}"
        ) from None
    A = as_canonical_csc(A)
    n = A.shape[0]
    try:
        superlu = spla.splu(
            A,
            permc_spec=permc_spec,
            diag_pivot_thresh=PIVOT_TOL,
            options={"Equil": False},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"sparse LU breakdown: {exc}") from exc
    lu = SparseLU(superlu, A.dtype, n)
    _check_pivots(A, lu)
    return lu


def _check_pivots(A, lu):
    """Reject factorizations whose pivots are negligible relative to A.

    A pivot is negligible when ``|u_jj| <= eps * n * colmax``, colmax the
    largest modulus in its column of `A` (canonical CSC). The pivots are
    read off SuperLU's own U, whose diagonal needs no sorted copy.
    """
    udiag = np.abs(lu._superlu.U.diagonal())
    scale = np.finfo(np.float64).eps * lu.n
    absdata = np.abs(A.data[: A.nnz])
    # every column maximum is at most the largest entry, so pivots above
    # that entry's bound pass every column's bound as well
    if absdata.size and udiag.min() > scale * absdata.max():
        return
    # U's column j holds the pivot for original column perm_c[j]
    tiny = scale * _column_abs_max(A, absdata)[lu.perm_c]
    bad = np.flatnonzero(udiag <= tiny)
    if bad.size:
        col = int(lu.perm_c[bad[0]])
        raise SingularMatrixError(
            "sparse LU produced a negligible pivot; matrix is numerically singular",
            column=col,
        )


def _column_abs_max(A, absdata):
    """Largest of `absdata` (the moduli of canonical CSC `A`'s stored
    entries) in each column of `A`, 0 in empty columns."""
    starts = A.indptr[:-1]
    filled = np.flatnonzero(A.indptr[1:] > starts)
    colmax = np.zeros(A.shape[1])
    if filled.size:
        colmax[filled] = np.maximum.reduceat(absdata, starts[filled])
    return colmax
