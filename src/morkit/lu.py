"""Sparse LU factorization with threshold partial pivoting.

Thin, contract-enforcing layer over SuperLU. Equilibration is disabled
so that the factorization identity ``Pr @ A @ Pc == L @ U`` holds
exactly in terms of the returned permutations and triangular factors.
A :class:`Route` lets a run of factorizations of one sparsity pattern
factor the rest with dense LAPACK when its first LU filled in to
near-dense.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import DimensionError, SingularMatrixError
from .sparse import as_canonical_csc

PIVOT_TOL = 0.1  # threshold partial pivoting; 1.0 would be classical pivoting
DENSE_FILL = 1 / 3  # nnz(L+U) / n^2 of a route's first LU from which the rest go dense


class Route:
    """The route of a run of factorizations of one sparsity pattern.

    ``fill`` is ``nnz(L + U) / n^2`` of the run's first factorization,
    which runs SuperLU (None before it). From :data:`DENSE_FILL` on,
    sparse elimination saves too little over dense to pay for its
    indexing, so the later factorizations run LAPACK ``getrf`` on the
    dense matrix instead (``kind`` is then "dense"); below it, each runs
    SuperLU with its own minimum degree ordering ("sparse").
    """

    def __init__(self):
        self.fill = None

    @property
    def kind(self):
        """"dense" or "sparse" for the factorizations after the first,
        None before the first."""
        if self.fill is None:
            return None
        return "dense" if self.fill >= DENSE_FILL else "sparse"


class SparseLU:
    """LU factorization ``Pr @ A @ Pc = L @ U`` of a square sparse matrix.

    The factors are SuperLU's or, on the dense route, LAPACK's
    (:class:`_DenseLU`); both answer ``solve(rhs, trans)``, ``L``, ``U``,
    ``perm_r`` and ``perm_c`` alike.

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

    def __init__(self, factors, dtype, n):
        self._factors = factors
        self.dtype = dtype
        self.n = n

    @property
    def L(self):
        return as_canonical_csc(self._factors.L)

    @property
    def U(self):
        return as_canonical_csc(self._factors.U)

    @property
    def perm_r(self):
        return self._factors.perm_r

    @property
    def perm_c(self):
        return self._factors.perm_c

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
            real = self._factors.solve(np.ascontiguousarray(rhs.real), trans=trans)
            imag = self._factors.solve(np.ascontiguousarray(rhs.imag), trans=trans)
            return real + 1j * imag
        return self._factors.solve(rhs.astype(self.dtype, copy=False), trans=trans)

    def solve(self, rhs):
        """Solve ``A x = rhs`` for a dense vector or block of vectors."""
        return self._solve(rhs, "N")

    def solve_transposed(self, rhs):
        """Solve ``A^T x = rhs`` (plain transpose, no conjugation)."""
        return self._solve(rhs, "T")


class _DenseLU:
    """LAPACK ``?getrf`` factors ``A = P L U`` of a dense Fortran-order
    matrix, behind the part of SuperLU's interface that :class:`SparseLU`
    uses; the column permutation is the identity."""

    def __init__(self, lu, piv):
        self._lu, self._piv = lu, piv  # piv: row i was swapped with row piv[i]
        self._getrs = lapack.get_lapack_funcs("getrs", (lu,))

    def solve(self, rhs, trans="N"):
        x, _ = self._getrs(self._lu, self._piv, rhs, trans={"N": 0, "T": 1}[trans])
        return x

    @property
    def L(self):
        L = _triangle_csc(self._lu, lower=True)
        L.data[L.indptr[:-1]] = 1.0  # each column starts at its unit diagonal
        return L

    @property
    def U(self):
        return _triangle_csc(self._lu, lower=False)

    @property
    def perm_r(self):
        rows = np.arange(self._piv.shape[0])  # row i of L U is row rows[i] of A
        for i, j in enumerate(self._piv):
            rows[i], rows[j] = rows[j], rows[i]
        return np.argsort(rows).astype(self._piv.dtype)

    @property
    def perm_c(self):
        return np.arange(self._piv.shape[0], dtype=self._piv.dtype)


def _triangle_csc(a, lower):
    """The lower or upper triangle of square `a`, diagonal included, as
    CSC storing every entry of the triangle (zeros too), as dense
    factors hold them."""
    n = a.shape[0]
    # column j of a is row j of a.T; its triangle is rows j.. or ..j
    keep = np.tri(n, dtype=bool)
    if lower:
        keep = keep.T
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)
    rows = np.nonzero(keep)[1].astype(np.int32)
    return sp.csc_array((a.T[keep], rows, indptr), shape=(n, n))


def factor(A, route=None):
    """Factor a square sparse matrix as ``Pr @ A @ Pc = L @ U``.

    Parameters
    ----------
    A : sparse matrix
        Square, real or complex.
    route : None or Route
        None runs SuperLU with minimum degree ordering on the pattern of
        A + A^T. So does a :class:`Route` whose kind is None or
        "sparse"; an empty one is given this factorization's fill. A
        :class:`Route` whose kind is "dense" factors A with LAPACK
        ``getrf`` (classical partial pivoting) and no column order.

    Raises
    ------
    SingularMatrixError
        If a zero (or negligible, ``|u_jj| <= eps * n * colmax``) pivot
        is encountered; the offending column is reported when the
        factorization got far enough to identify it.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"cannot factor non-square matrix of shape {A.shape}")
    A = as_canonical_csc(A)
    n = A.shape[0]
    if route is not None and route.kind == "dense":
        return _factor_dense(A)
    try:
        superlu = spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=PIVOT_TOL,
            options={"Equil": False},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"sparse LU breakdown: {exc}") from exc
    # SuperLU's own U, whose diagonal needs no sorted copy
    _check_pivots(A, superlu.U.diagonal(), superlu.perm_c)
    if route is not None and route.fill is None:
        route.fill = (superlu.L.nnz + superlu.U.nnz - n) / n**2  # L's unit diagonal is stored
    return SparseLU(superlu, A.dtype, n)


def _factor_dense(A):
    """:func:`factor`'s dense route: LAPACK ``getrf`` on canonical CSC `A`."""
    getrf = lapack.get_lapack_funcs("getrf", (A.data,))
    lu, piv, info = getrf(A.toarray(order="F"), overwrite_a=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("dense LU met an exactly zero pivot", column=int(info - 1))
    _check_pivots(A, np.diagonal(lu))
    return SparseLU(_DenseLU(lu, piv), A.dtype, A.shape[0])


def _check_pivots(A, pivots, perm_c=None):
    """Reject factorizations whose pivots are negligible relative to A.

    `pivots` is U's diagonal of a factorization of canonical CSC `A` in
    which A's column k is U's column ``perm_c[k]`` (k itself when
    `perm_c` is None). A pivot is negligible when ``|u_jj| <= eps * n *
    colmax``, colmax the largest modulus in its column of `A`.
    """
    udiag = np.abs(pivots)
    scale = np.finfo(np.float64).eps * A.shape[0]
    absdata = np.abs(A.data[: A.nnz])
    # every column maximum is at most the largest entry, so pivots above
    # that entry's bound pass every column's bound as well
    if absdata.size and udiag.min() > scale * absdata.max():
        return
    # U's column j holds the pivot of A's column argsort(perm_c)[j]
    pivot_cols = np.arange(A.shape[1]) if perm_c is None else np.argsort(perm_c)
    tiny = scale * _column_abs_max(A, absdata)[pivot_cols]
    bad = np.flatnonzero(udiag <= tiny)
    if bad.size:
        raise SingularMatrixError(
            "sparse LU produced a negligible pivot; matrix is numerically singular",
            column=int(pivot_cols[bad[0]]),
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
