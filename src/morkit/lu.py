"""Sparse LU factorization with threshold partial pivoting.

Thin, contract-enforcing layer over SuperLU. Equilibration is disabled
so that the factorization identity ``Pr @ A @ Pc == L @ U`` holds
exactly in terms of the returned permutations and triangular factors.
A :class:`ColumnOrder` lets a run of factorizations of one sparsity
pattern share the fill-reducing ordering of the first, and, when that
first LU filled in to near-dense, factor the rest with dense LAPACK.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import DimensionError, SingularMatrixError
from .sparse import as_canonical_csc

PIVOT_TOL = 0.1  # threshold partial pivoting; 1.0 would be classical pivoting
DENSE_FILL = 1 / 3  # nnz(L+U) / n^2 of an order's first LU from which the rest go dense


class ColumnOrder:
    """A fill-reducing column order shared by a run of factorizations.

    With ``cols`` set, :func:`factor` factors ``P^T @ A @ P``, where
    ``P[:, j]`` is the unit vector ``e_cols[j]``, and orders nothing
    itself. Permuting rows and columns alike keeps SuperLU's preference
    for the diagonal pivot: for matrices of one pattern, minimum degree
    ordering would pick the same columns and pivots, and this order
    skips its cost. An order made without ``cols`` is empty; the first
    factorization through it runs minimum degree and keeps its order.

    ``inverse`` is the inverse permutation: column k of A becomes
    column ``inverse[k]``. The stored entries of ``P^T @ A @ P`` are a
    gather of A's. The gather map is kept for the last pattern seen and
    made again when the pattern changes, as when an entry cancels to an
    exact zero.

    ``fill`` is ``nnz(L + U) / n^2`` of the factorization that chose the
    order (None for an order given as ``cols``). From :data:`DENSE_FILL`
    on, sparse elimination saves too little over dense to pay for its
    indexing, so later factorizations through the order run LAPACK
    ``getrf`` on the dense matrix instead (``route`` is then "dense").
    """

    def __init__(self, cols=None):
        self.cols = self.inverse = self.fill = None
        self._map = None  # (indptr, indices) of A, then the gather map
        if cols is not None:
            cols = np.asarray(cols)
            if (cols.ndim != 1 or cols.dtype.kind not in "iu"
                    or not np.array_equal(np.sort(cols), np.arange(cols.shape[0]))):
                raise ValueError("a column order must be a permutation of 0, ..., n-1")
            self.cols, self.inverse = cols, np.empty_like(cols)
            self.inverse[cols] = np.arange(cols.shape[0])

    @property
    def route(self):
        """"dense" or "sparse" for the factorizations after the first,
        None before the first."""
        if self.fill is None:
            return None
        return "dense" if self.fill >= DENSE_FILL else "sparse"

    def permute(self, A):
        """``P^T @ A @ P`` of canonical CSC `A`, as canonical CSC."""
        # threads may both rebuild a stale map; each uses its own copy
        known = self._map
        if known is None or not (
            np.array_equal(known[0], A.indptr) and np.array_equal(known[1], A.indices)
        ):
            # one block for the pattern and its map: a large block is mapped
            # rather than carved from the heap, so freeing it leaves no hole
            block = np.concatenate([A.indptr, A.indices, *_symmetric_gather(A, self.cols)])
            known = self._map = np.split(block, np.cumsum([A.shape[0] + 1, A.nnz, A.nnz, A.nnz]))
        gather, indices, indptr = known[2:]
        return sp.csc_array((A.data[gather], indices, indptr), shape=A.shape)


def _symmetric_gather(A, cols):
    """``(gather, indices, indptr)`` of canonical CSC ``A[cols][:, cols]``,
    whose stored entries are ``A.data[gather]``."""
    idx = A.indices.dtype
    # 1-based, so that no position is an explicit zero indexing could drop
    positions = sp.csc_array((np.arange(1, A.nnz + 1, dtype=idx), A.indices, A.indptr),
                             shape=A.shape)
    B = positions[cols][:, cols]
    B.sort_indices()
    B.data -= 1
    return tuple(x.astype(idx, copy=False) for x in (B.data, B.indices, B.indptr))


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

    def __init__(self, factors, dtype, n, order=None):
        self._factors = factors
        self.dtype = dtype
        self.n = n
        self._order = order  # the factors are of P^T A P in this order, if given

    @property
    def L(self):
        return as_canonical_csc(self._factors.L)

    @property
    def U(self):
        return as_canonical_csc(self._factors.U)

    @property
    def perm_r(self):
        return self._composed(self._factors.perm_r)

    @property
    def perm_c(self):
        return self._composed(self._factors.perm_c)

    def _composed(self, perm):
        # row and column k of A are row and column inverse[k] of P^T A P
        return perm if self._order is None else perm[self._order.inverse]

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
        order = self._order
        if order is not None:  # (P^T A P) (P^T x) = P^T rhs; take beats fancy indexing
            rhs = np.take(rhs, order.cols, axis=0)
        if np.iscomplexobj(rhs) and not np.issubdtype(self.dtype, np.complexfloating):
            # real factorization, complex right-hand side: solve parts separately
            real = self._factors.solve(np.ascontiguousarray(rhs.real), trans=trans)
            imag = self._factors.solve(np.ascontiguousarray(rhs.imag), trans=trans)
            x = real + 1j * imag
        else:
            x = self._factors.solve(rhs.astype(self.dtype, copy=False), trans=trans)
        if order is None:
            return x
        # the permuted right-hand side is ours; reusing it saves an
        # allocation, which mode="raise" would make again as a buffer
        out = rhs if rhs.dtype == x.dtype and not np.may_share_memory(rhs, x) else None
        return np.take(x, order.inverse, axis=0, out=out, mode="clip")

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


def factor(A, order=None):
    """Factor a square sparse matrix as ``Pr @ A @ Pc = L @ U``.

    Parameters
    ----------
    A : sparse matrix
        Square, real or complex.
    order : None, array of int or ColumnOrder
        None applies SuperLU's minimum degree ordering to the pattern of
        A + A^T. An array or a :class:`ColumnOrder` with ``cols`` factors
        ``P^T A P`` in that column order instead; an empty
        :class:`ColumnOrder` is given the order minimum degree chose and
        that factorization's fill. A :class:`ColumnOrder` whose route is
        "dense" factors A with LAPACK ``getrf`` (classical partial
        pivoting) and uses no column order. The permutations, solves and
        pivot check are those of A either way.

    Raises
    ------
    SingularMatrixError
        If a zero (or negligible, ``|u_jj| <= eps * n * colmax``) pivot
        is encountered; the offending column is reported when the
        factorization got far enough to identify it.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"cannot factor non-square matrix of shape {A.shape}")
    if order is not None and not isinstance(order, ColumnOrder):
        order = ColumnOrder(order)
    cols = None if order is None else order.cols
    A = as_canonical_csc(A)
    n = A.shape[0]
    if cols is not None and cols.shape[0] != n:
        raise DimensionError(f"column order of length {cols.shape[0]} for a matrix of order {n}")
    if order is not None and order.route == "dense":
        return _factor_dense(A)
    if cols is not None:
        A = order.permute(A)  # frees the caller's values if nothing else holds them
    try:
        superlu = spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A" if cols is None else "NATURAL",
            diag_pivot_thresh=PIVOT_TOL,
            options={"Equil": False},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"sparse LU breakdown: {exc}") from exc
    # SuperLU's own U, whose diagonal needs no sorted copy
    _check_pivots(A, superlu.U.diagonal(), superlu.perm_c, cols)
    if order is not None and cols is None:
        # copies: SuperLU's own arrays would keep this LU alive
        perm_c = superlu.perm_c
        order.cols, order.inverse = np.argsort(perm_c).astype(perm_c.dtype), perm_c.copy()
        order.fill = (superlu.L.nnz + superlu.U.nnz - n) / n**2  # L's unit diagonal is stored
    return SparseLU(superlu, A.dtype, n, None if cols is None else order)


def _factor_dense(A):
    """:func:`factor`'s dense route: LAPACK ``getrf`` on canonical CSC `A`."""
    getrf = lapack.get_lapack_funcs("getrf", (A.data,))
    lu, piv, info = getrf(A.toarray(order="F"), overwrite_a=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("dense LU met an exactly zero pivot", column=int(info - 1))
    _check_pivots(A, np.diagonal(lu), None)
    return SparseLU(_DenseLU(lu, piv), A.dtype, A.shape[0])


def _check_pivots(A, pivots, perm_c=None, cols=None):
    """Reject factorizations whose pivots are negligible relative to A.

    `pivots` is U's diagonal of a factorization of canonical CSC `A` in
    which A's column k is U's column ``perm_c[k]`` (k itself when
    `perm_c` is None). A pivot is negligible when ``|u_jj| <= eps * n *
    colmax``, colmax the largest modulus in its column of `A`. When `A`
    is ``P^T A0 P`` in the column order `cols`, the error names the
    column of A0.
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
        col = pivot_cols[bad[0]]
        raise SingularMatrixError(
            "sparse LU produced a negligible pivot; matrix is numerically singular",
            column=int(col if cols is None else cols[col]),
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
