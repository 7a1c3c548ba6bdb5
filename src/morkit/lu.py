"""Sparse LU factorization with threshold partial pivoting.

Thin, contract-enforcing layer over SuperLU and LAPACK. Equilibration is
disabled so that the factorization identity ``Pr @ A @ Pc == L @ U``
holds exactly in terms of the returned permutations and triangular
factors. A :class:`Route` lets a run of factorizations of one sparsity
pattern take one of three routes after its first LU, which runs SuperLU
and measures the fill ``nnz(L + U)``:

* "dense": from :data:`DENSE_FILL` of n^2 on, LAPACK ``?getrf`` on the
  dense matrix;
* "band": below it, when reverse Cuthill-McKee orders the pattern into a
  band whose storage, ``(2 kl + ku + 1) n`` entries, is at most
  :data:`BAND_FILL` times that fill, LAPACK ``?gbtrf`` on the band
  (:class:`~morkit.sparse.BandMatrix`);
* "sparse": otherwise SuperLU, each LU with its own minimum degree order.

:data:`BAND_FILL` comes from per-factorization times: SuperLU against
RCM plus ``?gbtrf``, each with a two-column solve (medians of 7, one
BLAS thread, a 2-core Xeon). "ratio" is band storage over SuperLU's
``nnz(L + U)``; "speedup" is SuperLU's time over the band's:

=======================  ======  ================  ================
pattern                  ratio   float64 speedup   complex speedup
=======================  ======  ================  ================
chain, n = 99,999        3.25    6.6               3.4
chain, n = 9,999         3.25    2.8               2.4
2-D grid 25 x 25         3.95    5.7               2.1
2-D grid 30 x 30         4.24    2.8               1.9
2-D grid 40 x 40         5.05    2.8               1.1
2-D grid 50 x 50         5.44    2.1               0.92
2-D grid 70 x 70         6.71    0.89              0.43
2-D grid 100 x 100       8.33    0.66              0.52
=======================  ======  ================  ================

On a grid the RCM band is as wide as the grid's side, so band storage
grows like n^1.5 and ``?gbtrf``'s work like n^2. Complex shifts, most
of a reduction's, break even near a ratio of 5.3, real ones near 6.5.
The threshold sits below both, at 4, which also keeps the band within 4
times the memory of SuperLU's factors: chains go banded, grids from
about 30 x 30 on stay on SuperLU. A band route's reduction records its
bandwidths in its trace (see :class:`~morkit.irka.IterationTrace`); the
benchmark's chain, for one, records
``lu_route band fill 4.0000099997999949e-05 kl 4 ku 4``.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import DimensionError, SingularMatrixError
from .sparse import BandMatrix, as_canonical_csc, band_layout, column_abs_max, inverse_order

PIVOT_TOL = 0.1  # threshold partial pivoting; 1.0 would be classical pivoting
DENSE_FILL = 1 / 3  # nnz(L+U) / n^2 of a route's first LU from which the rest go dense
BAND_FILL = 4  # band storage / nnz(L+U) of a route's first LU up to which the rest go banded


class Route:
    """The route of a run of factorizations of one sparsity pattern.

    ``fill`` is ``nnz(L + U) / n^2`` of the run's first factorization,
    which runs SuperLU (None before it). From :data:`DENSE_FILL` on,
    sparse elimination saves too little over dense to pay for its
    indexing, so the later factorizations run LAPACK ``getrf`` on the
    dense matrix instead (``kind`` is then "dense"). Below it, the first
    factorization also orders the pattern of A + A^T by reverse
    Cuthill-McKee (``order``), which leaves ``kl`` subdiagonals and
    ``ku`` superdiagonals. When that band stores at most
    :data:`BAND_FILL` times the first LU's ``nnz(L + U)``, the later
    factorizations run LAPACK ``gbtrf`` on it ("band"); otherwise each
    runs SuperLU with its own minimum degree ordering ("sparse", and
    ``order`` stays None).

    ``scatter`` is free for the caller that assembles the run's
    matrices: :func:`morkit.irka.factor_augmented` keeps there its one
    index map (:class:`~morkit.sparse.ShiftedAugmented`), which scatters
    every shift into CSC, or into band storage on the band route.
    """

    def __init__(self):
        self.fill = None
        self.order = self.kl = self.ku = None
        self.scatter = None

    @property
    def kind(self):
        """"dense", "band" or "sparse" for the factorizations after the
        first, None before the first."""
        if self.fill is None:
            return None
        if self.fill >= DENSE_FILL:
            return "dense"
        return "sparse" if self.order is None else "band"

    def _measure_band(self, A, fill_nnz):
        """Order canonical CSC `A`'s pattern by RCM and take the band
        route if its storage is at most BAND_FILL * `fill_nnz`."""
        # imported here, so that runs that go dense never load it (1 MB)
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        ones = np.ones(A.nnz, dtype=np.int8)
        pattern = sp.csr_array((ones, A.indices, A.indptr), shape=A.shape)  # A^T
        order = reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
        _, kl, ku = band_layout(A, order)
        if (2 * kl + ku + 1) * A.shape[0] <= BAND_FILL * fill_nnz:
            self.order, self.kl, self.ku = order, kl, ku


class SparseLU:
    """LU factorization ``Pr @ A @ Pc = L @ U`` of a square sparse matrix.

    The factors are SuperLU's or, on the dense and band routes,
    LAPACK's (:class:`_DenseLU`, :class:`_BandLU`); all three answer
    ``solve(rhs, trans)``, ``L``, ``U``, ``perm_r`` and ``perm_c`` alike.
    The band route's ``L``, ``U`` and ``perm_r`` are built from its
    band factors when first read, which no solve needs.

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
            # real factorization, complex right-hand side: solve parts
            # separately, and a zero imaginary part not at all
            real = self._factors.solve(np.ascontiguousarray(rhs.real), trans=trans)
            if not rhs.imag.any():
                return real.astype(np.complex128)
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


class _BandLU:
    """LAPACK ``?gbtrf`` factors of a :class:`~morkit.sparse.BandMatrix`
    B = A[order][:, order], behind the part of SuperLU's interface that
    :class:`SparseLU` uses.

    ``?gbtrf`` defers its row interchanges: the multipliers of column j
    stay in the rows they had at step j, so ``L``, ``U`` and ``perm_r``
    (:meth:`_triangular`) apply the later interchanges to them.
    """

    def __init__(self, lub, piv, band):
        self._lub, self._piv = lub, piv  # piv: row j was swapped with row piv[j]
        self._kl, self._ku, self._order = band.kl, band.ku, band.order
        self._gbtrs = lapack.get_lapack_funcs("gbtrs", (lub,))

    def solve(self, rhs, trans="N"):
        order = self._order
        y, _ = self._gbtrs(self._lub, self._kl, self._ku, rhs[order], self._piv,
                           trans={"N": 0, "T": 1}[trans])
        x = np.empty_like(y)
        x[order] = y
        return x

    @property
    def L(self):
        return self._triangular[0]

    @property
    def U(self):
        return self._triangular[1]

    @property
    def perm_r(self):
        return self._triangular[2]

    @property
    def perm_c(self):
        return inverse_order(self._order)

    @functools.cached_property
    def _triangular(self):
        """(L, U, perm_r) with ``Pr @ A @ Pc = L @ U``, Pc from ``perm_c``.

        LAPACK's factorization ``L_{n-1}^{-1} P_{n-1} ... L_0^{-1} P_0 B = U``
        is ``Q B = L U`` with Q = P_{n-1} ... P_0, where column j of L holds
        column j's multipliers moved by P_{n-1} ... P_{j+1}. One backward
        pass over the interchanges builds each column's row map (only an
        interchange changes it) and ends at Q.
        """
        lub, piv, kl, ku = self._lub, self._piv, self._kl, self._ku
        n = lub.shape[1]
        j = np.arange(n)[:, None]
        # column j of L: rows j..j+kl of B, each moved by P_{n-1} ... P_{j+1}
        below = np.minimum(j + np.arange(kl + 1), n - 1)
        rows = np.empty((n, kl + 1), dtype=np.intp)
        q = np.arange(n)  # row k of B goes to row q[k]; q[j] = j at column j
        end = n
        for k in np.flatnonzero(piv != np.arange(n))[::-1]:
            rows[k:end] = q[below[k:end]]
            q[k], q[piv[k]] = q[piv[k]], q[k]
            end = k
        rows[:end] = q[below[:end]]
        values = lub[kl + ku:].T.copy()  # U's diagonal, then the multipliers
        values[:, 0] = 1.0
        L = _band_csc(values, rows, j + np.arange(kl + 1) < n)
        # column j of U: rows j-kl-ku..j, at lub[0..kl+ku, j]
        rows = j + np.arange(-(kl + ku), 1)
        U = _band_csc(lub[: kl + ku + 1].T, rows, rows >= 0)
        perm_r = np.empty(n, dtype=self._order.dtype)
        perm_r[self._order] = q  # row order[k] of A is row k of B
        return L, U, perm_r


def _band_csc(values, rows, keep):
    """Square CSC matrix whose column j holds ``values[j, t]`` in row
    ``rows[j, t]`` wherever ``keep[j, t]``, zeros included, as band
    factors hold them."""
    n = values.shape[0]
    idx = sp.get_index_dtype(maxval=max(n, keep.size))
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    out = sp.csc_array((values[keep], rows[keep].astype(idx), indptr), shape=(n, n))
    out.sort_indices()
    return out


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
    A : sparse matrix or BandMatrix
        Square, real or complex. A :class:`~morkit.sparse.BandMatrix`
        is factored by LAPACK ``gbtrf`` whatever the route.
    route : None or Route
        None runs SuperLU with minimum degree ordering on the pattern of
        A + A^T. So does a :class:`Route` whose kind is None or
        "sparse"; an empty one is given this factorization's fill and,
        below :data:`DENSE_FILL`, its pattern's RCM band. A
        :class:`Route` whose kind is "dense" factors A with LAPACK
        ``getrf`` (classical partial pivoting) and no column order; one
        whose kind is "band" factors A in the route's RCM order with
        ``gbtrf`` (partial pivoting within the band).

    Raises
    ------
    SingularMatrixError
        If a zero (or negligible, ``|u_jj| <= eps * n * colmax``) pivot
        is encountered; the offending column is reported when the
        factorization got far enough to identify it.
    """
    if isinstance(A, BandMatrix):
        return _factor_band(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"cannot factor non-square matrix of shape {A.shape}")
    A = as_canonical_csc(A)
    n = A.shape[0]
    kind = None if route is None else route.kind
    if kind == "dense":
        return _factor_dense(A)
    if kind == "band":
        return _factor_band(BandMatrix.from_csc(A, route.order))
    try:
        superlu = spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=PIVOT_TOL,
            options={"Equil": False},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"sparse LU breakdown: {exc}") from exc
    # SuperLU's own U, whose diagonal needs no sorted copy; U's column j
    # holds the pivot of A's column argsort(perm_c)[j]
    _check_pivots(A, superlu.U.diagonal(), np.argsort(superlu.perm_c))
    if route is not None and route.fill is None:
        fill_nnz = superlu.L.nnz + superlu.U.nnz - n  # L's unit diagonal is stored
        route.fill = fill_nnz / n**2
        if route.fill < DENSE_FILL:
            route._measure_band(A, fill_nnz)
    return SparseLU(superlu, A.dtype, n)


def _factor_dense(A):
    """:func:`factor`'s dense route: LAPACK ``getrf`` on canonical CSC `A`."""
    getrf = lapack.get_lapack_funcs("getrf", (A.data,))
    lu, piv, info = getrf(A.toarray(order="F"), overwrite_a=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("dense LU met an exactly zero pivot", column=int(info - 1))
    _check_pivots(A, np.diagonal(lu))
    return SparseLU(_DenseLU(lu, piv), A.dtype, A.shape[0])


def _factor_band(band):
    """:func:`factor`'s band route: LAPACK ``gbtrf`` on a BandMatrix,
    whose storage it overwrites."""
    kl, ku, order = band.kl, band.ku, band.order
    gbtrf = lapack.get_lapack_funcs("gbtrf", (band.data,))
    lub, piv, info = gbtrf(band.data, kl, ku, overwrite_ab=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("band LU met an exactly zero pivot",
                                  column=int(order[info - 1]))
    # B's column j, pivoted by U[j, j], is A's column order[j]
    _check_pivots(band, lub[kl + ku], order)
    return SparseLU(_BandLU(lub, piv, band), lub.dtype, lub.shape[1])


def _check_pivots(A, pivots, pivot_cols=None):
    """Reject factorizations whose pivots are negligible relative to A.

    ``pivots[j]`` is U's pivot of A's column ``pivot_cols[j]`` (j when
    None). `A` is canonical CSC, or a :class:`~morkit.sparse.BandMatrix`
    B, whose pivot j is of its own column j and which keeps its moduli
    for this check. A pivot is negligible when ``|u_jj| <= eps * n *
    colmax``, colmax the largest modulus in its column of A.
    """
    udiag = np.abs(pivots)
    scale = np.finfo(np.float64).eps * udiag.shape[0]
    if pivot_cols is None:
        pivot_cols = np.arange(udiag.shape[0])
    if isinstance(A, BandMatrix):
        abs_max, pivot_colmax = A.abs_max, A.column_abs_max
    else:
        absdata = np.abs(A.data[: A.nnz])
        abs_max = absdata.max(initial=0.0)

        def pivot_colmax():
            return column_abs_max(A, absdata)[pivot_cols]
    # every column maximum is at most the largest entry, so pivots above
    # that entry's bound pass every column's bound as well
    if udiag.min() > scale * abs_max:
        return
    bad = np.flatnonzero(udiag <= scale * pivot_colmax())
    if bad.size:
        raise SingularMatrixError(
            "sparse LU produced a negligible pivot; matrix is numerically singular",
            column=int(pivot_cols[bad[0]]),
        )

