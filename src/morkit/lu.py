"""Sparse LU factorization with threshold partial pivoting.

Thin, contract-enforcing layer over SuperLU and LAPACK. Every route's
factors (:class:`SparseLU`) answer ``solve``, ``solve_transposed``,
``n`` and ``dtype``, all the reduction needs. ``perm_r``, ``perm_c``,
``permutation_matrices()`` and ``Pr @ A @ Pc == L @ U``, exact because
equilibration is disabled, are SuperLU's alone (route None or "sparse").
A :class:`Route` decides, once per sparsity pattern, how every
matrix of that pattern is factored. It runs one SuperLU factorization of
the pattern itself and measures its fill ``nnz(L + U)``:

* "ldlt": from :data:`DENSE_FILL` of n^2 on, when the matrix equals its
  transpose exactly at every shift, LAPACK ``?sytrf`` (Bunch-Kaufman
  symmetric pivoting, ``A = P L D L^T P^T``) on the dense matrix;
* "dense": from :data:`DENSE_FILL` on otherwise, LAPACK ``?getrf`` on
  the dense matrix;
* "band": below it, when reverse Cuthill-McKee from a pseudo-peripheral
  node (:func:`_rcm_order`) orders the pattern into a band whose
  storage, ``(2 kl + ku + 1) n`` entries, is at most :data:`BAND_FILL`
  times that fill, LAPACK ``?gbtrf`` on the band
  (:class:`~morkit.sparse.BandMatrix`);
* "sparse": otherwise SuperLU, each LU with its own minimum degree order.

:data:`BAND_FILL` comes from per-factorization times: SuperLU against
``?gbtrf`` on the band of that order, each with a two-column solve; the
order and the band's layout are built once per pattern and not timed
(medians of 21, one BLAS thread, a 2-core Xeon). The chains are the
benchmark's augmented matrix at a real shift and, for complex, with an
imaginary diagonal added; the grids are 5-point Laplacians plus the
identity. "ratio" is band storage over SuperLU's ``nnz(L + U)``;
"speedup" is SuperLU's time over the band's:

=======================  ======  ================  ================
pattern                  ratio   float64 speedup   complex speedup
=======================  ======  ================  ================
chain, n = 99,999        1.75    4.6               5.0
chain, n = 9,999         1.75    3.4               4.0
2-D grid 25 x 25         3.95    4.9               2.5
2-D grid 30 x 30         4.24    3.0               1.8
2-D grid 40 x 40         5.05    2.7               1.1
2-D grid 50 x 50         5.44    2.0               0.65-0.88
2-D grid 70 x 70         6.71    1.1               0.49-0.74
2-D grid 100 x 100       8.44    0.71              0.44
=======================  ======  ================  ================

On a grid the RCM band is as wide as the grid's side, so band storage
grows like n^1.5 and ``?gbtrf``'s work like n^2. Complex shifts, most
of a reduction's, break even near a ratio of 5.3, real ones near 7.
The threshold sits below both, at 4, which also keeps the band within 4
times the memory of SuperLU's factors: chains go banded, grids from
about 30 x 30 on stay on SuperLU. A reduction records its system's route
in its trace (see :class:`~morkit.irka.IterationTrace`), with the
bandwidths on the band route; the benchmark's chain, for one, records
``lu_route band fill 4.0000099997999949e-05 kl 2 ku 2``.

The "ldlt" route reads one triangle and does half of ``?getrf``'s work.
It needs LAPACK's blocked algorithm: scipy's ``?sytrf`` wrapper defaults
to a workspace of n, which runs the unblocked one, slower than
``?getrf``. With the workspace that ``?sytrf_lwork`` asks for (64 n),
one BLAS thread and a dense symmetric matrix of n = 1,100 (the
benchmark's synth-fill size, a 2-core Xeon), ``zsytrf`` takes 41 ms
against ``zgetrf``'s 72 ms and ``dsytrf`` 20 ms against ``dgetrf``'s
32 ms; with the default workspace ``zsytrf`` took 247 ms.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import DimensionError, SingularMatrixError
from .sparse import BandMatrix, as_canonical_csc, column_abs_max, inverse_order

PIVOT_TOL = 0.1  # threshold partial pivoting; 1.0 would be classical pivoting
DENSE_FILL = 1 / 3  # nnz(L+U) / n^2 of a pattern from which its LUs go dense
BAND_FILL = 4  # band storage / nnz(L+U) of a pattern up to which its LUs go banded


class Route:
    """The route of every factorization of one shifted augmented pattern,
    ``shifted.pattern`` (a :class:`~morkit.sparse.ShiftedAugmented`).

    ``fill`` is ``nnz(L + U) / n^2`` of SuperLU on the pattern itself:
    unit entries under a diagonal of n, which dominates its row and its
    column, so every pivot stays on the diagonal and the factorization
    exists. From :data:`DENSE_FILL` on, sparse elimination saves too
    little to pay for its indexing: LAPACK ``sytrf`` on the dense matrix
    when it equals its transpose exactly at every shift
    (:meth:`~morkit.sparse.ShiftedAugmented.is_symmetric`, ``kind``
    "ldlt"), else ``getrf`` ("dense"). Below it, when the band of
    A + A^T in reverse Cuthill-McKee order from a pseudo-peripheral node
    (:func:`_rcm_order`) stores at most :data:`BAND_FILL` times the
    fill, LAPACK ``gbtrf`` on the band ("band"; ``band`` is its
    :data:`~morkit.sparse.BandLayout`, None on the other routes);
    otherwise SuperLU, each LU with its own minimum degree order
    ("sparse").
    """

    def __init__(self, shifted):
        A = shifted.pattern
        n = A.shape[0]
        units = sp.csc_array((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
        probe = spla.splu(
            units + n * sp.eye_array(n, format="csc"),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=PIVOT_TOL,
            options={"Equil": False},
        )
        fill_nnz = probe.L.nnz + probe.U.nnz - n  # L's unit diagonal is stored
        self.fill = fill_nnz / n**2
        self.kind, self.band = "dense", None
        if self.fill >= DENSE_FILL:
            if shifted.is_symmetric():
                self.kind = "ldlt"
        else:
            band = shifted.band_layout(_rcm_order(A))
            fits = (2 * band.kl + band.ku + 1) * n <= BAND_FILL * fill_nnz
            self.kind, self.band = ("band", band) if fits else ("sparse", None)


def _rcm_order(A):
    """Reverse Cuthill-McKee order of the graph of canonical CSC `A` + A^T.

    Each connected component is numbered from a pseudo-peripheral node
    (:func:`_pseudo_peripheral`), its nodes' children in increasing
    degree, ties by index, so that the order depends on the pattern
    alone; components come in the order of their lowest node by degree,
    then index. Started at a minimum-degree node instead, as scipy's
    ``reverse_cuthill_mckee`` is, the search may start inside the graph
    and two fronts interleave: the benchmark's chain then gets a band
    twice as wide (kl = ku = 4 against 2).
    """
    # imported here, so that runs that go dense never load it (1 MB)
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = A.shape[0]
    cols = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    off = A.indices != cols  # the diagonal is no edge
    i, j = A.indices[off], cols[off]
    edges = (np.concatenate([i, j]), np.concatenate([j, i]))
    graph = sp.coo_array((np.ones(2 * i.size), edges), shape=A.shape).tocsr()
    degree = np.diff(graph.indptr)
    # on a symmetric graph the strong components are the connected ones
    count, labels = connected_components(graph, connection="strong")
    by_degree = np.argsort(degree, kind="stable")
    first = np.full(count, n)  # each component's first position in by_degree
    np.minimum.at(first, labels[by_degree], np.arange(n))
    # relabel by (component, degree, index): a component is a contiguous
    # block of labels, its lowest label its first node, and a CSR row
    # with sorted indices lists its children in the order CM visits them
    perm = np.lexsort((degree, first[labels]))
    rank = inverse_order(perm).astype(graph.indices.dtype)
    graph = graph[perm]
    graph.indices = rank[graph.indices]
    graph.has_sorted_indices = False
    graph.sort_indices()
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels)[np.argsort(first)])])
    pieces = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        a, b = graph.indptr[lo], graph.indptr[hi]  # no edge leaves a component
        block = sp.csr_array(
            (graph.data[a:b], graph.indices[a:b] - lo, graph.indptr[lo:hi + 1] - a),
            shape=(hi - lo, hi - lo))
        pieces.append(lo + breadth_first_order(block, _pseudo_peripheral(block),
                                               return_predecessors=False))
    return perm[np.concatenate(pieces)[::-1]]


def _pseudo_peripheral(graph):
    """A pseudo-peripheral node of connected symmetric CSR `graph`, whose
    node 0 has the lowest degree and labels grow with degree (George &
    Liu, ACM TOMS 5, 1979): breadth-first search from node 0, then again
    from the lowest-labelled node of the last level, as long as the
    eccentricity grows."""
    from scipy.sparse.csgraph import shortest_path

    root, dist = 0, shortest_path(graph, unweighted=True, indices=0)
    while True:
        ecc = dist.max()
        candidate = int(np.argmax(dist == ecc))
        dist_c = shortest_path(graph, unweighted=True, indices=candidate)
        if dist_c.max() <= ecc:
            return root
        root, dist = candidate, dist_c


class SparseLU:
    """Factorization of a square sparse matrix, for solves with it.

    Every route answers :meth:`solve`, :meth:`solve_transposed`, ``n``
    and ``dtype``. The factors are SuperLU's or, on the ldlt, dense and
    band routes, LAPACK's (:class:`_DenseLDLT`, :class:`_DenseLU`,
    :class:`_BandLU`). SuperLU's alone answer ``perm_r``, ``perm_c`` and
    :meth:`permutation_matrices`, with ``Pr @ A @ Pc = L @ U``, which
    ``morkit verify`` checks. LAPACK's ``L`` and ``U`` are copies of
    their stored factors, built when read, for their sizes, which only
    the benchmark's tracer reads; they satisfy no such identity.

    Attributes
    ----------
    n : int
        Matrix dimension.
    dtype : numpy.dtype
        Arithmetic of the factors: float64 or complex128.
    L, U : scipy.sparse.csc_array
        SuperLU's unit-lower and upper triangular factors; on the other
        routes, size readouts (see above).
    perm_r, perm_c : numpy.ndarray of int
        SuperLU only: row and column permutations; ``Pr[perm_r[k], k] =
        1`` and ``Pc[k, perm_c[k]] = 1``.
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
    uses for solves. ``L`` (unit lower) and ``U`` are copies of the
    stored triangles, built when read, for their sizes."""

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


class _DenseLDLT:
    """LAPACK ``?sytrf`` factors ``A = P L D L^T P^T`` of a dense
    symmetric matrix, from its lower triangle, behind the part of
    SuperLU's interface that :class:`SparseLU` uses for solves. Since
    ``A = A^T``, the transposed solve is the plain one.

    ``L`` (the unit lower triangle of multipliers) and ``U`` (the block
    diagonal D, its 2 x 2 blocks' off-diagonal entries included) are
    copies of the stored factors, built when read, for their sizes.
    """

    def __init__(self, ldu, ipiv):
        self._ldu, self._ipiv = ldu, ipiv  # ipiv as LAPACK's, 1-based
        self._sytrs = lapack.get_lapack_funcs("sytrs", (ldu,))

    def solve(self, rhs, trans="N"):
        x, _ = self._sytrs(self._ldu, self._ipiv, rhs, lower=1)
        return x

    @property
    def L(self):
        L = _triangle_csc(self._ldu, lower=True)
        L.data[L.indptr[:-1]] = 1.0  # each column starts at its unit diagonal
        # below a 2 x 2 block's first diagonal entry sits D's, not a multiplier
        L.data[L.indptr[_block_starts(self._ipiv)] + 1] = 0.0
        return L

    @property
    def U(self):
        n = self._ldu.shape[0]
        first = _block_starts(self._ipiv)
        rows = np.concatenate([np.arange(n), first + 1, first])
        cols = np.concatenate([np.arange(n), first, first + 1])
        # D is stored in the lower triangle only
        values = self._ldu[np.maximum(rows, cols), np.minimum(rows, cols)]
        return sp.csc_array((values, (rows, cols)), shape=(n, n))


def _block_starts(ipiv):
    """First columns of the 2 x 2 blocks of ``?sytrf``'s D (lower): each
    block marks its two columns with equal negative ``ipiv`` entries."""
    return np.flatnonzero(ipiv < 0)[::2]


def _ldlt_order(ipiv):
    """A's column at each position of ``?sytrf``'s (lower) ``P^T A P``.

    Step k interchanges rows and columns k and ``ipiv[k] - 1`` before a
    1 x 1 pivot, or k + 1 and ``-ipiv[k] - 1`` before a 2 x 2 block at
    k and k + 1; a later step moves only later positions.
    """
    order = np.arange(ipiv.shape[0])
    k = 0
    while k < ipiv.shape[0]:
        j = k if ipiv[k] > 0 else k + 1  # a 2 x 2 block's second position
        p = abs(int(ipiv[k])) - 1
        order[j], order[p] = order[p], order[j]
        k = j + 1
    return order


class _BandLU:
    """LAPACK ``?gbtrf`` factors of a :class:`~morkit.sparse.BandMatrix`
    B = A[order][:, order], behind the part of SuperLU's interface that
    :class:`SparseLU` uses for solves.

    ``L`` and ``U`` are copies of the stored band, built when read, for
    their sizes: ``L`` holds each column's ``kl + 1`` stored entries
    under a unit diagonal, in the rows ``?gbtrf`` left them (it defers
    its row interchanges), and ``U`` the band's ``kl + ku + 1`` rows.
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
        values = self._lub[self._kl + self._ku:].T.copy()  # U's diagonal, then multipliers
        values[:, 0] = 1.0
        return _band_csc(values, 0)

    @property
    def U(self):
        return _band_csc(self._lub[: self._kl + self._ku + 1].T, -(self._kl + self._ku))


def _band_csc(values, first):
    """Square CSC matrix whose column j holds ``values[j, t]`` in row
    ``j + first + t`` wherever that row exists, zeros included, as band
    factors store them."""
    n, width = values.shape
    rows = np.arange(n)[:, None] + np.arange(first, first + width)
    keep = (rows >= 0) & (rows < n)
    idx = sp.get_index_dtype(maxval=max(n, keep.size))
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csc_array((values[keep], rows[keep].astype(idx), indptr), shape=(n, n))


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
    """Factor a square sparse matrix for solves with it and its transpose.

    Parameters
    ----------
    A : sparse matrix or BandMatrix
        Square, real or complex. A :class:`~morkit.sparse.BandMatrix`,
        as the band route assembles them, is factored by LAPACK
        ``gbtrf`` (partial pivoting within the band).
    route : None or Route
        The :class:`Route` of A's pattern. On the dense route A is
        factored by LAPACK ``getrf`` (classical partial pivoting) with
        no column order, on the ldlt route, where A must be symmetric,
        by LAPACK ``sytrf`` (Bunch-Kaufman pivoting) from its lower
        triangle; otherwise, and when None, SuperLU runs with minimum
        degree ordering on the pattern of A + A^T.

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
    if route is not None and route.kind == "dense":
        return _factor_dense(A)
    if route is not None and route.kind == "ldlt":
        return _factor_ldlt(A)
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
    return SparseLU(superlu, A.dtype, A.shape[0])


def _factor_dense(A):
    """:func:`factor`'s dense route: LAPACK ``getrf`` on canonical CSC `A`."""
    getrf = lapack.get_lapack_funcs("getrf", (A.data,))
    lu, piv, info = getrf(A.toarray(order="F"), overwrite_a=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("dense LU met an exactly zero pivot", column=int(info - 1))
    _check_pivots(A, np.diagonal(lu))
    return SparseLU(_DenseLU(lu, piv), A.dtype, A.shape[0])


_SYTRF_LWORK = {}  # LAPACK's optimal ?sytrf workspace per (typecode, n)


def _factor_ldlt(A):
    """:func:`factor`'s ldlt route: LAPACK ``sytrf`` on the lower
    triangle of canonical CSC `A`, which must be symmetric, with the
    optimal workspace (blocked; the wrapper's default of n is not)."""
    a = A.toarray(order="F")
    n = a.shape[0]
    sytrf = lapack.get_lapack_funcs("sytrf", (a,))
    lwork = _SYTRF_LWORK.get((sytrf.typecode, n))
    if lwork is None:
        query = lapack.get_lapack_funcs("sytrf_lwork", (a,))
        lwork = _SYTRF_LWORK[(sytrf.typecode, n)] = max(int(query(n, lower=1)[0].real), 1)
    ldu, ipiv, info = sytrf(a, lower=1, lwork=lwork, overwrite_a=True)
    if info > 0:  # D[info-1, info-1] is exactly zero
        raise SingularMatrixError("dense LDL^T met an exactly zero pivot",
                                  column=int(_ldlt_order(ipiv)[info - 1]))
    pivots = np.diagonal(ldu)
    first = _block_starts(ipiv)
    if first.size:  # a 2 x 2 block counts by its smallest singular value
        pivots = np.abs(pivots)
        blocks = np.empty((first.size, 2, 2), dtype=ldu.dtype)
        blocks[:, 0, 0], blocks[:, 1, 1] = ldu[first, first], ldu[first + 1, first + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = ldu[first + 1, first]
        pivots[first] = pivots[first + 1] = np.linalg.svd(blocks, compute_uv=False)[:, 1]
    _check_pivots(A, pivots, lambda: _ldlt_order(ipiv))
    return SparseLU(_DenseLDLT(ldu, ipiv), A.dtype, n)


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

    ``pivots[j]`` is U's pivot (D's on the ldlt route) of A's column
    ``pivot_cols[j]``: j when None, and when a function, its result,
    asked for only when some pivot is small enough to need the columns.
    `A` is canonical CSC, or a :class:`~morkit.sparse.BandMatrix`
    B, whose pivot j is of its own column j and which keeps its moduli
    for this check. A pivot is negligible when ``|u_jj| <= eps * n *
    colmax``, colmax the largest modulus in its column of A.
    """
    udiag = np.abs(pivots)
    scale = np.finfo(np.float64).eps * udiag.shape[0]
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
    if pivot_cols is None:
        pivot_cols = np.arange(udiag.shape[0])
    elif callable(pivot_cols):
        pivot_cols = pivot_cols()
    bad = np.flatnonzero(udiag <= scale * pivot_colmax())
    if bad.size:
        raise SingularMatrixError(
            "sparse LU produced a negligible pivot; matrix is numerically singular",
            column=int(pivot_cols[bad[0]]),
        )

