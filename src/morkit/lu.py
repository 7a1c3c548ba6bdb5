"""Sparse LU factorization with threshold partial pivoting.

Thin, contract-enforcing layer over SuperLU and LAPACK. Every route's
factors are one :class:`SparseLU`: ``solve``, ``solve_transposed``,
``n`` and ``dtype``, all the reduction needs, and ``routine``, the
routine that factored. ``perm_r``, ``perm_c``,
``permutation_matrices()`` and ``Pr @ A @ Pc == L @ U``, exact because
equilibration is disabled, are SuperLU's alone (a sparse matrix, the
"sparse" route); on the LAPACK routes ``L`` and ``U`` only read out the
stored factor's size.
A :class:`Route` decides, once per sparsity pattern, how every
matrix of that pattern is factored. It runs one SuperLU factorization of
the pattern itself and measures its fill ``nnz(L + U)``. The LAPACK
routes scatter each shift straight into the array their routine factors:

* "ldlt": from :data:`DENSE_FILL` of n^2 on, when the matrix equals its
  transpose exactly at every shift, LAPACK ``?sytrf`` (Bunch-Kaufman
  symmetric pivoting, ``A = P L D L^T P^T``) on the dense lower
  triangle, the only one scattered;
* "dense": from :data:`DENSE_FILL` on otherwise, LAPACK ``?getrf`` on
  the dense matrix;
* "band": below it, when reverse Cuthill-McKee from a pseudo-peripheral
  node (:func:`_rcm_order`) orders the pattern into a band whose
  storage, ``(2 kl + ku + 1) n`` entries, is at most :data:`BAND_FILL`
  times that fill, LAPACK ``?gbtrf`` on the band. At a real shift of a
  matrix that equals its transpose exactly at every shift, ``?pbtrf``
  (Cholesky, ``B = L L^T``) on the band's lower triangle and ``?pbtrs``
  for both solves; a matrix that is not positive definite there is
  factored by ``?gbtrf`` instead. Complex shifts stay on ``?gbtrf``: the
  matrix is then complex symmetric, not Hermitian, and LAPACK has no
  band LDL^T;
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
chain, Cholesky, 99,999  0.75    7.0               --
chain, Cholesky, 9,999   0.75    5.5               --
2-D grid 25 x 25         3.95    4.9               2.5
2-D grid 30 x 30         4.24    3.0               1.8
2-D grid 40 x 40         5.05    2.7               1.1
2-D grid 50 x 50         5.44    2.0               0.65-0.88
2-D grid 70 x 70         6.71    1.1               0.49-0.74
2-D grid 100 x 100       8.44    0.71              0.44
=======================  ======  ================  ================

The Cholesky rows are ``?pbtrf``/``?pbtrs`` on the lower triangle of
the same real band (``kl = ku = 2``), "ratio" its ``3 n`` entries over
SuperLU's fill. In their runs ``?gbtrf`` on the full band read 5.7
and 4.7 (4.6 and 3.4 above, from other runs). The difference is the
factorization: a two-column ``?pbtrs`` costs about what ``?gbtrs``
does.

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

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import DimensionError, SingularMatrixError
from .sparse import Stored, as_canonical_csc, column_abs_max, inverse_order

PIVOT_TOL = 0.1  # threshold partial pivoting; 1.0 would be classical pivoting
DENSE_FILL = 1 / 3  # nnz(L+U) / n^2 of a pattern from which its LUs go dense
BAND_FILL = 4  # band storage / nnz(L+U) of a pattern up to which its LUs go banded


class Route:
    """The route of every factorization of one shifted augmented pattern,
    ``shifted.pattern`` (a :class:`~morkit.sparse.ShiftedAugmented`):
    ``kind`` is "ldlt", "dense", "band" or "sparse", as the module
    docstring sets out.

    ``fill`` is ``nnz(L + U) / n^2`` of SuperLU on the pattern itself:
    unit entries under a diagonal of n, which dominates its row and its
    column, so every pivot stays on the diagonal and the factorization
    exists. ``layout`` is the :data:`~morkit.sparse.Layout` every shift
    is scattered into (None on the sparse route), and ``lower``, on the
    band route of a matrix that equals its transpose exactly
    (:meth:`~morkit.sparse.ShiftedAugmented.is_symmetric`), the band's
    lower triangle's, which its real shifts take instead (else None).
    """

    def __init__(self, shifted):
        A = shifted.pattern
        n = A.shape[0]
        fill_nnz = _fill_nnz(A)
        self.fill = fill_nnz / n**2
        self.layout = self.lower = None
        if self.fill >= DENSE_FILL:
            self.kind = "ldlt" if shifted.is_symmetric() else "dense"
            self.layout = shifted.layout("dense-lower" if self.kind == "ldlt" else "dense")
            return
        order = _rcm_order(A)
        band = shifted.layout("band", order)
        if (2 * band.kl + band.ku + 1) * n > BAND_FILL * fill_nnz:
            self.kind = "sparse"
            return
        self.kind, self.layout = "band", band
        if shifted.is_symmetric():
            self.lower = shifted.layout("band-lower", order)
            self.layout = self.lower.full  # the same band, kept once


def _fill_nnz(A):
    """``nnz(L + U)`` of SuperLU on the pattern of canonical CSC `A`, unit
    entries under a diagonal of n. The factors are freed on return, before
    the route's other work on the pattern."""
    n = A.shape[0]
    units = sp.csc_array((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    probe = spla.splu(
        units + n * sp.eye_array(n, format="csc"),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=PIVOT_TOL,
        options={"Equil": False},
    )
    return probe.L.nnz + probe.U.nnz - n  # L's unit diagonal is stored


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
    # A's CSC arrays hold A^T as CSR, and its sum with A, the graph, is
    # symmetric CSR with sorted rows; the diagonal, weighted 0, drops out
    weights = (A.indices != cols).astype(np.float64)
    half = sp.csr_array((weights, A.indices, A.indptr), shape=A.shape)
    graph = half + half.T
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

    Every route answers :meth:`solve` and :meth:`solve_transposed`,
    through its routine's own solve, ``n``, ``dtype`` and ``routine``.
    SuperLU's factors alone answer ``perm_r``, ``perm_c`` and
    :meth:`permutation_matrices`, with ``Pr @ A @ Pc = L @ U``, which
    ``morkit verify`` checks. On the LAPACK routes ``L`` and ``U`` read
    out a size alone, copying nothing: ``L.nnz`` is the stored factor
    array's entries and ``U.nnz`` n, so that ``L.nnz + U.nnz - n``
    counts it as it counts SuperLU's factors. Only the benchmark's tracer
    reads them; they go once it reads ``n``, ``dtype`` and stored bytes.

    Attributes
    ----------
    n : int
        Matrix dimension.
    dtype : numpy.dtype
        Arithmetic of the factors: float64 or complex128.
    routine : str
        "gstrf" (SuperLU), "getrf", "sytrf", "gbtrf" or "pbtrf" (LAPACK).
    L, U : scipy.sparse.csc_array
        SuperLU's unit-lower and upper triangular factors; on the other
        routes, size readouts (see above).
    perm_r, perm_c : numpy.ndarray of int
        SuperLU only: row and column permutations; ``Pr[perm_r[k], k] =
        1`` and ``Pc[k, perm_c[k]] = 1``.
    """

    def __init__(self, solve, dtype, n, routine, factors, order=None):
        self._solve_factored = solve  # (rhs, "N" or "T"), rows in `order`
        self.dtype, self.n, self.routine = dtype, n, routine
        self._factors, self._order = factors, order

    @property
    def L(self):
        if self.routine != "gstrf":
            return SimpleNamespace(nnz=self._factors.size)
        return as_canonical_csc(self._factors.L)

    @property
    def U(self):
        if self.routine != "gstrf":
            return SimpleNamespace(nnz=self.n)
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
        order = self._order
        if order is not None:
            rhs = rhs[order]
        if np.iscomplexobj(rhs) and not np.issubdtype(self.dtype, np.complexfloating):
            # real factorization, complex right-hand side: solve parts
            # separately, and a zero imaginary part not at all
            x = self._solve_factored(np.ascontiguousarray(rhs.real), trans)
            if rhs.imag.any():
                x = x + 1j * self._solve_factored(np.ascontiguousarray(rhs.imag), trans)
            else:
                x = x.astype(np.complex128)
        else:
            x = self._solve_factored(rhs.astype(self.dtype, copy=False), trans)
        if order is not None:
            x[order] = x.copy()  # from the factored matrix's order to A's
        return x

    def solve(self, rhs):
        """Solve ``A x = rhs`` for a dense vector or block of vectors."""
        return self._solve(rhs, "N")

    def solve_transposed(self, rhs):
        """Solve ``A^T x = rhs`` (plain transpose, no conjugation)."""
        return self._solve(rhs, "T")


_TRANS = {"N": 0, "T": 1}  # LAPACK's trans argument


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


def factor(A):
    """Factor a square matrix for solves with it and its transpose.

    Parameters
    ----------
    A : sparse matrix or Stored
        Square, real or complex. A sparse matrix is factored by SuperLU
        with minimum degree ordering on the pattern of A + A^T; a
        :data:`~morkit.sparse.Stored` matrix
        (:meth:`~morkit.sparse.ShiftedAugmented.scatter`) by the LAPACK
        routine that reads its storage (``getrf``, ``sytrf``, ``gbtrf``
        or ``pbtrf``), and "band-lower", when A is not positive
        definite, in full band storage by ``gbtrf``.

    Raises
    ------
    SingularMatrixError
        If a zero (or negligible, ``|u_jj| <= eps * n * colmax``) pivot
        is encountered; the offending column is reported when the
        factorization got far enough to identify it. Cholesky's pivot is
        ``l_jj^2``.
    """
    if isinstance(A, Stored):
        return _ROUTINES[A.layout.storage](A)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"cannot factor non-square matrix of shape {A.shape}")
    A = as_canonical_csc(A)
    try:
        superlu = spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=PIVOT_TOL,
            options={"Equil": False},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"sparse LU breakdown: {exc}") from exc
    absdata = np.abs(A.data[: A.nnz])
    # SuperLU's own U, whose diagonal needs no sorted copy; U's column j
    # holds the pivot of A's column argsort(perm_c)[j]
    _check_pivots("gstrf", superlu.U.diagonal(), absdata.max(initial=0.0),
                  lambda: column_abs_max(A, absdata), np.argsort(superlu.perm_c))
    return SparseLU(superlu.solve, A.dtype, A.shape[0], "gstrf", superlu)


def _getrf(A):
    """:func:`factor` on "dense" storage: LAPACK ``getrf``."""
    getrf = lapack.get_lapack_funcs("getrf", (A.data,))
    lu, piv, info = getrf(A.data, overwrite_a=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("dense LU met an exactly zero pivot", column=int(info - 1))
    _check_pivots("getrf", np.diagonal(lu), A.abs_max, A.column_abs_max)
    getrs = lapack.get_lapack_funcs("getrs", (lu,))

    def solve(rhs, trans):  # piv: row i was swapped with row piv[i]
        return getrs(lu, piv, rhs, trans=_TRANS[trans])[0]
    return SparseLU(solve, lu.dtype, lu.shape[0], "getrf", lu)


_SYTRF_LWORK = {}  # LAPACK's optimal ?sytrf workspace per (typecode, n)


def _sytrf(A):
    """:func:`factor` on "dense-lower" storage: LAPACK ``sytrf``, with
    the optimal workspace (blocked; the wrapper's default of n is not)."""
    a = A.data
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
    _check_pivots("sytrf", pivots, A.abs_max, A.column_abs_max, lambda: _ldlt_order(ipiv))
    sytrs = lapack.get_lapack_funcs("sytrs", (ldu,))

    def solve(rhs, trans):  # A = A^T: the transposed solve is the plain one
        return sytrs(ldu, ipiv, rhs, lower=1)[0]
    return SparseLU(solve, ldu.dtype, n, "sytrf", ldu)


def _gbtrf(A):
    """:func:`factor` on "band" storage: LAPACK ``gbtrf``."""
    kl, ku, order = A.layout.kl, A.layout.ku, A.layout.order
    gbtrf = lapack.get_lapack_funcs("gbtrf", (A.data,))
    lub, piv, info = gbtrf(A.data, kl, ku, overwrite_ab=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        raise SingularMatrixError("band LU met an exactly zero pivot",
                                  column=int(order[info - 1]))
    # B's column j, pivoted by U[j, j], is A's column order[j]
    _check_pivots("gbtrf", lub[kl + ku], A.abs_max, A.column_abs_max, order)
    gbtrs = lapack.get_lapack_funcs("gbtrs", (lub,))

    def solve(rhs, trans):  # piv: row j was swapped with row piv[j]
        return gbtrs(lub, kl, ku, rhs, piv, trans=_TRANS[trans])[0]
    return SparseLU(solve, lub.dtype, lub.shape[1], "gbtrf", lub, order)


def _pbtrf(A):
    """:func:`factor` on "band-lower" storage: LAPACK ``pbtrf``. A matrix
    that is not positive definite is factored by ``gbtrf`` in full band
    storage instead."""
    pbtrf = lapack.get_lapack_funcs("pbtrf", (A.data,))
    chol, info = pbtrf(A.data, lower=1, overwrite_ab=1)
    if info > 0:  # the leading minor of order info is not positive definite
        return _gbtrf(A.full())
    # B = L L^T eliminates B's column j with the pivot L[j, j]^2
    _check_pivots("pbtrf", np.square(chol[0]), A.abs_max, A.column_abs_max, A.layout.order)
    pbtrs = lapack.get_lapack_funcs("pbtrs", (chol,))

    def solve(rhs, trans):  # B = B^T: the transposed solve is the plain one
        return pbtrs(chol, rhs, lower=1)[0]
    return SparseLU(solve, chol.dtype, chol.shape[1], "pbtrf", chol, A.layout.order)


_ROUTINES = {"dense": _getrf, "dense-lower": _sytrf, "band": _gbtrf, "band-lower": _pbtrf}


def _check_pivots(routine, pivots, abs_max, column_abs_max, pivot_cols=None):
    """Reject factorizations whose pivots are negligible relative to A.

    ``pivots[j]`` is `routine`'s pivot (U's; D's on ``sytrf``, ``L[j,
    j]^2`` on ``pbtrf``) of A's column ``pivot_cols[j]``: j when None,
    and when a function, its result, asked for only when some pivot is
    small enough to need the columns. `abs_max` is the largest modulus
    in A, and ``column_abs_max()`` gives the largest in each of A's
    columns. A pivot is negligible when ``|u_jj| <= eps * n * colmax``,
    colmax the largest modulus in its column of A.
    """
    udiag = np.abs(pivots)
    scale = np.finfo(np.float64).eps * udiag.shape[0]
    # every column maximum is at most the largest entry, so pivots above
    # that entry's bound pass every column's bound as well
    if udiag.min() > scale * abs_max:
        return
    if pivot_cols is None:
        pivot_cols = np.arange(udiag.shape[0])
    elif callable(pivot_cols):
        pivot_cols = pivot_cols()
    bad = np.flatnonzero(udiag <= scale * column_abs_max()[pivot_cols])
    if bad.size:
        raise SingularMatrixError(
            f"{routine} produced a negligible pivot; matrix is numerically singular",
            column=int(pivot_cols[bad[0]]),
        )
