"""Sparse block storage and assembly.

All sparse blocks in this package live in compressed-sparse-column (CSC)
form with canonical structure: row indices sorted within each column and
duplicate entries summed. Values are float64 or complex128.

The shifted augmented matrix has one assembler, :class:`ShiftedAugmented`:
one index map per system (built once, as ``system.augmented``), from
which every shift's matrix is scattered, on one pattern whatever the
shift, into CSC for SuperLU or straight into the array that one LAPACK
routine factors (a :data:`Stored` matrix). :func:`positions` alone
decides where an entry lands in each of LAPACK's four storages: dense,
its lower triangle, band, and the band's lower triangle. The lower
storages, for a system whose matrix equals its transpose, are filled
from the entries on and above the diagonal alone.
"""

from collections import namedtuple

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
    transpose through the same factorization. See :meth:`ShiftedAugmented.csc`;
    the index map is the system's one (``system.augmented``).
    """
    return system.augmented.csc(sigma)


class ShiftedAugmented:
    """Index map of the shifted augmented matrix of `system`.

    It keeps M11, L11 and K11 aligned on the union of their patterns,
    the augmented CSC ``pattern`` (holding the fixed blocks' values, 0 on
    the union) and where the union lands in it. At a shift, :meth:`csc`
    and :meth:`scatter` compute ``(sigma^2 M11 + sigma L11) + K11`` once
    on the union and scatter it into CSC or, in a :data:`Layout`
    (:meth:`layout`) that :class:`morkit.lu.Route` keeps, into a LAPACK
    storage. The union's entries on and above the diagonal come first: a
    matrix that equals its transpose is determined by them, and its lower
    storages are scattered from them alone.
    """

    def __init__(self, system):
        shifted = (system.M11, system.L11, system.K11)
        # every block's entries tagged with its own bit: the sum stores the
        # union of the patterns, and bit k marks the entries of block k
        tags = [sp.csc_array((np.full(b.nnz, 1 << k, np.int8), b.indices, b.indptr), shape=b.shape)
                for k, b in enumerate(shifted)]
        union = tags[0] + tags[1] + tags[2]
        cols = np.repeat(np.arange(system.n1, dtype=union.indices.dtype), np.diff(union.indptr))
        upper = union.indices <= cols
        first = np.argsort(~upper, kind="stable")
        self._upper11 = int(np.count_nonzero(upper))
        self._shifted = []  # M11, L11, K11 values on the union, 0 where absent
        for k, block in enumerate(shifted):
            values = np.zeros(union.nnz)
            values[(union.data & (1 << k)) != 0] = block.data
            self._shifted.append(values[first])
        union.data = np.zeros(union.nnz)
        self.n1 = system.n1
        self.pattern, at = _stack_block_columns(
            ((union, system.K21), (system.K12, system.K22)), system.n1)
        self._at = at[first]
        self._abs_max_fixed = np.abs(self.pattern.data).max(initial=0.0)

    def _s11(self, sigma, upper=False):
        """S11 at `sigma` on the union, or on its leading entries on and
        above the diagonal (`upper`)."""
        sigma = complex(sigma)
        if sigma.imag == 0.0:  # real arithmetic is exact here, and cheaper to factor
            sigma = sigma.real
        count = self._upper11 if upper else None
        M, L, K = (values[:count] for values in self._shifted)
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

    def is_symmetric(self):
        """Whether the matrix :meth:`csc` gives equals its transpose
        exactly at every sigma: ``pattern`` is symmetric, and so are M11,
        L11 and K11 on the union and the fixed blocks (K22 itself, K21
        against K12^T), each entry equal to its mirror as a number. Each
        entry and its mirror are then computed by the same arithmetic at
        every sigma, so a solver that reads one triangle reads all of A.
        """
        P = self.pattern
        ranks = sp.csc_array((np.arange(P.nnz), P.indices, P.indptr), shape=P.shape)
        mirrored = ranks.T.tocsc()  # canonical; holds where P's mirror entry sits
        if not (np.array_equal(mirrored.indptr, P.indptr)
                and np.array_equal(mirrored.indices, P.indices)):
            return False
        mirror = mirrored.data
        values = np.zeros(P.nnz)
        for block in self._shifted:
            values[self._at] = block
            if not np.array_equal(values[mirror], values):
                return False
        return np.array_equal(P.data[mirror], P.data)

    def proportional(self, ulps):
        """``(alpha, beta)`` when ``L11 = alpha M11 + beta K11`` entry by
        entry on the union, else None.

        alpha and beta are the least-squares fit of L11's nonzero entries,
        each equation divided by its entry, so that every entry weighs
        alike whatever its size. Every entry of the union, zeros of L11
        included, must then match its fit to within `ulps` units in the
        last place of the fit's terms, ``|alpha M_k| + |beta K_k|``. An
        L11 without a nonzero entry has no fit (None).
        """
        M, L, K = self._shifted
        nonzero = L != 0.0
        if not nonzero.any():
            return None
        weight = 1.0 / np.abs(L[nonzero])
        terms = np.column_stack([M[nonzero] * weight, K[nonzero] * weight])
        norms = np.linalg.norm(terms, axis=0)
        norms[norms == 0.0] = 1.0
        terms /= norms
        target = np.sign(L[nonzero])
        coef = np.linalg.lstsq(terms, target, rcond=None)[0]
        # one step of refinement takes the fit from tens of ulps to a few
        coef += np.linalg.lstsq(terms, target - terms @ coef, rcond=None)[0]
        alpha, beta = (float(c) for c in coef / norms)
        aM, bK = alpha * M, beta * K
        gap = np.abs(L - (aM + bK))
        if (gap <= ulps * np.finfo(np.float64).eps * (np.abs(aM) + np.abs(bK))).all():
            return alpha, beta
        return None

    def dense11(self, k):
        """Block k of (M11, L11, K11) as a dense Fortran-order n1 x n1
        array, from its values on the union."""
        P = self.pattern
        n1 = self.n1
        cols = np.repeat(np.arange(P.shape[1]), np.diff(P.indptr))[self._at]
        out = np.zeros((n1, n1), order="F")
        out.reshape(-1, order="F")[P.indices[self._at] + cols * n1] = self._shifted[k]
        return out

    def layout(self, storage, order=None):
        """The :data:`Layout` of ``pattern`` in `storage` (see
        :func:`positions`), rows and columns taken in `order` (None: as
        they are). A lower storage, for a matrix that equals its transpose
        exactly (:meth:`is_symmetric`), takes S11's entries on and above
        the diagonal alone, each at the place of the pair it forms with
        its mirror, and the fixed entries on and below it. The fixed
        entries are kept in the order of their places, which a shift's
        scatter visits faster than their CSC order."""
        full = self.layout("band", order) if storage == "band-lower" else None
        return self._layout(storage, order, full)

    def _layout(self, storage, order, full):
        """:meth:`layout`, with `full` the "band" layout of `order` on
        "band-lower" (None on the other storages), built by the caller."""
        P = self.pattern
        at, mirrored, shape, kl, ku = positions(P, storage, order)
        fixed = np.ones(P.nnz, dtype=bool)
        fixed[self._at] = False
        fixed = np.flatnonzero(fixed & ~mirrored)
        fixed = fixed[np.argsort(at[fixed], kind="stable")]
        at11, at_fixed, values = at[self._at], at[fixed], P.data[fixed]
        values = values + 0.0 if storage.startswith("dense") else values  # see scatter
        if storage.endswith("-lower"):
            # int32 where it fits: the maps live as long as the system, and only
            # real shifts pay the cast (0.5 ms each on the chain, 1 MB saved)
            idx = sp.get_index_dtype(maxval=shape[0] * shape[1])
            at11, at_fixed = at11[: self._upper11].astype(idx), at_fixed.astype(idx)
        # the full storages' positions stay intp: every shift, complex ones and
        # the sweep's included, scatters through these maps, and int32 ones cost
        # numpy a cast per scatter (0.5 ms of 5.4 on the chain at n = 99,999)
        return Layout(storage, shape, order, kl, ku, at11, at_fixed, values, full)

    def scatter(self, sigma, layout):
        """The augmented matrix at `sigma` in `layout` (:meth:`layout`),
        of the dtype :meth:`csc` gives, as a :data:`Stored`."""
        lower = layout.storage.endswith("-lower")
        s11 = self._s11(sigma, upper=lower)
        # on a matrix equal to its transpose, S11's largest modulus is one
        # on or above the diagonal
        abs_max = max(np.abs(s11).max(initial=0.0), self._abs_max_fixed)
        if layout.storage.startswith("dense"):  # as toarray's copy of csc(), which
            s11 = s11 + 0.0  # these routes factored, reads -0.0 as 0.0
        data = np.zeros(layout.shape, s11.dtype, order="F")
        flat = data.reshape(-1, order="F")  # a view: data is Fortran-contiguous
        flat[layout.at11] = s11
        flat[layout.at_fixed] = layout.values_fixed

        def colmax():
            absdata = np.abs(self.pattern.data)
            absdata[self._at] = np.abs(self._s11(sigma) if lower else s11)
            return column_abs_max(self.pattern, absdata)

        full = None if layout.full is None else (lambda: self.scatter(sigma, layout.full))
        return Stored(data, layout, abs_max, colmax, full)


# where ShiftedAugmented.scatter writes a shift's matrix: the array of
# `shape` that `storage` (see positions) holds, with rows and columns in
# `order` (None: as they are), the band the pattern spans there (kl sub-,
# ku superdiagonals), the flattened positions of S11's entries and of the
# fixed blocks' (whose values it keeps), and on "band-lower", as `full`,
# the "band" layout of the same order (None on the other storages)
Layout = namedtuple("Layout", "storage shape order kl ku at11 at_fixed values_fixed full")

# a shift's matrix A as one LAPACK routine reads it: `data` in `layout`;
# for the pivot check, which reads them after the routine has overwritten
# `data`, A's largest modulus and, from `column_abs_max()`, the largest in
# each of A's columns, in A's own order; on "band-lower", `full()` gives A
# in the "band" layout of the same order, for the LU that takes over when
# A is not positive definite (None on the other storages)
Stored = namedtuple("Stored", "data layout abs_max column_abs_max full")


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


def column_abs_max(A, absdata):
    """Largest of `absdata` (the moduli of canonical CSC `A`'s stored
    entries) in each column of `A`, 0 in empty columns."""
    starts = A.indptr[:-1]
    filled = np.flatnonzero(A.indptr[1:] > starts)
    colmax = np.zeros(A.shape[1])
    if filled.size:
        colmax[filled] = np.maximum.reduceat(absdata, starts[filled])
    return colmax


def positions(A, storage, order=None):
    """``(at, mirrored, shape, kl, ku)``: where each entry of canonical
    CSC `A` lands in the Fortran-order array of `shape` that `storage`
    holds, flattened, with A's rows and columns taken in `order` (None:
    as they are); which entries a lower storage holds at their mirror's
    place, being above the diagonal of ``B = A[order][:, order]``; and
    the band they span in B (on "band-lower", kl = ku, the wider). The
    storages are LAPACK's:

    * "dense": B, as ``?getrf`` reads it;
    * "dense-lower": B's lower triangle, as ``?sytrf`` reads it;
    * "band": B[i, j] at ``[kl + ku + i - j, j]``, 2 kl + ku + 1 rows,
      as ``?gbtrf`` reads it: its first kl rows are the workspace;
    * "band-lower": B[i, j] at ``[i - j, j]`` for i >= j, kl + 1 rows,
      as ``?pbtrf`` reads it.
    """
    n = A.shape[0]
    rank = np.arange(n) if order is None else inverse_order(order)
    i = rank[A.indices].astype(np.intp)
    j = rank[np.repeat(np.arange(n), np.diff(A.indptr))].astype(np.intp)
    d = i - j
    kl, ku = (max(int(d.max()), 0), max(-int(d.min()), 0)) if d.size else (0, 0)
    lower = storage.endswith("-lower")
    mirrored = d < 0 if lower else np.zeros(d.shape, dtype=bool)
    if lower:  # the pair of (i, j) and (j, i) sits in column min(i, j)
        j, d = np.minimum(i, j), np.abs(d)
        kl = ku = max(kl, ku)
    rows, diagonal = {"dense": (n, j), "dense-lower": (n, j), "band": (2 * kl + ku + 1, kl + ku),
                      "band-lower": (kl + 1, 0)}[storage]  # the diagonal's row in column j
    return (diagonal + d) + j * rows, mirrored, (rows, n), kl, ku


def inverse_order(order):
    """The inverse permutation of `order`: ``rank[order[k]] = k``."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0], dtype=order.dtype)
    return rank
