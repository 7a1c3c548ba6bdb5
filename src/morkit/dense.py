"""Dense kernels for the reduced-order side of the computation.

Everything here operates on small matrices (reduced order r, or 2r for
companion pencils), so dense LAPACK-backed routines are appropriate.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionError,
    PencilSingularError,
    RankDeficiencyWarning,
    SingularMatrixError,
)


# LAPACK getrf/getrs/gecon/lange for dense_solve, looked up once per dtype
_LU_ROUTINES = {
    dtype: sla.get_lapack_funcs(("getrf", "getrs", "gecon", "lange"), dtype=dtype)
    for dtype in (np.float64, np.complex128)
}
_EPS = np.finfo(np.float64).eps  # also complex128's


@dataclass(frozen=True)
class EigenTriplet:
    """One eigenvalue with matched right and left eigenvectors.

    Conventions: ``A z = value * E z`` and ``y^H A = value * y^H E``,
    both vectors normalized to unit 2-norm.
    """

    value: complex
    right: np.ndarray
    left: np.ndarray


def orthonormalize(V, drop_tol=1e-10):
    """Orthonormalize the columns of V by modified Gram-Schmidt.

    Runs one re-orthogonalization pass per column. A column whose
    remainder after projection is below ``drop_tol`` times its original
    norm is numerically dependent on its predecessors and is dropped
    (with a :class:`RankDeficiencyWarning`); the returned column count
    is therefore the numerical rank at this tolerance.

    Returns
    -------
    numpy.ndarray of shape (n, k) with k <= V.shape[1] and
    ``Q^H Q = I`` to machine precision.
    """
    V = np.asarray(V)
    if V.ndim == 1:
        V = V[:, None]
    if V.ndim != 2 or V.shape[1] == 0:
        raise DimensionError(f"expected a nonempty 2-d column block, got shape {V.shape}")
    if V.shape[0] < V.shape[1]:
        raise DimensionError(
            f"cannot orthonormalize {V.shape[1]} columns of length {V.shape[0]}"
        )
    dtype = np.result_type(V.dtype, np.float64)
    complex_ = dtype.kind == "c"
    cols = np.array(V.T, dtype=dtype, order="C")  # row j: column j, projected in place
    norms0 = _row_norms(cols)
    steps = np.empty_like(cols)  # projection steps q (q^H v), one row per column
    kept, kept_h = [], []  # kept columns, and their conjugates for the inner products
    dropped = 0
    for j, v in enumerate(cols):
        # the MGS sweep reached v as each kept column was finished (below);
        # this is the re-orthogonalization pass, one kept column at a time
        step = steps[j]
        for q, q_h in zip(kept, kept_h):
            np.multiply(q_h.dot(v), q, out=step)
            np.subtract(v, step, out=v)
        norm_v = vector_norm(v)
        if norms0[j] == 0.0 or norm_v <= drop_tol * norms0[j]:
            dropped += 1
            continue
        q = v / norm_v
        kept.append(q)
        kept_h.append(q.conj() if complex_ else q)
        # the MGS sweep of every later column against q: the same inner
        # products (vecdot runs one BLAS dot per row) and the same updates
        rest = cols[j + 1:]
        if len(rest):
            np.multiply(np.vecdot(q, rest)[:, None], q, out=steps[j + 1:])
            np.subtract(rest, steps[j + 1:], out=rest)
    if not kept:
        raise DimensionError("orthonormalization dropped every column")
    if dropped:
        warnings.warn(
            f"orthonormalization dropped {dropped} dependent column(s)",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return np.column_stack(kept)


def vector_norm(v):
    """``numpy.linalg.norm`` of a 1-d float or complex vector, bitwise,
    without its dispatch."""
    v = v.ravel(order="K")  # a copy only if v is strided, as numpy makes
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _row_norms(rows):
    """:func:`vector_norm` of every row of a 2-d block with contiguous
    rows, bitwise, in a few calls (vecdot runs one BLAS dot per row)."""
    if rows.dtype.kind == "c":
        re, im = rows.real, rows.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(rows, rows))


# LAPACK ggev per pair of operand dtypes, and its optimal workspace per
# (routine, n); scipy.linalg.eig looks both up on every call
_GGEV = {}
_GGEV_LWORK = {}
# BLAS nrm2 per eigenvector dtype, as scipy.linalg.norm looks it up
_NRM2 = {
    dtype: sla.get_blas_funcs("nrm2", dtype=dtype, ilp64="preferred")
    for dtype in (np.float32, np.float64, np.complex64, np.complex128)
}
_I = np.array(1j, dtype=np.complex64)  # scipy.linalg.eig's imaginary unit


def _eig_pencil(A, E):
    """``scipy.linalg.eig(A, E, left=True, right=True)`` for finite square
    operands, with its arithmetic and one ggev call, but none of its
    per-call lookups. A pencil with an infinite or undefined eigenvalue
    raises :class:`PencilSingularError` before any eigenvector work.
    """
    key = (A.dtype.char, E.dtype.char)
    ggev = _GGEV.get(key)
    if ggev is None:
        ggev = _GGEV[key] = sla.get_lapack_funcs(("ggev",), (A, E))[0]
    n = A.shape[0]
    lwork = _GGEV_LWORK.get((ggev.typecode, n))
    if lwork is None:
        query = ggev(A, E, lwork=-1)
        lwork = _GGEV_LWORK[(ggev.typecode, n)] = query[-2][0].real.astype(np.int_)
    if ggev.typecode in "cz":
        alpha, beta, vl, vr, _, info = ggev(A, E, 1, 1, lwork)
    else:
        alphar, alphai, beta, vl, vr, _, info = ggev(A, E, 1, 1, lwork)
        alpha = alphar + _I * alphai
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         "generalized eig algorithm (ggev)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})")
    # beta == 0 is an infinite (alpha != 0) or undefined (alpha == 0) eigenvalue
    values = alpha / beta if beta.all() else None
    if values is None or not np.isfinite(values).all():
        raise PencilSingularError(
            "pencil has infinite or undefined eigenvalues (E-hat is singular)"
        )
    if ggev.typecode not in "cz" and values.imag.any():
        vl = _complex_eigvecs(values, vl)
        vr = _complex_eigvecs(values, vr)
    nrm2 = _NRM2[vr.dtype.type]
    real = vr.real.dtype
    vr /= np.array([nrm2(z) for z in vr.T], dtype=real)
    vl /= np.array([nrm2(y) for y in vl.T], dtype=real)
    return values, vl, vr


def _complex_eigvecs(values, v_real):
    """Complex eigenvectors from real ggev output, filled as scipy fills them:
    a conjugate pair shares columns i (real part) and i + 1 (imaginary part)."""
    v = np.array(v_real, dtype=values.dtype)
    first = values.imag > 0
    first[:-1] |= values.imag[1:] < 0
    for i in np.flatnonzero(first):
        v.imag[:, i] = v_real[:, i + 1]
        np.conj(v[:, i], v[:, i + 1])
    return v


def eig_generalized(A, E):
    """All eigentriplets of the pencil (A, E).

    Solves ``A z = lambda E z`` and ``y^H A = lambda y^H E`` with
    matched left/right eigenvectors (QZ); on real input the spectrum is
    closed under conjugation. A singular E makes the pencil have
    infinite eigenvalues and raises :class:`PencilSingularError`.
    Values and vectors are bitwise what ``scipy.linalg.eig(A, E,
    left=True, right=True)`` returns, with each eigenvector scaled by its
    2-norm once more; NaN or Inf input raises ``ValueError`` as there.
    """
    A = np.asarray(A)
    E = np.asarray(E)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != E.shape:
        raise DimensionError(
            f"pencil blocks must be square and same shape, got {A.shape} and {E.shape}"
        )
    if not (np.isfinite(A).all() and np.isfinite(E).all()):
        raise ValueError("array must not contain infs or NaNs")
    if A.shape[0] == 0:
        return []
    values, vl, vr = _eig_pencil(A, E)
    # ggev's vectors are F-ordered: the rows of vr.T are its columns
    right = vr / _row_norms(vr.T)
    left = vl / _row_norms(vl.T)
    return [
        EigenTriplet(value, z, y)
        for value, z, y in zip(values.tolist(), right.T, left.T)
    ]


def sigma_max(G):
    """Largest singular value of a dense matrix (0.0 for an empty one)."""
    G = np.atleast_2d(np.asarray(G))
    if G.size == 0:
        return 0.0
    return float(np.linalg.svd(G, compute_uv=False)[0])


def dense_solve(A, B):
    """Solve the dense square system ``A X = B`` by LU with partial pivoting.

    Works in float64, or complex128 when either operand is complex, and
    returns bitwise what ``scipy.linalg.solve(A, B, assume_a="gen")``
    returns, with its checks, minus its per-call dispatch: NaN or Inf
    input raises ``ValueError``, an exactly zero pivot raises
    :class:`SingularMatrixError`, and a reciprocal condition estimate
    below machine epsilon warns with ``scipy.linalg.LinAlgWarning``.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"coefficient matrix must be square, got shape {A.shape}")
    if B.ndim not in (1, 2) or B.shape[0] != A.shape[0]:
        raise DimensionError(
            f"right-hand side of shape {B.shape} does not match {A.shape[0]} rows"
        )
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    dtype = np.complex128 if np.iscomplexobj(A) or np.iscomplexobj(B) else np.float64
    if B.size == 0:
        return np.empty(B.shape, dtype)
    if A.shape[0] == 1:
        # scipy's scalar path: a plain division, no condition estimate
        a = A.astype(dtype)[0, 0]
        if a == 0:
            raise SingularMatrixError("dense solve failed: zero 1x1 matrix", column=0)
        return B.astype(dtype) / a
    getrf, getrs, gecon, lange = _LU_ROUTINES[dtype]
    a = np.array(A, dtype=dtype, order="F")
    # the estimate scipy reports: the infinity norm fed to the 1-norm estimator
    anorm = lange("I", a)
    lu, piv, info = getrf(a, overwrite_a=True)
    if info > 0:
        raise SingularMatrixError("dense solve failed: exactly zero pivot", column=info - 1)
    rcond, _ = gecon(lu, anorm, norm="1")
    if rcond < _EPS:
        warnings.warn(
            f"ill-conditioned matrix (rcond={rcond:.6g}): result may not be accurate",
            sla.LinAlgWarning,
            stacklevel=2,
        )
    b = np.array(B.reshape(B.shape[0], -1), dtype=dtype, order="F")
    x, _ = getrs(lu, piv, b, overwrite_b=True)
    return x[:, 0] if B.ndim == 1 else np.ascontiguousarray(x)
