"""Dense kernels for the reduced-order side of the computation.

Everything here operates on small matrices (reduced order r, or 2r for
companion pencils), so dense LAPACK-backed routines are appropriate.
"""

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
    kept = []
    dropped = 0
    for j in range(V.shape[1]):
        v = V[:, j].astype(dtype, copy=True)
        norm0 = np.linalg.norm(v)
        for _ in range(2):  # MGS sweep plus one re-orthogonalization
            for q in kept:
                v -= (q.conj() @ v) * q
        norm_v = np.linalg.norm(v)
        if norm0 == 0.0 or norm_v <= drop_tol * norm0:
            dropped += 1
            continue
        kept.append(v / norm_v)
    if not kept:
        raise DimensionError("orthonormalization dropped every column")
    if dropped:
        warnings.warn(
            f"orthonormalization dropped {dropped} dependent column(s)",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return np.column_stack(kept)


def eig_generalized(A, E):
    """All eigentriplets of the pencil (A, E).

    Solves ``A z = lambda E z`` and ``y^H A = lambda y^H E`` with
    matched left/right eigenvectors (QZ); on real input the spectrum is
    closed under conjugation. A singular E makes the pencil have
    infinite eigenvalues and raises :class:`PencilSingularError`.
    """
    A = np.asarray(A)
    E = np.asarray(E)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != E.shape:
        raise DimensionError(
            f"pencil blocks must be square and same shape, got {A.shape} and {E.shape}"
        )
    values, vl, vr = sla.eig(A, E, left=True, right=True)
    if not np.all(np.isfinite(values)):
        raise PencilSingularError(
            "pencil has infinite or undefined eigenvalues (E-hat is singular)"
        )
    triplets = []
    for k in range(values.shape[0]):
        z = vr[:, k]
        y = vl[:, k]
        triplets.append(
            EigenTriplet(
                value=complex(values[k]),
                right=z / np.linalg.norm(z),
                left=y / np.linalg.norm(y),
            )
        )
    return triplets


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
