"""Dense kernels for the reduced-order side of the computation.

Everything here operates on small matrices (reduced order r, or 2r for
companion pencils), so dense LAPACK-backed routines are appropriate.
"""

import math
import warnings

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionError,
    PencilSingularError,
    RankDeficiencyWarning,
    ShiftCollisionError,
    SingularMatrixError,
)


# LAPACK getrf/getrs/gecon/lange for dense_solve, looked up once per dtype
_LU_ROUTINES = {
    dtype: sla.get_lapack_funcs(("getrf", "getrs", "gecon", "lange"), dtype=dtype)
    for dtype in (np.float64, np.complex128)
}
# LAPACK geqrf/orgqr (ungqr for complex) per dtype, for orthonormalize
_QR_ROUTINES = {
    dtype: sla.get_lapack_funcs(("geqrf", "orgqr" if dtype is np.float64 else "ungqr"),
                                dtype=dtype)
    for dtype in (np.float64, np.complex128)
}
_EPS = np.finfo(np.float64).eps  # also complex128's


def orthonormalize(V, drop_tol=1e-10):
    """Orthonormalize the columns of V by one Householder QR.

    Each column of Q is scaled so that R's diagonal is positive real,
    which gives the vectors of Gram-Schmidt up to rounding. A column
    whose remainder after projection onto its predecessors,
    ``|R_jj|``, is at most ``drop_tol`` times its original norm is
    numerically dependent on them and is dropped (with a
    :class:`RankDeficiencyWarning`), and the QR is redone on the kept
    columns, one dropped column at a time; the returned column count is
    therefore the numerical rank at this tolerance.

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
    cols = np.array(V, dtype=np.result_type(V.dtype, np.float64), order="F")
    norms0 = _row_norms(cols.T)
    kept = np.arange(cols.shape[1])
    while True:
        Q, r = _householder_qr(cols[:, kept])
        drop = np.flatnonzero((norms0[kept] == 0.0) | (np.abs(r) <= drop_tol * norms0[kept]))
        if not len(drop):
            break
        # the first dependent column spent a reflector on its rounding
        # noise, so the columns after it are measured again without it
        kept = np.delete(kept, drop[0])
        if not len(kept):
            raise DimensionError("orthonormalization dropped every column")
    dropped = cols.shape[1] - len(kept)
    if dropped:
        warnings.warn(
            f"orthonormalization dropped {dropped} dependent column(s)",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    Q *= r / np.abs(r)
    return np.ascontiguousarray(Q)


def _householder_qr(V):
    """Economic Householder QR of a tall block: its Q and R's diagonal."""
    geqrf, orgqr = _QR_ROUTINES[V.dtype.type]
    qr, tau, _, info = geqrf(V, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqrf")
    k = V.shape[1]
    r = np.diagonal(qr)[:k].copy()  # orgqr overwrites R
    Q, _, info = orgqr(qr[:, :k], tau, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of orgqr")
    return Q, r


def _row_norms(rows):
    """2-norm of every row of a 2-d float or complex block."""
    if rows.dtype.kind == "c":
        re, im = rows.real, rows.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(rows, rows))


# LAPACK ggev per pair of operand dtypes, and its optimal workspace per
# (routine, n); scipy.linalg.eig looks both up on every call
_GGEV = {}
_GGEV_LWORK = {}


def eig_generalized(A, E):
    """All eigenvalues of the pencil (A, E) with matched eigenvectors.

    Solves ``A z = lambda E z`` and ``y^H A = lambda y^H E`` by QZ
    (LAPACK ``ggev``). Returns ``(values, right, left)``: the complex
    eigenvalues, shape (n,), and the n x n matrices whose column k is the
    right (z) and left (y) eigenvector of ``values[k]``, each scaled to
    unit 2-norm. On real input the spectrum is closed under conjugation,
    a conjugate pair sits in consecutive columns, and the vectors are
    real when every eigenvalue is. NaN or Inf input raises
    ``ValueError``; a singular E makes the pencil have infinite or
    undefined eigenvalues and raises :class:`PencilSingularError` before
    any eigenvector work.
    """
    A = np.asarray(A)
    E = np.asarray(E)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != E.shape:
        raise DimensionError(
            f"pencil blocks must be square and same shape, got {A.shape} and {E.shape}"
        )
    if not (np.isfinite(A).all() and np.isfinite(E).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = A.shape[0]
    if n == 0:
        return np.empty(0, np.complex128), np.empty((0, 0)), np.empty((0, 0))
    key = (A.dtype.char, E.dtype.char)
    ggev = _GGEV.get(key)
    if ggev is None:
        ggev = _GGEV[key] = sla.get_lapack_funcs(("ggev",), (A, E))[0]
    lwork = _GGEV_LWORK.get((ggev.typecode, n))
    if lwork is None:
        query = ggev(A, E, lwork=-1)
        lwork = _GGEV_LWORK[(ggev.typecode, n)] = query[-2][0].real.astype(np.int_)
    if ggev.typecode in "cz":
        alpha, beta, vl, vr, _, info = ggev(A, E, 1, 1, lwork)
    else:
        alphar, alphai, beta, vl, vr, _, info = ggev(A, E, 1, 1, lwork)
        alpha = alphar + 1j * alphai
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
    if ggev.typecode not in "cz" and alphai.any():
        # a pair's real and imaginary parts sit in columns k and k + 1,
        # where alphai[k] > 0
        first = np.flatnonzero(alphai > 0)
        vl, vr = (_complex_pairs(v, first) for v in (vl, vr))
    # each column scaled to unit 2-norm: the rows of v.T are its columns
    return values, vr / _row_norms(vr.T), vl / _row_norms(vl.T)


def _complex_pairs(v, first):
    """Complex eigenvectors from real ggev output whose conjugate pairs
    start at the columns `first`."""
    out = v.astype(np.complex128)
    out[:, first] += 1j * v[:, first + 1]
    out[:, first + 1] = out[:, first].conj()
    return out


# An eigenbasis of condition number kappa solves to a relative error near
# kappa * eps, and one refinement step through the same factors squares
# that factor; up to eps^-1/2 (6.7e7) the refined solve is therefore at
# rounding level. The inner IRKA's companion pencils measure 8e3 to 1e6.
_MODAL_COND = 1.0 / math.sqrt(_EPS)


class PencilResolvent:
    """Solves with ``sigma E - A`` and its transpose for one fixed real
    pencil, at any shift.

    The pencil is decomposed once by QZ (:func:`eig_generalized`),
    ``A Z = E Z diag(lam)`` and ``Y^H A = diag(lam) Y^H E``. With
    ``D = diag(Y^H E Z)`` every solve is diagonal in that eigenbasis::

        (sigma E - A)^-1   = Z (sigma - lam)^-1 D^-1 Y^H
        (sigma E - A)^-T   = conj(Y) (sigma - lam)^-1 D^-1 Z^T

    and is followed by one step of iterative refinement against
    ``sigma E - A`` through the same factors. A pencil with a singular E
    (:class:`PencilSingularError` from the QZ), or whose right or left
    eigenvector matrix has a condition number above ``_MODAL_COND`` (a
    near-defective pencil), is solved by :func:`dense_solve` at every
    shift instead; ``modal`` is False then. A shift equal to an eigenvalue
    (on that route: an exactly singular LU) raises
    :class:`ShiftCollisionError`.

    ``eigen`` keeps the QZ's ``(values, right, left)`` for other uses of
    the same pencil; it is None for a singular E, whose
    :class:`PencilSingularError` is kept as ``singular``.
    """

    def __init__(self, A, E):
        self.A, self.E = A, E
        self.eigen = self.singular = None
        try:
            self.eigen = values, Z, Y = eig_generalized(A, E)
        except PencilSingularError as exc:
            self.singular = exc
        self.modal = self.eigen is not None and max(
            np.linalg.cond(Z), np.linalg.cond(Y)) <= _MODAL_COND
        if self.modal:
            self._values = values
            self._Z = np.asarray(Z, dtype=np.complex128)
            self._Yh = np.ascontiguousarray(Y.conj().T, dtype=np.complex128)
            self._inv_d = 1.0 / np.vecdot(Y, E @ self._Z, axis=0)  # diag(Y^H E Z)

    def solve(self, sigma, b, c):
        """``(sigma E - A)^-1 b`` and ``(sigma E - A)^-T c``."""
        Ms = sigma * self.E - self.A
        if not self.modal:
            try:
                return dense_solve(Ms, b), dense_solve(Ms.T, c)
            except SingularMatrixError as exc:
                raise ShiftCollisionError(sigma, str(exc)) from exc
        gap = sigma - self._values
        if not gap.all():
            raise ShiftCollisionError(sigma, f"shift {sigma} is an eigenvalue of the pencil")
        scale = self._inv_d / gap
        Z, Yh = self._Z, self._Yh
        x = Z @ (scale * (Yh @ b))
        x += Z @ (scale * (Yh @ (b - Ms @ x)))
        y = Yh.T @ (scale * (Z.T @ c))  # Yh.T is conj(Y)
        y += Yh.T @ (scale * (Z.T @ (c - y @ Ms)))
        return x, y


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
