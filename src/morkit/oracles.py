"""Independent reference computations for verification.

These routines deliberately avoid the production code paths: the dense
reduction oracle works on the materialized Schur-complement system with
dense solves (no sparse factorizations, no shared basis-building code),
so agreement with the sparse implicit path is meaningful evidence, not
an identity. Everything here is O(n^3)-ish and meant for test-scale
systems.
"""

import numpy as np
import scipy.linalg as sla

from .dense import orthonormalize
from .system import ReducedSecondOrderModel, to_dense_schur


def _dense_columns(schur, shifts, b, c, one_sided):
    """Tangential solution columns of the dense Schur system, with the
    conjugate-pair split into real and imaginary parts."""
    cols_v, cols_w = [], []
    consumed = np.zeros(len(shifts), dtype=bool)
    for i, s in enumerate(shifts):
        if consumed[i]:
            continue
        consumed[i] = True
        is_pair = abs(s.imag) > 1e-8 * max(1.0, abs(s))
        if is_pair:
            for j in range(len(shifts)):
                if not consumed[j] and abs(shifts[j] - np.conj(s)) <= 1e-6 * max(1.0, abs(s)):
                    consumed[j] = True
                    break
            else:
                raise ValueError("shift set is not closed under conjugation")
            if s.imag < 0:
                s = np.conj(s)
        As = (s * s) * schur.M + s * schur.L + schur.K
        v = sla.solve(As, schur.F @ b[i])
        w = None if one_sided else sla.solve(As.T, schur.H.T @ c[i])
        if is_pair:
            cols_v.extend([v.real, v.imag])
            if w is not None:
                cols_w.extend([w.real, w.imag])
        else:
            cols_v.append(v.real)
            if w is not None:
                cols_w.append(w.real)
    return cols_v, cols_w


def oracle_dense_reduction(system, interp, one_sided=False):
    """Reference reduced model via the dense Schur-complement route.

    Forms the dense unconstrained system, solves the tangential systems
    densely, orthonormalizes, and projects the dense matrices directly.
    Must agree (entrywise, up to conditioning) with the sparse implicit
    reduction at the same interpolation data.
    """
    schur = to_dense_schur(system)
    shifts = np.atleast_1d(np.asarray(interp.shifts, dtype=np.complex128))
    b = np.atleast_2d(np.asarray(interp.b, dtype=np.complex128))
    c = np.atleast_2d(np.asarray(interp.c, dtype=np.complex128))
    cols_v, cols_w = _dense_columns(schur, shifts, b, c, one_sided)
    V = orthonormalize(np.column_stack(cols_v))
    if one_sided:
        W = V
    else:
        W = orthonormalize(np.column_stack(cols_w))
        k = min(V.shape[1], W.shape[1])
        V, W = V[:, :k], W[:, :k]
    return ReducedSecondOrderModel(
        M=W.T @ schur.M @ V,
        L=W.T @ schur.L @ V,
        K=W.T @ schur.K @ V,
        F=W.T @ schur.F,
        H=schur.H @ V,
        D=schur.D.copy(),
    )


def oracle_sampling_equivalence(eval_a, eval_b, points):
    """Worst-case transfer mismatch of two evaluators over sample points.

    ``eval_a`` and ``eval_b`` map a complex point to a (p, m) response;
    returns max over points of ``max |Ga - Gb| / max(1, |Ga|)``.
    """
    worst = 0.0
    for s in points:
        Ga = np.atleast_2d(np.asarray(eval_a(s)))
        Gb = np.atleast_2d(np.asarray(eval_b(s)))
        scale = max(1.0, float(np.max(np.abs(Ga))))
        worst = max(worst, float(np.max(np.abs(Ga - Gb))) / scale)
    return worst


def oracle_finite_difference_derivative(evaluator, s, h=None):
    """Central-difference derivative of a transfer evaluator at s.

    Uses a real step h (default ``1e-6 * max(1, |s|)``); the truncation
    error is O(h^2), plenty for the 1e-6 tolerances this oracle backs.
    """
    s = complex(s)
    if h is None:
        h = 1e-6 * max(1.0, abs(s))
    Gp = np.atleast_2d(np.asarray(evaluator(s + h)))
    Gm = np.atleast_2d(np.asarray(evaluator(s - h)))
    return (Gp - Gm) / (2.0 * h)
