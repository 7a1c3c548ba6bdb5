"""Tangential-interpolation model reduction for second-order index-1 systems.

The driver :func:`irka_second_order_index1` iterates Hermite
bi-tangential interpolation (IRKA): projection bases are built from
tangential solves with the *sparse augmented* blocks — the dense Schur
complement of the algebraic part is never formed — and the next shift
set is the mirrored spectrum of a small reduced model. Because a
second-order reduced model of order r has 2r poles but only r shifts
are needed, the shift update runs a first-order IRKA
(:func:`irka_first_order`) on the companion form of the intermediate
reduced model and mirrors the poles of *its* r-dimensional result.

The reduced model keeps second-order structure throughout:

    Mr = W^T M11 V                   Fr = W^T F1 - (W^T K12) K22^-1 F2
    Lr = W^T L11 V                   Hr = H1 V - H2 K22^-1 (K21 V)
    Kr = W^T K11 V - (W^T K12) K22^-1 (K21 V)
    Dr = Da + H2 K22^-1 F2

with K22^-1 applied only through the retained sparse factorization.
For structurally symmetric systems a one-sided basis (W = V) preserves
symmetry and, for positive definite blocks, stability of the reduced
model.
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lu
from .dense import PencilResolvent, _row_norms, eig_generalized, orthonormalize
from .errors import (
    ConvergenceWarning,
    DimensionError,
    PencilSingularError,
    RankDeficiencyWarning,
    ShiftCollisionError,
    SingularMatrixError,
    StructuralError,
)
from .system import ReducedSecondOrderModel, SecondOrderIndex1System, validate

DEFAULT_FREQ_RANGE = (10.0, 1.0e4)

_CLOSURE_RTOL = 1e-8
_PAIR_RTOL = 1e-6
_PERTURB = 1e-8


def pair_conjugates(shifts, order=None):
    """Group shift indices into real shifts and conjugate pairs.

    Indices are visited in `order` (default 0, 1, ...). A shift is real
    if ``|Im s| <= 1e-8 max(1, |s|)``; a complex shift's partner is the
    first unused index, in visiting order, with
    ``|s_j - conj(s)| <= 1e-6 max(1, |s|)``. Returns ``(i, j)`` groups in
    visiting order, where ``j`` is None for a real shift, the partner's
    index for a pair and -1 for a complex shift without a partner.
    """
    shifts = np.asarray(shifts, dtype=np.complex128)
    # |s| as hypot of its parts, which is the scalar complex abs; numpy's
    # vectorized complex abs differs from it in the last bit for about a
    # third of all values, and a tie at a tolerance would then pair apart
    scale = np.maximum(1.0, np.hypot(shifts.real, shifts.imag))
    real = (np.abs(shifts.imag) <= _CLOSURE_RTOL * scale).tolist()
    # near[i][j]: shift j is within the pairing tolerance of conj(shift i)
    near = (np.abs(shifts - shifts.conj()[:, None]) <= _PAIR_RTOL * scale[:, None]).tolist()
    order = range(len(real)) if order is None else np.asarray(order).tolist()
    used = [False] * len(real)
    groups = []
    for i in order:
        if used[i]:
            continue
        used[i] = True
        if real[i]:
            groups.append((i, None))
            continue
        near_i = near[i]
        partner = next((j for j in order if near_i[j] and not used[j]), -1)
        if partner >= 0:
            used[partner] = True
        groups.append((i, partner))
    return groups


# ---------------------------------------------------------------------------
# interpolation data


@dataclass
class InterpolationData:
    """One IRKA iterate: shifts with right and left tangential directions.

    ``shifts`` has shape (r,), ``b`` (r, m) and ``c`` (r, p); row i of
    b/c belongs to shift i. A valid iterate is closed under complex
    conjugation (shifts and directions jointly) so that real projection
    bases exist.
    """

    shifts: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.shifts = np.atleast_1d(np.asarray(self.shifts, dtype=np.complex128))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=np.complex128))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=np.complex128))
        r = self.shifts.shape[0]
        if self.b.shape[0] != r or self.c.shape[0] != r:
            raise DimensionError(
                f"direction rows ({self.b.shape[0]}, {self.c.shape[0]}) "
                f"do not match {r} shifts"
            )

    @property
    def r(self):
        return self.shifts.shape[0]

    @property
    def m(self):
        return self.b.shape[1]

    @property
    def p(self):
        return self.c.shape[1]

    def is_conjugate_closed(self, rtol=_CLOSURE_RTOL):
        """True if shifts and directions are closed under conjugation.

        Every shift needs a partner under :func:`pair_conjugates`; a real
        shift then needs real directions and a pair conjugate shifts and
        directions, all up to `rtol`.
        """
        def close(x, y):
            return np.max(np.abs(x - y), initial=0.0) <= rtol

        s, b, c = self.shifts, self.b, self.c
        for i, j in pair_conjugates(s):
            if j is None:
                ok = close(b[i].imag, 0.0) and close(c[i].imag, 0.0)
            else:
                ok = (j >= 0
                      and abs(s[j] - np.conj(s[i])) <= rtol * max(1.0, abs(s[i]))
                      and close(b[j], np.conj(b[i])) and close(c[j], np.conj(c[i])))
            if not ok:
                return False
        return True


def _unit_rows(X):
    """Rows of X (a block, or a stack of blocks) scaled to unit 2-norm and
    rotated so that each row's largest entry is real positive; a zero row
    becomes the first unit vector.

    Tangential directions are eigenvector-derived and therefore unique
    only up to a complex scale; fixing it makes iterates (and the
    reduced model entries) deterministic.
    """
    norms = _row_norms(X)
    zero = norms == 0.0
    X = X / np.where(zero, 1.0, norms)[..., None]
    X *= _phase(X)
    X[zero, 0] = 1.0
    return X


def _phase(X):
    """``|a| / a`` for the largest entry a of every row of X (1 for a zero
    row), as a column: the rotation that makes that entry real positive."""
    rows = X.reshape(-1, X.shape[-1])
    lead = rows[np.arange(rows.shape[0]), np.abs(rows).argmax(axis=1)]
    lead[lead == 0.0] = 1.0
    return (np.abs(lead) / lead).reshape(X.shape[:-1] + (1,))


def enforce_conjugate_closure(shifts, b, c):
    """Build a closed, unit-direction, deterministically ordered iterate.

    Shifts are paired by :func:`pair_conjugates`, visited in (real,
    imaginary) order. Real shifts collapse onto the real axis, with the
    real part of their phase-fixed directions; pairs are averaged with
    their conjugates, and any unmatched complex leftover is demoted to
    its real part rather than breaking closure. Directions are
    renormalized to unit length with canonical phase (:func:`_unit_rows`).
    The result is sorted by (real, imaginary) part.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.complex128))
    b, c = np.atleast_2d(b, c)
    m, p = b.shape[1], c.shape[1]
    # b and c as one batch, zero-padded to a common width: a zero entry
    # changes neither a row's norm nor which of its entries is largest
    X = np.zeros((2, shifts.shape[0], max(m, p)), dtype=np.complex128)
    X[0, :, :m], X[1, :, :p] = b, c
    groups = pair_conjugates(shifts, order=np.lexsort((shifts.imag, shifts.real)))
    # real, or no conjugate partner: keep the iteration alive on the real axis
    real = [i for i, j in groups if j is None or j < 0]
    first = [i for i, j in groups if j is not None and j >= 0]
    second = [j for _, j in groups if j is not None and j >= 0]
    pairs = (shifts[first] + shifts[second].conj()) / 2.0
    shifts = np.concatenate([shifts[real].real, pairs, pairs.conj()])
    X_real = X[:, real]
    X = _unit_rows(np.concatenate([(X_real * _phase(X_real)).real,
                                   (X[:, first] + X[:, second].conj()) / 2.0], axis=1))
    order = np.lexsort((shifts.imag, shifts.real))
    X = np.concatenate([X, X[:, len(real):].conj()], axis=1)[:, order]
    return InterpolationData(shifts[order], X[0, :, :m], X[1, :, :p])


def _check_settings(freq_range, **tolerances):
    """Reject, naming it, a tolerance or a `freq_range` bound that is not
    positive and finite, and a range whose low end exceeds its high end."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    lo, hi = freq_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
        raise ValueError(f"freq_range must satisfy 0 < lo <= hi < inf, got {freq_range}")


def initial_interpolation(r, m, p, freq_range=DEFAULT_FREQ_RANGE, seed=0):
    """Starting iterate: log-spaced real shifts across a frequency band.

    Shifts are the r points log-uniformly spaced on [lo, hi] (rad/s, on
    the positive real axis); directions are seeded pseudo-random real
    unit vectors, so the whole iterate is deterministic in `seed`.
    """
    _check_settings(freq_range)
    lo, hi = freq_range
    if min(r, m, p) < 1:
        raise DimensionError("r, m and p must all be at least 1")
    shifts = np.logspace(math.log10(lo), math.log10(hi), r).astype(np.complex128)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((r, m))
    c = rng.standard_normal((r, p))
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    c = c / np.linalg.norm(c, axis=1, keepdims=True)
    return InterpolationData(shifts, b.astype(np.complex128), c.astype(np.complex128))


def convergence_metric(old_shifts, new_shifts):
    """Largest relative shift movement between consecutive iterates.

    Both shift sets are sorted by (real, imaginary) part before being
    compared entrywise; a change of effective order makes the iterates
    incomparable, which reports as ``inf``.
    """
    old = np.atleast_1d(np.asarray(old_shifts, dtype=np.complex128))
    new = np.atleast_1d(np.asarray(new_shifts, dtype=np.complex128))
    if old.shape != new.shape:
        return math.inf
    old = old[np.lexsort((old.imag, old.real))]
    new = new[np.lexsort((new.imag, new.real))]
    denom = np.maximum(np.abs(old), np.finfo(np.float64).eps)
    return float(np.max(np.abs(new - old) / denom))


def _perturb(interp):
    """Nudge every shift off a resonance; conjugate closure is preserved."""
    return InterpolationData(
        interp.shifts * (1.0 + _PERTURB) + _PERTURB, interp.b, interp.c
    )


def _shift_iteration(interp, bases, step, max_iter, tol, record=None):
    """The IRKA fixed point shared by the outer and the inner level.

    ``bases(interp)`` builds projection bases at an iterate and
    ``step(basis, interp)`` returns the next iterate from them. A step
    that raises :class:`PencilSingularError` (a deflated or resonant
    projection) is retried once at :func:`_perturb`'s shifts, with bases
    rebuilt there. After each step the bases are rebuilt at the new
    iterate and ``record(metric, interp)`` is called if given; the
    iteration stops once :func:`convergence_metric` is at most `tol`, or
    after `max_iter` steps.

    Returns ``(interp, basis, iterations, converged)``: the last iterate
    and its bases.
    """
    basis = bases(interp)
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        try:
            new_interp = step(basis, interp)
        except PencilSingularError:
            interp = _perturb(interp)
            basis = bases(interp)
            new_interp = step(basis, interp)
        metric = convergence_metric(interp.shifts, new_interp.shifts)
        interp = new_interp
        basis = bases(interp)
        if record is not None:
            record(metric, interp)
        if metric <= tol:
            converged = True
            break
    return interp, basis, iterations, converged


def _representatives(interp):
    """One entry per real shift / conjugate pair (positive-imag member), as
    arrays ``(shifts, b, c, is_pair)``; a real shift is put on the real axis."""
    shifts = interp.shifts
    first, second = np.array(
        [(i, i if j is None else j) for i, j in pair_conjugates(shifts)],
        dtype=np.intp).reshape(-1, 2).T
    if (second < 0).any():
        raise StructuralError(
            "interpolation data is not conjugate closed (unmatched complex shift)"
        )
    is_pair = first != second
    k = np.where(shifts.imag[first] > 0, first, second)
    sigmas = np.where(is_pair, shifts[k], shifts.real[k])
    return sigmas, interp.b[k], interp.c[k], is_pair


# ---------------------------------------------------------------------------
# tangential solves against the sparse augmented blocks


def factor_augmented(system, sigma):
    """LU of the shifted augmented matrix at one shift.

    The matrix is float64 at a real shift and complex128 otherwise. Its
    pattern does not depend on sigma (entries that cancel are stored as
    zeros), so every shift is scattered from the system's one index map
    (``system.augmented``) and factored on the system's route
    (``system.route``): sparse, banded or dense, decided once from that
    pattern (see :class:`~morkit.lu.Route`). A singular factorization
    means sigma collided with an eigenvalue of the underlying pencil and
    raises :class:`ShiftCollisionError`.
    """
    route = system.route
    try:
        if route.layout is None:
            return lu.factor(system.augmented.csc(sigma))
        lower = route.lower is not None and complex(sigma).imag == 0.0
        return lu.factor(system.augmented.scatter(sigma, route.lower if lower else route.layout))
    except SingularMatrixError as exc:
        raise ShiftCollisionError(sigma, f"augmented matrix singular at sigma={sigma}: {exc}") from exc


def tangential_solve_right(system, direction, factorization):
    """Right tangential solution v(sigma, b), length n1.

    Solves the sparse augmented system

        [ sigma^2 M11 + sigma L11 + K11   K12 ] [v    ]   [F1 b]
        [             K21                 K22 ] [gamma] = [F2 b]

    through `factorization`, that matrix's LU at the shift sigma
    (:func:`factor_augmented`), and returns v (the auxiliary block gamma
    is discarded). :func:`build_bases` shares one LU between the right
    and the left solve of a shift.
    """
    direction = np.asarray(direction, dtype=np.complex128).ravel()
    if direction.shape[0] != system.m:
        raise DimensionError(
            f"right direction has length {direction.shape[0]}, system has m={system.m}"
        )
    sol = factorization.solve(_rhs(system, system.F1, system.F2, direction, factorization))
    return sol[: system.n1]


def tangential_solve_left(system, direction, factorization):
    """Left tangential solution w(sigma, c), length n1.

    Solves the transpose of the right solve's augmented system (K21^T in
    the (1,2) position) with right-hand side [H1^T c; H2^T c], through
    `factorization`, the LU of the *untransposed* matrix at the shift
    sigma (:func:`factor_augmented`).
    """
    direction = np.asarray(direction, dtype=np.complex128).ravel()
    if direction.shape[0] != system.p:
        raise DimensionError(
            f"left direction has length {direction.shape[0]}, system has p={system.p}"
        )
    sol = factorization.solve_transposed(
        _rhs(system, system.H1.T, system.H2.T, direction, factorization))
    return sol[: system.n1]


def _rhs(system, top, bottom, direction, factorization):
    """The right-hand side ``[top @ direction; bottom @ direction]``.

    A real direction solved with real band factors (the band route's
    real shifts) stays real, so the right-hand side is built and solved
    in float64, without a complex copy of the n1 x m block. The other
    routes keep the complex product: for a dense block it rounds the
    real part differently in the last bit, and their outputs stay as
    they were.
    """
    if (factorization.dtype == np.float64 and not direction.imag.any()
            and system.route.kind == "band"):
        direction = direction.real
    return np.concatenate([top @ direction, bottom @ direction])


# ---------------------------------------------------------------------------
# projection bases and structure-preserving reduction


@dataclass
class ProjectionBasis:
    """Real orthonormal projection bases (column counts always match)."""

    V: np.ndarray
    W: np.ndarray
    one_sided: bool = False

    @property
    def r(self):
        return self.V.shape[1]


def _tangential_bases(interp, solve, one_sided=False):
    """Real projection bases from tangential solves at every shift at once.

    ``solve(sigmas, b, c)`` gets one representative shift per real shift
    and conjugate pair (:func:`_representatives`), with their direction
    rows, and returns the right and left solutions as complex (n, k)
    blocks ``(V, W)``, column j at ``sigmas[j]`` (``W`` is None when
    ``one_sided``). For each real shift one real column enters V (and W);
    for each conjugate pair the real and imaginary parts of the
    positive-imag member's solution enter, which spans the same space as
    the complex pair. A shift whose solve raises
    :class:`ShiftCollisionError` is perturbed once (sigma -> sigma (1 +
    1e-8) + 1e-8) and the block is solved again; the other shifts keep
    their values. Two-sided bases of unequal numerical rank are truncated
    to the smaller one.
    """
    sigmas, b, c, is_pair = _representatives(interp)
    moved = np.zeros(sigmas.shape, dtype=bool)
    while True:
        try:
            V, W = solve(sigmas, b, c)
            break
        except ShiftCollisionError as exc:
            hit = (sigmas == exc.sigma) & ~moved
            if not hit.any():
                raise
            sigmas = np.where(hit, sigmas * (1.0 + _PERTURB) + _PERTURB, sigmas)
            moved |= hit
    keep = np.column_stack([np.ones_like(is_pair), is_pair]).ravel()

    def real_columns(X):
        # a complex block seen as floats holds each column's real and
        # imaginary part side by side; a real shift keeps only the real part
        return np.ascontiguousarray(X, dtype=np.complex128).view(np.float64)[:, keep]

    # the complex blocks are dropped before the QR copies the real columns
    V, W = real_columns(V), None if one_sided else real_columns(W)
    V = orthonormalize(V)
    if one_sided:
        return ProjectionBasis(V=V, W=V, one_sided=True)
    W = orthonormalize(W)
    if V.shape[1] != W.shape[1]:
        k = min(V.shape[1], W.shape[1])
        warnings.warn(
            f"projection bases have ranks {V.shape[1]} and {W.shape[1]}; "
            f"truncating both to {k}",
            RankDeficiencyWarning,
            stacklevel=3,
        )
        V, W = V[:, :k], W[:, :k]
    return ProjectionBasis(V=V, W=W, one_sided=False)


def build_bases(system, interp, one_sided=False):
    """Assemble real projection bases from one interpolation iterate.

    Columns come from tangential solves with the sparse augmented
    blocks (see :func:`_tangential_bases`). One sparse LU per group of
    :func:`pair_conjugates` serves both the right solve and (two-sided
    case) the transposed left solve, so a build makes one right solve
    per group, and as many left solves when two-sided. The LUs take the
    system's route (see :func:`factor_augmented`).

    With ``one_sided=True`` no left solves happen and W is V; the
    reduction is then a Galerkin projection, which preserves symmetry.
    """
    if not interp.is_conjugate_closed():
        raise StructuralError("interpolation data is not conjugate closed")
    partial = None  # (V, W, the shift each column was solved at) across a collision

    def solve_at(k, sigma, b_row, c_row, V, W):
        fact = factor_augmented(system, sigma)  # freed before the next shift's LU
        V[:, k] = tangential_solve_right(system, b_row, fact)
        if W is not None:
            W[:, k] = tangential_solve_left(system, c_row, fact)

    def solve(sigmas, b, c):
        nonlocal partial
        if partial is None:
            V = np.empty((system.n1, len(sigmas)), dtype=np.complex128)
            partial = V, None if one_sided else np.empty_like(V), [None] * len(sigmas)
        V, W, solved_at = partial
        # a retry after a shift collision keeps each column already
        # solved at its shift
        for k, sigma in enumerate(sigmas.tolist()):
            if solved_at[k] != sigma:
                solve_at(k, sigma, b[k], c[k], V, W)
                solved_at[k] = sigma
        partial = None  # the caller holds the blocks from here on
        return V, W

    return _tangential_bases(interp, solve, one_sided=one_sided)


def _project(system, basis):
    """Dense projections of the blocks that touch x1, by block name.

    M11, L11, K11 become W^T (.) V; K12 becomes W^T K12 (r x n2, kept
    skinny), K21 becomes K21 V, F1 becomes W^T F1 and H1 becomes H1 V.
    The algebraic blocks K22, F2, H2 and Da are not touched.
    """
    V, W = basis.V, basis.W
    if V.shape[0] != system.n1:
        raise DimensionError(
            f"basis has {V.shape[0]} rows, system has n1 = {system.n1}"
        )
    return {
        "M11": W.T @ (system.M11 @ V),
        "L11": W.T @ (system.L11 @ V),
        "K11": W.T @ (system.K11 @ V),
        "K12": (system.K12.T @ W).T,
        "K21": system.K21 @ V,
        "F1": W.T @ system.F1,
        "H1": system.H1 @ V,
    }


def reduce(system, basis):
    """Project the index-1 system onto a basis, eliminating the algebraic part.

    The algebraic block enters only through solves with the retained
    K22 factorization against r (plus m) skinny right-hand sides; the
    n1 x n1 Schur complement itself is never formed.
    """
    blocks = _project(system, basis)
    k22 = system.k22_lu
    X = k22.solve(blocks["K21"])              # K22^-1 K21 V
    XF2 = k22.solve(system.F2)                # K22^-1 F2
    WtK12 = blocks["K12"]
    return ReducedSecondOrderModel(
        M=blocks["M11"],
        L=blocks["L11"],
        K=blocks["K11"] - WtK12 @ X,
        F=blocks["F1"] - WtK12 @ XF2,
        H=blocks["H1"] - system.H2 @ X,
        D=system.Da + system.H2 @ XF2,
    )


@dataclass
class CompanionPencil:
    """First-order (E, A, B, C) form of a second-order reduced model."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def companion(rom):
    """First-order companion realization of a reduced second-order model.

    The pencil (A, E) with

        E = [0  M]    A = [M   0]    B = [0]    C = [0  H]
            [M  L]        [0  -K]        [F]

    has exactly the 2r quadratic eigenvalues of (M, L, K), and its
    transfer function C (sE - A)^-1 B matches the second-order model
    without feed-through.
    """
    r = rom.order
    Z = np.zeros((r, r))
    E = np.block([[Z, rom.M], [rom.M, rom.L]])
    A = np.block([[rom.M, Z], [Z, -rom.K]])
    B = np.vstack([np.zeros((r, rom.m)), rom.F])
    C = np.hstack([np.zeros((rom.p, r)), rom.H])
    return CompanionPencil(E=E, A=A, B=B, C=C)


# ---------------------------------------------------------------------------
# settings of both IRKA levels


@dataclass
class IrkaConfig:
    """Settings for the second-order reduction driver.

    ``force_one_sided=None`` chooses automatically: one-sided (W = V)
    for structurally symmetric systems, two-sided otherwise.
    """

    r: int
    max_iter: int = 20
    shift_tol: float = 1e-3
    inner_max_iter: int = 20
    inner_tol: float = 1e-5
    freq_range: tuple = DEFAULT_FREQ_RANGE
    seed: int = 0
    force_one_sided: bool | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"reduced order must be positive, got r={self.r}")
        if self.max_iter < 1 or self.inner_max_iter < 1:
            raise ValueError("iteration caps must be at least 1")
        _check_settings(self.freq_range, shift_tol=self.shift_tol, inner_tol=self.inner_tol)


# ---------------------------------------------------------------------------
# first-order IRKA (shift update engine)


@dataclass
class FirstOrderReduction:
    """Result of a first-order IRKA run."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    interpolation: InterpolationData
    converged: bool
    iterations: int


def _mirror_interpolation(values, right, left, B, C):
    """Next iterate from reduced eigen-data (:func:`eig_generalized`):
    sigma = -lambda, tangential directions from the eigenvectors,
    b = -B^H y and c = C z (B is real)."""
    return enforce_conjugate_closure(-values, -(left.T @ B), (C @ right).T)


def _truncate_closed(interp, k):
    """Largest closure-preserving head of the iterate with at most k shifts.

    A conjugate pair that meets a single free slot enters as one shift,
    which the closure then demotes to its real part.
    """
    rows = []
    for i, j in pair_conjugates(interp.shifts):
        if j == -1:
            raise StructuralError(
                "interpolation data is not conjugate closed (unmatched complex shift)"
            )
        group = (i,) if j is None else (i, j)
        rows.extend(group[: k - len(rows)])
        if len(rows) >= k:
            break
    return enforce_conjugate_closure(interp.shifts[rows], interp.b[rows], interp.c[rows])


def _dominant_initialization(eigen, B, C, r):
    """Interpolation data seeded from the r most dominant poles of a
    pencil, from its eigen-data ``(values, right, left)``
    (:func:`eig_generalized`).

    Dominance of an eigentriplet (lambda, z, y) is measured by
    ||C z|| ||B^H y|| / |Re lambda|, the usual residue-over-decay
    weight. Conjugate partners are pulled in together so the selection
    stays closed under conjugation. When a single slot is left over, the
    most dominant pair that did not fit enters as one shift, which the
    closure demotes to its real part (as in :func:`_truncate_closed`);
    so the iterate has r shifts whenever the pencil has r poles.
    """
    values, right, left = eigen
    weights = (np.linalg.norm(C @ right, axis=0) * np.linalg.norm(B.T @ left, axis=0)
               / np.maximum(np.abs(values.real), np.finfo(float).tiny))
    chosen, spill = [], []
    for i, j in pair_conjugates(values, order=np.argsort(-weights, kind="stable")):
        group = [i] if j is None else [i, j] if j >= 0 else []
        if len(chosen) + len(group) <= r:
            chosen += group
        elif not spill:
            spill = [i]
    chosen += spill[: r - len(chosen)]
    return _mirror_interpolation(values[chosen], right[:, chosen], left[:, chosen], B, C)


def _real_block(name, X):
    """Block `name` of a first-order system as a float64 array; complex or
    non-finite entries are rejected by name."""
    X = np.asarray(X)
    if np.iscomplexobj(X):
        raise StructuralError(f"block {name} is complex; the pencil must be real")
    X = X.astype(float, copy=False)
    if not np.isfinite(X).all():
        raise StructuralError(f"block {name} has non-finite entries")
    return X


def irka_first_order(E, A, B, C, r, max_iter=IrkaConfig.inner_max_iter,
                     tol=IrkaConfig.inner_tol, init=None, resolvent=None):
    """IRKA for a dense first-order MIMO system (E, A, B, C).

    Iterates Hermite interpolation at mirrored reduced poles until the
    shift set is stationary up to `tol` (relative movement of sorted
    shifts) or `max_iter` is reached. Intended for the small companion
    pencils arising in the second-order shift update; everything here
    is dense, and the blocks must be real and finite (else
    :class:`StructuralError` names the block). The pencil is decomposed
    once, and every tangential solve of the run goes through that
    eigenbasis (:class:`~morkit.dense.PencilResolvent`, which falls back
    to an LU per shift for a singular E or a near-defective pencil);
    a caller that decomposed the pencil already passes its `resolvent`.
    An `init` with more than `r` shifts is cut to its closure-preserving
    head of `r` (:func:`_truncate_closed`); one with fewer raises
    :class:`DimensionError`.

    Returns a :class:`FirstOrderReduction`; its interpolation field is
    the final iterate (mirrored poles of the second-to-last projection).
    """
    E, A, B, C = (_real_block(name, X) for name, X in zip("EABC", (E, A, B, C)))
    n = E.shape[0]
    if A.shape != E.shape or E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise DimensionError("E and A must be square and of equal shape")
    if B.shape[0] != n or C.shape[1] != n:
        raise DimensionError("B/C dimensions do not match the pencil")
    if not 1 <= r <= n:
        raise DimensionError(f"reduced order r={r} must lie in [1, {n}]")
    if init is None:
        init = initial_interpolation(r, B.shape[1], C.shape[0])
    if init.m != B.shape[1] or init.p != C.shape[0]:
        raise DimensionError("interpolation directions do not match B/C")
    if init.r < r:
        raise DimensionError(f"initial iterate has {init.r} shifts, fewer than r={r}")
    interp = init if init.r == r else _truncate_closed(init, r)

    if resolvent is None:
        resolvent = PencilResolvent(A, E)  # one QZ for every solve of the run

    def solve(sigmas, b, c):
        return resolvent.solve(sigmas, B @ b.T, C.T @ c.T)

    def step(basis, interp):
        V, W = basis.V, basis.W
        return _mirror_interpolation(*eig_generalized(W.T @ A @ V, W.T @ E @ V),
                                     W.T @ B, C @ V)

    interp, basis, iterations, converged = _shift_iteration(
        interp, lambda it: _tangential_bases(it, solve), step, max_iter, tol
    )
    V, W = basis.V, basis.W
    return FirstOrderReduction(
        E=W.T @ E @ V,
        A=W.T @ A @ V,
        B=W.T @ B,
        C=C @ V,
        interpolation=interp,
        converged=converged,
        iterations=iterations,
    )


def update_interpolation(pencil, config, warm_start):
    """Next outer iterate from an intermediate companion pencil.

    Runs the inner first-order IRKA on the companion form, warm-started
    from the current outer iterate (the companion pencil shares the
    outer system's input/output spaces, so the outer iterate is
    dimensionally valid as-is), and mirrors the poles of the inner
    result: sigma = -lambda, b = -B^H y, c = C z, renormalized and
    conjugate-closed.

    The warm start occasionally parks the inner iteration in a limit
    cycle; if it fails to settle, the run is repeated once from the
    most dominant poles of the companion pencil, which restarts it
    inside the basin of the dominant-subspace fixed point. Both runs and
    the restart share one decomposition of the pencil
    (:class:`~morkit.dense.PencilResolvent`). The retried result is
    kept only when it actually converged. A pole of the kept
    result with positive real part (an unconverged inner run can leave
    an unstable reduced model) is mirrored as ``|Re lambda| - i Im
    lambda``, so that every outer shift lies in the right half-plane.
    """
    resolvent = PencilResolvent(_real_block("A", pencil.A), _real_block("E", pencil.E))
    reduction = irka_first_order(
        pencil.E, pencil.A, pencil.B, pencil.C,
        r=min(warm_start.r, pencil.E.shape[0]),
        max_iter=config.inner_max_iter,
        tol=config.inner_tol,
        init=warm_start,
        resolvent=resolvent,
    )
    if not reduction.converged:
        if resolvent.eigen is None:  # a singular E has no dominant poles
            raise resolvent.singular
        restart = _dominant_initialization(resolvent.eigen, pencil.B, pencil.C, warm_start.r)
        retried = irka_first_order(
            pencil.E, pencil.A, pencil.B, pencil.C,
            r=restart.r,
            max_iter=config.inner_max_iter,
            tol=config.inner_tol,
            init=restart,
            resolvent=resolvent,
        )
        if retried.converged:
            reduction = retried
    values, right, left = eig_generalized(reduction.A, reduction.E)
    values.real = -np.abs(values.real)  # an unstable pole mirrors as its stable twin
    return _mirror_interpolation(values, right, left, reduction.B, reduction.C)


# ---------------------------------------------------------------------------
# outer driver


@dataclass
class IterationRecord:
    """One outer IRKA iteration as recorded in the trace."""

    iteration: int
    metric: float
    shifts: np.ndarray
    right_solves: int
    left_solves: int
    seconds: dict = field(default_factory=dict)


def _format_complex(z):
    return f"{z.real:.17g}{z.imag:+.17g}j"


@dataclass
class IterationTrace:
    """Append-only record of an outer IRKA run.

    ``format()`` emits a stable plain-text form intended for
    diff-based regression; timing lines are opt-in because wall-clock
    values are the one part of a run that is not reproducible. Its
    ``lu_route`` line names the route of the reduction's LUs and the
    fill of the augmented pattern that decided it (the system's
    :class:`~morkit.lu.Route`); on the band route it ends with the
    band's integer widths, ``kl <kl> ku <ku>``.
    """

    requested_order: int
    one_sided: bool
    records: list = field(default_factory=list)
    converged: bool = False
    final_order: int = 0
    final_interpolation: InterpolationData | None = None
    final_basis: ProjectionBasis | None = None
    lu_route: str | None = None  # Route.kind of the reduction's LUs
    lu_fill: float | None = None  # nnz(L+U) / n^2 of the augmented pattern
    lu_band: tuple | None = None  # (kl, ku) of the band route's RCM order

    @property
    def iterations(self):
        return len(self.records)

    @property
    def right_solves(self):
        return sum(rec.right_solves for rec in self.records)

    @property
    def left_solves(self):
        return sum(rec.left_solves for rec in self.records)

    def format(self, include_timings=False):
        lines = [
            "# second-order IRKA trace",
            f"requested_order {self.requested_order}",
            f"one_sided {str(self.one_sided).lower()}",
        ]
        if self.lu_route is not None:
            line = f"lu_route {self.lu_route} fill {self.lu_fill:.17g}"
            if self.lu_band is not None:
                line += " kl {} ku {}".format(*self.lu_band)
            lines.append(line)
        for rec in self.records:
            lines.append(f"iteration {rec.iteration}")
            lines.append(f"  metric {rec.metric:.17g}")
            lines.append("  shifts " + " ".join(_format_complex(s) for s in rec.shifts))
            lines.append(f"  right_solves {rec.right_solves}")
            lines.append(f"  left_solves {rec.left_solves}")
            if include_timings:
                lines.append(
                    "  seconds "
                    + " ".join(f"{k}={v:.6f}" for k, v in sorted(rec.seconds.items()))
                )
        lines.append(f"converged {str(self.converged).lower()}")
        lines.append(f"iterations {self.iterations}")
        lines.append(f"final_order {self.final_order}")
        lines.append(f"right_solves {self.right_solves}")
        lines.append(f"left_solves {self.left_solves}")
        return "\n".join(lines) + "\n"


def irka_second_order_index1(system, config):
    """Reduce a second-order index-1 system by two-level IRKA.

    Each outer iteration: build projection bases by sparse augmented
    tangential solves at the current shifts, project to an intermediate
    second-order model of order r, and obtain the next shift set by
    running the dense first-order IRKA on its companion pencil and
    mirroring the result's poles. Convergence is declared when the
    sorted shift set moves by less than ``config.shift_tol`` in
    relative terms; hitting ``config.max_iter`` emits a
    :class:`ConvergenceWarning` and returns the last iterate.

    Returns
    -------
    (ReducedSecondOrderModel, IterationTrace)
        The model is built from the final (post-update) bases; the
        trace also carries those bases for follow-up transformations.
    """
    report = validate(system)
    if config.r > system.n1:
        raise DimensionError(
            f"reduced order r={config.r} exceeds differential dimension n1={system.n1}"
        )
    one_sided = report.symmetric if config.force_one_sided is None else config.force_one_sided
    interp = initial_interpolation(
        config.r, system.m, system.p, config.freq_range, config.seed
    )
    trace = IterationTrace(requested_order=config.r, one_sided=one_sided)
    solves = {"right": 0, "left": 0}  # solves of the current iteration
    seconds = {}  # wall time of the current iteration, by phase

    def timed(phase, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds[phase] = seconds.get(phase, 0.0) + time.perf_counter() - t0
        return out

    def bases(interp):
        basis = timed("solve", build_bases, system, interp, one_sided=one_sided)
        groups = len(pair_conjugates(interp.shifts))
        solves["right"] += groups
        solves["left"] += 0 if one_sided else groups
        return basis

    def step(basis, interp):
        rom = timed("reduce", reduce, system, basis)
        pencil = timed("reduce", companion, rom)
        return timed("update", update_interpolation, pencil, config, warm_start=interp)

    def record(metric, interp):
        trace.records.append(
            IterationRecord(
                iteration=trace.iterations + 1,
                metric=metric,
                shifts=interp.shifts.copy(),
                right_solves=solves["right"],
                left_solves=solves["left"],
                seconds=dict(seconds),
            )
        )
        solves.update(right=0, left=0)
        seconds.clear()

    interp, basis, _, trace.converged = _shift_iteration(
        interp, bases, step, config.max_iter, config.shift_tol, record
    )
    rom = reduce(system, basis)
    trace.final_order = rom.order
    trace.final_interpolation = interp
    trace.final_basis = basis
    route = system.route
    trace.lu_route, trace.lu_fill = route.kind, route.fill
    if route.kind == "band":
        trace.lu_band = (route.layout.kl, route.layout.ku)
    if not trace.converged:
        warnings.warn(
            f"IRKA hit the iteration cap ({config.max_iter}) with shift movement "
            f"{trace.records[-1].metric:.3e} > {config.shift_tol:.3e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return rom, trace


def back_to_index1(system, basis):
    """Project a system onto a basis, keeping its algebraic part.

    Builds the (r + n2)-dimensional second-order index-1 system whose
    differential blocks are the projections W^T M11 V, W^T L11 V,
    W^T K11 V (plain, without the algebraic correction), with coupling
    W^T K12 and K21 V and the original K22, F2, H2, Da; the constructor
    stores the projected blocks as CSC. Its transfer function coincides
    with that of :func:`reduce` on the same basis, while the algebraic
    variables (and any quantities attached to them) remain explicit.
    """
    return SecondOrderIndex1System(
        **_project(system, basis),
        K22=system.K22, F2=system.F2, H2=system.H2, Da=system.Da,
    )
