"""Second-order index-1 descriptor systems in block form.

The model is

    M11 x1'' + L11 x1' + K11 x1 + K12 x2 = F1 u
                         K21 x1 + K22 x2 = F2 u
                 y = H1 x1 + H2 x2 + Da u

with nonsingular K22 (the index-1 condition). Eliminating the algebraic
variable x2 yields an equivalent unconstrained second-order system whose
coefficient matrices involve the dense Schur complement of K22; the
package never forms that complement for large systems, but
:func:`to_dense_schur` materializes it for small reference computations.
"""

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import lu
from .errors import Index1ViolationError, SingularMatrixError, StructuralError
from .sparse import ShiftedAugmented, as_canonical_csc, is_symmetric

_SPARSE_BLOCKS = ("M11", "L11", "K11", "K12", "K21", "K22")
_DENSE_BLOCKS = ("F1", "F2", "H1", "H2", "Da")
_SYMMETRY_RTOL = 1e-12


@dataclass
class SecondOrderIndex1System:
    """Container for the eleven blocks of a second-order index-1 system.

    Sparse blocks are canonical CSC (float64), dense blocks are float64
    ndarrays. Blocks are treated as immutable once the system is built.
    Three things are built from them on first use and kept: the K22
    factorization (``k22_lu``), the one index map of the shifted
    augmented matrix (``augmented``) and the route that every shift's
    factorization of that matrix takes (``route``).
    """

    M11: sp.csc_array
    L11: sp.csc_array
    K11: sp.csc_array
    K12: sp.csc_array
    K21: sp.csc_array
    K22: sp.csc_array
    F1: np.ndarray
    F2: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    Da: np.ndarray

    def __post_init__(self):
        for name in _SPARSE_BLOCKS:
            setattr(self, name, as_canonical_csc(getattr(self, name), dtype=np.float64))
        for name in _DENSE_BLOCKS:
            block = np.atleast_2d(np.asarray(getattr(self, name), dtype=np.float64))
            setattr(self, name, block)

    @property
    def n1(self):
        """Number of differential (second-order) variables."""
        return self.M11.shape[0]

    @property
    def n2(self):
        """Number of algebraic variables."""
        return self.K22.shape[0]

    @property
    def m(self):
        """Number of inputs."""
        return self.F1.shape[1]

    @property
    def p(self):
        """Number of outputs."""
        return self.H1.shape[0]

    @cached_property
    def k22_lu(self):
        """Retained sparse LU of the algebraic block K22."""
        try:
            return lu.factor(self.K22)
        except SingularMatrixError as exc:
            raise Index1ViolationError(
                f"K22 is singular, system is not index 1 ({exc})", column=exc.column
            ) from exc

    @cached_property
    def augmented(self):
        """Index map of the shifted augmented matrix
        (:class:`~morkit.sparse.ShiftedAugmented`), which scatters every
        shift's matrix into CSC or a LAPACK routine's storage."""
        return ShiftedAugmented(self)

    @cached_property
    def route(self):
        """Route of every shift's augmented factorization
        (:class:`~morkit.lu.Route`), decided from the augmented pattern,
        which is the same at every shift."""
        return lu.Route(self.augmented)


@dataclass(frozen=True)
class SystemReport:
    """Validation summary for one system."""

    n1: int
    n2: int
    m: int
    p: int
    index1: bool
    symmetric: bool

    def format(self):
        lines = [
            f"n1 = {self.n1}",
            f"n2 = {self.n2}",
            f"m = {self.m}",
            f"p = {self.p}",
            f"index1 = {str(self.index1).lower()}",
            f"symmetric = {str(self.symmetric).lower()}",
        ]
        return "\n".join(lines) + "\n"


def _max_abs(A):
    if sp.issparse(A):
        return abs(A).max() if A.nnz else 0.0
    return float(np.max(np.abs(A))) if A.size else 0.0


def _pair_matches(A, B_t, scale):
    """Entrywise |A - B^T| <= rtol * scale, for sparse or dense operands."""
    if A.shape != B_t.shape:
        return False
    return _max_abs(A - B_t) <= _SYMMETRY_RTOL * scale


def validate(system):
    """Check block shapes, the index-1 condition, and structural symmetry.

    Shape inconsistencies and NaN or Inf entries raise
    :class:`StructuralError` naming the offending block; a singular K22
    raises :class:`Index1ViolationError`. Symmetry means: M11, L11, K11,
    K22, Da symmetric, K21 = K12^T, H1 = F1^T and H2 = F2^T, each to
    1e-12 relative to the blocks involved.

    Returns
    -------
    SystemReport
    """
    n1, n2 = system.M11.shape[0], system.K22.shape[0]
    m, p = system.F1.shape[1], system.H1.shape[0]
    expected = {
        "M11": (n1, n1),
        "L11": (n1, n1),
        "K11": (n1, n1),
        "K12": (n1, n2),
        "K21": (n2, n1),
        "K22": (n2, n2),
        "F1": (n1, m),
        "F2": (n2, m),
        "H1": (p, n1),
        "H2": (p, n2),
        "Da": (p, m),
    }
    for name, shape in expected.items():
        block = getattr(system, name)
        if tuple(block.shape) != shape:
            raise StructuralError(
                f"block {name} has shape {tuple(block.shape)}, expected {shape}"
            )
        if not np.isfinite(block.data if sp.issparse(block) else block).all():
            raise StructuralError(f"block {name} has non-finite entries")
    if min(n1, n2, m, p) < 1:
        raise StructuralError("all block dimensions must be at least 1")

    system.k22_lu  # factorization failure means the index-1 condition is violated

    symmetric = m == p
    for name in ("M11", "L11", "K11", "K22"):
        A = getattr(system, name)
        symmetric = symmetric and is_symmetric(A, _SYMMETRY_RTOL * _max_abs(A))
    symmetric = symmetric and _pair_matches(
        system.K21, system.K12.T, max(_max_abs(system.K21), _max_abs(system.K12))
    )
    if symmetric:
        scale_f = max(_max_abs(system.H1), _max_abs(system.F1))
        symmetric = _pair_matches(system.H1, system.F1.T, scale_f)
        scale_h = max(_max_abs(system.H2), _max_abs(system.F2))
        symmetric = symmetric and _pair_matches(system.H2, system.F2.T, scale_h)
        da = system.Da
        symmetric = symmetric and _pair_matches(da, da.T, _max_abs(da))
    return SystemReport(n1=n1, n2=n2, m=m, p=p, index1=True, symmetric=bool(symmetric))


@dataclass
class ReducedSecondOrderModel:
    """Dense second-order model G(s) = H (s^2 M + s L + K)^-1 F + D.

    Reduction returns one of order r; :func:`to_dense_schur` returns one
    of order n1, the unconstrained equivalent of a whole system.
    """

    M: np.ndarray
    L: np.ndarray
    K: np.ndarray
    F: np.ndarray
    H: np.ndarray
    D: np.ndarray

    @property
    def order(self):
        return self.M.shape[0]

    @property
    def m(self):
        return self.F.shape[1]

    @property
    def p(self):
        return self.H.shape[0]


def to_dense_schur(system):
    """Eliminate the algebraic block and return the dense equivalent.

    The transfer function of the result is identical to the transfer
    function of the full index-1 system. Reference object for
    verification only: cost is O(n1^2 n2), so keep this to
    reference-scale systems; the reduction path never forms it.
    """
    k22 = system.k22_lu
    X21 = k22.solve(system.K21.toarray())  # K22^-1 K21
    XF2 = k22.solve(system.F2)  # K22^-1 F2
    K12 = system.K12
    return ReducedSecondOrderModel(
        M=system.M11.toarray(),
        L=system.L11.toarray(),
        K=system.K11.toarray() - K12 @ X21,
        F=system.F1 - K12 @ XF2,
        H=system.H1 - system.H2 @ X21,
        D=system.Da + system.H2 @ XF2,
    )


def _random_dd_spd(rng, n, gap_lo, gap_hi, log_gaps=False, per_row=4):
    """Sparse symmetric positive definite matrix via diagonal dominance.

    Gershgorin margin per row is drawn from [gap_lo, gap_hi] (log-10
    uniform when ``log_gaps``), so eigenvalues are at least gap_lo.
    """
    k = per_row * n
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, n, size=k)
    vals = rng.uniform(-1.0, 1.0, size=k)
    mask = rows != cols
    S = sp.coo_array((vals[mask], (rows[mask], cols[mask])), shape=(n, n)).tocsc()
    S = S + S.T
    if log_gaps:
        gaps = 10.0 ** rng.uniform(math.log10(gap_lo), math.log10(gap_hi), size=n)
    else:
        gaps = rng.uniform(gap_lo, gap_hi, size=n)
    rowsum = np.ravel(abs(S).sum(axis=1))
    return as_canonical_csc(S + sp.diags_array(rowsum + gaps), dtype=np.float64)


def _random_coupling(rng, nrows, ncols, frob_norm, per_row=3):
    k = min(per_row * nrows, nrows * ncols)
    rows = rng.integers(0, nrows, size=k)
    cols = rng.integers(0, ncols, size=k)
    vals = rng.standard_normal(k)
    A = sp.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsc()
    current = math.sqrt(float(np.sum(A.data**2)))
    A = A * (frob_norm / max(current, np.finfo(float).tiny))
    return as_canonical_csc(A, dtype=np.float64)


# shape of the generated stiffness spectrum: a few isolated resonant
# modes inside the analysis band, the rest pushed to a stiff, heavily
# damped background just above it
_MODE_COUNT = 5
_MODE_BAND = (50.0, 1.2e3)
_MODE_JITTER = 0.15
_BACKGROUND_GAPS = (1e8, 1e9)
_PORT2_SCALE = 1e-2

# defaults of generate_synthetic, shared with ``morkit generate``
GENERATE_SYMMETRIC = True
GENERATE_DAMPING = (0.5, 1e-4)


def generate_synthetic(n1, n2, m, p, seed, symmetric=GENERATE_SYMMETRIC,
                       proportional_damping=GENERATE_DAMPING):
    """Generate a well-posed random test system, deterministic in `seed`.

    M11, K22 and the stiff part of K11 are sparse SPD by diagonal
    dominance. K11 places a handful of lightly damped modes at
    log-spaced eigenfrequencies inside [50, 1200] rad/s (jittered per
    seed) on top of a stiff background block whose modes sit above the
    band and, under the default proportional damping L11 = alpha M11 +
    beta K11, are overdamped: the transfer function shows isolated
    sharp peaks riding on a smooth compliant tail. The coupling block
    K12 is scaled so the stiffness Schur complement stays positive
    definite with a provable Gershgorin margin, keeping the generated
    system index 1 and (in the symmetric case) stable; F2/H2 are kept
    small so the constant feedthrough through the algebraic block does
    not drown the modal dynamics. Symmetric generation requires m == p
    and sets K21 = K12^T, H1 = F1^T, H2 = F2^T.

    Returns
    -------
    SecondOrderIndex1System
    """
    if min(n1, n2, m, p) < 1:
        raise StructuralError("all of n1, n2, m, p must be at least 1")
    if symmetric and m != p:
        raise StructuralError(f"symmetric generation requires m == p, got {m} != {p}")
    alpha, beta = proportional_damping
    rng = np.random.default_rng(seed)

    M11 = _random_dd_spd(rng, n1, 1.0, 2.0)

    k = min(_MODE_COUNT, n1)
    omegas = np.logspace(math.log10(_MODE_BAND[0]), math.log10(_MODE_BAND[1]), k)
    omegas = omegas * np.exp(rng.uniform(-_MODE_JITTER, _MODE_JITTER, size=k))
    # pin each modal frequency against the local mass so the peaks stay
    # separated across seeds: K_ii / M_ii = omega_i^2
    resonant = sp.diags_array(omegas**2 * M11.diagonal()[:k])
    if n1 > k:
        background = _random_dd_spd(rng, n1 - k, *_BACKGROUND_GAPS, log_gaps=True)
        K11 = as_canonical_csc(sp.block_diag((resonant, background), format="csc"))
    else:
        K11 = as_canonical_csc(resonant, dtype=np.float64)
    L11 = as_canonical_csc(alpha * M11 + beta * K11)
    K22 = _random_dd_spd(rng, n2, 1.0, 2.0)

    # ||K12||_F^2 = 0.01 min(diag K11) <= 0.01 lambda_min(K11), and
    # lambda_min(K22) >= 1, so the Schur complement K11 - K12 K22^-1 K21
    # stays positive definite with two orders of margin
    tau = 0.1 * math.sqrt(float(K11.diagonal().min()))
    K12 = _random_coupling(rng, n1, n2, tau)
    K21 = K12.T if symmetric else _random_coupling(rng, n2, n1, tau)

    F1 = rng.standard_normal((n1, m))
    F2 = _PORT2_SCALE * rng.standard_normal((n2, m))
    H1 = F1.T.copy() if symmetric else rng.standard_normal((p, n1))
    H2 = F2.T.copy() if symmetric else _PORT2_SCALE * rng.standard_normal((p, n2))
    Da = np.zeros((p, m))

    return SecondOrderIndex1System(
        M11=M11, L11=L11, K11=K11, K12=K12, K21=K21, K22=K22,
        F1=F1, F2=F2, H1=H1, H2=H2, Da=Da,
    )


def read_keyvalue(path):
    """Parse a ``key = value`` text file (blank lines and '#' comments ok)."""
    path = Path(path)
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise StructuralError(f"{path.name}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def atomic_write_text(path, text):
    """Write text to `path` via a temp file + rename, never a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_matrix(path, A):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        scipy.io.mmwrite(fh, A, precision=17)
    os.replace(tmp, path)


# scipy's Matrix Market reader starts a thread pool per file, sized to
# the machine; on files of this size the pool costs more than it saves
_MM_READER = getattr(scipy.io, "_fast_matrix_market", None)
_MM_READER_LOCK = threading.Lock()


def _read_matrix(path):
    """``scipy.io.mmread`` of one file, parsed on the calling thread."""
    if not hasattr(_MM_READER, "PARALLELISM"):
        return scipy.io.mmread(str(path))
    with _MM_READER_LOCK:
        saved = _MM_READER.PARALLELISM
        _MM_READER.PARALLELISM = 1
        try:
            return scipy.io.mmread(str(path))
        finally:
            _MM_READER.PARALLELISM = saved


def _read_dense(path):
    """One Matrix Market file as a float64 ndarray, whatever its layout."""
    data = _read_matrix(path)
    return np.asarray(data.toarray() if sp.issparse(data) else data, dtype=np.float64)


def save_system(system, directory):
    """Write all eleven blocks as Matrix Market files plus a manifest.

    Files are written atomically (temp + rename). Returns the manifest
    path; :func:`load_system` accepts exactly that path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        "# second-order index-1 system manifest",
        f"n1 = {system.n1}",
        f"n2 = {system.n2}",
        f"m = {system.m}",
        f"p = {system.p}",
    ]
    for name in _SPARSE_BLOCKS + _DENSE_BLOCKS:
        filename = f"{name}.mtx"
        _write_matrix(directory / filename, getattr(system, name))
        lines.append(f"{name} = {filename}")
    manifest = directory / "manifest.txt"
    atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest


def load_system(manifest_path):
    """Load, assemble, and validate a system saved by :func:`save_system`."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise StructuralError(f"manifest not found: {manifest_path}")
    kv = read_keyvalue(manifest_path)
    for key in ("n1", "n2", "m", "p") + _SPARSE_BLOCKS + _DENSE_BLOCKS:
        if key not in kv:
            raise StructuralError(f"manifest is missing field {key!r}")
    declared = {}
    for key in ("n1", "n2", "m", "p"):
        try:
            declared[key] = int(kv[key])
        except ValueError:
            raise StructuralError(
                f"manifest field {key} in {manifest_path} must be an integer, got {kv[key]!r}"
            ) from None
    base = manifest_path.parent
    blocks = {}
    for name in _SPARSE_BLOCKS + _DENSE_BLOCKS:
        target = base / kv[name]
        if not target.is_file():
            raise StructuralError(f"block file for {name} not found: {target}")
        if name in _DENSE_BLOCKS:
            blocks[name] = _read_dense(target)
        else:
            blocks[name] = _read_matrix(target)  # canonicalized by the constructor
    system = SecondOrderIndex1System(**blocks)
    actual = {"n1": system.n1, "n2": system.n2, "m": system.m, "p": system.p}
    if declared != actual:
        raise StructuralError(
            f"manifest dimensions {declared} do not match block files {actual}"
        )
    validate(system)
    return system


_ROM_BLOCKS = ("M", "L", "K", "F", "H", "D")  # each in rom_<name>.mtx


def save_reduced_model(rom, directory):
    """Write the six reduced matrices as dense Matrix Market files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _ROM_BLOCKS:
        _write_matrix(directory / f"rom_{name}.mtx", np.asarray(getattr(rom, name)))
    return directory


def load_reduced_model(directory):
    """Load a reduced model written by :func:`save_reduced_model`.

    A missing file, a block of the wrong shape (M, L and K r x r, F
    r x m, H p x r, D p x m, with r from M, m from F and p from H) or
    non-finite entries raise :class:`StructuralError` naming the file.
    """
    directory = Path(directory)
    blocks = {}
    for name in _ROM_BLOCKS:
        target = directory / f"rom_{name}.mtx"
        if not target.is_file():
            raise StructuralError(f"reduced-model file missing: {target}")
        blocks[name] = _read_dense(target)
        if not np.isfinite(blocks[name]).all():
            raise StructuralError(f"{target} has non-finite entries")
    r, m, p = blocks["M"].shape[0], blocks["F"].shape[1], blocks["H"].shape[0]
    expected = {"M": (r, r), "L": (r, r), "K": (r, r), "F": (r, m), "H": (p, r), "D": (p, m)}
    for name, shape in expected.items():
        if blocks[name].shape != shape:
            raise StructuralError(f"{directory / f'rom_{name}.mtx'} has shape "
                                  f"{blocks[name].shape}, expected {shape}")
    return ReducedSecondOrderModel(**blocks)
