"""Shared fixtures: hand-checkable scalar systems and the property grid.

The scalar systems S1/S2 are small enough that every expected value in
the unit tests was derived by hand (2x2 solves, quadratic roots). The
grid constants parametrize the seeded property tests; reduction orders
are capped per case because the shifted tangential solutions of this
system class span a low-dimensional subspace and stacking more columns
than its rank makes basis deflation kick in, after which two exact
reduction routes may legitimately differ.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from morkit import InterpolationData, SecondOrderIndex1System, generate_synthetic
from morkit.lu import _rcm_order
from morkit.sparse import BandMatrix, as_canonical_csc, band_layout, column_abs_max

# dimensions (n1, n2), port layouts (m, p, symmetric), generator seeds
DIMS = [(40, 10), (120, 25), (200, 40)]
PORTS = [(1, 1, True), (2, 2, True), (3, 3, True), (2, 3, False)]
SEEDS = [0, 1]

GRID = [
    (n1, n2, m, p, sym, seed)
    for (n1, n2) in DIMS
    for (m, p, sym) in PORTS
    for seed in SEEDS
]


def grid_ids():
    return [f"n{n1}x{n2}_m{m}p{p}_{'sym' if sym else 'asym'}_s{seed}"
            for (n1, n2, m, p, sym, seed) in GRID]


def rs_for(n1, m):
    """Reduction orders that stay below the tangential-subspace rank."""
    if m == 1:
        return (3, 4, 6)
    if n1 >= 120:
        return (3, 4, 10)
    return (3, 4, 8)


def scalar_system(F2=0.0, H2=0.0, Da=0.0, K12=1.0, K21=1.0, H1=1.0, K22=2.0,
                  L11=2.0, K11=5.0):
    """1x1-block system; defaults give S1 with Schur (M, L, K) = (1, 2, 4.5)."""

    def blk(v):
        return sp.csc_array(np.array([[float(v)]]))

    return SecondOrderIndex1System(
        M11=blk(1.0), L11=blk(L11), K11=blk(K11),
        K12=blk(K12), K21=blk(K21), K22=blk(K22),
        F1=np.array([[1.0]]), F2=np.array([[float(F2)]]),
        H1=np.array([[float(H1)]]), H2=np.array([[float(H2)]]),
        Da=np.array([[float(Da)]]),
    )


def chain_system(n1, n2, symmetric, seed=0):
    """A mass-spring chain with n2 massless connectors, each tied to two
    neighbouring masses, and two ports. The LU of its augmented matrix
    fills in far below ``morkit.lu.DENSE_FILL`` and reverse Cuthill-McKee
    orders it into a narrow band, so its route (``system.route``) is the
    band (generated systems go dense, grids stay sparse)."""
    rng = np.random.default_rng(seed)
    M11 = sp.diags_array(rng.uniform(1.0, 2.0, n1))
    k = rng.uniform(1.0, 3.0, n1 + 1)
    K11 = sp.diags_array([k[:-1] + k[1:], -k[1:-1], -k[1:-1]], offsets=[0, 1, -1])
    cols = np.arange(n2) * (n1 // n2)
    K12 = sp.csc_array((np.concatenate([-np.ones(n2), -np.ones(n2)]),
                        (np.concatenate([cols, cols + 1]), np.tile(np.arange(n2), 2))),
                       shape=(n1, n2))
    K21 = K12.T if symmetric else 0.5 * K12.T
    return SecondOrderIndex1System(
        M11=M11, L11=0.01 * M11 + 1e-3 * K11, K11=K11, K12=K12, K21=K21,
        K22=sp.diags_array(np.full(n2, 3.0)),
        F1=rng.standard_normal((n1, 2)), F2=np.zeros((n2, 2)),
        H1=rng.standard_normal((2, n1)), H2=np.zeros((2, n2)), Da=np.zeros((2, 2)),
    )


def band_of(A, order=None):
    """`A` as a :class:`~morkit.sparse.BandMatrix` in `order` (default:
    the reverse Cuthill-McKee order of its pattern), as narrow as its
    stored entries allow, with the moduli the pivot check reads."""
    A = as_canonical_csc(A)
    order = _rcm_order(A) if order is None else order
    at, kl, ku = band_layout(A, order)
    data = np.zeros((2 * kl + ku + 1, A.shape[0]), dtype=A.dtype, order="F")
    data.reshape(-1, order="F")[at] = A.data
    absdata = np.abs(A.data)
    colmax = column_abs_max(A, absdata)[order]
    return BandMatrix(data, kl, ku, order, absdata.max(initial=0.0), lambda: colmax)


def grid_laplacian(side):
    """The 5-point Laplacian of a side x side grid: n = side^2, and its
    reverse Cuthill-McKee band is about `side` wide."""
    T = sp.diags_array([np.full(side, 2.0), -np.ones(side - 1), -np.ones(side - 1)],
                       offsets=[0, 1, -1])
    I = sp.eye_array(side)
    return sp.csc_array(sp.kron(T, I) + sp.kron(I, T))


def grid_system(side, n2=8, seed=0):
    """Unit masses on a side x side grid of springs, with n2 massless
    connectors each tied to two neighbouring masses, and two ports. Its
    band stores more than ``morkit.lu.BAND_FILL`` times its pattern's
    fill, so its route (``system.route``) stays sparse."""
    rng = np.random.default_rng(seed)
    n1 = side * side
    K11 = 1e3 * grid_laplacian(side) + sp.eye_array(n1)
    cols = np.arange(n2) * (n1 // n2)
    K12 = sp.csc_array((-np.ones(2 * n2),
                        (np.concatenate([cols, cols + 1]), np.tile(np.arange(n2), 2))),
                       shape=(n1, n2))
    M11 = sp.eye_array(n1)
    return SecondOrderIndex1System(
        M11=M11, L11=0.01 * M11 + 1e-3 * K11, K11=K11, K12=K12, K21=K12.T,
        K22=sp.diags_array(np.full(n2, 3.0)),
        F1=rng.standard_normal((n1, 2)), F2=np.zeros((n2, 2)),
        H1=rng.standard_normal((2, n1)), H2=np.zeros((2, n2)), Da=np.zeros((2, 2)),
    )


@pytest.fixture
def s1():
    return scalar_system()


@pytest.fixture
def s2():
    # extra second-block ports: Schur arithmetic gives Fc = Hc = 0, Dc = 2,
    # so the transfer function is the constant 2
    return scalar_system(F2=2.0, H2=2.0)


def damped_pairs(r, m, p, seed, lo=10.0, hi=2.0e4, ratio=0.1):
    """Conjugate-closed interpolation data off the imaginary axis.

    Shifts are omega*(ratio + 1j) with omega log-spaced over [lo, hi]
    (plus one real shift at the geometric mean when r is odd); the
    spread keeps stacked tangential bases well conditioned, which the
    equal-routes property tests rely on.
    """
    rng = np.random.default_rng(seed)
    shifts, rows_b, rows_c = [], [], []

    def unit_complex(k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return v / np.linalg.norm(v)

    def unit_real(k):
        v = rng.standard_normal(k)
        return v / np.linalg.norm(v)

    npairs = r // 2
    if npairs:
        for om in np.logspace(math.log10(lo), math.log10(hi), npairs):
            s = om * (ratio + 1j)
            b = unit_complex(m)
            c = unit_complex(p)
            shifts += [s, np.conj(s)]
            rows_b += [b, np.conj(b)]
            rows_c += [c, np.conj(c)]
    if r % 2:
        shifts.append(complex(math.sqrt(lo * hi)))
        rows_b.append(unit_real(m).astype(complex))
        rows_c.append(unit_real(p).astype(complex))
    return InterpolationData(np.array(shifts), np.array(rows_b), np.array(rows_c))


@pytest.fixture(scope="session")
def make_system():
    """Session-cached generator so repeated grid cases build once."""
    cache = {}

    def build(n1, n2, m, p, seed, symmetric=True, damping=(0.5, 1e-4)):
        key = (n1, n2, m, p, seed, symmetric, damping)
        if key not in cache:
            cache[key] = generate_synthetic(
                n1, n2, m, p, seed=seed, symmetric=symmetric,
                proportional_damping=damping,
            )
        return cache[key]

    return build
