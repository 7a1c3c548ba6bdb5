"""Sparse LU: SuperLU's factorization identity, solves, singularity reporting, routes."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from morkit import lu as lu_module
from morkit.errors import DimensionError, SingularMatrixError
from morkit.irka import factor_augmented
from morkit.lu import _rcm_order, factor
from morkit.sparse import as_canonical_csc, assemble_shifted_augmented, column_abs_max, positions
from morkit.system import generate_synthetic, validate

from conftest import GRID, chain_system, grid_ids, grid_system, stored_of


def _random_square(n, seed, density=0.25):
    rng = np.random.default_rng(seed)
    A = sp.random_array((n, n), density=density, rng=rng, format="csc")
    # keep it comfortably nonsingular
    return A + sp.diags_array(np.full(n, float(n)))


def test_worked_2x2_example():
    # minimum degree puts column 1 first; the threshold keeps its
    # diagonal pivot 2, so L U factors [[2, 1], [1, 5]]
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    lu = factor(A)
    np.testing.assert_array_equal(lu.L.toarray(), [[1.0, 0.0], [0.5, 1.0]])
    np.testing.assert_array_equal(lu.U.toarray(), [[2.0, 1.0], [0.0, 4.5]])
    np.testing.assert_array_equal(lu.perm_r, [1, 0])
    np.testing.assert_array_equal(lu.perm_c, [1, 0])


def test_identity_factors_to_identity():
    I = sp.eye_array(3, format="csc")
    lu = factor(I)
    np.testing.assert_array_equal(lu.L.toarray(), np.eye(3))
    np.testing.assert_array_equal(lu.U.toarray(), np.eye(3))


def test_exactly_singular_raises():
    A = sp.csc_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factor(A)


def test_negligible_pivot_reports_column():
    # factors without aborting, but the trailing pivot falls below the
    # relative threshold, so the offending column is named
    eps = np.finfo(np.float64).eps
    A = sp.csc_array(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]))
    with pytest.raises(SingularMatrixError) as err:
        factor(A)
    assert err.value.column in (0, 1)
    assert "column" in str(err.value)


def test_pivot_small_only_beside_another_column_passes():
    # the pivot 1.0 is below eps * n * 1e20 but well above its own
    # column's bound, which is the one that counts
    A = sp.csc_array(np.array([[1e20, 0.0], [0.0, 1.0]]))
    lu = factor(A)
    np.testing.assert_array_equal(np.sort(np.abs(lu.U.diagonal())), [1.0, 1e20])


def test_widely_scaled_columns_pass_the_pivot_check():
    # columns scaled 1e-8 .. 1e8 around a matrix of condition number
    # 1.45: every pivot is large against its own column, so the check
    # must compare it with that column, which minimum degree moved
    rng = np.random.default_rng(16)
    n = 12
    C = np.eye(n) + 0.1 * (rng.random((n, n)) < 0.2) * rng.standard_normal((n, n))
    scales = np.logspace(-8, 8, n)
    lu = factor(sp.csc_array(C * scales))
    assert not np.array_equal(lu.perm_c, np.arange(n))
    np.testing.assert_allclose(lu.solve(C @ np.ones(n)) * scales, 1.0, rtol=1e-12)


def test_structurally_singular_raises():
    # an empty column makes SuperLU itself abort
    A = sp.csc_array(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        factor(A)


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        factor(sp.csc_array(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])))


@pytest.mark.parametrize("n, seed", [(8, 0), (25, 1), (60, 2), (60, 3)])
def test_permuted_factorization_identity(n, seed):
    A = _random_square(n, seed)
    lu = factor(A)
    Pr, Pc = lu.permutation_matrices()
    residual = abs(Pr @ A @ Pc - lu.L @ lu.U).max()
    assert residual <= 1e-12 * abs(A).max()
    # unit lower-triangular L, upper-triangular U
    assert np.all(lu.L.diagonal() == 1.0)
    upperL = sp.triu(lu.L, k=1)
    lowerU = sp.tril(lu.U, k=-1)
    assert (abs(upperL).max() if upperL.nnz else 0.0) == 0.0
    assert (abs(lowerU).max() if lowerU.nnz else 0.0) == 0.0


def test_solve_worked_example():
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    x = factor(A).solve(np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [2.0 / 9.0, -1.0 / 9.0], rtol=1e-15)


def test_solve_identity():
    rhs = np.array([3.0, -1.0, 7.5])
    x = factor(sp.eye_array(3, format="csc")).solve(rhs)
    np.testing.assert_array_equal(x, rhs)


def test_solve_complex_worked_example():
    A = sp.csc_array(np.array([[4 + 2j, 1.0], [1.0, 2.0]]))
    x = factor(A).solve(np.array([1.0, 0.0]))
    expected = np.array([2.0, -1.0]) / (7 + 4j)
    np.testing.assert_allclose(x, expected, rtol=1e-15)


def test_complex_rhs_through_real_factorization():
    A = sp.csc_array(np.array([[5.0, 1.0], [1.0, 2.0]]))
    lu = factor(A)
    rhs = np.array([1.0 + 1.0j, 0.0])
    x = lu.solve(rhs)
    np.testing.assert_allclose(A.toarray() @ x, rhs, atol=1e-14)


def test_solve_transposed_symmetric_matches_solve(s1):
    A = assemble_shifted_augmented(s1, 0.0)
    lu = factor(A)
    rhs = np.array([1.0, 0.0])
    np.testing.assert_allclose(lu.solve_transposed(rhs), lu.solve(rhs), rtol=1e-15)
    np.testing.assert_allclose(lu.solve_transposed(rhs), [2.0 / 9.0, -1.0 / 9.0],
                               rtol=1e-15)


def test_solve_transposed_hand_example():
    A = sp.csc_array(np.array([[1.0, 1.0], [0.0, 1.0]]))
    x = factor(A).solve_transposed(np.array([0.0, 1.0]))
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-15)


def test_solve_transposed_is_plain_transpose():
    # complex matrix: trans solve must NOT conjugate
    A = sp.csc_array(np.array([[1j, 2.0], [0.0, 1.0]]))
    lu = factor(A)
    rhs = np.array([1.0 + 0j, 0.0])
    x = lu.solve_transposed(rhs)
    np.testing.assert_allclose(A.toarray().T @ x, rhs, atol=1e-14)


@pytest.mark.parametrize("n, seed", [(30, 5), (50, 6)])
def test_solve_transposed_equals_factoring_the_transpose(n, seed):
    A = _random_square(n, seed)
    rng = np.random.default_rng(seed + 1)
    rhs = rng.standard_normal(n)
    xa = factor(A).solve_transposed(rhs)
    xb = factor(A.T).solve(rhs)
    np.testing.assert_allclose(xa, xb, rtol=1e-12, atol=1e-14)


def test_rhs_dimension_checked():
    lu = factor(sp.eye_array(3, format="csc"))
    with pytest.raises(DimensionError):
        lu.solve(np.zeros(4))


@pytest.mark.parametrize("n1, n2, m, p, sym, seed", GRID[:4], ids=grid_ids()[:4])
def test_augmented_factorization_succeeds_off_spectrum(
    make_system, n1, n2, m, p, sym, seed
):
    system = make_system(n1, n2, m, p, seed, symmetric=sym)
    A = assemble_shifted_augmented(system, 0.3 + 100.0j)
    lu = factor(A)
    rhs = np.zeros(n1 + n2, dtype=complex)
    rhs[0] = 1.0
    x = lu.solve(rhs)
    np.testing.assert_allclose(A @ x, rhs, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_column_abs_max_matches_sparse_max(dtype):
    # empty columns (first, middle, last), an explicit zero, -0.0 and
    # negative entries; complex entries compare by modulus
    data = np.array([-3.0, 0.0, 2.0, -0.0, -7.5, 1.0], dtype=dtype)
    if dtype == np.complex128:
        data = data + 1j * np.array([4.0, 0.0, -1.0, 0.0, 0.5, -2.0])
    indices = np.array([0, 3, 1, 2, 0, 3])
    indptr = np.array([0, 0, 3, 3, 4, 6, 6])
    A = sp.csc_array((data, indices, indptr), shape=(4, 6))
    want = np.ravel(np.abs(A).max(axis=0).toarray())
    got = column_abs_max(A, np.abs(A.data))
    assert got.tobytes() == want.tobytes()
    assert got[0] == got[2] == got[5] == 0.0


def test_negligible_pivot_names_its_original_column_in_any_order():
    # columns 0 and 2 agree to within eps; whichever minimum degree
    # eliminates second gets a negligible pivot, and in every
    # arrangement of the matrix the error names one of those two
    eps = np.finfo(np.float64).eps
    A = np.array([[1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [1.0, 0.0, 1.0 + eps, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    for cols in itertools.permutations(range(4)):
        cols = list(cols)
        with pytest.raises(SingularMatrixError) as err:
            factor(sp.csc_array(A[cols][:, cols]))
        assert err.value.column in (cols.index(0), cols.index(2))


def _dense(A):
    """A's LU on the dense route, as for a pattern that fills in
    completely."""
    lu = factor(stored_of(A, "dense"))
    assert lu.routine == "getrf"
    return lu


def _band(A):
    """A's LU on the band route, in the reverse Cuthill-McKee order of
    its pattern."""
    lu = factor(stored_of(A, "band"))
    assert lu.routine == "gbtrf"
    return lu


def _ldlt(A):
    """A's LDL^T on the ldlt route, as for a symmetric pattern that
    fills in completely."""
    lu = factor(stored_of(A, "dense-lower"))
    assert lu.routine == "sytrf"
    return lu


def _assert_solves(lu, A, rtol=1e-12):
    """lu's solves with A and A^T agree with a dense solve."""
    dense = A.toarray()
    rhs = np.arange(1.0, dense.shape[0] + 1)
    np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(dense, rhs), rtol=rtol)
    np.testing.assert_allclose(lu.solve_transposed(rhs), np.linalg.solve(dense.T, rhs),
                               rtol=rtol)


ROUTES = {"sparse": factor, "dense": _dense, "band": _band}
ROUTINES = {"sparse": "gstrf", "dense": "getrf", "band": "gbtrf"}
DENSE_ROUTINES = {"dense": "getrf", "ldlt": "sytrf"}


def test_fill_threshold_chooses_the_route(monkeypatch):
    # the pattern's fill against DENSE_FILL: from the threshold on every
    # LU of the system is dense (LDL^T for an exactly symmetric system),
    # below it banded or sparse. The pattern's fill is that of SuperLU at
    # a shift
    for symmetric, dense_kind in ((True, "ldlt"), (False, "dense")):
        def system():
            return generate_synthetic(60, 12, 2, 2, seed=3, symmetric=symmetric)

        first = system().route
        lu = factor(assemble_shifted_augmented(system(), 2.0 + 30.0j))
        assert first.fill == (lu.L.nnz + lu.U.nnz - lu.n) / lu.n**2
        monkeypatch.setattr(lu_module, "BAND_FILL", 0)  # no band is that cheap
        for threshold, kind in ((first.fill, dense_kind),
                                (np.nextafter(first.fill, 1.0), "sparse")):
            monkeypatch.setattr(lu_module, "DENSE_FILL", threshold)
            fresh = system()
            assert fresh.route.kind == kind
            routine = factor_augmented(fresh, 5.0).routine
            assert (routine == DENSE_ROUTINES[dense_kind]) == (kind == dense_kind)
    assert chain_system(400, 40, True).route.kind == "sparse"


def test_band_threshold_chooses_the_route():
    # below DENSE_FILL, the RCM band's storage against BAND_FILL times the
    # pattern's fill: a chain goes banded, a 2-D grid (band about its side
    # wide) stays on SuperLU; generated systems go dense, by LDL^T when
    # symmetric. A symmetric chain's real shifts factor by band Cholesky,
    # a nonsymmetric one's by band LU. The routines at a real and at a
    # complex shift
    for system, kind, routines in (
            (chain_system(400, 40, True), "band", ("pbtrf", "gbtrf")),
            (chain_system(400, 40, False), "band", ("gbtrf", "gbtrf")),
            (grid_system(40), "sparse", ("gstrf", "gstrf")),
            (generate_synthetic(60, 12, 2, 2, seed=3), "ldlt", ("sytrf", "sytrf")),
            (generate_synthetic(60, 12, 2, 2, seed=3, symmetric=False), "dense",
             ("getrf", "getrf"))):
        route = system.route
        assert route.kind == kind
        storage = {"ldlt": "dense-lower", "dense": "dense", "band": "band"}.get(kind)
        assert getattr(route.layout, "storage", None) == storage
        assert (route.lower is not None) == (routines[0] == "pbtrf")
        if kind == "band":
            n = system.n1 + system.n2
            fill_nnz = route.fill * n**2
            band = route.layout
            assert (2 * band.kl + band.ku + 1) * n <= lu_module.BAND_FILL * fill_nnz
        for sigma, want in zip((1.0, 2.0 + 30.0j), routines):
            assert factor_augmented(system, sigma).routine == want


def test_band_route_measures_the_chains_rcm_band():
    band = chain_system(400, 40, True).route.layout
    assert (band.kl, band.ku) == (2, 2)
    np.testing.assert_array_equal(np.sort(band.order), np.arange(440))


def test_band_route_starts_from_a_peripheral_node():
    # a chain with a connector between every two masses: from an end of
    # the chain each BFS level holds at most two nodes, so the band is
    # (2, 2); a start at a minimum-degree node (any connector) can sit
    # inside the chain, where two interleaved fronts give (4, 4)
    def bandwidths(A):
        A = as_canonical_csc(A)
        order = _rcm_order(A)
        np.testing.assert_array_equal(np.sort(order), np.arange(A.shape[0]))
        return positions(A, "band", order)[3:]

    for n1 in (400, 1000):
        system = chain_system(n1, n1 - 1, True)
        band = system.route.layout
        assert (band.kl, band.ku) == (2, 2)
        A = system.augmented.pattern
        assert bandwidths(A) == (2, 2)
        # the band does not depend on how the nodes are numbered
        scramble = np.random.default_rng(n1).permutation(A.shape[0])
        assert bandwidths(A[scramble][:, scramble]) == (2, 2)
        # every component is ordered on its own: an isolated node, anywhere,
        # widens nothing
        B = sp.block_diag((A, sp.csc_array([[1.0]])), format="csc")
        scramble = np.random.default_rng(n1 + 1).permutation(B.shape[0])
        assert bandwidths(B) == bandwidths(B[scramble][:, scramble]) == (2, 2)


def _reference_rcm(A):
    """Reverse Cuthill-McKee of the graph of A + A^T, node by node: each
    component from a George-Liu pseudo-peripheral node, found from its
    lowest node by (degree, index); children in (degree, index) order."""
    n = A.shape[0]
    dense = A.toarray() != 0
    neighbours = [sorted(set(np.flatnonzero(dense[v] | dense[:, v])) - {v}) for v in range(n)]
    key = [(len(neighbours[v]), v) for v in range(n)]

    def levels(root):
        depth, front = {root: 0}, [root]
        while front:
            after = []
            for v in front:
                for w in neighbours[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        after.append(w)
            front = after
        return depth

    order, seen = [], set()
    for start in sorted(range(n), key=key.__getitem__):
        if start in seen:
            continue
        root, depth = start, levels(start)
        while True:
            ecc = max(depth.values())
            candidate = min((v for v, d in depth.items() if d == ecc), key=key.__getitem__)
            candidate_depth = levels(candidate)
            if max(candidate_depth.values()) <= ecc:
                break
            root, depth = candidate, candidate_depth
        queue = [root]
        seen.add(root)
        for v in queue:
            for w in sorted(neighbours[v], key=key.__getitem__):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        order += queue
    return order[::-1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 0.3), seed=st.integers(0, 2**16))
def test_rcm_order_matches_a_node_by_node_reference(n, density, seed):
    # any pattern, connected or not, symmetric or not
    A = sp.random_array((n, n), density=density, rng=np.random.default_rng(seed),
                        format="csc")
    np.testing.assert_array_equal(_rcm_order(as_canonical_csc(A)), _reference_rcm(A))


def test_route_probe_factors_a_pattern_without_its_diagonal():
    # K22 stores no entry at (0, 0), so the augmented pattern misses one
    # diagonal entry: the probe puts a dominant diagonal under its unit
    # entries, so it factors and fills as the pattern with that entry does
    base = chain_system(50, 5, True)
    system = dataclasses.replace(base, K22=sp.csc_array(np.diag([0.0, 3.0, 3.0, 3.0, 3.0])))
    pattern = system.augmented.pattern
    assert 50 not in pattern.indices[pattern.indptr[50]:pattern.indptr[51]]
    assert system.route.kind == "band"
    assert system.route.fill == base.route.fill


def _asymmetric(system, block, i, j, value):
    """`system` with entry (i, j) of `block` set to `value`."""
    changed = getattr(system, block).toarray()
    changed[i, j] = value
    return dataclasses.replace(system, **{block: sp.csc_array(changed)})


@pytest.mark.parametrize("block", ["M11", "L11", "K11", "K22", "K21"])
def test_ldlt_route_needs_exact_symmetry(block):
    # ?sytrf reads one triangle, so one ulp off an entry, or K21 off K12^T
    # by a rounding error, keeps the system on LU, though validate's
    # tolerance reports it symmetric
    base = generate_synthetic(60, 12, 2, 2, seed=3)
    assert base.route.kind == "ldlt"
    dense = getattr(base, block).toarray()
    if block == "K21":  # against K12^T: any entry
        i, j = np.argwhere(dense != 0)[0]
    else:  # an entry off the diagonal, whose mirror then differs
        i, j = np.argwhere(np.triu(dense, k=1) != 0)[0]
    system = _asymmetric(base, block, i, j, np.nextafter(dense[i, j], np.inf))
    assert validate(system).symmetric
    assert system.route.kind == "dense"
    assert factor_augmented(system, 2.0 + 30.0j).routine == "getrf"


def test_ldlt_route_needs_a_symmetric_pattern():
    # an entry whose mirror is not stored breaks symmetry, however small;
    # so does a stored zero whose mirror is not stored (the pattern
    # decides), and stored zeros at both mirrored places do not
    base = generate_synthetic(60, 12, 2, 2, seed=3)
    K = base.K11.tocoo()
    union = (abs(base.M11) + abs(base.L11) + abs(base.K11)).toarray()
    i, j = np.argwhere(union == 0)[0]  # neither it nor its mirror is stored

    def with_entries(values, rows, cols):
        K11 = sp.csc_array((np.concatenate([K.data, values]),
                            (np.concatenate([K.row, rows]), np.concatenate([K.col, cols]))),
                           shape=K.shape)
        return dataclasses.replace(base, K11=K11)

    assert with_entries([1e-300], [i], [j]).route.kind == "dense"
    one_zero = with_entries([0.0], [i], [j])
    assert one_zero.K11.nnz == base.K11.nnz + 1
    assert one_zero.route.kind == "dense"
    assert with_entries([0.0, 0.0], [i, j], [j, i]).route.kind == "ldlt"


@pytest.mark.parametrize("sigma", [5.0, 2.0 + 30.0j], ids=["real", "complex"])
@pytest.mark.parametrize("rhs_dtype", [np.float64, np.complex128])
def test_ldlt_solves_match_a_dense_solve(sigma, rhs_dtype):
    # a symmetric system's augmented matrix at a real and a complex
    # shift; the transposed solve is the plain one, since A = A^T
    system = generate_synthetic(60, 12, 2, 2, seed=3)
    lu = factor_augmented(system, sigma)
    assert lu.routine == "sytrf"
    assert lu.dtype == (np.float64 if sigma.imag == 0.0 else np.complex128)
    dense = system.augmented.csc(sigma).toarray()
    rng = np.random.default_rng(3)
    n = dense.shape[0]
    for shape in ((n,), (n, 3)):
        rhs = rng.standard_normal(shape).astype(rhs_dtype)
        if rhs_dtype == np.complex128:
            rhs = rhs + 1j * rng.standard_normal(shape)
        x, xt = lu.solve(rhs), lu.solve_transposed(rhs)
        assert x.shape == xt.shape == shape
        assert x.dtype == xt.dtype == np.result_type(lu.dtype, rhs_dtype)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(xt, np.linalg.solve(dense.T, rhs), rtol=1e-12, atol=1e-14)


# symmetric and indefinite with a zero diagonal: Bunch-Kaufman must
# interchange and take 2 x 2 blocks
_ZERO_DIAGONAL = np.array([[0.0, 1.0, 2.0, 0.0, 3.0],
                           [1.0, 0.0, 3.0, 1.0, 0.0],
                           [2.0, 3.0, 0.0, 1.0, 1.0],
                           [0.0, 1.0, 1.0, 0.0, 2.0],
                           [3.0, 0.0, 1.0, 2.0, 0.0]])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_ldlt_interchanges_and_takes_two_by_two_blocks(dtype):
    # LAPACK's own sytrf on the matrix shows both; the route's solves
    # go through them
    A = _ZERO_DIAGONAL.astype(dtype)
    if dtype == np.complex128:
        A = A * (1.0 + 0.5j)  # complex symmetric, not Hermitian
    sytrf = lapack.get_lapack_funcs("sytrf", (A,))
    ipiv, info = sytrf(A, lower=1)[1:]
    assert info == 0
    assert (ipiv < 0).any()  # a 2 x 2 block
    assert (np.abs(ipiv) != np.arange(1, 6)).any()  # an interchange
    lu = _ldlt(sp.csc_array(A))
    rhs = np.arange(1.0, 11.0).reshape(5, 2)
    for x, matrix in ((lu.solve(rhs), A), (lu.solve_transposed(rhs), A.T)):
        np.testing.assert_allclose(x, np.linalg.solve(matrix, rhs), rtol=1e-13, atol=1e-13)


def test_ldlt_names_the_column_of_an_exactly_zero_pivot():
    # rows 0 and 3 are equal: sytrf meets an exactly zero pivot, which
    # is D's at one of those columns, found through the interchanges
    A = _ZERO_DIAGONAL.copy()
    A[3], A[:, 3] = A[0], A[0]
    for cols in itertools.permutations(range(5)):
        cols = list(cols)
        with pytest.raises(SingularMatrixError, match="exactly zero") as err:
            _ldlt(sp.csc_array(A[cols][:, cols]))
        assert err.value.column in (cols.index(0), cols.index(3))


def test_ldlt_names_the_column_of_a_negligible_pivot():
    # rows 0 and 3 differ by one ulp: the factorization completes, but
    # one pivot is negligible; the check names a column of that pair,
    # through the interchanges of the orders that make them
    eps = np.finfo(np.float64).eps
    A = _ZERO_DIAGONAL.copy()
    A[3], A[:, 3] = A[0], A[0]
    A[3, 3] = A[0, 3] = A[3, 0] = eps
    interchanged = 0
    for cols in itertools.permutations(range(5)):
        cols = list(cols)
        B = A[cols][:, cols]
        ipiv, info = lapack.dsytrf(B, lower=1)[1:]
        assert info == 0
        interchanged += (np.abs(ipiv) != np.arange(1, 6)).any()
        with pytest.raises(SingularMatrixError, match="negligible") as err:
            _ldlt(sp.csc_array(B))
        assert err.value.column in (cols.index(0), cols.index(3))
    assert interchanged == 120


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(4, 60),
    n2=st.integers(1, 12),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    re=st.floats(-1e4, 1e4),
    im=st.sampled_from([0.0, 1.0, -30.0, 2e3]),
)
def test_ldlt_route_solves_agree_with_the_lu_route(n1, n2, m, seed, re, im):
    # generated symmetric systems fill densely and are exactly symmetric,
    # so they factor by LDL^T; its solves agree with getrf's on the same
    # matrix to 1e-12 relative (measured at most 1.2e-15 on 300 systems)
    system = generate_synthetic(n1, n2, m, m, seed=seed)
    assert system.route.kind == "ldlt"
    sigma = complex(re, im)
    ldlt = factor_augmented(system, sigma)
    lu = _dense(system.augmented.csc(sigma))
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((ldlt.n, 2)) + 1j * rng.standard_normal((ldlt.n, 2))
    for solve in ("solve", "solve_transposed"):
        got, want = getattr(ldlt, solve)(rhs), getattr(lu, solve)(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("sigma", [5.0, 2.0 + 30.0j], ids=["real", "complex"])
@pytest.mark.parametrize("routine", ["getrf", "sytrf"])
def test_dense_routes_factor_the_dense_copy_bit_for_bit(routine, sigma):
    # each shift is scattered straight into the array the routine
    # factors: its factors (sytrf's lower triangle, the only one it
    # reads and writes) and solves are LAPACK's on the dense copy of the
    # CSC assembly, bit for bit
    system = generate_synthetic(60, 12, 2, 2, seed=3, symmetric=routine == "sytrf")
    lu = factor_augmented(system, sigma)
    assert lu.routine == routine
    dense = system.augmented.csc(sigma).toarray(order="F")
    rhs = np.random.default_rng(1).standard_normal((lu.n, 2)).astype(dense.dtype)
    if routine == "getrf":
        factors, piv, info = lapack.get_lapack_funcs("getrf", (dense,))(dense)
        want = lapack.get_lapack_funcs("getrs", (factors,))(factors, piv, rhs)[0]
        got = lu._factors
    else:
        sytrf = lapack.get_lapack_funcs("sytrf", (dense,))
        lwork = lu_module._SYTRF_LWORK[(sytrf.typecode, lu.n)]
        factors, ipiv, info = sytrf(dense, lower=1, lwork=lwork)
        want = lapack.get_lapack_funcs("sytrs", (factors,))(factors, ipiv, rhs, lower=1)[0]
        got, factors = np.tril(lu._factors), np.tril(factors)
    assert info == 0
    assert np.array_equal(got, factors) and got.tobytes() == factors.tobytes()
    assert lu.solve(rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n, seed", [(8, 0), (25, 1), (60, 2)])
def test_dense_route_factorization_identity(n, seed, dtype):
    A = _random_square(n, seed).astype(dtype)
    if dtype == np.complex128:
        A = A + 1j * _random_square(n, seed + 10)
    # the factors promise A = P L U through their solves with A and A^T,
    # in the matrix's arithmetic
    lu = _dense(A)
    assert lu.dtype == dtype
    _assert_solves(lu, A)


def test_dense_route_pivots_rows():
    # a zero leading entry forces a row swap, which LAPACK's own getrf
    # records in piv, and the solves go through it
    A = sp.csc_array(np.array([[0.0, 2.0, 1.0], [3.0, 1.0, 0.0], [1.0, 0.0, 4.0]]))
    assert not np.array_equal(lapack.dgetrf(A.toarray())[1], np.arange(3))
    _assert_solves(_dense(A), A, rtol=1e-14)


@pytest.mark.parametrize("route", ["sparse", "dense", "band"])
@pytest.mark.parametrize("factor_dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("rhs_dtype", [np.float64, np.complex128])
def test_solves_match_a_dense_solve_on_both_routes(route, factor_dtype, rhs_dtype):
    rng = np.random.default_rng(11)
    n = 40
    A = _random_square(n, 11).astype(factor_dtype)
    if factor_dtype == np.complex128:
        A = A + 1j * _random_square(n, 12)
    lu = ROUTES[route](A)
    dense = A.toarray()
    for shape in ((n,), (n, 3)):
        rhs = rng.standard_normal(shape).astype(rhs_dtype)
        if rhs_dtype == np.complex128:
            rhs = rhs + 1j * rng.standard_normal(shape)
        x, xt = lu.solve(rhs), lu.solve_transposed(rhs)
        assert x.shape == xt.shape == shape
        assert x.dtype == xt.dtype == np.result_type(factor_dtype, rhs_dtype)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(xt, np.linalg.solve(dense.T, rhs), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("route", ["sparse", "dense", "band"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_singular_matrix_names_its_column_on_both_routes(route, dtype):
    # columns 0 and 2 agree to within eps; the one eliminated second
    # gets the negligible pivot: column 0 after minimum degree, column 2
    # in the dense route's natural order, column 0 again in the band
    # route's RCM order (2, 0, 3, 1). An exactly zero pivot is named as
    # well: the last column eliminated, 2 in natural order and 0 in the
    # RCM order (2, 1, 0)
    eps = np.finfo(np.float64).eps
    near = sp.csc_array(np.array([[1.0, 0.0, 1.0, 0.0],
                                  [0.0, 1.0, 0.0, 0.0],
                                  [1.0, 0.0, 1.0 + eps, 0.0],
                                  [0.0, 0.0, 0.0, 1.0]], dtype=dtype))
    exact = sp.csc_array(np.array([[2.0, 1.0, 0.0],
                                   [0.0, 1.0, 1.0],
                                   [2.0, 2.0, 1.0]], dtype=dtype))
    run = ROUTES[route]
    with pytest.raises(SingularMatrixError, match="negligible") as err:
        run(near)
    assert err.value.column == (2 if route == "dense" else 0)
    assert str(err.value).startswith(ROUTINES[route] + " ")  # the routine that met it
    if route != "sparse":  # SuperLU stops at an exact zero without naming it
        with pytest.raises(SingularMatrixError) as err:
            run(exact)
        assert err.value.column == (2 if route == "dense" else 0)
        assert "exactly zero" in str(err.value)


def test_dense_route_pivot_check_is_relative_to_the_column():
    # the pivot 1.0 is negligible against the other column, not its own:
    # the factorization passes, and its solves are the matrix's
    A = sp.csc_array(np.array([[1e20, 0.0], [0.0, 1.0]]))
    _assert_solves(_dense(A), A, rtol=1e-15)


def test_band_route_pivot_check_is_relative_to_the_column():
    # as on the dense route, through the RCM order (1, 0) of the columns
    A = sp.csc_array(np.array([[1e20, 0.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(stored_of(A, "band").layout.order, [1, 0])
    _assert_solves(_band(A), A, rtol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n, seed", [(8, 0), (25, 1), (60, 2)])
def test_band_route_factorization_identity(n, seed, dtype):
    # the factors promise P L U of A in RCM order through their solves
    # with A and A^T, in the matrix's arithmetic
    A = _random_square(n, seed).astype(dtype)
    if dtype == np.complex128:
        A = A + 1j * _random_square(n, seed + 10)
    lu = _band(A)
    assert lu.dtype == dtype
    _assert_solves(lu, A)


def test_band_route_pivots_rows_through_a_zero_diagonal():
    # a tridiagonal matrix whose leading diagonal entry (and another
    # inside the band) is zero: LAPACK's own gbtrf swaps rows, and the
    # solves go through its deferred interchanges
    A = sp.csc_array(np.array([[0.0, 2.0, 0.0, 0.0, 0.0],
                               [3.0, 1.0, 1.0, 0.0, 0.0],
                               [0.0, 1.0, 4.0, 2.0, 0.0],
                               [0.0, 0.0, 5.0, 0.0, 1.0],
                               [0.0, 0.0, 0.0, 1.0, 2.0]]))
    band = stored_of(A, "band", np.arange(5, dtype=np.int32))  # already banded
    piv = lapack.dgbtrf(band.data.copy(), band.layout.kl, band.layout.ku)[1]
    assert np.count_nonzero(piv != np.arange(5)) >= 2
    _assert_solves(factor(band), A, rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(4, 60),
    n2=st.integers(1, 15),
    m=st.integers(1, 3),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    symmetric=st.booleans(),
    shared=st.booleans(),
    re=st.floats(-1e4, 1e4),
    im=st.sampled_from([0.0, 1.0, -30.0, 2e3]),
)
def test_augmented_solves_agree_with_a_dense_solve_on_every_route(
    n1, n2, m, p, seed, symmetric, shared, re, im
):
    # whichever arithmetic and route factor_augmented takes (float64 or
    # complex, SuperLU or LAPACK), its solves are those of the matrix
    if symmetric:
        p = m
    system = generate_synthetic(n1, n2, m, p, seed=seed, symmetric=symmetric)
    sigma = complex(re, im)
    if shared:  # a factorization at another shift comes first
        factor_augmented(system, 7.0 + 300.0j)
    lu = factor_augmented(system, sigma)
    assert lu.dtype == (np.float64 if im == 0.0 else np.complex128)
    A = assemble_shifted_augmented(system, sigma).toarray().astype(np.complex128)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((A.shape[0], 2)) + 1j * rng.standard_normal((A.shape[0], 2))
    for got, matrix in ((lu.solve(rhs), A), (lu.solve_transposed(rhs), A.T)):
        want = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 50),
    kl=st.integers(0, 4),
    ku=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    complex_values=st.booleans(),
)
def test_band_route_recovers_a_scrambled_band(n, kl, ku, seed, complex_values):
    # a full band of random values, its rows and columns scrambled by one
    # random permutation: the route's RCM order takes it back to a band
    # no wider than the original, and its solves are the matrix's
    rng = np.random.default_rng(seed)
    kl, ku = min(kl, n - 1), min(ku, n - 1)
    offsets = range(-kl, ku + 1)
    diagonals = [rng.standard_normal(n - abs(k)) for k in offsets]
    if complex_values:
        diagonals = [d + 1j * rng.standard_normal(d.shape) for d in diagonals]
    # well conditioned, yet the diagonal is not always the largest entry
    # of its column, so rows get swapped
    diagonals[kl] = diagonals[kl] + 3.0 * np.sign(diagonals[kl].real)
    band = sp.diags_array(diagonals, offsets=list(offsets), shape=(n, n)).toarray()
    scramble = rng.permutation(n)
    A = sp.csc_array(band[scramble][:, scramble])
    # however small or filled in, the matrix goes banded in its RCM order
    band = stored_of(A, "band", _rcm_order(as_canonical_csc(A)))
    assert max(band.layout.kl, band.layout.ku) <= max(kl, ku)
    lu = factor(band)
    assert lu.routine == "gbtrf"
    dense = A.toarray()
    rhs = rng.standard_normal((n, 2))
    for got, matrix in ((lu.solve(rhs), dense), (lu.solve_transposed(rhs), dense.T)):
        want = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=30, deadline=None)
@given(
    grid=st.booleans(),
    n1=st.integers(20, 300),
    n2=st.integers(1, 15),
    seed=st.integers(0, 2**16),
    log_sigma=st.floats(0.0, 4.0),
)
def test_band_cholesky_solves_agree_with_superlu(grid, n1, n2, seed, log_sigma):
    # seeded symmetric band systems at a real shift from 1 to 1e4, where
    # they are positive definite: the band Cholesky's solve and
    # transposed solve are SuperLU's to 1e-12 relative (measured at most
    # 4.8e-16 over 240 systems and shifts)
    system = grid_system(20, seed=seed) if grid else chain_system(n1, n2, True, seed=seed)
    assert system.route.kind == "band" and system.route.lower is not None
    sigma = 10.0**log_sigma
    chol = factor_augmented(system, sigma)
    assert chol.routine == "pbtrf" and chol.dtype == np.float64
    superlu = factor(system.augmented.csc(sigma))
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((chol.n, 2)) + 1j * rng.standard_normal((chol.n, 2))
    for solve in ("solve", "solve_transposed"):
        got, want = getattr(chol, solve)(rhs), getattr(superlu, solve)(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _indefinite_chain():
    """A chain whose negative K22 keeps its augmented matrix symmetric,
    but not positive definite at a real shift."""
    base = chain_system(200, 20, True)
    return dataclasses.replace(base, K22=-base.K22)


def test_indefinite_symmetric_band_falls_back_to_band_lu():
    # pbtrf stops, and gbtrf factors the same shift
    system = _indefinite_chain()
    assert system.route.kind == "band" and system.route.lower is not None
    A = system.augmented.csc(5.0)
    assert np.linalg.eigvalsh(A.toarray()).min() < 0.0
    band = system.augmented.scatter(5.0, system.route.lower)
    assert lapack.dpbtrf(band.data, lower=1)[1] > 0
    lu = factor_augmented(system, 5.0)
    assert lu.routine == "gbtrf" and lu.dtype == np.float64
    superlu = factor(A)
    rhs = np.random.default_rng(5).standard_normal((lu.n, 2))
    for solve in ("solve", "solve_transposed"):
        got, want = getattr(lu, solve)(rhs), getattr(superlu, solve)(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_band_cholesky_names_the_column_of_a_negligible_pivot():
    # columns 0 and 2 agree to within 2 eps: positive definite, and pbtrf
    # completes, but in the RCM order (2, 0, 3, 1) the pivot of band
    # position 1, A's column 0, is negligible (2 eps); the error names
    # column 0. Within eps, pbtrf meets a pivot that rounds to zero, and
    # the band LU that takes over names the same column
    eps = np.finfo(np.float64).eps
    for delta, completes in ((2 * eps, True), (eps, False)):
        A = sp.csc_array(np.array([[1.0, 0.0, 1.0, 0.0],
                                   [0.0, 1.0, 0.0, 0.0],
                                   [1.0, 0.0, 1.0 + delta, 0.0],
                                   [0.0, 0.0, 0.0, 1.0]]))
        band = stored_of(A, "band-lower")
        np.testing.assert_array_equal(band.layout.order, [2, 0, 3, 1])
        assert (lapack.dpbtrf(band.data, lower=1)[1] == 0) == completes
        with pytest.raises(SingularMatrixError, match="negligible") as err:
            factor(band)
        assert err.value.column == 0


def test_band_cholesky_readouts_have_the_stored_factors_size():
    # L.nnz is the stored factor's kd + 1 rows of n entries, corner
    # included, and U.nnz n, so that nnz(L) + nnz(U) - n counts the
    # stored factor, as the tracer reads it; the factor solves B = L L^T
    system = chain_system(200, 20, True)
    sigma = 5.0
    lu = factor_augmented(system, sigma)
    assert lu.routine == "pbtrf"
    n, kd = lu.n, system.route.lower.kl
    assert lu.L.nnz == (kd + 1) * n and lu.U.nnz == n
    _assert_solves(lu, system.augmented.csc(sigma))


# (routine, dtype, factors, the stored factor array's entries or None)
_TRACED = {
    "getrf": lambda: ("getrf", np.complex128, _dense(_random_square(8, 0) * (1 + 1j)), 64),
    "sytrf": lambda: ("sytrf", np.float64, _ldlt(sp.csc_array(_ZERO_DIAGONAL)), 25),
    "gbtrf": lambda: ("gbtrf", np.complex128,
                      factor_augmented(chain_system(200, 20, True), 2.0 + 30.0j),
                      (2 * 2 + 2 + 1) * 220),
    "pbtrf": lambda: ("pbtrf", np.float64, factor_augmented(chain_system(200, 20, True), 5.0),
                      (2 + 1) * 220),
    "gbtrf-fallback": lambda: ("gbtrf", np.float64, factor_augmented(_indefinite_chain(), 5.0),
                               (2 * 2 + 2 + 1) * 220),
    "gstrf": lambda: ("gstrf", np.float64, factor(_random_square(25, 1)), None),
}


@pytest.mark.parametrize("case", list(_TRACED))
def test_every_route_answers_what_the_tracer_reads(case):
    # the benchmark's tracer reads n, dtype, L.nnz and U.nnz of every
    # factorization, whatever its routine; on LAPACK's routes L.nnz +
    # U.nnz - n is the stored factor array's size (the chain's band:
    # kl = ku = 2, n = 220)
    routine, dtype, lu, stored = _TRACED[case]()
    assert lu.routine == routine and lu.dtype == dtype
    assert isinstance(lu.n, int) and isinstance(lu.L.nnz, int) and isinstance(lu.U.nnz, int)
    if stored is None:  # SuperLU's own triangles
        assert lu.L.nnz == lu.L.indptr[-1] and lu.U.nnz == lu.U.indptr[-1]
        assert lu.L.nnz >= lu.n and lu.U.nnz >= lu.n
    else:
        assert lu.U.nnz == lu.n
        assert lu.L.nnz + lu.U.nnz - lu.n == stored
