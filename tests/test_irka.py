"""IRKA machinery: interpolation iterates, tangential solves, bases,
projection, the inner first-order loop, and the outer driver."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from morkit import analysis, irka
from morkit import dense as dense_module
from morkit import lu as lu_module
from morkit.errors import (
    ConvergenceWarning,
    DimensionError,
    PencilSingularError,
    RankDeficiencyWarning,
    ShiftCollisionError,
    SingularMatrixError,
    StructuralError,
)
from morkit.irka import (
    InterpolationData,
    IrkaConfig,
    ProjectionBasis,
    _dominant_initialization,
    _mirror_interpolation,
    _perturb,
    _shift_iteration,
    back_to_index1,
    build_bases,
    companion,
    convergence_metric,
    enforce_conjugate_closure,
    factor_augmented,
    initial_interpolation,
    irka_first_order,
    irka_second_order_index1,
    pair_conjugates,
    reduce,
    tangential_solve_left,
    tangential_solve_right,
    update_interpolation,
)
from morkit.dense import PencilResolvent, dense_solve, eig_generalized
from morkit.lu import DENSE_FILL
from morkit.sparse import assemble_shifted_augmented
from morkit.system import (
    ReducedSecondOrderModel,
    SecondOrderIndex1System,
    generate_synthetic,
    load_reduced_model,
    save_reduced_model,
    to_dense_schur,
)

from conftest import (GRID, chain_system, damped_pairs, grid_ids, grid_system, nonproportional,
                      scalar_system)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# interpolation iterates


def test_initial_interpolation_endpoints():
    interp = initial_interpolation(2, 1, 1, (10.0, 1e4), seed=1)
    np.testing.assert_allclose(sorted(interp.shifts.real), [10.0, 1e4], rtol=1e-12)
    np.testing.assert_array_equal(interp.shifts.imag, [0.0, 0.0])
    # 1-d directions are unit up to sign
    assert np.all(np.abs(np.abs(interp.b) - 1.0) < 1e-15)
    assert np.all(np.abs(np.abs(interp.c) - 1.0) < 1e-15)


def test_initial_interpolation_log_spacing():
    interp = initial_interpolation(3, 2, 2, (10.0, 1000.0), seed=0)
    np.testing.assert_allclose(sorted(interp.shifts.real), [10.0, 100.0, 1000.0],
                               rtol=1e-12)


def test_initial_interpolation_deterministic():
    a = initial_interpolation(4, 3, 2, seed=5)
    b = initial_interpolation(4, 3, 2, seed=5)
    np.testing.assert_array_equal(a.shifts, b.shifts)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.c, b.c)
    np.testing.assert_allclose(np.linalg.norm(a.b, axis=1), 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(a.c, axis=1), 1.0, rtol=1e-14)


def test_initial_interpolation_validates_range():
    with pytest.raises(ValueError):
        initial_interpolation(2, 1, 1, (0.0, 100.0))
    with pytest.raises(DimensionError):
        initial_interpolation(0, 1, 1)


@pytest.mark.parametrize("settings, name", [
    ({"shift_tol": np.nan}, "shift_tol"),
    ({"shift_tol": -1e-3}, "shift_tol"),
    ({"inner_tol": np.inf}, "inner_tol"),
    ({"freq_range": (10.0, np.inf)}, "freq_range"),
    ({"freq_range": (np.nan, 100.0)}, "freq_range"),
    ({"freq_range": (100.0, 10.0)}, "freq_range"),
])
def test_config_rejects_a_non_finite_or_non_positive_setting(settings, name):
    with pytest.raises(ValueError, match=name):
        IrkaConfig(r=4, **settings)


@pytest.mark.parametrize("freq_range", [(10.0, np.inf), (np.nan, 10.0), (-np.inf, 10.0)])
def test_initial_interpolation_rejects_a_non_finite_range(freq_range):
    # the same check as IrkaConfig's, so no NaN shift is ever returned
    with pytest.raises(ValueError, match="freq_range"):
        initial_interpolation(4, 2, 2, freq_range)


def test_convergence_metric_identical():
    shifts = np.array([1.0 + 2.0j, 1.0 - 2.0j, 3.0])
    assert convergence_metric(shifts, shifts.copy()) == 0.0


def test_convergence_metric_direct_ratio():
    assert convergence_metric([1.0], [1.001]) == pytest.approx(1e-3, rel=1e-10)


def test_convergence_metric_sorting_invariance():
    old = np.array([1.0, 2.0 + 1.0j, 2.0 - 1.0j])
    new = old[::-1].copy()
    assert convergence_metric(old, new) == 0.0


def test_convergence_metric_order_change_is_inf():
    assert convergence_metric([1.0, 2.0], [1.0]) == np.inf


def test_enforce_closure_merges_inexact_pair():
    shifts = [1.0 + 2.0j, 1.0 + 1e-9 - 2.0j, 5.0 + 1e-12j]
    b = [[1.0], [1.0], [1.0]]
    c = [[1.0], [1.0], [1.0]]
    out = enforce_conjugate_closure(shifts, b, c)
    assert out.is_conjugate_closed()
    complexes = sorted((s for s in out.shifts if s.imag != 0.0),
                       key=lambda z: z.imag)
    assert len(complexes) == 2
    assert complexes[0] == np.conj(complexes[1])   # exactly, post-averaging
    real = [s for s in out.shifts if s.imag == 0.0]
    assert real == [5.0 + 0.0j]                    # snapped onto the axis


def test_enforce_closure_demotes_lone_complex():
    out = enforce_conjugate_closure([1.0 + 2.0j], [[1.0]], [[1.0]])
    np.testing.assert_array_equal(out.shifts, [1.0 + 0.0j])


def test_interpolation_data_shape_check():
    with pytest.raises(DimensionError):
        InterpolationData(np.array([1.0, 2.0]), np.ones((1, 1)), np.ones((2, 1)))


# ---------------------------------------------------------------------------
# references: the straightforward per-row closure glue of both IRKA levels


def _reference_pair_conjugates(shifts, order=None):
    shifts = np.asarray(shifts, dtype=np.complex128)
    order = range(shifts.shape[0]) if order is None else [int(i) for i in order]
    used = np.zeros(shifts.shape[0], dtype=bool)
    groups = []
    for i in order:
        if used[i]:
            continue
        used[i] = True
        s = shifts[i]
        scale = max(1.0, abs(s))
        if abs(s.imag) <= 1e-8 * scale:
            groups.append((i, None))
            continue
        near = np.abs(shifts - np.conj(s)) <= 1e-6 * scale
        partner = next((j for j in order if near[j] and not used[j]), -1)
        if partner >= 0:
            used[partner] = True
        groups.append((i, partner))
    return groups


def _reference_canonical_phase(vec):
    k = int(np.argmax(np.abs(vec)))
    a = vec[k]
    if a == 0:
        out = np.zeros_like(vec)
        out[0] = 1.0
        return out
    return vec * (np.abs(a) / a)


def _reference_unit_direction(vec):
    norm = np.linalg.norm(vec)
    if norm == 0:
        out = np.zeros_like(vec)
        out[0] = 1.0
        return out
    return _reference_canonical_phase(vec / norm)


def _reference_real_direction(vec):
    rotated = _reference_canonical_phase(vec)
    return _reference_unit_direction(rotated.real.astype(np.complex128))


def _reference_closure(shifts, b, c):
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.complex128))
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    c = np.atleast_2d(np.asarray(c, dtype=np.complex128))
    entries = []
    order = np.lexsort((shifts.imag, shifts.real))
    for i, j in _reference_pair_conjugates(shifts, order=order):
        if j is None or j < 0:
            entries.append((complex(shifts[i].real), _reference_real_direction(b[i]),
                            _reference_real_direction(c[i])))
            continue
        pair = (shifts[i] + np.conj(shifts[j])) / 2.0
        b_row = _reference_unit_direction((b[i] + np.conj(b[j])) / 2.0)
        c_row = _reference_unit_direction((c[i] + np.conj(c[j])) / 2.0)
        entries.append((pair, b_row, c_row))
        entries.append((np.conj(pair), np.conj(b_row), np.conj(c_row)))
    out_s = np.array([e[0] for e in entries], dtype=np.complex128)
    out_b = np.array([e[1] for e in entries])
    out_c = np.array([e[2] for e in entries])
    order = np.lexsort((out_s.imag, out_s.real))
    return out_s[order], out_b[order], out_c[order]


def _reference_mirror(values, right, left, B, C):
    shifts = np.array([-value for value in values], dtype=np.complex128)
    b = np.array([-(B.conj().T @ left[:, k]) for k in range(len(values))])
    c = np.array([C @ right[:, k] for k in range(len(values))])
    return _reference_closure(shifts, b, c)


# The closure and the mirror work on whole blocks, the references row by
# row, so their unit directions round differently: the closure scales a
# real shift's direction before it fixes its phase, where the reference
# fixes the phase first, and the mirror forms its directions by one matrix
# product instead of one product per row, which cancellation in B^H y or
# C z amplifies. Shifts and pairing come out exactly equal. Measured:
# directions at most 4.4e-16 (2 eps) apart over 20,000 generated iterates
# for the closure, and at most 7.5e-14 (340 eps; 99.9% of cases below
# 24 eps) over 100,000 generated pencils of order 1-32 for the mirror; the
# bounds leave a factor of 9 and of 13.
_CLOSURE_ATOL = 4e-15
_MIRROR_ATOL = 1e-12


def _assert_iterate_near(got, want, atol):
    """The reference's dtypes, shapes, pairing and shifts exactly, its
    unit directions within `atol`."""
    for array, expected in zip((got.shifts, got.b, got.c), want):
        assert array.dtype == expected.dtype and array.shape == expected.shape
    assert pair_conjugates(got.shifts) == _reference_pair_conjugates(want[0])
    np.testing.assert_array_equal(got.shifts, want[0])
    for array, expected in zip((got.b, got.c), want[1:]):
        np.testing.assert_allclose(array, expected, rtol=0, atol=atol)


def _noisy_iterate(r, m, p, seed, unmatched=False, zero_rows=False):
    """A mirrored-looking iterate: conjugate pairs off by a relative 1e-9,
    real shifts with a tiny imaginary part, optionally a complex shift
    without a partner and all-zero direction rows."""
    rng = np.random.default_rng(seed)
    shifts, b, c = [], [], []
    while len(shifts) < r:
        s = complex(rng.uniform(1.0, 1e4), rng.uniform(1.0, 1e4))
        bi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ci = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        if rng.uniform() < 0.3 or len(shifts) == r - 1:
            shifts.append(complex(s.real, 1e-12 * s.real))
            b.append(bi)
            c.append(ci)
            continue
        shifts += [s, s.conjugate() * (1.0 + 1e-9 * rng.standard_normal())]
        b += [bi, bi.conj() * (1.0 + 1e-10)]
        c += [ci, ci.conj()]
    if unmatched:
        shifts[-1] = complex(shifts[-1].real, 3.0)
    if zero_rows:
        b[0] = np.zeros(m)
        c[-1] = np.zeros(p)
    perm = rng.permutation(len(shifts))
    return np.array(shifts)[perm], np.array(b)[perm], np.array(c)[perm]


@pytest.mark.parametrize("unmatched", [False, True])
@pytest.mark.parametrize("zero_rows", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_closure_is_bitwise_the_reference(unmatched, zero_rows, seed):
    shifts, b, c = _noisy_iterate(9, 3, 2, seed, unmatched, zero_rows)
    assert pair_conjugates(shifts) == _reference_pair_conjugates(shifts)
    _assert_iterate_near(enforce_conjugate_closure(shifts, b, c),
                         _reference_closure(shifts, b, c), _CLOSURE_ATOL)


def test_closure_of_strided_rows_is_bitwise_the_reference():
    shifts, b, c = _noisy_iterate(6, 4, 4, 7, zero_rows=True)
    b, c = np.asfortranarray(b), c[:, ::-1]
    _assert_iterate_near(enforce_conjugate_closure(shifts, b, c),
                         _reference_closure(shifts, b, c), _CLOSURE_ATOL)


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(1, 12),
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    unmatched=st.booleans(),
    zero_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closure_matches_the_reference_on_generated_iterates(r, m, p, unmatched, zero_rows,
                                                               seed):
    shifts, b, c = _noisy_iterate(r, m, p, seed, unmatched, zero_rows)
    order = np.random.default_rng(seed).permutation(shifts.shape[0])
    assert pair_conjugates(shifts, order) == _reference_pair_conjugates(shifts, order)
    _assert_iterate_near(enforce_conjugate_closure(shifts, b, c),
                         _reference_closure(shifts, b, c), _CLOSURE_ATOL)


def _tie_set(seed, size):
    """Shifts whose gaps sit at the pairing rule's tolerances: imaginary
    parts at the real test's 1e-8 max(1, |s|) or one ulp either side of
    it, partners at 1e-6 max(1, |s|) from the conjugate (exactly, or in a
    random or an axis direction up to rounding), and conjugates repeated
    up to three times."""
    rng = np.random.default_rng(seed)
    shifts = []
    while len(shifts) < size:
        s = complex(rng.uniform(-2.0, 2.0) * 10.0 ** rng.integers(-2, 4),
                    rng.uniform(0.01, 2.0) * 10.0 ** rng.integers(-2, 4))
        scale = max(1.0, abs(s))
        kind = rng.integers(5)
        if kind == 0:  # on the real test's edge
            edge = 1e-8 * max(1.0, abs(s.real))
            im = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)][rng.integers(3)]
            shifts.append(complex(s.real, im * rng.choice([-1.0, 1.0])))
        elif kind == 1:  # a partner exactly on the pairing tolerance: every
            # operation on iy, y a power of two, and its partner is exact
            y = 2.0 ** rng.integers(-3, 12)
            shifts += [complex(0.0, y), complex(1e-6 * max(1.0, y), -y)]
        elif kind == 2:  # a partner on the pairing tolerance up to rounding
            turn = np.exp(1j * rng.choice([0.0, np.pi / 2, rng.uniform(0.0, 2 * np.pi)]))
            shifts += [s, s.conjugate() + 1e-6 * scale * turn]
        elif kind == 3:  # repeated conjugates
            shifts += [s] * rng.integers(1, 3) + [s.conjugate()] * rng.integers(1, 4)
        else:
            shifts += [s, s.conjugate()]
    return np.array(shifts[:size])[rng.permutation(size)]


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 24), visit=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pairing_matches_the_reference_at_its_tolerances(size, visit, seed):
    shifts = _tie_set(seed, size)
    order = np.random.default_rng(seed + 1).permutation(size) if visit else None
    assert pair_conjugates(shifts, order) == _reference_pair_conjugates(shifts, order)


def _mirror_inputs(n, m, p, seed, spectrum):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    E = rng.standard_normal((n, n)) + n * np.eye(n)
    if spectrum == "real":
        A, E = A + A.T, E @ E.T
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return *eig_generalized(A, E), B, C


@pytest.mark.parametrize("spectrum", ["real", "pairs"])
@pytest.mark.parametrize("n, m, p", [(1, 1, 1), (6, 2, 3), (16, 4, 4), (32, 4, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_mirror_is_bitwise_the_reference(spectrum, n, m, p, seed):
    eigen = _mirror_inputs(n, m, p, seed, spectrum)
    _assert_iterate_near(_mirror_interpolation(*eigen), _reference_mirror(*eigen),
                         _MIRROR_ATOL)


def test_mirror_with_zero_directions_is_bitwise_the_reference():
    eigen = _mirror_inputs(8, 2, 3, 4, "pairs")
    eigen[3][:] = 0.0   # B
    out = _mirror_interpolation(*eigen)
    _assert_iterate_near(out, _reference_mirror(*eigen), _MIRROR_ATOL)
    assert np.all(out.b[:, 0] == 1.0)   # zero directions become the first unit vector


def test_mirror_with_an_unmatched_shift_is_bitwise_the_reference():
    values, right, left, B, C = _mirror_inputs(7, 2, 2, 5, "pairs")
    keep = np.r_[np.flatnonzero(values.imag > 0)[:1], np.flatnonzero(values.imag == 0.0)]
    eigen = values[keep], right[:, keep], left[:, keep], B, C
    _assert_iterate_near(_mirror_interpolation(*eigen), _reference_mirror(*eigen),
                         _MIRROR_ATOL)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    spectrum=st.sampled_from(["real", "pairs"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirror_matches_the_reference_on_generated_pencils(n, m, p, spectrum, seed):
    eigen = _mirror_inputs(n, m, p, seed, spectrum)
    _assert_iterate_near(_mirror_interpolation(*eigen), _reference_mirror(*eigen),
                         _MIRROR_ATOL)


# ---------------------------------------------------------------------------
# tangential solves


def _right(system, sigma, direction):
    return tangential_solve_right(system, direction, factor_augmented(system, sigma))


def _left(system, sigma, direction):
    return tangential_solve_left(system, direction, factor_augmented(system, sigma))


def test_right_solve_s1(s1):
    v = _right(s1, 0.0, [1.0])
    np.testing.assert_allclose(v, [2.0 / 9.0], rtol=1e-14)


def test_right_solve_decoupled():
    system = scalar_system(K12=0.0, K21=0.0)
    v = _right(system, 0.0, [1.0])
    np.testing.assert_allclose(v, [0.2], rtol=1e-14)


def test_right_solve_s2_annihilates(s2):
    v = _right(s2, 0.0, [1.0])
    np.testing.assert_allclose(v, [0.0], atol=1e-15)


def test_right_solves_agree_across_factorizations(make_system):
    system = make_system(40, 10, 2, 3, 0, symmetric=False)
    b = np.array([0.6, -0.8j])
    for sigma in (1.0j, 2.0, 3.0 + 40.0j):
        va = tangential_solve_right(system, b, factor_augmented(system, sigma))
        vb = tangential_solve_right(system, b, factor_augmented(system, sigma))
        assert va.tobytes() == vb.tobytes()


def test_left_solve_symmetric_equals_right(s1):
    w = _left(s1, 0.0, [1.0])
    np.testing.assert_allclose(w, [2.0 / 9.0], rtol=1e-14)


def test_left_solve_asymmetric_output_map():
    system = scalar_system(H1=3.0)
    w = _left(system, 0.0, [1.0])
    np.testing.assert_allclose(w, [2.0 / 3.0], rtol=1e-14)


def test_left_solve_decoupled():
    system = scalar_system(K12=0.0, K21=0.0, H2=0.0)
    w = _left(system, 0.0, [1.0])
    np.testing.assert_allclose(w, [0.2], rtol=1e-14)


def test_left_solves_agree_across_factorizations(make_system):
    system = make_system(40, 10, 2, 3, 0, symmetric=False)
    c = np.array([0.48, -0.6j, 0.64])
    for sigma in (1.0j, 2.0, 3.0 + 40.0j):
        wa = tangential_solve_left(system, c, factor_augmented(system, sigma))
        wb = tangential_solve_left(system, c, factor_augmented(system, sigma))
        assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("n1, n2, m, p, sym, seed", GRID[:8], ids=grid_ids()[:8])
def test_left_solve_is_the_transposed_augmented_solve(make_system, n1, n2, m, p, sym, seed):
    # the left solve goes through the LU of the untransposed matrix; check it
    # against a dense solve with the entrywise transpose
    system = make_system(n1, n2, m, p, seed, symmetric=sym)
    rng = np.random.default_rng(seed + 17)
    sigma = complex(rng.uniform(0.1, 10.0), rng.uniform(10.0, 1e4))
    c = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    A = assemble_shifted_augmented(system, sigma).toarray()
    rhs = np.concatenate([system.H1.T @ c, system.H2.T @ c])
    expected = np.linalg.solve(A.T, rhs)[:n1]
    w = _left(system, sigma, c)
    assert np.linalg.norm(w - expected) <= 1e-10 * np.linalg.norm(expected)


class _NoSolves:
    """A factorization stand-in that fails the test if it is ever used."""

    def solve(self, rhs):
        raise AssertionError("solved before the direction was checked")

    solve_transposed = solve


def test_solve_direction_length_checked(s1):
    with pytest.raises(DimensionError):
        tangential_solve_right(s1, [1.0, 2.0], _NoSolves())
    with pytest.raises(DimensionError):
        tangential_solve_left(s1, [1.0, 2.0], _NoSolves())


def test_factor_augmented_detects_collision():
    # det [[K11, K12], [K21, K22]] = 5*2 - 2.5*4 = 0: sigma = 0 is an
    # eigenvalue of the descriptor pencil
    system = scalar_system(K12=2.5, K21=4.0)
    with pytest.raises(ShiftCollisionError):
        factor_augmented(system, 0.0)


# ---------------------------------------------------------------------------
# bases and structure-preserving projection


def test_build_bases_scalar_single_shift(s1):
    interp = InterpolationData(np.array([0.0 + 0.0j]), np.array([[1.0]]),
                               np.array([[1.0]]))
    basis = build_bases(s1, interp)
    np.testing.assert_allclose(basis.V, [[1.0]])
    np.testing.assert_allclose(basis.W, [[1.0]])


def test_build_bases_conjugate_pair_real_columns(make_system):
    system = make_system(40, 10, 1, 1, 0)
    basis = build_bases(system, damped_pairs(2, 1, 1, seed=3))
    assert basis.V.dtype == np.float64
    assert basis.W.dtype == np.float64
    assert basis.V.shape == (40, 2)
    np.testing.assert_allclose(basis.V.T @ basis.V, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(basis.W.T @ basis.W, np.eye(2), atol=1e-13)


def _count_factorizations(monkeypatch):
    """Record the shift of every augmented factorization build_bases makes."""
    shifts = []
    original = irka.factor_augmented

    def counting(system, sigma):
        shifts.append(sigma)
        return original(system, sigma)

    monkeypatch.setattr(irka, "factor_augmented", counting)
    return shifts


def _count_solves(monkeypatch):
    """Count the right and left tangential solves build_bases makes."""
    counts = {"right": 0, "left": 0}
    for side in counts:
        original = getattr(irka, f"tangential_solve_{side}")

        def counting(*args, _side=side, _original=original, **kwargs):
            counts[_side] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(irka, f"tangential_solve_{side}", counting)
    return counts


def test_build_bases_one_sided_counts(make_system, monkeypatch):
    system = make_system(40, 10, 2, 2, 0)
    factored = _count_factorizations(monkeypatch)
    solves = _count_solves(monkeypatch)
    basis = build_bases(system, damped_pairs(4, 2, 2, seed=1), one_sided=True)
    assert solves["left"] == 0
    assert solves["right"] == 2        # one per conjugate-pair representative
    assert len(factored) == 2
    assert basis.W is basis.V


def test_build_bases_two_sided_counts(make_system, monkeypatch):
    system = make_system(40, 10, 2, 2, 0)
    factored = _count_factorizations(monkeypatch)
    solves = _count_solves(monkeypatch)
    build_bases(system, damped_pairs(4, 2, 2, seed=1))
    assert solves["right"] == 2
    assert solves["left"] == 2
    assert len(factored) == 2  # the LU is shared by both sides


def test_build_bases_requires_closure(s1):
    broken = InterpolationData(np.array([1.0 + 1.0j, 2.0 + 2.0j]),
                               np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(StructuralError):
        build_bases(s1, broken)


def test_build_bases_retries_collision_once():
    system = scalar_system(K12=2.5, K21=4.0)
    interp = InterpolationData(np.array([0.0 + 0.0j]), np.array([[1.0]]),
                               np.array([[1.0]]))
    basis = build_bases(system, interp)   # perturbed shift succeeds
    assert basis.V.shape == (1, 1)


def test_build_bases_collision_solves_the_block_again(make_system, monkeypatch):
    # the second of three shifts collides once: the retry solves the whole
    # block again, the colliding shift moved to sigma (1 + 1e-8) + 1e-8 and
    # the others at their own values, so 3 shifts take 5 factorizations
    system = make_system(40, 10, 2, 2, 0)
    shifts = []
    original = irka.factor_augmented

    def colliding(system, sigma):
        shifts.append(sigma)
        if len(shifts) == 2:
            raise ShiftCollisionError(sigma)
        return original(system, sigma)

    monkeypatch.setattr(irka, "factor_augmented", colliding)
    interp = InterpolationData(np.array([1.0, 2.0, 3.0], dtype=np.complex128),
                               np.ones((3, 2)), np.ones((3, 2)))
    basis = build_bases(system, interp)
    assert shifts == [1.0, 2.0, 1.0, 2.0 * (1.0 + 1e-8) + 1e-8, 3.0]
    assert basis.V.shape == (40, 3)


def test_reduce_scalar_identity_basis(s1):
    basis = ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]]))
    rom = reduce(s1, basis)
    assert rom.M[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert rom.L[0, 0] == pytest.approx(2.0, rel=1e-15)
    assert rom.K[0, 0] == pytest.approx(4.5, rel=1e-15)
    assert rom.F[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert rom.H[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert rom.D[0, 0] == 0.0


def test_reduce_feedthrough_independent_of_basis(s2):
    for w in (1.0, -0.5, 0.3):
        basis = ProjectionBasis(V=np.array([[1.0]]), W=np.array([[w]]))
        rom = reduce(s2, basis)
        assert rom.D[0, 0] == pytest.approx(2.0, rel=1e-14)


def test_reduce_identity_projection_matches_schur(make_system):
    system = make_system(40, 10, 2, 2, 1)
    I = np.eye(40)
    rom = reduce(system, ProjectionBasis(V=I, W=I))
    dense = to_dense_schur(system)
    np.testing.assert_allclose(rom.M, dense.M, atol=1e-12)
    np.testing.assert_allclose(rom.L, dense.L, atol=1e-12)
    np.testing.assert_allclose(rom.K, dense.K, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rom.F, dense.F, atol=1e-12)
    np.testing.assert_allclose(rom.H, dense.H, atol=1e-12)
    np.testing.assert_allclose(rom.D, dense.D, atol=1e-14)


def test_reduce_checks_basis_rows(s1):
    with pytest.raises(DimensionError):
        reduce(s1, ProjectionBasis(V=np.eye(3), W=np.eye(3)))


def test_companion_scalar_layout(s1):
    rom = reduce(s1, ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]])))
    pencil = companion(rom)
    np.testing.assert_allclose(pencil.E, [[0.0, 1.0], [1.0, 2.0]], atol=1e-15)
    np.testing.assert_allclose(pencil.A, [[1.0, 0.0], [0.0, -4.5]], atol=1e-15)
    np.testing.assert_allclose(pencil.B, [[0.0], [1.0]], atol=1e-15)
    np.testing.assert_allclose(pencil.C, [[0.0, 1.0]], atol=1e-15)


def test_companion_block_layout():
    from morkit.irka import ReducedSecondOrderModel

    I = np.eye(2)
    rom = ReducedSecondOrderModel(M=I, L=np.zeros((2, 2)), K=I,
                                  F=np.ones((2, 1)), H=np.ones((1, 2)),
                                  D=np.zeros((1, 1)))
    pencil = companion(rom)
    Z = np.zeros((2, 2))
    np.testing.assert_array_equal(pencil.E, np.block([[Z, I], [I, Z]]))
    np.testing.assert_array_equal(pencil.A, np.block([[I, Z], [Z, -I]]))


def test_companion_eigenvalues_are_quadratic_roots(s1):
    from morkit.dense import eig_generalized

    rom = reduce(s1, ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]])))
    pencil = companion(rom)
    values = sorted(eig_generalized(pencil.A, pencil.E)[0], key=lambda z: z.imag)
    expected = [-1 - 1.8708286933869707j, -1 + 1.8708286933869707j]
    np.testing.assert_allclose(values, expected, rtol=1e-14)


# ---------------------------------------------------------------------------
# first-order IRKA (inner loop)


def test_first_order_scalar_fixed_point():
    result = irka_first_order(np.eye(1), np.array([[-2.0]]), np.ones((1, 1)),
                              np.ones((1, 1)), r=1)
    assert result.converged
    assert result.iterations <= 2
    np.testing.assert_allclose(result.interpolation.shifts, [2.0 + 0.0j],
                               rtol=1e-12)


def test_first_order_full_order_reproduces_transfer():
    rng = np.random.default_rng(7)
    n = 4
    A = rng.standard_normal((n, n)) - 4 * np.eye(n)
    E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    result = irka_first_order(E, A, B, C, r=n)
    for s in (1.0j, 10.0j, 0.5 + 3.0j):
        G_full = C @ np.linalg.solve(s * E - A, B)
        G_red = result.C @ np.linalg.solve(s * result.E - result.A, result.B)
        assert np.max(np.abs(G_full - G_red)) <= 1e-8 * max(1.0, np.abs(G_full).max())


def test_first_order_symmetric_pencil_symmetric_reduction():
    rng = np.random.default_rng(11)
    n = 4
    S = rng.standard_normal((n, n))
    A = -(S @ S.T) - n * np.eye(n)     # symmetric, stable
    E = np.eye(n)
    B = rng.standard_normal((n, 1))
    C = B.T.copy()
    init = damped_pairs(2, 1, 1, seed=2)
    init = InterpolationData(init.shifts, init.b, init.b.copy())  # b == c
    result = irka_first_order(E, A, B, C, r=2, init=init)
    asym = np.max(np.abs(result.E - result.E.T))
    assert asym <= 1e-12 * max(1.0, np.abs(result.E).max())
    np.testing.assert_allclose(result.B, result.C.T, atol=1e-12)


def test_first_order_dimension_checks():
    with pytest.raises(DimensionError):
        irka_first_order(np.eye(2), np.eye(3), np.ones((2, 1)), np.ones((1, 2)), r=1)
    with pytest.raises(DimensionError):
        irka_first_order(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), r=3)


@pytest.mark.parametrize("block", ["E", "A", "B", "C"])
@pytest.mark.parametrize("bad", ["complex", "nan", "inf"])
def test_first_order_rejects_complex_or_non_finite_blocks_by_name(block, bad):
    n = 4
    blocks = {"E": np.eye(n), "A": -np.eye(n) - np.diag(np.ones(n - 1), 1),
              "B": np.ones((n, 1)), "C": np.ones((1, n))}
    X = blocks[block] = blocks[block].astype(complex if bad == "complex" else float)
    X[0, 0] += {"complex": 1e-3j, "nan": np.nan, "inf": np.inf}[bad]
    with pytest.raises(StructuralError, match=f"block {block} "):
        irka_first_order(blocks["E"], blocks["A"], blocks["B"], blocks["C"], r=1)


def test_first_order_cuts_a_longer_init_to_r():
    rng = np.random.default_rng(3)
    n = 4
    A = rng.standard_normal((n, n)) - 4 * np.eye(n)
    B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    init = initial_interpolation(3, 1, 1)
    result = irka_first_order(np.eye(n), A, B, C, r=1, init=init)
    assert result.E.shape == (1, 1)
    assert result.interpolation.r == 1
    with pytest.raises(DimensionError):
        irka_first_order(np.eye(n), A, B, C, r=2, init=initial_interpolation(1, 1, 1))


# ---------------------------------------------------------------------------
# inner solves through one eigendecomposition (dense.PencilResolvent)


def _real_pencil(n, spectrum, seed):
    """A real pencil with a real spectrum or conjugate pairs, all in the
    left half-plane, and a moderately conditioned eigenbasis."""
    rng = np.random.default_rng(seed)
    Lam = np.zeros((n, n))
    k = 0
    while k < n:
        if spectrum == "pairs" and k + 1 < n:
            a, b = -rng.uniform(0.1, 10.0), rng.uniform(1.0, 100.0)
            Lam[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
            k += 2
        else:
            Lam[k, k] = -rng.uniform(0.1, 100.0)
            k += 1
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return E, E @ S @ Lam @ np.linalg.inv(S), rng


def _backward_error(M, x, rhs):
    return np.linalg.norm(M @ x - rhs) / (np.linalg.norm(M, 2) * np.linalg.norm(x))


# a small multiple of n eps: on this generator dense_solve measured at most
# 1.1 n eps and the refined modal solves 1.02 n eps (800 pencils)
_BACKWARD_BOUND = 4.0


def _shift_block(rng, k):
    """k shifts in the right half-plane, real and complex mixed."""
    real = rng.uniform(size=k) < 0.4
    return rng.uniform(0.01, 100.0, k) + 1j * np.where(real, 0.0, rng.uniform(-100.0, 100.0, k))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 32),
    k=st.integers(1, 8),
    spectrum=st.sampled_from(["real", "pairs"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_modal_solves_are_backward_stable_as_dense_solve(n, k, spectrum, seed):
    E, A, rng = _real_pencil(n, spectrum, seed)
    resolvent = PencilResolvent(A, E)
    assert resolvent.modal
    bound = _BACKWARD_BOUND * n * np.finfo(float).eps
    sigmas = _shift_block(rng, k)
    B = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    C = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    V, W = resolvent.solve(sigmas, B, C)
    assert V.shape == W.shape == (n, k)
    for j, sigma in enumerate(sigmas):  # every column to its own shift's bound
        Ms = sigma * E - A
        b, c = B[:, j], C[:, j]
        assert _backward_error(Ms, V[:, j], b) <= bound
        assert _backward_error(Ms.T, W[:, j], c) <= bound
        assert _backward_error(Ms, dense_solve(Ms, b), b) <= bound
        assert _backward_error(Ms.T, dense_solve(Ms.T, c), c) <= bound


def _lu_fallback_case(E, A):
    resolvent = PencilResolvent(A, E)  # no PencilSingularError escapes
    assert not resolvent.modal
    rng = np.random.default_rng(0)
    n = E.shape[0]
    sigmas = np.array([0.7 + 2.0j, 3.0, 0.7 - 2.0j])
    B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    C = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    return resolvent, sigmas, B, C


@pytest.mark.parametrize("E, A", [
    (np.diag([1.0, 0.0]), -np.eye(2)),                          # singular E, regular pencil
    (np.eye(2), np.array([[-1.0, 1.0], [0.0, -1.0]])),          # 2x2 Jordan block
], ids=["singular-E", "jordan"])
def test_singular_or_defective_pencils_take_the_lu_fallback(E, A):
    resolvent, sigmas, B, C = _lu_fallback_case(E, A)
    V, W = resolvent.solve(sigmas, B, C)
    for j, sigma in enumerate(sigmas):  # one LU pair per shift
        Ms = sigma * E - A
        assert V[:, j].tobytes() == dense_solve(Ms, B[:, j]).tobytes()
        assert W[:, j].tobytes() == dense_solve(Ms.T, C[:, j]).tobytes()


def test_companion_pencil_with_singular_mass_takes_the_lu_fallback():
    # a singular M makes sigma E - A singular at every shift, so the LU
    # fallback raises the shift collision that dense_solve's zero pivot means
    rom = ReducedSecondOrderModel(
        M=np.diag([1.0, 0.0]), L=np.eye(2), K=np.array([[3.0, 1.0], [1.0, 2.0]]),
        F=np.ones((2, 1)), H=np.ones((1, 2)), D=np.zeros((1, 1)),
    )
    pencil = companion(rom)
    with pytest.raises(PencilSingularError):
        eig_generalized(pencil.A, pencil.E)
    resolvent, sigmas, B, C = _lu_fallback_case(pencil.E, pencil.A)
    with pytest.raises(SingularMatrixError):
        dense_solve(sigmas[0] * pencil.E - pencil.A, B[:, 0])
    with pytest.raises(ShiftCollisionError) as caught:
        resolvent.solve(sigmas, B, C)
    assert caught.value.sigma == sigmas[0]
    assert isinstance(caught.value.__cause__, SingularMatrixError)


def _block_through_an_eigenvalue(spectrum):
    """A modal resolvent and a block of four shifts whose third is an
    eigenvalue of the pencil."""
    E, A, _ = _real_pencil(6, spectrum, 3)
    resolvent = PencilResolvent(A, E)
    assert resolvent.modal
    eigenvalue = max(eig_generalized(A, E)[0], key=lambda z: z.imag)
    return resolvent, np.array([2.0, 1.0 + 5.0j, eigenvalue, 40.0])


@pytest.mark.parametrize("spectrum", ["real", "pairs"])
def test_shift_on_an_eigenvalue_raises_shift_collision(spectrum):
    resolvent, sigmas = _block_through_an_eigenvalue(spectrum)
    ones = np.ones((6, 4), complex)
    with pytest.raises(ShiftCollisionError) as caught:
        resolvent.solve(sigmas, ones, ones)
    assert caught.value.sigma == sigmas[2]  # the colliding column's shift


@pytest.mark.parametrize("spectrum", ["real", "pairs"])
def test_a_collision_in_a_block_perturbs_only_that_shift(spectrum):
    resolvent, sigmas = _block_through_an_eigenvalue(spectrum)
    shifts = np.concatenate([sigmas, sigmas[sigmas.imag > 0].conj()])
    interp = InterpolationData(shifts, np.ones((len(shifts), 1)), np.ones((len(shifts), 1)))
    blocks = []

    def solve(sigmas, b, c):
        blocks.append(sigmas.copy())
        return resolvent.solve(sigmas, np.ones((6, len(sigmas))), np.ones((6, len(sigmas))))

    irka._tangential_bases(interp, solve)
    assert len(blocks) == 2
    moved = blocks[0] != blocks[1]
    assert np.count_nonzero(moved) == 1
    assert blocks[0][moved] == sigmas[2]
    assert blocks[1][moved] == sigmas[2] * (1.0 + 1e-8) + 1e-8


def test_a_shift_colliding_again_after_its_perturbation_propagates():
    interp = InterpolationData(np.array([2.0, 3.0]), np.ones((2, 1)), np.ones((2, 1)))
    blocks = []

    def solve(sigmas, b, c):
        blocks.append(sigmas.copy())
        raise ShiftCollisionError(sigmas[1])

    with pytest.raises(ShiftCollisionError):
        irka._tangential_bases(interp, solve)
    assert len(blocks) == 2  # the first collision moved shift 1 once; its second propagates


def test_an_inner_basis_build_makes_one_resolvent_call(monkeypatch):
    rng = np.random.default_rng(0)
    pencil = companion(ReducedSecondOrderModel(
        M=np.eye(4), L=0.01 * np.eye(4), K=np.diag(rng.uniform(1e2, 1e4, 4)),
        F=rng.standard_normal((4, 2)), H=rng.standard_normal((2, 4)), D=np.zeros((2, 2)),
    ))
    calls, builds = [], []
    original_solve, original_bases = PencilResolvent.solve, irka._tangential_bases

    def counting_solve(self, *args):
        calls.append(args[0])
        return original_solve(self, *args)

    def counting_bases(*args, **kwargs):
        builds.append(len(calls))
        return original_bases(*args, **kwargs)

    monkeypatch.setattr(PencilResolvent, "solve", counting_solve)
    monkeypatch.setattr(irka, "_tangential_bases", counting_bases)
    result = irka_first_order(pencil.E, pencil.A, pencil.B, pencil.C, r=3,
                              max_iter=4, tol=1e-300, init=initial_interpolation(3, 2, 2))
    assert result.iterations == 4
    assert len(builds) == result.iterations + 1  # the start's bases and one per step
    assert len(calls) == len(builds)  # one block solve per build, at every shift of it
    assert all(len(sigmas) == 2 or len(sigmas) == 3 for sigmas in calls)


# ---------------------------------------------------------------------------
# shift update


def test_update_scalar_companion_positive_shift(s1):
    rom = reduce(s1, ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]])))
    pencil = companion(rom)
    config = IrkaConfig(r=1, inner_max_iter=500, inner_tol=1e-8)
    out = update_interpolation(pencil, config, initial_interpolation(1, 1, 1))
    assert out.r == 1
    assert out.shifts[0].real > 0.0
    assert abs(out.shifts[0].imag) == 0.0


def test_update_mirrors_stable_pencil_into_right_half_plane():
    from morkit.irka import ReducedSecondOrderModel

    rng = np.random.default_rng(0)
    S = rng.standard_normal((3, 3))
    K = S @ S.T + 3 * np.eye(3)
    rom = ReducedSecondOrderModel(M=np.eye(3), L=0.1 * np.eye(3) + 0.01 * K, K=K,
                                  F=rng.standard_normal((3, 1)),
                                  H=rng.standard_normal((1, 3)),
                                  D=np.zeros((1, 1)))
    out = update_interpolation(companion(rom), IrkaConfig(r=3, inner_max_iter=200),
                               initial_interpolation(3, 1, 1))
    assert np.all(out.shifts.real > 0.0)


def test_update_siso_directions_are_unit(s1):
    rom = reduce(s1, ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]])))
    out = update_interpolation(companion(rom), IrkaConfig(r=1, inner_max_iter=500,
                                                          inner_tol=1e-8),
                               initial_interpolation(1, 1, 1))
    np.testing.assert_allclose(np.abs(out.b), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.abs(out.c), 1.0, rtol=1e-12)


def test_restarted_update_decomposes_its_pencil_once(monkeypatch):
    # the warm-started run, the dominant-pole restart and the retried run
    # share one QZ of the companion pencil; the other decompositions are
    # of the inner runs' reduced pencils, which are smaller
    rng = np.random.default_rng(0)
    pencil = companion(ReducedSecondOrderModel(
        M=np.eye(4), L=0.01 * np.eye(4), K=np.diag(rng.uniform(1e2, 1e4, 4)),
        F=rng.standard_normal((4, 2)), H=rng.standard_normal((2, 4)), D=np.zeros((2, 2)),
    ))
    shapes, retried = [], []
    eig, first_order = irka.eig_generalized, irka.irka_first_order

    def counting_eig(A, E):
        shapes.append(A.shape)
        return eig(A, E)

    def spy(*args, **kwargs):
        retried.append(kwargs["init"])
        return first_order(*args, **kwargs)

    for module in (irka, dense_module):  # PencilResolvent looks it up in dense
        monkeypatch.setattr(module, "eig_generalized", counting_eig)
    monkeypatch.setattr(irka, "irka_first_order", spy)
    config = IrkaConfig(r=3, inner_max_iter=1, inner_tol=1e-300)
    update_interpolation(pencil, config, initial_interpolation(3, 2, 2))
    assert len(retried) == 2  # the warm run did not settle, so it restarted
    assert shapes.count(pencil.E.shape) == 1
    assert shapes.count((3, 3)) == len(shapes) - 1


@pytest.mark.parametrize("r", [3, 5, 7])
def test_dominant_restart_keeps_odd_orders_on_an_all_complex_pencil(r):
    # a lightly damped order-4 model: its companion pencil has four
    # conjugate pairs and no real pole, so an odd r leaves one slot that
    # only the most dominant pair left out can fill, demoted to its real part
    rng = np.random.default_rng(0)
    pencil = companion(ReducedSecondOrderModel(
        M=np.eye(4), L=0.01 * np.eye(4), K=np.diag(rng.uniform(1e2, 1e4, 4)),
        F=rng.standard_normal((4, 2)), H=rng.standard_normal((2, 4)), D=np.zeros((2, 2)),
    ))
    assert np.all(np.linalg.eigvals(np.linalg.solve(pencil.E, pencil.A)).imag != 0.0)
    out = _dominant_initialization(eig_generalized(pencil.A, pencil.E), pencil.B, pencil.C, r)
    assert out.r == r
    assert out.is_conjugate_closed()
    assert np.count_nonzero(out.shifts.imag == 0.0) == 1


# ---------------------------------------------------------------------------
# the shift iteration shared by both levels


def _two_real_shifts():
    return InterpolationData(np.array([2.0, 5.0]), np.ones((2, 1)), np.ones((2, 1)))


def test_shift_iteration_retries_a_singular_step_at_perturbed_shifts():
    start = _two_real_shifts()
    built, stepped = [], []

    def bases(interp):
        built.append(interp.shifts.copy())
        return len(built)

    def step(basis, interp):
        stepped.append((basis, interp.shifts.copy()))
        if len(stepped) == 1:
            raise PencilSingularError("resonant projection")
        return interp  # a fixed point

    interp, basis, iterations, converged = _shift_iteration(
        start, bases, step, max_iter=5, tol=1e-12)
    perturbed = _perturb(start).shifts
    np.testing.assert_array_equal(stepped[0][1], start.shifts)
    # the retry steps on bases rebuilt at exactly the perturbed shifts
    assert stepped[1][0] == 2
    np.testing.assert_array_equal(built[1], perturbed)
    np.testing.assert_array_equal(stepped[1][1], perturbed)
    np.testing.assert_array_equal(interp.shifts, perturbed)
    assert (basis, iterations, converged) == (3, 1, True)


def test_shift_iteration_second_consecutive_singular_step_propagates():
    steps = []

    def step(basis, interp):
        steps.append(interp.shifts.copy())
        raise PencilSingularError("resonant projection")

    with pytest.raises(PencilSingularError):
        _shift_iteration(_two_real_shifts(), lambda interp: None, step, 5, 1e-12)
    assert len(steps) == 2


def test_shift_iteration_records_each_step_and_stops_at_the_cap():
    records = []

    def halve(basis, interp):
        return InterpolationData(interp.shifts / 2.0, interp.b, interp.c)

    interp, basis, iterations, converged = _shift_iteration(
        _two_real_shifts(), lambda interp: None, halve, 3, 1e-3,
        record=lambda metric, interp: records.append((metric, interp.shifts[0])))
    assert (iterations, converged) == (3, False)
    assert records == [(0.5, 1.0), (0.5, 0.5), (0.5, 0.25)]
    np.testing.assert_array_equal(interp.shifts, [0.25, 0.625])


# ---------------------------------------------------------------------------
# outer driver


def test_driver_rejects_r_above_n1(s1):
    with pytest.raises(DimensionError):
        irka_second_order_index1(s1, IrkaConfig(r=2))


def test_driver_scalar_system(s1):
    rom, trace = irka_second_order_index1(s1, IrkaConfig(r=1))
    assert trace.converged
    assert trace.final_order == 1
    assert rom.M[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert rom.L[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert rom.K[0, 0] == pytest.approx(4.5, rel=1e-12)


def test_driver_square_projection_matches_full_transfer(make_system):
    system = make_system(4, 2, 1, 1, 0)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=4))
    for s in (10.0j, 100.0j, 3.0 + 40.0j):
        G_full = analysis.eval_full(system, s).G
        G_rom = analysis.eval_reduced(rom, s).G
        scale = max(1.0, np.abs(G_full).max())
        assert np.max(np.abs(G_full - G_rom)) <= 1e-8 * scale


def test_driver_symmetric_auto_one_sided(make_system):
    system = make_system(40, 10, 2, 2, 0)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=4, max_iter=8))
    assert trace.one_sided
    assert trace.left_solves == 0
    assert trace.right_solves > 0


def test_driver_force_two_sided_records_left_solves(make_system):
    system = make_system(40, 10, 2, 2, 0)
    config = IrkaConfig(r=4, max_iter=3, force_one_sided=False)
    rom, trace = irka_second_order_index1(system, config)
    assert not trace.one_sided
    assert trace.left_solves > 0


def test_driver_trace_structure(make_system):
    system = make_system(40, 10, 1, 1, 1)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=3, max_iter=10))
    assert trace.requested_order == 3
    assert trace.iterations == len(trace.records)
    assert trace.final_interpolation is not None
    assert trace.final_basis is not None
    for rec in trace.records:
        assert rec.metric >= 0.0
        assert set(rec.seconds) == {"reduce", "update", "solve"}
    text = trace.format()
    assert "seconds" not in text
    assert trace.format(include_timings=True) != text


@pytest.mark.parametrize("kind, route", [("generated", "dense"), ("symmetric", "ldlt"),
                                         ("chain", "band"), ("grid", "sparse")])
def test_trace_records_the_factorization_route_once(make_system, kind, route):
    # one deterministic line: the route of the reduction's LUs and the
    # fill of the augmented pattern, which chose it; on the band route
    # also the integer bandwidths of its RCM order
    system = {"generated": lambda: nonproportional(make_system(40, 10, 2, 2, 0, symmetric=False)),
              "symmetric": lambda: nonproportional(make_system(40, 10, 2, 2, 0)),
              "chain": lambda: chain_system(200, 20, True),
              "grid": lambda: grid_system(30)}[kind]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        _, trace = irka_second_order_index1(system, IrkaConfig(r=4, max_iter=3))
    assert trace.lu_route == route
    assert (trace.lu_fill >= DENSE_FILL) == (route in ("dense", "ldlt"))
    band = " kl 2 ku 2" if route == "band" else ""
    lines = trace.format().splitlines()
    assert [line for line in lines if line.startswith("lu_route")] == [
        f"lu_route {route} fill {trace.lu_fill:.17g}{band}"]
    assert lines[3].startswith("lu_route")
    assert trace.format(include_timings=True).splitlines()[3] == lines[3]


def test_driver_retries_a_singular_update_once(make_system, monkeypatch):
    system = make_system(40, 10, 1, 1, 1)
    original = irka.update_interpolation
    warm_starts = []

    def singular_once(pencil, config, warm_start=None):
        warm_starts.append(warm_start)
        if len(warm_starts) == 1:
            raise PencilSingularError("resonant intermediate model")
        return original(pencil, config, warm_start=warm_start)

    monkeypatch.setattr(irka, "update_interpolation", singular_once)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=3, max_iter=4))
    np.testing.assert_array_equal(warm_starts[1].shifts, _perturb(warm_starts[0]).shifts)
    assert trace.iterations >= 2
    assert len(warm_starts) == trace.iterations + 1
    assert [rec.iteration for rec in trace.records] == list(range(1, trace.iterations + 1))
    # iteration 1 solves at the initial, the perturbed and the updated shifts
    assert trace.records[0].right_solves == sum(
        len(irka._representatives(interp)[0]) for interp in warm_starts[:3])


def test_driver_deflated_reduction_ends_at_lower_order():
    # tangential solutions stay in span(e1, e2), so the intermediate
    # model's companion pencil has order 4 < r = 5
    n1 = 10
    M11 = sp.eye(n1, format="csc")
    K11 = sp.diags(np.linspace(100.0, 1000.0, n1), format="csc")
    F1 = np.zeros((n1, 1))
    F1[:2] = 1.0
    system = SecondOrderIndex1System(
        M11=M11, L11=0.5 * M11 + 1e-4 * K11, K11=K11,
        K12=sp.csc_array((n1, 2)), K21=sp.csc_array((2, n1)), K22=sp.eye(2, format="csc"),
        F1=F1, F2=np.zeros((2, 1)), H1=F1.T, H2=np.zeros((1, 2)), Da=np.zeros((1, 1)),
    )
    with pytest.warns(RankDeficiencyWarning):
        rom, trace = irka_second_order_index1(system, IrkaConfig(r=5))
    assert trace.converged
    assert trace.final_order == rom.order == 2


def test_driver_keeps_an_odd_order_when_the_restart_runs():
    # every companion pencil of this system has only complex poles, and at
    # r = 3 each inner run restarts from the dominant poles, which must seed
    # three shifts rather than the two of one conjugate pair
    system = generate_synthetic(150, 30, 2, 2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        rom, trace = irka_second_order_index1(system, IrkaConfig(r=3))
    assert trace.final_order == rom.order == 3
    assert all(rec.shifts.shape == (3,) for rec in trace.records)


def test_driver_iteration_cap_warns(make_system):
    system = make_system(40, 10, 1, 1, 1)
    config = IrkaConfig(r=3, max_iter=1, shift_tol=1e-14)
    with pytest.warns(ConvergenceWarning):
        rom, trace = irka_second_order_index1(system, config)
    assert not trace.converged
    assert trace.iterations == 1


def test_driver_routes_every_factorization_by_its_first(make_system, monkeypatch):
    # every LU of a reduction, the first one too, in every outer
    # iteration, takes the system's route, decided from its pattern
    # before the first LU: dense for a generated system whose damping is
    # not proportional, by LDL^T when it is symmetric, and modal for one
    # whose damping is
    calls = []

    def spy(system, sigma):
        out = factor_augmented(system, sigma)
        calls.append((system.route, out.routine))
        return out

    monkeypatch.setattr(irka, "factor_augmented", spy)
    for symmetric, kind, routine in ((False, "dense", "getrf"), (True, "ldlt", "sytrf"),
                                     (True, "modal", "modal")):
        calls.clear()
        system = make_system(40, 10, 2, 2, 0, symmetric=symmetric)
        if kind != "modal":
            system = nonproportional(system)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            irka_second_order_index1(system, IrkaConfig(r=4, max_iter=3))
        assert len(calls) > 4
        assert system.route.kind == kind
        assert calls == [(system.route, routine)] * len(calls)


def test_driver_repeats_its_bytes_on_one_system_object(make_system):
    # the route and the index map belong to the system: a second
    # reduction of the same object reuses them and repeats the first run
    system = make_system(120, 25, 2, 2, 0, symmetric=False)
    config = IrkaConfig(r=6, max_iter=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        (rom_a, trace_a), (rom_b, trace_b) = (
            irka_second_order_index1(system, config) for _ in range(2))
    assert trace_a.format() == trace_b.format()
    for name in "MLKFHD":
        assert getattr(rom_a, name).tobytes() == getattr(rom_b, name).tobytes()


_FAR_SHIFT = -10910447.895162921


def test_augmented_matrix_at_a_far_left_half_plane_shift_factors():
    # the mimo-inner seed-3 system at a shift an r=20 reduction once
    # reached: the matrix is far from singular, but a pivot check that
    # compared each pivot with another column's largest entry raised
    # ShiftCollisionError
    system = generate_synthetic(200, 20, 4, 4, seed=3, symmetric=False)
    A = assemble_shifted_augmented(system, _FAR_SHIFT)
    rhs = np.ones(A.shape[0])
    x = factor_augmented(system, _FAR_SHIFT).solve(rhs)
    assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


_R20_RUN = """
import warnings
import morkit
system = morkit.generate_synthetic(200, 20, 4, 4, seed=3, symmetric=False)
config = morkit.IrkaConfig(r=20, max_iter=3, inner_tol=1e-12)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", morkit.ConvergenceWarning)
    rom, trace = morkit.irka_second_order_index1(system, config)
assert rom.order == 20, rom.order
"""


def test_driver_completes_the_mimo_inner_r20_reduction():
    # with one BLAS thread and the old pivot check, this reduction
    # reached the shift above and raised ShiftCollisionError
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _R20_RUN], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_save_load_reduced_model_round_trip(tmp_path, s1):
    rom = reduce(s1, ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]])))
    save_reduced_model(rom, tmp_path / "rom")
    loaded = load_reduced_model(tmp_path / "rom")
    for name in "MLKFHD":
        np.testing.assert_array_equal(getattr(rom, name), getattr(loaded, name))


def _rom_r2():
    """A reduced model with r = 2, m = 1 and p = 1."""
    return ReducedSecondOrderModel(
        M=np.eye(2), L=np.diag([0.1, 0.2]), K=np.diag([4.0, 9.0]),
        F=np.ones((2, 1)), H=np.ones((1, 2)), D=np.zeros((1, 1)))


@pytest.mark.parametrize("name, block", [
    ("M", np.ones((2, 3))),        # not square
    ("L", np.eye(3)),              # not r x r
    ("K", np.ones((2, 1))),        # not r x r
    ("F", np.ones((3, 1))),        # r + 1 rows
    ("H", np.ones((1, 3))),        # not p x r
    ("D", np.zeros((2, 1))),       # not p x m
    ("K", np.diag([4.0, np.nan])),
    ("F", np.array([[1.0], [np.inf]])),
], ids=["M-nonsquare", "L-shape", "K-shape", "F-rows", "H-cols", "D-shape", "K-nan", "F-inf"])
def test_load_reduced_model_names_a_malformed_file(tmp_path, name, block):
    save_reduced_model(_rom_r2(), tmp_path)
    scipy.io.mmwrite(tmp_path / f"rom_{name}.mtx", block)
    with pytest.raises(StructuralError, match=f"rom_{name}.mtx"):
        load_reduced_model(tmp_path)


# ---------------------------------------------------------------------------
# re-attaching the algebraic part


def test_back_to_index1_scalar_identity(s1):
    basis = ProjectionBasis(V=np.array([[1.0]]), W=np.array([[1.0]]))
    back = back_to_index1(s1, basis)
    assert back.n1 == 1 and back.n2 == 1
    assert back.M11[0, 0] == pytest.approx(1.0)
    assert back.L11[0, 0] == pytest.approx(2.0)
    assert back.K11[0, 0] == pytest.approx(5.0)   # plain projection, no correction
    assert back.K12[0, 0] == pytest.approx(1.0)
    assert back.K22[0, 0] == pytest.approx(2.0)


def test_back_to_index1_preserves_transfer(make_system):
    system = make_system(40, 10, 2, 2, 0)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=4, max_iter=8))
    back = back_to_index1(system, trace.final_basis)
    assert back.n1 == rom.order
    assert back.n2 == system.n2
    for s in (1.0j, 50.0j, 2.0 + 500.0j):
        G_rom = analysis.eval_reduced(rom, s).G
        G_back = analysis.eval_full(back, s).G
        scale = max(1.0, np.abs(G_rom).max())
        assert np.max(np.abs(G_rom - G_back)) <= 1e-12 * scale


def test_back_to_index1_checks_basis(make_system, s1):
    system = make_system(40, 10, 2, 2, 0)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=4, max_iter=8))
    with pytest.raises(DimensionError):
        back_to_index1(s1, trace.final_basis)


def test_band_route_reduces_the_chain_as_the_sparse_route_does(monkeypatch):
    # the two routes differ only in the rounding of their LUs: the same
    # two-sided reduction of a nonsymmetric chain ends at the same shifts
    # and the same reduced model, to rounding
    config = IrkaConfig(r=4, max_iter=3, force_one_sided=False)
    runs = []
    for band_fill in (lu_module.BAND_FILL, 0):  # 0: no band is cheap enough
        monkeypatch.setattr(lu_module, "BAND_FILL", band_fill)
        system = chain_system(200, 20, symmetric=False)  # its route is decided anew
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            runs.append(irka_second_order_index1(system, config))
    (rom_b, trace_b), (rom_s, trace_s) = runs
    assert (trace_b.lu_route, trace_s.lu_route) == ("band", "sparse")
    assert trace_b.left_solves == trace_s.left_solves > 0
    np.testing.assert_allclose(np.sort_complex(trace_b.final_interpolation.shifts),
                               np.sort_complex(trace_s.final_interpolation.shifts), rtol=1e-9)
    for s in (3j, 30j, 300j):
        np.testing.assert_allclose(analysis.eval_reduced(rom_b, s).G,
                                   analysis.eval_reduced(rom_s, s).G,
                                   rtol=1e-9)
