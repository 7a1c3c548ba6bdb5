"""The reference oracles themselves, and oracle-vs-main-path checks at
unit scale (the full property grid lives in the acceptance suite)."""

import numpy as np
import pytest

from morkit.analysis import eval_full, eval_reduced
from morkit.irka import (
    InterpolationData,
    IrkaConfig,
    ProjectionBasis,
    back_to_index1,
    build_bases,
    irka_second_order_index1,
    reduce,
)
from morkit.oracles import (
    oracle_dense_reduction,
    oracle_finite_difference_derivative,
    oracle_sampling_equivalence,
)

from conftest import damped_pairs, scalar_system


def test_fd_derivative_scalar_transfer(s1):
    # G(s) = 1/(s^2 + 2s + 4.5), so G'(0) = -2/4.5^2
    d = oracle_finite_difference_derivative(lambda s: eval_full(s1, s).G, 0.0,
                                            h=1e-5)
    assert d[0, 0] == pytest.approx(-2.0 / 4.5**2, abs=1e-6)
    assert d[0, 0] == pytest.approx(-0.09876543209876543, abs=1e-6)


def test_fd_derivative_constant_is_zero(s2):
    d = oracle_finite_difference_derivative(lambda s: eval_full(s2, s).G, 1.0j)
    assert abs(d[0, 0]) <= 1e-9


def test_fd_derivative_exact_for_quadratics():
    d = oracle_finite_difference_derivative(lambda s: np.array([[3.0 * s]]), 2.0,
                                            h=0.25)
    assert d[0, 0] == pytest.approx(3.0, rel=1e-12)
    d2 = oracle_finite_difference_derivative(lambda s: np.array([[s * s]]),
                                             1.0 + 1.0j, h=0.5)
    # central difference is exact on polynomials of degree <= 2
    assert d2[0, 0] == pytest.approx(2.0 * (1.0 + 1.0j), rel=1e-12)


def test_sampling_equivalence_identical_evaluators(s1):
    err = oracle_sampling_equivalence(
        lambda s: eval_full(s1, s).G,
        lambda s: eval_full(s1, s).G,
        [0.0, 1j, 2.0 + 3.0j],
    )
    assert err == 0.0


def test_sampling_equivalence_against_hand_formula(s1):
    err = oracle_sampling_equivalence(
        lambda s: eval_full(s1, s).G,
        lambda s: np.array([[1.0 / (s * s + 2.0 * s + 4.5)]]),
        [0.0, 1j, 1.0 + 1j, 100.0j],
    )
    assert err <= 1e-14


def test_sampling_equivalence_rom_vs_reattached(make_system):
    system = make_system(40, 10, 2, 2, 0)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=4, max_iter=8))
    back = back_to_index1(system, trace.final_basis)
    err = oracle_sampling_equivalence(
        lambda s: eval_reduced(rom, s).G,
        lambda s: eval_full(back, s).G,
        1j * np.logspace(1, 4, 7),
    )
    assert err <= 1e-12


def test_dense_oracle_scalar_single_shift(s1):
    interp = InterpolationData(np.array([0.0 + 0.0j]), np.array([[1.0]]),
                               np.array([[1.0]]))
    oracle = oracle_dense_reduction(s1, interp)
    main = reduce(s1, build_bases(s1, interp))
    for name in "MLKFHD":
        np.testing.assert_allclose(getattr(main, name), getattr(oracle, name),
                                   atol=1e-14)


def test_dense_oracle_example_case(make_system):
    system = make_system(100, 20, 2, 2, 6)
    interp = damped_pairs(6, 2, 2, seed=0)
    oracle = oracle_dense_reduction(system, interp)
    main = reduce(system, build_bases(system, interp))
    for name in "MLKFHD":
        a, b = getattr(main, name), getattr(oracle, name)
        scale = max(1.0, np.abs(a).max())
        assert np.max(np.abs(a - b)) <= 1e-10 * scale


def test_dense_oracle_decoupled_blocks():
    system = scalar_system(K12=0.0, K21=0.0)
    interp = InterpolationData(np.array([1.0 + 0.0j]), np.array([[1.0]]),
                               np.array([[1.0]]))
    oracle = oracle_dense_reduction(system, interp)
    main = reduce(system, build_bases(system, interp))
    for name in "MLKFHD":
        np.testing.assert_allclose(getattr(main, name), getattr(oracle, name),
                                   atol=1e-14)


def test_dense_oracle_one_sided(make_system):
    system = make_system(40, 10, 2, 2, 1)
    interp = damped_pairs(4, 2, 2, seed=5)
    oracle = oracle_dense_reduction(system, interp, one_sided=True)
    main = reduce(system, build_bases(system, interp, one_sided=True))
    for name in "MLKFHD":
        a, b = getattr(main, name), getattr(oracle, name)
        scale = max(1.0, np.abs(a).max())
        assert np.max(np.abs(a - b)) <= 1e-10 * scale


def test_dense_oracle_rejects_unclosed_shifts(s1):
    interp = InterpolationData(np.array([1.0 + 1.0j, 3.0 + 4.0j]),
                               np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        oracle_dense_reduction(s1, interp)
