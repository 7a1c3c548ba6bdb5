"""Transfer evaluation, dual-route equivalence, sweeps, stability, timing."""

import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from morkit import analysis, irka
from morkit.analysis import (
    THREADS_ENV,
    _threads_from_env,
    eval_full,
    eval_reduced,
    schur_equivalence_check,
    speedup_report,
    stability_report,
    sweep,
)
from morkit.errors import ConvergenceWarning
from morkit.irka import (
    IrkaConfig,
    ProjectionBasis,
    ReducedSecondOrderModel,
    factor_augmented,
    irka_second_order_index1,
    reduce,
)
from morkit import lu as lu_module
from morkit.lu import _BandLU, _DenseLDLT, _DenseLU
from morkit.sparse import ShiftedAugmented, assemble_shifted_augmented
from morkit.system import generate_synthetic

from conftest import chain_system, grid_system, scalar_system


def scalar_rom(M=1.0, L=2.0, K=4.5, F=1.0, H=1.0, D=0.0):
    return ReducedSecondOrderModel(
        M=np.array([[M]]), L=np.array([[L]]), K=np.array([[K]]),
        F=np.array([[F]]), H=np.array([[H]]), D=np.array([[D]]),
    )


def test_eval_full_s1_at_zero(s1):
    sample = eval_full(s1, 0.0)
    assert sample.s == 0.0
    assert sample.G[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-14)


def test_eval_full_s1_at_j(s1):
    G = eval_full(s1, 1j).G
    assert G[0, 0] == pytest.approx(1.0 / (3.5 + 2.0j), rel=1e-14)


def test_eval_full_constant_s2(s2):
    for s in (0.0, 1j, 3.0 + 100.0j):
        assert eval_full(s2, s).G[0, 0] == pytest.approx(2.0, rel=1e-13)


def test_eval_reduced_scalar():
    assert eval_reduced(scalar_rom(), 0.0).G[0, 0] == pytest.approx(2.0 / 9.0,
                                                                    rel=1e-15)


def test_eval_reduced_feedthrough_only():
    rom = scalar_rom(F=0.0, D=7.0)
    for s in (0.0, 1j, 5.0 + 2.0j):
        assert eval_reduced(rom, s).G[0, 0] == pytest.approx(7.0, rel=1e-15)


def test_eval_reduced_identity_projection_matches_full(make_system):
    system = make_system(30, 8, 2, 2, 2)
    I = np.eye(30)
    rom = reduce(system, ProjectionBasis(V=I, W=I))
    rng = np.random.default_rng(0)
    for omega in rng.uniform(10.0, 1e4, size=10):
        Gf = eval_full(system, 1j * omega).G
        Gr = eval_reduced(rom, 1j * omega).G
        scale = max(1.0, np.abs(Gf).max())
        assert np.max(np.abs(Gf - Gr)) <= 1e-8 * scale


def test_schur_equivalence_hand_points(s1):
    assert schur_equivalence_check(s1, [0.0, 1j, 1.0 + 1j]) <= 1e-14


def test_schur_equivalence_constant_system(s2):
    assert schur_equivalence_check(s2, [0.0, 2j, 10.0 + 5j]) <= 1e-14


def test_schur_equivalence_generated(make_system):
    system = make_system(50, 12, 2, 2, 4)
    rng = np.random.default_rng(1)
    points = 1j * rng.uniform(10.0, 1e4, size=10)
    assert schur_equivalence_check(system, points) <= 1e-10


def test_sweep_identical_models(s1):
    omegas = np.logspace(1, 4, 25)
    result = sweep(s1, scalar_rom(), omegas)
    assert result.omega.shape == (25,)
    assert np.all(result.rel_err <= 1e-12)
    assert result.flags == ["ok"] * 25


def test_sweep_sigma_value_at_unit_frequency(s1):
    result = sweep(s1, scalar_rom(), [1.0])
    assert result.sigma_full[0] == pytest.approx(1.0 / np.sqrt(16.25), rel=1e-14)
    assert result.sigma_full[0] == pytest.approx(0.24806946917841693, rel=1e-14)


def test_sweep_monotone_grid_preserved(s1):
    omegas = np.logspace(1, 4, 200)
    result = sweep(s1, scalar_rom(), omegas)
    np.testing.assert_array_equal(result.omega, omegas)
    assert result.G_full.shape == (200, 1, 1)


@pytest.mark.parametrize("omegas, named", [([], "no points"),
                                            ([1.0, np.nan], "point 1 is nan"),
                                            ([np.inf, 1.0], "point 0 is inf")])
def test_a_malformed_grid_is_named(s1, omegas, named):
    for run in (sweep, speedup_report):
        with pytest.raises(ValueError, match=named):
            run(s1, scalar_rom(), omegas)


def test_a_point_on_an_undamped_mode_fails_alone():
    # M = 1, L = 0 and Schur K = 4.5 - 1 * 1 / 2 = 4: s = 2j is a pole of
    # both models, where the augmented matrix [[0.5, 1], [1, 2]] is
    # exactly singular
    system = scalar_system(L11=0.0, K11=4.5)
    rom = reduce(system, ProjectionBasis(V=np.eye(1), W=np.eye(1)))
    result = sweep(system, rom, [1.0, 2.0, 3.0])
    assert result.flags == ["ok", "failed", "ok"]
    for values in (result.sigma_full, result.sigma_rom, result.rel_err,
                   result.G_full, result.G_rom):
        assert np.isnan(values[1]).all()
    clean = sweep(system, rom, [1.0, 3.0])
    for name in ("sigma_full", "sigma_rom", "rel_err", "G_full", "G_rom"):
        np.testing.assert_array_equal(getattr(result, name)[[0, 2]], getattr(clean, name))
    assert result.sigma_full[0] == pytest.approx(1.0 / 3.0, rel=1e-14)  # 1 / |4 - 1|


def test_sweep_threaded_matches_sequential(make_system):
    system = make_system(40, 10, 2, 2, 3)
    I = np.eye(40)
    rom = reduce(system, ProjectionBasis(V=I, W=I))
    omegas = np.logspace(1, 4, 16)
    seq = sweep(system, rom, omegas, max_workers=1)
    for workers in (2, 4):
        par = sweep(system, rom, omegas, max_workers=workers)
        assert par.to_csv() == seq.to_csv()
        assert par.G_full.tobytes() == seq.G_full.tobytes()


def test_sweep_routes_every_point_by_the_first_points_fill(make_system):
    # every point, the first one too, factors on the system's route
    # (dense here), so a sweep with any number of workers repeats single
    # evaluations bit for bit
    system = make_system(120, 25, 2, 2, 0, symmetric=False)
    I = np.eye(120)
    rom = reduce(system, ProjectionBasis(V=I, W=I))
    omegas = np.logspace(1, 4, 6)
    full = [eval_full(system, 1j * w).G for w in omegas]
    assert system.route.kind == "dense"
    for workers in (1, 2):
        result = sweep(dataclasses.replace(system), rom, omegas, max_workers=workers)
        assert result.G_full.tobytes() == np.stack(full).tobytes()


def _spy_on_factorizations(monkeypatch):
    """The factor class of every augmented LU of a reduction or sweep."""
    seen = []

    def spy(system, sigma):
        out = factor_augmented(system, sigma)
        seen.append(type(out._factors))
        return out

    monkeypatch.setattr(irka, "factor_augmented", spy)
    monkeypatch.setattr(analysis, "factor_augmented", spy)
    return seen


@pytest.mark.parametrize("kind, factors", [("generated", _DenseLU), ("symmetric", _DenseLDLT),
                                           ("chain", _BandLU)])
def test_first_factorization_of_a_reduction_and_a_sweep_takes_the_route(
        monkeypatch, kind, factors):
    # the route is decided from the pattern before any LU, so no
    # reduction or sweep starts with a SuperLU factorization
    make = {"generated": lambda: generate_synthetic(40, 10, 2, 2, seed=0, symmetric=False),
            "symmetric": lambda: generate_synthetic(40, 10, 2, 2, seed=0),
            "chain": lambda: chain_system(200, 20, True)}[kind]
    seen = _spy_on_factorizations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        rom, _ = irka_second_order_index1(make(), IrkaConfig(r=4, max_iter=2))
    assert len(seen) > 4 and set(seen) == {factors}
    seen.clear()
    sweep(make(), rom, np.logspace(1, 4, 5))
    assert seen == [factors] * 5


@pytest.mark.parametrize("kind", ["generated", "chain"])
def test_one_index_map_and_one_probe_per_system(monkeypatch, kind):
    # two reductions and a threaded sweep of one system object share its
    # index map and its route: one map built, one SuperLU run on the
    # augmented pattern (K22's own LU is the other SuperLU call)
    system = {"generated": lambda: generate_synthetic(40, 10, 2, 2, seed=0),
              "chain": lambda: chain_system(200, 20, True)}[kind]()
    n = system.n1 + system.n2
    maps, probes = [], []
    init, splu = ShiftedAugmented.__init__, lu_module.spla.splu

    def counting_init(self, system):
        maps.append(system)
        init(self, system)

    def counting_splu(A, *args, **kwargs):
        probes.extend([A.shape] if A.shape == (n, n) else [])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(ShiftedAugmented, "__init__", counting_init)
    monkeypatch.setattr(lu_module.spla, "splu", counting_splu)
    config = IrkaConfig(r=4, max_iter=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        rom, _ = irka_second_order_index1(system, config)
        irka_second_order_index1(system, config)
    sweep(system, rom, np.logspace(1, 4, 5), max_workers=2)
    assert maps == [system]
    assert probes == [(n, n)]


def test_threaded_sweep_decides_the_route_once_before_its_workers(monkeypatch):
    # a fresh system's route is built by the caller, not by racing workers
    # (a cached_property has no lock from Python 3.12 on)
    system = generate_synthetic(40, 10, 2, 2, seed=0, symmetric=False)
    I = np.eye(system.n1)
    rom = reduce(system, ProjectionBasis(V=I, W=I))
    built = []
    init = lu_module.Route.__init__

    def counting_init(self, shifted):
        built.append(threading.current_thread())
        init(self, shifted)

    monkeypatch.setattr(lu_module.Route, "__init__", counting_init)
    sweep(dataclasses.replace(system), rom, np.logspace(1, 4, 8), max_workers=2)
    assert built == [threading.current_thread()]


def _threaded_sweep_through_a_changing_pattern(base, kind):
    """Sweep `base`, made to change its pattern with omega, sequentially
    and in racing threads, on its route `kind`; the threads race to
    build the index map and the route of a fresh copy of the system.

    At omega = 10 the (0, 1) entries of S11 cancel to exact zeros
    (-100 * 0.5 + 50, no damping there), which the one pattern of every
    point stores as zeros; more workers than cores and a short switch
    interval give racing threads their chance.
    """
    M, K = base.M11.toarray(), base.K11.toarray()
    M[0, 1] = M[1, 0] = 0.5
    K[0, 1] = K[1, 0] = 50.0
    system = dataclasses.replace(
        base, M11=sp.csc_array(M), K11=sp.csc_array(K),
        L11=sp.diags_array(base.L11.diagonal(), format="csc"))
    cancelled, kept = (assemble_shifted_augmented(system, s) for s in (10j, 11j))
    assert cancelled.indptr.tobytes() == kept.indptr.tobytes()
    assert cancelled.indices.tobytes() == kept.indices.tobytes()
    for i, j in ((0, 1), (1, 0)):
        column = slice(cancelled.indptr[j], cancelled.indptr[j + 1])
        (at,) = np.flatnonzero(cancelled.indices[column] == i) + column.start
        assert cancelled.data[at] == 0 and kept.data[at] != 0
    assert system.route.kind == kind
    I = np.eye(system.n1)
    rom = reduce(system, ProjectionBasis(V=I, W=I))
    omegas = np.tile([9.0, 10.0, 11.0, 10.0], 6)
    seq = sweep(system, rom, omegas, max_workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = sweep(dataclasses.replace(system), rom, omegas, max_workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert par.G_full.tobytes() == seq.G_full.tobytes()
    exact = np.stack([eval_full(system, 1j * w).G for w in omegas])
    np.testing.assert_allclose(seq.G_full, exact, rtol=1e-12)


def test_threaded_sweep_through_a_changing_pattern_matches_sequential():
    # the chain's LUs go banded: the threads share one index map and the
    # band layout of its route
    _threaded_sweep_through_a_changing_pattern(chain_system(200, 20, symmetric=True), "band")


def test_threaded_sweep_on_the_sparse_route_matches_sequential():
    # the grid's LUs stay sparse, so every point orders its own pattern
    _threaded_sweep_through_a_changing_pattern(grid_system(30), "sparse")


def test_thread_count_from_the_environment(monkeypatch):
    for raw, workers in (("", 0), (" 0 ", 0), ("3", 3)):
        monkeypatch.setenv(THREADS_ENV, raw)
        assert _threads_from_env() == workers
    for raw in ("abc", "-5", "2.5"):
        monkeypatch.setenv(THREADS_ENV, raw)
        with pytest.raises(ValueError, match=THREADS_ENV):
            _threads_from_env()


def test_sweep_csv_shape(s1):
    result = sweep(s1, scalar_rom(), np.logspace(1, 2, 5))
    text = result.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "omega,sigma_full,sigma_rom,rel_err,flag"
    assert len(lines) == 6
    assert lines[1].endswith(",ok")


def test_channel_csv(s1):
    result = sweep(s1, scalar_rom(), np.logspace(1, 2, 4))
    text = result.channel_csv(0, 0)
    lines = text.strip().splitlines()
    assert lines[0] == "omega,abs_full,abs_rom"
    assert len(lines) == 5


def test_stability_scalar_rom():
    report = stability_report(scalar_rom())
    assert report.stable
    assert not report.indeterminate
    assert report.max_real_part == pytest.approx(-1.0, rel=1e-12)
    np.testing.assert_allclose(
        sorted(report.eigenvalues, key=lambda z: z.imag),
        [-1 - 1.8708286933869707j, -1 + 1.8708286933869707j],
        rtol=1e-12,
    )


def test_stability_sign_case():
    report = stability_report(scalar_rom(L=0.0, K=-1.0))
    assert not report.stable
    np.testing.assert_allclose(sorted(report.eigenvalues.real), [-1.0, 1.0],
                               atol=1e-12)


def test_stability_indeterminate_on_singular_mass():
    report = stability_report(scalar_rom(M=0.0, L=0.0, K=1.0))
    assert report.indeterminate
    assert not report.stable


def test_stability_of_symmetric_one_sided_reduction(make_system):
    system = make_system(40, 10, 1, 1, 5)
    rom, trace = irka_second_order_index1(system, IrkaConfig(r=4, max_iter=10))
    report = stability_report(rom)
    assert report.stable
    assert report.eigenvalues.shape == (8,)


def test_speedup_report_smoke(make_system):
    system = make_system(40, 10, 1, 1, 0)
    rom, _ = irka_second_order_index1(system, IrkaConfig(r=3, max_iter=5))
    omegas = np.logspace(1, 4, 5)
    report = speedup_report(system, rom, omegas, repetitions=3)
    assert report.points == 5
    assert report.full_seconds > 0.0
    assert report.rom_seconds > 0.0
    assert report.speedup == report.full_seconds / report.rom_seconds
    table = report.format_table()
    assert "full (n1=40, n2=10)" in table
    assert f"reduced (r={rom.order})" in table


@pytest.mark.parametrize("kind", ["generated", "chain", "grid"])
def test_speedup_report_routes_every_pass_by_its_first_factorization(monkeypatch, kind):
    # the full passes factor as sweep does, on the system's route: one
    # SuperLU run on the pattern decides it, then every point of every
    # pass runs SuperLU with minimum degree (sparse: the grid) or skips
    # SuperLU (dense: the generated system; band: the chain)
    system = {"generated": lambda: generate_synthetic(40, 10, 2, 2, seed=0),
              "chain": lambda: chain_system(200, 20, True),
              "grid": lambda: grid_system(30)}[kind]()
    rom = reduce(system, ProjectionBasis(V=np.eye(system.n1), W=np.eye(system.n1)))
    orderings = []
    splu = lu_module.spla.splu

    def spy(A, permc_spec=None, **kwargs):
        orderings.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(lu_module.spla, "splu", spy)
    speedup_report(system, rom, np.logspace(1, 4, 5), repetitions=3)
    assert orderings == ["MMD_AT_PLUS_A"] * (1 + (20 if kind == "grid" else 0))


def test_speedup_report_requires_enough_repetitions(s1):
    with pytest.raises(ValueError):
        speedup_report(s1, scalar_rom(), [1.0], repetitions=2)
