"""Tests of the benchmark's own code: the chain generator and the tracer.

    python3 -m pytest perfbench
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import morkit  # noqa: E402
from morkit import dense, irka  # noqa: E402
from morkit.sparse import assemble_shifted_augmented  # noqa: E402

import chain  # noqa: E402
import tracing  # noqa: E402


def test_chain_is_valid_symmetric_index1():
    system = chain.generate_chain(400, 2, seed=3)
    report = morkit.validate(system)
    assert report.index1 and report.symmetric
    assert (system.n1, system.n2, system.m, system.p) == (400, 399, 2, 2)
    K22 = system.K22
    assert K22.nnz == K22.shape[0] and np.all(K22.diagonal() > 0)


def test_chain_is_deterministic_in_seed():
    a, b, c = (chain.generate_chain(300, 2, seed=s) for s in (7, 7, 8))
    for name in ("M11", "L11", "K11", "K12", "K21", "K22"):
        assert (getattr(a, name) != getattr(b, name)).nnz == 0
    for name in ("F1", "F2", "H1", "H2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.F1, c.F1)


def test_chain_fill_per_row_stays_bounded():
    per_row = []
    for n1 in (2000, 16000):
        system = chain.generate_chain(n1, 2, seed=0)
        A = assemble_shifted_augmented(system, 1j * 300.0)
        lu = morkit.lu.factor(A)
        per_row.append((lu.L.nnz + lu.U.nnz) / A.shape[0])
    assert max(per_row) < 8.0
    assert per_row[1] < 1.2 * per_row[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_has_a_handful_of_light_modes_in_band(seed):
    system = chain.generate_chain(120, 2, seed=seed)
    schur = morkit.to_dense_schur(system)
    omega = np.sqrt(sla.eigvalsh(schur.K, schur.M))
    in_band = omega[(omega > 10.0) & (omega < 1.0e4)]
    assert len(in_band) == chain.RESONATORS
    assert omega[omega >= 1.0e4].min() > 5.0e4  # backbone far above the band
    # Rayleigh damping ratio of each in-band mode (unit masses)
    zeta = chain.ALPHA / (2 * in_band) + chain.BETA * in_band / 2
    assert zeta.max() < 0.1


def test_chain_rom_is_a_useful_model():
    system = chain.generate_chain(2000, 2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", morkit.ConvergenceWarning)
        rom, trace = morkit.irka_second_order_index1(
            system, morkit.IrkaConfig(r=10, max_iter=3))
    assert trace.one_sided and morkit.stability_report(rom).stable
    result = morkit.sweep(system, rom, np.logspace(1, 4, 40), max_workers=1)
    assert np.max(result.rel_err) < 0.2


def _small_cycle():
    system = morkit.generate_synthetic(30, 5, 2, 2, seed=0, symmetric=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", morkit.ConvergenceWarning)
        rom, _ = morkit.irka_second_order_index1(system, morkit.IrkaConfig(r=4, max_iter=2))
    morkit.sweep(system, rom, np.logspace(1, 3, 5), max_workers=1)
    return rom


def test_tracer_patches_every_lookup_name_and_restores_them():
    originals = {
        (irka, "orthonormalize"): irka.orthonormalize,
        (dense, "orthonormalize"): dense.orthonormalize,
        (morkit.analysis, "factor_augmented"): morkit.analysis.factor_augmented,
        (morkit, "irka_second_order_index1"): morkit.irka_second_order_index1,
        (morkit.lu.SparseLU, "solve"): morkit.lu.SparseLU.solve,
    }
    with tracing.Tracer() as tracer:
        for (owner, attribute), original in originals.items():
            assert getattr(owner, attribute) is not original
        _small_cycle()
    for (owner, attribute), original in originals.items():
        assert getattr(owner, attribute) is original
    names = {span.name for span in tracer.spans}
    assert {"irka.irka_second_order_index1", "dense.orthonormalize", "lu.factor",
            "lu.solve_transposed", "analysis.eval_full", "irka.factor_augmented"} <= names
    # orthonormalize is reached through irka's own name for it
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "dense.orthonormalize"}
    assert "irka.build_bases" in parents


def test_tracer_restores_after_an_exception():
    original = irka.build_bases
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert irka.build_bases is original


def test_self_times_subtract_direct_children():
    spans = [
        tracing.Span("a", 0.0, 10.0, -1, None),
        tracing.Span("b", 1.0, 4.0, 0, None),
        tracing.Span("c", 2.0, 3.0, 1, None),
        tracing.Span("d", 5.0, 6.0, 0, None),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_counters_repeat_and_add_up():
    cycles = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            _small_cycle()
        cycles.append(tracing.layer_metrics(tracer.spans))
    merged, repeated = tracing.median_metrics(cycles)
    assert all(repeated.values())
    value = {name: v for name, (v, _) in merged.items()}
    assert value["lu.factor.calls"] == (
        value["lu.factor.real_calls"] + value["lu.factor.complex_calls"])
    assert value["irka.left_solves"] > 0
    assert value["lu.solve_transposed.calls"] == value["irka.left_solves"]
    assert 0.0 < value["trace.reduce.lu.factor_share"] < 1.0
