"""Block system container: validation, Schur reference form, I/O, generator."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from morkit.errors import Index1ViolationError, StructuralError
from morkit.sparse import as_canonical_csc, assemble_shifted_augmented
from morkit.system import (
    generate_synthetic,
    load_system,
    read_keyvalue,
    save_system,
    to_dense_schur,
    validate,
)

from conftest import scalar_system


def test_validate_s1(s1):
    report = validate(s1)
    assert (report.n1, report.n2, report.m, report.p) == (1, 1, 1, 1)
    assert report.symmetric
    assert report.index1


def test_validate_singular_k22_violates_index1(s1):
    broken = scalar_system(K22=0.0)
    with pytest.raises(Index1ViolationError):
        validate(broken)


def test_validate_asymmetric_output_map():
    report = validate(scalar_system(H1=2.0))
    assert not report.symmetric
    assert report.index1


@pytest.mark.parametrize("block, value", [("K11", np.nan), ("K22", np.inf),
                                          ("F1", np.inf), ("Da", -np.inf)])
def test_validate_names_non_finite_block(block, value):
    system = generate_synthetic(40, 10, 2, 2, seed=0)
    data = getattr(system, block)
    (data.data if sp.issparse(data) else data.ravel())[0] = value
    with pytest.raises(StructuralError, match=f"block {block} has non-finite"):
        validate(system)


@pytest.mark.parametrize("symmetric", [True, False])
def test_validate_symmetry_is_a_python_bool(symmetric):
    report = validate(generate_synthetic(40, 10, 2, 2, seed=0, symmetric=symmetric))
    assert report.symmetric is symmetric


def test_to_dense_schur_s1(s1):
    dense = to_dense_schur(s1)
    assert dense.M[0, 0] == 1.0
    assert dense.L[0, 0] == 2.0
    assert dense.K[0, 0] == pytest.approx(4.5, rel=1e-15)
    assert dense.F[0, 0] == pytest.approx(1.0)
    assert dense.H[0, 0] == pytest.approx(1.0)
    assert dense.D[0, 0] == 0.0


def test_to_dense_schur_s2(s2):
    dense = to_dense_schur(s2)
    assert dense.F[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert dense.H[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert dense.D[0, 0] == pytest.approx(2.0, rel=1e-15)


def test_to_dense_schur_decoupled():
    system = scalar_system(K12=0.0, K21=0.0)
    dense = to_dense_schur(system)
    assert dense.K[0, 0] == 5.0
    assert dense.F[0, 0] == 1.0
    assert dense.H[0, 0] == 1.0
    assert dense.D[0, 0] == 0.0


def test_save_load_round_trip(tmp_path, s1):
    manifest = save_system(s1, tmp_path / "sys")
    assert manifest.name == "manifest.txt"
    loaded = load_system(manifest)
    for name in ("M11", "L11", "K11", "K12", "K21", "K22"):
        diff = abs(getattr(s1, name) - getattr(loaded, name))
        assert (diff.max() if diff.nnz else 0.0) == 0.0
    for name in ("F1", "F2", "H1", "H2", "Da"):
        np.testing.assert_array_equal(getattr(s1, name), getattr(loaded, name))


def test_save_writes_eleven_blocks(tmp_path):
    system = generate_synthetic(20, 6, 2, 2, seed=0)
    out = tmp_path / "gen"
    save_system(system, out)
    mtx_files = sorted(f.name for f in out.glob("*.mtx"))
    assert len(mtx_files) == 11
    assert (out / "manifest.txt").is_file()


def test_round_trip_is_bitwise_for_generated(tmp_path):
    system = generate_synthetic(50, 12, 2, 2, seed=3)
    loaded = load_system(save_system(system, tmp_path / "g"))
    for name in ("M11", "L11", "K11", "K12", "K21", "K22"):
        a = getattr(system, name).toarray()
        b = getattr(loaded, name).toarray()
        np.testing.assert_array_equal(a, b)
    for name in ("F1", "F2", "H1", "H2", "Da"):
        np.testing.assert_array_equal(getattr(system, name), getattr(loaded, name))


def test_manifest_missing_field_is_named(tmp_path, s1):
    manifest = save_system(s1, tmp_path / "sys")
    text = manifest.read_text()
    pruned = "\n".join(line for line in text.splitlines()
                       if not line.startswith("K22"))
    manifest.write_text(pruned + "\n")
    with pytest.raises(StructuralError, match="K22"):
        load_system(manifest)


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(StructuralError):
        load_system(tmp_path / "nope" / "manifest.txt")


def test_symmetric_matrix_market_storage_round_trips(tmp_path, s1):
    # symmetric sparse blocks may be stored with the lower triangle only;
    # loading must mirror them back
    manifest = save_system(s1, tmp_path / "sys")
    header = (tmp_path / "sys" / "K11.mtx").read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket")
    loaded = load_system(manifest)
    diff = abs(loaded.K11 - s1.K11)
    assert (diff.max() if diff.nnz else 0.0) == 0.0


def test_read_keyvalue_parses_comments_and_blanks(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nr = 10\nshift_tol = 1e-3\n")
    assert read_keyvalue(cfg) == {"r": "10", "shift_tol": "1e-3"}


def test_read_keyvalue_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r: 10\n")
    with pytest.raises(StructuralError):
        read_keyvalue(cfg)


def test_generate_example_dimensions():
    system = generate_synthetic(200, 40, 3, 3, seed=7, symmetric=True,
                                proportional_damping=(0.1, 0.05))
    report = validate(system)
    assert (report.n1, report.n2, report.m, report.p) == (200, 40, 3, 3)
    assert report.symmetric
    assert report.index1


def test_generate_deterministic():
    a = generate_synthetic(60, 15, 2, 2, seed=11)
    b = generate_synthetic(60, 15, 2, 2, seed=11)
    for name in ("M11", "L11", "K11", "K12", "K21", "K22"):
        np.testing.assert_array_equal(getattr(a, name).toarray(),
                                      getattr(b, name).toarray())
    for name in ("F1", "F2", "H1", "H2", "Da"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_generate_seeds_differ():
    a = generate_synthetic(60, 15, 2, 2, seed=0)
    b = generate_synthetic(60, 15, 2, 2, seed=1)
    assert abs(a.K11 - b.K11).max() > 0.0


def test_generate_asymmetric():
    system = generate_synthetic(40, 10, 2, 3, seed=4, symmetric=False)
    report = validate(system)
    assert not report.symmetric
    assert (report.m, report.p) == (2, 3)


def test_generate_symmetric_requires_square_ports():
    with pytest.raises(StructuralError):
        generate_synthetic(40, 10, 2, 3, seed=0, symmetric=True)


def test_generate_rejects_empty_dimensions():
    with pytest.raises(StructuralError):
        generate_synthetic(0, 10, 1, 1, seed=0)


def test_generate_schur_stays_positive_definite():
    system = generate_synthetic(40, 10, 1, 1, seed=9)
    dense = to_dense_schur(system)
    eigenvalues = np.linalg.eigvalsh(0.5 * (dense.K + dense.K.T))
    assert eigenvalues.min() > 0.0
    # mass stays SPD as well
    mass = np.linalg.eigvalsh(system.M11.toarray())
    assert mass.min() > 0.0


def test_generate_damping_is_proportional():
    system = generate_synthetic(30, 8, 1, 1, seed=2,
                                proportional_damping=(0.3, 0.01))
    expected = 0.3 * system.M11.toarray() + 0.01 * system.K11.toarray()
    np.testing.assert_allclose(system.L11.toarray(), expected, rtol=1e-15)


def test_generate_zero_feedthrough():
    system = generate_synthetic(30, 8, 2, 2, seed=5)
    np.testing.assert_array_equal(system.Da, np.zeros((2, 2)))


def test_matrix_market_files_are_read_on_one_thread(tmp_path, monkeypatch):
    reader = pytest.importorskip("scipy.io._fast_matrix_market")
    seen = []
    real_mmread = scipy.io.mmread

    def spy(source):
        seen.append(reader.PARALLELISM)
        return real_mmread(source)

    monkeypatch.setattr(scipy.io, "mmread", spy)
    monkeypatch.setattr(reader, "PARALLELISM", 0)
    load_system(save_system(generate_synthetic(10, 3, 1, 1, seed=0), tmp_path / "g"))
    assert seen == [1] * 11
    assert reader.PARALLELISM == 0


def test_matrix_market_thread_setting_restored_after_failure(tmp_path, monkeypatch):
    reader = pytest.importorskip("scipy.io._fast_matrix_market")
    monkeypatch.setattr(reader, "PARALLELISM", 3)
    manifest = save_system(generate_synthetic(10, 3, 1, 1, seed=0), tmp_path / "g")
    (tmp_path / "g" / "K11.mtx").write_text("not a matrix market file\n")
    with pytest.raises(ValueError):
        load_system(manifest)
    assert reader.PARALLELISM == 3


def test_loaded_blocks_need_no_second_canonicalization(tmp_path):
    # load_system leaves canonicalization to the constructor alone; a
    # second pass, as the loader once made, must not change a byte
    system = generate_synthetic(40, 9, 2, 2, seed=5, symmetric=False)
    directory = tmp_path / "g"
    loaded = load_system(save_system(system, directory))
    for name in ("M11", "L11", "K11", "K12", "K21", "K22"):
        block = getattr(loaded, name)
        once = as_canonical_csc(scipy.io.mmread(directory / f"{name}.mtx"), dtype=np.float64)
        twice = as_canonical_csc(once, dtype=np.float64)
        assert block.format == "csc" and block.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            got = getattr(block, attr)
            for want in (getattr(once, attr), getattr(twice, attr)):
                assert got.dtype == want.dtype, (name, attr)
                assert got.tobytes() == want.tobytes(), (name, attr)


def test_generated_and_loaded_systems_share_index_dtype(tmp_path):
    system = generate_synthetic(40, 9, 2, 2, seed=5, symmetric=False)
    loaded = load_system(save_system(system, tmp_path / "g"))
    for name in ("M11", "L11", "K11", "K12", "K21", "K22"):
        assert getattr(system, name).indptr.dtype == np.int32, name
        assert getattr(system, name).indices.dtype == np.int32, name
    for sigma in (0.0, 2.0 + 30j):
        generated = assemble_shifted_augmented(system, sigma)
        read_back = assemble_shifted_augmented(loaded, sigma)
        assert generated.indptr.dtype == read_back.indptr.dtype == np.int32
        assert generated.indices.dtype == read_back.indices.dtype == np.int32
