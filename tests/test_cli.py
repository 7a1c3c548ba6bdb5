"""Command-line front end: file contracts, determinism, exit codes."""

import re
from pathlib import Path

import numpy as np
import pytest

from morkit import ConvergenceWarning
from morkit.cli import main
from morkit.system import generate_synthetic, load_system, save_system

from conftest import nonproportional, scalar_system


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in Path(path).iterdir() if f.is_file()}


def _generate(tmp_path, name="sys", n1=40, n2=10, m=1, p=1, seed=0, extra=()):
    out = tmp_path / name
    rc = main(["generate", "--n1", str(n1), "--n2", str(n2), "--m", str(m),
               "--p", str(p), "--seed", str(seed), "--out", str(out), *extra])
    assert rc == 0
    return out / "manifest.txt"


def test_generate_writes_files(tmp_path, capsys):
    manifest = _generate(tmp_path, n1=30, n2=8, m=2, p=2, seed=3)
    out = capsys.readouterr().out
    assert "wrote" in out
    files = sorted(f.name for f in manifest.parent.iterdir())
    assert "manifest.txt" in files
    assert sum(name.endswith(".mtx") for name in files) == 11
    load_system(manifest)  # loads and validates


def test_generate_reruns_are_byte_identical(tmp_path):
    a = _generate(tmp_path, "a", n1=30, n2=8, m=2, p=2, seed=7)
    b = _generate(tmp_path, "b", n1=30, n2=8, m=2, p=2, seed=7)
    assert _dir_bytes(a.parent) == _dir_bytes(b.parent)


def test_generate_usage_error_on_zero_dimension(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--n1", "0", "--n2", "5", "--m", "1", "--p", "1",
              "--out", str(tmp_path / "x")])
    assert err.value.code != 0


def test_generate_rejects_an_invalid_system_before_writing_it(tmp_path, capsys):
    # a NaN damping factor makes L11 non-finite: nothing reaches the disk
    out = tmp_path / "x"
    rc = main(["generate", "--n1", "10", "--n2", "3", "--m", "1", "--p", "1",
               "--damping", "nan", "0", "--out", str(out)])
    assert rc == 1
    assert "L11" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_generate_asymmetric_ports(tmp_path, capsys):
    manifest = _generate(tmp_path, n1=30, n2=8, m=2, p=3, seed=0,
                         extra=("--no-symmetric",))
    system = load_system(manifest)
    assert (system.m, system.p) == (2, 3)


def test_reduce_writes_rom_and_trace(tmp_path, capsys):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
               "--out", str(rom_dir)])
    assert rc == 0
    names = sorted(f.name for f in rom_dir.iterdir())
    for block in "MLKFHD":
        assert f"rom_{block}.mtx" in names
    assert "trace.log" in names
    assert "NOT_CONVERGED" not in names
    out = capsys.readouterr().out
    assert "converged true" in out
    assert "final_order" in out
    assert "requested_order 3" in (rom_dir / "trace.log").read_text()


def test_reduce_reruns_are_byte_identical(tmp_path):
    manifest = _generate(tmp_path)
    for name in ("romA", "romB"):
        rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
                   "--out", str(tmp_path / name)])
        assert rc == 0
    assert _dir_bytes(tmp_path / "romA") == _dir_bytes(tmp_path / "romB")


def test_reduce_trace_has_no_timings_by_default(tmp_path):
    manifest = _generate(tmp_path)
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
               "--out", str(tmp_path / "rom")])
    assert rc == 0
    text = (tmp_path / "rom" / "trace.log").read_text()
    assert "seconds" not in text
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3", "--timings",
               "--out", str(tmp_path / "romT")])
    assert rc == 0
    assert "seconds" in (tmp_path / "romT" / "trace.log").read_text()


def test_reduce_iteration_cap_exit_code_and_flag(tmp_path):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    with pytest.warns(ConvergenceWarning):
        rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
                   "--max-iter", "1", "--shift-tol", "1e-12",
                   "--out", str(rom_dir)])
    assert rc == 2
    assert (rom_dir / "NOT_CONVERGED").is_file()
    # a successful rerun into the same directory clears the flag
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
               "--out", str(rom_dir)])
    assert rc == 0
    assert not (rom_dir / "NOT_CONVERGED").exists()


def test_reduce_one_sided_trace_for_symmetric_system(tmp_path):
    manifest = _generate(tmp_path)
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
               "--out", str(tmp_path / "rom")])
    assert rc == 0
    text = (tmp_path / "rom" / "trace.log").read_text()
    assert "one_sided true" in text
    assert text.rstrip().splitlines()[-1] == "left_solves 0"


def test_reduce_force_two_sided_records_left_solves(tmp_path):
    manifest = _generate(tmp_path)
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
               "--force-two-sided", "--out", str(tmp_path / "rom")])
    assert rc in (0, 2)
    text = (tmp_path / "rom" / "trace.log").read_text()
    assert "one_sided false" in text
    last = text.rstrip().splitlines()[-1]
    assert last.startswith("left_solves ")
    assert int(last.split()[1]) > 0


def test_reduce_r_above_n1_is_an_error(tmp_path, capsys):
    manifest = _generate(tmp_path, n1=20, n2=6)
    rc = main(["reduce", "--manifest", str(manifest), "--r", "21",
               "--out", str(tmp_path / "rom")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [
    (["--shift-tol", "nan"], "shift_tol"),
    (["--inner-tol", "inf"], "inner_tol"),
    (["--freq-hi", "inf"], "freq_range"),
    (["--freq-lo", "nan"], "freq_range"),
])
def test_reduce_rejects_a_non_finite_setting(tmp_path, capsys, flags, name):
    # an error naming the setting, not a run to the iteration cap
    manifest = _generate(tmp_path)
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3", *flags,
               "--out", str(tmp_path / "rom")])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "rom").exists()


def test_reduce_settings_file_rejects_a_non_finite_tolerance(tmp_path, capsys):
    manifest = _generate(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 3\nshift_tol = nan\n")
    rc = main(["reduce", "--manifest", str(manifest), "--config", str(cfg),
               "--out", str(tmp_path / "rom")])
    assert rc == 1
    assert "shift_tol" in capsys.readouterr().err


def test_reduce_settings_file(tmp_path):
    manifest = _generate(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\nr = 4\nmax_iter = 15\n")
    rc = main(["reduce", "--manifest", str(manifest), "--config", str(cfg),
               "--out", str(tmp_path / "rom")])
    assert rc == 0
    assert "requested_order 4" in (tmp_path / "rom" / "trace.log").read_text()


def test_reduce_cli_overrides_settings_file(tmp_path):
    manifest = _generate(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 4\n")
    rc = main(["reduce", "--manifest", str(manifest), "--config", str(cfg),
               "--r", "3", "--out", str(tmp_path / "rom")])
    assert rc == 0
    assert "requested_order 3" in (tmp_path / "rom" / "trace.log").read_text()


def test_reduce_settings_file_rejects_unknown_key(tmp_path, capsys):
    # a misspelt key must not fall back silently to the default tolerance
    manifest = _generate(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 3\nshifttol = 1e-6\n")
    rc = main(["reduce", "--manifest", str(manifest), "--config", str(cfg),
               "--out", str(tmp_path / "rom")])
    assert rc == 1
    assert "shifttol" in capsys.readouterr().err
    assert not (tmp_path / "rom").exists()


def test_reduce_settings_file_names_a_malformed_value(tmp_path, capsys):
    manifest = _generate(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = ten\n")
    rc = main(["reduce", "--manifest", str(manifest), "--config", str(cfg),
               "--out", str(tmp_path / "rom")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "setting r in" in err and str(cfg) in err and "'ten'" in err
    assert not (tmp_path / "rom").exists()


def test_reduce_settings_file_and_defaults_fill_unset_flags(tmp_path):
    manifest = _generate(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 3\nfreq_hi = 500\none_sided = off\n")
    rc = main(["reduce", "--manifest", str(manifest), "--config", str(cfg),
               "--freq-lo", "20", "--out", str(tmp_path / "rom")])
    # converged at the requested order: no shift is lost on the way
    assert rc == 0
    assert not (tmp_path / "rom" / "NOT_CONVERGED").exists()
    trace = (tmp_path / "rom" / "trace.log").read_text()
    assert "one_sided false" in trace and "final_order 3" in trace
    # same run with every setting spelt out as a flag
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3", "--freq-lo", "20",
               "--freq-hi", "500", "--one-sided", "off", "--max-iter", "20",
               "--shift-tol", "1e-3", "--inner-max-iter", "20", "--inner-tol", "1e-5",
               "--seed", "0", "--out", str(tmp_path / "rom_flags")])
    assert rc == 0
    assert not (tmp_path / "rom_flags" / "NOT_CONVERGED").exists()
    assert _dir_bytes(tmp_path / "rom") == _dir_bytes(tmp_path / "rom_flags")


def test_reduce_index1_form(tmp_path):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    rc = main(["reduce", "--manifest", str(manifest), "--r", "3",
               "--index1-form", "--out", str(rom_dir)])
    assert rc == 0
    trace = (rom_dir / "trace.log").read_text()
    final_order = int(re.search(r"final_order (\d+)", trace).group(1))
    back = load_system(rom_dir / "index1" / "manifest.txt")
    assert back.n1 == final_order
    assert back.n2 == 10


def test_analyze_writes_sweep_and_stability(tmp_path, capsys):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    ana_dir = tmp_path / "ana"
    rc = main(["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
               "--points", "50", "--out", str(ana_dir)])
    assert rc == 0
    lines = (ana_dir / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,sigma_full,sigma_rom,rel_err,flag"
    assert len(lines) == 51
    assert (ana_dir / "stability.txt").is_file()
    out = capsys.readouterr().out
    assert "max_rel_err" in out
    assert "points 50" in out


def test_analyze_reruns_are_byte_identical(tmp_path):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    for name in ("anaA", "anaB"):
        rc = main(["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
                   "--points", "40", "--out", str(tmp_path / name)])
        assert rc == 0
    assert _dir_bytes(tmp_path / "anaA") == _dir_bytes(tmp_path / "anaB")


def test_analyze_rejects_a_bad_thread_count(tmp_path, capsys, monkeypatch):
    # a negative --workers is a usage error; a malformed MORKIT_THREADS
    # stops the run instead of sweeping sequentially
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    analyze = ["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
               "--points", "5", "--out", str(tmp_path / "ana")]
    with pytest.raises(SystemExit) as err:
        main(analyze + ["--workers", "-5"])
    assert err.value.code != 0
    monkeypatch.setenv("MORKIT_THREADS", "abc")
    capsys.readouterr()
    assert main(analyze) == 1
    assert "MORKIT_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "ana" / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("bounds", [("nan", "100"), ("10", "inf"), ("0", "100"), ("-5", "100")])
def test_freq_bounds_must_be_positive_and_finite(tmp_path, capsys, command, bounds):
    manifest = _generate(tmp_path)
    args = [command, "--manifest", str(manifest), "--freq", *bounds]
    if command == "analyze":
        rom_dir = tmp_path / "rom"
        assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                     "--out", str(rom_dir)]) == 0
        args += ["--rom", str(rom_dir), "--points", "5", "--out", str(tmp_path / "ana")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert "--freq" in capsys.readouterr().err
    assert not (tmp_path / "ana").exists()


def test_analyze_channel_csv(tmp_path):
    manifest = _generate(tmp_path, m=2, p=2)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "4",
                 "--out", str(rom_dir)]) in (0, 2)
    ana_dir = tmp_path / "ana"
    rc = main(["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
               "--points", "10", "--channel", "0", "1", "--out", str(ana_dir)])
    assert rc == 0
    lines = (ana_dir / "channel_0_1.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,abs_full,abs_rom"
    assert len(lines) == 11


def test_analyze_channel_out_of_range(tmp_path, capsys):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    rc = main(["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
               "--points", "5", "--channel", "3", "0",
               "--out", str(tmp_path / "ana")])
    assert rc == 1
    assert "channel" in capsys.readouterr().err


def test_analyze_benchmark_table(tmp_path, capsys):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    ana_dir = tmp_path / "ana"
    rc = main(["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
               "--points", "10", "--benchmark", "3", "--out", str(ana_dir)])
    assert rc == 0
    table = (ana_dir / "timing.txt").read_text()
    assert "speed-up" in table
    assert "reduced (r=" in table


def test_analyze_dimension_mismatch(tmp_path, capsys):
    manifest_a = _generate(tmp_path, "a", m=1, p=1)
    manifest_b = _generate(tmp_path, "b", m=2, p=2, seed=1)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest_a), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    rc = main(["analyze", "--manifest", str(manifest_b), "--rom", str(rom_dir),
               "--points", "5", "--out", str(tmp_path / "ana")])
    assert rc == 1


def test_analyze_names_a_non_finite_rom_file(tmp_path, capsys):
    manifest = _generate(tmp_path)
    rom_dir = tmp_path / "rom"
    assert main(["reduce", "--manifest", str(manifest), "--r", "3",
                 "--out", str(rom_dir)]) == 0
    K = rom_dir / "rom_K.mtx"
    lines = K.read_text().splitlines()
    lines[-1] = "nan"  # the last entry of the dense array
    K.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["analyze", "--manifest", str(manifest), "--rom", str(rom_dir),
               "--points", "5", "--out", str(tmp_path / "ana")])
    assert rc == 1
    assert "rom_K.mtx has non-finite entries" in capsys.readouterr().err


def test_verify_passes_on_generated_system(tmp_path, capsys):
    manifest = _generate(tmp_path, n1=60, n2=15, m=2, p=2, seed=2)
    rc = main(["verify", "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "schur_equivalence" in out
    assert "hermite_values" in out
    assert "symmetric_one_sided" in out
    assert out.strip().endswith("(0 failing check(s))")


def test_verify_checks_the_backward_error_of_the_systems_route(tmp_path, capsys):
    # a generated system goes modal, the same with damping that is not
    # proportional by LDL^T; both solve within 4 n eps
    system = generate_synthetic(60, 15, 2, 2, seed=2)
    for name, kind in ((system, "modal"), (nonproportional(system), "ldlt")):
        manifest = save_system(name, tmp_path / kind)
        rc = main(["verify", "--manifest", str(manifest), "--r", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        (line,) = [line for line in out.splitlines() if "route_backward_error" in line]
        assert line.startswith(f"PASS route_backward_error: {kind} route")


def test_verify_reports_hand_broken_symmetry_without_failing(tmp_path, capsys):
    import dataclasses

    manifest = _generate(tmp_path, n1=40, n2=10, m=2, p=2, seed=1)
    system = load_system(manifest)
    broken = dataclasses.replace(system, K21=(2.0 * system.K21).tocsc())
    broken_manifest = save_system(broken, tmp_path / "broken")
    rc = main(["verify", "--manifest", str(broken_manifest)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS structure: symmetric false" in out
    assert "symmetric_one_sided" not in out
    assert "FAIL" not in out


@pytest.mark.parametrize("block", ["K12", "F1"])
def test_verify_fails_a_roundtrip_that_changes_one_block(tmp_path, capsys, monkeypatch, block):
    # the check compares every block of the system, sparse or dense
    import dataclasses

    from morkit import cli

    manifest = _generate(tmp_path, n1=40, n2=10, m=1, p=1, seed=0)
    loads = []

    def load_changed(path):
        system = load_system(path)
        loads.append(path)
        if len(loads) == 1:  # the system under test, not its round trip
            return system
        return dataclasses.replace(system, **{block: 1.5 * getattr(system, block)})

    monkeypatch.setattr(cli, "load_system", load_changed)
    rc = main(["verify", "--manifest", str(manifest)])
    assert rc == 1
    assert "FAIL save_load_roundtrip" in capsys.readouterr().out


def test_verify_surfaces_singular_k22(tmp_path, capsys):
    broken = scalar_system(K22=0.0)
    manifest = save_system(broken, tmp_path / "broken")
    rc = main(["verify", "--manifest", str(manifest), "--r", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
