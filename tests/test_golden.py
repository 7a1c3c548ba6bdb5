"""Golden outputs: two seeded CLI runs must reproduce committed bytes.

The fixtures under ``tests/golden/`` hold ``trace.log``, the six
``rom_*.mtx`` files and a 60-point ``sweep.csv`` for one one-sided run
(symmetric system) and one two-sided run (nonsymmetric system, capped at
three outer iterations, whose inner IRKA takes the dominant-pole
restart). Refactors of the reduction code must leave these bytes
unchanged.

Output bytes depend on the BLAS thread count, so the CLI runs in a
subprocess pinned to one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

SYSTEM = ["--n1", "150", "--n2", "30", "--m", "2", "--p", "2", "--seed", "5"]
CASES = {
    "one_sided": ([], ["--r", "10"]),
    "two_sided": (["--no-symmetric"], ["--r", "10", "--max-iter", "3"]),
}


def _morkit(*args):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "morkit.cli", *args],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs_are_byte_identical(tmp_path, case):
    gen_extra, reduce_args = CASES[case]
    sys_dir, rom_dir, ana_dir = tmp_path / "sys", tmp_path / "rom", tmp_path / "ana"
    manifest = str(sys_dir / "manifest.txt")
    _morkit("generate", *SYSTEM, *gen_extra, "--out", str(sys_dir))
    _morkit("reduce", "--manifest", manifest, *reduce_args, "--out", str(rom_dir))
    _morkit("analyze", "--manifest", manifest, "--rom", str(rom_dir),
            "--points", "60", "--workers", "1", "--out", str(ana_dir))

    expected = sorted(f.name for f in (GOLDEN / case).iterdir())
    assert len(expected) == 8
    for name in expected:
        produced = (ana_dir if name == "sweep.csv" else rom_dir) / name
        assert produced.read_bytes() == (GOLDEN / case / name).read_bytes(), name
