#!/usr/bin/env python3
"""Byte-identity digests of 14 seeded reductions.

    python3 tools/digests.py > digests.txt

Each line is ``<system> <digest>``, where the digest is the first 16 hex
digits of a SHA-256 over everything the reduction hands back: the trace
text, the six ROM files as ``save_reduced_model`` writes them, the CSV of
a 12-point ``sweep`` against the full model and the bytes of
``eval_reduced`` at 7 points. The library is imported from the ``src/``
directory next to this one, with one BLAS thread (output bytes depend on
the thread count). To check that a change keeps outputs byte-identical,
run this script in a checkout of the parent commit and in the changed
tree and ``diff`` the two outputs. The systems and digests are the 14
recorded in CHANGES.md for the lean-kernels change (dense solve,
augmented assembly and pivot check).

The systems:

* ``synth150-s0`` .. ``s4``: symmetric 150/30 generated systems, m = p = 2,
  r = 10, one-sided;
* ``mimo-inner-s0`` .. ``s3``: the benchmark's mimo-inner workload, whose
  every inner IRKA runs to its cap and restarts;
* ``nonsym200-s0`` .. ``s2``: nonsymmetric 200/20 systems, m = p = 2,
  r = 10, two-sided;
* ``synth-fill-s0`` and ``chain5000-s0``: the benchmark's synth-fill
  workload and a 5,000-mass chain from its generator (r = 10, at most
  three outer iterations).
"""

import hashlib
import os
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import morkit  # noqa: E402
from chain import generate_chain  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP = np.logspace(1.0, 4.0, 12)
EVAL = 1j * np.logspace(1.1, 3.9, 7)


def _synthetic(n1, n2, seed, symmetric=True):
    return lambda: morkit.generate_synthetic(n1, n2, 2, 2, seed=seed, symmetric=symmetric)


def _workload(name, seed):
    workload = WORKLOADS[name]
    return lambda: workload.make_system(seed), workload.config()


def cases():
    """(name, make_system, IrkaConfig) of every digest, in print order."""
    out = [(f"synth150-s{s}", _synthetic(150, 30, s), morkit.IrkaConfig(r=10))
           for s in range(5)]
    out += [(f"mimo-inner-s{s}", *_workload("mimo-inner", s)) for s in range(4)]
    out += [(f"nonsym200-s{s}", _synthetic(200, 20, s, symmetric=False),
             morkit.IrkaConfig(r=10)) for s in range(3)]
    out.append(("synth-fill-s0", *_workload("synth-fill", 0)))
    out.append(("chain5000-s0", lambda: generate_chain(5000, 2, 0),
                morkit.IrkaConfig(r=10, max_iter=3)))
    return out


def digest(system, config):
    h = hashlib.sha256()
    rom, trace = morkit.irka_second_order_index1(system, config)
    h.update(trace.format().encode())
    with tempfile.TemporaryDirectory() as tmp:
        morkit.save_reduced_model(rom, tmp)
        for path in sorted(Path(tmp).iterdir()):
            h.update(path.read_bytes())
    h.update(morkit.sweep(system, rom, SWEEP, max_workers=1).to_csv().encode())
    for s in EVAL:
        h.update(morkit.eval_reduced(rom, s).G.tobytes())
    return h.hexdigest()[:16]


def main():
    warnings.simplefilter("ignore", morkit.ConvergenceWarning)
    warnings.simplefilter("ignore", morkit.RankDeficiencyWarning)
    for name, make_system, config in cases():
        print(name, digest(make_system(), config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
