#!/usr/bin/env python3
"""Byte-identity digests of 16 seeded reductions.

    python3 tools/digests.py > digests.txt

Each line is ``<system> <digest>``, where the digest is the first 16 hex
digits of a SHA-256 over everything the reduction hands back: the trace
text, the six ROM files as ``save_reduced_model`` writes them, the CSV of
a 12-point ``sweep`` against the full model and the bytes of
``eval_reduced`` at 7 points. The library is imported from the ``src/``
directory next to this one, with one BLAS thread (output bytes depend on
the thread count). To check that a change keeps outputs byte-identical,
run this script in a checkout of the parent commit and in the changed
tree and ``diff`` the two outputs. The first 14 systems are those of the
lean-kernels change (dense solve, augmented assembly and pivot check).
Their digests changed twice since, each time checked by
``tools/equivalence.py``: when the factorizations of a reduction and of a
sweep began to share one column order (only the chain's stayed), and when
real shifts began to be factored in float64 and near-dense fill to switch
later factorizations to LAPACK (all 14 changed; the trace now carries a
``lu_route`` line). Dropping the shared column order again, so that every
sparse factorization runs minimum degree itself, kept every digest; the
two-sided chain was added then, equal before and after. The
benchmark-sized chain was added next, so that a change to its rounding
shows here too. The three chains' digests changed when their later
factorizations moved from SuperLU to LAPACK's banded LU, checked by
``tools/equivalence.py``; the other 13 stayed. One assembler for the
shifted augmented matrix, on one pattern at every shift, kept all 16.
All 16 changed when each system's route came to be decided once from
its augmented pattern, so that a run's first factorization takes that
route instead of SuperLU; ``tools/equivalence.py`` passed, and every
``lu_route`` line stayed the same. All 16 changed again when
``orthonormalize`` moved from Gram-Schmidt to one Householder QR and the
inner IRKA began to solve through one eigendecomposition of its pencil;
``tools/equivalence.py`` passed. All 16 changed again when the inner
level came to carry its eigen-data as arrays, each eigenvector scaled
once and every direction formed by block products, and the outer shift
update began to mirror an unstable reduced pole into the right
half-plane; ``tools/equivalence.py`` passed. The six symmetric dense
systems (``synth150-s0`` .. ``s4``, ``synth-fill-s0``) changed when
exactly symmetric systems of dense fill began to factor by LDL^T
(``?sytrf``, trace line ``lu_route ldlt``); ``tools/equivalence.py``
passed, and the other 10 stayed. The current record::

    synth150-s0 804076695aad3ccb
    synth150-s1 46c2145e215053f2
    synth150-s2 e207c92a6b1e9d6d
    synth150-s3 4a62c8e4f39b0669
    synth150-s4 20df54d7e333cf56
    mimo-inner-s0 1889342109a5f95c
    mimo-inner-s1 7e2c383ea9c570bb
    mimo-inner-s2 7a124dbe6a18d153
    mimo-inner-s3 8e34e5345f31a11d
    nonsym200-s0 3c4fedbc301ac224
    nonsym200-s1 e56b5b1f1880c84e
    nonsym200-s2 4c8276d0bfbc4c8b
    synth-fill-s0 42ec59e65afd0f49
    chain5000-s0 dceeadc7e35471fc
    chain5000-s0-2s efa9347515adadc4
    chain50000-s0 1a94390a3d25563a

The systems:

* ``synth150-s0`` .. ``s4``: symmetric 150/30 generated systems, m = p = 2,
  r = 10, one-sided;
* ``mimo-inner-s0`` .. ``s3``: the benchmark's mimo-inner workload, whose
  every inner IRKA runs to its cap and restarts;
* ``nonsym200-s0`` .. ``s2``: nonsymmetric 200/20 systems, m = p = 2,
  r = 10, two-sided;
* ``synth-fill-s0`` and ``chain5000-s0``: the benchmark's synth-fill
  workload and a 5,000-mass chain from its generator (r = 10, at most
  three outer iterations);
* ``chain5000-s0-2s``: the same chain reduced two-sided, the one case
  whose left solves go through the band route's transposed solve
  (``?gbtrs``; the other two-sided systems take the dense route);
* ``chain50000-s0``: the benchmark's chain-sparse system (50,000 masses,
  r = 10, at most three outer iterations).
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
    out.append(("chain5000-s0-2s", lambda: generate_chain(5000, 2, 0),
                morkit.IrkaConfig(r=10, max_iter=3, force_one_sided=False)))
    out.append(("chain50000-s0", lambda: generate_chain(50_000, 2, 0),
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
