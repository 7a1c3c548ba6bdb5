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
passed, and the other 10 stayed. All 16 changed again when the inner
level began to solve every shift of a basis in one block modal solve
(matrix products in place of one matrix-vector product per shift) and
its closure to scale the directions in one batched pass;
``tools/equivalence.py`` passed, with every verdict, final order and
iteration count kept. The three chains' digests changed when the band
route's reverse Cuthill-McKee order began at a pseudo-peripheral node,
which halves their band (``kl = ku = 4`` to 2); ``tools/equivalence.py``
passed, and the other 13 stayed. The three chains' digests changed again
when the real shifts of exactly symmetric band systems began to factor by
band Cholesky (``?pbtrf``/``?pbtrs``), with their right-hand sides built
in float64; ``tools/equivalence.py`` passed, and the other 13 stayed.
The 13 systems of dense fill, all damped proportionally, changed when
such systems began to factor in modal coordinates (trace line
``lu_route modal``) and every real direction on a real shift began to
be solved in float64; ``tools/equivalence.py`` passed, with every
verdict, final order and iteration count kept, and the three chains
stayed. The current record::

    synth150-s0 b43016c8d720c29c
    synth150-s1 b4010b3c0a55c3a6
    synth150-s2 070c00fb42b7129b
    synth150-s3 b9da4d8a0e381e93
    synth150-s4 a964c3635b54bc0a
    mimo-inner-s0 ba5416c6d0a4bf28
    mimo-inner-s1 75db9bb2d69df8fc
    mimo-inner-s2 c3e67f1f6ae0f034
    mimo-inner-s3 c655726971d32016
    nonsym200-s0 cc93393620287287
    nonsym200-s1 e260801ee4128e8a
    nonsym200-s2 16b8282a6466f753
    synth-fill-s0 9757f03dc83594f3
    chain5000-s0 5030ceaaa273da34
    chain5000-s0-2s f3abe7955a61733a
    chain50000-s0 96b59bb248a9b29c

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
  (``?gbtrs``; the other two-sided systems take the modal route);
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
