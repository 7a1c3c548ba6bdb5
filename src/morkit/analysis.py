"""Frequency-domain verification and reporting.

Full-system transfer evaluations go through the sparse augmented
blocks (one sparse LU per evaluation point, shared across all inputs);
reduced models are evaluated densely. The sweep compares the two along
the imaginary axis and is the basis of the package's verification
story: a reduction is accepted by inspecting rel_err over the band,
not by trusting the iteration.
"""

import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dense import dense_solve, eig_generalized, sigma_max
from .errors import MorkitError
from .irka import companion, factor_augmented
from .oracles import oracle_sampling_equivalence
from .system import atomic_write_text, to_dense_schur

THREADS_ENV = "MORKIT_THREADS"


@dataclass(frozen=True)
class TransferSample:
    """Transfer function value G(s) at one complex point."""

    s: complex
    G: np.ndarray


def eval_full(system, s):
    """Evaluate the full index-1 system's transfer function at s.

    Solves the augmented system with all m right-hand-side columns
    through a single factorization, on the system's route (see
    :func:`~morkit.irka.factor_augmented`), and assembles
    ``G(s) = H1 v + H2 gamma + Da``; the algebraic contribution is kept,
    so feed-through behavior is exact.
    """
    s = complex(s)
    rhs = np.vstack([system.F1, system.F2]).astype(np.complex128)
    sol = factor_augmented(system, s).solve(rhs)
    v, gamma = sol[: system.n1], sol[system.n1 :]
    return TransferSample(s=s, G=system.H1 @ v + system.H2 @ gamma + system.Da)


def eval_reduced(rom, s):
    """Evaluate a reduced model's transfer function at s (dense)."""
    s = complex(s)
    A = (s * s) * rom.M + s * rom.L + rom.K
    X = dense_solve(A, rom.F)
    return TransferSample(s=s, G=rom.H @ X + rom.D)


def schur_equivalence_check(system, points):
    """Largest relative mismatch between the sparse-augmented and dense
    Schur-complement routes to the transfer function.

    The two routes are algebraically identical; this measures the
    numerical agreement ``max |G_aug - G_schur| / max(1, |G_aug|)``
    over the given complex points. Intended for reference-scale
    systems (the dense route materializes the Schur complement).
    """
    schur = to_dense_schur(system)
    return oracle_sampling_equivalence(
        lambda s: eval_full(system, s).G, lambda s: eval_reduced(schur, s).G, points
    )


@dataclass
class FrequencySweep:
    """Pointwise comparison of full and reduced frequency responses.

    ``flags[i]`` is "ok" when rel_err is relative, "absolute" when the
    full response vanished at that point (the error is then absolute),
    and "failed" when the evaluation broke down (entries are NaN).
    """

    omega: np.ndarray
    sigma_full: np.ndarray
    sigma_rom: np.ndarray
    rel_err: np.ndarray
    flags: list
    G_full: np.ndarray
    G_rom: np.ndarray

    def to_csv(self):
        lines = ["omega,sigma_full,sigma_rom,rel_err,flag"]
        for k in range(self.omega.shape[0]):
            lines.append(
                f"{self.omega[k]:.17g},{self.sigma_full[k]:.17g},"
                f"{self.sigma_rom[k]:.17g},{self.rel_err[k]:.17g},{self.flags[k]}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        atomic_write_text(path, self.to_csv())

    def channel_csv(self, i, o):
        """CSV of |G[o, i]| for one input/output channel pair."""
        lines = ["omega,abs_full,abs_rom"]
        for k in range(self.omega.shape[0]):
            lines.append(
                f"{self.omega[k]:.17g},{abs(self.G_full[k, o, i]):.17g},"
                f"{abs(self.G_rom[k, o, i]):.17g}"
            )
        return "\n".join(lines) + "\n"


def _threads_from_env():
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 0
    if not raw.isdecimal():  # digits only: no sign, no fraction
        raise ValueError(f"{THREADS_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


def sweep(system, rom, omegas, max_workers=None):
    """Compare full vs reduced response at s = j*omega over a grid.

    rel_err is sigma_max(G_full - G_rom) / sigma_max(G_full), falling
    back to the absolute error where the full response vanishes. Points
    are independent; ``max_workers`` > 1 (default: the MORKIT_THREADS
    environment variable, 0 meaning sequential) evaluates them in a
    thread pool. Results are positionally ordered either way. Every
    point factors on the system's route, decided from its pattern
    before the first point (see :func:`~morkit.irka.factor_augmented`),
    so the results do not depend on ``max_workers``.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    p, m = rom.p, rom.m
    if max_workers is None:
        max_workers = _threads_from_env()
    # read here, not by the workers: from Python 3.12 on a cached_property
    # has no lock, and every racing worker would build its own route
    system.route

    def one_point(omega):
        s = 1j * omega
        try:
            Gf = eval_full(system, s).G
            Gr = eval_reduced(rom, s).G
        except MorkitError:
            nanblock = np.full((p, m), np.nan, dtype=np.complex128)
            return math.nan, math.nan, math.nan, "failed", nanblock, nanblock
        sf = sigma_max(Gf)
        sr = sigma_max(Gr)
        diff = sigma_max(Gf - Gr)
        if sf > 0.0:
            return sf, sr, diff / sf, "ok", Gf, Gr
        return sf, sr, diff, "absolute", Gf, Gr

    if max_workers and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(one_point, omegas))
    else:
        results = [one_point(w) for w in omegas]

    sigma_full = np.array([res[0] for res in results])
    sigma_rom = np.array([res[1] for res in results])
    rel_err = np.array([res[2] for res in results])
    flags = [res[3] for res in results]
    G_full = np.stack([res[4] for res in results])
    G_rom = np.stack([res[5] for res in results])
    return FrequencySweep(
        omega=omegas, sigma_full=sigma_full, sigma_rom=sigma_rom,
        rel_err=rel_err, flags=flags, G_full=G_full, G_rom=G_rom,
    )


@dataclass
class StabilityReport:
    """Asymptotic stability of a reduced second-order model.

    Judged from the companion pencil's 2r eigenvalues. A singular
    reduced mass matrix leaves the pencil without a full eigenvalue set;
    the report is then marked indeterminate (and not stable).
    """

    eigenvalues: np.ndarray
    stable: bool
    max_real_part: float
    indeterminate: bool = False
    message: str = ""

    def format(self):
        lines = [
            f"stable {str(self.stable).lower()}",
            f"indeterminate {str(self.indeterminate).lower()}",
            f"max_real_part {self.max_real_part:.17g}",
            f"eigenvalue_count {self.eigenvalues.shape[0]}",
        ]
        lines.extend(
            f"  {z.real:.17g}{z.imag:+.17g}j" for z in self.eigenvalues
        )
        if self.message:
            lines.append(f"note {self.message}")
        return "\n".join(lines) + "\n"


def stability_report(rom):
    """Eigenvalue-based stability verdict for a reduced model."""
    pencil = companion(rom)
    try:
        values, _, _ = eig_generalized(pencil.A, pencil.E)
    except MorkitError as exc:
        return StabilityReport(
            eigenvalues=np.empty(0, dtype=np.complex128),
            stable=False,
            max_real_part=math.nan,
            indeterminate=True,
            message=str(exc),
        )
    values = values[np.lexsort((values.imag, values.real))]
    max_real = float(np.max(values.real))
    return StabilityReport(
        eigenvalues=values, stable=bool(max_real < 0.0), max_real_part=max_real
    )


@dataclass
class SpeedupReport:
    """Median whole-sweep timings of the full system vs a reduced model."""

    n1: int
    n2: int
    order: int
    points: int
    repetitions: int
    full_seconds: float
    rom_seconds: float

    @property
    def speedup(self):
        return self.full_seconds / self.rom_seconds

    def format_table(self):
        header = f"{'model':<28}{'time per sweep (s)':>22}{'speed-up':>12}"
        full_row = (
            f"{f'full (n1={self.n1}, n2={self.n2})':<28}"
            f"{self.full_seconds:>22.6f}{1.0:>12.1f}"
        )
        rom_row = (
            f"{f'reduced (r={self.order})':<28}"
            f"{self.rom_seconds:>22.6f}{self.speedup:>12.1f}"
        )
        note = f"# median of {self.repetitions} sweeps over {self.points} points"
        return "\n".join([note, header, full_row, rom_row]) + "\n"


def speedup_report(system, rom, omegas, repetitions=3):
    """Measure the evaluation speed-up of a reduced model.

    Runs the full-system and reduced-model frequency sweeps
    ``repetitions`` times each (one untimed warm-up pass apiece) and
    reports the median wall time per sweep. At least 3 repetitions are
    required so the median means something. The full passes factor as
    :func:`sweep` does, every point on the system's route.
    """
    if repetitions < 3:
        raise ValueError(f"need at least 3 repetitions, got {repetitions}")
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))

    def median_pass_seconds(evaluate):
        times = []
        for _ in range(repetitions + 1):  # the first pass is an untimed warm-up
            t0 = time.perf_counter()
            for omega in omegas:
                sigma_max(evaluate(1j * omega).G)
            times.append(time.perf_counter() - t0)
        return statistics.median(times[1:])

    return SpeedupReport(
        n1=system.n1,
        n2=system.n2,
        order=rom.order,
        points=omegas.shape[0],
        repetitions=repetitions,
        full_seconds=median_pass_seconds(lambda s: eval_full(system, s)),
        rom_seconds=median_pass_seconds(lambda s: eval_reduced(rom, s)),
    )
