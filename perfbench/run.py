#!/usr/bin/env python3
"""morkit benchmark: reduce and sweep timings on seeded workloads.

    python3 perfbench/run.py --workload synth-fill --seed 0 --seconds 40 --trace 0

The library is imported from the ``src/`` directory next to this one.
Each run generates its workload's system from the seed, writes it with
``save_system`` and times the public API on it:

* ``--trace 0`` times ``load_system``, ``irka_second_order_index1``,
  ``sweep`` and a loop over ``eval_reduced`` and reports the end-to-end
  metrics;
* ``--trace 1`` wraps the layer modules (see tracing.py) and reports
  the per-layer metrics, including the tracing overhead against
  untraced reductions in the same process.

Every run checks its outputs (interpolation residuals, a finite ROM,
stability where it is guaranteed, a clean sweep) and that repeats of
one seed give identical results. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
exit code is 0 only when every check passed. README.md documents the
metrics and workloads.
"""

import argparse
import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

# numpy, scipy and morkit are imported inside functions: OpenBLAS reads
# its thread count when numpy is first imported, after pin_blas_threads()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
# glibc mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
MALLOC_THRESHOLDS = {-3: 4 * 1024 * 1024, -1: 8 * 1024 * 1024}

SETUP_LOADS_PER_ROUND = 3
MIN_ROUNDS = 2
MAX_ROUNDS = 200
# ROM evaluation after each reduction and each sweep, relative to its time
EVAL_SHARE = 0.25
# untimed evaluation loops after each reduction or sweep, before the timed ones
EVAL_WARMUP_LOOPS = 1
# interpolation residuals measured 2e-14 to 8e-12 on morkit 0.1.0
RESIDUAL_TOL = 1e-7
GATE_SHIFTS = 3
# a ROM whose worst sweep error reaches this is no longer a useful model
QUALITY_CEILING = 0.5


class Tally:
    """Attempted and failed operations, with a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def pin_blas_threads():
    """Run BLAS single-threaded, whatever the environment asks for.

    One thread is within any nproc. On a 2-core box shared with other
    work, two OpenBLAS threads made one 20x20 eval_reduced 80x slower
    (8 ms vs 0.1 ms) whenever another process held a core, and an idle
    synth-fill reduction 20% slower; pinning keeps the workload fixed.
    Returns the values the environment had, for the record.
    """
    before = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return before


def pin_malloc_thresholds():
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 8 MiB.

    Blocks of 4 MiB and more, such as synth-fill's LU factors (about
    11 MB each), are then mapped and given back when freed, so peak RSS
    follows the memory the program holds; smaller ones, such as
    chain-sparse's n-long vectors, stay on the heap. Left to glibc's
    dynamic threshold, synth-fill's peak RSS read 120 or 136 MB
    depending on the seed and on allocation order; at glibc's initial
    128 KiB, chain-sparse ran 60% slower. Returns whether the C library
    accepted both settings.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in MALLOC_THRESHOLDS.items())


def environment(nproc, before, malloc_pinned):
    import numpy as np
    import scipy
    from morkit.analysis import THREADS_ENV

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": before,
        "blas_threads": BLAS_THREADS,
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "malloc_thresholds_pinned": malloc_pinned,
    }


def rounds(step, seconds):
    """Call step() until the next call would end after `seconds`.

    Runs at least MIN_ROUNDS rounds; returns the number run. Each round
    times every phase once, so a burst of load from outside the
    process spreads over all metrics instead of spoiling one phase.
    """
    gc.collect()
    durations = []
    start = time.perf_counter()
    while len(durations) < MIN_ROUNDS or (
        len(durations) < MAX_ROUNDS
        and time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
    return len(durations)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def digest(*arrays_or_text):
    h = hashlib.sha256()
    for item in arrays_or_text:
        h.update(item.encode() if isinstance(item, str) else item.tobytes())
    return h.hexdigest()


def rom_digest(rom, trace):
    return digest(trace.format(), rom.M, rom.L, rom.K, rom.F, rom.H, rom.D)


def sweep_digest(result):
    return digest(result.sigma_full, result.sigma_rom, result.rel_err)


def gate_shift_indices(shifts):
    """A fixed subset of the final shifts: smallest, middle and largest
    modulus among the real shifts and upper members of conjugate pairs."""
    import numpy as np

    upper = [i for i in np.argsort(np.abs(shifts), kind="stable") if shifts[i].imag >= 0]
    if len(upper) <= GATE_SHIFTS:
        return upper
    picks = np.linspace(0, len(upper) - 1, GATE_SHIFTS).round().astype(int)
    return [upper[k] for k in picks]


def gate(morkit, system, rom, trace, workload, tally):
    """Correctness checks on one reduction; failures go into `tally`."""
    import numpy as np

    lines = []
    finite = all(np.all(np.isfinite(getattr(rom, k))) for k in "MLKFHD")
    tally.check(finite, "reduced model has non-finite entries")
    lines.append(f"gate rom_finite {finite}")
    interp = trace.final_interpolation
    for i in gate_shift_indices(interp.shifts):
        s = complex(interp.shifts[i])
        G = morkit.eval_full(system, s).G
        Gr = morkit.eval_reduced(rom, s).G
        b = interp.b[i]
        right = np.linalg.norm((G - Gr) @ b) / np.linalg.norm(G @ b)
        tally.check(right <= RESIDUAL_TOL, f"right interpolation residual {right:.3e} at {s}")
        lines.append(f"gate right_residual sigma={s:.6g} {right:.3e}")
        if not workload.one_sided:
            c = interp.c[i]
            left = np.linalg.norm(c @ (G - Gr)) / np.linalg.norm(c @ G)
            tally.check(left <= RESIDUAL_TOL, f"left interpolation residual {left:.3e} at {s}")
            lines.append(f"gate left_residual sigma={s:.6g} {left:.3e}")
    if workload.one_sided:
        report = morkit.stability_report(rom)
        tally.check(report.stable, f"one-sided ROM is unstable "
                                   f"(max real part {report.max_real_part:.3e})")
        lines.append(f"gate stable {report.stable} max_real_part={report.max_real_part:.6g}")
    return lines


def check_sweep(result, tally):
    import numpy as np

    for flag in result.flags:
        tally.check(flag != "failed", "sweep point failed")
    worst = float(np.max(result.rel_err))
    tally.check(np.isfinite(worst) and worst < QUALITY_CEILING,
                f"ROM sweep error {worst:.3e} is not below {QUALITY_CEILING}")
    return worst


def upper_quartile(values):
    """The 75th percentile of `values`, interpolated between samples.

    The end-to-end times are upper quartiles, not medians. The shared
    host this benchmark was tuned on switches between a slow speed and
    one about 1.6x faster, in spells of seconds to a minute, with the
    slow speed the usual one. A run's median is the slow speed if the
    fast spells cover less than half the run and the fast speed if
    they cover more, so it jumped between the two from run to run; the
    upper quartile stays at the slow speed unless three quarters of the
    run was fast.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def summary(name, times, unit, scale=1.0):
    vals = sorted(t * scale for t in times)
    return (f"metric {name} = {upper_quartile(vals):.6g} {unit} "
            f"(upper quartile of {len(vals)}; median {statistics.median(vals):.6g}, "
            f"min {vals[0]:.6g}, max {vals[-1]:.6g})")


class Reductions:
    """Runs the workload's reduction and checks every repeat against the first."""

    def __init__(self, morkit, workload, system, tally, out):
        self.morkit, self.workload, self.system = morkit, workload, system
        self.tally, self.out = tally, out
        self.config = workload.config()
        self.times = []
        self.rom = self.trace = self.digest = None

    def run(self):
        seconds, (rom, trace) = timed(
            lambda: self.morkit.irka_second_order_index1(self.system, self.config))
        self.times.append(seconds)
        if self.digest is None:
            self.rom, self.trace, self.digest = rom, trace, rom_digest(rom, trace)
            self.out.extend(gate(self.morkit, self.system, rom, trace, self.workload,
                                 self.tally))
            self.out.append(f"trace_digest {digest(trace.format())}")
        else:
            self.same(rom, trace, "repeated reduction gave another result")

    def same(self, rom, trace, what):
        self.tally.check(rom_digest(rom, trace) == self.digest, what)


def run_untraced(morkit, workload, manifest, seconds, tally, out):
    """End-to-end metrics from rounds of load, reduce, sweep and ROM evaluation."""
    setup_times = []

    def load():
        elapsed, loaded = timed(lambda: morkit.load_system(manifest))
        setup_times.append(elapsed)
        return loaded

    system = load()
    reductions = Reductions(morkit, workload, system, tally, out)
    omegas, points = workload.sweep_grid(), workload.eval_grid()
    sweep_times, eval_times, first = [], [], {}

    def eval_pass():
        return sum(complex(morkit.eval_reduced(reductions.rom, s).G.sum()) for s in points)

    def evaluate_for(budget):
        """Evaluation loops for `budget` seconds, after EVAL_WARMUP_LOOPS
        untimed ones; the time of every timed loop is a sample."""
        spent, loops = 0.0, 0
        while loops <= EVAL_WARMUP_LOOPS or spent < budget:
            elapsed, total = timed(eval_pass)
            if loops >= EVAL_WARMUP_LOOPS:
                eval_times.append(elapsed)
                spent += elapsed
            loops += 1
            first.setdefault("eval", total)
            tally.check(total == first["eval"] and abs(total) < float("inf"),
                        "ROM evaluation loop gave a non-finite or different result")

    def step():
        for _ in range(SETUP_LOADS_PER_ROUND):
            load()
        reductions.run()
        evaluate_for(EVAL_SHARE * reductions.times[-1])
        elapsed, result = timed(
            lambda: morkit.sweep(system, reductions.rom, omegas, max_workers=1))
        sweep_times.append(elapsed)
        if "sweep" not in first:
            first["sweep"] = sweep_digest(result)
            first["worst"] = check_sweep(result, tally)
        else:
            tally.check(sweep_digest(result) == first["sweep"],
                        "repeated sweep gave another result")
        evaluate_for(EVAL_SHARE * elapsed)

    count = rounds(step, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_sweep, n_eval = len(omegas), len(points)
    out.append(f"rounds {count}")
    out.append(summary("setup_s", setup_times, "s"))
    out.append(summary("reduce_s", reductions.times, "s"))
    out.append(summary("sweep_ms_per_point", sweep_times, "ms", 1e3 / n_sweep))
    out.append(summary("rom_eval_us_per_point", eval_times, "us", 1e6 / n_eval))
    out.append(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB")
    out.append(f"metric rom_max_rel_err = {first['worst']:.6g} 1")
    return {
        "setup_s": (upper_quartile(setup_times), "s"),
        "reduce_s": (upper_quartile(reductions.times), "s"),
        "sweep_ms_per_point": (upper_quartile(sweep_times) * 1e3 / n_sweep, "ms"),
        "rom_eval_us_per_point": (upper_quartile(eval_times) * 1e6 / n_eval, "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(morkit, workload, manifest, seconds, tally, out, spans_path):
    """Per-layer metrics: rounds of an untraced reduction and a traced
    load + reduce + sweep + eval cycle."""
    import tracing

    reductions = Reductions(morkit, workload, morkit.load_system(manifest), tally, out)
    omegas, points = workload.sweep_grid(), workload.eval_grid()
    tracers, cycles, worst = [], [], []

    def step():
        reductions.run()
        tracer = tracing.Tracer()
        with tracer:
            system = morkit.load_system(manifest)
            rom, trace = morkit.irka_second_order_index1(system, reductions.config)
            result = morkit.sweep(system, rom, omegas, max_workers=1)
            for s in points:
                morkit.eval_reduced(rom, s)
        tracers.append(tracer)
        reductions.same(rom, trace, "traced reduction gave another result")
        worst.append(check_sweep(result, tally))
        cycles.append(tracing.layer_metrics(tracer.spans))

    rounds(step, seconds)
    merged, repeated = tracing.median_metrics(cycles)
    for name, same in repeated.items():
        tally.check(same, f"deterministic counter {name} differed between repeats")
    untraced = statistics.median(reductions.times)
    merged["trace.overhead_s"] = (merged["trace.reduce_s"][0] - untraced, "s")
    merged["analysis.rom_max_rel_err"] = (worst[0], "1")
    with open(spans_path, "w") as fh:
        for k, tracer in enumerate(tracers):
            fh.writelines(json.dumps(record) + "\n" for record in tracer.records(cycle=k))
    out.append(f"spans of {len(cycles)} cycles written to {spans_path.relative_to(ROOT)}")
    out.append(summary("untraced reduce_s", reductions.times, "s"))
    for name, (value, unit) in merged.items():
        out.append(f"layer {name} = {value:.6g} {unit}")
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "morkit" / "__init__.py").is_file():
        print(f"error: morkit sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    before = pin_blas_threads()
    malloc_pinned = pin_malloc_thresholds()
    sys.path.insert(0, str(SRC))
    import morkit

    if Path(morkit.__file__).resolve().parent != (SRC / "morkit").resolve():
        print(f"error: imported morkit from {morkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # reaching the outer cap is part of the workload, not news
    warnings.simplefilter("ignore", morkit.ConvergenceWarning)
    warnings.simplefilter("ignore", morkit.RankDeficiencyWarning)

    out = [f"# perfbench workload={workload.name} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}"]
    out.append("env " + json.dumps(environment(nproc, before, malloc_pinned), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    tally = Tally()
    metrics = {}
    try:
        morkit.save_system(workload.make_system(args.seed), workdir)
        manifest = workdir / "manifest.txt"
        if args.trace:
            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
            metrics = run_traced(morkit, workload, manifest, args.seconds, tally, out,
                                 spans_path)
        else:
            metrics = run_untraced(morkit, workload, manifest, args.seconds, tally, out)
    except morkit.MorkitError as exc:
        tally.check(False, f"{type(exc).__name__}: {exc}")
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratio = tally.failed / max(1, tally.attempted)
    out.append(f"metric failed_ratio = {ratio:.6g} 1 "
               f"({tally.failed} failed of {tally.attempted} attempted)")
    out.extend(f"FAILED {note}" for note in tally.notes)
    correct = tally.failed == 0 and bool(metrics)
    print("\n".join(out))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
