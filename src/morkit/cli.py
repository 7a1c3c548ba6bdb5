"""Command-line interface: generate | reduce | analyze | verify.

Settings resolve with the precedence: command-line flags, then a
``key = value`` config file (``--config``), then built-in defaults.
All outputs are written atomically; a seeded run rewrites its outputs
byte-identically (timing artifacts excepted).
"""

import argparse
import dataclasses
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import irka
from .analysis import (
    eval_full,
    eval_reduced,
    schur_equivalence_check,
    speedup_report,
    stability_report,
    sweep,
)
from .errors import MorkitError
from .lu import factor
from .oracles import oracle_finite_difference_derivative
from .sparse import assemble_shifted_augmented
from .system import (
    GENERATE_DAMPING,
    GENERATE_SYMMETRIC,
    atomic_write_text,
    generate_synthetic,
    load_reduced_model,
    load_system,
    read_keyvalue,
    save_reduced_model,
    save_system,
    validate,
)

# reduce settings a --config file may set, with the type of each value
_SETTINGS = {
    "r": int,
    "max_iter": int,
    "shift_tol": float,
    "inner_max_iter": int,
    "inner_tol": float,
    "freq_lo": float,
    "freq_hi": float,
    "seed": int,
    "one_sided": str,
}
_ONE_SIDED = {"auto": None, "on": True, "off": False}


def _irka_config(args, file_kv):
    """Resolve each setting from its flag, then the config file, then the
    :class:`~morkit.irka.IrkaConfig` default."""
    unknown = sorted(set(file_kv) - set(_SETTINGS))
    if unknown:
        raise MorkitError(f"unknown setting(s) in --config file: {', '.join(unknown)}")
    given = {}
    for name, cast in _SETTINGS.items():
        value = getattr(args, name)
        if value is None and name in file_kv:
            try:
                value = cast(file_kv[name])
            except ValueError:
                raise MorkitError(
                    f"setting {name} in {args.config} is not a valid {cast.__name__}: "
                    f"{file_kv[name]!r}"
                ) from None
        if value is not None:
            given[name] = value
    if "r" not in given:
        raise MorkitError("reduced order r missing (give --r or put r in --config)")
    one_sided = given.pop("one_sided", "auto")
    if one_sided not in _ONE_SIDED:
        raise MorkitError(f"one_sided must be auto/on/off, got {one_sided!r}")
    lo, hi = irka.DEFAULT_FREQ_RANGE
    freq_range = (given.pop("freq_lo", lo), given.pop("freq_hi", hi))
    return irka.IrkaConfig(
        **given, freq_range=freq_range, force_one_sided=_ONE_SIDED[one_sided]
    )


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _log_grid(lo, hi, points):
    return np.logspace(math.log10(lo), math.log10(hi), points)


def cmd_generate(args):
    system = generate_synthetic(
        args.n1, args.n2, args.m, args.p,
        seed=args.seed,
        symmetric=args.symmetric,
        proportional_damping=tuple(args.damping),
    )
    manifest = save_system(system, args.out)
    report = validate(system)
    print(f"wrote {manifest}")
    print(report.format(), end="")
    return 0


def cmd_reduce(args):
    file_kv = read_keyvalue(args.config) if args.config else {}
    config = _irka_config(args, file_kv)
    system = load_system(args.manifest)
    rom, trace = irka.irka_second_order_index1(system, config)
    out = Path(args.out)
    save_reduced_model(rom, out)
    atomic_write_text(out / "trace.log", trace.format(include_timings=args.timings))
    if args.index1_form:
        back = irka.back_to_index1(system, trace.final_basis)
        save_system(back, out / "index1")
    marker = out / "NOT_CONVERGED"
    print(f"converged {str(trace.converged).lower()}")
    print(f"iterations {trace.iterations}")
    print(f"final_order {trace.final_order}")
    if not trace.converged:
        atomic_write_text(marker, "IRKA hit the iteration cap before the shift tolerance\n")
        return 2
    marker.unlink(missing_ok=True)
    return 0


def cmd_analyze(args):
    system = load_system(args.manifest)
    rom = load_reduced_model(args.rom)
    if rom.m != system.m or rom.p != system.p:
        raise MorkitError(
            f"reduced model is {rom.p}x{rom.m} but system is {system.p}x{system.m}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    omegas = _log_grid(args.freq[0], args.freq[1], args.points)
    result = sweep(system, rom, omegas, max_workers=args.workers)
    result.write_csv(out / "sweep.csv")
    report = stability_report(rom)
    atomic_write_text(out / "stability.txt", report.format())
    if args.channel:
        i, o = args.channel
        if not (0 <= i < system.m and 0 <= o < system.p):
            raise MorkitError(
                f"channel ({i}, {o}) out of range for m={system.m}, p={system.p}"
            )
        atomic_write_text(out / f"channel_{i}_{o}.csv", result.channel_csv(i, o))
    if args.benchmark:
        timing = speedup_report(system, rom, omegas, repetitions=args.benchmark)
        atomic_write_text(out / "timing.txt", timing.format_table())
        print(timing.format_table(), end="")
    finite = result.rel_err[np.isfinite(result.rel_err)]
    worst = float(np.max(finite)) if finite.size else math.nan
    print(f"wrote {out / 'sweep.csv'}")
    print(f"points {args.points}")
    print(f"max_rel_err {worst:.17g}")
    print(f"stable {str(report.stable).lower()}")
    return 0


def _verify_checks(system, args):
    """Yield (name, passed, detail) for the library's invariants."""
    report = validate(system)
    band = _log_grid(args.freq[0], args.freq[1], args.points)

    # informational: asymmetry is a property, not a defect
    yield "structure", True, (
        f"symmetric {str(report.symmetric).lower()}, "
        f"index1 {str(report.index1).lower()}"
    )

    err = schur_equivalence_check(system, 1j * band)
    yield "schur_equivalence", err <= 1e-10, f"max rel mismatch {err:.3e}"

    A = assemble_shifted_augmented(system, 0.5 + 2.0j)
    lu = factor(A)
    Pr, Pc = lu.permutation_matrices()
    residual = abs(Pr @ A @ Pc - lu.L @ lu.U).max()
    scale = max(1.0, abs(A).max())
    yield "factorization_identity", residual <= 1e-12 * scale, (
        f"|Pr A Pc - L U| = {residual:.3e}"
    )

    interp = irka.initial_interpolation(
        args.r, system.m, system.p, (args.freq[0], args.freq[1]), args.seed
    )
    basis = irka.build_bases(system, interp, one_sided=False)
    rom = irka.reduce(system, basis)
    worst_value = 0.0
    worst_deriv = 0.0
    for k, sigma in enumerate(interp.shifts):
        Gf = eval_full(system, sigma).G
        Gr = eval_reduced(rom, sigma).G
        scale = max(1.0, float(np.max(np.abs(Gf))))
        right = np.linalg.norm((Gf - Gr) @ interp.b[k]) / scale
        left = np.linalg.norm(interp.c[k] @ (Gf - Gr)) / scale
        worst_value = max(worst_value, right, left)
        dGf = oracle_finite_difference_derivative(lambda s: eval_full(system, s).G, sigma)
        dGr = oracle_finite_difference_derivative(lambda s: eval_reduced(rom, s).G, sigma)
        deriv = abs(interp.c[k] @ (dGf - dGr) @ interp.b[k]) / scale
        worst_deriv = max(worst_deriv, deriv)
    yield "hermite_values", worst_value <= 1e-8, f"worst tangential mismatch {worst_value:.3e}"
    yield "hermite_derivatives", worst_deriv <= 1e-6, f"worst derivative mismatch {worst_deriv:.3e}"

    if report.symmetric:
        basis1 = irka.build_bases(system, interp, one_sided=True)
        rom1 = irka.reduce(system, basis1)
        asym = max(
            float(np.max(np.abs(B - B.T))) / max(1.0, float(np.max(np.abs(B))))
            for B in (rom1.M, rom1.L, rom1.K)
        )
        pair = float(np.max(np.abs(rom1.H - rom1.F.T))) / max(
            1.0, float(np.max(np.abs(rom1.H)))
        )
        sym_ok = asym <= 1e-12 and pair <= 1e-12
        stab = stability_report(rom1)
        yield "symmetric_one_sided", sym_ok and stab.stable, (
            f"asymmetry {max(asym, pair):.3e}, stable {stab.stable}"
        )

    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_system(save_system(system, tmp))
        blocks = [(getattr(system, f.name), getattr(loaded, f.name))
                  for f in dataclasses.fields(system)]
        exact = all(abs(a - b).max() == 0.0 if sp.issparse(a) else np.array_equal(a, b)
                    for a, b in blocks)
    yield "save_load_roundtrip", exact, "all block entries reproduced exactly"


def cmd_verify(args):
    system = load_system(args.manifest)
    failures = 0
    for name, passed, detail in _verify_checks(system, args):
        status = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        print(f"{status} {name}: {detail}")
    print(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failing check(s))")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morkit",
        description="Interpolatory model reduction for sparse second-order "
        "index-1 descriptor systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark system")
    gen.add_argument("--n1", type=_positive_int, required=True)
    gen.add_argument("--n2", type=_positive_int, required=True)
    gen.add_argument("--m", type=_positive_int, required=True)
    gen.add_argument("--p", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--symmetric", action=argparse.BooleanOptionalAction,
                     default=GENERATE_SYMMETRIC)
    gen.add_argument("--damping", type=float, nargs=2, default=list(GENERATE_DAMPING),
                     metavar=("ALPHA", "BETA"),
                     help="proportional damping L11 = ALPHA*M11 + BETA*K11")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    red = sub.add_parser("reduce", help="run the second-order IRKA reduction")
    red.add_argument("--manifest", required=True)
    red.add_argument("--r", type=_positive_int, default=None, help="reduced order")
    red.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=None)
    red.add_argument("--shift-tol", dest="shift_tol", type=float, default=None)
    red.add_argument("--inner-max-iter", dest="inner_max_iter", type=_positive_int,
                     default=None)
    red.add_argument("--inner-tol", dest="inner_tol", type=float, default=None)
    red.add_argument("--freq-lo", dest="freq_lo", type=float, default=None)
    red.add_argument("--freq-hi", dest="freq_hi", type=float, default=None)
    red.add_argument("--seed", type=int, default=None)
    red.add_argument("--one-sided", dest="one_sided", choices=("auto", "on", "off"),
                     default=None)
    red.add_argument("--force-two-sided", dest="one_sided", action="store_const",
                     const="off", help="shorthand for --one-sided off")
    red.add_argument("--config", default=None, help="key = value settings file")
    red.add_argument("--timings", action="store_true",
                     help="include wall-clock lines in trace.log")
    red.add_argument("--index1-form", dest="index1_form", action="store_true",
                     help="also write the reduced model re-attached to the "
                     "original algebraic constraints")
    red.add_argument("--out", required=True)
    red.set_defaults(func=cmd_reduce)

    ana = sub.add_parser("analyze", help="frequency sweep and stability report")
    ana.add_argument("--manifest", required=True)
    ana.add_argument("--rom", required=True, help="directory written by reduce")
    ana.add_argument("--points", type=_positive_int, default=200)
    ana.add_argument("--freq", type=_positive_float, nargs=2, default=list(irka.DEFAULT_FREQ_RANGE),
                     metavar=("LO", "HI"))
    ana.add_argument("--channel", type=int, nargs=2, default=None,
                     metavar=("INPUT", "OUTPUT"))
    ana.add_argument("--benchmark", type=_positive_int, default=0,
                     help="also time full vs reduced sweeps (repetitions)")
    ana.add_argument("--workers", type=_non_negative_int, default=None,
                     help="parallel sweep workers, 0 or 1 sequential (default: MORKIT_THREADS)")
    ana.add_argument("--out", required=True)
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run the library invariants on a system")
    ver.add_argument("--manifest", required=True)
    ver.add_argument("--points", type=_positive_int, default=10)
    ver.add_argument("--r", type=_positive_int, default=4,
                     help="order for the interpolation spot-check")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--freq", type=_positive_float, nargs=2, default=list(irka.DEFAULT_FREQ_RANGE),
                     metavar=("LO", "HI"))
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MorkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
