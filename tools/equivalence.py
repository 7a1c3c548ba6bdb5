#!/usr/bin/env python3
"""Numerical-equivalence rule for changes that move the bits of a reduction.

    python3 tools/equivalence.py dump [--tree DIR] OUT.json
    python3 tools/equivalence.py compare PARENT.json CHANGE.json

``dump`` imports the library from ``DIR/src`` (default: the checkout this
script sits in), with one BLAS thread. It reduces the two golden CLI cases
of ``tests/test_golden.py`` and the 16 systems of ``tools/digests.py``, and
runs acceptance criteria 1-3 from ``DIR/tests``. ``compare`` checks the
change's dump against the rule below, prints a report of both, and exits
1 if the change breaks the rule.

Pass on every system:

* the same verdict (converged or capped) and the same final order as the
  parent;
* right interpolation residuals, and for two-sided runs left residuals,
  of at most 1e-10 at every final shift;
* a finite ROM, and a stable one for one-sided runs;
* criteria 1-3 pass, with their tolerances unchanged.

Pass on runs that converge on both sides: the ROM's largest relative
error over the 60-point sweep against the full model is at most twice the
parent's.

Reported without a bound: iteration counts, the largest relative
difference of matched final shifts (``linear_sum_assignment``), the
largest relative difference of the two ROMs' transfer functions on the
60-point grid, and each run's ``lu_route`` trace line, parent -> change
(the factorization route and the fill that chose it; a change that
flips a route shows there). A change in the LU's rounding can move a capped run's
shifts by O(1), and a converged run may reach another fixed point, so
bounds on these differences would reject any such change; the rule bounds
what has to stay true instead.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
INTERPOLATION_TOL = 1e-10
SWEEP_ERR_FACTOR = 2.0
SWEEP = np.logspace(1.0, 4.0, 60)
GOLDEN_SYSTEM = ["--n1", "150", "--n2", "30", "--m", "2", "--p", "2", "--seed", "5"]
GOLDEN_CASES = {
    "golden-one_sided": ([], {"r": 10}),
    "golden-two_sided": (["--no-symmetric"], {"r": 10, "max_iter": 3}),
}
CRITERIA = ("1_schur", "2_hermite", "3_implicit")


def _import_tree(tree):
    """Import morkit from `tree`/src, then this script's digest cases.

    ``tools/digests.py`` puts its own checkout first on ``sys.path``;
    importing morkit before it keeps the library of `tree`.
    """
    sys.path[:0] = [str(tree / "src"), str(HERE), str(HERE.parent / "perfbench")]
    import morkit
    import digests

    return morkit, digests


def _golden_cases(morkit, tmp):
    """(name, make_system, IrkaConfig) of the two golden CLI runs: the
    system as ``morkit generate`` writes it, the configuration that
    ``morkit reduce`` resolves from the fixture's flags."""
    out = []
    for name, (gen_extra, config) in GOLDEN_CASES.items():
        target = Path(tmp) / name
        with contextlib.redirect_stdout(io.StringIO()):
            morkit.cli.main(["generate", *GOLDEN_SYSTEM, *gen_extra, "--out", str(target)])
        manifest = target / "manifest.txt"
        out.append((name, lambda m=manifest: morkit.load_system(m), morkit.IrkaConfig(**config)))
    return out


def _residuals(morkit, system, rom, interp, left):
    """Largest relative right (or left) tangential interpolation residual
    over the final shifts."""
    worst = 0.0
    for k, sigma in enumerate(interp.shifts):
        Gf = morkit.eval_full(system, sigma).G
        Gr = morkit.eval_reduced(rom, sigma).G
        if left:
            c = interp.c[k]
            err = np.linalg.norm(c @ (Gf - Gr)) / np.linalg.norm(c @ Gf)
        else:
            b = interp.b[k]
            err = np.linalg.norm((Gf - Gr) @ b) / np.linalg.norm(Gf @ b)
        worst = max(worst, float(err))
    return worst


def _run(morkit, system, config):
    rom, trace = morkit.irka_second_order_index1(system, config)
    interp = trace.final_interpolation
    blocks = (rom.M, rom.L, rom.K, rom.F, rom.H, rom.D)
    result = morkit.sweep(system, rom, SWEEP, max_workers=1)
    routes = [line for line in trace.format().splitlines() if line.startswith("lu_route ")]
    return {
        "lu_route": routes[0][len("lu_route "):] if routes else None,
        "converged": bool(trace.converged),
        "order": int(rom.order),
        "iterations": int(trace.iterations),
        "one_sided": bool(trace.one_sided),
        "shifts": [[z.real, z.imag] for z in interp.shifts.tolist()],
        "right_residual": _residuals(morkit, system, rom, interp, left=False),
        "left_residual": (None if trace.one_sided
                          else _residuals(morkit, system, rom, interp, left=True)),
        "finite": bool(all(np.isfinite(block).all() for block in blocks)),
        "stable": morkit.stability_report(rom).stable if trace.one_sided else None,
        "sweep_max_err": float(np.max(result.rel_err)),
        "G_rom": [result.G_rom.real.ravel().tolist(), result.G_rom.imag.ravel().tolist()],
        "G_shape": list(result.G_rom.shape),
    }


def _criteria(tree):
    """Criteria 1-3 as the tree's own acceptance tests run them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    selection = " or ".join(f"criterion_{c}" for c in CRITERIA)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", selection],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    lines = re.findall(r"^\[(?:PASS|FAIL)\] criterion [123],.*$", proc.stdout, re.M)
    return {"passed": proc.returncode == 0 and len(lines) == 3, "lines": lines}


def dump(tree, out):
    morkit, digests = _import_tree(tree)
    import morkit.cli  # noqa: F401  (the golden cases call the CLI's generate)

    warnings.simplefilter("ignore", morkit.ConvergenceWarning)
    warnings.simplefilter("ignore", morkit.RankDeficiencyWarning)
    systems = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_system, config in _golden_cases(morkit, tmp) + digests.cases():
            systems[name] = _run(morkit, make_system(), config)
            print(name, "done", file=sys.stderr, flush=True)
    data = {"tree": str(tree), "systems": systems, "criteria": _criteria(tree)}
    Path(out).write_text(json.dumps(data))
    return 0


def _shifts(entry):
    return np.array([complex(re, im) for re, im in entry["shifts"]])


def _rom_transfer(entry):
    re, im = (np.array(part) for part in entry["G_rom"])
    return (re + 1j * im).reshape(entry["G_shape"])


def _matched_shift_difference(a, b):
    from scipy.optimize import linear_sum_assignment

    if a.shape != b.shape:
        return float("nan")
    cost = np.abs(a[:, None] - b[None, :]) / np.maximum(1.0, np.abs(a))[:, None]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _transfer_difference(a, b):
    if a.shape != b.shape:
        return float("nan")
    return max(
        float(np.linalg.norm(x - y, 2) / np.linalg.norm(x, 2)) for x, y in zip(a, b)
    )


def _absolute_failures(entry):
    """Rule failures of one system that need no parent."""
    out = []
    for side in ("right", "left"):
        value = entry[f"{side}_residual"]
        if value is not None and not value <= INTERPOLATION_TOL:
            out.append(f"{side} residual {value:.2e}")
    if not entry["finite"]:
        out.append("ROM not finite")
    if entry["one_sided"] and not entry["stable"]:
        out.append("one-sided ROM not stable")
    return out


def compare(parent_path, change_path):
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    failed = False
    header = (f"{'system':<18}{'verdict':>11}{'order':>9}{'iters':>7}{'shift diff':>12}"
              f"{'rom diff':>11}{'resid (p/c)':>20}{'sweep err (p -> c)':>24}  rule")
    print(header)
    for name, p in parent["systems"].items():
        c = change["systems"].get(name)
        if c is None:
            print(f"{name:<18} missing from the change's dump")
            failed = True
            continue
        problems = _absolute_failures(c)
        if (p["converged"], p["order"]) != (c["converged"], c["order"]):
            problems.append("verdict or order differs")
        both = p["converged"] and c["converged"]
        if both and not c["sweep_max_err"] <= SWEEP_ERR_FACTOR * p["sweep_max_err"]:
            problems.append(f"sweep error above {SWEEP_ERR_FACTOR:g}x the parent's")
        failed |= bool(problems)
        parent_problems = _absolute_failures(p)
        if parent_problems:  # reported, not held against the change
            problems.append("parent: " + ", ".join(parent_problems))
        verdict = "/".join("conv" if e["converged"] else "cap" for e in (p, c))
        resid_p, resid = (
            max(x for x in (e["right_residual"], e["left_residual"]) if x is not None)
            for e in (p, c)
        )
        print(
            f"{name:<18}{verdict:>11}{p['order']:>5}/{c['order']:<3}"
            f"{p['iterations']:>4}/{c['iterations']:<3}"
            f"{_matched_shift_difference(_shifts(p), _shifts(c)):>12.2e}"
            f"{_transfer_difference(_rom_transfer(p), _rom_transfer(c)):>11.2e}"
            f"{resid_p:>10.1e}/{resid:<9.1e}"
            f"{p['sweep_max_err']:>11.3e} -> {c['sweep_max_err']:<9.3e}  "
            + ("; ".join(problems) if problems else "ok")
        )
    print("lu_route, parent -> change (reported without a bound):")
    for name, p in parent["systems"].items():
        c = change["systems"].get(name)
        if c is not None:
            route, after = p.get("lu_route"), c.get("lu_route")
            print(f"  {name:<18}{route} -> {'same' if after == route else after}")
    for label, data in (("parent", parent), ("change", change)):
        for line in data["criteria"]["lines"]:
            print(f"{label}: {line}")
    if not change["criteria"]["passed"]:
        print("change: criteria 1-3 do not all pass")
        failed = True
    print("rule", "FAILED" if failed else "passed")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="reduce every system with one source tree")
    d.add_argument("--tree", type=Path, default=HERE.parent,
                   help="checkout whose src/ and tests/ are used (default: this one)")
    d.add_argument("out", type=Path)
    c = sub.add_parser("compare", help="check a change's dump against its parent's")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.tree.resolve(), args.out)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
