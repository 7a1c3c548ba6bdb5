#!/usr/bin/env python3
"""Time to a verdict: reductions run to their end on a parent tree and
this tree in turn.

    python3 tools/converge.py --parent DIR --out CONVERGE_<n>.json --about TEXT \\
        [--rounds 1] [--system NAME ...]

The systems are the 16 of ``tools/digests.py`` at the settings
``digests.cases()`` gives them (the benchmark-sized ones keep their
caps), the two golden CLI systems of ``tools/equivalence.py`` and the
README's ``reduce --r 20`` system (``generate --n1 2000 --n2 200 --m 9
--p 9 --seed 0``) at the default settings. Every reduction runs in a
fresh process that imports the library from its tree's ``src/``, with
one BLAS thread, and records:

* the verdict (converged or capped), the outer iterations and the final
  order;
* the inner IRKA runs (``irka_first_order``), their iterations and how
  many of them converged;
* the ``lu.factor`` calls by route and arithmetic, such as
  ``modal-complex`` or ``band-chol-real`` (band Cholesky; K22's own LU
  counts as ``sparse-real`` when the reduction makes it; a system
  loaded from files has it already);
* the wall time of ``irka_second_order_index1``, building or loading the
  system not included.

Round i reduces every system on both sides, the parent first in even
rounds and this tree first in odd ones. The script writes ``{"about",
"rounds", "runs": [{"system", "side", "round", "result"}]}`` to --out
and prints one line per system and side: the verdicts, iterations and
factorizations (each with ``varies`` if the rounds disagree) and the
median wall time. The exit code is 1 when a reduction failed.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

HERE = Path(__file__).resolve().parent
README_SYSTEM = ["--n1", "2000", "--n2", "200", "--m", "9", "--p", "9", "--seed", "0"]
README_CASE = "readme-r20"


def _cases(morkit, digests, equivalence, tmp):
    """(name, make_system, IrkaConfig) of every system, in report order."""
    target = Path(tmp) / README_CASE

    def readme_system():
        with contextlib.redirect_stdout(io.StringIO()):
            morkit.cli.main(["generate", *README_SYSTEM, "--out", str(target)])
        return morkit.load_system(target / "manifest.txt")

    return (equivalence._golden_cases(morkit, tmp) + digests.cases()
            + [(README_CASE, readme_system, morkit.IrkaConfig(r=20))])


ROUTE_KEYS = {"pbtrf": "band-chol", "gbtrf": "band", "getrf": "dense", "sytrf": "ldlt",
              "gstrf": "sparse", "modal": "modal"}


def _route(out):
    """Route key of the factors `out` of one ``lu.factor`` call, from the
    routine that made them: "band-chol" for band Cholesky, "band" for band
    LU (a symmetric band's fallback included)."""
    return ROUTE_KEYS[out.routine]


def measure(tree, name):
    """Reduce system `name` with the library of `tree`; the result dict."""
    import equivalence

    morkit, digests = equivalence._import_tree(tree)
    import morkit.cli  # noqa: F401  (the golden and README systems are generated by it)

    warnings.simplefilter("ignore", morkit.ConvergenceWarning)
    warnings.simplefilter("ignore", morkit.RankDeficiencyWarning)
    factors, inner = {}, []
    lu, irka = morkit.lu, morkit.irka
    factor, first_order = lu.factor, irka.irka_first_order

    def counting_factor(*args, **kwargs):
        out = factor(*args, **kwargs)
        key = f"{_route(out)}-{'complex' if out.dtype.kind == 'c' else 'real'}"
        factors[key] = factors.get(key, 0) + 1
        return out

    def counting_first_order(*args, **kwargs):
        out = first_order(*args, **kwargs)
        inner.append((out.iterations, out.converged))
        return out

    with tempfile.TemporaryDirectory() as tmp:
        cases = {case[0]: case[1:] for case in _cases(morkit, digests, equivalence, tmp)}
        make_system, config = cases[name]
        system = make_system()
        lu.factor, irka.irka_first_order = counting_factor, counting_first_order
        start = time.perf_counter()
        rom, trace = morkit.irka_second_order_index1(system, config)
        seconds = time.perf_counter() - start
    return {
        "converged": bool(trace.converged),
        "outer_iterations": int(trace.iterations),
        "final_order": int(rom.order),
        "inner_runs": len(inner),
        "inner_iterations": sum(its for its, _ in inner),
        "inner_converged": sum(bool(ok) for _, ok in inner),
        "factor_calls": dict(sorted(factors.items())),
        "seconds": seconds,
    }


def system_names():
    """Every system's name, in report order, without building any."""
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "perfbench")]
    import digests
    import equivalence

    return list(equivalence.GOLDEN_CASES) + [c[0] for c in digests.cases()] + [README_CASE]


def _run(tree, name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "converge.py"), "measure", "--tree", str(tree), name],
        capture_output=True, text=True, check=False,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None


def _same(values):
    """The one value of a list, or ``varies``."""
    return values[0] if all(v == values[0] for v in values) else "varies"


def summarize(runs):
    """One report line per system and side, systems in first-run order."""
    lines, names = [], list(dict.fromkeys(run["system"] for run in runs))
    for name in names:
        for side in ("parent", "change"):
            results = [run["result"] for run in runs
                       if run["system"] == name and run["side"] == side]
            done = [r for r in results if r is not None]
            if not results:
                continue
            if len(done) < len(results):
                lines.append(f"{name:18s} {side:6s} {len(results) - len(done)} of "
                             f"{len(results)} reductions failed")
                continue
            verdict = _same(["converged" if r["converged"] else "capped" for r in done])
            factors = _same([r["factor_calls"] for r in done])
            if isinstance(factors, dict):
                factors = f"{sum(factors.values())} (" + ", ".join(
                    f"{key} {count}" for key, count in factors.items()) + ")"
            outer, inner, inner_runs, order = (_same([r[key] for r in done]) for key in (
                "outer_iterations", "inner_iterations", "inner_runs", "final_order"))
            lines.append(
                f"{name:18s} {side:6s} {verdict:9s} outer {outer}  inner {inner} in {inner_runs}"
                f" runs  order {order}  lu.factor {factors}"
                f"  {statistics.median(r['seconds'] for r in done):.3f} s"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command")
    one = sub.add_parser("measure", help="reduce one system with one tree (a child process)")
    one.add_argument("--tree", type=Path, required=True)
    one.add_argument("name")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--about")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--system", action="append")
    args = parser.parse_args(argv)
    if args.command == "measure":
        print(json.dumps(measure(args.tree.resolve(), args.name)))
        return 0
    if args.parent is None or args.out is None or args.about is None:
        parser.error("--parent, --out and --about are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    names = args.system or system_names()
    sides = [("parent", args.parent.resolve()), ("change", HERE.parent)]
    runs = []
    for rnd in range(args.rounds):
        for name in names:
            for side, tree in sides if rnd % 2 == 0 else sides[::-1]:
                result = _run(tree, name)
                runs.append({"system": name, "side": side, "round": rnd, "result": result})
                took = "failed" if result is None else f"{result['seconds']:.2f} s"
                print(f"round {rnd} {name} {side}: {took}", flush=True)
    args.out.write_text(json.dumps({"about": args.about, "rounds": args.rounds,
                                    "runs": runs}, indent=1) + "\n")
    print("\n".join(summarize(runs)))
    return 0 if all(run["result"] is not None for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
