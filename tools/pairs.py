#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent tree and this tree.

    python3 tools/pairs.py --parent DIR --out BENCH_<n>.json --about TEXT \\
        [--pairs 10] [--seed 0] [--seconds 40] [--trace 0] [--workload W ...]

Each tree runs its own ``perfbench/run.py``, one run at a time. Pair i
runs every workload at seed ``--seed + i`` on both sides; the parent
goes first in even pairs and this tree in odd ones, and the workloads
are interleaved within a pair. The script refuses to start when the two
trees' ``perfbench/`` or ``BENCHMARK.json`` differ, since the pairs then
measure different benchmarks.

It writes the final JSON line of every run to ``--out`` as
``{"about", "command", "runs": [{"workload", "seed", "side", "pair",
"trace", "result"}]}``, and prints, for each workload and metric, both
sides' medians and quartiles, the median and quartiles of the per-pair
ratio change / parent, the pairs the change won (ties count for neither
side) and whether a gain could be claimed: the change wins at least nine
tenths of the pairs, and its median is better than the parent's by more
than the parent's interquartile range. That range spans seeds, so it
holds the spread between the seeds' systems as well as noise; the
ratio, taken within each pair, leaves that spread out. The metrics and
their directions come from ``BENCHMARK.json``. The exit code is 1 when
any run reported ``"correct": false`` (the file is still written), 2 on
a usage error.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _fingerprint(tree):
    """SHA-256 of BENCHMARK.json and every file under perfbench/, by path;
    caches and dot-files (run output) are skipped."""
    files = [tree / "BENCHMARK.json"] + sorted(
        path for path in (tree / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
        and not any(part.startswith(".") for part in path.relative_to(tree).parts)
    )
    return {str(path.relative_to(tree)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files if path.exists()}


def _run(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _verdict(parent, change, better):
    """(pairs won by the change, whether a gain can be claimed)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    return wins, wins * 10 >= 9 * len(parent) and gain > q3 - q1


def _ratio(parent, change):
    """Text of the median and quartiles of change / parent over the
    pairs whose parent value is not zero."""
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    if len(ratios) < 2:
        return "ratio n/a"
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return f"ratio {statistics.median(ratios):.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(runs, directions):
    """One report line per workload and metric with values on both sides
    of every pair."""
    lines = []
    workloads = sorted({run["workload"] for run in runs})
    for workload in workloads:
        by_side = {}
        for run in runs:
            if run["workload"] == workload and run["result"]["correct"]:
                by_side.setdefault(run["side"], {})[run["pair"]] = run["result"]["metrics"]
        pairs = sorted(set(by_side.get("parent", {})) & set(by_side.get("change", {})))
        if len(pairs) < 2:
            lines.append(f"{workload}: fewer than two correct pairs")
            continue
        for name, better in directions.items():
            values = [[by_side[side][i].get(name, {}).get("value") for i in pairs]
                      for side in ("parent", "change")]
            if any(v is None for side in values for v in side):
                continue
            parent, change = values
            wins, claim = _verdict(parent, change, better)
            quartiles = [statistics.quantiles(side, n=4) for side in values]
            lines.append(
                f"{workload:13s} {name:40s} parent {statistics.median(parent):.4g} "
                f"[{quartiles[0][0]:.4g}, {quartiles[0][2]:.4g}]  change "
                f"{statistics.median(change):.4g} [{quartiles[1][0]:.4g}, "
                f"{quartiles[1][2]:.4g}]  {_ratio(parent, change)}  won {wins}/{len(pairs)}  "
                f"{'gain' if claim else 'no claim'}"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--about", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    parent = args.parent.resolve()
    if _fingerprint(parent) != _fingerprint(HERE):
        print(f"error: perfbench/ or BENCHMARK.json differ between {parent} and {HERE}",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    directions = {m["name"]: m["better"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}

    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        sides = [("parent", parent), ("change", HERE)]
        for workload in workloads:
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                result = _run(tree, workload, seed, args.seconds, args.trace)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "pair": pair, "trace": args.trace, "result": result})
                print(f"pair {pair} {workload} seed {seed} {side}: "
                      f"{'correct' if result['correct'] else 'NOT CORRECT'}", flush=True)
    args.out.write_text(json.dumps(
        {"about": args.about,
         "command": f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace {args.trace}",
         "runs": runs}, indent=1) + "\n")
    print("\n".join(summarize(runs, directions)))
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
