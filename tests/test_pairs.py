"""tools/pairs.py: the gain rule and the refusal to compare different benchmarks."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _runs(parent, change, name="reduce_s"):
    return [
        {"workload": "w", "seed": i, "side": side, "pair": i, "trace": 0,
         "result": {"correct": True, "metrics": {name: {"value": value, "unit": "s"}}}}
        for i, (p, c) in enumerate(zip(parent, change))
        for side, value in (("parent", p), ("change", c))
    ]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    assert pairs._verdict(parent, [p * 0.6 for p in parent], "lower") == (10, True)
    nine = [p * 0.6 for p in parent[:9]] + [parent[9] * 1.1]
    assert pairs._verdict(parent, nine, "lower") == (9, True)
    eight = nine[:8] + [parent[8], parent[9]]  # a tie counts for neither side
    assert pairs._verdict(parent, eight, "lower") == (8, False)
    # every pair won, but by less than the parent's interquartile range
    assert pairs._verdict(parent, [p - 0.01 for p in parent], "lower") == (10, False)
    assert pairs._verdict(parent, [p * 1.6 for p in parent], "higher") == (10, True)


def test_summary_reports_medians_wins_and_the_claim():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    lines = pairs.summarize(_runs(parent, [p * 0.6 for p in parent]), {"reduce_s": "lower"})
    assert len(lines) == 1
    assert "won 10/10" in lines[0] and lines[0].endswith(" gain")
    assert "ratio 0.6 [0.6, 0.6]" in lines[0]


def test_refuses_trees_whose_benchmarks_differ(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(0)\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": []}))
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--parent", str(tmp_path), "--out", str(out), "--about", "x"]) == 2
    assert not out.exists()


def test_rejects_fewer_than_two_pairs(tmp_path):
    with pytest.raises(SystemExit):
        pairs.main(["--parent", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--about", "x", "--pairs", "1"])
