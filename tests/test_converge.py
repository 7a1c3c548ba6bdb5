"""tools/converge.py: the summary of verdicts, iterations, factorizations
and wall times (the reductions themselves are not run here)."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

_PATH = Path(__file__).resolve().parent.parent / "tools" / "converge.py"
_spec = importlib.util.spec_from_file_location("converge", _PATH)
converge = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(converge)


def _result(seconds, converged=True, outer=3, factors=None):
    return {"converged": converged, "outer_iterations": outer, "final_order": 10,
            "inner_runs": 3, "inner_iterations": 40, "inner_converged": 3,
            "factor_calls": factors or {"dense-complex": 12, "dense-real": 3},
            "seconds": seconds}


def _runs(system, side, results):
    return [{"system": system, "side": side, "round": i, "result": r}
            for i, r in enumerate(results)]


def test_summary_gives_each_side_its_counts_and_median_time():
    runs = (_runs("a", "parent", [_result(2.0), _result(4.0), _result(3.0)])
            + _runs("a", "change", [_result(1.0, outer=2), _result(1.5, outer=2),
                                    _result(0.5, outer=2)]))
    parent, change = converge.summarize(runs)
    assert parent.startswith("a ") and " parent " in parent and " change " in change
    assert "converged" in parent and "outer 3 " in parent and "outer 2 " in change
    assert "inner 40 in 3 runs" in parent
    assert "lu.factor 15 (dense-complex 12, dense-real 3)" in parent
    assert parent.endswith(" 3.000 s") and change.endswith(" 1.000 s")


def test_summary_marks_counts_that_differ_between_rounds():
    runs = _runs("a", "change", [_result(1.0), _result(1.0, converged=False, outer=20,
                                                        factors={"band-real": 4})])
    (line,) = converge.summarize(runs)
    assert "varies" in line.split("outer")[0]
    assert "outer varies" in line and "lu.factor varies" in line
    assert "inner 40 in 3 runs" in line  # what agrees is still given


def test_summary_reports_failed_reductions_and_keeps_system_order():
    runs = (_runs("b", "parent", [_result(1.0)]) + _runs("b", "change", [None])
            + _runs("a", "parent", [_result(1.0, converged=False)]))
    lines = converge.summarize(runs)
    assert [line.split()[0] for line in lines] == ["b", "b", "a"]
    assert lines[1] == "b                  change 1 of 1 reductions failed"
    assert "capped" in lines[2]


def test_route_names_the_factorization_path():
    # by the routine that factored: band Cholesky, band LU (a symmetric
    # band's fallback at a real shift included), the two dense routines
    # and SuperLU (the sparse route's, and K22's own LU)
    for routine, key in (("pbtrf", "band-chol"), ("gbtrf", "band"), ("getrf", "dense"),
                         ("sytrf", "ldlt"), ("gstrf", "sparse")):
        assert converge._route(SimpleNamespace(routine=routine)) == key
