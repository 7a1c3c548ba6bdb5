"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps the public functions of morkit's layer modules
(``system``, ``sparse``, ``lu``, ``dense``, ``irka``, ``analysis``) for
the duration of a ``with`` block. Every function is replaced under each
name it is looked up by (``irka.orthonormalize`` as well as
``dense.orthonormalize``, ``analysis.factor_augmented`` as well as
``irka.factor_augmented``), so calls between modules are caught too;
the originals are put back on exit. ``cli`` is not wrapped (its own
work is argument parsing and file writes) and neither is ``oracles``,
the independent test reference.

Spans are kept in memory as (name, start, end, parent, info) and
written out only when the benchmark ends. A span's self time is its
duration minus the durations of its direct children. Bookkeeping a
wrapper does after a call (reading the fill of a factorization, say)
is recorded as a ``trace.bookkeeping`` child of the caller, so it never
lands in any layer's self time.
"""

import functools
import statistics
import time
from dataclasses import dataclass

import morkit
from morkit import analysis, dense, irka, lu, sparse, system
from morkit.errors import ShiftCollisionError

NAMESPACES = (morkit, system, sparse, lu, dense, irka, analysis)
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: dict | None

    @property
    def seconds(self):
        return self.end - self.start


def _factor_info(args, kwargs, out):
    fill = out.L.nnz + out.U.nnz - out.n  # L's unit diagonal is stored
    itemsize = out.dtype.itemsize
    return {
        "complex": bool(out.dtype.kind == "c"),
        "n": out.n,
        "fill": fill,
        # CSC values plus 32-bit row indices of L and U, not measured
        "bytes": fill * (itemsize + 4),
    }


def _orthonormalize_info(args, kwargs, out):
    V = args[0]
    given = 1 if V.ndim == 1 else V.shape[1]
    return {"dropped": given - out.shape[1]}


def _first_order_info(args, kwargs, out):
    return {"iterations": out.iterations, "converged": out.converged}


def _outer_info(args, kwargs, out):
    rom, trace = out
    return {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "right_solves": trace.right_solves,
        "left_solves": trace.left_solves,
        "final_order": trace.final_order,
        "requested_order": trace.requested_order,
        "lhp_shifts": int(sum(s.real <= 0 for s in trace.final_interpolation.shifts)),
    }


def _shift_info(args, kwargs, out):
    sigma = kwargs["sigma"] if "sigma" in kwargs else args[1]
    return {"real_shift": complex(sigma).imag == 0.0}


def _nnz_info(args, kwargs, out):
    return {"nnz": out.nnz}


# (owner, attribute, span name, info hook); module functions are found
# again under every namespace that imported them
TARGETS = (
    (system, "load_system", "system.load_system", None),
    (system, "validate", "system.validate", None),
    (sparse, "assemble_shifted_augmented", "sparse.assemble_shifted_augmented", _nnz_info),
    (lu, "factor", "lu.factor", _factor_info),
    (lu, "_check_pivots", "lu.check_pivots", None),
    (lu.SparseLU, "solve", "lu.solve", None),
    (lu.SparseLU, "solve_transposed", "lu.solve_transposed", None),
    (dense, "orthonormalize", "dense.orthonormalize", _orthonormalize_info),
    (dense, "dense_solve", "dense.dense_solve", None),
    (dense, "eig_generalized", "dense.eig_generalized", None),
    (dense, "sigma_max", "dense.sigma_max", None),
    (irka, "factor_augmented", "irka.factor_augmented", _shift_info),
    (irka, "build_bases", "irka.build_bases", None),
    (irka, "reduce", "irka.reduce", None),
    (irka, "companion", "irka.companion", None),
    (irka, "irka_first_order", "irka.irka_first_order", _first_order_info),
    (irka, "update_interpolation", "irka.update_interpolation", None),
    (irka, "irka_second_order_index1", "irka.irka_second_order_index1", _outer_info),
    (irka, "_perturb", "irka.perturb", None),
    (analysis, "eval_full", "analysis.eval_full", None),
    (analysis, "eval_reduced", "analysis.eval_reduced", None),
    (analysis, "sweep", "analysis.sweep", None),
)


class Tracer:
    """Context manager that records spans around morkit's layer functions."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, fn, name, info_hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = Span(name, start, time.perf_counter(), parent,
                                    {"raised": type(exc).__name__})
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            info = info_hook(args, kwargs, out) if info_hook else None
            spans[index] = Span(name, start, end, parent, info)
            if info_hook:
                spans.append(Span(BOOKKEEPING, end, time.perf_counter(), parent, None))
            return out

        return wrapper

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already active")
        for owner, attribute, name, hook in TARGETS:
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                owners = [owner]
            else:
                owners = [ns for ns in NAMESPACES if getattr(ns, attribute, None) is original]
            for ns in owners:
                self._patched.append((ns, attribute, original))
                setattr(ns, attribute, wrapper)
        return self

    def __exit__(self, *exc_info):
        for ns, attribute, original in reversed(self._patched):
            setattr(ns, attribute, original)
        leftover = [f"{getattr(ns, '__name__', ns)}.{attribute}"
                    for ns, attribute, original in self._patched
                    if getattr(ns, attribute) is not original]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"tracer could not restore {leftover}")
        return False

    def records(self, **extra):
        """The spans as JSON-ready dicts, each tagged with `extra`."""
        return [
            dict(extra, id=i, name=span.name, start=span.start, end=span.end,
                 parent=span.parent, info=span.info)
            for i, span in enumerate(self.spans)
        ]


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    out = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.seconds
    return out


def _ancestor(spans, index, names):
    """Name of the nearest ancestor of span `index` whose name is in `names`."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return spans[parent].name
        parent = spans[parent].parent
    return None


def layer_metrics(spans):
    """Per-layer counters and self times of one traced cycle.

    `spans` are the spans of one load + reduce + sweep + eval cycle,
    recorded by one tracer. Returns a dict of
    name -> (value, unit, deterministic).
    """
    own = self_times(spans)
    calls, self_s = {}, {}
    for span, t in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + t

    def by_name(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    factors = [s.info for _, s in by_name("lu.factor") if s.info]
    widest = max(factors, key=lambda f: f["fill"])
    outer = [s.info for _, s in by_name("irka.irka_second_order_index1")][-1]
    inner = [s.info for _, s in by_name("irka.irka_first_order") if s.info]
    restarts = 0
    for i, _ in by_name("irka.update_interpolation"):
        runs = sum(1 for s in spans if s.parent == i and s.name == "irka.irka_first_order")
        restarts += max(0, runs - 1)
    ortho = {"irka.build_bases": 0.0, "irka.irka_first_order": 0.0}
    for i, _ in by_name("dense.orthonormalize"):
        owner = _ancestor(spans, i, ortho)
        if owner is not None:
            ortho[owner] += own[i]
    collisions = sum(
        1 for _, s in by_name("irka.factor_augmented")
        if s.info and s.info.get("raised") == ShiftCollisionError.__name__
    )

    def count(name):
        return calls.get(name, 0)

    def secs(name):
        return self_s.get(name, 0.0)

    metrics = {
        "lu.factor.calls": (count("lu.factor"), "count", True),
        "lu.factor.self_s": (secs("lu.factor"), "s", False),
        "lu.factor.real_calls": (sum(not f["complex"] for f in factors), "count", True),
        "lu.factor.complex_calls": (sum(f["complex"] for f in factors), "count", True),
        "irka.factor_augmented.real_shift_calls": (
            sum(1 for _, s in by_name("irka.factor_augmented")
                if s.info and s.info.get("real_shift")), "count", True),
        "lu.fill_nnz": (widest["fill"], "count", True),
        "lu.fill_frac": (widest["fill"] / widest["n"] ** 2, "1", True),
        "lu.factor.bytes_computed": (sum(f["bytes"] for f in factors), "B", True),
        "lu.check_pivots.self_s": (secs("lu.check_pivots"), "s", False),
        "lu.solve.calls": (count("lu.solve"), "count", True),
        "lu.solve.self_s": (secs("lu.solve"), "s", False),
        "lu.solve_transposed.calls": (count("lu.solve_transposed"), "count", True),
        "lu.solve_transposed.self_s": (secs("lu.solve_transposed"), "s", False),
        "sparse.assemble_shifted_augmented.calls":
            (count("sparse.assemble_shifted_augmented"), "count", True),
        "sparse.assemble_shifted_augmented.self_s":
            (secs("sparse.assemble_shifted_augmented"), "s", False),
        "sparse.assemble_shifted_augmented.nnz": (
            max((s.info["nnz"] for _, s in by_name("sparse.assemble_shifted_augmented")
                 if s.info), default=0), "count", True),
        "irka.build_bases.self_s": (secs("irka.build_bases"), "s", False),
        "irka.build_bases.orthonormalize.self_s":
            (ortho["irka.build_bases"], "s", False),
        "irka.reduce.self_s": (secs("irka.reduce"), "s", False),
        "irka.companion.self_s": (secs("irka.companion"), "s", False),
        "irka.update_interpolation.s": (
            sum(s.seconds for _, s in by_name("irka.update_interpolation")), "s", False),
        "irka.irka_first_order.orthonormalize.self_s":
            (ortho["irka.irka_first_order"], "s", False),
        "dense.dense_solve.calls": (count("dense.dense_solve"), "count", True),
        "dense.dense_solve.self_s": (secs("dense.dense_solve"), "s", False),
        "dense.eig_generalized.calls": (count("dense.eig_generalized"), "count", True),
        "dense.eig_generalized.self_s": (secs("dense.eig_generalized"), "s", False),
        "irka.outer_iterations": (outer["iterations"], "count", True),
        "irka.converged": (int(outer["converged"]), "1", True),
        "irka.irka_first_order.calls": (len(inner), "count", True),
        "irka.irka_first_order.iterations":
            (sum(f["iterations"] for f in inner), "count", True),
        "irka.irka_first_order.cap_hits":
            (sum(not f["converged"] for f in inner), "count", True),
        "irka.update_interpolation.restarts": (restarts, "count", True),
        "irka.inner_converged_ratio":
            (sum(f["converged"] for f in inner) / max(1, len(inner)), "1", True),
        "irka.right_solves": (outer["right_solves"], "count", True),
        "irka.left_solves": (outer["left_solves"], "count", True),
        "irka.shift_retries": (collisions + count("irka.perturb"), "count", True),
        "dense.orthonormalize.dropped_cols": (
            sum(s.info["dropped"] for _, s in by_name("dense.orthonormalize") if s.info),
            "count", True),
        "irka.final_lhp_shifts": (outer["lhp_shifts"], "count", True),
        "irka.basis_rank_ratio":
            (outer["final_order"] / outer["requested_order"], "1", True),
        "analysis.eval_full.calls": (count("analysis.eval_full"), "count", True),
        "analysis.eval_full.self_s": (secs("analysis.eval_full"), "s", False),
        "dense.sigma_max.calls": (count("dense.sigma_max"), "count", True),
        "dense.sigma_max.self_s": (secs("dense.sigma_max"), "s", False),
        "analysis.sweep.self_s": (secs("analysis.sweep"), "s", False),
        "analysis.eval_reduced.calls": (count("analysis.eval_reduced"), "count", True),
        "analysis.eval_reduced.self_s": (secs("analysis.eval_reduced"), "s", False),
        "system.load_system.self_s": (secs("system.load_system"), "s", False),
        "system.validate.self_s": (secs("system.validate"), "s", False),
    }
    # shares of the traced reduction, less the tracer's own bookkeeping
    reduce_wall = sum(s.seconds for _, s in by_name("irka.irka_second_order_index1"))
    inside = [_ancestor(spans, i, {"irka.irka_second_order_index1"}) is not None
              for i in range(len(spans))]

    def inside_reduce(name, times):
        return sum(t for t, s, ins in zip(times, spans, inside) if ins and s.name == name)

    work = reduce_wall - inside_reduce(BOOKKEEPING, own)
    metrics["trace.reduce.lu.factor_share"] = (inside_reduce("lu.factor", own) / work, "1", False)
    metrics["trace.reduce.update_interpolation_share"] = (
        inside_reduce("irka.update_interpolation", [s.seconds for s in spans]) / work,
        "1", False)
    metrics["trace.reduce_s"] = (reduce_wall, "s", False)
    metrics["trace.bookkeeping_s"] = (secs(BOOKKEEPING), "s", False)
    return metrics


def median_metrics(cycles):
    """Merge per-cycle metrics: medians of timings, the value of counters.

    Returns (merged, repeated) where repeated maps every deterministic
    counter to whether it had the same value in every cycle.
    """
    merged, repeated = {}, {}
    for name, (value, unit, deterministic) in cycles[0].items():
        values = [cycle[name][0] for cycle in cycles]
        if deterministic:
            repeated[name] = all(v == value for v in values)
            merged[name] = (value, unit)
        else:
            merged[name] = (statistics.median(values), unit)
    return merged, repeated
