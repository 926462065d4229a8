"""Span tracing of luresim's public functions, installed from outside.

``Tracer`` replaces each traced function, under its name, in every
loaded ``luresim`` module that holds it, so calls made through module
globals inside the library (``integrator`` calling ``solve_output``,
``output_solver`` calling ``enumerate_fibre_exact``) are seen as well as
the benchmark's own calls.  Leaving the ``with`` block puts every
original back.

Each traced call records a span (name, start, end, parent) in compact
arrays kept in memory.  ``Nonlinearity`` evaluations are too many for one
span each (about a million per audit), so only the outermost of
``eval`` / ``eval_scalar`` / ``eval_scalar_array`` is counted and timed,
and the count and time are charged to the enclosing span.  A span's self
time is its duration minus its child spans and its own evaluation time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from luresim.nonlinearity import Nonlinearity
from luresim.output_solver import SolveOptions, exact_structure_available

# Function name -> CheckRecord.name of the probe it runs.
PROBES = {
    "probe_radial_unboundedness": "radial_unbounded",
    "check_upper_lipschitz": "upper_lipschitz",
    "check_lower_lipschitz": "lower_lipschitz",
    "check_determinant_condition": "determinant",
    "check_growth_condition": "growth",
    "check_monotonicity": "monotonicity",
    "probe_fibre_nonempty": "fibre_nonempty",
    "probe_fibre_convexity": "fibre_convex",
}

# (module, function, layer).  The layer names are the per-layer metric
# prefixes; every function listed is public in its module.
TRACED = (
    ("luresim.catalog", "build_example", "catalog"),
    ("luresim.integrator", "simulate", "integrator"),
    ("luresim.integrator", "refine_escape_time", "integrator"),
    ("luresim.integrator", "write_csv", "integrator"),
    ("luresim.integrator", "write_summary_json", "integrator"),
    ("luresim.output_solver", "solve_output", "output_solver"),
    ("luresim.output_solver", "enumerate_fibre_exact", "output_solver"),
    ("luresim.output_solver", "enumerate_fibre_multistart", "output_solver"),
    ("luresim.derivatives", "finite_diff_jacobian", "derivatives"),
    ("luresim.derivatives", "sample_clarke_jacobian", "derivatives"),
    ("luresim.inclusion", "simulate_inclusion", "inclusion"),
    ("luresim.inclusion", "select_from_fibre", "inclusion"),
    ("luresim.inclusion", "check_image_convexity", "inclusion"),
    ("luresim.analyzer", "analyze_system", "analyzer"),
    *(("luresim.analyzer", func, "analyzer") for func in PROBES),
)

EVAL_METHODS = ("eval", "eval_scalar", "eval_scalar_array")
BENCH_LAYER = "bench"
ITEM_PREFIX = "item:"


class Tracer:
    """Records spans for the traced functions while installed.

    Per span: name id, parent index (-1 for none), start and end in
    ns, the outermost nonlinearity evaluations charged to it directly,
    and their time.  ``attrs`` keeps what a wrapper read from a call's
    arguments or result (route, iterations, status, step counts).
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.evals = array("q")
        self.eval_ns = array("q")
        self.child_ns = array("q")
        self.attrs: dict[int, dict] = {}
        self.loose_evals = 0           # evaluations outside any span
        self.loose_eval_ns = 0
        self.routes: dict = {}         # (id f, id D, use_structure) -> route
        self._stack: list[int] = []
        self._eval_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = len(self.names)
            self._name_ids[name] = idx
            self.names.append(name)
            self.layers.append(layer)
        return idx

    def open(self, name: str, layer: str = BENCH_LAYER) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name, layer))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.evals.append(0)
        self.eval_ns.append(0)
        self.child_ns.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter_ns()
        self.end[idx] = end
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child_ns[parent] += end - self.start[idx]

    def item(self, name: str):
        """The span of one workload item; ``summarize`` groups by it."""
        return self.span(ITEM_PREFIX + name)

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (an item, a phase)."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def self_ns(self, idx: int) -> int:
        return (self.end[idx] - self.start[idx] - self.child_ns[idx]
                - self.eval_ns[idx])

    def __len__(self) -> int:
        return len(self.start)

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module_name, func_name, layer in TRACED:
                original = getattr(importlib.import_module(module_name),
                                   func_name)
                wrapper = self._wrap(original, func_name, layer)
                self._replace_everywhere(original, wrapper)
            for method in EVAL_METHODS:
                original = Nonlinearity.__dict__[method]
                self._saved.append((Nonlinearity, method, original))
                setattr(Nonlinearity, method, self._wrap_eval(original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "luresim"
                                      or name.startswith("luresim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, original, func_name: str, layer: str):
        tracer = self
        observe = _OBSERVERS.get(func_name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(func_name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                tracer.attrs[idx] = observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = func_name
        return wrapper

    def _wrap_eval(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._eval_depth:
                return original(*args, **kwargs)
            tracer._eval_depth = 1
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                tracer._eval_depth = 0
                if tracer._stack:
                    top = tracer._stack[-1]
                    tracer.evals[top] += 1
                    tracer.eval_ns[top] += elapsed
                else:
                    tracer.loose_evals += 1
                    tracer.loose_eval_ns += elapsed

        wrapper.__wrapped__ = original
        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as gzip'd CSV: id, parent, layer, name, start,
        end (ns), evaluations and their time (ns), attributes."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,layer,name,start_ns,end_ns,evals,eval_ns,"
                     "attrs\n")
            for idx in range(len(self.start)):
                nid = self.name_id[idx]
                attrs = self.attrs.get(idx)
                attr_text = ";".join(f"{k}={v}" for k, v in attrs.items()) \
                    if attrs else ""
                fh.write(f"{idx},{self.parent[idx]},{self.layers[nid]},"
                         f"{self.names[nid]},{self.start[idx]},"
                         f"{self.end[idx]},{self.evals[idx]},"
                         f"{self.eval_ns[idx]},{attr_text}\n")


# -- what each wrapper reads from a call ------------------------------------

def _observe_solve(tracer, args, kwargs, sol):
    """Route by ``exact_structure_available``, iterations and status from
    the returned ``OutputSolution``."""
    sys_or_d = args[0] if args else kwargs["sys"]
    f = args[1] if len(args) > 1 else kwargs["f"]
    opts = args[5] if len(args) > 5 else kwargs.get("opts")
    use_structure = (opts or SolveOptions()).use_structure
    key = (id(f), id(sys_or_d), use_structure)
    cached = tracer.routes.get(key)
    if cached is None or cached[0] is not f or cached[1] is not sys_or_d:
        D = getattr(sys_or_d, "D", sys_or_d)
        exact = use_structure and exact_structure_available(f, D)
        cached = (f, sys_or_d, "exact" if exact else "newton")
        tracer.routes[key] = cached
    return {"route": cached[2], "iterations": int(sol.iterations),
            "status": sol.status}


def _observe_record(tracer, args, kwargs, record):
    flags = record.flags or []
    return {"steps": max(record.n_samples - 1, 0),
            "folds": sum(1 for flag in flags if flag == "fold"),
            "jumps": sum(1 for flag in flags if flag == "jump")}


def _observe_clarke(tracer, args, kwargs, sample):
    return {"matrices": len(sample.matrices)}


_OBSERVERS = {
    "solve_output": _observe_solve,
    "simulate": _observe_record,
    "simulate_inclusion": _observe_record,
    "sample_clarke_jacobian": _observe_clarke,
}


# -- per-layer metrics -------------------------------------------------------

STEPPERS = ("simulate", "refine_escape_time", "simulate_inclusion")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Sums:
    """Count and total duration (ns) of a set of spans."""

    def __init__(self):
        self.count = 0
        self.dur = 0

    def add(self, dur: int) -> None:
        self.count += 1
        self.dur += dur

    @property
    def mean_us(self) -> float:
        return _ratio(self.dur, self.count) / 1e3


def summarize(tr: Tracer, entries=()) -> tuple[dict, dict]:
    """Per-layer metrics, and per-item figures for the baseline table.

    ``entries`` are the catalog names whose ``analyze_system`` time gets
    its own metric.  Returns ({metric: (value, unit)}, {item: figures}).
    """
    n = len(tr)
    names = [tr.names[i] for i in tr.name_id]
    layers = [tr.layers[i] for i in tr.name_id]
    stepper = [""] * n        # nearest enclosing stepping call
    item = [""] * n           # enclosing benchmark item
    by_name: dict[str, _Sums] = defaultdict(_Sums)
    layer_self: dict[str, int] = defaultdict(int)
    per_item: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    solves = {"exact": _Sums(), "newton": _Sums()}
    newton_iters = multiple = failed = step_solves = 0
    step_evals = step_fibres = step_selects = 0
    steps = {"simulate": 0, "simulate_inclusion": 0}
    folds = jumps = matrices = 0

    for i in range(n):
        name = names[i]
        parent = tr.parent[i]
        stepper[i] = name if name in STEPPERS else (
            stepper[parent] if parent >= 0 else "")
        if name.startswith(ITEM_PREFIX):
            item[i] = name[len(ITEM_PREFIX):]
        elif parent >= 0:
            item[i] = item[parent]
        dur = tr.end[i] - tr.start[i]
        by_name[name].add(dur)
        layer_self[layers[i]] += tr.self_ns(i)
        attrs = tr.attrs.get(i, {})
        figures = per_item[item[i]]
        if stepper[i] in ("simulate", "simulate_inclusion"):
            step_evals += tr.evals[i]
        if name == "solve_output":
            solves[attrs["route"]].add(dur)
            if attrs["route"] == "newton":
                newton_iters += attrs["iterations"]
            multiple += attrs["status"] == "multiple"
            if attrs["status"] in ("no_solution", "not_converged"):
                failed += stepper[i] in ("simulate", "refine_escape_time")
            if stepper[i] == "simulate":
                step_solves += 1
                figures["solves"] += 1
        elif name in steps:
            steps[name] += attrs["steps"]
            figures["steps"] += attrs["steps"]
            folds += attrs["folds"]
            jumps += attrs["jumps"]
        elif name == "sample_clarke_jacobian":
            matrices += attrs["matrices"]
        elif name.startswith("enumerate_fibre") and \
                stepper[i] == "simulate_inclusion":
            step_fibres += 1
        elif name == "select_from_fibre" and \
                stepper[i] == "simulate_inclusion":
            step_selects += 1
        if name in PROBES:
            figures[PROBES[name] + "_s"] += dur / 1e9
        if name == "analyze_system":
            figures["analyze_s"] += dur / 1e9

    evals = sum(tr.evals) + tr.loose_evals
    eval_ns = sum(tr.eval_ns) + tr.loose_eval_ns
    all_steps = steps["simulate"] + steps["simulate_inclusion"]
    emit = by_name["write_csv"].dur + by_name["write_summary_json"].dur
    exact_fibres = by_name["enumerate_fibre_exact"]
    multistart = by_name["enumerate_fibre_multistart"]
    out = {
        "integrator.steps": (steps["simulate"], "count"),
        "integrator.solves_per_step": (_ratio(step_solves, steps["simulate"]),
                                       "count/step"),
        "integrator.failed_solves": (failed, "count"),
        "integrator.self_s": (layer_self["integrator"] / 1e9, "s"),
        "integrator.refine_s": (by_name["refine_escape_time"].dur / 1e9, "s"),
        "integrator.emit_s": (emit / 1e9, "s"),
        "output_solver.solves": (solves["exact"].count
                                 + solves["newton"].count, "count"),
        "output_solver.solve_exact_us": (solves["exact"].mean_us, "us"),
        "output_solver.solve_newton_us": (solves["newton"].mean_us, "us"),
        "output_solver.newton_iters_per_solve": (
            _ratio(newton_iters, solves["newton"].count), "count/solve"),
        "output_solver.multiple": (multiple, "count"),
        "output_solver.fibres_exact": (exact_fibres.count, "count"),
        "output_solver.fibre_exact_us": (exact_fibres.mean_us, "us"),
        "output_solver.fibres_multistart": (multistart.count, "count"),
        "output_solver.fibre_multistart_us": (multistart.mean_us, "us"),
        "output_solver.self_s": (layer_self["output_solver"] / 1e9, "s"),
        "nonlinearity.evals": (evals, "count"),
        "nonlinearity.evals_per_step": (_ratio(step_evals, all_steps),
                                        "count/step"),
        "nonlinearity.eval_us": (_ratio(eval_ns, evals) / 1e3, "us"),
        "nonlinearity.self_s": (eval_ns / 1e9, "s"),
        "derivatives.fd_jacobians": (by_name["finite_diff_jacobian"].count,
                                     "count"),
        "derivatives.clarke_samples": (matrices, "count"),
        "derivatives.self_s": (layer_self["derivatives"] / 1e9, "s"),
        "inclusion.steps": (steps["simulate_inclusion"], "count"),
        "inclusion.fibres_per_step": (
            _ratio(step_fibres, steps["simulate_inclusion"]), "count/step"),
        "inclusion.selects_per_step": (
            _ratio(step_selects, steps["simulate_inclusion"]), "count/step"),
        "inclusion.fold_landings": (folds, "count"),
        "inclusion.jumps": (jumps, "count"),
        "inclusion.self_s": (layer_self["inclusion"] / 1e9, "s"),
    }
    for func, check in PROBES.items():
        out[f"analyzer.{check}_s"] = (by_name[func].dur / 1e9, "s")
    for entry in entries:
        out[f"analyzer.{entry}_s"] = (per_item[entry]["analyze_s"], "s")
    out["analyzer.self_s"] = (layer_self["analyzer"] / 1e9, "s")
    out["catalog.build_s"] = (by_name["build_example"].dur / 1e9, "s")
    return out, {k: dict(v) for k, v in per_item.items() if k}
