"""The three benchmark workloads: items, how each runs, how each is checked.

An item is one closed-loop call sequence into the public ``luresim`` API.
Its timed section contains only library calls; digests and correctness
checks run after it, outside the timing.  All calls go through the
``luresim`` package attributes at call time, so an installed tracer sees
them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import luresim

# Tolerances of the closed-form checks, as ``verify_example`` uses them
# (non-quick settings).
ESCAPE_TOL = {"ex3b": 1e-3, "ex3d": 1e-2}
NEWTON_RESIDUAL_MAX = 1e-10


@dataclass(frozen=True)
class Item:
    """One workload item.

    ``kind`` is simulate | inclusion | audit.  ``ref`` picks the catalog
    reference to compare against, ``ref_tol`` the tolerance on the sup
    state error, ``newton`` marks entries solved by the Newton route
    whose residual is checked.
    """

    name: str
    entry: str
    kind: str
    method: str = ""
    dt: float = 0.0
    policy: str = ""
    tmax: float | None = None
    ref: int | None = None
    ref_tol: float = 0.0
    newton: bool = False


WORKLOADS = {
    # integrator -> solve_output: exact fibre route (ex3b, sec42c with
    # time-varying pieces, ex3d), Newton with a finite-difference Jacobian
    # (ex4a) and with an analytic one (ex4b); ends by reaching the
    # horizon, by losing the output solution (ex3b) and by blow-up (ex3d).
    "simulate": (
        Item("ex3b", "ex3b", "simulate", "rk4_fixed", 1e-4, ref=0,
             ref_tol=1e-6),
        Item("sec42c", "sec42c", "simulate", "rk4_fixed", 1e-3),
        Item("ex4a", "ex4a", "simulate", "rk4_fixed", 1e-3, newton=True),
        Item("ex3d", "ex3d", "simulate", "rk45_adaptive", 1e-3, ref=0,
             ref_tol=1e-4),
        Item("ex4b", "ex4b", "simulate", "rk45_adaptive", 1e-2, newton=True),
    ),
    # Full fibre enumeration plus a selection policy; Euler needs one
    # fibre per step, RK4 five.  Branch 0 of ex3c lands on a fold once.
    "inclusion": (
        Item("ex3c.branch0", "ex3c", "inclusion", "euler", 1e-4,
             "fixed_branch:0", ref=1, ref_tol=1e-4),
        Item("ex3c.branch1", "ex3c", "inclusion", "euler", 1e-4,
             "fixed_branch:1", ref=0, ref_tol=1e-8),
        Item("sec42a", "sec42a", "inclusion", "rk4", 1e-3,
             "nearest_previous"),
    ),
    # The analyzer, derivatives and multistart fibres do the work.
    "audit": tuple(Item(name, name, "audit")
                   for name in luresim.EXAMPLE_NAMES),
}

# One untimed item per workload, run during set-up, plus one multistart
# fibre: together they pay the lazy imports (scipy.stats.qmc, brentq)
# that a command-line user pays once per process.
WARMUP = {
    "simulate": Item("warmup.ex4b", "ex4b", "simulate", "rk45_adaptive", 1e-2,
                     newton=True),
    "inclusion": Item("warmup.sec42a", "sec42a", "inclusion", "rk4", 1e-3,
                      "nearest_previous", tmax=0.5),
    "audit": Item("warmup.ex3a", "ex3a", "audit"),
}


@dataclass
class ItemResult:
    name: str
    seconds: float                    # timed section
    step_seconds: float = 0.0         # inside simulate / simulate_inclusion
    steps: int = 0
    digests: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)   # (name, passed, measured)
    ref_err_ratio: float | None = None

    def check(self, name: str, passed: bool, measured: str) -> None:
        self.checks.append((name, bool(passed), measured))


def build_entries(items) -> dict:
    return {name: luresim.build_example(name)
            for name in dict.fromkeys(item.entry for item in items)}


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Timed:
    """What an item's timed section returns."""

    output: object                    # TrajectoryRecord or AnalysisReport
    seconds: float
    step_seconds: float = 0.0         # inside simulate / simulate_inclusion
    escape: tuple | None = None


def execute(item: Item, entry, seed: int, out_dir: str) -> Timed:
    """The item's timed section: library calls only."""
    if item.kind == "simulate":
        opts = luresim.SimOptions(method=item.method, dt=item.dt,
                                  tmax=item.tmax or entry.tmax,
                                  solver=luresim.SolveOptions(seed=seed))
        stem = os.path.join(out_dir, item.name)
        t0 = perf_counter()
        record = luresim.simulate(entry.system, entry.nonlinearity,
                                  entry.input, entry.t0, entry.x0, opts)
        t1 = perf_counter()
        escape = None
        if record.termination.kind in ("no_output_solution", "blow_up"):
            escape = luresim.refine_escape_time(
                record, entry.system, entry.nonlinearity, entry.input,
                time_tol=1e-7, opts=opts)
        luresim.write_csv(record, stem + ".csv")
        luresim.write_summary_json(record, stem + ".json")
        return Timed(record, perf_counter() - t0, t1 - t0, escape)
    if item.kind == "inclusion":
        opts = luresim.InclusionOptions(method=item.method, dt=item.dt,
                                        tmax=item.tmax or entry.tmax,
                                        fibre=luresim.SolveOptions(seed=seed))
        policy = luresim.SelectionPolicy.parse(item.policy)
        t0 = perf_counter()
        record = luresim.simulate_inclusion(entry.system, entry.nonlinearity,
                                            entry.input, entry.t0, entry.x0,
                                            policy, opts)
        seconds = perf_counter() - t0
        return Timed(record, seconds, seconds)
    opts = luresim.AnalyzerOptions(seed=seed)
    t0 = perf_counter()
    report = luresim.analyze_system(entry.system, entry.nonlinearity, opts)
    return Timed(report, perf_counter() - t0)


def finish(item: Item, entry, timed: Timed, out_dir: str) -> ItemResult:
    """Digest and check an item's outputs (untimed, untraced)."""
    if item.kind == "audit":
        return _finish_audit(item, entry, timed)
    record = timed.output
    stem = os.path.join(out_dir, item.name)
    if item.kind == "inclusion":
        # Emission is not part of this workload; it only feeds the digests.
        luresim.write_csv(record, stem + ".csv")
        luresim.write_summary_json(record, stem + ".json")
    res = ItemResult(item.name, timed.seconds, step_seconds=timed.step_seconds,
                     steps=record.n_samples - 1,
                     digests={"csv": _sha256_file(stem + ".csv"),
                              "summary": _sha256_file(stem + ".json")})
    _check_trajectory(res, item, entry, record)
    if item.entry in ESCAPE_TOL:
        tau = entry.references[item.ref].tau
        t_star = timed.escape[0] if timed.escape else math.nan
        res.check("escape_time", abs(t_star - tau) < ESCAPE_TOL[item.entry],
                  f"t*={t_star!r} vs {tau!r} (tol {ESCAPE_TOL[item.entry]})")
    if item.newton:
        worst = float(record.residuals.max())
        res.check("residual", worst <= NEWTON_RESIDUAL_MAX,
                  f"max residual {worst:.3e}")
    return res


def _check_trajectory(res: ItemResult, item: Item, entry, record) -> None:
    ref = entry.references[item.ref] if item.ref is not None else None
    expected = ref.termination if ref is not None else "reached_tmax"
    res.check("termination", record.termination.kind == expected,
              f"{record.termination.kind} (expected {expected})")
    if ref is not None:
        err = luresim.compare_to_reference(record, ref)["x_max_err"]
        res.ref_err_ratio = err / item.ref_tol
        res.check("reference_error", err < item.ref_tol,
                  f"sup error {err:.3e} vs tol {item.ref_tol:.0e}")


def _report_json(report) -> str:
    """The report as ``luresim analyze`` writes it."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def _finish_audit(item: Item, entry, timed: Timed) -> ItemResult:
    report = timed.output
    payload = _report_json(report).encode()
    res = ItemResult(item.name, timed.seconds,
                     digests={"report": hashlib.sha256(payload).hexdigest()})
    verdicts = report.verdicts()
    bad = {k: (v, verdicts.get(k)) for k, v in entry.expected_verdicts.items()
           if verdicts.get(k) != v}
    res.check("verdicts", not bad,
              f"mismatches {bad}" if bad else "as expected")
    tags = {tag.name: tag.granted for tag in report.applicability}
    bad = {k: (v, tags.get(k)) for k, v in entry.expected_tags.items()
           if tags.get(k) != v}
    res.check("tags", not bad, f"mismatches {bad}" if bad else "as expected")
    return res


def warm_up(workload: str, seed: int, out_dir: str) -> None:
    """Run the workload's warm-up item and one multistart fibre."""
    item = WARMUP[workload]
    execute(item, luresim.build_example(item.entry), seed, out_dir)
    ex4b = luresim.build_example("ex4b")
    luresim.enumerate_fibre_multistart(ex4b.nonlinearity, ex4b.system.D, 0.0,
                                       ex4b.x0,
                                       opts=luresim.SolveOptions(seed=seed))
