"""Print one SHA-256 digest per run of a fixed grid of trajectories.

Two checkouts print the same lines exactly when every run produced the
same bits, so bit-identity of a change is shown by ``diff`` of the output
on the parent and on the change::

    PYTHONPATH=src python3 tools/digest_runs.py > digests.txt

``--only REGEX`` digests only the lines whose name matches REGEX
(``re.search``): ``--only '^inclusion/'`` takes the exact-route runs in
seconds, ``--only 'ex3c|sec42a'`` two entries, ``--only '^solve/'`` the
Newton-route solves, ``--only '^emit/'`` the emitted files alone.

The grid:

- ``simulate`` on each of the ten catalog entries with ``rk4_fixed`` and
  ``rk45_adaptive`` at the entry's dt and tmax, followed by
  ``refine_escape_time`` (time_tol 1e-7) where the run stops early, and
  the same on the planar entries ex4a, ex4b and ex4c on the Newton route
  (``use_structure=False``; lines ``simulate-newton/...``);
- ``simulate`` of xdot = x^2 from x(0) = 1 (A = 0, B = C = 1, D = 0) with
  ``rk4_fixed`` at dt 1e-3, followed by ``refine_escape_time`` (time_tol
  1e-7): the run stops when |x| crosses ``blowup_threshold``, without a
  bracket, so the refinement re-enters the stepping loop over its last
  step (line ``simulate-escape/x_squared/rk4_fixed``);
- ``simulate`` of ex3b with ``rk4_fixed`` at dt 1e-3 and ``dt_min`` 1e-5,
  followed by ``refine_escape_time`` (time_tol 1e-7): the run's bracket is
  wider than 2 time_tol, so the refinement re-enters the stepping loop
  over it (line ``simulate-escape/ex3b/rk4_fixed/dt_min=1e-05``);
- ``simulate_inclusion`` with ``euler`` and ``rk4`` at dt 1e-3 and the
  entry's tmax, for every entry whose fibres are enumerated exactly, under
  the policies ``nearest_previous``, ``min_norm``, ``max_norm``,
  ``fixed_branch:0`` and ``fixed_branch:1``;
- the runs of perfbench's ``inclusion`` workload (lines
  ``inclusion-bench/...``): ex3c with ``euler`` at dt 1e-4 under
  ``fixed_branch:0`` and ``fixed_branch:1``, and sec42a with ``rk4`` at dt
  1e-3 under ``nearest_previous`` (the same run as its ``inclusion/`` line);
- ``simulate_inclusion`` with ``euler`` at dt 1e-3 to t = 0.1 on every
  entry on the multistart route (``use_structure=False``; lines
  ``inclusion-multistart/...``), under the same five policies.

A line reads ``<run> <all> <no-flags> <flag counts>``: ``<all>`` digests
times, x, y, u, residuals, both running integrals, branches, flags,
termination and the refined escape time; ``<no-flags>`` is the same digest
without the flags, and the counts name each nonempty flag.  A run that
raises prints the error in place of the record.

After the runs come single ``solve_output`` calls on the Newton route
(``use_structure=False``), which reach the multistart fallback whenever
Newton from the warm start fails: for every entry, 12 seeded (t, w,
y_guess) draws with ``max_iter`` 1 and 100.  A line reads ``<solve>
<outcome> <iterations>``, the outcome digesting status, y, u, residual,
the number of fibre elements and the certificate.

Then come fibres: for every entry, 12 seeded (t, w, prev) draws, w with
entries from a grid of round values so that segments and several points
occur.  A line reads ``fibre/<entry>/<k> <exact> <multistart>``, each
digesting, on its route, ``to_dict()``, ``elements()``, ``n_elements``,
``is_set_valued()``, ``nearest(prev)`` and ``select_from_fibre`` under
every policy (with prev); an error is digested by its text in place of
what raised.

Last come the emitted files: a line ``emit/<run> <digest>`` per
``simulate`` and ``simulate_inclusion`` run digests the bytes that
``write_csv`` and ``write_summary_json`` write for its record (the error,
as above, for a run that raises).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import re
import sys
import tempfile
from collections import Counter

import numpy as np

import luresim

POLICIES = ("nearest_previous", "min_norm", "max_norm", "fixed_branch:0",
            "fixed_branch:1")
# every selection policy, for the fibre lines
FIBRE_POLICIES = POLICIES + ("segment_parameter:0.25",)
# the entries of a fibre line's target w
FIBRE_LEVELS = (-1.0, -0.5, -0.3, 0.0, 0.0625, 0.1, 0.25, 0.3, 0.5, 0.6, 1.0, 1.5)
# (entry, method, dt, policy) of each run of perfbench's inclusion workload
BENCH_INCLUSION = (("ex3c", "euler", 1e-4, "fixed_branch:0"),
                   ("ex3c", "euler", 1e-4, "fixed_branch:1"),
                   ("sec42a", "rk4", 1e-3, "nearest_previous"))


def _digest(record, escape, with_flags: bool) -> str:
    h = hashlib.sha256()
    for arr in (record.times, record.x, record.y, record.u, record.residuals,
                record.y_integral, record.u_integral):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    if record.branches is not None:
        h.update(np.ascontiguousarray(record.branches, dtype=np.int64).tobytes())
    if with_flags:
        h.update(repr(record.flags).encode())
    term = record.termination
    h.update(repr((term.kind, term.time, term.bracket, term.detail,
                   escape)).encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _entry(name: str):
    return luresim.build_example(name)


def _emitted(record) -> str:
    """SHA-256 of the bytes write_csv and then write_summary_json write."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for write in (luresim.write_csv, luresim.write_summary_json):
            path = os.path.join(tmp, "out")
            write(record, path)
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _line(name: str, run) -> tuple[str, str]:
    """The run's line and the digest of its emitted files; on an error,
    the error in place of both."""
    try:
        record, escape = run()
    except luresim.LuresimError as exc:
        error = f"error {type(exc).__name__}: {exc}"
        return f"{name} {error}", error
    counts = Counter(fl for fl in record.flags if fl)
    flags = ",".join(f"{k}:{counts[k]}" for k in sorted(counts)) or "-"
    return (f"{name} {_digest(record, escape, True)} "
            f"{_digest(record, escape, False)} {flags}", _emitted(record))


def _simulate(name: str, method: str, use_structure: bool = True):
    entry = _entry(name)

    def run():
        opts = luresim.SimOptions(
            method=method, dt=entry.dt, tmax=entry.tmax,
            solver=luresim.SolveOptions(use_structure=use_structure))
        record = luresim.simulate(entry.system, entry.nonlinearity,
                                  entry.input, entry.t0, entry.x0, opts)
        escape = None
        if record.termination.kind in ("no_output_solution", "blow_up"):
            escape = luresim.refine_escape_time(
                record, entry.system, entry.nonlinearity, entry.input,
                time_tol=1e-7, opts=opts)
        return record, escape
    return run


def _x_squared_escape():
    sys = luresim.SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[0.0]], C=[[1.0]],
                                 D=[[0.0]], D_e=[[0.0]])
    f = luresim.piecewise_scalar([luresim.ScalarPiece(lo=-math.inf, hi=math.inf,
                                                      c2=1.0)])
    v = luresim.zero_input(1)

    def run():
        opts = luresim.SimOptions(method="rk4_fixed", dt=1e-3, tmax=2.0)
        record = luresim.simulate(sys, f, v, 0.0, [1.0], opts)
        return record, luresim.refine_escape_time(record, sys, f, v,
                                                  time_tol=1e-7, opts=opts)
    return run


def _wide_bracket_escape():
    entry = _entry("ex3b")

    def run():
        opts = luresim.SimOptions(method="rk4_fixed", dt=1e-3, dt_min=1e-5,
                                  tmax=entry.tmax)
        record = luresim.simulate(entry.system, entry.nonlinearity,
                                  entry.input, entry.t0, entry.x0, opts)
        return record, luresim.refine_escape_time(
            record, entry.system, entry.nonlinearity, entry.input,
            time_tol=1e-7, opts=opts)
    return run


def _inclusion(name: str, method: str, policy: str, dt: float = 1e-3,
               use_structure: bool = True):
    """The run; None for an entry without exact fibres on the exact route."""
    entry = _entry(name)
    if use_structure and not luresim.exact_structure_available(
            entry.nonlinearity, entry.system.D):
        return None

    def run():
        opts = luresim.InclusionOptions(
            method=method, dt=dt,
            tmax=entry.tmax if use_structure else 0.1,
            fibre=luresim.SolveOptions(use_structure=use_structure))
        record = luresim.simulate_inclusion(
            entry.system, entry.nonlinearity, entry.input, entry.t0,
            entry.x0, luresim.SelectionPolicy.parse(policy), opts)
        return record, None
    return run


@functools.lru_cache(maxsize=None)
def _draws(name: str):
    p = _entry(name).system.dims[3]
    rng = np.random.default_rng(luresim.EXAMPLE_NAMES.index(name))
    return [(float(rng.uniform(0.0, 1.0)), rng.uniform(-2.0, 2.0, p),
             rng.uniform(-2.0, 2.0, p)) for _ in range(12)]


def _solve(label: str, name: str, max_iter: int, k: int) -> str:
    entry = _entry(name)
    t, w, guess = _draws(name)[k]
    opts = luresim.SolveOptions(use_structure=False, max_iter=max_iter)
    sol = luresim.solve_output(entry.system, entry.nonlinearity, t, w, guess,
                               opts)
    h = hashlib.sha256(repr((sol.status, sol.residual, sol.n_found,
                             sol.certificate)).encode())
    for arr in (sol.y, sol.u):
        if arr is not None:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return f"{label} {h.hexdigest()} {sol.iterations}"


def _fibre_draws(name: str):
    p = _entry(name).system.dims[3]
    rng = np.random.default_rng(100 + luresim.EXAMPLE_NAMES.index(name))
    return [(float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 3.0)])),
             rng.choice(FIBRE_LEVELS, p), rng.uniform(-2.0, 2.0, p))
            for _ in range(12)]


def _bits(value) -> str:
    """The type and exact bits of a fibre value, nested in tuples and lists."""
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}[{','.join(map(_bits, value))}]"
    if isinstance(value, np.ndarray):
        return f"ndarray{value.dtype}{value.shape}{value.tolist()!r}"
    return f"{type(value).__name__}:{value!r}"


def _fibre_digest(entry, t: float, w, prev, use_structure: bool) -> str:
    """SHA-256 of what the fibre at (t, w) gives on one route."""
    h = hashlib.sha256()

    def add(call):
        try:
            h.update(_bits(call()).encode())
        except luresim.LuresimError as exc:
            h.update(f"error {type(exc).__name__}: {exc}".encode())

    try:
        fib = luresim.enumerate_fibre(
            entry.nonlinearity, entry.system.D, t, w,
            luresim.SolveOptions(use_structure=use_structure))
    except luresim.LuresimError as exc:
        return hashlib.sha256(f"error {type(exc).__name__}: {exc}".encode()).hexdigest()
    add(lambda: repr(fib.to_dict()))
    add(fib.elements)
    add(lambda: (fib.n_elements, fib.is_set_valued(), fib.empty))
    add(lambda: fib.nearest(prev))
    for policy in FIBRE_POLICIES:
        add(lambda: luresim.select_from_fibre(
            fib, luresim.SelectionPolicy.parse(policy), prev))
    return h.hexdigest()


def _fibre(label: str, name: str, k: int) -> str:
    entry = _entry(name)
    t, w, prev = _fibre_draws(name)[k]
    return (f"{label} {_fibre_digest(entry, t, w, prev, True)} "
            f"{_fibre_digest(entry, t, w, prev, False)}")


def _runs():
    """(line name, run or None) of every run, in print order."""
    names = luresim.EXAMPLE_NAMES
    for name in names:
        for method in ("rk4_fixed", "rk45_adaptive"):
            yield f"simulate/{name}/{method}", _simulate(name, method)
    for name in ("ex4a", "ex4b", "ex4c"):
        for method in ("rk4_fixed", "rk45_adaptive"):
            yield (f"simulate-newton/{name}/{method}",
                   _simulate(name, method, False))
    yield "simulate-escape/x_squared/rk4_fixed", _x_squared_escape()
    yield "simulate-escape/ex3b/rk4_fixed/dt_min=1e-05", _wide_bracket_escape()
    for name in names:
        for method in ("euler", "rk4"):
            for policy in POLICIES:
                yield (f"inclusion/{name}/{method}/{policy}",
                       _inclusion(name, method, policy))
    for name, method, dt, policy in BENCH_INCLUSION:
        yield (f"inclusion-bench/{name}/{method}/{dt:g}/{policy}",
               _inclusion(name, method, policy, dt))
    for name in names:
        for policy in POLICIES:
            yield (f"inclusion-multistart/{name}/euler/{policy}",
                   _inclusion(name, "euler", policy, use_structure=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", metavar="REGEX",
                        help="digest only the lines whose name matches "
                             "REGEX (default: all)")
    args = parser.parse_args(argv)
    pattern = re.compile(args.only)
    emitted = {}            # the emit digest of each run whose line printed
    for label, run in _runs():
        if run is not None and pattern.search(label):
            line, emitted[label] = _line(label, run)
            print(line, flush=True)
    for name in luresim.EXAMPLE_NAMES:
        for max_iter in (1, 100):
            for k in range(12):
                label = f"solve/{name}/{max_iter}/{k}"
                if pattern.search(label):
                    print(_solve(label, name, max_iter, k), flush=True)
    for name in luresim.EXAMPLE_NAMES:
        for k in range(12):
            label = f"fibre/{name}/{k}"
            if pattern.search(label):
                print(_fibre(label, name, k), flush=True)
    for label, run in _runs():
        if run is not None and pattern.search(f"emit/{label}"):
            if label not in emitted:
                emitted[label] = _line(label, run)[1]
            print(f"emit/{label} {emitted.pop(label)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
