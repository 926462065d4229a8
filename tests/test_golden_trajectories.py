"""Exact-route trajectories against saved ones.

The runs are those of the benchmark's ``simulate`` and ``inclusion``
workloads that resolve every output on the exact fibre route: ``simulate``
on ex3b, sec42c and ex3d (with ``refine_escape_time`` where the run
stops early) and ``simulate_inclusion`` on ex3c (branches 0 and 1) and
sec42a (RK4).  The data file holds about 200 evenly spaced samples of
each run plus its last three, every flag, the branch sequence and the
termination.

Counts, strings, flags and branches must match exactly; numbers must
agree to 1e-12 relative.  Residuals are rounding noise of size ~1e-16,
so they are compared with an absolute floor of 1e-15 instead.

Regenerate the data (only when a change of trajectory is intended) with

    PYTHONPATH=src python tests/test_golden_trajectories.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from luresim import (InclusionOptions, SelectionPolicy, SimOptions,
                     SolveOptions, build_example, refine_escape_time,
                     simulate, simulate_inclusion)

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA = REPO_ROOT / "tests" / "data" / "golden_trajectories.json"

# name: (entry, mode, method, dt, policy)
RUNS = {
    "ex3b": ("ex3b", "simulate", "rk4_fixed", 1e-4, None),
    "sec42c": ("sec42c", "simulate", "rk4_fixed", 1e-3, None),
    "ex3d": ("ex3d", "simulate", "rk45_adaptive", 1e-3, None),
    "ex3c.branch0": ("ex3c", "inclusion", "euler", 1e-4, "fixed_branch:0"),
    "ex3c.branch1": ("ex3c", "inclusion", "euler", 1e-4, "fixed_branch:1"),
    "sec42a": ("sec42a", "inclusion", "rk4", 1e-3, "nearest_previous"),
}
ROWS_PER_RUN = 200


def run(name: str) -> dict:
    """The saved summary of one run."""
    entry_name, mode, method, dt, policy = RUNS[name]
    entry = build_example(entry_name)
    if mode == "simulate":
        opts = SimOptions(method=method, dt=dt, tmax=entry.tmax,
                          solver=SolveOptions(seed=0))
        rec = simulate(entry.system, entry.nonlinearity, entry.input,
                       entry.t0, entry.x0, opts)
    else:
        opts = InclusionOptions(method=method, dt=dt, tmax=entry.tmax,
                                fibre=SolveOptions(seed=0))
        rec = simulate_inclusion(entry.system, entry.nonlinearity, entry.input,
                                 entry.t0, entry.x0,
                                 SelectionPolicy.parse(policy), opts)
    count = rec.n_samples
    stride = max(1, count // ROWS_PER_RUN)
    index = sorted(set(range(0, count, stride)) | set(range(max(0, count - 3), count)))
    term = rec.termination
    out = {
        "n_samples": count,
        "termination": {"kind": term.kind, "time": term.time,
                        "bracket": list(term.bracket) if term.bracket else None,
                        "detail": term.detail},
        "index": index,
        "times": rec.times[index].tolist(),
        "x": rec.x[index].tolist(),
        "y": rec.y[index].tolist(),
        "u": rec.u[index].tolist(),
        "residuals": rec.residuals[index].tolist(),
        "y_integral": rec.y_integral[index].tolist(),
        "u_integral": rec.u_integral[index].tolist(),
        "flags": [[i, flag] for i, flag in enumerate(rec.flags) if flag],
        "branches": (_run_lengths(rec.branches)
                     if rec.branches is not None else None),
        "escape": None,
    }
    if term.kind in ("no_output_solution", "blow_up"):
        out["escape"] = list(refine_escape_time(
            rec, entry.system, entry.nonlinearity, entry.input,
            time_tol=1e-7, opts=opts))
    return out


def _run_lengths(values) -> list:
    runs: list[list[int]] = []
    for v in np.asarray(values).tolist():
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def _assert_matches(new, old, path, abs_tol=1e-300):
    if isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), path
        for key in old:
            tol = 1e-15 if key == "residuals" else abs_tol
            _assert_matches(new[key], old[key], f"{path}.{key}", tol)
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), path
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_matches(a, b, f"{path}[{i}]", abs_tol)
    elif isinstance(old, (bool, str, int)) or old is None:
        assert new == old, path
    else:
        assert isinstance(new, (int, float)) and not isinstance(new, bool), path
        if math.isinf(old):
            assert new == old, path
        else:
            assert math.isclose(new, old, rel_tol=1e-12, abs_tol=abs_tol), \
                f"{path}: {new!r} != {old!r}"


@pytest.mark.parametrize("name", list(RUNS))
def test_trajectory_matches_golden(name):
    golden = json.loads(DATA.read_text())[name]
    _assert_matches(json.loads(json.dumps(run(name))), golden, name)


if __name__ == "__main__":
    # one line per run
    DATA.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(run(name), sort_keys=True)}"
        for name in sorted(RUNS)) + "\n}\n")
