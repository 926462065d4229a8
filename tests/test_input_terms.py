"""A zero or constant input's terms are computed once per run.

The plant hoists D_e v and B_e v of a time-invariant ``InputSignal``; a
plain callable, even one returning the same values, keeps the per-time
path.  Both must give the same bits, for every kind of input, on the float
form (n = m = m_e = p = 1) and on the array form.
"""

import numpy as np
import pytest

from luresim import (InclusionOptions, SelectionPolicy, SimOptions,
                     SystemMatrices, constant_input, piecewise_constant_input,
                     polynomial_input, refine_escape_time, simulate,
                     simulate_inclusion, zero_input)
from luresim import integrator

INPUTS = {
    "zero": zero_input(1),
    "negative": constant_input([-0.5]),
    "minus_zero": constant_input([-0.0]),
    "piecewise_constant": piecewise_constant_input([0.2], [[0.3], [-0.4]]),
    "polynomial": polynomial_input([[0.1], [-0.2], [0.05]]),
}
HOISTED = {"zero", "negative", "minus_zero"}


def _systems(entry):
    """(name, system, x0) of a 1 x 1 system and of ex3b's n = 2 system, each
    with a nonzero B_e and D_e, under ex3b's map: both lose the output
    solution once C x + D_e v leaves [-1, 1]."""
    e = entry("ex3b")
    scalar = SystemMatrices(A=[[1.0]], B=[[0.5]], B_e=[[0.5]], C=[[1.0]],
                            D=e.system.D, D_e=[[0.25]])
    planar = SystemMatrices(A=e.system.A, B=e.system.B, B_e=[[0.5], [1.0]],
                            C=e.system.C, D=e.system.D, D_e=[[0.25]])
    return [("scalar", scalar, [0.3]), ("planar", planar, [0.5, 0.0])]


def _bits(record) -> list:
    arrays = [np.ascontiguousarray(getattr(record, name), dtype=float).tobytes()
              for name in ("times", "x", "y", "u", "residuals", "y_integral",
                           "u_integral")]
    branches = None if record.branches is None else record.branches.tolist()
    return arrays + [branches, record.flags, record.termination]


def _runs(sys, f, v, x0):
    """The records of both integrators, and the refined escape time."""
    runs = []
    for method in ("rk4_fixed", "rk45_adaptive"):
        opts = SimOptions(method=method, dt=2e-2, tmax=3.0)
        rec = simulate(sys, f, v, 0.0, x0, opts)
        assert rec.termination.kind == "no_output_solution"
        runs.append(_bits(rec))
        runs.append(refine_escape_time(rec, sys, f, v, time_tol=1e-6,
                                       opts=opts))
    rec = simulate_inclusion(sys, f, v, 0.0, x0,
                             SelectionPolicy.nearest_previous(),
                             InclusionOptions(method="rk4", dt=2e-2, tmax=3.0))
    return runs + [_bits(rec)]


@pytest.mark.parametrize("kind", INPUTS)
def test_hoisted_input_terms_keep_the_bits(entry, kind):
    f = entry("ex3b").nonlinearity
    v = INPUTS[kind]

    def plain(t):
        return v(t)

    for name, sys, x0 in _systems(entry):
        plant = integrator._plant(sys, v)
        assert type(plant) is (integrator._ScalarPlant if name == "scalar"
                               else integrator._Plant)
        assert (plant.fixed is not None) == (kind in HOISTED)
        assert integrator._plant(sys, plain).fixed is None
        assert _runs(sys, f, v, x0) == _runs(sys, f, plain, x0), name
