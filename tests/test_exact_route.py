"""The exact route of ``solve_output`` against its definition.

A solve on the exact route is the element of ``enumerate_fibre_exact``'s
fibre nearest the warm start, with u = f(t, y) and the residual of that y.
``solve_output`` takes a one-point fibre without building its ``FibreSet``;
a run's stage resolves its route once and takes the exact route without
``solve_output``.  Both must leave every bit as the definition gives it.
"""

import types

import numpy as np
import pytest

from luresim import (ConfigurationError, SolveOptions, SystemMatrices,
                     enumerate_fibre_exact, normalized_gain, parabolic_band,
                     radial_three_zone, residual_norm, solve_output,
                     zero_input)
from luresim import integrator
from luresim.output_solver import _checked


def _system(D) -> SystemMatrices:
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[0]
    return SystemMatrices(A=-np.eye(p), B=np.eye(p), B_e=np.zeros((p, 1)),
                          C=np.eye(p), D=D, D_e=np.zeros((p, 1)))


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).reshape(-1).tobytes()


def _by_definition(sys, f, t, w, guess, opts):
    """(status, y, u, residual, n_found) of the nearest exact fibre element."""
    fib = enumerate_fibre_exact(f, sys.D, t, w, tol_sep=opts.tol_sep)
    if fib.empty:
        return "no_solution", None, None, float("inf"), 0
    y = np.asarray(fib.nearest(guess)[0], dtype=float).reshape(-1)
    u = f(t, y)
    status = "multiple" if fib.is_set_valued() else "unique_point"
    return status, y, u, residual_norm(f, sys.D, t, y, w), fib.n_elements


def _assert_as_defined(sys, f, t, w, guess, opts=None):
    opts = opts or SolveOptions()
    sol = solve_output(sys, f, t, w, guess, opts)
    status, y, u, residual, n_found = _by_definition(sys, f, t, w, guess, opts)
    assert (sol.status, sol.n_found, sol.iterations) == (status, n_found, 0)
    assert _bits(sol.residual) == _bits(residual)
    if y is None:
        assert sol.y is None and sol.u is None
        assert sol.certificate["kind"] == "range_exclusion"
        return sol
    assert _bits(sol.y) == _bits(y) and _bits(sol.u) == _bits(u)
    floats = sys.D.shape == (1, 1) and type(guess) is float
    assert (type(sol.y) is float, type(sol.u) is float) == (floats, floats)
    _assert_stage_as_solve(sys, f, t, w, guess, opts)
    return sol


def _stages(sys, f, opts):
    """A run's stage on each form of the plant of a system whose output
    target is its state: C = I, no input."""
    run_sys = _system(sys.D)
    plants = [integrator._plant(run_sys, zero_input(1))]
    if run_sys.dims == (1, 1, 1, 1):
        plants.append(integrator._Plant(run_sys, zero_input(1)))
    return [integrator._SolvingStage(plant, f, _checked(opts))
            for plant in plants]


def _assert_stage_as_solve(sys, f, t, w, guess, opts):
    """The stage gives ``solve_output``'s (y, u, multiple) bit for bit, or
    fails with its certificate."""
    for stage in _stages(sys, f, opts):
        plant = stage.plant
        x, y_prev = (plant.value(np.asarray(z, dtype=float).reshape(-1))
                     for z in (w, guess))
        target = plant.target(x, plant.input(t))
        sol = solve_output(plant.sys, f, t, target, y_prev, opts)
        if sol.y is None:
            with pytest.raises(integrator._StageFailure) as failure:
                stage(t, x, y_prev)
            assert failure.value.certificate == sol.certificate
            continue
        y, u, _, _ = stage(t, x, y_prev)
        for got, want in ((y, plant.value(sol.y)), (u, plant.value(sol.u))):
            assert type(got) is type(want) and _bits(got) == _bits(want)
        assert stage.multiple == (sol.status == "multiple")
        stage.multiple = False


def _draws(rng, n: int, p: int, scale: float, t_max: float):
    for _ in range(n):
        t = float(rng.uniform(0.0, t_max))
        w = rng.uniform(-scale, scale, p)
        guess = rng.uniform(-2.0 * scale, 2.0 * scale, p)
        yield t, w, guess


# (catalog entry, scale of w, largest t): piecewise scalar (ex3b with
# empty fibres beyond |w| = 1, sec42c with time-varying pieces), radial
# (sec42b) and conformal (ex4a rotating, ex4b, ex4c)
ENTRIES = [("ex3b", 1.5, 1.0), ("sec42c", 2.0, 3.0), ("sec42b", 3.0, 1.0),
           ("ex4a", 2.0, 6.0), ("ex4b", 2.0, 6.0), ("ex4c", 3.0, 1.0)]


@pytest.mark.parametrize("name, scale, t_max", ENTRIES)
def test_random_solves_as_defined(entry, name, scale, t_max):
    e = entry(name)
    sys, f = e.system, e.nonlinearity
    p = sys.D.shape[0]
    rng = np.random.default_rng(2024)
    statuses = set()
    for t, w, guess in _draws(rng, 150, p, scale, t_max):
        statuses.add(_assert_as_defined(sys, f, t, w, guess).status)
        if p == 1:                      # a float warm start gives floats
            _assert_as_defined(sys, f, t, w, float(guess[0]))
    expected = {"ex3b": {"unique_point", "no_solution"}}.get(name, {"unique_point"})
    assert statuses == expected


@pytest.mark.parametrize("name, t, w", [
    ("ex3b", 0.0, [1.0]),               # the segment [2, inf) and beyond
    ("ex3b", 0.0, [-1.0]),
    ("sec42c", 2.5, [0.0]),             # the segment [-1, 1] once the gain is 1
    ("sec42b", 0.0, [0.3, 0.4]),        # the ray segment s in [2, 4]
    ("sec42b", 0.0, [0.0, 0.0]),
    ("ex4a", 1.0, [0.0, 0.0]),
    ("ex4b", 1.0, [0.0, 0.0]),
    ("ex4c", 0.0, [0.0, 0.0]),
])
def test_segments_and_origins_as_defined(entry, name, t, w):
    e = entry(name)
    for guess in (np.full(len(w), -5.0), np.full(len(w), 0.1), np.full(len(w), 5.0)):
        _assert_as_defined(e.system, e.nonlinearity, t, w, guess)


def test_several_points_and_a_tie():
    # F(x) = x^2 on [-1/2, 1/2] and x + 3/4 below: the fibre of 0.04 is
    # {-0.71, -0.2, 0.2}
    sys, f = _system([[1.0]]), parabolic_band()
    sol = _assert_as_defined(sys, f, 0.0, [0.04], [0.15])
    assert sol.status == "multiple" and sol.n_found == 3 and sol.y[0] > 0.0
    # equidistant from 0: the first element in order, -0.2, wins the tie
    sol = _assert_as_defined(sys, f, 0.0, [0.04], 0.0)
    assert sol.y == pytest.approx(-0.2, rel=1e-15)
    rng = np.random.default_rng(7)
    for _, w, guess in _draws(rng, 100, 1, 0.3, 0.0):
        _assert_as_defined(sys, f, 0.0, w, guess)
        _assert_as_defined(sys, f, 0.0, w, float(guess[0]))


@pytest.mark.parametrize("f, d, statuses", [
    # a radial or conformal map with p = 1 takes its target as a vector
    (radial_three_zone(p=1), 0.5, {"unique_point"}),
    (normalized_gain(p=1), 1.0, {"unique_point"}),
    # with gain 3, |y| (|y| - 2) / (1 + |y|) = |w| can have three roots
    (normalized_gain(gain=3.0, p=2), 1.0, {"unique_point", "multiple"}),
])
def test_constructed_maps_as_defined(f, d, statuses):
    sys = _system(d * np.eye(f.p))
    rng = np.random.default_rng(3)
    seen = set()
    for t, w, guess in _draws(rng, 100, f.p, 3.0 if f.p == 1 else 1.0, 1.0):
        seen.add(_assert_as_defined(sys, f, t, w, guess).status)
        if f.p == 1:
            _assert_as_defined(sys, f, t, w, float(guess[0]))
    assert seen == statuses


def _fresh(sys, f, t, w, guess, opts):
    """``solve_output``, which resolves its route at every call."""
    return solve_output(sys, f, t, w, guess, opts)


def _same(a, b) -> bool:
    return ((a.status, a.n_found, a.iterations, a.certificate)
            == (b.status, b.n_found, b.iterations, b.certificate)
            and _bits(a.residual) == _bits(b.residual)
            and (a.y is None) == (b.y is None)
            and (a.y is None or (_bits(a.y) == _bits(b.y)
                                 and _bits(a.u) == _bits(b.u))))


def test_remembered_route_follows_system_map_and_options(entry):
    # each case differs from the one before it in one input only
    shared, numeric = SolveOptions(), SolveOptions(use_structure=False)
    radial, conformal = entry("sec42b"), entry("ex4c")     # D = I/2 and D = I
    t, w, guess = 0.3, np.array([0.3, 0.4]), np.array([1.0, 1.5])
    cases = [
        (radial.system, radial.nonlinearity, shared),
        (radial.system, radial.nonlinearity, numeric),      # the options
        (radial.system, radial.nonlinearity, shared),
        (radial.system, conformal.nonlinearity, shared),    # the map
        (conformal.system, conformal.nonlinearity, shared),  # D = I
        (_system(np.diag([0.5, 1.0])), conformal.nonlinearity, shared),  # no d I
        (_system(2.0 * np.eye(2)), conformal.nonlinearity, shared),
    ]
    last = None
    for sys, f, opts in cases + cases[-2::-1]:
        got = solve_output(sys, f, t, w, guess, opts)
        assert _same(got, _fresh(sys, f, t, w, guess, opts))
        exact = opts.use_structure and sys.D[0, 1] == 0.0 and sys.D[0, 0] == sys.D[1, 1]
        assert (got.iterations == 0) == exact
        assert last is None or not _same(got, last)
        last = got
    # a new system in the place of a dropped one, its D different
    for d in (0.5, 1.0, 0.25, 2.0):
        sys = _system(d * np.eye(2))
        got = solve_output(sys, radial.nonlinearity, t, w, guess, shared)
        assert _same(got, _fresh(sys, radial.nonlinearity, t, w, guess, shared))
        del sys


def test_writable_feedthrough_is_resolved_on_every_call(entry):
    f = entry("sec42b").nonlinearity
    t, w, guess = 0.0, np.array([0.3, 0.4]), np.array([1.0, 1.5])
    sys = types.SimpleNamespace(D=0.5 * np.eye(2))
    before = solve_output(sys, f, t, w, guess)
    sys.D[...] = np.diag([0.5, 1.0])      # no longer a multiple of I: Newton
    after = solve_output(sys, f, t, w, guess)
    assert _same(after, _fresh(sys, f, t, w, guess, SolveOptions()))
    assert before.iterations == 0 and after.iterations > 0


def test_system_matrices_own_their_entries():
    D = np.array([0.5])                 # a view of it would be D as 1 x 1
    sys = _system(D)
    D[0] = 1.0
    assert sys.D[0, 0] == 0.5 and not sys.D.flags.writeable


@pytest.mark.parametrize("name", ["ex3b", "sec42b", "ex4a"])
def test_stage_rejects_a_non_finite_target_as_solve_output_does(entry, name):
    e = entry(name)
    for stage in _stages(e.system, e.nonlinearity, SolveOptions()):
        p = stage.plant.sys.dims[3]
        x, y_prev = stage.plant.value(np.full(p, np.nan)), stage.plant.value(np.zeros(p))
        with pytest.raises(ConfigurationError) as want:
            solve_output(stage.plant.sys, e.nonlinearity, 0.0, x, y_prev)
        with pytest.raises(ConfigurationError) as got:
            stage(0.0, x, y_prev)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["ex3b", "sec42b", "ex4b"])
def test_stage_without_structure_takes_the_newton_route(entry, monkeypatch, name):
    e = entry(name)
    numeric = SolveOptions(use_structure=False)
    solves = []

    def counted(*args, **kwargs):
        solves.append(solve_output(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(integrator, "solve_output", counted)
    p = e.system.dims[3]
    w, guess = np.full(p, 0.3), np.full(p, 0.5)
    for stage in _stages(e.system, e.nonlinearity, numeric):
        assert stage.route is None
        x, y_prev = stage.plant.value(w), stage.plant.value(guess)
        y, u, _, _ = stage(0.0, x, y_prev)
        sol = solves[-1]
        assert sol.status == "unique_point" and sol.iterations > 0
        assert _bits(y) == _bits(sol.y) and _bits(u) == _bits(sol.u)
