import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import luresim.integrator as integrator
from luresim import (ConfigurationError, InclusionOptions, Nonlinearity,
                     ScalarPiece, SelectionPolicy, SimOptions, SolveOptions,
                     SystemMatrices, UsageError, build_example,
                     compare_to_reference, linear_nonlinearity,
                     piecewise_scalar, refine_escape_time, simulate,
                     simulate_inclusion, summary_dict, write_csv,
                     write_summary_json, zero_input, zero_nonlinearity)
from luresim.nonlinearity import vec_norm

LN2 = math.log(2.0)
PI_2 = math.pi / 2.0


def _linear_test_system():
    A = np.array([[-0.3, 1.0], [-1.0, -0.5]])
    sys = SystemMatrices(A=A, B=np.zeros((2, 1)), B_e=np.zeros((2, 1)),
                         C=np.array([[1.0, 0.0]]), D=np.zeros((1, 1)),
                         D_e=np.zeros((1, 1)))
    return sys, A


class _LinearReference:
    def __init__(self, A, x0):
        self.A = A
        self.x0 = x0
        self.t_end = None

    def x(self, t):
        return expm(self.A * t) @ self.x0

    y = None


def test_linear_system_matches_matrix_exponential():
    sys, A = _linear_test_system()
    x0 = np.array([1.0, -2.0])
    rec = simulate(sys, zero_nonlinearity(1, 1), zero_input(1), 0.0, x0,
                   SimOptions(method="rk4_fixed", dt=1e-4, tmax=1.0))
    assert rec.termination.kind == "reached_tmax"
    assert np.all(np.diff(rec.times) > 0)
    metrics = compare_to_reference(rec, _LinearReference(A, x0))
    assert metrics["x_max_err"] < 1e-6


def test_escape_of_existence_bounded_state(entry):
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-4, tmax=1.0))
    assert rec.termination.kind == "no_output_solution"
    assert abs(rec.termination.time - LN2) < 1e-3
    # state value mid-run against the closed form
    i = int(np.searchsorted(rec.times, 0.5))
    t_i = rec.times[i]
    assert np.max(np.abs(rec.x[i] - e.reference.x(t_i))) < 1e-6
    # bounded state and bounded output integrals: no blow-up here
    assert float(np.linalg.norm(rec.x[-1])) < 2.0
    assert rec.y_integral_norm + rec.u_integral_norm < 10.0
    assert np.max(rec.residuals) <= 1e-10


def test_blowup_with_output_divergence(entry):
    e = entry("ex3d")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk45_adaptive", dt=1e-3, tmax=2.0))
    assert rec.termination.kind == "blow_up"
    assert abs(rec.termination.time - PI_2) < 1e-2
    assert rec.y_sup_norm > 1e6
    # the recorded output integral grows monotonically to its final value
    assert np.all(np.diff(rec.y_integral) >= -1e-15)


def test_adaptive_method_crosses_existence_boundary(entry):
    # the adaptive scheme must locate the same escape as the fixed one
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk45_adaptive", dt=1e-3, tmax=1.0))
    assert rec.termination.kind == "no_output_solution"
    assert abs(rec.termination.time - LN2) < 1e-6


def test_piecewise_constant_forcing():
    # scalar integrator with a step input: x tracks each level of v
    from luresim import piecewise_constant_input
    sys = SystemMatrices(A=[[-1.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[0.0]], D_e=[[0.0]])
    v = piecewise_constant_input([1.0], [[0.0], [2.0]])
    rec = simulate(sys, zero_nonlinearity(1, 1), v, 0.0, [0.0],
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=3.0))
    assert rec.termination.kind == "reached_tmax"
    i = int(np.searchsorted(rec.times, 1.0)) - 1         # strictly before the jump
    assert abs(rec.x[i, 0]) < 1e-12                      # still at rest
    assert rec.x[-1, 0] == pytest.approx(2.0 * (1.0 - math.exp(-2.0)),
                                         abs=1e-4)


def test_forward_complete_run_keeps_residuals(entry):
    e = entry("ex4c")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, np.array([0.7, -0.4]),
                   SimOptions(method="rk45_adaptive", dt=1e-2, tmax=10.0))
    assert rec.termination.kind == "reached_tmax"
    assert np.max(rec.residuals) <= 1e-10


def test_unsolvable_at_initial_time(entry):
    e = entry("ex3a")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, np.array([1.5, 0.0]),
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=1.0))
    assert rec.termination.kind == "no_output_solution"
    assert rec.termination.time == 0.0
    assert rec.n_samples == 0


def test_output_equation_consistency(entry, rng):
    # residual re-evaluated directly from the record, not the solver
    e = entry("ex4b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, rng.standard_normal(2),
                   SimOptions(method="rk4_fixed", dt=1e-2, tmax=2.0))
    for i in range(0, rec.n_samples, 17):
        t = rec.times[i]
        r = (rec.y[i] - e.system.D @ e.nonlinearity(t, rec.y[i])
             - e.system.C @ rec.x[i] - e.system.D_e @ e.input(t))
        assert np.linalg.norm(r) <= 1e-10


def test_rk4_solves_each_stage_point_once(entry, monkeypatch):
    # stage 1 reuses the accepted point's output: four solves per step
    # (three stages and the landing point) plus the initial one
    # (an exact-route stage chooses through _choose, a Newton-route one
    # solves through solve_output)
    e = entry("sec42c")
    calls = []

    def counting(solve):
        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)
        return counted

    for name in ("solve_output", "_choose"):
        monkeypatch.setattr(integrator, name,
                            counting(getattr(integrator, name)))
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=0.2))
    steps = rec.n_samples - 1
    assert rec.termination.kind == "reached_tmax" and steps == 200
    assert len(calls) == 4 * steps + 1


# ---------------------------------------------------------------------------
# Escape-time refinement
# ---------------------------------------------------------------------------

def test_refine_escape_time_ln2(entry):
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=1.0))
    t_star, half = refine_escape_time(rec, e.system, e.nonlinearity, e.input,
                                      time_tol=1e-6)
    assert abs(t_star - LN2) < 1e-5


def _x_squared_run():
    """xdot = x^2 from x(0) = 1, which escapes at t = 1, run with rk4_fixed
    at dt 1e-3: (sys, f, opts, record)."""
    sys = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[0.0]], C=[[1.0]],
                         D=[[0.0]], D_e=[[0.0]])
    f = piecewise_scalar([ScalarPiece(lo=-math.inf, hi=math.inf, c2=1.0)])
    opts = SimOptions(method="rk4_fixed", dt=1e-3, tmax=2.0)
    return sys, f, opts, simulate(sys, f, zero_input(1), 0.0, [1.0], opts)


def test_refine_escape_time_bisects_a_fixed_step_blow_up():
    # The fixed-step run of xdot = x^2 stops where |x| crosses
    # blowup_threshold, without a bracket, so the refinement re-enters the
    # loop over the step between the last two samples.
    sys, f, opts, rec = _x_squared_run()
    assert rec.termination.kind == "blow_up" and rec.termination.bracket is None
    t_star, half = refine_escape_time(rec, sys, f, zero_input(1),
                                      time_tol=1e-7, opts=opts)
    assert math.isclose(t_star, 1.000137870789675, rel_tol=1e-12)
    assert math.isclose(half, 8.843204157837903e-08, rel_tol=1e-12)
    assert rec.times[-2] < t_star <= rec.times[-1] and half <= 1e-7


@pytest.mark.parametrize("time_tol", [math.nan, math.inf, 0.0, -1e-7])
def test_refine_escape_time_rejects_a_bad_time_tol(time_tol):
    # a NaN time_tol once returned the last step's midpoint silently
    sys, f, opts, rec = _x_squared_run()
    with pytest.raises(ConfigurationError, match="time_tol"):
        refine_escape_time(rec, sys, f, zero_input(1), time_tol=time_tol,
                           opts=opts)


@pytest.mark.parametrize("name, method, dt", [
    ("ex3b", "rk4_fixed", 1e-4), ("ex3b", "rk4_fixed", 1e-3),
    ("ex3b", "rk45_adaptive", 1e-3), ("ex3d", "rk4_fixed", 1e-3),
    ("ex3d", "rk45_adaptive", 1e-3)])
def test_refined_escape_time_lies_in_the_runs_bracket(entry, name, method, dt):
    e = entry(name)
    opts = SimOptions(method=method, dt=dt, tmax=e.tmax)
    rec = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0, opts)
    lo, hi = rec.termination.bracket
    t_star, half = refine_escape_time(rec, e.system, e.nonlinearity, e.input,
                                      time_tol=1e-7, opts=opts)
    assert lo <= t_star - half and t_star + half <= hi


def test_refine_escape_time_meets_time_tol_above_the_step_floor(entry):
    # dt_min 1e-5 leaves the run's bracket 1.6e-5 wide; the refinement
    # narrows it below time_tol rather than stopping at dt_min
    e = entry("ex3b")
    runs = []
    for dt_min in (1e-12, 1e-5):
        opts = SimOptions(method="rk4_fixed", dt=1e-3, dt_min=dt_min, tmax=e.tmax)
        rec = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0, opts)
        runs.append(refine_escape_time(rec, e.system, e.nonlinearity, e.input,
                                       time_tol=1e-7, opts=opts))
    (t_fine, _), (t_star, half) = runs
    assert rec.termination.bracket[1] - rec.termination.bracket[0] > 1e-5
    assert half <= 1e-7
    assert abs(t_star - LN2) <= half and abs(t_star - t_fine) <= half


def test_refine_escape_time_after_a_newton_route_stage_failure(entry):
    # From x_ref(0.69) on the Newton route (no exact fibre), the stages
    # near ln 2 fail inside solve_output, and the step halving brackets it
    e = entry("ex3b")
    opts = SimOptions(method="rk4_fixed", dt=1e-3, tmax=e.tmax,
                      solver=SolveOptions(use_structure=False))
    rec = simulate(e.system, e.nonlinearity, e.input, 0.69,
                   e.reference.x(0.69), opts)
    assert rec.termination.kind == "no_output_solution"
    assert rec.n_samples == 19
    t_star, _ = refine_escape_time(rec, e.system, e.nonlinearity, e.input,
                                   time_tol=1e-7, opts=opts)
    assert abs(t_star - LN2) < 1e-9


def test_refine_escape_time_pi_half(entry):
    e = entry("ex3d")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk45_adaptive", dt=1e-3, tmax=2.0))
    t_star, half = refine_escape_time(rec, e.system, e.nonlinearity, e.input,
                                      time_tol=1e-6)
    assert abs(t_star - PI_2) < 1e-4


def _quadratic_growth_system():
    # xdot = x^2 via feedback: A=0, B=1, C=1, D=0, f(xi) = xi^2
    sys = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[0.0]], D_e=[[0.0]])
    f = Nonlinearity(m=1, p=1, fn=lambda t, xi: np.array([xi[0] ** 2]),
                     jac=lambda t, xi: np.array([[2.0 * xi[0]]]))
    return sys, f


def test_refine_escape_time_quadratic_growth():
    # closed form x(t) = 1/(1 - t): escape at t = 1
    sys, f = _quadratic_growth_system()
    rec = simulate(sys, f, zero_input(1), 0.0, [1.0],
                   SimOptions(method="rk45_adaptive", dt=1e-3, tmax=2.0,
                              rtol=1e-10))
    assert rec.termination.kind == "blow_up"
    t_star, half = refine_escape_time(rec, sys, f, zero_input(1),
                                      time_tol=1e-7)
    assert abs(t_star - 1.0) < 1e-5


def test_refine_requires_terminated_record():
    sys, A = _linear_test_system()
    rec = simulate(sys, zero_nonlinearity(1, 1), zero_input(1), 0.0,
                   [1.0, 0.0], SimOptions(method="rk4_fixed", dt=1e-2, tmax=0.5))
    with pytest.raises(UsageError):
        refine_escape_time(rec, sys, zero_nonlinearity(1, 1), zero_input(1))


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

def test_compare_to_reference_on_catalog(entry):
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-4, tmax=1.0))
    metrics = compare_to_reference(rec, e.reference)
    assert metrics["x_max_err"] < 1e-6
    assert metrics["y_max_err"] < 1e-6


def test_compare_constant_branch(entry):
    e = entry("ex3c")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=2.0))
    # warm-started solver follows the upper branch y = +1/2 from x0 = 1/4
    metrics = compare_to_reference(rec, e.references[0])
    assert metrics["x_max_err"] < 1e-8


def test_compare_domain_mismatch_raises(entry):
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=1.0))

    class BadRef:
        t_end = -1.0
        x = staticmethod(lambda t: np.zeros(2))
        y = None

    with pytest.raises(UsageError):
        compare_to_reference(rec, BadRef())


# ---------------------------------------------------------------------------
# Convergence order and blow-up dichotomy
# ---------------------------------------------------------------------------

def _sup_error_vs_reference(e, dt, tmax=0.5):
    opts = SimOptions(method="rk4_fixed", dt=dt, tmax=tmax)
    opts.solver.tol_resid = 1e-13
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0, opts)
    return compare_to_reference(rec, e.reference)["x_max_err"]


def test_rk4_convergence_order(entry):
    e = entry("ex3b")
    errors = [_sup_error_vs_reference(e, dt) for dt in (0.1, 0.05, 0.025, 0.0125)]
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        assert 8.0 <= ratio <= 32.0, errors


def test_blowup_dichotomy_integral_thresholds():
    # xdot = |x|^{3/2}: int ||y|| grows like 1/(escape - t), so the recorded
    # integral passes any fixed threshold as the blow-up threshold rises.
    sys = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[0.0]], D_e=[[0.0]])
    f = Nonlinearity(m=1, p=1,
                     fn=lambda t, xi: np.array([abs(xi[0]) ** 1.5]),
                     jac=lambda t, xi: np.array([[1.5 * abs(xi[0]) ** 0.5]]))
    rec = simulate(sys, f, zero_input(1), 0.0, [1.0],
                   SimOptions(method="rk45_adaptive", dt=1e-3, tmax=5.0,
                              blowup_threshold=1e8))
    assert rec.termination.kind == "blow_up"
    assert np.all(np.diff(rec.y_integral) >= -1e-15)
    for threshold in (1e2, 1e3):
        assert rec.y_integral_norm > threshold


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def test_csv_and_summary_emission(tmp_path, entry):
    e = entry("ex3c")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-2, tmax=0.1))
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    write_csv(rec, csv_path)
    write_summary_json(rec, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x_1,y_1,u_1,residual"
    assert len(lines) == rec.n_samples + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.25
    summary = json.loads(json_path.read_text())
    assert summary["termination"] == "reached_tmax"
    assert summary == summary_dict(rec) | {"bracket": summary["bracket"]}


def _csv_per_value(record) -> str:
    """The CSV as formatted one value at a time, ``format(v, '.17g')``."""
    n, p, m = (a.shape[1] if record.n_samples else 0
               for a in (record.x, record.y, record.u))
    header = (["t"] + [f"x_{i+1}" for i in range(n)]
              + [f"y_{i+1}" for i in range(p)]
              + [f"u_{i+1}" for i in range(m)] + ["residual"])
    if record.branches is not None:
        header.append("branch")
    lines = [",".join(header)]
    for i in range(record.n_samples):
        values = ([record.times[i], *record.x[i], *record.y[i], *record.u[i],
                   record.residuals[i]])
        row = [format(float(v), ".17g") for v in values]
        if record.branches is not None:
            row.append(str(int(record.branches[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("samples", [0, 1, 7, integrator._CSV_BLOCK + 3])
@pytest.mark.parametrize("with_branches", [False, True])
def test_csv_bytes_equal_per_value_formatting(tmp_path, samples, with_branches):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                1e308, 0.1, 1.0 / 3.0, -2.5, 123456789.0, 1e-7, 1e22]
    rng = np.random.default_rng(11)
    # every special value once the record has two or more samples
    values = rng.permutation(np.resize(specials, samples * 7)).reshape(samples, 7)
    record = integrator.TrajectoryRecord(
        times=values[:, 0], x=values[:, 1:3], y=values[:, 3:4],
        u=values[:, 4:6], residuals=values[:, 6],
        termination=integrator.Termination(kind="reached_tmax", time=1.0),
        y_integral=np.zeros(samples), u_integral=np.zeros(samples),
        branches=(rng.integers(-1, 12, size=samples) if with_branches
                  else None))
    path = tmp_path / "run.csv"
    write_csv(record, path)
    assert path.read_bytes() == _csv_per_value(record).encode()


def test_summary_reports_termination_fields(entry):
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=1.0))
    s = summary_dict(rec)
    assert s["termination"] == "no_output_solution"
    assert s["t_star"] == rec.termination.time
    assert s["y_integral_norm"] == rec.y_integral_norm


# ---------------------------------------------------------------------------
# The float form of 1 x 1 systems
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_scalar_plant_matches_array_products(rng):
    # numpy accumulates a 1 x 1 product as 0 + a x: [[-1.]] @ [0.] is +0.0,
    # and the float form must keep that sign, underflow included
    specials = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-200, -1e-200, 5e-324, -3.25]
    for _ in range(400):
        a, b, b_e, c, d, d_e, x, y, u, vt = rng.choice(specials, size=10)
        sys = SystemMatrices(A=[[a]], B=[[b]], B_e=[[b_e]], C=[[c]], D=[[d]],
                             D_e=[[d_e]])
        floats = integrator._ScalarPlant(sys, None)
        arrays = integrator._Plant(sys, None)
        X, Y, U, V = (np.array([z]) for z in (x, y, u, vt))
        x, y, u, vt = float(x), float(y), float(u), float(vt)
        terms, TERMS = floats.terms(vt), arrays.terms(V)
        assert all(map(_same_bits, terms, TERMS))
        assert _same_bits(floats.target(x, terms), arrays.target(X, TERMS))
        assert _same_bits(floats.slope(x, u, terms), arrays.slope(X, U, TERMS))
        assert _same_bits(floats.residual(x, y, u, terms),
                          arrays.residual(X, Y, U, TERMS))
        if c * c != 0.0:
            assert _same_bits(floats.shift_target(x, vt),
                              arrays.shift_target(X, float(vt)))


@pytest.mark.parametrize("name, x0, v", [
    ("ex3c", -0.0, 0.0), ("ex3c", 0.25, -0.0), ("sec42a", -0.0, -0.0),
    ("sec42c", 0.5, -0.0),
])
def test_float_stage_equals_array_path(entry, monkeypatch, name, x0, v):
    # both integrators on a 1 x 1 system from x0 = -0.0 or under v = -0.0,
    # with the float form and with the array form forced
    from luresim import (InclusionOptions, SelectionPolicy, constant_input,
                         simulate_inclusion)
    import luresim.inclusion as inclusion

    e = entry(name)
    x0, v = np.array([x0]), constant_input([v])

    def runs():
        sim = simulate(e.system, e.nonlinearity, v, 0.0, x0,
                       SimOptions(method="rk4_fixed", dt=1e-2, tmax=0.3))
        inc = simulate_inclusion(e.system, e.nonlinearity, v, 0.0, x0,
                                 SelectionPolicy.min_norm(),
                                 InclusionOptions(method="rk4", dt=1e-2,
                                                  tmax=0.3))
        return sim, inc

    floats = runs()
    monkeypatch.setattr(integrator, "_plant", integrator._Plant)
    monkeypatch.setattr(inclusion, "_plant", integrator._Plant)
    arrays = runs()
    for got, want in zip(floats, arrays):
        assert got.n_samples > 1
        for field in ("times", "x", "y", "u", "residuals", "y_integral",
                      "u_integral"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field
        assert got.flags == want.flags
        assert got.termination == want.termination


# ---------------------------------------------------------------------------
# The recorder's norms and running integrals
# ---------------------------------------------------------------------------

def _running_sums(times, ys, us):
    """The running integrals of ||y|| and ||u||, summed sample after sample
    from each sample's own norm."""
    y_int, u_int = [], []
    for k, t in enumerate(times):
        ynorm, unorm = vec_norm(ys[k]), vec_norm(us[k])
        if k:
            dt = t - times[k - 1]
            y_int.append(y_int[-1] + 0.5 * dt * (ylast + ynorm))
            u_int.append(u_int[-1] + 0.5 * dt * (ulast + unorm))
        else:
            y_int.append(0.0)
            u_int.append(0.0)
        ylast, ulast = ynorm, unorm
    return np.array(y_int), np.array(u_int)


def _assert_integrals_of(rec):
    y_int, u_int = _running_sums(rec.times.tolist(), rec.y, rec.u)
    assert rec.y_integral.tobytes() == y_int.tobytes()
    assert rec.u_integral.tobytes() == u_int.tobytes()
    assert rec.y_integral.shape == rec.u_integral.shape == rec.times.shape


def _system(n, p):
    rng = np.random.default_rng(n * 10 + p)
    return SystemMatrices(A=-np.eye(n), B=rng.normal(size=(n, p)),
                          B_e=np.zeros((n, 1)), C=rng.normal(size=(p, n)),
                          D=0.1 * rng.normal(size=(p, p)), D_e=np.zeros((p, 1)))


@pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("count", [0, 1, 2, 20001])
def test_recorder_integrals_equal_the_running_sum(n, p, count):
    # (1, 1) records on floats, the others on arrays; the values span six
    # decades, so a sum in another order would show in the bits
    sys = _system(n, p)
    plant = integrator._plant(sys, zero_input(1))
    rec = integrator._Recorder(plant)
    rng = np.random.default_rng(count)
    times = np.cumsum(rng.uniform(1e-4, 1e-2, count)) - 0.5
    terms = plant.input(0.0)
    for t in times.tolist():
        x, y, u = (rng.normal(size=k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
                   for k in (n, p, p))
        if isinstance(plant, integrator._ScalarPlant):     # the float form
            x, y, u = float(x[0]), float(y[0]), float(u[0])
        rec.push(t, x, y, u, terms)
    record = rec.build(integrator.Termination(kind="reached_tmax", time=0.0))
    assert record.n_samples == count
    _assert_integrals_of(record)


def test_recorder_keeps_a_copy_of_the_first_state():
    sys, A = _linear_test_system()
    x0 = np.array([1.0, 0.5])
    rec = simulate(sys, zero_nonlinearity(1, 1), zero_input(1), 0.0, x0,
                   SimOptions(dt=0.1, tmax=0.3))
    x0[:] = 7.0
    assert rec.x[0].tolist() == [1.0, 0.5]


def test_integrals_of_runs():
    # a p = 3 linear map on arrays, and ex3c's branch 0, which lands on a fold
    sys = _system(3, 3)
    rec = simulate(sys, linear_nonlinearity(np.diag([0.5, -0.2, 1.0])),
                   zero_input(1), 0.0, [1.0, -2.0, 0.5], SimOptions(dt=1e-2, tmax=1.0))
    assert rec.n_samples == 101
    _assert_integrals_of(rec)
    e = build_example("ex3c")
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                             SelectionPolicy.fixed_branch(0),
                             InclusionOptions(dt=1e-3, tmax=e.tmax))
    assert "fold" in rec.flags
    _assert_integrals_of(rec)
