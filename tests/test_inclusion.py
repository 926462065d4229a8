import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import luresim.inclusion as inclusion
import luresim.integrator as integrator
import luresim.output_solver as output_solver
from luresim import (ConfigurationError, EmptyFibreError, FibreSet,
                     InclusionOptions, Nonlinearity, ScalarPiece,
                     SelectionPolicy, SimOptions, SolveOptions, SystemMatrices,
                     check_image_convexity, compare_to_reference,
                     constant_input, enumerate_fibre_exact, normalized_gain,
                     parabolic_band, piecewise_scalar, residual_norm,
                     select_from_fibre, simulate, simulate_inclusion)

LN2 = math.log(2.0)


def _point_fibre(*values):
    return FibreSet(points=tuple(np.atleast_1d(np.asarray(v, dtype=float))
                                 for v in values),
                    segments=(), exact=True)


def _segment_fibre(a, b):
    return FibreSet(points=(), segments=((np.atleast_1d(float(a)),
                                          np.atleast_1d(float(b))),),
                    exact=True)


# ---------------------------------------------------------------------------
# select_from_fibre
# ---------------------------------------------------------------------------

def test_fixed_branch_indexing():
    fib = _point_fibre(-0.5, 0.5)
    y0, b0 = select_from_fibre(fib, SelectionPolicy.fixed_branch(0))
    y1, b1 = select_from_fibre(fib, SelectionPolicy.fixed_branch(1))
    assert y0 == pytest.approx([-0.5]) and b0 == 0
    assert y1 == pytest.approx([0.5]) and b1 == 1


def test_fixed_branch_out_of_range():
    with pytest.raises(ConfigurationError):
        select_from_fibre(_point_fibre(0.3), SelectionPolicy.fixed_branch(2))


def test_singleton_fibre_policy_invariance():
    fib = _point_fibre([0.2, -0.4])
    prev = np.array([9.0, 9.0])
    outs = [select_from_fibre(fib, pol, prev_y=prev)[0] for pol in (
        SelectionPolicy.nearest_previous(), SelectionPolicy.min_norm(),
        SelectionPolicy.max_norm(), SelectionPolicy.fixed_branch(0))]
    for out in outs:
        assert np.array_equal(out, outs[0])


def test_segment_parameter_interpolates():
    fib = _segment_fibre(0.3, 1.3)
    y, _ = select_from_fibre(fib, SelectionPolicy.segment_parameter(0.5))
    assert y == pytest.approx([0.8])
    y0, _ = select_from_fibre(fib, SelectionPolicy.segment_parameter(0.0))
    assert y0 == pytest.approx([0.3])


def test_nearest_previous_projects_onto_segment():
    fib = _segment_fibre(0.3, 1.3)
    y, _ = select_from_fibre(fib, SelectionPolicy.nearest_previous(),
                             prev_y=np.array([2.0]))
    assert y == pytest.approx([1.3])
    y, _ = select_from_fibre(fib, SelectionPolicy.nearest_previous(),
                             prev_y=np.array([0.9]))
    assert y == pytest.approx([0.9])


def test_min_max_norm_policies():
    fib = FibreSet(points=(np.array([-2.0]),),
                   segments=((np.array([0.5]), np.array([1.5])),),
                   exact=True)
    y_min, _ = select_from_fibre(fib, SelectionPolicy.min_norm())
    y_max, _ = select_from_fibre(fib, SelectionPolicy.max_norm())
    assert y_min == pytest.approx([0.5])
    assert y_max == pytest.approx([-2.0])


def test_empty_fibre_raises_signal():
    empty = FibreSet(points=(), segments=(), exact=True)
    with pytest.raises(EmptyFibreError):
        select_from_fibre(empty, SelectionPolicy.min_norm())


def test_invalid_segment_parameter():
    with pytest.raises(ConfigurationError):
        SelectionPolicy.segment_parameter(1.5)


@pytest.mark.parametrize("text", ["fixed_branch:x", "segment_parameter:abc",
                                  "fixed_branch:-1", "nearest_previous:3",
                                  "min_norm:", "closest"])
def test_parse_rejects_bad_policy_naming_it(text):
    with pytest.raises(ConfigurationError, match=f"policy {text!r}"):
        SelectionPolicy.parse(text)


def test_negative_fixed_branch_rejected():
    with pytest.raises(ConfigurationError, match="index must be >= 0"):
        SelectionPolicy.fixed_branch(-1)


def test_parse_defaults():
    assert SelectionPolicy.parse("fixed_branch") == SelectionPolicy.fixed_branch(0)
    assert SelectionPolicy.parse("segment_parameter:") == \
        SelectionPolicy.segment_parameter(0.5)
    assert SelectionPolicy.parse("max_norm") == SelectionPolicy.max_norm()


# ---------------------------------------------------------------------------
# simulate_inclusion on the non-uniqueness example
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ex3c_runs(entry):
    e = entry("ex3c")
    opts = InclusionOptions(method="euler", dt=1e-4, tmax=2.0)
    hi = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                            SelectionPolicy.fixed_branch(1), opts)
    lo = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                            SelectionPolicy.fixed_branch(0), opts)
    return e, hi, lo


def test_constant_branch_reproduced(ex3c_runs):
    e, hi, _ = ex3c_runs
    assert hi.termination.kind == "reached_tmax"
    assert compare_to_reference(hi, e.references[0])["x_max_err"] < 1e-8


def test_decay_branch_reproduced(ex3c_runs):
    e, _, lo = ex3c_runs
    assert lo.termination.kind == "reached_tmax"
    assert compare_to_reference(lo, e.references[1])["x_max_err"] < 1e-4


def test_nonuniqueness_realized(ex3c_runs):
    # two residual-feasible trajectories from one initial state separate
    e, hi, lo = ex3c_runs
    n = min(hi.n_samples, lo.n_samples)
    gap = float(np.max(np.abs(hi.x[:n, 0] - lo.x[:n, 0])))
    assert gap > 0.1
    assert np.max(hi.residuals) <= 1e-9
    assert np.max(lo.residuals) <= 1e-9


def test_selection_consistency(ex3c_runs):
    # every selected output re-verifies against the fibre equation
    e, hi, lo = ex3c_runs
    for rec in (hi, lo):
        for i in range(0, rec.n_samples, 997):
            t = rec.times[i]
            w = e.system.C @ rec.x[i] + e.system.D_e @ e.input(t)
            assert residual_norm(e.nonlinearity, e.system.D, t,
                                 rec.y[i], w) <= 1e-9


def test_fold_event_flagged_not_silent(ex3c_runs):
    _, _, lo = ex3c_runs
    flagged = [fl for fl in lo.flags if fl]
    assert flagged, "branch end must be recorded as an event"
    assert set(flagged) <= {"fold", "jump"}


def test_branch_continuity_outside_events(ex3c_runs):
    _, _, lo = ex3c_runs
    dy = np.abs(np.diff(lo.y[:, 0]))
    for i, gap in enumerate(dy):
        if lo.flags[i + 1]:
            continue
        assert gap <= 5e-2


def test_branch_indices_recorded(ex3c_runs):
    _, hi, lo = ex3c_runs
    assert hi.branches is not None and lo.branches is not None
    assert hi.branches[0] == 1
    assert lo.branches[0] == 0


def test_inclusion_matches_simulate_on_unique_fibres(entry):
    e = entry("ex4c")
    x0 = np.array([0.8, -0.3])
    opts_inc = InclusionOptions(method="rk4", dt=1e-2, tmax=1.0)
    rec_inc = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, x0,
                                 SelectionPolicy.nearest_previous(), opts_inc)
    rec_sim = simulate(e.system, e.nonlinearity, e.input, 0.0, x0,
                       SimOptions(method="rk4_fixed", dt=1e-2, tmax=1.0))
    n = min(rec_inc.n_samples, rec_sim.n_samples)
    assert np.max(np.abs(rec_inc.x[:n] - rec_sim.x[:n])) <= 1e-8


@pytest.mark.parametrize("name, tmax", [("ex3b", None), ("ex3d", None),
                                        ("sec42a", 1.0), ("sec42c", 1.0)])
def test_exact_route_inclusion_equals_simulate(entry, name, tmax):
    # On singleton exact fibres the point-valued solve and the set-valued
    # selection resolve the same output, so both modes give the same bits,
    # stopping included.
    e = entry(name)
    tmax = tmax or e.tmax
    rec_sim = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                       SimOptions(method="rk4_fixed", dt=1e-3, tmax=tmax))
    rec_inc = simulate_inclusion(e.system, e.nonlinearity, e.input, e.t0,
                                 e.x0, SelectionPolicy.nearest_previous(),
                                 InclusionOptions(method="rk4", dt=1e-3,
                                                  tmax=tmax))
    for field in ("times", "x", "y", "u", "residuals"):
        assert np.array_equal(getattr(rec_inc, field), getattr(rec_sim, field))
    term_inc, term_sim = rec_inc.termination, rec_sim.termination
    assert (term_inc.kind, term_inc.time, term_inc.bracket) == \
        (term_sim.kind, term_sim.time, term_sim.bracket)


@st.composite
def _monotone_scalar_systems(draw):
    """(sys, f, v, x0) with n = m = m_e = p = 1 and a continuous piecewise-
    linear f whose output map x - d f(x) has slope at least 1/2, so every
    fibre is one point; small coefficients keep each step's output move
    far below the jump threshold."""
    unit = st.floats(-1.0, 1.0)
    breaks = sorted(draw(st.lists(st.floats(-2.0, 2.0), max_size=3,
                                  unique=True)))
    edges = [-math.inf, *breaks, math.inf]
    pieces, c0 = [], draw(unit)
    for lo, hi in zip(edges, edges[1:]):
        c1 = draw(st.floats(-0.5, 0.5))
        if pieces:
            c0 = pieces[-1].at(0.0).value(lo) - lo * c1
        pieces.append(ScalarPiece(lo=lo, hi=hi, c0=c0, c1=c1))
    a, b, b_e, c, d, d_e = (draw(unit) for _ in range(6))
    sys = SystemMatrices(A=[[a]], B=[[b]], B_e=[[b_e]], C=[[c]], D=[[d]],
                         D_e=[[d_e]])
    return (sys, piecewise_scalar(pieces), constant_input([draw(unit)]),
            np.array([draw(unit)]))


@settings(max_examples=20, deadline=None)
@given(case=_monotone_scalar_systems())
def test_simulate_equals_inclusion_on_unique_fibres(case):
    # the point-valued solve and the nearest_previous selection resolve
    # the same output from the same singleton fibre, stage by stage
    sys, f, v, x0 = case
    rec_sim = simulate(sys, f, v, 0.0, x0,
                       SimOptions(method="rk4_fixed", dt=1e-3, tmax=0.05))
    rec_inc = simulate_inclusion(sys, f, v, 0.0, x0,
                                 SelectionPolicy.nearest_previous(),
                                 InclusionOptions(method="rk4", dt=1e-3,
                                                  tmax=0.05))
    assert rec_sim.n_samples == rec_inc.n_samples == 51
    for field in ("times", "x", "y", "u", "residuals", "y_integral",
                  "u_integral"):
        assert getattr(rec_inc, field).tobytes() == \
            getattr(rec_sim, field).tobytes(), field
    assert set(rec_inc.flags) == set(rec_sim.flags) == {""}
    assert rec_inc.termination == rec_sim.termination


def test_unavoidable_jump_is_taken_and_flagged(entry):
    # forcing drives w below the fold with no continuation: the selection
    # must jump to the remaining branch, flagged.
    e = entry("ex3c")
    v = constant_input([-0.1])
    opts = InclusionOptions(method="euler", dt=1e-3, tmax=4.0)
    rec = simulate_inclusion(e.system, e.nonlinearity, v, 0.0,
                             np.array([0.3]),
                             SelectionPolicy.nearest_previous(), opts)
    assert "jump" in rec.flags
    assert rec.termination.kind == "reached_tmax"
    assert np.max(rec.residuals) <= 1e-9


def test_large_smooth_output_is_not_a_jump(entry):
    # sec42b's output grows past 40 along a single branch: steps of more
    # than jump_tol in absolute terms are small relative to ||y||
    e = entry("sec42b")
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                             SelectionPolicy.nearest_previous(),
                             InclusionOptions(method="euler", dt=1e-3,
                                              tmax=3.0))
    assert rec.termination.kind == "reached_tmax"
    assert np.max(np.linalg.norm(rec.y, axis=1)) > 40.0
    assert "jump" not in rec.flags


def test_empty_fibre_at_start_terminates(entry):
    e = entry("ex3a")
    opts = InclusionOptions(method="euler", dt=1e-3, tmax=1.0)
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0,
                             np.array([1.5, 0.0]),
                             SelectionPolicy.nearest_previous(), opts)
    assert rec.termination.kind == "no_output_solution"
    assert rec.n_samples == 0


def _count_fibre_calls(monkeypatch, kind):
    """The times at which the exact fibre function of ``kind`` is called."""
    calls = []
    fibre_of = output_solver._EXACT_FIBRES[kind]

    def counting(*args, **kwargs):
        calls.append(args[2])
        return fibre_of(*args, **kwargs)

    monkeypatch.setitem(output_solver._EXACT_FIBRES, kind, counting)
    return calls


def test_rk4_inclusion_enumerates_each_stage_fibre_once(entry, monkeypatch):
    # stage 1 reuses the accepted selection: four fibres per step (three
    # stages and the landing point) plus the initial one
    e = entry("sec42a")
    calls = _count_fibre_calls(monkeypatch, "piecewise_scalar")
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                             SelectionPolicy.nearest_previous(),
                             InclusionOptions(method="rk4", dt=1e-3, tmax=0.1))
    steps = rec.n_samples - 1
    assert rec.termination.kind == "reached_tmax" and steps == 100
    assert set(rec.flags) == {""}
    assert len(calls) == 4 * steps + 1


def test_fold_free_map_skips_fold_landing(entry, monkeypatch):
    # ex3d's F = atan has no breakpoint or vertex, so the jumps near its
    # blow-up have no fold to land on: no bisection enumerates fibres for
    # them, and the run needs about one fibre per attempted step
    e = entry("ex3d")
    calls = _count_fibre_calls(monkeypatch, e.nonlinearity.kind)
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                             SelectionPolicy.nearest_previous(),
                             InclusionOptions(method="euler", dt=1e-3,
                                              tmax=e.tmax))
    assert rec.termination.kind == "blow_up"
    assert rec.flags.count("jump") > 0 and "fold" not in rec.flags
    assert len(calls) < 2 * rec.n_samples


def test_euler_inclusion_evaluates_f_once_per_step(entry, monkeypatch):
    # the accepted sample's u feeds the record, the residual and the next
    # Euler slope; a 1 x 1 system evaluates f through eval_scalar
    e = entry("ex3c")
    calls = []

    def counting(method):
        evaluate = getattr(Nonlinearity, method)

        def counted(self, t, xi):
            calls.append(t)
            return evaluate(self, t, xi)
        return counted

    for method in ("eval", "eval_scalar"):
        monkeypatch.setattr(Nonlinearity, method, counting(method))
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                             SelectionPolicy.fixed_branch(1),
                             InclusionOptions(method="euler", dt=1e-3, tmax=0.2))
    assert rec.termination.kind == "reached_tmax" and rec.n_samples == 201
    assert len(calls) == rec.n_samples


# ---------------------------------------------------------------------------
# Image convexity over fibres
# ---------------------------------------------------------------------------

def test_convexity_deadzone_interval(entry):
    e = entry("sec42a")
    fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, [0.3])
    verdict = check_image_convexity(e.nonlinearity, e.system.D, 0.0, [0.3], fib)
    assert verdict.kind == "convex_exact"


def test_convexity_radial_segment(entry):
    e = entry("sec42b")
    w = np.array([0.5, 0.0])
    fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, w)
    verdict = check_image_convexity(e.nonlinearity, e.system.D, 0.0, w, fib)
    assert verdict.kind in ("convex_exact", "convex_sampled")


def test_convexity_singleton_trivial():
    f = parabolic_band()
    fib = enumerate_fibre_exact(f, [[1.0]], 0.0, [-0.5])
    assert fib.n_elements == 1
    verdict = check_image_convexity(f, [[1.0]], 0.0, [-0.5], fib)
    assert verdict.kind == "convex_exact"


def test_convexity_violation_on_three_point_fibre():
    # fibre {w - 3/4, -sqrt(w), +sqrt(w)} has a three-point image
    f = parabolic_band()
    fib = enumerate_fibre_exact(f, [[1.0]], 0.0, [0.1])
    assert len(fib.points) == 3
    verdict = check_image_convexity(f, [[1.0]], 0.0, [0.1], fib)
    assert verdict.kind == "violation"
    assert verdict.witness is not None


def test_use_structure_false_takes_the_multistart_route(entry, monkeypatch):
    # enumerate_fibre and simulate_inclusion follow the rule solve_output
    # follows: with use_structure off, no fibre is enumerated exactly
    e = entry("ex3c")
    off = SolveOptions(use_structure=False)
    exact = inclusion.enumerate_fibre(e.nonlinearity, e.system.D, 0.0, [0.1],
                                      SolveOptions())
    fib = inclusion.enumerate_fibre(e.nonlinearity, e.system.D, 0.0, [0.1], off)
    assert exact.exact and not fib.exact
    assert np.allclose(fib.points, exact.points, atol=1e-9)     # three points
    calls = {"exact": 0, "multistart": 0}

    def counting(route, original):
        def counted(*args, **kwargs):
            calls[route] += 1
            return original(*args, **kwargs)
        return counted

    # the stages call the exact route's fibre function or the multistart
    monkeypatch.setitem(output_solver._EXACT_FIBRES, "piecewise_scalar",
                        counting("exact", output_solver._scalar_fibre))
    monkeypatch.setattr(integrator, "_multistart",
                        counting("multistart", integrator._multistart))
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                             SelectionPolicy.fixed_branch(1),
                             InclusionOptions(dt=1e-3, tmax=0.01, fibre=off))
    assert rec.termination.kind == "reached_tmax" and rec.n_samples == 11
    assert calls == {"exact": 0, "multistart": rec.n_samples}
    assert np.allclose(rec.x[:, 0], 0.25, atol=1e-9)       # the constant branch


def test_scalar_conformal_map_runs_without_fold_landing():
    # a conformal map with p = 1 takes the exact route but has no pieces,
    # so there is no fold to land on
    sys = SystemMatrices(A=[[-1.0]], B=[[1.0]], B_e=[[0.0]], C=[[1.0]],
                         D=[[0.5]], D_e=[[0.0]])
    rec = simulate_inclusion(sys, normalized_gain(0.5, p=1), lambda t: np.zeros(1),
                             0.0, [1.0], SelectionPolicy.min_norm(),
                             InclusionOptions(dt=1e-3, tmax=0.01))
    assert rec.termination.kind == "reached_tmax" and rec.n_samples == 11
