import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from luresim import (EXAMPLE_NAMES, ConfigurationError, EvaluationError,
                     FibreSet, ScalarPiece, SelectionPolicy, SolveOptions,
                     brute_force_fibre_oracle, check_image_convexity,
                     compile_vector_expression, deadzone_saturation,
                     enumerate_fibre, enumerate_fibre_exact, enumerate_fibre_multistart,
                     identity_minus_atan, parabolic_band, parse_config,
                     piecewise_scalar, residual_norm, select_from_fibre,
                     solve_output, zero_nonlinearity)
from luresim.inclusion import _fold_candidates
from luresim.nonlinearity import _eval_resolved
from luresim.output_solver import (_assemble_scalar_fibre, _newton, _order,
                                   _piece_image, _piece_roots_for_target,
                                   _scalar_fibre)


# ---------------------------------------------------------------------------
# solve_output
# ---------------------------------------------------------------------------

def test_no_solution_outside_band(entry):
    e = entry("ex3a")
    sol = solve_output(e.system, e.nonlinearity, 0.0, [1.5], [0.0])
    assert sol.status == "no_solution"
    assert sol.certificate["kind"] == "range_exclusion"


def test_unique_solution_inside_band(entry):
    e = entry("ex3b")
    sol = solve_output(e.system, e.nonlinearity, 0.0, [0.5], [0.0])
    assert sol.status == "unique_point"
    assert sol.y == pytest.approx([1.0], abs=1e-12)
    assert sol.residual < 1e-12


def test_zero_nonlinearity_returns_target():
    f = zero_nonlinearity(1, 1)
    from luresim import SystemMatrices
    sys = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[1.0]], D_e=[[0.0]])
    sol = solve_output(sys, f, 0.0, [0.7], [5.0])
    assert sol.status == "unique_point"
    assert sol.y == pytest.approx([0.7], abs=1e-12)
    assert sol.iterations <= 1


def test_atan_output_map(entry):
    e = entry("ex3d")
    sol = solve_output(e.system, e.nonlinearity, 0.0, [1.0], [0.0])
    assert sol.y == pytest.approx([math.tan(1.0)], abs=1e-10)
    assert sol.residual < 1e-10


def test_exhaustion_certificate_without_structure(entry):
    # with the exact range analysis disabled the verdict must still be
    # honest: every start stagnates at residual ~0.5 and that report is
    # attached to the no-solution outcome
    e = entry("ex3a")
    sol = solve_output(e.system, e.nonlinearity, 0.0, [1.5], [0.0],
                       SolveOptions(use_structure=False, n_starts=12))
    assert sol.status == "no_solution"
    assert sol.certificate["kind"] == "exhaustion"
    assert sol.certificate["min_residual"] == pytest.approx(0.5, abs=1e-6)


def test_exhaustion_certificate_counts_every_start(entry):
    # the warm start and the n_starts Halton starts all stagnate at the
    # band's distance; just outside the band the same search reads
    # not_converged instead of no_solution
    e = entry("ex3a")
    opts = SolveOptions(use_structure=False)
    sol = solve_output(e.system, e.nonlinearity, 0.0, [1.5], [0.0], opts)
    assert (sol.status, sol.y, sol.n_found) == ("no_solution", None, 0)
    assert sol.certificate == {"kind": "exhaustion", "n_starts": 17,
                               "min_residual": 0.5}
    assert sol.residual == 0.5
    sol = solve_output(e.system, e.nonlinearity, 0.0, [1.0 + 5e-7], [0.0], opts)
    assert sol.status == "not_converged"
    assert sol.certificate["min_residual"] == pytest.approx(5e-7, rel=1e-6)


@pytest.mark.parametrize("name", ["ex4a", "ex4b", "ex4c"])
def test_truncated_search_reads_not_converged(entry, name):
    # one Newton iteration per start on targets that solve uniquely with
    # the default budget: the starts run out of max_iter while their
    # residuals still fall, which is no evidence of an empty fibre
    e = entry(name)
    rng = np.random.default_rng(EXAMPLE_NAMES.index(name))
    for _ in range(12):
        t = float(rng.uniform(0.0, 1.0))
        w, guess = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
        full = solve_output(e.system, e.nonlinearity, t, w, guess,
                            SolveOptions(use_structure=False))
        assert full.status == "unique_point"
        cut = solve_output(e.system, e.nonlinearity, t, w, guess,
                           SolveOptions(use_structure=False, max_iter=1))
        assert (cut.status, cut.y) == ("not_converged", None)
        assert cut.certificate["kind"] == "exhaustion"


@pytest.mark.parametrize("name", ["ex3c", "ex4a", "ex4b", "ex4c"])
def test_newton_fallback_is_nearest_of_multistart_fibre(entry, name):
    # when Newton from the warm start fails, solve_output answers with the
    # element of the multistart fibre around the warm start nearest to it
    e = entry(name)
    f, D = e.nonlinearity, e.system.D
    p = D.shape[0]
    rng = np.random.default_rng(11)
    fallbacks = found = 0
    for max_iter in (1, 3, 4):
        opts = SolveOptions(use_structure=False, max_iter=max_iter)
        for _ in range(8):
            t = float(rng.uniform(0.0, 1.0))
            w = rng.uniform(-2.0, 2.0, p)
            guess = rng.uniform(-2.0, 2.0, p)
            sol = solve_output(e.system, f, t, w, guess, opts)
            if _newton(f, D, t, w, guess, opts)[3]:
                continue
            fallbacks += 1
            fib = enumerate_fibre_multistart(f, D, t, w, opts, center=guess)
            assert sol.n_found == fib.n_elements
            if fib.empty:
                assert sol.y is None
                assert sol.status in ("no_solution", "not_converged")
                continue
            found += 1
            y = fib.nearest(guess)[0]
            assert sol.y.tobytes() == y.tobytes()
            assert sol.status == ("multiple" if fib.is_set_valued()
                                  else "unique_point")
            assert sol.residual <= opts.tol_resid
    assert fallbacks > 0 and found > 0


def test_multiple_status_reports_nearest(entry):
    e = entry("ex3c")
    sol = solve_output(e.system, e.nonlinearity, 0.0, [0.25], [0.4])
    assert sol.status == "multiple"
    assert sol.y == pytest.approx([0.5], abs=1e-12)
    assert sol.n_found >= 2


def test_zero_max_iter_rejected(entry):
    e = entry("ex3b")
    with pytest.raises(ConfigurationError):
        solve_output(e.system, e.nonlinearity, 0.0, [0.5], [0.0],
                     SolveOptions(max_iter=0))


def test_monotone_map_guess_independent(entry, rng):
    # F(xi) = atan(xi) is strictly increasing, so the answer cannot depend
    # on the starting guess.
    e = entry("ex3d")
    opts = SolveOptions(use_structure=False, search_radius=12.0,
                        tol_resid=1e-13)
    ys = []
    for _ in range(100):
        guess = rng.standard_normal(1) * 3.0
        sol = solve_output(e.system, e.nonlinearity, 0.0, [0.9], guess, opts)
        assert sol.y is not None
        ys.append(float(sol.y[0]))
    assert np.max(ys) - np.min(ys) < 1e-10


@settings(max_examples=30, deadline=None)
@given(w=st.floats(-0.95, 0.95))
def test_residual_contract_on_parabolic_band(w):
    # Every returned output satisfies the equation to tolerance,
    # re-evaluated independently of the solver loop.
    f = parabolic_band()
    from luresim import SystemMatrices
    sys = SystemMatrices(A=[[-1.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[1.0]], D_e=[[1.0]])
    sol = solve_output(sys, f, 0.0, [w], [0.0])
    assert sol.y is not None
    assert residual_norm(f, sys.D, 0.0, sol.y, [w]) <= 1e-10


# ---------------------------------------------------------------------------
# Exact fibre enumeration
# ---------------------------------------------------------------------------

def test_deadzone_fibre_is_transition_band():
    f = deadzone_saturation(0.3)
    fib = enumerate_fibre_exact(f, [[1.0]], 0.0, [0.3])
    assert fib.exact and not fib.points and len(fib.segments) == 1
    a, b = fib.segments[0]
    assert a[0] == pytest.approx(0.3, abs=1e-14)
    assert b[0] == pytest.approx(1.3, abs=1e-14)


def test_parabolic_band_two_point_fibre():
    fib = enumerate_fibre_exact(parabolic_band(), [[1.0]], 0.0, [0.25])
    vals = sorted(float(pt[0]) for pt in fib.points)
    assert vals == pytest.approx([-0.5, 0.5], abs=1e-14)
    assert not fib.segments


def test_range_exclusion_gives_empty_fibre(entry):
    e = entry("ex3a")
    fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, [1.5])
    assert fib.empty


def test_unsupported_piece_formula_rejected():
    # arctan piece is only exactly solvable when the linear part cancels
    f = identity_minus_atan()
    with pytest.raises(ConfigurationError):
        enumerate_fibre_exact(f, [[0.5]], 0.0, [0.2])


# ---------------------------------------------------------------------------
# Multistart enumeration
# ---------------------------------------------------------------------------

def test_multistart_matches_solver_on_unique_fibre(entry):
    e = entry("ex4c")
    w = np.array([0.321, -0.1])
    opts = SolveOptions(n_starts=24, search_radius=6.0, seed=2)
    fib = enumerate_fibre_multistart(e.nonlinearity, e.system.D, 0.0, w, opts)
    assert len(fib.points) == 1 and not fib.segments
    sol = solve_output(e.system, e.nonlinearity, 0.0, w, w, opts)
    assert np.linalg.norm(fib.points[0] - sol.y) <= 1e-8


def test_multistart_finds_both_branches():
    f = parabolic_band()
    opts = SolveOptions(n_starts=64, search_radius=3.0, seed=0)
    fib = enumerate_fibre_multistart(f, [[1.0]], 0.0, [0.25], opts,
                                     center=[0.0])
    vals = sorted(float(pt[0]) for pt in fib.points)
    assert len(vals) == 2
    assert vals[0] == pytest.approx(-0.5, abs=1e-8)
    assert vals[1] == pytest.approx(0.5, abs=1e-8)


def test_multistart_trivial_zero_map():
    f = zero_nonlinearity(1, 1)
    fib = enumerate_fibre_multistart(f, [[1.0]], 0.0, [0.4])
    assert len(fib.points) == 1
    assert fib.points[0][0] == pytest.approx(0.4, abs=1e-10)


def test_multistart_grid_skips_points_where_f_overflows():
    # exp(100 y^2) overflows over most of the search window; the scalar
    # grid skips those points as the stacked starts do, and both
    # dimensions read the fibre of w = 0.5 (which holds no root) as empty
    opts = SolveOptions()
    for p in (1, 2):
        f = compile_vector_expression(
            [f"exp(100*xi_{i + 1}*xi_{i + 1})" for i in range(p)], p)
        with np.errstate(over="ignore", invalid="ignore"):     # huge steps
            fib = enumerate_fibre_multistart(f, 1e-3 * np.eye(p), 0.0,
                                             np.full(p, 0.5), opts)
        assert fib.empty, p


def test_expression_domain_error_is_stepped_around():
    # sqrt(y) fails for y < 0, the warm start among them: Newton gives up
    # there and the multistart fibre around it finds the one root,
    # y - sqrt(y)/2 = 1 at y = ((1 + sqrt(17))/4)^2
    cfg = parse_config(json.dumps({
        "matrices": {"A": [[0.0]], "B": [[1.0]], "B_e": [[0.0]], "C": [[1.0]],
                     "D": [[0.5]], "D_e": [[0.0]]},
        "nonlinearity": {"expression": ["sqrt(xi_1)"]},
        "input": {"zero": True}}))
    with pytest.raises(EvaluationError) as exc:
        cfg.nonlinearity(0.5, [-4.0])
    assert exc.value.t == 0.5 and exc.value.point.tolist() == [-4.0]
    sol = solve_output(cfg.system, cfg.nonlinearity, 0.0, [1.0], [-4.0])
    assert sol.status == "unique_point"
    assert sol.y[0] == pytest.approx(((1.0 + math.sqrt(17.0)) / 4.0) ** 2,
                                     abs=1e-9)
    assert sol.y[0] == pytest.approx(1.6404, abs=1e-4)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_quadratic_roots():
    # hand algebra: xi^2 = 1/4 inside the band gives +-1/2
    fib = brute_force_fibre_oracle(parabolic_band(), [[1.0]], 0.0, [0.25],
                                   R=3.0, h_scan=1e-3)
    vals = sorted(float(pt[0]) for pt in fib.points)
    assert len(vals) == 2
    assert vals[0] == pytest.approx(-0.5, abs=1e-10)
    assert vals[1] == pytest.approx(0.5, abs=1e-10)


def test_oracle_segment_detection():
    fib = brute_force_fibre_oracle(deadzone_saturation(0.3), [[1.0]], 0.0,
                                   [0.3], R=3.0, h_scan=1e-3)
    assert len(fib.segments) == 1
    a, b = fib.segments[0]
    assert abs(a[0] - 0.3) <= 1e-3
    assert abs(b[0] - 1.3) <= 1e-3


def _flat_between(lo, hi):
    """f with F(x) = x - f(x) = 0 on [lo, hi] and slope 1/2 outside."""
    return piecewise_scalar([ScalarPiece(lo=-math.inf, hi=lo, c0=0.5 * lo, c1=0.5),
                             ScalarPiece(lo=lo, hi=hi, c1=1.0),
                             ScalarPiece(lo=hi, hi=math.inf, c0=0.5 * hi, c1=0.5)])


def test_multistart_merges_a_flat_piece_into_a_segment():
    # the starts and the bracketing grid land on the flat piece; chains of
    # solutions whose midpoints also solve merge into the one segment
    f = _flat_between(0.0, 1.0)
    exact = enumerate_fibre_exact(f, [[1.0]], 0.0, [0.0])
    fib = enumerate_fibre(f, [[1.0]], 0.0, [0.0], SolveOptions(use_structure=False))
    assert not fib.exact and not fib.points and fib.is_set_valued()
    assert exact.to_dict()["segments"] == [[[0.0], [1.0]]]
    # Newton stops within tol_resid = 1e-10 of F = (x - 1) / 2 = 0
    assert np.allclose(fib.to_dict()["segments"], [[[0.0], [1.0]]], rtol=0, atol=1e-9)
    (kind, (a, b)), = fib.elements()            # a p = 1 multistart gives arrays
    assert kind == "segment" and isinstance(a, np.ndarray) and a.shape == (1,)
    value, dist, idx = fib.nearest(0.25)
    assert value.tolist() == [0.25] and dist == 0.0 and idx == 0


def test_a_short_flat_piece_collapses_to_its_midpoint():
    # a segment no wider than 2 tol_sep is one point at its midpoint, on the
    # exact route (tol_sep 1e-6) and from the oracle (tol_sep h_scan / 2)
    h = 2.0 ** -20                              # 9.5e-7; the grid is exact
    f = _flat_between(0.0, h)
    fib = enumerate_fibre_exact(f, [[1.0]], 0.0, [0.0])
    assert fib.elements() == [("point", 0.5 * h)] and not fib.segments
    oracle = brute_force_fibre_oracle(f, [[1.0]], 0.0, [0.0], R=8 * h, h_scan=h)
    assert [pt.tolist() for pt in oracle.points] == [[0.5 * h]]
    assert not oracle.segments


def test_oracle_empty_off_range(entry):
    e = entry("ex3a")
    fib = brute_force_fibre_oracle(e.nonlinearity, e.system.D, 0.0, [5.0],
                                   R=3.0, h_scan=1e-3)
    assert fib.empty


@pytest.mark.parametrize("w", [[1.5, 0.5], [], [math.nan], [math.inf]])
def test_fibre_routes_reject_bad_target(entry, w):
    # every route checks the target against p = 1 before using w[0]
    e = entry("sec42a")
    f, D = e.nonlinearity, e.system.D
    calls = (lambda: solve_output(e.system, f, 0.0, w, [0.0]),
             lambda: enumerate_fibre_exact(f, D, 0.0, w),
             lambda: enumerate_fibre_multistart(f, D, 0.0, w),
             lambda: brute_force_fibre_oracle(f, D, 0.0, w, R=2.0, h_scan=0.01))
    for call in calls:
        with pytest.raises(ConfigurationError, match="w must be a finite vector of length 1"):
            call()


def test_oracle_rejects_bad_radius(entry):
    e = entry("ex3a")
    with pytest.raises(ConfigurationError):
        brute_force_fibre_oracle(e.nonlinearity, e.system.D, 0.0, [0.5],
                                 R=-1.0, h_scan=1e-3)


def test_oracle_rejects_a_planar_grid_over_its_budget(entry):
    # 20001^2 cells, rejected before the first block is allocated
    e = entry("ex4b")
    with pytest.raises(ConfigurationError, match="spans more than"):
        brute_force_fibre_oracle(e.nonlinearity, e.system.D, 0.0, [0.5, 0.2],
                                 R=10.0, h_scan=1e-3)


def test_oracle_planar_radial(entry):
    e = entry("sec42b")
    w = np.array([0.7, 0.0])
    fib = brute_force_fibre_oracle(e.nonlinearity, e.system.D, 0.0, w,
                                   R=3.0, h_scan=0.1)
    exact = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, w)
    assert len(fib.points) == len(exact.points) == 1
    assert np.linalg.norm(fib.points[0] - exact.points[0]) < 1e-8


# ---------------------------------------------------------------------------
# Oracle equivalence and convexity witness
# ---------------------------------------------------------------------------

def _clip_exact_to_window(fib, R, margin):
    pts = [float(pt[0]) for pt in fib.points if abs(float(pt[0])) <= R - margin]
    segs = []
    for a, b in fib.segments:
        lo, hi = float(a[0]), float(b[0])
        lo, hi = max(lo, -R), min(hi, R)
        if lo < hi:
            segs.append((lo, hi))
    return sorted(pts), sorted(segs)


def _assert_oracle_agrees(f, D, t: float, w: float):
    """The exact fibre within [-4, 4] against the oracle's scan at step
    1e-3, or at a quarter of the least gap between exact points where that
    is smaller: a coarser scan merges two roots closer than its step."""
    exact = enumerate_fibre_exact(f, D, t, [w])
    e_pts, e_segs = _clip_exact_to_window(exact, 4.0, margin=1e-2)
    h_scan = min([1e-3, *(0.25 * gap for gap in np.diff(e_pts))])
    oracle = brute_force_fibre_oracle(f, D, t, [w], R=4.0, h_scan=h_scan)
    o_pts, o_segs = _clip_exact_to_window(oracle, 4.0, margin=1e-2)
    assert len(e_pts) == len(o_pts), (t, w, h_scan)
    for a, b in zip(e_pts, o_pts):
        assert abs(a - b) < 1e-8
    assert len(e_segs) == len(o_segs)
    for (la, ha), (lb, hb) in zip(e_segs, o_segs):
        assert abs(la - lb) <= 1e-3 and abs(ha - hb) <= 1e-3


@pytest.mark.parametrize("name", ["ex3a", "ex3c", "ex3d", "sec42a", "sec42c"])
def test_oracle_equivalence_spot(entry, name):
    # seeded from the name's CRC-32, which, unlike hash(), every process
    # computes alike
    e = entry(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(12):
        t = float(rng.random() * 3.0)
        w = float(rng.uniform(-1.5, 1.5))
        _assert_oracle_agrees(e.nonlinearity, e.system.D, t, w)


def test_oracle_equivalence_on_roots_closer_than_the_scan_step(entry):
    # a draw that once failed the spot test: ex3c's roots w - 0.75 and
    # -sqrt(w) lie 7.2e-4 apart, within one 1e-3 scan step, where the
    # oracle sees one root
    e = entry("ex3c")
    t, w = 2.656644970818963, 0.24963874029623945
    coarse = brute_force_fibre_oracle(e.nonlinearity, e.system.D, t, [w],
                                      R=4.0, h_scan=1e-3)
    assert len(coarse.points) == 2
    _assert_oracle_agrees(e.nonlinearity, e.system.D, t, w)


def _resolve(value, t: float) -> float:
    return value(t) if callable(value) else value


@st.composite
def _continuous_tilings(draw, varying=None):
    """(f, d, t): a continuous piecewise-quadratic f, a scalar feedthrough d
    and a time t.  A time-varying f (one draw in two, unless ``varying`` is
    given) has coefficients c + rate sin(t) and breakpoints moving together
    by shift sin(t)."""
    coeff = st.floats(-2.0, 2.0)
    if varying is None:
        varying = draw(st.booleans())
    breaks = sorted(draw(st.lists(st.floats(-3.0, 3.0), max_size=3,
                                  unique=True)))
    if varying:
        shift = draw(st.floats(-0.5, 0.5))

        def moving(value):
            rate = draw(coeff)
            return lambda t: value + rate * math.sin(t)
        edges = [-math.inf, *(lambda t, b=b: b + shift * math.sin(t)
                              for b in breaks), math.inf]
    else:
        def moving(value):
            return value
        edges = [-math.inf, *breaks, math.inf]
    c0 = moving(draw(coeff))
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        c1, c2 = moving(draw(coeff)), moving(draw(coeff))
        if pieces:
            # continuity at the breakpoint fixes the offset
            def c0(t, prev=pieces[-1], lo=lo, c1=c1, c2=c2):
                x = _resolve(lo, t)
                return prev.at(t).value(x) - x * (_resolve(c1, t)
                                                  + x * _resolve(c2, t))
            if not varying:
                c0 = c0(0.0)
        pieces.append(ScalarPiece(lo=lo, hi=hi, c0=c0, c1=c1, c2=c2))
    t = draw(st.floats(0.0, 3.0)) if varying else 0.0
    return piecewise_scalar(pieces), draw(coeff), t


@settings(max_examples=25, deadline=None)
@given(case=_continuous_tilings(), w=st.floats(-4.0, 4.0))
def test_exact_fibre_matches_oracle_on_random_tilings(case, w):
    # targets at least 1e-3 from every fold value, so every root is simple
    # and the oracle's sign-change scan sees it
    f, d, t = case
    assume(all(abs(w - value) >= 1e-3
               for _, value in _fold_candidates(f, d, t)))
    R, h_scan = 4.0, 1e-3
    exact = enumerate_fibre_exact(f, [[d]], t, [w])
    oracle = brute_force_fibre_oracle(f, [[d]], t, [w], R=R, h_scan=h_scan)
    e_pts, e_segs = _clip_exact_to_window(exact, R, margin=1e-2)
    o_pts, o_segs = _clip_exact_to_window(oracle, R, margin=1e-2)
    assert len(e_pts) == len(o_pts), (e_pts, o_pts)
    for a, b in zip(e_pts, o_pts):
        assert abs(a - b) < 1e-8
    assert len(e_segs) == len(o_segs)
    for (la, ha), (lb, hb) in zip(e_segs, o_segs):
        assert abs(la - lb) <= h_scan and abs(ha - hb) <= h_scan


@settings(max_examples=25, deadline=None)
@given(case=_continuous_tilings(), data=st.data())
def test_exact_fibre_at_fold_targets_on_random_tilings(case, data):
    # w is a fold value, so the fold point is a root that may be tangent
    # (double); it must appear once, and the roots away from every fold at
    # level w, where the oracle's sign-change scan sees them, must match
    f, d, t = case
    folds = _fold_candidates(f, d, t)
    assume(folds)
    xi_fold, w = data.draw(st.sampled_from(folds))
    R = 4.0
    exact = enumerate_fibre_exact(f, [[d]], t, [w])
    for pt in exact.points:      # at roundoff, which grows with |xi| and |w|
        scale = max(1.0, abs(pt[0]), abs(w))
        assert residual_norm(f, [[d]], t, pt, [w]) <= 1e-12 * scale
    # roots closer than 2 tol_sep = 2e-6 are one fibre element
    near = [float(pt[0]) for pt in exact.points
            if abs(float(pt[0]) - xi_fold) <= 2e-6]
    covered = any(float(a[0]) - 2e-6 <= xi_fold <= float(b[0]) + 2e-6
                  for a, b in exact.segments)
    assert len(near) == (0 if covered else 1), (xi_fold, near, exact.segments)

    at_level = [x for x, value in folds if abs(value - w) <= 1e-3]

    def away(fib):
        pts, _ = _clip_exact_to_window(fib, R, margin=1e-2)
        return [x for x in pts if all(abs(x - xf) > 1e-3 for xf in at_level)]

    oracle = brute_force_fibre_oracle(f, [[d]], t, [w], R=R, h_scan=1e-3)
    e_pts, o_pts = away(exact), away(oracle)
    assert len(e_pts) == len(o_pts), (e_pts, o_pts)
    for a, b in zip(e_pts, o_pts):
        assert abs(a - b) < 1e-8


@st.composite
def _degenerate_static_tilings(draw):
    """(f, d): a static continuous tiling whose pieces may be degenerate:
    c2 subnormal, F = x - d f flat or flat to a few ulps, or an arctan piece
    whose linear part cancels (the one kind ``_piece_roots_for_target``
    solves); breakpoints may sit at -1e6 and 1e6.  Coefficients on a grid
    of 2^-10 and d a power of two keep the terms at +-1e6 exact, so the
    offsets that continuity fixes pass the tiling check."""
    coeff = st.integers(-2048, 2048).map(lambda k: k / 1024.0)
    d = draw(st.sampled_from([-2.0, -0.5, -0.125, 0.25, 1.0, 2.0]))
    breaks = set(draw(st.lists(st.floats(-3.0, 3.0), max_size=3, unique=True)))
    breaks |= set(draw(st.sets(st.sampled_from([-1e6, 1e6]))))
    edges = [-math.inf, *sorted(breaks), math.inf]
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        shape = draw(st.sampled_from(["quadratic", "subnormal", "flat",
                                      "nearly_flat", "arctan"]))
        c1, c2, atan_coeff = draw(coeff), draw(coeff), 0.0
        if shape == "subnormal":
            c2 = draw(st.sampled_from([2.2e-309, -2.2e-309, 5e-324]))
        elif shape == "flat":
            c1, c2 = 1.0 / d, 0.0
        elif shape == "nearly_flat":
            c1 = (1.0 / d) * (1.0 + draw(st.integers(-4, 4)) * 2.0 ** -52)
            c2 = draw(st.sampled_from([0.0, 1e-17, -3e-16]))
        elif shape == "arctan":
            c1, c2 = 1.0 / d, 0.0
            atan_coeff = draw(coeff.filter(lambda v: v != 0.0))
        # continuity at the breakpoint fixes the offset
        c0 = (pieces[-1].at(0.0).value(lo)
              - ScalarPiece(lo, hi, 0.0, c1, c2, atan_coeff).at(0.0).value(lo)
              if pieces else draw(coeff))
        pieces.append(ScalarPiece(lo=lo, hi=hi, c0=c0, c1=c1, c2=c2,
                                  atan_coeff=atan_coeff))
    try:
        return piecewise_scalar(pieces), d
    except ConfigurationError:      # an offset at +-1e6 off by its rounding
        assume(False)


def _every_piece_fibre(f, d, w, tol_sep=1e-6):
    """The scalar fibre from every piece, none skipped."""
    pieces = f.resolved_structure(0.0)
    pts, segs = [], []
    for pc in pieces:
        p, s = _piece_roots_for_target(pc, d, w)
        pts += p
        segs += s
    return None, _order(*_assemble_scalar_fibre(
        pts, segs, lambda x: x - d * _eval_resolved(pieces, x) - w, tol_sep)), True


def _outcome(fibre, *args):
    try:
        elements = fibre(*args)[1]
    except ConfigurationError as exc:
        return repr(exc)
    return [tuple(map(float.hex, e)) if type(e) is tuple else e.hex() for e in elements]


@settings(max_examples=25, deadline=None)
@given(case=st.one_of(_continuous_tilings(varying=False).map(lambda c: c[:2]),
                     _degenerate_static_tilings()),
       data=st.data())
def test_piece_skip_never_drops_a_root(case, data):
    # a static map skips the pieces whose widened image excludes the
    # target; the fibre must keep every bit of the every-piece fibre at the
    # image ends, the fold values and the skip bounds, a few ulps either side,
    # also after the map's images were kept for another d
    f, d = case
    assert f._static_resolved is not None
    w_free = data.draw(st.floats(-10.0, 10.0))
    for dd in (d, -d):
        levels = [value for _, value in _fold_candidates(f, dd, 0.0)]
        for pc in f.resolved_structure(0.0):
            levels += _piece_image(pc, dd)
        for level in filter(math.isfinite, [*levels, w_free]):
            for k in range(-3, 4):
                w = level + k * math.ulp(level)
                assert (_outcome(_scalar_fibre, f, dd, 0.0, w, 1e-6)
                        == _outcome(_every_piece_fibre, f, dd, w)), (dd, level, k)


@pytest.mark.parametrize("c0, c1, c2, d", [
    # vertex at 109: a roundoff-positive discriminant gave two roots 2.9e-6 apart
    (0.12486449283930501, 1.3647014061798703, -0.05391826678738054,
     -0.09622051959869271),
    # vertex at 5e8: against the target's scale the curvature read as none,
    # and the linear root 2.5e8 had residual 6.25e7
    (0.0, 0.0, 1e-9, 1.0)])
def test_tangent_root_is_the_vertex_once(c0, c1, c2, d):
    f = piecewise_scalar([ScalarPiece(lo=-math.inf, hi=math.inf, c0=c0, c1=c1,
                                      c2=c2)])
    ((vertex, w),) = _fold_candidates(f, d, 0.0)
    fib = enumerate_fibre_exact(f, [[d]], 0.0, [w])
    assert [float(pt[0]) for pt in fib.points] == [vertex]


@pytest.mark.parametrize("name", ["ex3a", "ex3c", "ex3d", "sec42a", "sec42c"])
def test_exact_fibre_entries_at_roundoff(entry, name):
    # residual of every exact point and finite segment endpoint <= 1e-12
    e = entry(name)
    f, D = e.nonlinearity, e.system.D
    rng = np.random.default_rng(21)
    for _ in range(50):
        t = float(rng.random() * 3.0)
        w = float(rng.uniform(-1.8, 1.8))
        fib = enumerate_fibre_exact(f, D, t, [w])
        for pt in fib.points:
            assert residual_norm(f, D, t, pt, [w]) <= 1e-12
        for a, b in fib.segments:
            for end in (a, b):
                if np.all(np.isfinite(end)):
                    assert residual_norm(f, D, t, end, [w]) <= 1e-12


def test_nearest_tie_goes_to_first_element(entry):
    # the fibre of 1/16 under parabolic_band is {-0.25, 0.25, -0.6875}, in
    # (norm, entries) order; 0 is as far from -0.25 as from 0.25, and
    # -0.46875 as far from -0.25 as from -0.6875, all exactly
    f, D = entry("ex3c").nonlinearity, [[1.0]]
    fib = enumerate_fibre_exact(f, D, 0.0, [0.0625])
    assert fib.elements() == [("point", -0.25), ("point", 0.25),
                              ("point", -0.6875)]
    arrays = FibreSet(points=fib.points, segments=(), exact=True)
    for target in (0.0, -0.46875):
        assert fib.nearest(target) == (-0.25, abs(target + 0.25), 0)
        value, dist, idx = arrays.nearest([target])
        assert (value.tolist(), dist, idx) == ([-0.25], abs(target + 0.25), 0)
        assert select_from_fibre(fib, SelectionPolicy.nearest_previous(),
                                 prev_y=target) == (-0.25, 0)
    assert select_from_fibre(fib, SelectionPolicy.min_norm()) == (-0.25, 0)
    sol = solve_output(entry("ex3c").system, f, 0.0, [0.0625], [0.0])
    assert (sol.y.tolist(), sol.status, sol.n_found) == ([-0.25], "multiple", 3)


def test_nearest_projects_onto_a_segment_of_vectors():
    # vectors of length 2 put a FibreSet in space, where nearest once
    # clamped arrays with min and max and raised
    fib = FibreSet(points=(), segments=[(np.array([1.0, 0.0]), np.array([2.0, 0.0]))],
                   exact=True)
    value, dist, idx = fib.nearest([0.0, 0.0])
    assert (value.tolist(), dist, idx) == ([1.0, 0.0], 1.0, 0)


def test_a_ray_fibre_rebuilt_from_its_vectors_chooses_alike(entry):
    # sec42b's exact fibre of (0.5, 0) is the segment s e1, 1 <= s <= 2, on
    # the ray of w; rebuilt from its vectors it lies in space
    e = entry("sec42b")
    fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, [0.5, 0.0])
    rebuilt = FibreSet(points=fib.points, segments=fib.segments, exact=fib.exact)
    assert [kind for kind, _ in rebuilt.elements()] == ["segment"]
    for target in ([0.0, 0.0], [1.5, 0.2], [3.0, -1.0], [-2.0, 0.5]):
        (y, dist, idx), (y2, dist2, idx2) = fib.nearest(target), rebuilt.nearest(target)
        assert (y.tolist(), dist, idx) == (y2.tolist(), dist2, idx2)
    prev = np.array([1.25, 0.3])
    for policy in (SelectionPolicy.nearest_previous(), SelectionPolicy.min_norm(),
                   SelectionPolicy.max_norm(), SelectionPolicy.fixed_branch(0),
                   SelectionPolicy.segment_parameter(0.25)):
        (y, idx), (y2, idx2) = (select_from_fibre(fib, policy, prev),
                                select_from_fibre(rebuilt, policy, prev))
        assert (y.tolist(), idx) == (y2.tolist(), idx2), policy


def test_exact_fibre_points_separated(entry):
    e = entry("ex3c")
    rng = np.random.default_rng(4)
    for _ in range(60):
        w = float(rng.uniform(0.0, 0.24))
        fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, [w])
        vals = sorted(float(pt[0]) for pt in fib.points)
        for a, b in zip(vals, vals[1:]):
            assert b - a > 2e-6


def test_convexity_witness_for_deadzone_band():
    # image of the fibre over [d, 1+d] is the full interval [0, 1]
    f = deadzone_saturation(0.3)
    fib = enumerate_fibre_exact(f, [[1.0]], 0.0, [0.3])
    verdict = check_image_convexity(f, [[1.0]], 0.0, [0.3], fib)
    assert verdict.kind == "convex_exact"
