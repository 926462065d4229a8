import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luresim import (ConfigurationError, SolveOptions, brute_force_fibre_oracle,
                     check_image_convexity, deadzone_saturation,
                     enumerate_fibre_exact, enumerate_fibre_multistart,
                     identity_minus_atan, parabolic_band, residual_norm,
                     solve_output, zero_nonlinearity)


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


@pytest.mark.parametrize("name", ["ex3a", "ex3c", "ex3d", "sec42a", "sec42c"])
def test_oracle_equivalence_spot(entry, name):
    e = entry(name)
    f, D = e.nonlinearity, e.system.D
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(12):
        t = float(rng.random() * 3.0)
        w = float(rng.uniform(-1.5, 1.5))
        exact = enumerate_fibre_exact(f, D, t, [w])
        oracle = brute_force_fibre_oracle(f, D, t, [w], R=4.0, h_scan=1e-3)
        e_pts, e_segs = _clip_exact_to_window(exact, 4.0, margin=1e-2)
        o_pts, o_segs = _clip_exact_to_window(oracle, 4.0, margin=1e-2)
        assert len(e_pts) == len(o_pts), (name, t, w)
        for a, b in zip(e_pts, o_pts):
            assert abs(a - b) < 1e-8
        assert len(e_segs) == len(o_segs)
        for (la, ha), (lb, hb) in zip(e_segs, o_segs):
            assert abs(la - lb) <= 1e-3 and abs(ha - hb) <= 1e-3


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
