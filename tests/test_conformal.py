"""The planar conformal maps (ex4a, ex4b, ex4c): exact fibres from one scalar
modulus equation, checked against closed forms, the dense-scan oracle and
the Newton route, plus the evaluators derived from alpha."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luresim import (EXAMPLE_NAMES, ConfigurationError, InclusionOptions,
                     SelectionPolicy, SimOptions, SolveOptions, SystemMatrices,
                     brute_force_fibre_oracle, enumerate_fibre_exact,
                     enumerate_fibre_multistart,
                     exact_structure_available, finite_diff_jacobian,
                     normalized_gain, normalized_rotation, residual_norm,
                     rotated_radial, simulate, simulate_inclusion,
                     solve_output, verify_example, zero_input)
from luresim.analyzer import _collision_pairs, _slope_probe_pairs
from luresim.nonlinearity import rotation_matrix

PLANAR = ("ex4a", "ex4b", "ex4c")
MAPS = {"rotated_radial": rotated_radial, "normalized_rotation": normalized_rotation,
        "normalized_gain": normalized_gain}


def _planar_system(d: float) -> SystemMatrices:
    return SystemMatrices(A=-np.eye(2), B=np.eye(2), B_e=np.zeros((2, 2)),
                          C=np.eye(2), D=d * np.eye(2), D_e=np.zeros((2, 2)))


def _quartic_fibre(t: float, w: np.ndarray, d: float, omega: float = 1.0):
    """normalized_rotation's fibre from np.roots of its quartic in s."""
    c, rho = math.cos(omega * t), float(np.linalg.norm(w))
    points = []
    for s in np.roots([1.0, -2.0 * d * c, d * d - 1.0 - rho * rho, 2.0 * d * c, -d * d]):
        if abs(s.imag) < 1e-7 and s.real >= 1.0:
            beta = 1.0 - d * complex(c, math.sin(omega * t)) / s.real
            y = complex(w[0], w[1]) / beta
            points.append(np.array([y.real, y.imag]))
    return points


# ---------------------------------------------------------------------------
# The route and the analyzer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PLANAR)
def test_planar_entries_take_the_exact_route(entry, name):
    e = entry(name)
    assert e.nonlinearity.kind == "conformal"
    assert exact_structure_available(e.nonlinearity, e.system.D)
    assert not exact_structure_available(e.nonlinearity, np.diag([1.0, 2.0]))
    assert _collision_pairs(e.system, e.nonlinearity, (0.0, 10.0)) == []
    assert _slope_probe_pairs(e.nonlinearity, (0.0, 10.0)) == []


@pytest.mark.parametrize("make", sorted(MAPS))
def test_derived_jacobian_matches_differences(make, rng):
    f = MAPS[make]()
    for _ in range(20):
        t, xi = float(rng.uniform(0.0, 6.0)), rng.uniform(-3.0, 3.0, 2)
        J = f.jac(t, xi)
        assert np.allclose(J, finite_diff_jacobian(f, t, xi), rtol=1e-6, atol=1e-7)
    origin = np.zeros(2)
    assert np.array_equal(f.jac(0.3, origin), f.jac_batch(np.asarray(0.3), origin[None])[0])


# ---------------------------------------------------------------------------
# Closed forms (ex4a, ex4c) and the quartic (ex4b) on recorded outputs
# ---------------------------------------------------------------------------

def test_ex4a_outputs_equal_the_closed_form_inverse(entry):
    # F_t(y) = |y| R(t) y, so y = R(t)^T w / sqrt(|w|) with w = x
    e = entry("ex4a")
    rec = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                   SimOptions(tmax=e.tmax))
    assert rec.termination.kind == "reached_tmax"
    for t, x, y in zip(rec.times.tolist(), rec.x, rec.y):
        want = rotation_matrix(t).T @ x / math.sqrt(np.linalg.norm(x))
        assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)
    assert rec.residuals.max() <= 1e-12


def test_ex4c_outputs_equal_the_closed_form_inverse(entry):
    # |y| is the positive root of r^2 + (1 - h - |w|) r - |w| = 0
    e = entry("ex4c")
    h = e.nonlinearity.params["gain"]
    rec = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                   SimOptions(tmax=e.tmax))
    assert rec.termination.kind == "reached_tmax"
    for x, y in zip(rec.x, rec.y):
        rho = float(np.linalg.norm(x))
        b = 1.0 - h - rho
        r = 2.0 * rho / (b + math.sqrt(b * b + 4.0 * rho))
        assert np.linalg.norm(y - x * (r / rho)) <= 1e-12 * r
    assert rec.residuals.max() <= 1e-12


def test_ex4b_outputs_are_roots_of_the_quartic(entry):
    e = entry("ex4b")
    rec = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                   SimOptions(method="rk45_adaptive", dt=1e-2, tmax=e.tmax))
    assert rec.termination.kind == "reached_tmax"
    for t, x, y in zip(rec.times.tolist(), rec.x, rec.y):
        (want,) = _quartic_fibre(t, x, 0.5)
        assert np.linalg.norm(y - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


# ---------------------------------------------------------------------------
# The fibre against the dense-scan oracle and the Newton route
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(make=st.sampled_from(sorted(MAPS)), d=st.floats(0.1, 8.0),
       t=st.floats(0.0, 2.0 * math.pi),
       w=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
           lambda w: math.hypot(*w) > 1e-3))
def test_fibre_against_the_scan_oracle(make, d, t, w):
    f, D, w = MAPS[make](), d * np.eye(2), np.array(w)
    fib = enumerate_fibre_exact(f, D, t, w)
    assert not fib.segments
    for y in fib.points:                                # the exact contract
        assert residual_norm(f, D, t, y, w) <= 1e-12
    norms = sorted(float(np.linalg.norm(y)) for y in fib.points)
    assert all(b - a > 1e-6 for a, b in zip(norms, norms[1:]))
    if make == "normalized_rotation":                   # the quartic in s
        assert len(fib.points) == len(_quartic_fibre(t, w, d)) >= 1
    oracle = brute_force_fibre_oracle(f, D, t, w, R=3.0, h_scan=0.05)
    for z in oracle.points:                             # nothing the scan sees is missed
        gap = min(np.linalg.norm(z - y) for y in fib.points)
        assert gap <= 1e-4 * max(1.0, np.linalg.norm(z)), (z, fib.points)


# a correct y carries a residual of a few eps |w|: a large target keeps its points
@pytest.mark.parametrize("make, d, w", [
    ("rotated_radial", 1.0, (1e4, 0.0)),
    ("rotated_radial", 3.0, (-2e5, 7e4)),
    ("normalized_rotation", 0.5, (6e4, -8e4)),
    ("normalized_gain", 0.5, (0.0, 1e5)),
    ("normalized_gain", 4.0, (3e5, 4e5)),
])
def test_fibre_of_a_large_target(make, d, w):
    f, t, w = MAPS[make](), 0.7, np.array(w)
    sol = solve_output(_planar_system(d), f, t, w, w)
    assert sol.status == "unique_point" and sol.n_found == 1
    assert sol.residual <= 1e-12 * np.linalg.norm(w)
    if make == "rotated_radial" and d == 1.0:   # ex4a's map: y = R(t)^T w / sqrt|w|
        want = rotation_matrix(t).T @ w / math.sqrt(np.linalg.norm(w))
        assert np.linalg.norm(sol.y - want) <= 1e-12 * np.linalg.norm(want)


# two of the three roots lie near the circle where 1 - d alpha = 0, or d^2
# underflows to 0 (all three were found by a wider one-off Hypothesis run)
@pytest.mark.parametrize("make, d, w, count", [
    ("normalized_rotation", 5.0, (0.0, 0.001953125), 3),
    ("normalized_gain", 5.0, (0.0, 1e-4), 3),
    ("rotated_radial", 5e-324, (0.0, 1.0), 1),
])
def test_fibre_near_a_zero_of_beta_and_at_a_tiny_feedthrough(make, d, w, count):
    # where 1 - d alpha is near 0, w / (1 - d alpha) would miss EXACT_TOL;
    # a leading coefficient that underflows must not break the companion
    f, D, w = MAPS[make](), d * np.eye(2), np.array(w)
    fib = enumerate_fibre_exact(f, D, 0.0, w)
    assert len(fib.points) == count
    for y in fib.points:
        assert residual_norm(f, D, 0.0, y, w) <= 1e-12
    wide = SolveOptions(n_starts=32, search_radius=12.0)
    for z in enumerate_fibre_multistart(f, D, 0.0, w, wide).points:
        assert min(np.linalg.norm(z - y) for y in fib.points) <= 1e-6


@pytest.mark.parametrize("d", [None, 0.5, 1.5, 3.0])
@pytest.mark.parametrize("name", PLANAR)
def test_newton_route_agrees_with_the_exact_route(entry, name, d):
    # wherever Newton succeeds its output is an element of the exact fibre,
    # and the element the exact route picks when the fibre is a singleton
    e = entry(name)
    f = e.nonlinearity
    sys = e.system if d is None else _planar_system(d)
    draws = np.random.default_rng(EXAMPLE_NAMES.index(name))
    newton = SolveOptions(use_structure=False)
    solved = 0
    for _ in range(30):
        t = float(draws.uniform(0.0, 5.0))
        w, guess = draws.uniform(-2.0, 2.0, (2, 2))
        sol = solve_output(sys, f, t, w, guess, newton)
        if sol.y is None:
            continue
        solved += 1
        fib = enumerate_fibre_exact(f, sys.D, t, w)
        assert min(np.linalg.norm(sol.y - y) for y in fib.points) <= 1e-9
        if len(fib.points) == 1:
            exact = solve_output(sys, f, t, w, guess)
            assert exact.status == "unique_point"
            assert np.linalg.norm(exact.y - sol.y) <= 1e-9
    assert solved >= 20


def test_fibre_of_the_origin(entry):
    for name in PLANAR:
        e = entry(name)
        fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.7, np.zeros(2))
        assert [y.tolist() for y in fib.points] == [[0.0, 0.0]]
    # 1 - 2 e^{i t} / s vanishes at t = 0, s = 2: a whole circle of radius sqrt(3)
    with pytest.raises(ConfigurationError, match="sphere"):
        enumerate_fibre_exact(normalized_rotation(), 2.0 * np.eye(2), 0.0, np.zeros(2))


def test_large_feedthrough_inclusion_follows_a_nonempty_fibre():
    # every fibre of normalized_rotation is nonempty (its quartic in s is
    # -|w|^2 at s = 1); the multistart route loses the output at a fold
    sys = _planar_system(3.0)
    opts = InclusionOptions(method="euler", dt=1e-2, tmax=1.0)
    rec = simulate_inclusion(sys, normalized_rotation(), zero_input(2), 0.0,
                             np.array([0.3, 0.1]), SelectionPolicy.nearest_previous(),
                             opts)
    assert rec.termination.kind == "reached_tmax"
    assert rec.residuals.max() <= 1e-12


# ---------------------------------------------------------------------------
# Full-mode verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex3c", "ex3d", "ex4a", "ex4b", "ex4c"])
def test_verify_example_full(name):
    report = verify_example(name)
    assert report.passed, "\n".join(report.lines())
