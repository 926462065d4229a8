"""Radial maps read along the ray of their target.

f(t, xi) = a(t, |xi|) xi / |xi| maps s u to g(t, s) u for every unit u,
g(t, s) = sign(s) a(t, |s|) the profile's odd extension, so with D = d I
the fibre of w is s u, u = w / |w|, over the fibre of the scalar map
s - d g(t, s) at |w|, s of either sign; the image of that fibre is g(t, s) u.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luresim import (FibreSet, Nonlinearity, ScalarPiece, SystemMatrices,
                     brute_force_fibre_oracle, check_image_convexity,
                     enumerate_fibre_exact, halfband_slopes,
                     radial_scalar_profile, radial_three_zone, residual_norm,
                     solve_output)
from luresim.inclusion import _poly_range_on
from luresim.nonlinearity import Conformal, ResolvedPiece, conformal_map

INF = math.inf


def _system(d: float, p: int = 2) -> SystemMatrices:
    return SystemMatrices(A=-np.eye(p), B=np.eye(p), B_e=np.zeros((p, 1)),
                          C=np.eye(p), D=d * np.eye(p), D_e=np.zeros((p, 1)))


def _profile(*pieces) -> Nonlinearity:
    return radial_scalar_profile([ScalarPiece(*pc) for pc in pieces], p=2)


# a(r) = r | 2r - 1 on [0, 1] | [1, inf): with D = I/2, s - g(s)/2 = 1/2 on [1, inf)
RAY_TO_INFINITY = ((0.0, 1.0, 0.0, 1.0), (1.0, INF, -1.0, 2.0))
# a(r) = 2r | r + 1 on [0, 1] | [1, inf): with D = I, s - g(s) = 1 on (-inf, -1]
# and s - g(s) stays in [-1, 1]
FROM_INFINITY = ((0.0, 1.0, 0.0, 2.0), (1.0, INF, 1.0, 1.0))


def test_fibre_on_the_negative_side():
    # F(s u) = (s - 3 s) u: the one solution is y = -w / 2, at s < 0
    f = radial_scalar_profile([ScalarPiece(lo=0, hi=INF, c1=3.0)], p=2)
    w = np.array([0.4, 0.2])
    fib = enumerate_fibre_exact(f, np.eye(2), 0.0, w)
    (y,) = fib.points
    assert np.allclose(y, [-0.2, -0.1], rtol=0.0, atol=1e-15) and not fib.segments
    sol = solve_output(_system(1.0), f, 0.0, w, np.zeros(2))
    assert sol.status == "unique_point" and sol.certificate is None
    assert np.allclose(sol.y, [-0.2, -0.1], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("w, guess, y", [
    ((0.5, 0.0), (3.0, 1.0), (3.0, 0.0)),
    ((0.0, 0.5), (3.0, 1.0), (0.0, 1.0)),
    ((0.3, 0.4), (3.0, 4.0), (3.0, 4.0)),
    ((0.3, 0.4), (-3.0, 0.0), (0.6, 0.8)),
])
def test_unbounded_segment_projects_along_the_ray(w, guess, y):
    f = _profile(*RAY_TO_INFINITY)
    fib = enumerate_fibre_exact(f, 0.5 * np.eye(2), 0.0, w)
    ((a, b),) = fib.segments
    u = np.array(w) / math.hypot(*w)
    assert np.allclose(a, u) and not np.isnan(b).any()
    assert np.array_equal(np.isinf(b), u != 0.0)
    value, dist, idx = fib.nearest(guess)
    assert np.allclose(value, y) and idx == 0
    assert dist == pytest.approx(np.linalg.norm(np.array(guess) - y))
    sol = solve_output(_system(0.5), f, 0.0, w, guess)
    assert sol.status == "multiple" and np.allclose(sol.y, y)
    assert sol.residual <= 1e-12 * max(1.0, np.linalg.norm(y))


def test_segment_unbounded_towards_minus_u():
    f = _profile(*FROM_INFINITY)
    w = np.array([0.6, -0.8])
    fib = enumerate_fibre_exact(f, np.eye(2), 0.0, w)
    ((a, b),) = fib.segments
    assert np.array_equal(a, [-math.inf, math.inf]) and np.allclose(b, -w)
    value, _, _ = fib.nearest([5.0, 0.0])
    assert np.allclose(value, -w)
    value, _, _ = fib.nearest([-6.0, 8.0])
    assert np.allclose(value, [-6.0, 8.0])
    assert residual_norm(f, np.eye(2), 0.0, value, w) <= 1e-12 * 10.0


_ALPHA_ONE = conformal_map(Conformal(          # alpha = 1: F = (1 - d) y
    1, lambda t: 1.0, lambda h, r: 0.0, lambda h, r: 0.0,
    lambda h, d, rho: ((1.0 - d) * (1.0 - d), 0.0, -rho * rho)), p=2)


@pytest.mark.parametrize("f, d, w, detail", [
    (halfband_slopes(), 1.0, [2.0], "exact piecewise range analysis"),
    (_profile(*FROM_INFINITY), 1.0, [0.0, 2.0],
     "exact piecewise range analysis along the ray of w"),
    (_ALPHA_ONE, 1.0, [0.3, 0.4], "exact root analysis of the modulus polynomial"),
])
def test_certificate_names_the_analysis(f, d, w, detail):
    p = len(w)
    assert enumerate_fibre_exact(f, d * np.eye(p), 0.0, w).empty
    sol = solve_output(_system(d, p), f, 0.0, w, np.zeros(p))
    assert sol.status == "no_solution"
    assert sol.certificate == {"kind": "range_exclusion", "detail": detail}


# ---------------------------------------------------------------------------
# Exact fibres against the dense-scan oracle
# ---------------------------------------------------------------------------

@st.composite
def _static_profiles(draw):
    """Continuous linear and quadratic pieces on [0, inf) with a(0) = 0."""
    ends = sorted(draw(st.lists(st.floats(0.1, 3.0), max_size=2, unique=True)))
    bounds = [0.0, *ends, INF]
    pieces, value = [], 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        c1 = draw(st.floats(-3.0, 3.0))
        c2 = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
        c0 = value - lo * (c1 + lo * c2)
        pieces.append(ScalarPiece(lo=lo, hi=hi, c0=c0, c1=c1, c2=c2))
        value = c0 + hi * (c1 + hi * c2)
    return pieces


@settings(max_examples=25, deadline=None)
@given(profile=_static_profiles(), d=st.floats(0.1, 4.0),
       w=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
           lambda w: math.hypot(*w) > 1e-3))
def test_fibre_against_the_scan_oracle(profile, d, w):
    f, D, w = radial_scalar_profile(profile, p=2), d * np.eye(2), np.array(w)
    fib = enumerate_fibre_exact(f, D, 0.0, w)
    ends = [e for seg in fib.segments for e in seg if np.isfinite(e).all()]
    for y in [*fib.points, *ends]:                      # the exact contract
        scale = max(1.0, float(np.linalg.norm(y)), float(np.linalg.norm(w)))
        assert residual_norm(f, D, 0.0, y, w) <= 1e-12 * scale
    oracle = brute_force_fibre_oracle(f, D, 0.0, w, R=3.0, h_scan=0.05)
    for z in oracle.points:                             # nothing the scan sees is missed
        assert not fib.empty, z
        assert fib.nearest(z)[1] <= 1e-4 * max(1.0, np.linalg.norm(z)), (z, fib.to_dict())


# ---------------------------------------------------------------------------
# Image convexity along the ray
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("piece, lo, hi, expected", [
    # flat pieces to an infinite end: c0, plus the arctan's limit
    ((-INF, 0.0, 2.0, 0.0, 0.0, 0.0), -INF, 0.0, (2.0, 2.0)),
    ((-INF, INF, 0.5, 0.0, 0.0, 1.0), -INF, INF, (0.5 - math.pi / 2, 0.5 + math.pi / 2)),
    # a quadratic: its vertex inside, and its limit at either infinite end
    ((-INF, INF, 1.0, 2.0, -1.0, 0.0), -3.0, 4.0, (-14.0, 2.0)),
    ((-INF, INF, 0.0, 0.0, 1.0, 0.0), -INF, -1.0, (1.0, INF)),
    ((-INF, INF, 0.0, 0.0, -1.0, 0.0), 1.0, INF, (-INF, -1.0)),
    ((-INF, INF, 0.0, 3.0, 0.0, 0.0), -INF, 1.0, (-INF, 3.0)),
    # x - 2 atan(x) has critical points at -1 and 1
    ((-INF, INF, 0.0, 1.0, 0.0, -2.0), -2.0, 2.0,
     (1.0 - math.pi / 2, -1.0 + math.pi / 2)),
])
def test_poly_range_on(piece, lo, hi, expected):
    assert _poly_range_on(ResolvedPiece(*piece), lo, hi) == pytest.approx(
        expected, rel=1e-15, abs=1e-15)


# a(r) = 2r | 4 - 2r | 2r - 8: with D = I, five points at |w| = 1/2, one on
# each piece of g, s = -8.5, -7/6, -0.5, 1.5, 7.5 with gaps between images
SAWTOOTH = ((0.0, 1.0, 0.0, 2.0), (1.0, 3.0, 4.0, -2.0), (3.0, INF, -8.0, 2.0))


def test_sawtooth_fibre_has_a_point_on_each_piece():
    w = np.array([0.3, 0.4])
    fib = enumerate_fibre_exact(_profile(*SAWTOOTH), np.eye(2), 0.0, w)
    s = sorted(float(y @ w) / 0.5 for y in fib.points)
    assert s == pytest.approx([-8.5, -7.0 / 6.0, -0.5, 1.5, 7.5], rel=1e-14)


def _ray_cases():
    """(f, w, exact fibre, convex) on real and constructed radial fibres."""
    three_zone, sawtooth = radial_three_zone(), _profile(*SAWTOOTH)
    D = 0.5 * np.eye(2)
    cases = [(three_zone, w, enumerate_fibre_exact(three_zone, D, 0.0, w), True)
             for w in ([0.5, 0.0], [0.3, -0.4], [1.2, 0.1], [0.05, 0.02])]
    cases.append((sawtooth, [0.3, 0.4],
                  enumerate_fibre_exact(sawtooth, np.eye(2), 0.0, [0.3, 0.4]), False))
    u = np.array([0.6, 0.8])                # images [1, 3] u with 9 u (a gap) or 2 u
    for s, convex in ((8.0, False), (1.5, True)):
        fib = FibreSet(points=[s * u], segments=[(1.0 * u, 2.0 * u)], exact=True,
                       t=0.0, w=0.5 * u)
        cases.append((three_zone, 0.5 * u, fib, convex))
    return cases


@pytest.mark.parametrize("f, w, fib, convex", _ray_cases())
def test_exact_ray_path_agrees_with_the_sampled_path(f, w, fib, convex):
    exact = check_image_convexity(f, np.eye(2), 0.0, w, fib)
    sampled = check_image_convexity(
        f, np.eye(2), 0.0, w,
        FibreSet(points=fib.points, segments=fib.segments, exact=False, w=fib.w))
    assert exact.kind == ("convex_exact" if convex else "violation")
    assert sampled.kind == ("convex_sampled" if convex else "violation")
    if not convex:                          # a gap between images of the fibre
        lo, hi = exact.witness["gap_interval"]
        assert 0.5 < hi - lo <= exact.gap


def test_convexity_witness_is_the_widest_gap():
    # the sawtooth's images at |w| = 1/2 are -9, -5/3, -1, 1, 7: the widest
    # gap, (-9, -5/3), comes first, and the last one, (1, 7), is narrower
    f, w = _profile(*SAWTOOTH), np.array([0.3, 0.4])
    verdict = check_image_convexity(f, np.eye(2), 0.0, w,
                                    enumerate_fibre_exact(f, np.eye(2), 0.0, w))
    lo, hi = verdict.witness["gap_interval"]
    assert verdict.gap == pytest.approx(22.0 / 3.0, rel=1e-14)
    assert hi - lo == verdict.gap
    assert (lo, hi) == pytest.approx((-9.0, -5.0 / 3.0), rel=1e-14)
    assert verdict.witness["midpoint"] == 0.5 * (lo + hi)
