"""Array forms against their loop forms: the sampled image-convexity test
and the dense-scan oracle evaluate whole grids at once, and must return
exactly what one evaluation per sample or cell returns."""

import math

import numpy as np
import pytest

from luresim import (SolveOptions, brute_force_fibre_oracle,
                     check_image_convexity, enumerate_fibre,
                     enumerate_fibre_exact, residual_norm)
from luresim.output_solver import (FLAT_TOL, FibreSet, _assemble_scalar_fibre,
                                   _cluster_vectors, _newton)
from scipy.optimize import brentq


def _convexity_loop(f, t, fib):
    """The sampled path of ``check_image_convexity``, one pair at a time."""
    samples = [np.asarray(f(t, pt), dtype=float) for pt in fib.points]
    spacing = 1e-9
    for a, b in fib.segments:
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            continue
        imgs = [np.asarray(f(t, (1.0 - s) * a + s * b), dtype=float)
                for s in np.linspace(0.0, 1.0, 65)]
        for u1, u2 in zip(imgs, imgs[1:]):
            spacing = max(spacing, float(np.linalg.norm(u2 - u1)))
        samples.extend(imgs)
    if len(samples) <= 1:
        return "convex_sampled", 0.0, None
    tol = 2.0 * spacing + 1e-8
    rng = np.random.default_rng(1234)
    arr = np.array(samples)
    worst, witness = 0.0, None
    for _ in range(min(256, 4 * len(samples) * len(samples))):
        i, j = rng.integers(0, len(samples), size=2)
        mid = 0.5 * (arr[i] + arr[j])
        dist = float(np.min(np.linalg.norm(arr - mid, axis=1)))
        if dist > worst:
            worst = dist
            witness = {"pair": (arr[i].tolist(), arr[j].tolist()),
                       "midpoint": mid.tolist(), "distance": dist}
    if worst <= tol:
        return "convex_sampled", 0.0, None
    return "violation", worst, witness


def _convexity_cases(entry):
    cases = []
    e = entry("sec42b")                       # radial segments
    for w in ([0.5, 0.0], [0.3, -0.4], [1.2, 0.1], [0.05, 0.02]):
        cases.append((e, 0.0, enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, w)))
    for name in ("ex4a", "ex4b", "ex4c"):     # multistart fibres
        e = entry(name)
        for t, w in ((0.0, [0.5, 0.2]), (1.3, [-1.0, 2.0])):
            cases.append((e, t, enumerate_fibre(e.nonlinearity, e.system.D, t, w,
                                                SolveOptions(seed=0))))
    e = entry("sec42b")                       # several points: a violation
    pts = tuple(np.array(p) for p in ([0.5, 0.0], [3.0, 0.0], [0.0, 3.0]))
    cases.append((e, 0.0, FibreSet(points=pts, segments=(), exact=False)))
    e = entry("ex3c")                         # scalar, sampled path
    cases.append((e, 0.0, FibreSet(points=(np.array([-0.5]), np.array([0.5])),
                                   segments=(), exact=False)))
    return cases


def test_sampled_convexity_matches_loop(entry):
    kinds = set()
    for e, t, fib in _convexity_cases(entry):
        got = check_image_convexity(e.nonlinearity, e.system.D, t, fib.w, fib)
        kind, gap, witness = _convexity_loop(e.nonlinearity, t, fib)
        assert (got.kind, got.gap, got.witness) == (kind, gap, witness)
        kinds.add(kind)
    assert kinds == {"convex_sampled", "violation"}


def _scalar_oracle_loop(f, d, t, target, R, h_scan):
    """The scalar scan of ``brute_force_fibre_oracle``, cell by cell."""
    n = int(round(2.0 * R / h_scan)) + 1
    xs = np.linspace(-R, R, n)
    resid = xs - d * f.eval_scalar_array(t, xs) - target

    def resid_scalar(x):
        return x - d * f.eval_scalar(t, x) - target

    flat = np.abs(resid) < FLAT_TOL
    points, segments = [], []
    i = 0
    while i < n:
        if flat[i]:
            j = i
            while j + 1 < n and flat[j + 1]:
                j += 1
            if j > i:
                segments.append((float(xs[i]), float(xs[j])))
            else:
                points.append(float(xs[i]))
            i = j + 1
        else:
            i += 1
    for i in range(n - 1):
        if not (flat[i] or flat[i + 1]) and resid[i] * resid[i + 1] < 0.0:
            points.append(float(brentq(resid_scalar, xs[i], xs[i + 1], xtol=1e-13)))
    return _assemble_scalar_fibre(points, segments, resid_scalar, h_scan * 0.5)


@pytest.mark.parametrize("name, t, w", [
    ("ex3c", 0.0, 0.25), ("ex3c", 0.0, 0.0), ("ex3a", 0.3, 0.5),
    ("sec42a", 0.0, 0.3), ("sec42a", 1.0, -0.3), ("sec42c", 2.5, 0.0),
    ("sec42c", 1.0, 0.2), ("ex3d", 0.7, -1.1),
])
def test_scalar_oracle_matches_loop(entry, name, t, w):
    e = entry(name)
    d = float(e.system.D[0, 0])
    fib = brute_force_fibre_oracle(e.nonlinearity, e.system.D, t, [w],
                                   R=4.0, h_scan=1e-3)
    pts, segs = _scalar_oracle_loop(e.nonlinearity, d, t, w, 4.0, 1e-3)
    assert [float(p[0]) for p in fib.points] == pts
    assert [(float(a[0]), float(b[0])) for a, b in fib.segments] == segs


def _planar_oracle_loop(f, D, t, w, R, h_scan):
    """The planar scan of ``brute_force_fibre_oracle``, cell by cell."""
    n = int(round(2.0 * R / h_scan)) + 1
    axis = np.linspace(-R, R, n)
    opts = SolveOptions(tol_resid=1e-10)
    hits = []
    for x1 in axis:
        for x2 in axis:
            y = np.array([x1, x2])
            if residual_norm(f, D, t, y, w) < max(1e-6, h_scan):
                ys, _, _, ok, _, _ = _newton(f, D, t, w, y, opts)
                if ok:
                    hits.append(ys)
    return _cluster_vectors(hits, 2.0 * h_scan)


@pytest.mark.parametrize("name, t, w", [
    ("sec42b", 0.0, [0.7, 0.0]), ("sec42b", 0.0, [0.5, 0.0]),
    ("ex4b", 0.4, [0.5, 0.2]), ("ex4a", 1.1, [0.3, -0.6]),
])
def test_planar_oracle_matches_loop(entry, name, t, w):
    e = entry(name)
    w = np.array(w)
    fib = brute_force_fibre_oracle(e.nonlinearity, e.system.D, t, w,
                                   R=3.0, h_scan=0.05)
    reps = _planar_oracle_loop(e.nonlinearity, e.system.D, t, w, 3.0, 0.05)
    assert len(fib.points) == len(reps) >= 1
    for a, b in zip(fib.points, reps):
        assert a.tolist() == b.tolist()


def test_planar_oracle_blocks_cover_the_grid(entry, monkeypatch):
    # a block smaller than one grid row still scans every cell once
    from luresim import output_solver
    e = entry("sec42b")
    w = np.array([0.7, 0.0])
    whole = brute_force_fibre_oracle(e.nonlinearity, e.system.D, 0.0, w,
                                     R=3.0, h_scan=0.1)
    monkeypatch.setattr(output_solver, "_SCAN_ROWS", 1)
    blocked = brute_force_fibre_oracle(e.nonlinearity, e.system.D, 0.0, w,
                                       R=3.0, h_scan=0.1)
    assert [p.tolist() for p in blocked.points] == [p.tolist() for p in whole.points]
    assert len(whole.points) == 1
    assert math.isclose(float(np.linalg.norm(whole.points[0])), 2.4, rel_tol=1e-9)
