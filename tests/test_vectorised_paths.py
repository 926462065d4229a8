"""Array forms against their loop forms: the sampled image-convexity test
and the dense-scan oracle evaluate whole grids at once, and must return
exactly what one evaluation per sample or cell returns.  The one-start
Newton kernel and the one-point FD Jacobian must return exactly what the
forms they replaced return."""

import math

import numpy as np
import pytest

from luresim import (EXAMPLE_NAMES, EvaluationError, Nonlinearity,
                     SolveOptions, brute_force_fibre_oracle,
                     check_image_convexity, enumerate_fibre,
                     enumerate_fibre_exact, finite_diff_jacobian,
                     finite_diff_jacobians, normalized_gain, residual_norm)
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
    e = entry("sec42b")                       # radial segments, as inexact fibres
    for w in ([0.5, 0.0], [0.3, -0.4], [1.2, 0.1], [0.05, 0.02]):
        fib = enumerate_fibre_exact(e.nonlinearity, e.system.D, 0.0, w)
        cases.append((e, 0.0, FibreSet(points=fib.points, segments=fib.segments,
                                       exact=False, w=fib.w)))
    for name in ("ex4a", "ex4b", "ex4c"):     # multistart fibres
        e = entry(name)
        for t, w in ((0.0, [0.5, 0.2]), (1.3, [-1.0, 2.0])):
            cases.append((e, t, enumerate_fibre(e.nonlinearity, e.system.D, t, w,
                                                SolveOptions(seed=0, use_structure=False))))
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


# ---------------------------------------------------------------------------
# The one-start Newton kernel and the one-point FD Jacobian against the
# forms they replaced, kept here as references
# ---------------------------------------------------------------------------

def _reference_fd(f, t, xi, h=None):
    """The former one-point Jacobian: the stacked form's zero-filled step
    rows and its reshape-transpose quotient, at one point."""
    X = np.asarray(xi, dtype=float).reshape(1, -1)
    n, p = X.shape
    if h is None:
        h = 1e-6 * np.fmax(1.0, np.sqrt(np.vecdot(X, X)))
    else:
        h = np.broadcast_to(np.asarray(h, dtype=float), (1,))
    steps = np.zeros((n, p, p))
    steps[:, np.arange(p), np.arange(p)] = h[:, None]
    rows = np.empty((n, p, 2, p))
    rows[:, :, 0] = X[:, None, :] + steps
    rows[:, :, 1] = X[:, None, :] - steps
    values = f.eval_batch(t, rows.reshape(2 * p * n, p))
    pairs = values.reshape(n, p, 2, -1)
    cols = (pairs[:, :, 0] - pairs[:, :, 1]) / (2.0 * h)[:, None, None]
    return np.ascontiguousarray(cols.transpose(0, 2, 1))[0]


def _reference_newton(f, D, t, w, y0, opts):
    """The former ``_newton``: closures for the residual and the Jacobian,
    ``np.all(np.isfinite(...))`` on the step."""
    p = w.size
    eye = np.eye(p)

    def resid(y):
        u = f(t, y)
        return y - D @ u - w, u

    def jac(y):
        Jf = f.jac(t, y) if f.jac is not None else _reference_fd(f, t, y)
        return eye - D @ Jf

    y = np.asarray(y0, dtype=float).reshape(-1).copy()
    try:
        r, u = resid(y)
    except EvaluationError:
        return y, math.inf, 0, False, None, False
    rnorm = float(np.linalg.norm(r))
    for it in range(1, opts.max_iter + 1):
        if rnorm <= opts.tol_resid:
            return y, rnorm, it - 1, True, u, False
        try:
            J = jac(y)
            step = np.linalg.solve(J, -r)
        except (np.linalg.LinAlgError, EvaluationError):
            return y, rnorm, it - 1, False, u, False
        if not np.all(np.isfinite(step)):
            return y, rnorm, it - 1, False, u, False
        lam = 1.0
        accepted = False
        while lam >= 2.0 ** -30:
            y_new = y + lam * step
            try:
                r_new, u_new = resid(y_new)
            except EvaluationError:
                lam *= 0.5
                continue
            rn_new = float(np.linalg.norm(r_new))
            if rn_new <= (1.0 - 1e-4 * lam) * rnorm or rn_new <= opts.tol_resid:
                y, r, u, rnorm = y_new, r_new, u_new, rn_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            return y, rnorm, it, False, u, False
    ok = rnorm <= opts.tol_resid
    return y, rnorm, opts.max_iter, ok, u, not ok


def _bits(result):
    """A Newton result with its arrays as bytes, so -0.0 and NaN compare."""
    y, rnorm, iters, ok, u, cut = result
    return (y.tobytes(), np.float64(rnorm).tobytes(), iters, ok,
            None if u is None else u.tobytes(), cut)


@pytest.mark.parametrize("name", ["ex4a", "ex4b", "ex4c"])
@pytest.mark.parametrize("max_iter", [1, 3, 100])
def test_newton_equals_reference_on_draws(entry, name, max_iter):
    e = entry(name)
    f, D = e.nonlinearity, e.system.D
    opts = SolveOptions(max_iter=max_iter)
    draws = np.random.default_rng(EXAMPLE_NAMES.index(name))
    for _ in range(40):
        t = float(draws.uniform(0.0, 5.0))
        w, y0 = draws.uniform(-2.0, 2.0, (2, 2))
        got = _newton(f, D, t, w, y0, opts)
        assert _bits(got) == _bits(_reference_newton(f, D, t, w, y0, opts))
    # the FD Jacobian itself, analytic Jacobians aside
    for _ in range(40):
        t = float(draws.uniform(0.0, 5.0))
        xi = draws.uniform(-2.0, 2.0, 2)
        assert (finite_diff_jacobian(f, t, xi).tobytes()
                == _reference_fd(f, t, xi).tobytes())


def _quadratic(jac_sign=None, raise_below=None, jac=None):
    """f(xi) = (xi - 0.5)^2 + xi; with D = 1 the residual is -(y - 0.5)^2 - w.

    ``jac_sign`` = -1 gives a wrong-signed analytic Jacobian (steps go
    uphill), ``raise_below`` a domain edge, ``jac`` any analytic Jacobian.
    """
    def fn(t, xi):
        if raise_below is not None and xi[0] < raise_below:
            raise EvaluationError("outside the domain", t=t, point=xi)
        return np.array([(xi[0] - 0.5) ** 2 + xi[0]])

    if jac is None and jac_sign is not None:
        def jac(t, xi):
            return np.array([[jac_sign * (2.0 * (xi[0] - 0.5) + 1.0)]])
    return Nonlinearity(m=1, p=1, fn=fn, jac=jac)


@pytest.mark.parametrize("case, f, w, y0, max_iter, path", [
    # the first evaluation fails
    ("first_eval", _quadratic(raise_below=-1.0), -0.5, -2.0, 30,
     (math.inf, 0, False, False)),
    # the Jacobian of the residual is exactly singular at the start
    ("singular", _quadratic(jac_sign=1.0), -0.5, 0.5, 30, (None, 0, False, False)),
    # a NaN Jacobian passes LAPACK and gives a non-finite step
    ("non_finite_step", _quadratic(jac=lambda t, xi: np.array([[math.nan]])),
     -0.5, 2.0, 30, (None, 0, False, False)),
    # uphill steps: the line search runs out
    ("stagnation", _quadratic(jac_sign=-1.0), -0.5, 2.0, 30, (None, 1, False, False)),
    # a converging start stopped by max_iter
    ("max_iter", _quadratic(), -0.5, 3.0, 2, (None, 2, False, True)),
    # the first full step leaves the domain and is halved
    ("trial_eval", _quadratic(raise_below=-0.2), -0.25, 0.4, 30,
     (None, None, True, False)),
    # FD Jacobian, converging
    ("converges", _quadratic(), -0.5, 3.0, 30, (None, None, True, False)),
    # a step 2e4 times too short lowers the residual by 5e-5 of itself: no
    # sufficient decrease, but below tol_resid, so accepted
    ("tol_accept", Nonlinearity(m=1, p=1, fn=lambda t, xi: np.zeros(1),
                                jac=lambda t, xi: np.array([[1.0 - 2e4]])),
     0.0, 1.00003e-10, 30, (None, 1, True, False)),
])
def test_newton_exit_paths_equal_reference(case, f, w, y0, max_iter, path):
    D, w, y0 = np.array([[1.0]]), np.array([w]), np.array([y0])
    opts = SolveOptions(max_iter=max_iter)
    got = _newton(f, D, 0.0, w, y0, opts)
    assert _bits(got) == _bits(_reference_newton(f, D, 0.0, w, y0, opts))
    resid, iters, ok, cut = path
    assert (got[3], got[5]) == (ok, cut)
    if resid is not None:
        assert got[1] == resid
    if iters is not None:
        assert got[2] == iters
    if case == "first_eval":
        assert got[4] is None


def _sign_sensitive(p):
    """A map that tells -0.0 from 0.0 in every entry."""
    return Nonlinearity(m=p, p=p, name="sign_sensitive", fn=lambda t, xi: np.array(
        [math.copysign(1.0 + v * v, v) * (1.0 + t) for v in xi.tolist()]))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_fd_forms_agree_bit_for_bit(entry, p):
    maps = [_sign_sensitive(p), normalized_gain(p=p, gain=lambda t: 0.5 + 0.1 * t)]
    if p == 1:
        maps += [entry("sec42c").nonlinearity, entry("ex3d").nonlinearity]
    if p == 2:
        maps += [entry("ex4a").nonlinearity, entry("sec42b").nonlinearity]
    draws = np.random.default_rng(p)
    X = draws.uniform(-2.0, 2.0, (30, p))
    X[:8] = draws.choice([-0.0, 0.0, 0.5, -1.5], size=(8, p))
    X[8] = -0.0
    X[9] = 0.0
    T = draws.uniform(0.0, 3.0, len(X))
    for f in maps:
        for h in (None, 1e-5):
            J = finite_diff_jacobians(f, 1.7, X, h=h)
            J_rows = finite_diff_jacobians(f, T, X, h=h)
            for i, xi in enumerate(X):
                one = finite_diff_jacobian(f, 1.7, xi, h=h)
                assert one.flags.c_contiguous
                assert one.tobytes() == J[i].tobytes()
                assert one.tobytes() == _reference_fd(f, 1.7, xi, h).tobytes()
                assert (J_rows[i].tobytes()
                        == _reference_fd(f, float(T[i]), xi, h).tobytes())
