"""Solving the implicit output equation F_t(y) = w, with w = C x + D_e v.

Three routes:

* ``solve_output``: damped Newton with multistart fallback, the workhorse
  inside the integrators.
* ``enumerate_fibre_exact``: closed-form enumeration of the whole fibre
  F_t^{-1}(w) for piecewise-scalar and radially structured nonlinearities
  (points and flat segments, residual at roundoff level).
* ``brute_force_fibre_oracle``: an independent dense-scan oracle used to
  cross-check the exact enumeration; it never shares code with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .derivatives import finite_diff_jacobian, finite_diff_jacobians
from .errors import ConfigurationError, EvaluationError
from .nonlinearity import Nonlinearity, row_norms
from .system import scalar_feedthrough

EXACT_TOL = 1e-12       # residual bound for exact fibre entries
FLAT_TOL = 1e-10        # oracle flat-segment detection threshold


@dataclass
class SolveOptions:
    """Tolerances and search parameters for the output solver."""

    tol_resid: float = 1e-10
    tol_sep: float = 1e-6
    max_iter: int = 100
    n_starts: int = 16
    search_radius: float = 8.0
    seed: int = 0
    resid_floor: float = 1e-6
    grid_points: int = 129
    use_structure: bool = True


@dataclass
class OutputSolution:
    status: str                      # unique_point | no_solution | multiple | not_converged
    y: np.ndarray | None
    residual: float
    iterations: int
    certificate: dict | None = None
    n_found: int = 0


@dataclass(frozen=True)
class FibreSet:
    """Exact or approximate representation of F_t^{-1}(w).

    ``points`` are isolated solutions; ``segments`` are closed solution
    segments (scalar flat pieces, or radial segments for structured
    vector nonlinearities).  Scalar segments may have an infinite
    endpoint when a flat piece is unbounded.
    """

    points: tuple[np.ndarray, ...]
    segments: tuple[tuple[np.ndarray, np.ndarray], ...]
    exact: bool
    t: float = 0.0
    w: np.ndarray | None = None

    @property
    def empty(self) -> bool:
        return not self.points and not self.segments

    @property
    def n_elements(self) -> int:
        return len(self.points) + len(self.segments)

    def is_set_valued(self) -> bool:
        if self.n_elements >= 2:
            return True
        for a, b in self.segments:
            if not np.allclose(a, b):
                return True
        return False

    def elements(self) -> list[tuple[str, object]]:
        """Deterministic ordering: sort by (norm of representative, entries)."""
        items: list[tuple[tuple, str, object]] = []
        for pt in self.points:
            items.append(((float(np.linalg.norm(pt)), tuple(pt)), "point", pt))
        for a, b in self.segments:
            rep = a if not np.all(np.isfinite(b)) else 0.5 * (a + b)
            items.append(((float(np.linalg.norm(rep)), tuple(rep)), "segment", (a, b)))
        items.sort(key=lambda item: item[0])
        return [(kind, payload) for _, kind, payload in items]

    def nearest(self, target: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Closest fibre element to target: (value, distance, element index)."""
        target = np.asarray(target, dtype=float).reshape(-1)
        best = None
        for idx, (kind, payload) in enumerate(self.elements()):
            if kind == "point":
                cand = payload
            else:
                cand = _project_onto_segment(target, *payload)
            dist = float(np.linalg.norm(cand - target))
            if best is None or dist < best[1]:
                best = (np.asarray(cand, dtype=float), dist, idx)
        if best is None:
            raise ConfigurationError("nearest() called on an empty fibre")
        return best

    def to_dict(self) -> dict:
        return {
            "points": [list(map(float, pt)) for pt in self.points],
            "segments": [[list(map(float, a)), list(map(float, b))]
                         for a, b in self.segments],
            "exact": self.exact,
            "t": float(self.t),
            "w": None if self.w is None else list(map(float, self.w)),
        }


def _project_onto_segment(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 1:
        lo, hi = float(a[0]), float(b[0])
        return np.array([min(max(float(target[0]), lo), hi)])
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return a.copy()
    s = min(max(float((target - a) @ d) / denom, 0.0), 1.0)
    return a + s * d


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

def _target(w, p: int) -> np.ndarray:
    """The output target as a flat vector; it must be finite and of length p."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != p or not np.all(np.isfinite(w)):
        raise ConfigurationError(f"w must be a finite vector of length {p}")
    return w


def _as_feedthrough(D) -> np.ndarray:
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return D


def output_residual(f: Nonlinearity, D, t: float, y, w) -> np.ndarray:
    """r(y) = y - D f(t, y) - w."""
    D = _as_feedthrough(D)
    y = np.asarray(y, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    return y - D @ f(t, y) - w


def residual_norm(f: Nonlinearity, D, t: float, y, w) -> float:
    return float(np.linalg.norm(output_residual(f, D, t, y, w)))


# ---------------------------------------------------------------------------
# Damped Newton with multistart
# ---------------------------------------------------------------------------

def _newton(f: Nonlinearity, D: np.ndarray, t: float, w: np.ndarray,
            y0: np.ndarray, opts: SolveOptions):
    """Damped Newton on the output residual. Returns (y, resid, iters, ok).

    The one-start path: ``_newton_stack`` gives the same result for one
    row but takes about twice as long, which the per-stage solves of
    ``simulate`` would pay on every step.
    """
    p = w.size
    eye = np.eye(p)

    def resid(y):
        return y - D @ f(t, y) - w

    def jac(y):
        Jf = f.jac(t, y) if f.jac is not None else finite_diff_jacobian(f, t, y)
        return eye - D @ Jf

    y = np.asarray(y0, dtype=float).reshape(-1).copy()
    try:
        r = resid(y)
    except EvaluationError:
        return y, math.inf, 0, False
    rnorm = float(np.linalg.norm(r))
    for it in range(1, opts.max_iter + 1):
        if rnorm <= opts.tol_resid:
            return y, rnorm, it - 1, True
        try:
            J = jac(y)
            step = np.linalg.solve(J, -r)
        except (np.linalg.LinAlgError, EvaluationError):
            return y, rnorm, it - 1, False
        if not np.all(np.isfinite(step)):
            return y, rnorm, it - 1, False
        lam = 1.0
        accepted = False
        while lam >= 2.0 ** -30:
            y_new = y + lam * step
            try:
                r_new = resid(y_new)
            except EvaluationError:
                lam *= 0.5
                continue
            rn_new = float(np.linalg.norm(r_new))
            if rn_new <= (1.0 - 1e-4 * lam) * rnorm or rn_new <= opts.tol_resid:
                y, r, rnorm = y_new, r_new, rn_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            return y, rnorm, it, False   # stagnation
    return y, rnorm, opts.max_iter, rnorm <= opts.tol_resid


def _newton_stack(f: Nonlinearity, D: np.ndarray, t: float, w: np.ndarray,
                  Y0: np.ndarray, opts: SolveOptions):
    """``_newton`` from every row of Y0 at once: (Y, resid, iters, ok) arrays.

    Every start follows the iteration it would follow alone.  The starts
    still running advance together, one stacked ``np.linalg.solve`` per
    iteration; the line search halves the step of the starts that have
    not yet accepted one, and a start leaves as soon as it converges,
    fails or stagnates.
    """
    n, p = Y0.shape
    eye = np.eye(p)

    def resid(Y):
        values, bad = f.eval_rows(t, Y)
        return Y - np.matmul(D, values[..., None])[..., 0] - w, bad

    def jac(Y):
        """Jacobians of the residual; NaN where an evaluation failed."""
        if f.jac is None:
            Jf = finite_diff_jacobians(f, t, Y, strict=False)
        else:
            Jf = np.empty((len(Y), f.m, p))
            for i, y in enumerate(Y):
                try:
                    Jf[i] = f.jac(t, y)
                except EvaluationError:
                    Jf[i] = np.nan
        return eye - np.matmul(D, Jf)

    Y = np.array(Y0, dtype=float)
    R, bad = resid(Y)
    rnorm = np.where(bad, math.inf, row_norms(R))
    iters = np.zeros(n, dtype=int)
    ok = np.zeros(n, dtype=bool)
    running = ~bad
    for it in range(1, opts.max_iter + 1):
        done = running & (rnorm <= opts.tol_resid)
        ok[done] = True
        iters[done] = it - 1
        running &= ~done
        idx = np.nonzero(running)[0]
        if idx.size == 0:
            break
        steps = _newton_steps(jac(Y[idx]), -R[idx])
        failed = ~np.isfinite(steps).all(axis=1)
        iters[idx[failed]] = it - 1
        running[idx[failed]] = False
        idx, steps = idx[~failed], steps[~failed]
        lam = 1.0
        while idx.size and lam >= 2.0 ** -30:
            Y_new = Y[idx] + lam * steps
            R_new, bad = resid(Y_new)
            rn_new = row_norms(R_new)
            accept = ~bad & ((rn_new <= (1.0 - 1e-4 * lam) * rnorm[idx])
                             | (rn_new <= opts.tol_resid))
            took = idx[accept]
            Y[took], R[took], rnorm[took] = Y_new[accept], R_new[accept], rn_new[accept]
            idx, steps = idx[~accept], steps[~accept]
            lam *= 0.5
        iters[idx] = it                  # stagnation
        running[idx] = False
    iters[running] = opts.max_iter
    ok[running] = rnorm[running] <= opts.tol_resid
    return Y, rnorm, iters, ok


def _newton_steps(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each J[i] s = rhs[i]; a row of NaN where J[i] is singular."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full(rhs.shape, np.nan)
        for i in range(len(J)):
            try:
                steps[i] = np.linalg.solve(J[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return steps


def _halton_starts(center: np.ndarray, radius: float, n: int, seed: int) -> np.ndarray:
    """Low-discrepancy starts in the ball around center (deterministic)."""
    z, scale = _halton_offsets(center.size, n, seed)
    return center + radius * z * scale


@functools.lru_cache(maxsize=32)
def _halton_offsets(p: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Scrambled Halton points in [-1, 1]^p and the factors pulling them into the ball."""
    from scipy.stats import qmc

    u = qmc.Halton(d=p, scramble=True, seed=seed).random(n)
    z = 2.0 * u - 1.0
    norms = np.linalg.norm(z, axis=1)
    scale = np.where(norms > 1.0, 1.0 / norms, 1.0)[:, None]
    z.setflags(write=False)
    scale.setflags(write=False)
    return z, scale


def _cluster_scalar_sorted(values: list[float], tol: float) -> list[list[float]]:
    groups: list[list[float]] = []
    for v in sorted(values):
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def _cluster_vectors(points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Greedy clustering; returns one representative per cluster, sorted."""
    reps: list[np.ndarray] = []
    for pt in sorted(points, key=lambda z: (float(np.linalg.norm(z)), tuple(z))):
        if all(np.linalg.norm(pt - r) > tol for r in reps):
            reps.append(pt)
    reps.sort(key=lambda z: tuple(z))
    return reps


def solve_output(sys, f: Nonlinearity, t: float, w, y_guess,
                 opts: SolveOptions | None = None) -> OutputSolution:
    """Solve y - D f(t, y) = w, preferring the solution nearest to y_guess.

    Damped Newton from the guess; on singularity or stagnation, seeded
    multistart (plus sign-change bracketing in the scalar case).  When the
    nonlinearity carries exact piecewise structure the full fibre is
    enumerated instead, which also certifies nonexistence by range
    analysis.  ``status="multiple"`` flags distinct solutions separated by
    more than twice the separation tolerance.
    """
    opts = opts or SolveOptions()
    if opts.max_iter < 1:
        raise ConfigurationError("max_iter must be at least 1")
    D = sys.D
    p = D.shape[0]
    w = _target(w, p)
    y_guess = np.asarray(y_guess, dtype=float).reshape(-1)
    if y_guess.size != p:
        raise ConfigurationError(f"y_guess must have length {p}")

    if opts.use_structure and exact_structure_available(f, D):
        fib = enumerate_fibre_exact(f, D, t, w, tol_sep=opts.tol_sep)
        if fib.empty:
            return OutputSolution(
                status="no_solution", y=None, residual=math.inf, iterations=0,
                certificate={"kind": "range_exclusion",
                             "detail": "exact piecewise range analysis"},
            )
        y, _, _ = fib.nearest(y_guess)
        status = "multiple" if fib.is_set_valued() else "unique_point"
        if p == 1:
            resid = abs(float(y[0]) - float(D[0, 0]) * f.eval_scalar(t, float(y[0]))
                        - float(w[0]))
        else:
            resid = residual_norm(f, D, t, y, w)
        return OutputSolution(status=status, y=y, residual=resid,
                              iterations=0, n_found=fib.n_elements)

    y, rnorm, iters, ok = _newton(f, D, t, w, y_guess, opts)
    if ok:
        return OutputSolution(status="unique_point", y=y, residual=rnorm,
                              iterations=iters, n_found=1)

    # Multistart fallback.
    found: list[np.ndarray] = []
    best_resid = rnorm
    starts = np.vstack((y_guess, _halton_starts(y_guess, opts.search_radius,
                                                opts.n_starts, opts.seed)))
    ys, rs, its, oks = _newton_stack(f, D, t, w, starts, opts)
    total_iters = iters + int(its.sum())
    for rs_i in rs.tolist():
        best_resid = min(best_resid, rs_i)
    found.extend(ys[oks])
    if p == 1:
        for root in _scalar_bracket_roots(f, D, t, w, y_guess, opts):
            found.append(np.array([root]))

    if found:
        reps = _cluster_vectors(found, 2.0 * opts.tol_sep)
        dists = [float(np.linalg.norm(r - y_guess)) for r in reps]
        y = reps[int(np.argmin(dists))]
        status = "multiple" if len(reps) >= 2 else "unique_point"
        return OutputSolution(status=status, y=y,
                              residual=residual_norm(f, D, t, y, w),
                              iterations=total_iters, n_found=len(reps))

    certificate = {"kind": "exhaustion", "n_starts": len(starts),
                   "min_residual": best_resid}
    status = "no_solution" if best_resid > opts.resid_floor else "not_converged"
    return OutputSolution(status=status, y=None, residual=best_resid,
                          iterations=total_iters, certificate=certificate)


def _scalar_bracket_roots(f: Nonlinearity, D: np.ndarray, t: float,
                          w: np.ndarray, center: np.ndarray,
                          opts: SolveOptions) -> list[float]:
    d = float(D[0, 0])
    w0 = float(w[0])
    c = float(center[0])

    def resid(x: float) -> float:
        return x - d * f.eval_scalar(t, x) - w0

    xs = np.linspace(c - opts.search_radius, c + opts.search_radius,
                     opts.grid_points)
    vals = np.array([resid(x) for x in xs])
    roots = []
    for i in range(xs.size - 1):
        if not (np.isfinite(vals[i]) and np.isfinite(vals[i + 1])):
            continue
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(float(brentq(resid, xs[i], xs[i + 1], xtol=1e-13)))
    if vals.size and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


# ---------------------------------------------------------------------------
# Exact fibre enumeration for structured nonlinearities
# ---------------------------------------------------------------------------

def exact_structure_available(f: Nonlinearity, D) -> bool:
    D = _as_feedthrough(D)
    if f.kind == "piecewise_scalar":
        return D.shape == (1, 1)
    if f.kind == "radial":
        return scalar_feedthrough(D) is not None
    return False


def _piece_roots_for_target(pc, d: float, target: float,
                            r_lo_clip: float | None = None):
    """Roots of x - d*piece(x) = target on this piece.

    Returns (points, segments) lists of floats / (lo, hi) tuples.
    The quadratic vertex is admitted as a near-root when the discriminant
    is marginally negative but the residual there stays within EXACT_TOL;
    this keeps the enumeration stable against roundoff at double roots.
    """
    lo, hi = pc.lo, pc.hi
    if r_lo_clip is not None:
        lo = max(lo, r_lo_clip)
    if pc.atan_coeff != 0.0:
        a = -d * pc.c2
        b = 1.0 - d * pc.c1
        aat = -d * pc.atan_coeff
        if abs(a) > 1e-14 or abs(b) > 1e-14 or aat == 0.0:
            raise ConfigurationError(
                "unsupported piece formula for exact fibre enumeration "
                "(arctan piece solvable only when the linear part cancels)"
            )
        arg = (target + d * pc.c0) / aat
        if abs(arg) >= math.pi / 2.0:
            return [], []
        root = math.tan(arg)
        return ([root] if _in_interval(root, lo, hi) else []), []

    a = -d * pc.c2
    b = 1.0 - d * pc.c1
    c = -d * pc.c0 - target
    scale = max(1.0, abs(b), abs(c))
    if abs(a) <= 1e-14 * scale:
        if abs(b) <= 1e-14 * scale:
            if abs(c) <= EXACT_TOL:
                return [], [(lo, hi)]        # flat piece at the target value
            return [], []
        root = -c / b
        return ([root] if _in_interval(root, lo, hi) else []), []

    disc = b * b - 4.0 * a * c
    pts = []
    if disc > 0.0:
        if b == 0.0:
            # Symmetric pair: compute once so the two roots agree to the bit
            # (norm ties must be exact for deterministic branch ordering).
            r = math.sqrt(-c / a)
            roots = (-r, r)
        else:
            sq = math.sqrt(disc)
            q = -0.5 * (b + math.copysign(sq, b))
            roots = (q / a, c / q)
        for root in roots:
            if _in_interval(root, lo, hi):
                pts.append(root)
    else:
        # residual at the vertex is |disc| / (4|a|)
        if abs(disc) / (4.0 * abs(a)) <= EXACT_TOL:
            vertex = -b / (2.0 * a)
            if _in_interval(vertex, lo, hi):
                pts.append(vertex)
    return pts, []


def _in_interval(x: float, lo: float, hi: float) -> bool:
    tol = 1e-12 * max(1.0, abs(x))
    return (lo - tol) <= x <= (hi + tol)


def _assemble_scalar_fibre(point_vals: list[float],
                           segment_vals: list[tuple[float, float]],
                           resid_of, tol_sep: float):
    """Dedupe roots, absorb points into segments, merge touching segments."""
    segs: list[tuple[float, float]] = []
    for lo, hi in sorted(segment_vals):
        if segs and lo <= segs[-1][1] + 1e-9:
            segs[-1] = (segs[-1][0], max(segs[-1][1], hi))
        else:
            segs.append((lo, hi))
    pts: list[float] = []
    for group in _cluster_scalar_sorted(point_vals, 2.0 * tol_sep):
        if len(group) == 1:
            pts.append(group[0])
            continue
        candidates = group + [0.5 * (group[0] + group[-1])]
        best = min(candidates, key=lambda x: abs(resid_of(x)))
        pts.append(best)
    kept = []
    for x in pts:
        inside = any(lo - 1e-9 <= x <= hi + 1e-9 for lo, hi in segs)
        if not inside:
            kept.append(x)
    # Degenerate segments collapse to points.
    final_segs = []
    for lo, hi in segs:
        if math.isfinite(lo) and math.isfinite(hi) and hi - lo <= 2.0 * tol_sep:
            kept.append(0.5 * (lo + hi))
        else:
            final_segs.append((lo, hi))
    kept = sorted(set(kept))
    return kept, final_segs


def enumerate_fibre_exact(f: Nonlinearity, D, t: float, w,
                          tol_sep: float = 1e-6) -> FibreSet:
    """Closed-form enumeration of F_t^{-1}(w) for structured nonlinearities.

    Piecewise-scalar case: per piece, solve x - d*piece(x) = w in closed
    form (affine, quadratic, or arctan pieces) and keep roots inside the
    piece interval; flat pieces matching w contribute segments.  Radial
    case: the same machinery applied to the amplitude profile along the
    target direction.
    """
    D = _as_feedthrough(D)
    w = _target(w, D.shape[0])

    if f.kind == "piecewise_scalar":
        if D.shape != (1, 1):
            raise ConfigurationError("piecewise-scalar fibre needs scalar D")
        d = float(D[0, 0])
        target = float(w[0])
        pts_raw: list[float] = []
        segs_raw: list[tuple[float, float]] = []
        for pc in f.resolved_structure(t):
            pts, segs = _piece_roots_for_target(pc, d, target)
            pts_raw.extend(pts)
            segs_raw.extend(segs)

        def resid_of(x: float) -> float:
            return x - d * f.eval_scalar(t, x) - target

        pts, segs = _assemble_scalar_fibre(pts_raw, segs_raw, resid_of, tol_sep)
        return FibreSet(
            points=tuple(np.array([x]) for x in pts),
            segments=tuple((np.array([lo]), np.array([hi])) for lo, hi in segs),
            exact=True, t=t, w=w.copy(),
        )

    if f.kind == "radial":
        d = scalar_feedthrough(D)
        if d is None:
            raise ConfigurationError("radial fibre needs D to be a multiple of I")
        rho = float(np.linalg.norm(w))
        pts_raw, segs_raw = [], []
        for pc in f.resolved_structure(t):
            pts, segs = _piece_roots_for_target(pc, d, rho, r_lo_clip=0.0)
            pts_raw.extend(r for r in pts if r >= -1e-12)
            segs_raw.extend((max(lo, 0.0), hi) for lo, hi in segs)

        def resid_of(r: float) -> float:
            return r - d * f.amplitude(t, r) - rho

        radii, rsegs = _assemble_scalar_fibre(pts_raw, segs_raw, resid_of, tol_sep)
        if rho == 0.0:
            if any(r > tol_sep for r in radii) or rsegs:
                raise ConfigurationError(
                    "fibre of the origin is a sphere; not representable"
                )
            points = tuple(np.zeros(f.p) for r in radii if r <= tol_sep)[:1]
            return FibreSet(points=points, segments=(), exact=True, t=t, w=w.copy())
        direction = w / rho
        return FibreSet(
            points=tuple(r * direction for r in radii),
            segments=tuple((lo * direction, hi * direction) for lo, hi in rsegs),
            exact=True, t=t, w=w.copy(),
        )

    raise ConfigurationError(
        f"exact fibre enumeration is not available for kind {f.kind!r}"
    )


# ---------------------------------------------------------------------------
# Numeric stand-ins
# ---------------------------------------------------------------------------

def enumerate_fibre_multistart(f: Nonlinearity, D, t: float, w,
                               opts: SolveOptions | None = None,
                               center=None) -> FibreSet:
    """Multistart Newton approximation of the fibre (exact=False).

    Converged solutions are clustered with the separation tolerance; in
    the scalar case, chains of solutions whose midpoints also solve the
    equation are merged into segments.
    """
    opts = opts or SolveOptions()
    D = _as_feedthrough(D)
    p = D.shape[0]
    w = _target(w, p)
    center = w.copy() if center is None else np.asarray(center, dtype=float).reshape(-1)
    starts = _halton_starts(center, opts.search_radius, opts.n_starts, opts.seed)
    ys, _, _, oks = _newton_stack(f, D, t, w, starts, opts)
    found: list[np.ndarray] = list(ys[oks])
    if p == 1:
        for root in _scalar_bracket_roots(f, D, t, w, center, opts):
            found.append(np.array([root]))
    reps = _cluster_vectors(found, 2.0 * opts.tol_sep)

    segments: list[tuple[np.ndarray, np.ndarray]] = []
    if p == 1 and len(reps) >= 2:
        reps_s = sorted(float(r[0]) for r in reps)
        merged: list[list[float]] = [[reps_s[0]]]
        for a, b in zip(reps_s, reps_s[1:]):
            mid = 0.5 * (a + b)
            if residual_norm(f, D, t, np.array([mid]), w) <= opts.tol_resid:
                merged[-1].append(b)
            else:
                merged.append([b])
        reps = []
        for group in merged:
            if len(group) >= 2:
                segments.append((np.array([group[0]]), np.array([group[-1]])))
            else:
                reps.append(np.array([group[0]]))
    return FibreSet(points=tuple(reps), segments=tuple(segments),
                    exact=False, t=t, w=w.copy())


def brute_force_fibre_oracle(f: Nonlinearity, D, t: float, w, R: float,
                             h_scan: float) -> FibreSet:
    """Dense-scan oracle for F_t^{-1}(w) on [-R, R]^p (p = 1 or 2).

    Scalar case: residual scan with sign-change bracketing refined by
    bisection, plus flat-segment detection where |residual| < 1e-10 over
    consecutive grid cells.  Planar case: cells below tolerance refined
    by local Newton.  Only solutions inside the scan window are visible.
    """
    if R <= 0 or h_scan <= 0:
        raise ConfigurationError("scan radius and step must be positive")
    D = _as_feedthrough(D)
    p = D.shape[0]
    w = _target(w, p)

    if p == 1:
        d = float(D[0, 0])
        target = float(w[0])
        n = int(round(2.0 * R / h_scan)) + 1
        xs = np.linspace(-R, R, n)
        resid = xs - d * f.eval_scalar_array(t, xs) - target

        def resid_scalar(x: float) -> float:
            return x - d * f.eval_scalar(t, x) - target

        flat = np.abs(resid) < FLAT_TOL
        points: list[float] = []
        segments: list[tuple[float, float]] = []
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
            if flat[i] or flat[i + 1]:
                continue
            if resid[i] * resid[i + 1] < 0.0:
                points.append(float(brentq(resid_scalar, xs[i], xs[i + 1],
                                           xtol=1e-13)))
        pts, segs = _assemble_scalar_fibre(points, segments, resid_scalar,
                                           tol_sep=h_scan * 0.5)
        return FibreSet(
            points=tuple(np.array([x]) for x in pts),
            segments=tuple((np.array([lo]), np.array([hi])) for lo, hi in segs),
            exact=False, t=t, w=w.copy(),
        )

    if p == 2:
        n = int(round(2.0 * R / h_scan)) + 1
        axis = np.linspace(-R, R, n)
        opts = SolveOptions(tol_resid=1e-10)
        hits: list[np.ndarray] = []
        tol_cell = max(1e-6, h_scan)
        for x1 in axis:
            for x2 in axis:
                y = np.array([x1, x2])
                if residual_norm(f, D, t, y, w) < tol_cell:
                    ys, rs, _, ok = _newton(f, D, t, w, y, opts)
                    if ok:
                        hits.append(ys)
        reps = _cluster_vectors(hits, 2.0 * h_scan)
        return FibreSet(points=tuple(reps), segments=(), exact=False,
                        t=t, w=w.copy())

    raise ConfigurationError("oracle supports p = 1 or p = 2 only")
