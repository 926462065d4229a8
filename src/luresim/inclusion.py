"""Set-valued output handling: selection policies over fibres.

When xi - D f(t, xi) is not injective the output equation defines a
fibre, not a point, and the state equation becomes a differential
inclusion.  The measurable-selection argument that gives existence is
non-constructive; the deterministic policies here are its constructive
stand-in, and they reproduce distinct solutions from one initial state.

Fibre elements are sorted by (norm, entries), so ``fixed_branch`` is
deterministic.  A selection that moves by more than ``jump_tol * max(1,
||y||)`` in one step (y the previous output), or whose fibre empties, is
an event: with exact scalar structure the step is bisected onto the fold
of the output map and the state landed there exactly, else the jump is
taken and flagged, never silent.

``simulate_inclusion`` runs ``simulate``'s loop, ``integrator._integrate``,
and its stage, ``integrator._SolvingStage``, given the run's policy; its
``advance`` hook holds the jump test, the fold landing and the limit on
consecutive landings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .integrator import (Termination, TrajectoryRecord, _integrate, _plant,
                         _Recorder, _rk_step, _SolvingStage, _StageFailure,
                         _validate_run)
from .nonlinearity import Nonlinearity, _eval_resolved, row_norms, vec_norm
from .output_solver import (FibreSet, SelectionPolicy, SolveOptions,
                            _as_float, _checked, _exact_route, _nearest,
                            enumerate_fibre_exact, enumerate_fibre_multistart,
                            select_from_fibre)      # public here, by its policies
from .system import SystemMatrices


def enumerate_fibre(f: Nonlinearity, D, t: float, w, opts: SolveOptions) -> FibreSet:
    """F_t^{-1}(w) on the route ``_exact_route`` picks: exact, or multistart."""
    opts = _checked(opts)
    if _exact_route(f, D, opts) is not None:
        return enumerate_fibre_exact(f, D, t, w, tol_sep=opts.tol_sep)
    return enumerate_fibre_multistart(f, D, t, w, opts=opts)


# ---------------------------------------------------------------------------
# Inclusion-mode simulation
# ---------------------------------------------------------------------------

# Consecutive fold landings tried before a jump is taken instead.
_MAX_FOLD_ATTEMPTS = 3


@dataclass
class InclusionOptions:
    """Options for inclusion-mode stepping.

    Euler is the default: the inclusion theory guarantees only absolutely
    continuous solutions, so higher-order claims are unjustified across
    branch switches.  RK4 is opt-in for single-valued stretches.
    A step jumps when the selection moves by more than ``jump_tol * max(1,
    ||y||)``: absolute for small outputs, relative for large ones.
    """

    method: str = "euler"            # euler | rk4
    dt: float = 1e-3
    dt_min: float = 1e-12
    tmax: float = 10.0
    jump_tol: float = 5e-2
    blowup_threshold: float = 1e8
    y_blowup_threshold: float = 1e6
    fibre: SolveOptions = field(default_factory=SolveOptions)


def _fold_candidates(f: Nonlinearity, d: float, t: float) -> list[float]:
    """Output values where a scalar fibre branch can appear or vanish.

    These are the values of x - d f(t, x) at piece breakpoints and at
    interior extrema of quadratic pieces.
    """
    candidates: list[tuple[float, float]] = []   # (xi, w_value)
    for pc in f.resolved_structure(t):
        a = -d * pc.c2
        b = 1.0 - d * pc.c1
        for end in (pc.lo, pc.hi):
            if math.isfinite(end):
                candidates.append((end, end - d * pc.value(end)))
        if abs(a) > 1e-14:
            vertex = -b / (2.0 * a)
            if pc.lo <= vertex <= pc.hi:
                candidates.append((vertex, vertex - d * pc.value(vertex)))
    return candidates


def simulate_inclusion(sys: SystemMatrices, f: Nonlinearity, v, t0: float, x0,
                       policy: SelectionPolicy,
                       opts: InclusionOptions | None = None) -> TrajectoryRecord:
    """Integrate the inclusion form, selecting one fibre element per stage.

    Records the branch index taken at every step.  Fold events (a branch
    vanishing inside a step) are located by bisection and, for exact
    scalar structure, the state is projected onto the fold exactly so
    that invariant folds are followed instead of being overshot.
    """
    opts = opts or InclusionOptions()
    if opts.method not in ("euler", "rk4"):
        raise ConfigurationError(f"unknown inclusion method {opts.method!r}")
    t0, x0, fibre_opts = _validate_run(opts, t0, x0, sys, v)
    plant = _plant(sys, v)
    rec = _Recorder(plant, with_branches=True)
    stage = _SolvingStage(plant, f, fibre_opts, policy)

    x0 = plant.value(x0)
    try:
        y, u, k, terms = stage.in_run(t0, x0, plant.target(x0, plant.input(t0)))
    except _StageFailure:
        term = Termination(kind="no_output_solution", time=t0,
                           bracket=(t0, t0), detail="empty fibre at initial time")
        return rec.build(term)
    rec.push(t0, x0, y, u, terms, branch=stage.branch)

    # Folds are landed on where the scalar map has pieces; a static map
    # with no breakpoint or vertex has no fold to land on.
    lands = sys.dims[3] == 1 and stage.route is not None and bool(f.pieces)
    if (lands and all(pc.static for pc in f.pieces)
            and not _fold_candidates(f, stage.d, t0)):
        lands = False
    tol = opts.jump_tol
    fold_attempts = 0

    def advance(t, x, y, k, h):
        """One step, landed on the fold when the selection jumps or ends."""
        nonlocal fold_attempts
        try:
            x_new, k_mean, _, _ = _rk_step(opts.method, stage.in_run, t, x, h, y, k)
        except _StageFailure:
            return None, 0.5 * h, True
        try:
            sample = (t + h, x_new, *stage.in_run(t + h, x_new, y), stage.branch)
        except _StageFailure:
            sample = None
        # An empty fibre counts as a jump; ||y|| is taken only when the
        # absolute test fires.
        dist = math.inf if sample is None else vec_norm(sample[2] - y)
        jump = dist > tol and dist > tol * max(1.0, vec_norm(y))
        if jump:
            landing = None
            if lands and fold_attempts < _MAX_FOLD_ATTEMPTS:
                landing = _land_on_fold(stage, t, x, y, k_mean, h, tol)
            if landing is not None:
                fold_attempts += 1
                return (*landing, stage.branch, "fold"), opts.dt, False
            if sample is None:
                return None, 0.5 * h, True
        # A jump is the discontinuous selection, taken and flagged.
        fold_attempts = 0
        return (*sample, "jump" if jump else ""), opts.dt, False

    return rec.build(_integrate(rec, opts, t0, x0, y, k, opts.dt, advance))


def _land_on_fold(stage: _SolvingStage, t: float, x, y, k, h: float,
                  jump_tol: float):
    """Bisect the step onto the output-map fold where the branch vanishes.

    Returns the landed (t_hat, x_hat, y_hat, u, xdot, input terms), selected by
    ``stage``, on success, None when no fold explains the event.  The state
    is corrected along C^T so the landed output value is exact; an
    invariant fold (zero drift) is then followed without further events.
    """
    plant = stage.plant

    def continues(s: float):
        ts = t + s * h
        fib = stage.fibre(ts, plant.target(x + s * h * k, plant.input(ts)))
        if not fib[1]:
            return None
        cand, dist, _ = _nearest(fib, y)
        return cand if dist <= jump_tol else None

    s_lo, s_hi = 0.0, 1.0
    y_cont = _as_float(y)
    for _ in range(60):
        s_mid = 0.5 * (s_lo + s_hi)
        cand = continues(s_mid)
        if cand is not None:
            s_lo, y_cont = s_mid, cand
        else:
            s_hi = s_mid
        if s_hi - s_lo < 1e-14:
            break
    t_hat = t + s_lo * h

    candidates = _fold_candidates(stage.f, stage.d, t_hat)
    if not candidates:
        return None
    xi_star, w_star = min(candidates, key=lambda cw: abs(cw[0] - y_cont))
    snap_tol = max(1e-4, 0.1 * jump_tol)
    if abs(xi_star - y_cont) > snap_tol:
        return None

    x_hat = x + s_lo * h * k
    # Exact projection of the remaining gap along C^T.
    r = w_star - _as_float(plant.target(x_hat, plant.input(t_hat)))
    x_hat = plant.shift_target(x_hat, r)
    y_hat = plant.value(xi_star)

    if t_hat <= t + 1e-15 * max(1.0, abs(t)):
        return None
    try:
        y_sel, u, k_hat, terms = stage.in_run(t_hat, x_hat, y_hat)
    except _StageFailure:
        return None
    if vec_norm(y_sel - y_hat) > jump_tol:
        return None
    return t_hat, x_hat, y_sel, u, k_hat, terms


# ---------------------------------------------------------------------------
# Convexity of the nonlinearity image over a fibre
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityVerdict:
    kind: str                 # convex_exact | convex_sampled | violation
    gap: float = 0.0
    witness: dict | None = None


def _poly_range_on(pc, lo: float, hi: float) -> tuple[float, float]:
    """Range of a resolved piece formula over [lo, hi] (closed form)."""
    values = []
    for end in (lo, hi):
        if math.isfinite(end):
            values.append(pc.value(end))
        elif pc.c2 or pc.c1:            # the limit at an infinite end: c2 x^2 leads
            values.append(math.copysign(math.inf, pc.c2 if pc.c2 else pc.c1 * end))
        else:
            values.append(pc.c0 + pc.atan_coeff * math.copysign(math.pi / 2, end)
                          if pc.atan_coeff else pc.c0)
    if pc.atan_coeff == 0.0 and pc.c2 != 0.0:
        vertex = -pc.c1 / (2.0 * pc.c2)
        if lo <= vertex <= hi:
            values.append(pc.value(vertex))
    elif pc.atan_coeff != 0.0 and pc.c2 == 0.0 and pc.c1 != 0.0:
        # derivative c1 + atan_coeff / (1 + x^2)
        ratio = -pc.atan_coeff / pc.c1 - 1.0
        if ratio > 0.0:
            for crit in (math.sqrt(ratio), -math.sqrt(ratio)):
                if lo <= crit <= hi:
                    values.append(pc.value(crit))
    return min(values), max(values)


def check_image_convexity(f: Nonlinearity, D, t: float, w,
                          fib: FibreSet) -> ConvexityVerdict:
    """Is the image of the nonlinearity over the fibre a convex set?

    Exact scalar path, for an exact fibre of a piecewise-scalar or radial
    map: the image of x (of s u along a radial fibre's ray u = w / |w|) is
    g(t, x) (g(t, s) u), a union of closed intervals computed piecewise;
    convex iff they merge into one (gap tolerance 1e-9, the witness in the
    scalar values).
    Sampled path: midpoints of random image pairs must lie within
    tolerance of some image sample.
    """
    if fib.empty:
        return ConvexityVerdict(kind="convex_exact")

    if fib.exact and f.kind in ("piecewise_scalar", "radial"):
        pieces = f.resolved_structure(t)
        frame, elements, _ = fib._value     # floats, on the line or on a ray
        if f.kind == "radial":
            u = np.asarray(w, dtype=float).reshape(-1)
            u = u / (vec_norm(u) or 1.0)
            if type(frame) is not np.ndarray or not np.array_equal(frame, u):
                # given as vectors, or on another ray: coordinates along w
                elements = [tuple(float(x @ u) for x in v) if kind == "segment"
                            else float(v @ u) for kind, v in fib.elements()]
        intervals = [(g, g) for g in (_eval_resolved(pieces, x)
                                      for x in elements if type(x) is not tuple)]
        for lo, hi in (e for e in elements if type(e) is tuple):
            for pc in pieces:
                olo, ohi = max(lo, pc.lo), min(hi, pc.hi)
                if olo <= ohi:
                    intervals.append(_poly_range_on(pc, olo, ohi))
        intervals.sort()
        merged = [list(intervals[0])]
        worst_gap = 0.0
        witness = None
        for lo, hi in intervals[1:]:
            if lo <= merged[-1][1] + 1e-9:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                gap = lo - merged[-1][1]
                if gap > worst_gap:         # the widest gap, the first on a tie
                    worst_gap = gap
                    witness = {"gap_interval": (merged[-1][1], lo),
                               "midpoint": 0.5 * (merged[-1][1] + lo)}
                merged.append([lo, hi])
        if len(merged) == 1:
            return ConvexityVerdict(kind="convex_exact")
        return ConvexityVerdict(kind="violation", gap=worst_gap, witness=witness)

    # Sampled membership test.
    samples: list[np.ndarray] = []
    spacing = 1e-9
    for pt in fib.points:
        samples.append(np.asarray(f(t, pt), dtype=float))
    grid = np.linspace(0.0, 1.0, 65)[:, None]
    for a, b in fib.segments:
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            continue
        seg_imgs = f.eval_batch(t, (1.0 - grid) * a + grid * b)
        spacing = max(spacing, float(np.max(row_norms(np.diff(seg_imgs, axis=0)))))
        samples.extend(seg_imgs)
    if len(samples) <= 1:
        return ConvexityVerdict(kind="convex_sampled")
    tol = 2.0 * spacing + 1e-8
    rng = np.random.default_rng(1234)
    n_pairs = min(256, 4 * len(samples) * len(samples))
    arr = np.array(samples)
    # one rng call per pair, which fixes the stream of draws
    pairs = np.array([rng.integers(0, len(samples), size=2)
                      for _ in range(n_pairs)])
    mids = 0.5 * (arr[pairs[:, 0]] + arr[pairs[:, 1]])
    # the distance of each midpoint to its nearest sample, reduced as
    # np.linalg.norm(arr - mid, axis=1) reduces it
    diff = arr[None, :, :] - mids[:, None, :]
    dists = np.sqrt(np.add.reduce(diff * diff, axis=2)).min(axis=1)
    best = int(np.argmax(dists))
    worst = float(dists[best])
    if worst <= tol:
        return ConvexityVerdict(kind="convex_sampled")
    i, j = pairs[best]
    witness = {"pair": (arr[i].tolist(), arr[j].tolist()),
               "midpoint": mids[best].tolist(), "distance": worst}
    return ConvexityVerdict(kind="violation", gap=worst, witness=witness)
