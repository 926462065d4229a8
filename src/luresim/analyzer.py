"""Sampling-based audits of the well-posedness hypotheses.

Each probe estimates one hypothesis on a compact window (radial
unboundedness of F_t, two-sided Lipschitz behaviour, an invertibility
margin for I - D M over sampled Clarke generators, linear growth with
gain margin against the feedthrough norm, one-sided monotonicity, and
the fibre nonemptiness/convexity assumptions of the inclusion route).

Sampling can certify failure with a reproducible witness; it can never
prove a hypothesis, so the passing verdict is named ``pass_sampled``.
Refining a probe keeps previously found witnesses, so a failure never
flips back to a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import (finite_diff_jacobian, finite_diff_jacobians,
                          sample_clarke_jacobians)
from .errors import ConfigurationError
from .inclusion import _fold_candidates, check_image_convexity, enumerate_fibre
from .nonlinearity import Nonlinearity, row_norms
from .output_solver import (SolveOptions, enumerate_fibre_exact,
                            exact_structure_available)
from .system import SystemMatrices, eval_F

DELTA_FLOOR = 1e-6
EPS_FLOOR = 1e-6
GROWTH_MARGIN = 0.05
MONO_MARGIN = 1e-3


@dataclass(frozen=True)
class ProbeGrid:
    """Compact probing window: times, radii, directions."""

    t_window: tuple[float, float] = (0.0, 10.0)
    n_t: int = 25
    radii: tuple[float, ...] = tuple(float(2 ** k) for k in range(11))
    n_dir: int = 64
    seed: int = 0

    def __post_init__(self):
        ta, tb = self.t_window
        if ta < 0 or tb <= ta:
            raise ConfigurationError("time window must satisfy 0 <= t_a < t_b")
        if self.n_t < 1 or self.n_dir < 1:
            raise ConfigurationError("n_t and n_dir must be positive")
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(r <= 0 for r in radii) or any(
                b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigurationError("radii must be positive and increasing")
        object.__setattr__(self, "radii", radii)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_window[0], self.t_window[1], self.n_t)

    def directions(self, p: int) -> np.ndarray:
        if p == 1:
            return np.array([[1.0], [-1.0]])
        rng = np.random.default_rng(self.seed)
        dirs = rng.standard_normal((self.n_dir, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs


@dataclass
class CheckRecord:
    name: str
    verdict: str                  # pass_sampled | fail_witness | inconclusive
    margin: float
    witness: dict | None = None
    table: dict | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "margin": self.margin,
            "witness": self.witness,
            "table": self.table,
            "detail": self.detail,
        }


@dataclass
class TheoremTag:
    name: str
    granted: bool
    satisfied: list[str]
    violated: list[str]
    qualifier: str = "sampled"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "granted": self.granted,
            "satisfied": self.satisfied,
            "violated": self.violated,
            "qualifier": self.qualifier,
        }


@dataclass
class AnalysisReport:
    records: list[CheckRecord]
    applicability: list[TheoremTag]

    def record(self, name: str) -> CheckRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def tag(self, name: str) -> TheoremTag:
        for tg in self.applicability:
            if tg.name == name:
                return tg
        raise KeyError(name)

    def verdicts(self) -> dict[str, str]:
        return {rec.name: rec.verdict for rec in self.records}

    def to_dict(self) -> dict:
        return {
            "checks": [rec.to_dict() for rec in self.records],
            "applicability": [tg.to_dict() for tg in self.applicability],
        }


def _first_min(values: np.ndarray, start: float = math.inf) -> int | None:
    """The index ``best = start; for v: if v < best: keep v`` ends on.

    That is the first minimum, or None when no value is below ``start``;
    NaN never wins.
    """
    if values.size == 0:
        return None
    k = int(np.argmin(np.where(np.isnan(values), math.inf, values)))
    return k if values[k] < start else None


def _first_max(values: np.ndarray, start: float = -math.inf) -> int | None:
    """``_first_min`` for a scan keeping strictly larger values."""
    if values.size == 0:
        return None
    k = int(np.argmax(np.where(np.isnan(values), -math.inf, values)))
    return k if values[k] > start else None


def _interleave(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rows A[0], B[0], A[1], B[1], ...: pair members in evaluation order."""
    return np.stack((A, B), axis=1).reshape(-1, A.shape[1])


def _merge_prior(record: CheckRecord, prior: CheckRecord | None,
                 still_violates) -> CheckRecord:
    """Failures found at coarser settings are retained under refinement."""
    if prior is None or prior.verdict != "fail_witness" or prior.witness is None:
        return record
    if record.verdict == "fail_witness":
        return record
    if still_violates(prior.witness):
        prior_copy = CheckRecord(name=record.name, verdict="fail_witness",
                                 margin=min(record.margin, prior.margin),
                                 witness=prior.witness, table=record.table,
                                 detail="witness retained from coarser probe")
        return prior_copy
    return record


# ---------------------------------------------------------------------------
# Radial unboundedness
# ---------------------------------------------------------------------------

def probe_radial_unboundedness(sys: SystemMatrices, f: Nonlinearity,
                               grid: ProbeGrid | None = None,
                               rho_levels: tuple[float, ...] = (1.0, 2.0, 10.0, 100.0),
                               prior: CheckRecord | None = None) -> CheckRecord:
    """Does ||F_t(xi)|| grow without bound in ||xi||, uniformly over the window?

    For each probe radius, the minimum of ||F_t(r d)|| over sampled times
    and directions is tabulated; the check passes when the tail minima
    exceed every requested level, and fails with the plateau witness
    otherwise.
    """
    grid = grid or ProbeGrid()
    p = sys.D.shape[0]
    dirs = grid.directions(p)
    times = grid.times()
    radii = np.array(grid.radii)
    shape = (radii.size, times.size, len(dirs))
    X = np.broadcast_to((radii[:, None, None] * dirs)[:, None], shape + (p,))
    T = np.broadcast_to(times[None, :, None], shape)
    norms = row_norms(eval_F(sys, f, T.reshape(-1), X.reshape(-1, p)))
    minima = []
    argmins = []
    for i, row in enumerate(norms.reshape(radii.size, -1)):
        k = _first_min(row)
        minima.append(math.inf if k is None else float(row[k]))
        argmins.append(None if k is None else
                       (float(times[k // len(dirs)]), X[i, 0, k % len(dirs)].copy()))
    minima_arr = np.array(minima)
    tail_min = np.minimum.accumulate(minima_arr[::-1])[::-1]
    sigma_table = {}
    failed_level = None
    for rho in rho_levels:
        idx = np.nonzero(tail_min >= rho)[0]
        if idx.size:
            sigma_table[rho] = float(grid.radii[idx[0]])
        else:
            sigma_table[rho] = None
            if failed_level is None:
                failed_level = rho
    table = {"radii": list(grid.radii), "min_norm_F": [float(v) for v in minima],
             "sigma": {str(k): v for k, v in sigma_table.items()}}
    if failed_level is None:
        record = CheckRecord(name="radial_unbounded", verdict="pass_sampled",
                             margin=float(tail_min[-1] - max(rho_levels)),
                             table=table)
    else:
        k = int(np.argmin(minima_arr[-3:])) + len(minima) - 3 if len(minima) >= 3 \
            else int(np.argmin(minima_arr))
        t_w, xi_w = argmins[k]
        witness = {"t": t_w, "xi": [float(v) for v in xi_w],
                   "norm_F": float(minima[k]), "rho_level": float(failed_level)}
        record = CheckRecord(name="radial_unbounded", verdict="fail_witness",
                             margin=float(failed_level - tail_min[-1]),
                             witness=witness, table=table,
                             detail=f"minima plateau below rho={failed_level}")

    def still_violates(w):
        return float(np.linalg.norm(eval_F(sys, f, w["t"], w["xi"]))) < w["rho_level"]

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Two-sided Lipschitz estimates
# ---------------------------------------------------------------------------

def estimate_lipschitz_pair(g, t_window: tuple[float, float], box, n_pairs: int,
                            seed: int = 0, extra_pairs=()) -> dict:
    """Max and min of ||g(t,xi)-g(t,zeta)|| / ||xi-zeta|| over sampled pairs.

    ``box`` is the half-width of the sampling cube (scalar) or an
    explicit (lo, hi) pair.  Extra pairs (t, xi, zeta) are evaluated in
    addition to the random draws; the extreme ratios and their witnesses
    are returned.  ``g`` maps one point, g(t, xi); the pairs go through
    it one row at a time.
    """
    p = _infer_dim(g, t_window[0])

    def rows(T, X):
        return np.array([np.asarray(g(t, xi), dtype=float).reshape(-1)
                         for t, xi in zip(T, X)])

    return _lipschitz_extremes(rows, p, t_window, box, n_pairs, seed, extra_pairs)


def _lipschitz_extremes(G, p: int, t_window, box, n_pairs: int, seed: int,
                        extra_pairs=()) -> dict:
    """``estimate_lipschitz_pair`` for a batch map G(T, X) -> rows."""
    if n_pairs < 1:
        raise ConfigurationError("n_pairs must be positive")
    T, XI, ZE = _with_extra(_pair_draws(n_pairs, p, t_window, box, seed),
                            extra_pairs, p)
    gap = row_norms(XI - ZE)
    ratio = np.full(T.shape, np.nan)
    keep = np.nonzero(~(gap < 1e-14))[0]
    if keep.size:
        values = G(np.repeat(T[keep], 2), _interleave(XI[keep], ZE[keep]))
        ratio[keep] = row_norms(values[0::2] - values[1::2]) / gap[keep]

    def witness(i):
        return None if i is None else {
            "t": float(T[i]), "xi": [float(v) for v in XI[i]],
            "zeta": [float(v) for v in ZE[i]], "ratio": float(ratio[i])}

    i_max, i_min = _first_max(ratio), _first_min(ratio)
    return {"lambda_hat": -math.inf if i_max is None else float(ratio[i_max]),
            "eps_hat": math.inf if i_min is None else float(ratio[i_min]),
            "witness_max": witness(i_max), "witness_min": witness(i_min)}


def _pair_draws(n_pairs: int, p: int, t_window, box, seed: int):
    """Seeded pairs (t, xi, zeta) in the window and the box, as row arrays."""
    lo, hi = (-box, box) if np.isscalar(box) else box
    draws = np.random.default_rng(seed).random((n_pairs, 2 * p + 1))
    ta, tb = t_window
    return (ta + (tb - ta) * draws[:, 0], lo + (hi - lo) * draws[:, 1:p + 1],
            lo + (hi - lo) * draws[:, p + 1:])


def _with_extra(draws, extra_pairs, p: int):
    """The drawn pairs followed by the listed (t, xi, zeta) pairs."""
    if not extra_pairs:
        return draws
    T, XI, ZE = draws
    return (np.concatenate((T, [float(t) for t, _, _ in extra_pairs])),
            np.vstack((XI, np.reshape([xi for _, xi, _ in extra_pairs], (-1, p)))),
            np.vstack((ZE, np.reshape([ze for _, _, ze in extra_pairs], (-1, p)))))


def _infer_dim(g, t0: float) -> int:
    for p in range(1, 17):
        try:
            g(t0, np.zeros(p))
            return p
        except Exception:
            continue
    raise ConfigurationError("could not infer the argument dimension")


def _collision_pairs(sys: SystemMatrices, f: Nonlinearity,
                     t_window: tuple[float, float]) -> list[tuple]:
    """Pairs of distinct fibre points: exact witnesses of F-collisions.

    Fibres are enumerated at the output values where branches meet (piece
    breakpoints, interior extrema); any set-valued fibre yields pairs
    with lower quotient exactly zero.
    """
    if not exact_structure_available(f, sys.D):
        return []
    pairs = []
    d = float(sys.D[0, 0])
    ta, tb = t_window
    for t in np.linspace(ta, tb, 5):
        if f.kind == "piecewise_scalar":
            cands = _fold_candidates(f, d, float(t))
            targets = [np.array([wv]) for _, wv in cands]
        else:
            targets = []
            for pc in f.resolved_structure(float(t)):
                for end in (pc.lo, pc.hi):
                    if math.isfinite(end) and end > 0:
                        amp = end - d * f.amplitude(float(t), end)
                        e1 = np.zeros(f.p)
                        e1[0] = 1.0
                        targets.append(amp * e1)
        for w in targets:
            try:
                fib = enumerate_fibre_exact(f, sys.D, float(t), w)
            except ConfigurationError:
                continue
            pts = [np.asarray(pt, dtype=float) for pt in fib.points]
            for a, b in fib.segments:
                a = np.asarray(a, dtype=float)
                b = np.asarray(b, dtype=float)
                a_fin, b_fin = np.all(np.isfinite(a)), np.all(np.isfinite(b))
                if a_fin and b_fin:
                    pts.extend((a, 0.5 * (a + b), b))
                elif a_fin:
                    # Unbounded segment: pair the end with an interior point.
                    pts.extend((a, a + np.sign(b - a)))
                elif b_fin:
                    pts.extend((b, b + np.sign(a - b)))
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if float(np.linalg.norm(pts[i] - pts[j])) > 1e-12:
                        pairs.append((float(t), pts[i], pts[j]))
    return pairs


def check_upper_lipschitz(f: Nonlinearity, t_window, box, n_pairs: int = 4096,
                          seed: int = 0) -> CheckRecord:
    est = _lipschitz_extremes(f.eval_batch, f.p, t_window, box, n_pairs, seed)
    return CheckRecord(name="upper_lipschitz", verdict="pass_sampled",
                       margin=est["lambda_hat"],
                       table={"lambda_hat": est["lambda_hat"]},
                       witness=est["witness_max"],
                       detail="largest sampled difference quotient of f")


def check_lower_lipschitz(sys: SystemMatrices, f: Nonlinearity, t_window, box,
                          n_pairs: int = 4096, seed: int = 0,
                          eps_floor: float = EPS_FLOOR,
                          prior: CheckRecord | None = None) -> CheckRecord:
    """Lower quotient of F: a zero ratio witnesses failure of injectivity."""
    def F(t, xi):
        return eval_F(sys, f, t, xi)

    extra = _collision_pairs(sys, f, t_window)
    est = _lipschitz_extremes(F, f.p, t_window, box, n_pairs, seed,
                              extra_pairs=extra)
    eps_hat = est["eps_hat"]
    table = {"eps_hat": eps_hat, "n_collision_pairs": len(extra)}
    if eps_hat < eps_floor:
        record = CheckRecord(name="lower_lipschitz", verdict="fail_witness",
                             margin=eps_hat, witness=est["witness_min"],
                             table=table,
                             detail="lower quotient collapses; F not boundedly invertible")
    else:
        record = CheckRecord(name="lower_lipschitz", verdict="pass_sampled",
                             margin=eps_hat, table=table,
                             witness=est["witness_min"])

    def still_violates(w):
        xi = np.asarray(w["xi"], dtype=float)
        zeta = np.asarray(w["zeta"], dtype=float)
        gap = float(np.linalg.norm(xi - zeta))
        if gap < 1e-14:
            return False
        return float(np.linalg.norm(F(w["t"], xi) - F(w["t"], zeta))) / gap < eps_floor

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Determinant condition over sampled Clarke generators
# ---------------------------------------------------------------------------

def check_determinant_condition(f: Nonlinearity, D, t_window, box,
                                n_t: int = 5, n_xi: int = 20,
                                clarke_radius: float = 1e-4,
                                clarke_samples: int = 16, seed: int = 0,
                                delta_floor: float = DELTA_FLOOR,
                                prior: CheckRecord | None = None) -> CheckRecord:
    """delta_hat = min |det(I - D M)| over sampled Clarke generators M.

    The centre finite-difference Jacobian at each probe point is included
    alongside the ball samples, so an exact singularity at a deterministic
    point (such as the origin) is witnessed exactly.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[1]
    eye = np.eye(D.shape[0])
    lo, hi = (-box, box) if np.isscalar(box) else box
    rng = np.random.default_rng(seed)
    points = np.vstack((np.zeros(p), np.full(p, lo), np.full(p, hi),
                        lo + (hi - lo) * rng.random((n_xi, p))))
    times = np.linspace(t_window[0], t_window[1], n_t)
    delta_hat = math.inf
    b_hat = 0.0
    witness = None
    for t in times:
        # Per point: the centre Jacobian, then its Clarke ball samples.
        centre = finite_diff_jacobians(f, float(t), points)
        ball = sample_clarke_jacobians(f, float(t), points, radius=clarke_radius,
                                       n_samples=clarke_samples, seed=seed)
        mats = np.concatenate((centre[:, None], ball), axis=1)
        mats = mats.reshape((-1,) + mats.shape[2:])
        b_hat = max(b_hat, float(np.fmax.reduce(np.linalg.norm(mats, 2, axis=(1, 2)))))
        dets = np.linalg.det(eye - np.matmul(D, mats))
        k = _first_min(np.abs(dets), delta_hat)
        if k is not None:
            delta_hat = abs(float(dets[k]))
            witness = {"t": float(t),
                       "xi": [float(v) for v in points[k // (1 + clarke_samples)]],
                       "det": float(dets[k])}
    table = {"delta_hat": delta_hat, "b_hat": b_hat,
             "delta_floor": delta_floor}
    if delta_hat < delta_floor:
        record = CheckRecord(name="determinant", verdict="fail_witness",
                             margin=delta_hat, witness=witness, table=table,
                             detail="I - D M nearly singular at witness")
    else:
        record = CheckRecord(name="determinant", verdict="pass_sampled",
                             margin=delta_hat, table=table)

    def still_violates(w):
        xi = np.asarray(w["xi"], dtype=float)
        M = finite_diff_jacobian(f, w["t"], xi)
        return abs(float(np.linalg.det(eye - D @ M))) < delta_floor

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Growth condition c ||D|| < 1
# ---------------------------------------------------------------------------

def check_growth_condition(f: Nonlinearity, D, t_window,
                           rho_grid=(1.0, 2.0, 4.0, 8.0, 16.0),
                           n_dir: int = 32, n_t: int = 13, seed: int = 0,
                           r_max: float = 64.0, margin: float = GROWTH_MARGIN,
                           prior: CheckRecord | None = None) -> CheckRecord:
    """c_hat(rho) = max ||f(t,xi)|| / ||xi|| over sampled ||xi|| >= rho.

    Passes when some rho achieves c_hat(rho) ||D|| < 1 - margin; fails
    with a witness when even the largest rho shows ratios with
    c ||D|| >= 1.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[1]
    dnorm = float(np.linalg.norm(D, 2))
    rho_grid = tuple(float(r) for r in rho_grid)
    if any(r <= 0 for r in rho_grid):
        raise ConfigurationError("rho grid must be positive")
    rng = np.random.default_rng(seed)
    if p == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = rng.standard_normal((n_dir, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    times = np.linspace(t_window[0], t_window[1], n_t)
    radii_all = np.geomspace(min(rho_grid), r_max, 24)
    # Ratios on every radius any rho scans (rho itself, then radii_all),
    # evaluated once; each rho then scans its columns in (t, r, d) order.
    radii = np.concatenate((rho_grid, radii_all))
    shape = (times.size, radii.size, len(dirs))
    X = np.broadcast_to(radii[:, None, None] * dirs, shape + (p,))
    T = np.broadcast_to(times[:, None, None], shape)
    ratios = (row_norms(f.eval_batch(T.reshape(-1), X.reshape(-1, p))).reshape(shape)
              / radii[:, None])
    table_c = {}
    witnesses = {}
    for i, rho in enumerate(rho_grid):
        cols = np.concatenate(([i], len(rho_grid) + np.nonzero(radii_all >= rho)[0]))
        scan = ratios[:, cols].reshape(-1)
        k = _first_max(scan, 0.0)
        table_c[rho] = 0.0 if k is None else float(scan[k])
        witnesses[rho] = None if k is None else {
            "t": float(times[k // (cols.size * len(dirs))]),
            "xi": [float(v) for v in X[0, cols[k // len(dirs) % cols.size], k % len(dirs)]],
            "ratio": float(scan[k])}
    best_rho = min(table_c, key=lambda r: table_c[r])
    best = table_c[best_rho] * dnorm
    table = {"c_hat": {str(k): v for k, v in table_c.items()},
             "norm_D": dnorm, "best_rho": best_rho,
             "best_c_times_normD": best}
    if best <= 1.0 - margin:
        record = CheckRecord(name="growth", verdict="pass_sampled",
                             margin=1.0 - best, table=table)
    elif all(c * dnorm >= 1.0 for c in table_c.values()):
        record = CheckRecord(name="growth", verdict="fail_witness",
                             margin=1.0 - best, witness=witnesses[best_rho],
                             table=table,
                             detail="sampled gain at or above 1/||D|| at every rho")
    else:
        record = CheckRecord(name="growth", verdict="inconclusive",
                             margin=1.0 - best, table=table)

    def still_violates(w):
        xi = np.asarray(w["xi"], dtype=float)
        return (float(np.linalg.norm(f(w["t"], xi))) /
                float(np.linalg.norm(xi))) * dnorm >= 1.0

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Monotonicity (dissipativity-style) condition
# ---------------------------------------------------------------------------

def _slope_probe_pairs(f: Nonlinearity, t_window, clip: float = 16.0,
                       delta: float = 1e-3) -> list[tuple]:
    """Deterministic pairs hugging each piece end, so the extreme local
    slopes enter the monotonicity quotients regardless of the random box."""
    if f.kind not in ("piecewise_scalar", "radial"):
        return []
    pairs = []
    lo_clip = 0.0 if f.kind == "radial" else -clip
    for t in np.linspace(t_window[0], t_window[1], 5):
        for pc in f.resolved_structure(float(t)):
            lo = max(pc.lo, lo_clip)
            hi = min(pc.hi, clip)
            step = min(delta, (hi - lo) / 8.0)
            if step <= 0:
                continue
            anchors = ((lo + step, lo + 2 * step), (hi - 2 * step, hi - step))
            for a, b in anchors:
                if f.kind == "radial":
                    e1 = np.zeros(f.p)
                    e1[0] = 1.0
                    pairs.append((float(t), a * e1, b * e1))
                else:
                    pairs.append((float(t), np.array([a]), np.array([b])))
    return pairs


def check_monotonicity(f: Nonlinearity, D, t_window, box, n_pairs: int = 4096,
                       seed: int = 0, annulus_rho: float | None = None,
                       margin: float = MONO_MARGIN,
                       prior: CheckRecord | None = None) -> CheckRecord:
    """Pair quotients <D f(t,xi) - D f(t,zeta), xi - zeta> / ||xi - zeta||^2.

    Passes via the gamma_1 branch when the sampled maximum stays below 1,
    or via the gamma_2 branch when the sampled minimum stays above 1.
    Fails when both branches are witnessed as violated.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[1]
    T, XI, ZE = _pair_draws(n_pairs, p, t_window, box, seed)
    if annulus_rho is not None:
        XI, ZE = _push_out(XI, annulus_rho), _push_out(ZE, annulus_rho)
    else:
        T, XI, ZE = _with_extra((T, XI, ZE), _slope_probe_pairs(f, t_window), p)
    diff = XI - ZE
    d2 = np.vecdot(diff, diff)
    ratio = np.full(T.shape, np.nan)
    keep = np.nonzero(~(d2 < 1e-24))[0]
    if keep.size:
        values = f.eval_batch(np.repeat(T[keep], 2), _interleave(XI[keep], ZE[keep]))
        moved = np.matmul(D, (values[0::2] - values[1::2])[..., None])[..., 0]
        ratio[keep] = np.vecdot(moved, diff[keep]) / d2[keep]

    def witness(i):
        return None if i is None else {
            "t": float(T[i]), "xi": [float(v) for v in XI[i]],
            "zeta": [float(v) for v in ZE[i]], "ratio": float(ratio[i])}

    i1, i2 = _first_max(ratio), _first_min(ratio)
    g1 = -math.inf if i1 is None else float(ratio[i1])
    g2 = math.inf if i2 is None else float(ratio[i2])
    w1, w2 = witness(i1), witness(i2)
    table = {"gamma1_hat": g1, "gamma2_hat": g2}
    if g1 <= 1.0 - margin:
        record = CheckRecord(name="monotonicity", verdict="pass_sampled",
                             margin=1.0 - g1, table=table,
                             detail="gamma_1 branch")
    elif g2 >= 1.0 + margin:
        record = CheckRecord(name="monotonicity", verdict="pass_sampled",
                             margin=g2 - 1.0, table=table,
                             detail="gamma_2 branch")
    elif g1 >= 1.0 + margin and g2 <= 1.0 - margin:
        record = CheckRecord(name="monotonicity", verdict="fail_witness",
                             margin=min(g1 - 1.0, 1.0 - g2),
                             witness={"gamma1": w1, "gamma2": w2}, table=table,
                             detail="both one-sided branches witnessed violated")
    else:
        record = CheckRecord(name="monotonicity", verdict="inconclusive",
                             margin=min(abs(1.0 - g1), abs(g2 - 1.0)),
                             table=table)

    def still_violates(w):
        def ratio_of(ww):
            xi = np.asarray(ww["xi"], dtype=float)
            zeta = np.asarray(ww["zeta"], dtype=float)
            diff = xi - zeta
            d2 = float(diff @ diff)
            if d2 < 1e-24:
                return 1.0
            return float((D @ (f(ww["t"], xi) - f(ww["t"], zeta))) @ diff) / d2
        return (ratio_of(w["gamma1"]) >= 1.0) and (ratio_of(w["gamma2"]) <= 1.0)

    return _merge_prior(record, prior, still_violates)


def _push_out(X: np.ndarray, rho: float) -> np.ndarray:
    """Scale each nonzero row with norm below rho out to norm rho."""
    norms = row_norms(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = rho / norms
    scale = np.where((norms > 0) & (ratio > 1.0), ratio, 1.0)
    return X * scale[:, None]


# ---------------------------------------------------------------------------
# Inclusion-route assumptions: fibre nonemptiness and image convexity
# ---------------------------------------------------------------------------

def _sample_outputs(sys: SystemMatrices, t_window, n_w: int, seed: int,
                    x_scale: float = 3.0, v_scale: float = 1.0):
    """Sample w = C x + D_e v, staying inside the reachable output image."""
    n, m, m_e, p = sys.dims
    rng = np.random.default_rng(seed)
    out = []
    times = np.linspace(t_window[0], t_window[1], max(2, n_w // 8))
    for _ in range(n_w):
        t = float(rng.choice(times))
        x = x_scale * (2.0 * rng.random(n) - 1.0)
        v = v_scale * (2.0 * rng.random(m_e) - 1.0)
        out.append((t, sys.C @ x + sys.D_e @ v))
    return out


def probe_fibre_nonempty(sys: SystemMatrices, f: Nonlinearity, t_window,
                         n_w: int = 40, seed: int = 0,
                         fibre_opts: SolveOptions | None = None,
                         prior: CheckRecord | None = None) -> CheckRecord:
    """Nonemptiness of F_t^{-1}(w) over sampled reachable outputs w."""
    fibre_opts = fibre_opts or SolveOptions(n_starts=24, search_radius=10.0)
    n_empty = 0
    witness = None
    for t, w in _sample_outputs(sys, t_window, n_w, seed):
        fib = enumerate_fibre(f, sys.D, t, w, fibre_opts)
        if fib.empty:
            n_empty += 1
            if witness is None:
                witness = {"t": float(t), "w": [float(v) for v in w]}
    table = {"n_sampled": n_w, "n_empty": n_empty}
    if n_empty:
        record = CheckRecord(name="fibre_nonempty", verdict="fail_witness",
                             margin=float(n_empty) / n_w, witness=witness,
                             table=table, detail="empty fibre found")
    else:
        record = CheckRecord(name="fibre_nonempty", verdict="pass_sampled",
                             margin=0.0, table=table)

    def still_violates(w):
        fib = enumerate_fibre(f, sys.D, w["t"], np.asarray(w["w"]), fibre_opts)
        return fib.empty

    return _merge_prior(record, prior, still_violates)


def probe_fibre_convexity(sys: SystemMatrices, f: Nonlinearity, t_window,
                          n_w: int = 40, seed: int = 0,
                          fibre_opts: SolveOptions | None = None,
                          prior: CheckRecord | None = None) -> CheckRecord:
    """Convexity of f(t, F_t^{-1}(w)) over sampled reachable outputs.

    Branch-meeting output values are probed in addition to random ones,
    since set-valued fibres live exactly there.
    """
    fibre_opts = fibre_opts or SolveOptions(n_starts=24, search_radius=10.0)
    probes = _sample_outputs(sys, t_window, n_w, seed)
    pairs = _collision_pairs(sys, f, t_window)
    if pairs:
        T = np.array([t for t, _, _ in pairs])
        W = eval_F(sys, f, T, np.array([xi for _, xi, _ in pairs]))
        probes.extend(zip(T.tolist(), W))
    worst = None
    n_checked = 0
    for t, w in probes:
        fib = enumerate_fibre(f, sys.D, t, w, fibre_opts)
        if fib.empty:
            continue
        n_checked += 1
        verdict = check_image_convexity(f, sys.D, t, w, fib)
        if verdict.kind == "violation":
            if worst is None or verdict.gap > worst[0]:
                worst = (verdict.gap, {"t": float(t),
                                       "w": [float(v) for v in w],
                                       "imageinfo": verdict.witness})
    table = {"n_checked": n_checked}
    if worst is not None:
        record = CheckRecord(name="fibre_convex", verdict="fail_witness",
                             margin=worst[0], witness=worst[1], table=table,
                             detail="nonconvex image over a fibre")
    else:
        record = CheckRecord(name="fibre_convex", verdict="pass_sampled",
                             margin=0.0, table=table)

    def still_violates(w):
        fib = enumerate_fibre(f, sys.D, w["t"], np.asarray(w["w"]), fibre_opts)
        if fib.empty:
            return False
        return check_image_convexity(f, sys.D, w["t"], np.asarray(w["w"]),
                                  fib).kind == "violation"

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class AnalyzerOptions:
    t_window: tuple[float, float] = (0.0, 10.0)
    box_halfwidth: float = 2.0
    n_pairs: int = 4096
    n_w: int = 40
    seed: int = 0
    grid: ProbeGrid | None = None
    fibre_opts: SolveOptions | None = None


_RULES = {
    "existence_and_blowup": (("radial_unbounded", "lower_lipschitz"),),
    "existence_and_blowup_inclusion": (
        ("fibre_nonempty", "radial_unbounded", "fibre_convex"),),
    "forward_complete": (("lower_lipschitz", "growth"),),
    "forward_complete_inclusion": (("fibre_nonempty", "fibre_convex", "growth"),),
    "uniqueness": (("radial_unbounded", "lower_lipschitz"),
                   ("determinant",), ("monotonicity",)),
}


def theorem_applicability(records: list[CheckRecord],
                          flags: dict | None = None) -> AnalysisReport:
    """Map satisfied hypothesis sets to applicable-result tags.

    Every tag carries the "sampled" qualifier: a granted tag means the
    hypotheses were consistent with sampling, never that they are proved.
    """
    by_name = {rec.name: rec for rec in records}
    tags = []
    for tag_name, routes in _RULES.items():
        granted = False
        satisfied: list[str] = []
        violated: list[str] = []
        for route in routes:
            route_ok = all(
                name in by_name and by_name[name].verdict == "pass_sampled"
                for name in route
            )
            for name in route:
                rec = by_name.get(name)
                if rec is None:
                    continue
                if rec.verdict == "pass_sampled" and name not in satisfied:
                    satisfied.append(name)
                if rec.verdict != "pass_sampled" and name not in violated:
                    violated.append(name)
            granted = granted or route_ok
        tags.append(TheoremTag(name=tag_name, granted=granted,
                               satisfied=satisfied, violated=violated))
    return AnalysisReport(records=list(records), applicability=tags)


def analyze_system(sys: SystemMatrices, f: Nonlinearity,
                   opts: AnalyzerOptions | None = None) -> AnalysisReport:
    """Run every probe and aggregate the applicability report."""
    opts = opts or AnalyzerOptions()
    grid = opts.grid or ProbeGrid(t_window=opts.t_window, seed=opts.seed)
    box = opts.box_halfwidth
    tw = opts.t_window
    records = [
        probe_radial_unboundedness(sys, f, grid),
        check_upper_lipschitz(f, tw, box, n_pairs=opts.n_pairs, seed=opts.seed),
        check_lower_lipschitz(sys, f, tw, box, n_pairs=opts.n_pairs,
                              seed=opts.seed),
        check_determinant_condition(f, sys.D, tw, box, seed=opts.seed),
        check_growth_condition(f, sys.D, tw, seed=opts.seed),
        check_monotonicity(f, sys.D, tw, box, n_pairs=opts.n_pairs,
                           seed=opts.seed),
        probe_fibre_nonempty(sys, f, tw, n_w=opts.n_w, seed=opts.seed,
                             fibre_opts=opts.fibre_opts),
        probe_fibre_convexity(sys, f, tw, n_w=opts.n_w, seed=opts.seed,
                              fibre_opts=opts.fibre_opts),
    ]
    return theorem_applicability(records)
