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

from .derivatives import finite_diff_jacobian, sample_clarke_jacobian
from .errors import ConfigurationError
from .inclusion import _fold_candidates, check_image_convexity, enumerate_fibre
from .nonlinearity import Nonlinearity
from .output_solver import (SolveOptions, enumerate_fibre_exact,
                            exact_structure_available)
from .system import SystemMatrices

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
    minima = []
    argmins = []
    for r in grid.radii:
        best = math.inf
        arg = None
        for t in times:
            for d in dirs:
                xi = r * d
                val = float(np.linalg.norm(xi - sys.D @ f(t, xi)))
                if val < best:
                    best = val
                    arg = (float(t), xi.copy())
        minima.append(best)
        argmins.append(arg)
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
        xi = np.asarray(w["xi"], dtype=float)
        return float(np.linalg.norm(xi - sys.D @ f(w["t"], xi))) < w["rho_level"]

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
    are returned.
    """
    if n_pairs < 1:
        raise ConfigurationError("n_pairs must be positive")
    lo, hi = (-box, box) if np.isscalar(box) else box
    rng = np.random.default_rng(seed)
    lam_hat, eps_hat = -math.inf, math.inf
    w_max = w_min = None

    def consider(t, xi, zeta):
        nonlocal lam_hat, eps_hat, w_max, w_min
        diff = float(np.linalg.norm(np.asarray(xi) - np.asarray(zeta)))
        if diff < 1e-14:
            return
        ratio = float(np.linalg.norm(g(t, xi) - g(t, zeta))) / diff
        if ratio > lam_hat:
            lam_hat = ratio
            w_max = {"t": float(t), "xi": list(map(float, np.atleast_1d(xi))),
                     "zeta": list(map(float, np.atleast_1d(zeta))),
                     "ratio": ratio}
        if ratio < eps_hat:
            eps_hat = ratio
            w_min = {"t": float(t), "xi": list(map(float, np.atleast_1d(xi))),
                     "zeta": list(map(float, np.atleast_1d(zeta))),
                     "ratio": ratio}

    p = _infer_dim(g, t_window[0])
    draws = rng.random((n_pairs, 2 * p + 1))
    ta, tb = t_window
    for row in draws:
        t = ta + (tb - ta) * row[0]
        xi = lo + (hi - lo) * row[1:p + 1]
        zeta = lo + (hi - lo) * row[p + 1:]
        consider(t, np.atleast_1d(xi), np.atleast_1d(zeta))
    for t, xi, zeta in extra_pairs:
        consider(t, np.atleast_1d(xi), np.atleast_1d(zeta))
    return {"lambda_hat": lam_hat, "eps_hat": eps_hat,
            "witness_max": w_max, "witness_min": w_min}


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
    est = estimate_lipschitz_pair(lambda t, xi: f(t, xi), t_window, box,
                                  n_pairs, seed)
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
        return xi - sys.D @ f(t, xi)

    extra = _collision_pairs(sys, f, t_window)
    est = estimate_lipschitz_pair(F, t_window, box, n_pairs, seed,
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
    points = [np.zeros(p)]
    for corner in (np.full(p, lo), np.full(p, hi)):
        points.append(corner.astype(float))
    points.extend(lo + (hi - lo) * rng.random((n_xi, p)))
    times = np.linspace(t_window[0], t_window[1], n_t)
    delta_hat = math.inf
    b_hat = 0.0
    witness = None
    for t in times:
        for xi in points:
            mats = [finite_diff_jacobian(f, float(t), xi)]
            sample = sample_clarke_jacobian(f, float(t), xi, radius=clarke_radius,
                                            n_samples=clarke_samples, seed=seed)
            mats.extend(sample.matrices)
            for M in mats:
                b_hat = max(b_hat, float(np.linalg.norm(M, 2)))
                det = float(np.linalg.det(eye - D @ M))
                if abs(det) < delta_hat:
                    delta_hat = abs(det)
                    witness = {"t": float(t), "xi": [float(v) for v in xi],
                               "det": det}
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
    table_c = {}
    witnesses = {}
    for rho in rho_grid:
        radii = np.concatenate(([rho], radii_all[radii_all >= rho]))
        c_hat = 0.0
        wit = None
        for t in times:
            for r in radii:
                for d in dirs:
                    xi = r * d
                    ratio = float(np.linalg.norm(f(float(t), xi))) / r
                    if ratio > c_hat:
                        c_hat = ratio
                        wit = {"t": float(t), "xi": [float(v) for v in xi],
                               "ratio": ratio}
        table_c[rho] = c_hat
        witnesses[rho] = wit
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
    lo, hi = (-box, box) if np.isscalar(box) else box
    rng = np.random.default_rng(seed)
    draws = rng.random((n_pairs, 2 * p + 1))
    ta, tb = t_window
    g1, g2 = -math.inf, math.inf
    w1 = w2 = None

    def consider(t, xi, zeta):
        nonlocal g1, g2, w1, w2
        diff = xi - zeta
        d2 = float(diff @ diff)
        if d2 < 1e-24:
            return
        ratio = float((D @ (f(t, xi) - f(t, zeta))) @ diff) / d2
        if ratio > g1:
            g1 = ratio
            w1 = {"t": float(t), "xi": list(map(float, xi)),
                  "zeta": list(map(float, zeta)), "ratio": ratio}
        if ratio < g2:
            g2 = ratio
            w2 = {"t": float(t), "xi": list(map(float, xi)),
                  "zeta": list(map(float, zeta)), "ratio": ratio}

    for row in draws:
        t = ta + (tb - ta) * row[0]
        xi = lo + (hi - lo) * row[1:p + 1]
        zeta = lo + (hi - lo) * row[p + 1:]
        if annulus_rho is not None:
            nxi, nze = np.linalg.norm(xi), np.linalg.norm(zeta)
            scale_xi = max(1.0, annulus_rho / nxi) if nxi > 0 else 1.0
            scale_ze = max(1.0, annulus_rho / nze) if nze > 0 else 1.0
            xi, zeta = xi * scale_xi, zeta * scale_ze
        consider(t, xi, zeta)
    if annulus_rho is None:
        for t, xi, zeta in _slope_probe_pairs(f, t_window):
            consider(t, xi, zeta)
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
    for t, xi, zeta in _collision_pairs(sys, f, t_window):
        w = xi - sys.D @ f(t, xi)
        probes.append((t, w))
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
