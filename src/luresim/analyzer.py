"""Sampling-based audits of the well-posedness hypotheses.

Each probe estimates one hypothesis on a compact window (radial
unboundedness of F_t, two-sided Lipschitz behaviour, an invertibility
margin for I - D M over sampled Clarke generators, linear growth with
gain margin against the feedthrough norm, one-sided monotonicity, and
the fibre nonemptiness/convexity assumptions of the inclusion route).

The audit has one sampling plan; only the time window and the seed vary.
Radial unboundedness scans ``ProbeGrid``: 25 times, radii 1, 2, ..., 1024
and 64 directions, against the levels 1, 2, 10, 100.  The pair probes
(upper and lower Lipschitz, monotonicity) draw 4096 pairs in the cube
[-2, 2]^p.  The determinant probe takes 5 times and the origin, two cube
corners and 20 points of that cube, each with its centre Jacobian and 16
Clarke samples of radius 1e-4.  Growth scans 13 times, 32 directions, the
radii 1, 2, 4, 8, 16 and 24 radii from 1 to 64.  The fibre probes sample
40 reachable outputs and search each fibre from 24 starts within radius
10.  A lower quotient below 1e-6 or a determinant below 1e-6 is a
failure; growth passes with margin 0.05 below 1/||D||, monotonicity with
margin 1e-3 either side of 1.

Sampling can certify failure with a reproducible witness; it can never
prove a hypothesis, so the passing verdict is named ``pass_sampled``.
Refining a probe keeps previously found witnesses, so a failure never
flips back to a pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .derivatives import (finite_diff_jacobian, finite_diff_jacobians,
                          sample_clarke_jacobians)
from .errors import ConfigurationError
from .inclusion import _fold_candidates, check_image_convexity, enumerate_fibre
from .nonlinearity import Nonlinearity, all_finite, row_norms
from .output_solver import (SolveOptions, _checked, _identity,
                            enumerate_fibre_exact, exact_structure_available)
from .system import SystemMatrices, eval_F

DELTA_FLOOR = 1e-6
EPS_FLOOR = 1e-6
GROWTH_MARGIN = 0.05
MONO_MARGIN = 1e-3

# The rest of the sampling plan (see the module docstring).
_BOX = 2.0
_N_PAIRS = 4096
_N_W = 40
_RHO_LEVELS = (1.0, 2.0, 10.0, 100.0)
_CLARKE_RADIUS = 1e-4
_GROWTH_RHOS = (1.0, 2.0, 4.0, 8.0, 16.0)
_GROWTH_N_DIR = 32
_GROWTH_R_MAX = 64.0
_FIBRE_OPTS = SolveOptions(n_starts=24, search_radius=10.0)


def _checked_window(t_window) -> tuple[float, float]:
    """``t_window`` as floats; it must be two finite numbers 0 <= a < b."""
    pair = isinstance(t_window, (tuple, list, np.ndarray)) and len(t_window) == 2
    if not (pair and all(isinstance(v, numbers.Real) and math.isfinite(v)
                         for v in t_window) and 0 <= t_window[0] < t_window[1]):
        raise ConfigurationError(f"t_window must be two finite numbers a, b "
                                 f"with 0 <= a < b, got {t_window!r}")
    return float(t_window[0]), float(t_window[1])


@dataclass(frozen=True)
class ProbeGrid:
    """Compact probing window: times, radii, directions."""

    t_window: tuple[float, float] = (0.0, 10.0)
    n_t: int = 25
    radii: tuple[float, ...] = tuple(float(2 ** k) for k in range(11))
    n_dir: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t_window", _checked_window(self.t_window))
        if not (isinstance(self.seed, numbers.Integral)
                and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
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


@dataclass
class TheoremTag:
    name: str
    granted: bool
    satisfied: list[str]
    violated: list[str]
    qualifier: str = "sampled"


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
            "checks": [asdict(rec) for rec in self.records],
            "applicability": [asdict(tg) for tg in self.applicability],
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
    return _first_min(-values, -start)


def _interleave(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rows A[0], B[0], A[1], B[1], ...: pair members in evaluation order."""
    return np.stack((A, B), axis=1).reshape(-1, A.shape[1])


def _merge_prior(record: CheckRecord, prior: CheckRecord | None,
                 still_violates) -> CheckRecord:
    """Failures found at coarser settings are retained under refinement."""
    if (prior is None or prior.verdict != "fail_witness" or prior.witness is None
            or record.verdict == "fail_witness" or not still_violates(prior.witness)):
        return record
    return CheckRecord(name=record.name, verdict="fail_witness",
                       margin=min(record.margin, prior.margin),
                       witness=prior.witness, table=record.table,
                       detail="witness retained from coarser probe")


# ---------------------------------------------------------------------------
# Radial unboundedness
# ---------------------------------------------------------------------------

def probe_radial_unboundedness(sys: SystemMatrices, f: Nonlinearity,
                               grid: ProbeGrid | None = None,
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
    for rho in _RHO_LEVELS:
        idx = np.nonzero(tail_min >= rho)[0]
        sigma_table[rho] = float(grid.radii[idx[0]]) if idx.size else None
    failed_level = next((rho for rho, sigma in sigma_table.items() if sigma is None),
                        None)
    table = {"radii": list(grid.radii), "min_norm_F": [float(v) for v in minima],
             "sigma": {str(k): v for k, v in sigma_table.items()}}
    if failed_level is None:
        record = CheckRecord(name="radial_unbounded", verdict="pass_sampled",
                             margin=float(tail_min[-1] - max(_RHO_LEVELS)),
                             table=table)
    else:
        k = max(len(minima) - 3, 0)            # the least of the last three
        k += int(np.argmin(minima_arr[k:]))
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

def _pair_extremes(G, pairs, numerator, denominator, floor: float) -> tuple:
    """Extremes of numerator(G(t,xi) - G(t,zeta), xi - zeta) / denominator(xi - zeta).

    ``pairs`` is the row arrays (T, XI, ZE); ``G(T, X)`` maps each row of X
    at the time of its row.  Pairs whose denominator is below ``floor``
    are skipped unevaluated; the others are evaluated as one interleaved
    stack.  Returns the first maximum and its witness, then the first
    minimum and its witness; (-inf, None, inf, None) without a quotient.
    """
    T, XI, ZE = pairs
    diff = XI - ZE
    den = denominator(diff)
    ratio = np.full(T.shape, np.nan)
    keep = np.nonzero(~(den < floor))[0]
    if keep.size:
        values = G(np.repeat(T[keep], 2), _interleave(XI[keep], ZE[keep]))
        ratio[keep] = numerator(values[0::2] - values[1::2], diff[keep]) / den[keep]

    def extreme(i, none):
        return (none, None) if i is None else (float(ratio[i]), {
            "t": float(T[i]), "xi": [float(v) for v in XI[i]],
            "zeta": [float(v) for v in ZE[i]], "ratio": float(ratio[i])})

    return (*extreme(_first_max(ratio), -math.inf),
            *extreme(_first_min(ratio), math.inf))


def _norm_quotient(G, pairs) -> tuple:
    """``_pair_extremes`` of ||G(t,xi) - G(t,zeta)|| / ||xi - zeta||."""
    return _pair_extremes(G, pairs, lambda dG, diff: row_norms(dG), row_norms,
                          1e-14)


def _lipschitz_extremes(G, p: int, t_window, box, n_pairs: int, seed: int,
                        extra_pairs=()) -> dict:
    """Max and min of ||G(t,xi)-G(t,zeta)|| / ||xi-zeta|| over sampled pairs.

    ``box`` is the half-width of the sampling cube (scalar) or an explicit
    (lo, hi) pair.  Extra pairs (t, xi, zeta) are evaluated in addition to
    the random draws; the extreme ratios and their witnesses are returned.
    """
    if n_pairs < 1:
        raise ConfigurationError("n_pairs must be positive")
    hi, w_hi, lo, w_lo = _norm_quotient(
        G, _pair_draws(n_pairs, p, t_window, box, seed, extra_pairs))
    return {"lambda_hat": hi, "eps_hat": lo, "witness_max": w_hi,
            "witness_min": w_lo}


def _pair_draws(n_pairs: int, p: int, t_window, box, seed: int, extra_pairs=()):
    """Seeded pairs (t, xi, zeta) in the window and the box, followed by the
    listed extra pairs, as row arrays."""
    lo, hi = (-box, box) if np.isscalar(box) else box
    draws = np.random.default_rng(seed).random((n_pairs, 2 * p + 1))
    ta, tb = t_window
    pairs = (ta + (tb - ta) * draws[:, 0], lo + (hi - lo) * draws[:, 1:p + 1],
             lo + (hi - lo) * draws[:, p + 1:])
    if not extra_pairs:
        return pairs
    return tuple(np.concatenate(ab) for ab in zip(pairs, _stack_pairs(extra_pairs, p)))


def _stack_pairs(pairs, p: int):
    """Listed (t, xi, zeta) pairs as row arrays."""
    return (np.array([float(t) for t, _, _ in pairs]),
            np.array([xi for _, xi, _ in pairs], dtype=float).reshape(-1, p),
            np.array([ze for _, _, ze in pairs], dtype=float).reshape(-1, p))


def _witness_pair(w: dict, p: int):
    """A pair witness as a one-row stack."""
    return _stack_pairs([(w["t"], w["xi"], w["zeta"])], p)


# the last (D, f, probe times, pairs) of _collision_pairs, held strongly
_last_pairs: tuple = (None, None, None, ())


def _collision_pairs(sys: SystemMatrices, f: Nonlinearity,
                     t_window: tuple[float, float]) -> list[tuple]:
    """Pairs of distinct fibre points: exact witnesses of F-collisions.

    Fibres are enumerated at the output values where branches meet (piece
    breakpoints, interior extrema of the scalar map; for a radial map those
    at s > 0, along the first axis, as the others mirror them); any
    set-valued fibre yields pairs with lower quotient exactly zero.  An
    audit asks twice (lower Lipschitz, convexity), so the last pairs, their
    points read-only, are kept while f and a read-only D are the same
    objects and the probe times the same floats.
    """
    global _last_pairs
    times = np.linspace(t_window[0], t_window[1], 5)
    last_D, last_f, last_times, pairs = _last_pairs
    if last_D is sys.D and last_f is f and last_times == times.tobytes():
        return list(pairs)
    if f.pieces is None or not exact_structure_available(f, sys.D):
        return []
    pairs = []
    d = float(sys.D[0, 0])
    e1 = _identity(f.p)[0]
    for t in times:
        for xi, wv in _fold_candidates(f, d, float(t)):
            if f.kind == "radial" and not xi > 0:
                continue
            try:
                fib = enumerate_fibre_exact(f, sys.D, float(t), wv * e1)
            except ConfigurationError:
                continue
            pts = list(fib.points)
            for a, b in fib.segments:
                if all_finite(a) and all_finite(b):
                    pts.extend((a, 0.5 * (a + b), b))
                # unbounded: the end and one unit inside, as w lies along e1
                elif all_finite(a):
                    pts.extend((a, a + np.sign(b)))
                elif all_finite(b):
                    pts.extend((b, b + np.sign(a)))
            for pt in pts:
                pt.setflags(write=False)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if float(np.linalg.norm(pts[i] - pts[j])) > 1e-12:
                        pairs.append((float(t), pts[i], pts[j]))
    if not sys.D.flags.writeable:
        _last_pairs = (sys.D, f, times.tobytes(), tuple(pairs))
    return pairs


def check_upper_lipschitz(f: Nonlinearity, t_window, box, n_pairs: int = _N_PAIRS,
                          seed: int = 0) -> CheckRecord:
    est = _lipschitz_extremes(f.eval_batch, f.p, t_window, box, n_pairs, seed)
    return CheckRecord(name="upper_lipschitz", verdict="pass_sampled",
                       margin=est["lambda_hat"],
                       table={"lambda_hat": est["lambda_hat"]},
                       witness=est["witness_max"],
                       detail="largest sampled difference quotient of f")


def check_lower_lipschitz(sys: SystemMatrices, f: Nonlinearity, t_window, box,
                          n_pairs: int = _N_PAIRS, seed: int = 0,
                          prior: CheckRecord | None = None) -> CheckRecord:
    """Lower quotient of F: a zero ratio witnesses failure of injectivity."""
    def F(t, xi):
        return eval_F(sys, f, t, xi)

    extra = _collision_pairs(sys, f, t_window)
    est = _lipschitz_extremes(F, f.p, t_window, box, n_pairs, seed,
                              extra_pairs=extra)
    eps_hat = est["eps_hat"]
    table = {"eps_hat": eps_hat, "n_collision_pairs": len(extra)}
    failed = eps_hat < EPS_FLOOR
    record = CheckRecord(name="lower_lipschitz",
                         verdict="fail_witness" if failed else "pass_sampled",
                         margin=eps_hat, witness=est["witness_min"], table=table,
                         detail="lower quotient collapses; F not boundedly invertible"
                         if failed else "")

    def still_violates(w):
        return _norm_quotient(F, _witness_pair(w, f.p))[2] < EPS_FLOOR

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Determinant condition over sampled Clarke generators
# ---------------------------------------------------------------------------

def check_determinant_condition(f: Nonlinearity, D, t_window, box,
                                n_t: int = 5, n_xi: int = 20,
                                clarke_samples: int = 16, seed: int = 0,
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
        ball = sample_clarke_jacobians(f, float(t), points, radius=_CLARKE_RADIUS,
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
             "delta_floor": DELTA_FLOOR}
    if delta_hat < DELTA_FLOOR:
        record = CheckRecord(name="determinant", verdict="fail_witness",
                             margin=delta_hat, witness=witness, table=table,
                             detail="I - D M nearly singular at witness")
    else:
        record = CheckRecord(name="determinant", verdict="pass_sampled",
                             margin=delta_hat, table=table)

    def still_violates(w):
        xi = np.asarray(w["xi"], dtype=float)
        M = finite_diff_jacobian(f, w["t"], xi)
        return abs(float(np.linalg.det(eye - D @ M))) < DELTA_FLOOR

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Growth condition c ||D|| < 1
# ---------------------------------------------------------------------------

def check_growth_condition(f: Nonlinearity, D, t_window, n_t: int = 13, seed: int = 0,
                           prior: CheckRecord | None = None) -> CheckRecord:
    """c_hat(rho) = max ||f(t,xi)|| / ||xi|| over sampled ||xi|| >= rho.

    Passes when some rho achieves c_hat(rho) ||D|| <= 1 - GROWTH_MARGIN; fails
    with a witness when even the largest rho shows ratios with
    c ||D|| >= 1.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[1]
    dnorm = float(np.linalg.norm(D, 2))
    dirs = ProbeGrid(n_dir=_GROWTH_N_DIR, seed=seed).directions(p)
    times = np.linspace(t_window[0], t_window[1], n_t)
    radii_all = np.geomspace(min(_GROWTH_RHOS), _GROWTH_R_MAX, 24)
    # Ratios on every radius any rho scans (rho itself, then radii_all),
    # evaluated once; each rho then scans its columns in (t, r, d) order.
    radii = np.concatenate((_GROWTH_RHOS, radii_all))
    shape = (times.size, radii.size, len(dirs))
    X = np.broadcast_to(radii[:, None, None] * dirs, shape + (p,))
    T = np.broadcast_to(times[:, None, None], shape)
    ratios = (row_norms(f.eval_batch(T.reshape(-1), X.reshape(-1, p))).reshape(shape)
              / radii[:, None])
    table_c = {}
    witnesses = {}
    for i, rho in enumerate(_GROWTH_RHOS):
        cols = np.concatenate(([i], len(_GROWTH_RHOS) + np.nonzero(radii_all >= rho)[0]))
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
    if best <= 1.0 - GROWTH_MARGIN:
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
    slopes enter the monotonicity quotients regardless of the random box
    (a radial map's along the first axis)."""
    if f.pieces is None:
        return []
    pairs = []
    e1 = _identity(f.p)[0]
    for t in np.linspace(t_window[0], t_window[1], 5):
        for pc in f.resolved_structure(float(t)):
            lo = max(pc.lo, -clip)
            hi = min(pc.hi, clip)
            step = min(delta, (hi - lo) / 8.0)
            if step <= 0:
                continue
            anchors = ((lo + step, lo + 2 * step), (hi - 2 * step, hi - step))
            for a, b in anchors:
                pairs.append((float(t), a * e1, b * e1))
    return pairs


def check_monotonicity(f: Nonlinearity, D, t_window, box, n_pairs: int = _N_PAIRS,
                       seed: int = 0,
                       prior: CheckRecord | None = None) -> CheckRecord:
    """Pair quotients <D f(t,xi) - D f(t,zeta), xi - zeta> / ||xi - zeta||^2.

    Passes via the gamma_1 branch when the sampled maximum stays below 1,
    or via the gamma_2 branch when the sampled minimum stays above 1.
    Fails when both branches are witnessed as violated.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[1]

    def quotient(pairs):
        return _pair_extremes(
            f.eval_batch, pairs,
            lambda df, diff: np.vecdot(np.matmul(D, df[..., None])[..., 0], diff),
            lambda diff: np.vecdot(diff, diff), 1e-24)

    g1, w1, g2, w2 = quotient(_pair_draws(n_pairs, p, t_window, box, seed,
                                          _slope_probe_pairs(f, t_window)))
    table = {"gamma1_hat": g1, "gamma2_hat": g2}
    if g1 <= 1.0 - MONO_MARGIN:
        record = CheckRecord(name="monotonicity", verdict="pass_sampled",
                             margin=1.0 - g1, table=table,
                             detail="gamma_1 branch")
    elif g2 >= 1.0 + MONO_MARGIN:
        record = CheckRecord(name="monotonicity", verdict="pass_sampled",
                             margin=g2 - 1.0, table=table,
                             detail="gamma_2 branch")
    elif g1 >= 1.0 + MONO_MARGIN and g2 <= 1.0 - MONO_MARGIN:
        record = CheckRecord(name="monotonicity", verdict="fail_witness",
                             margin=min(g1 - 1.0, 1.0 - g2),
                             witness={"gamma1": w1, "gamma2": w2}, table=table,
                             detail="both one-sided branches witnessed violated")
    else:
        record = CheckRecord(name="monotonicity", verdict="inconclusive",
                             margin=min(abs(1.0 - g1), abs(g2 - 1.0)),
                             table=table)

    def still_violates(w):
        # A pair too close for a quotient gives (-inf, None, inf, None), so
        # it counts as violating both ways.
        return (quotient(_witness_pair(w["gamma1"], p))[2] >= 1.0
                and quotient(_witness_pair(w["gamma2"], p))[0] <= 1.0)

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
                         n_w: int = _N_W, seed: int = 0,
                         fibre_opts: SolveOptions | None = None,
                         prior: CheckRecord | None = None) -> CheckRecord:
    """Nonemptiness of F_t^{-1}(w) over sampled reachable outputs w."""
    fibre_opts = _checked(fibre_opts or _FIBRE_OPTS, "fibre_opts.")
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
        return enumerate_fibre(f, sys.D, w["t"], np.asarray(w["w"]), fibre_opts).empty

    return _merge_prior(record, prior, still_violates)


def probe_fibre_convexity(sys: SystemMatrices, f: Nonlinearity, t_window,
                          n_w: int = _N_W, seed: int = 0,
                          fibre_opts: SolveOptions | None = None,
                          prior: CheckRecord | None = None) -> CheckRecord:
    """Convexity of f(t, F_t^{-1}(w)) over sampled reachable outputs.

    Branch-meeting output values are probed in addition to random ones,
    since set-valued fibres live exactly there.
    """
    fibre_opts = _checked(fibre_opts or _FIBRE_OPTS, "fibre_opts.")
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
        return not fib.empty and check_image_convexity(
            f, sys.D, w["t"], np.asarray(w["w"]), fib).kind == "violation"

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class AnalyzerOptions:
    t_window: tuple[float, float] = (0.0, 10.0)
    seed: int = 0


_RULES = {
    "existence_and_blowup": (("radial_unbounded", "lower_lipschitz"),),
    "existence_and_blowup_inclusion": (
        ("fibre_nonempty", "radial_unbounded", "fibre_convex"),),
    "forward_complete": (("lower_lipschitz", "growth"),),
    "forward_complete_inclusion": (("fibre_nonempty", "fibre_convex", "growth"),),
    "uniqueness": (("radial_unbounded", "lower_lipschitz"),
                   ("determinant",), ("monotonicity",)),
}


def theorem_applicability(records: list[CheckRecord]) -> AnalysisReport:
    """Map satisfied hypothesis sets to applicable-result tags.

    Every tag carries the "sampled" qualifier: a granted tag means the
    hypotheses were consistent with sampling, never that they are proved.
    """
    by_name = {rec.name: rec for rec in records}
    tags = []
    for tag_name, routes in _RULES.items():
        passed = {name: by_name[name].verdict == "pass_sampled"
                  for route in routes for name in route if name in by_name}
        tags.append(TheoremTag(
            name=tag_name,
            granted=any(all(passed.get(name) for name in route) for route in routes),
            satisfied=[name for name, ok in passed.items() if ok],
            violated=[name for name, ok in passed.items() if not ok]))
    return AnalysisReport(records=list(records), applicability=tags)


def analyze_system(sys: SystemMatrices, f: Nonlinearity,
                   opts: AnalyzerOptions | None = None) -> AnalysisReport:
    """Run every probe and aggregate the applicability report."""
    opts = opts or AnalyzerOptions()
    grid = ProbeGrid(t_window=opts.t_window, seed=opts.seed)    # checks both
    tw, seed = grid.t_window, grid.seed
    records = [
        probe_radial_unboundedness(sys, f, grid),
        check_upper_lipschitz(f, tw, _BOX, seed=seed),
        check_lower_lipschitz(sys, f, tw, _BOX, seed=seed),
        check_determinant_condition(f, sys.D, tw, _BOX, seed=seed),
        check_growth_condition(f, sys.D, tw, seed=seed),
        check_monotonicity(f, sys.D, tw, _BOX, seed=seed),
        probe_fibre_nonempty(sys, f, tw, seed=seed),
        probe_fibre_convexity(sys, f, tw, seed=seed),
    ]
    return theorem_applicability(records)
