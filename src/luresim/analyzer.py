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

The audit (``analyze_system``) draws each sample its probes share once and
evaluates f on it once: the pairs of the three pair probes, the sampled
fibres of the two fibre probes and the collision pairs of the lower
Lipschitz and convexity probes.  A probe called alone draws its own.

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
# Pair quotients: two-sided Lipschitz estimates (monotonicity further below)
# ---------------------------------------------------------------------------

def _pair_draws(n_pairs: int, p: int, t_window, box, seed: int):
    """Seeded pairs (t, xi, zeta) in the window and the box (the cube's
    half-width, or a (lo, hi) pair), as the stacks (T, X) they are evaluated
    at: X holds xi, zeta, xi, ... and T each pair's time twice."""
    if n_pairs < 1:
        raise ConfigurationError("n_pairs must be positive")
    lo, hi = (-box, box) if np.isscalar(box) else box
    draws = np.random.default_rng(seed).random((n_pairs, 2 * p + 1))
    ta, tb = t_window
    return (np.repeat(ta + (tb - ta) * draws[:, 0], 2),
            (lo + (hi - lo) * draws[:, 1:]).reshape(-1, p))


def _stack_pairs(pairs, p: int):
    """Listed (t, xi, zeta) pairs as the stacks of ``_pair_draws``."""
    return (np.repeat([float(t) for t, _, _ in pairs], 2),
            np.array([v for _, xi, ze in pairs for v in (xi, ze)],
                     dtype=float).reshape(-1, p))


def _quotient(num: np.ndarray, den: np.ndarray, floor: float) -> np.ndarray:
    """num / den per pair; NaN, which no extreme takes, where den < floor."""
    return np.divide(num, den, out=np.full(den.shape, np.nan), where=~(den < floor))


def _norm_ratios(pairs, G: np.ndarray) -> np.ndarray:
    """||G(t,xi) - G(t,zeta)|| / ||xi - zeta|| from G at the pairs' rows;
    NaN for pairs closer than 1e-14."""
    X = pairs[1]
    return _quotient(row_norms(G[0::2] - G[1::2]), row_norms(X[0::2] - X[1::2]),
                     1e-14)


def _pair_extremes(pairs, ratio: np.ndarray, extra=(), quotients=None) -> tuple:
    """The first maximum and its witness, then the first minimum and its
    witness, of the pairs' quotients ``ratio`` followed by the listed extra
    pairs' (``quotients`` of their stacks); (-inf, None, inf, None) if none."""
    if extra:
        more = _stack_pairs(extra, pairs[1].shape[1])
        pairs = tuple(map(np.concatenate, zip(pairs, more)))
        ratio = np.concatenate((ratio, quotients(more)))
    T, X = pairs

    def extreme(i, none):
        return (none, None) if i is None else (float(ratio[i]), {
            "t": float(T[2 * i]), "xi": [float(v) for v in X[2 * i]],
            "zeta": [float(v) for v in X[2 * i + 1]], "ratio": float(ratio[i])})

    return (*extreme(_first_max(ratio), -math.inf),
            *extreme(_first_min(ratio), math.inf))


def _collision_pairs(sys: SystemMatrices, f: Nonlinearity,
                     t_window: tuple[float, float]) -> list[tuple]:
    """Pairs of distinct fibre points: exact witnesses of F-collisions.

    Fibres are enumerated at the output values where branches meet (piece
    breakpoints, interior extrema of the scalar map; for a radial map those
    at s > 0, along the first axis, as the others mirror them); any
    set-valued fibre yields pairs with lower quotient exactly zero.
    """
    if f.pieces is None or not exact_structure_available(f, sys.D):
        return []
    pairs = []
    d = float(sys.D[0, 0])
    e1 = _identity(f.p)[0]
    for t in np.linspace(t_window[0], t_window[1], 5):
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
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if float(np.linalg.norm(pts[i] - pts[j])) > 1e-12:
                        pairs.append((float(t), pts[i], pts[j]))
    return pairs


def check_upper_lipschitz(f: Nonlinearity, t_window, box, n_pairs: int = _N_PAIRS,
                          seed: int = 0) -> CheckRecord:
    pairs = _pair_draws(n_pairs, f.p, t_window, box, seed)
    return _upper_record(pairs, _norm_ratios(pairs, f.eval_batch(*pairs)))


def _upper_record(pairs, ratio: np.ndarray) -> CheckRecord:
    lambda_hat, witness = _pair_extremes(pairs, ratio)[:2]
    return CheckRecord(name="upper_lipschitz", verdict="pass_sampled",
                       margin=lambda_hat, table={"lambda_hat": lambda_hat},
                       witness=witness, detail="largest sampled difference quotient of f")


def check_lower_lipschitz(sys: SystemMatrices, f: Nonlinearity, t_window, box,
                          n_pairs: int = _N_PAIRS, seed: int = 0,
                          prior: CheckRecord | None = None) -> CheckRecord:
    """Lower quotient of F: a zero ratio witnesses failure of injectivity."""
    pairs = _pair_draws(n_pairs, f.p, t_window, box, seed)
    return _lower_record(sys, f, pairs, _norm_ratios(pairs, eval_F(sys, f, *pairs)),
                         _collision_pairs(sys, f, t_window), prior)


def _lower_record(sys: SystemMatrices, f: Nonlinearity, pairs, ratio: np.ndarray,
                  collisions: list, prior: CheckRecord | None = None) -> CheckRecord:
    """The lower Lipschitz record of the drawn pairs' quotients, followed by
    the collision pairs'."""
    def quotients(more):
        return _norm_ratios(more, eval_F(sys, f, *more))

    eps_hat, witness = _pair_extremes(pairs, ratio, collisions, quotients)[2:]
    table = {"eps_hat": eps_hat, "n_collision_pairs": len(collisions)}
    failed = eps_hat < EPS_FLOOR
    record = CheckRecord(name="lower_lipschitz",
                         verdict="fail_witness" if failed else "pass_sampled",
                         margin=eps_hat, witness=witness, table=table,
                         detail="lower quotient collapses; F not boundedly invertible"
                         if failed else "")

    def still_violates(w):
        return quotients(_stack_pairs([(w["t"], w["xi"], w["zeta"])], f.p))[0] < EPS_FLOOR

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


def _slope_ratios(D: np.ndarray, pairs, V: np.ndarray) -> np.ndarray:
    """<D f(t,xi) - D f(t,zeta), xi - zeta> / ||xi - zeta||^2 from f at the
    pairs' rows; NaN where ||xi - zeta||^2 < 1e-24."""
    X = pairs[1]
    diff, dV = X[0::2] - X[1::2], V[0::2] - V[1::2]
    return _quotient(np.vecdot(np.matmul(D, dV[..., None])[..., 0], diff),
                     np.vecdot(diff, diff), 1e-24)


def check_monotonicity(f: Nonlinearity, D, t_window, box, n_pairs: int = _N_PAIRS,
                       seed: int = 0,
                       prior: CheckRecord | None = None) -> CheckRecord:
    """Pair quotients <D f(t,xi) - D f(t,zeta), xi - zeta> / ||xi - zeta||^2.

    Passes via the gamma_1 branch when the sampled maximum stays below 1,
    or via the gamma_2 branch when the sampled minimum stays above 1.
    Fails when both branches are witnessed as violated.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    pairs = _pair_draws(n_pairs, f.p, t_window, box, seed)
    return _monotonicity_record(f, D, t_window, pairs,
                                _slope_ratios(D, pairs, f.eval_batch(*pairs)), prior)


def _monotonicity_record(f: Nonlinearity, D: np.ndarray, t_window, pairs,
                         ratio: np.ndarray, prior: CheckRecord | None = None) -> CheckRecord:
    """The monotonicity record of the drawn pairs' quotients, followed by
    the slope probe pairs'."""
    def quotients(more):
        return _slope_ratios(D, more, f.eval_batch(*more))

    g1, w1, g2, w2 = _pair_extremes(pairs, ratio, _slope_probe_pairs(f, t_window),
                                    quotients)
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
        # A pair too close for a quotient (NaN) counts as violating both ways.
        g1, g2 = (quotients(_stack_pairs([(v["t"], v["xi"], v["zeta"])], f.p))[0]
                  for v in (w["gamma1"], w["gamma2"]))
        return not g1 < 1.0 and not g2 > 1.0

    return _merge_prior(record, prior, still_violates)


# ---------------------------------------------------------------------------
# Inclusion-route assumptions: fibre nonemptiness and image convexity
# ---------------------------------------------------------------------------

def _sampled_fibres(sys: SystemMatrices, f: Nonlinearity, t_window, n_w: int, seed: int,
                    fibre_opts: SolveOptions | None) -> tuple[list, SolveOptions]:
    """(t, w, fibre) for n_w sampled outputs w = C x + D_e v inside the
    reachable output image, and the checked options."""
    fibre_opts = _checked(fibre_opts or _FIBRE_OPTS, "fibre_opts.")
    n, m, m_e, p = sys.dims
    rng = np.random.default_rng(seed)
    times = np.linspace(t_window[0], t_window[1], max(2, n_w // 8))
    fibres = []
    for _ in range(n_w):
        t = float(rng.choice(times))
        x = 3.0 * (2.0 * rng.random(n) - 1.0)
        w = sys.C @ x + sys.D_e @ (2.0 * rng.random(m_e) - 1.0)
        fibres.append((t, w, enumerate_fibre(f, sys.D, t, w, fibre_opts)))
    return fibres, fibre_opts


def probe_fibre_nonempty(sys: SystemMatrices, f: Nonlinearity, t_window,
                         n_w: int = _N_W, seed: int = 0,
                         fibre_opts: SolveOptions | None = None,
                         prior: CheckRecord | None = None) -> CheckRecord:
    """Nonemptiness of F_t^{-1}(w) over sampled reachable outputs w."""
    return _nonempty_record(
        sys, f, *_sampled_fibres(sys, f, t_window, n_w, seed, fibre_opts), prior)


def _nonempty_record(sys: SystemMatrices, f: Nonlinearity, fibres: list, fibre_opts,
                     prior: CheckRecord | None = None) -> CheckRecord:
    empty = [{"t": float(t), "w": list(map(float, w))} for t, w, fib in fibres if fib.empty]
    table = {"n_sampled": len(fibres), "n_empty": len(empty)}
    if empty:
        record = CheckRecord(name="fibre_nonempty", verdict="fail_witness",
                             margin=float(len(empty)) / len(fibres), witness=empty[0],
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
    sampled = _sampled_fibres(sys, f, t_window, n_w, seed, fibre_opts)
    return _convexity_record(sys, f, _collision_pairs(sys, f, t_window), *sampled, prior)


def _convexity_record(sys: SystemMatrices, f: Nonlinearity, collisions: list, fibres: list,
                      fibre_opts, prior: CheckRecord | None = None) -> CheckRecord:
    """The convexity record over the sampled fibres, followed by the fibres
    at the collision pairs' outputs."""
    if collisions:
        T, X = (a[0::2] for a in _stack_pairs(collisions, f.p))
        fibres = fibres + [(t, w, enumerate_fibre(f, sys.D, t, w, fibre_opts))
                           for t, w in zip(T.tolist(), eval_F(sys, f, T, X))]
    worst = None
    n_checked = 0
    for t, w, fib in fibres:
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
    """Run every probe, each shared sample drawn once, and aggregate the report."""
    opts = opts or AnalyzerOptions()
    grid = ProbeGrid(t_window=opts.t_window, seed=opts.seed)    # checks both
    tw, seed, D = grid.t_window, grid.seed, sys.D
    pairs = _pair_draws(_N_PAIRS, f.p, tw, _BOX, seed)
    V = f.eval_batch(*pairs)
    F = pairs[1] - np.matmul(D, V[..., None])[..., 0]     # as apply_F forms it
    collisions = _collision_pairs(sys, f, tw)
    fibres, fibre_opts = _sampled_fibres(sys, f, tw, _N_W, seed, None)
    return theorem_applicability([
        probe_radial_unboundedness(sys, f, grid),
        _upper_record(pairs, _norm_ratios(pairs, V)),
        _lower_record(sys, f, pairs, _norm_ratios(pairs, F), collisions),
        check_determinant_condition(f, D, tw, _BOX, seed=seed),
        check_growth_condition(f, D, tw, seed=seed),
        _monotonicity_record(f, D, tw, pairs, _slope_ratios(D, pairs, V)),
        _nonempty_record(sys, f, fibres, fibre_opts),
        _convexity_record(sys, f, collisions, fibres, fibre_opts),
    ])
