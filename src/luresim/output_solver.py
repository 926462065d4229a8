"""Solving the implicit output equation F_t(y) = w, with w = C x + D_e v.

Three routes:

* ``solve_output``: the exact fibre's element nearest the warm start,
  else damped Newton from the warm start, falling back to the multistart
  fibre's nearest element.  A run holds its route: its exact-route stages
  call ``_exact_choice``, which ``solve_output`` shares, directly.
* ``enumerate_fibre_exact``: closed-form enumeration of the whole fibre
  F_t^{-1}(w) for piecewise-scalar, radial and conformal nonlinearities
  (points and flat segments, residual at roundoff level), from the raw
  elements of one fibre function per kind, which ``solve_output`` shares.
  A radial map is the piecewise-scalar map s -> s - d g(t, s) along the
  ray of w, so both kinds share one scalar enumeration.
* ``brute_force_fibre_oracle``: a dense-scan oracle that cross-checks the
  exact enumeration by its own scan; a scalar fibre of either is assembled
  by the same ``_assemble_scalar_fibre`` and ``FibreSet.of_floats``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

from .derivatives import finite_diff_jacobian, finite_diff_jacobians
from .errors import ConfigurationError, EvaluationError
from .nonlinearity import (Nonlinearity, _eval_resolved, all_finite, row_norms,
                           vec_norm)
from .system import apply_F, scalar_feedthrough

EXACT_TOL = 1e-12       # residual bound for exact fibre entries
FLAT_TOL = 1e-10        # oracle flat-segment detection threshold
_SCAN_ROWS = 1 << 16    # grid cells per evaluation of the planar oracle
_BRACKET_POINTS = 129   # scalar sign-change grid across the search diameter
_RESID_FLOOR = 1e-6     # a fruitless search this close reads not_converged
_FLOAT = np.dtype(float)
_EPS = float(np.finfo(float).eps)
_SORT_KEY = operator.itemgetter(0)
# the analysis that proves an empty exact fibre empty, by kind
_EXCLUDED_BY = {"piecewise_scalar": "exact piecewise range analysis",
                "radial": "exact piecewise range analysis along the ray of w",
                "conformal": "exact root analysis of the modulus polynomial"}


@dataclass
class SolveOptions:
    """Tolerances and search parameters for the output solver.

    Newton stops at residual ``tol_resid`` or after ``max_iter`` steps; a
    start stopped by ``max_iter`` while each step still lowered its
    residual is cut off, not failed.  A multistart fibre runs Newton from
    ``n_starts`` seeded Halton points within ``search_radius`` of its
    centre and merges solutions closer than twice ``tol_sep``.
    ``use_structure`` allows the exact fibre on every route.  ``tol_resid``,
    ``tol_sep`` and ``search_radius`` must be finite and positive,
    ``max_iter`` an integer >= 1, ``n_starts`` and ``seed`` ones >= 0 (not
    bools): a run, or a one-shot call, rejects others, naming the field.
    """

    tol_resid: float = 1e-10
    tol_sep: float = 1e-6
    max_iter: int = 100
    n_starts: int = 16
    search_radius: float = 8.0
    seed: int = 0
    use_structure: bool = True


class _CheckedOptions(SolveOptions):
    """A private copy of options that ``_checked`` has accepted, so a run
    checks its options once, not at every stage."""


def _checked(opts: SolveOptions | None, prefix: str = "") -> SolveOptions:
    """The options (default ``SolveOptions()``) as a checked copy; raises
    ConfigurationError naming the first bad field, after ``prefix``."""
    if type(opts) is _CheckedOptions:
        return opts
    opts = opts or SolveOptions()
    for name in ("tol_resid", "tol_sep", "search_radius"):
        value = getattr(opts, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)
                and value > 0):
            raise ConfigurationError(
                f"{prefix}{name} must be finite and positive, got {value!r}")
    for name, least in (("max_iter", 1), ("n_starts", 0), ("seed", 0)):
        value = getattr(opts, name)
        if not (isinstance(value, numbers.Integral)
                and not isinstance(value, bool) and value >= least):
            raise ConfigurationError(
                f"{prefix}{name} must be an integer >= {least}, got {value!r}")
    return _CheckedOptions(**{fld.name: getattr(opts, fld.name)
                              for fld in fields(SolveOptions)})


@dataclass
class OutputSolution:
    """The outcome of ``solve_output``.

    ``status`` is ``unique_point``, ``multiple`` (y is the nearest of
    several fibre elements, ``n_found`` of them), ``no_solution`` (the
    exact range analysis excludes w, or every start of a Newton search
    stopped or stagnated short of it) or ``not_converged`` (a Newton
    search found nothing, but some start was cut off by ``max_iter`` while
    its residual still fell, or the least residual met is within 1e-6).
    y and u = f(t, y) are 1-d arrays (floats for a float warm start with a
    1 x 1 feedthrough), None without a solution; ``certificate`` says why
    there is none.
    """

    status: str
    y: np.ndarray | None
    residual: float
    iterations: int
    certificate: dict | None = None
    n_found: int = 0
    u: np.ndarray | None = None      # f(t, y), computed for the residual


class FibreSet:
    """Exact or approximate representation of F_t^{-1}(w).

    ``points`` are isolated solutions; ``segments`` are closed solution
    segments, the flat pieces of a scalar map or of a radial map along its
    ray.  A segment may have an infinite endpoint when a flat piece is
    unbounded.  Segments given as arrays are intervals of vectors of
    length one.

    A piecewise-scalar fibre (exact or the oracle's) is built by
    ``of_floats``: its points and intervals stay plain floats, so its
    elements, ``nearest`` and the selection policies give floats, and the
    ``points`` / ``segments`` arrays are built only when read.  An exact
    radial fibre holds the same floats as coordinates s along the unit
    vector ``_ray`` = w / |w|, its elements s * ``_ray``.
    """

    __slots__ = ("exact", "t", "_w", "_points", "_segments", "_floats",
                 "_ray", "_ordered")

    def __init__(self, points, segments, exact: bool, t: float = 0.0,
                 w: np.ndarray | None = None):
        self.exact, self.t, self._w = exact, t, w
        self._points, self._segments = tuple(points), tuple(segments)
        self._floats = self._ray = None
        items = [((vec_norm(pt), tuple(pt.tolist())), pt) for pt in self._points]
        for a, b in self._segments:
            rep = a if not all_finite(b) else 0.5 * (a + b)
            items.append(((vec_norm(rep), tuple(rep.tolist())), (a, b)))
        items.sort(key=_SORT_KEY)
        self._ordered = tuple([item[1] for item in items])   # segments as pairs

    @classmethod
    def of_floats(cls, points: list[float], segments: list[tuple[float, float]],
                  exact: bool, t: float, w) -> "FibreSet":
        """The fibre of the target w with these points and intervals,
        ordered by the same (norm, entries) key as the array form: of the
        float w, or, for a vector w, the coordinates s of its elements s u
        along the ray u = w / |w| (any unit vector for w = 0)."""
        fib = cls.__new__(cls)
        fib.exact, fib.t, fib._w = exact, t, w
        fib._points = fib._segments = None
        fib._ray = _ray(w) if isinstance(w, np.ndarray) else None
        fib._floats = (points, segments)
        fib._ordered = tuple(_float_elements(points, segments))
        return fib

    def _vector(self, x: float) -> np.ndarray:
        """The element of a float-backed fibre at the float x.  An infinite
        x is the end at infinity along the ray: 0 where the ray is, not NaN."""
        ray = self._ray
        if ray is None:
            return np.array([x])
        if math.isfinite(x):
            return x * ray
        return np.multiply(x, ray, where=ray != 0.0, out=np.zeros_like(ray))

    @property
    def points(self) -> tuple[np.ndarray, ...]:
        if self._points is None:
            self._points = tuple(map(self._vector, self._floats[0]))
        return self._points

    @property
    def segments(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        if self._segments is None:
            self._segments = tuple((self._vector(lo), self._vector(hi))
                                   for lo, hi in self._floats[1])
        return self._segments

    @property
    def w(self) -> np.ndarray | None:
        scalar = self._floats is not None and self._ray is None
        return np.array([self._w]) if scalar else self._w

    @property
    def empty(self) -> bool:
        return not self._ordered

    @property
    def n_elements(self) -> int:
        return len(self._ordered)

    def is_set_valued(self) -> bool:
        if len(self._ordered) >= 2:
            return True
        if self._floats is not None:
            return not all(_allclose_float(lo, hi) for lo, hi in self._floats[1])
        return not all(np.allclose(a, b) for a, b in self._segments)

    def elements(self) -> list[tuple[str, object]]:
        """Deterministic ordering: sort by (norm of representative, entries)."""
        vector = self._vector if self._ray is not None else (lambda e: e)
        return [("segment", tuple(map(vector, e))) if type(e) is tuple
                else ("point", vector(e)) for e in self._ordered]

    def nearest(self, target) -> tuple:
        """Closest fibre element to target: (value, distance, element index).

        The first element in order wins a tie.  A piecewise-scalar fibre
        takes a float (or a vector of length one) and gives a float value.
        A radial fibre projects target onto its ray and clamps the
        coordinate into each segment.
        """
        if not self._ordered:
            raise ConfigurationError("nearest() called on an empty fibre")
        ray = self._ray
        if self._floats is not None:
            if ray is None:
                x = _as_float(target)
            else:       # the nearest s u is the s nearest target's coordinate
                target = np.asarray(target, dtype=float).reshape(-1)
                x = float(np.sum(target * ray))
            best = _nearest_float(self._ordered, x)
            if ray is None:
                return best
            y = best[0] * ray
            return y, vec_norm(y - target), best[2]
        target = np.asarray(target, dtype=float).reshape(-1)
        best = None
        for idx, payload in enumerate(self._ordered):
            if type(payload) is not tuple:
                cand = payload
            else:                               # an interval of length-one vectors
                cand = np.array([min(max(float(target[0]), float(payload[0][0])),
                                     float(payload[1][0]))])
            dist = vec_norm(cand - target)
            if best is None or dist < best[1]:
                best = (cand, dist, idx)
        return np.array(best[0], dtype=float), best[1], best[2]

    def to_dict(self) -> dict:
        w = self.w
        return {
            "points": [list(map(float, pt)) for pt in self.points],
            "segments": [[list(map(float, a)), list(map(float, b))]
                         for a, b in self.segments],
            "exact": self.exact,
            "t": float(self.t),
            "w": None if w is None else list(map(float, w)),
        }


def _ray(w: np.ndarray) -> np.ndarray:
    """The unit vector w / |w| (e1 for w = 0) that a radial fibre lies along."""
    rho = vec_norm(w)
    return w / rho if rho else _identity(w.size)[0]


def _float_elements(points: list[float], segments: list) -> list:
    """The float points and (lo, hi) intervals of a fibre in its order: by
    (norm, value) of a point or an interval's midpoint (lo if hi = inf)."""
    return sorted(points + segments, key=_float_key) if segments or points[1:] else points


def _float_key(e) -> tuple[float, float]:
    x = e if type(e) is not tuple else e[0] if not math.isfinite(e[1]) else 0.5 * (e[0] + e[1])
    return math.sqrt(x * x), x


def _nearest_float(elements, x: float) -> tuple:
    """(value, distance, index) of the float point or (lo, hi) nearest x."""
    best = None
    for idx, el in enumerate(elements):
        cand = min(max(x, el[0]), el[1]) if type(el) is tuple else el
        diff = cand - x
        dist = math.sqrt(diff * diff)
        if best is None or dist < best[1]:
            best = (cand, dist, idx)
    return best


def _allclose_float(a: float, b: float) -> bool:
    """``np.allclose`` on one pair of entries, at its default tolerances."""
    return (abs(a - b) <= 1e-8 + 1e-5 * abs(b) and math.isfinite(b)) or a == b


def _as_float(value, name: str = "target") -> float:
    """A float, or the one entry of a vector ``name`` of length one."""
    if type(value) is float:
        return value
    if type(value) is np.ndarray and value.shape == (1,) and value.dtype is _FLOAT:
        return value.item()         # a p = 1 stage's target or output
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ConfigurationError(f"{name} must have length 1")
    return float(arr[0])


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

def _target(w, p: int) -> np.ndarray:
    """The output target as a flat vector; it must be finite and of length p."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != p or not all_finite(w):
        raise ConfigurationError(f"w must be a finite vector of length {p}")
    return w


def _scalar_target(w) -> float:
    """``_target`` for p = 1, as a float."""
    try:
        x = _as_float(w, "w")
    except ConfigurationError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigurationError("w must be a finite vector of length 1")
    return x


def _as_feedthrough(D) -> np.ndarray:
    if isinstance(D, np.ndarray) and D.ndim == 2 and D.dtype == np.float64:
        return D
    return np.atleast_2d(np.asarray(D, dtype=float))


def residual_norm(f: Nonlinearity, D, t: float, y, w) -> float:
    """||y - D f(t, y) - w||."""
    return vec_norm(apply_F(_as_feedthrough(D), f, t, y)
                    - np.asarray(w, dtype=float).reshape(-1))


def _evaluate(f: Nonlinearity, t: float, y):
    """f(t, y) at an output y: a float for a float y (``eval_scalar``)."""
    if type(y) is not float:
        return f(t, y)
    u = f.eval_scalar(t, y)
    if not math.isfinite(u):
        raise f._non_finite(t, np.array([y]))
    return u


def _value_and_residual(f: Nonlinearity, D: np.ndarray, t: float, y, w):
    """(f(t, y), ||y - D f(t, y) - w||) with one evaluation.

    With a 1 x 1 feedthrough, y and w are floats and so is f(t, y).
    """
    u = _evaluate(f, t, y)
    if D.shape == (1, 1):
        return u, abs(y - float(D[0, 0]) * u - w)
    return u, vec_norm(y - D @ u - w)


# ---------------------------------------------------------------------------
# Damped Newton with multistart
# ---------------------------------------------------------------------------

def _newton(f: Nonlinearity, D: np.ndarray, t: float, w: np.ndarray,
            y0: np.ndarray, opts: SolveOptions):
    """Damped Newton on the output residual: (y, resid, iters, ok, f(t, y), cut).

    f(t, y) is None when the first evaluation failed.  ``cut`` marks a
    start that ran out of ``max_iter`` while every step still lowered its
    residual.  The one-start path: ``_newton_stack`` gives the same result
    for one row but takes about twice as long, which the per-stage solves
    of ``simulate`` would pay on every step.
    """
    eye = _identity(w.size)
    tol = opts.tol_resid
    y = np.asarray(y0, dtype=float).reshape(-1).copy()
    try:
        u = f.eval(t, y)
    except EvaluationError:
        return y, math.inf, 0, False, None, False
    r = y - D @ u - w
    rnorm = vec_norm(r)
    for it in range(1, opts.max_iter + 1):
        if rnorm <= tol:
            return y, rnorm, it - 1, True, u, False
        try:
            Jf = f.jac(t, y) if f.jac is not None else finite_diff_jacobian(f, t, y)
            step = np.linalg.solve(eye - D @ Jf, -r)
        except (np.linalg.LinAlgError, EvaluationError):
            return y, rnorm, it - 1, False, u, False
        if not all_finite(step):
            return y, rnorm, it - 1, False, u, False
        lam = 1.0
        while lam >= 2.0 ** -30:
            y_new = y + lam * step
            try:
                u_new = f.eval(t, y_new)
            except EvaluationError:
                lam *= 0.5
                continue
            r_new = y_new - D @ u_new - w
            rn_new = vec_norm(r_new)
            if rn_new <= (1.0 - 1e-4 * lam) * rnorm or rn_new <= tol:
                y, r, u, rnorm = y_new, r_new, u_new, rn_new
                break
            lam *= 0.5
        else:
            return y, rnorm, it, False, u, False   # stagnation
    ok = rnorm <= tol
    return y, rnorm, opts.max_iter, ok, u, not ok


@functools.lru_cache(maxsize=8)
def _identity(p: int) -> np.ndarray:
    """np.eye(p), shared read-only."""
    eye = np.eye(p)
    eye.setflags(write=False)
    return eye


def _newton_stack(f: Nonlinearity, D: np.ndarray, t: float, w: np.ndarray,
                  Y0: np.ndarray, opts: SolveOptions):
    """``_newton`` from every row of Y0 at once: (Y, resid, iters, ok, cut) arrays.

    Every start follows the iteration it would follow alone.  The starts
    still running advance together, one stacked ``np.linalg.solve`` per
    iteration; the line search halves the step of the starts that have
    not yet accepted one, and a start leaves as soon as it converges,
    fails or stagnates.
    """
    n, p = Y0.shape
    eye = _identity(p)

    def resid(Y):
        values, bad = f.eval_rows(t, Y)
        return Y - np.matmul(D, values[..., None])[..., 0] - w, bad

    def jac(Y):
        """Jacobians of the residual; NaN where an evaluation failed."""
        if f.jac is None:
            Jf = finite_diff_jacobians(f, t, Y, strict=False)
        elif f.jac_batch is not None:
            Jf = f.jac_batch(np.asarray(t, dtype=float), Y)
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
    return Y, rnorm, iters, ok, running & ~ok


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


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(p: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Halton sequence in [0, 1)^p.

    Owen's random digit permutations ("A randomized Halton algorithm in
    R", arXiv:1706.02808): one permutation of the digits 0 .. b-1 for each
    of the ceil(54 / log2 b) - 1 digit places of prime base b, the leading
    zero digits included, drawn by ``np.random.default_rng(seed)`` base
    after base.  The draws and the digit sums run in the order of
    ``scipy.stats.qmc.Halton(d=p, scramble=True, seed=seed).random(n)``,
    so the points keep its bits.
    """
    rng = np.random.default_rng(seed)
    u = np.empty((n, p))
    for i, base in enumerate(_first_primes(p)):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient = np.arange(n)
        b2r = 1.0 / base
        total = np.zeros(n)
        for perm in perms:
            total += perm[quotient % base] * b2r
            quotient //= base
            b2r /= base
        u[:, i] = total
    return u


@functools.lru_cache(maxsize=32)
def _halton_offsets(p: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Scrambled Halton points in [-1, 1]^p and the factors pulling them into the ball."""
    z = 2.0 * _scrambled_halton(p, n, seed) - 1.0
    norms = np.linalg.norm(z, axis=1)
    scale = np.where(norms > 1.0, 1.0 / norms, 1.0)[:, None]
    z.setflags(write=False)
    scale.setflags(write=False)
    return z, scale


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

    When the nonlinearity carries exact structure the whole fibre is
    enumerated, which also certifies nonexistence by range analysis.
    Otherwise damped Newton runs from the guess and, on singularity or
    stagnation, the multistart fibre around the guess is searched.  Either
    fibre yields its element nearest to y_guess; ``status="multiple"``
    flags a fibre with more than one element.

    A run holds its route, and its exact-route stages call this function's
    exact route, ``_exact_choice``, without its checks and its
    ``OutputSolution``.  A one-point exact fibre is its own nearest element:
    no ``FibreSet`` is built for it, with equal bits.

    A search that finds nothing reads ``not_converged`` when some Newton
    start ran out of ``max_iter`` while its residual was still falling, or
    when the least residual met stays within 1e-6; otherwise it reads
    ``no_solution``.  Neither proves the fibre empty: only the exact
    route's range analysis does that.

    With a 1 x 1 feedthrough and a float y_guess, the solution's y and u
    are floats; otherwise they are 1-d arrays.
    """
    opts = _checked(opts)
    D = sys.D
    p = D.shape[0]
    scalar = D.shape == (1, 1)          # w, y_guess, y and u as floats
    floats = scalar and type(y_guess) is float      # ... also in the solution
    if scalar:
        w, y_guess = _scalar_target(w), _as_float(y_guess, "y_guess")
    else:
        w = _target(w, p)
        y_guess = np.asarray(y_guess, dtype=float).reshape(-1)
        if y_guess.size != p:
            raise ConfigurationError(f"y_guess must have length {p}")

    route = _exact_route(f, D, opts)
    if route is not None:
        y, fib = _exact_choice(f, *route, t, w, y_guess, opts.tol_sep)
        if y is None:
            return OutputSolution(status="no_solution", y=None,
                                  residual=math.inf, iterations=0,
                                  certificate=_range_exclusion(f))
        iters = 0
    else:
        w_vec = np.array([w]) if scalar else w
        guess = np.array([y_guess]) if scalar else y_guess
        y, rnorm, iters, ok, u, cut = _newton(f, D, t, w_vec, guess, opts)
        if ok:
            if floats:
                y, u = float(y[0]), float(u[0])
            return OutputSolution(status="unique_point", y=y, residual=rnorm,
                                  iterations=iters, n_found=1, u=u)
        fib, least, more, cut_more = _multistart(f, D, t, w_vec, guess, opts)
        iters += more
        if fib.empty:
            least = min(rnorm, least)
            unresolved = cut or cut_more or least <= _RESID_FLOOR
            return OutputSolution(
                status="not_converged" if unresolved else "no_solution",
                y=None, residual=least, iterations=iters,
                certificate={"kind": "exhaustion", "n_starts": opts.n_starts + 1,
                             "min_residual": least},
            )
        y, _, _ = fib.nearest(y_guess)
        if scalar:
            y = _as_float(y)

    if fib is None:
        status, n_found = "unique_point", 1
    else:
        status = "multiple" if fib.is_set_valued() else "unique_point"
        n_found = fib.n_elements
    u, resid = _value_and_residual(f, D, t, y, w)
    if scalar and not floats:
        y, u = np.array([y]), np.array([u])
    return OutputSolution(status=status, y=y, residual=resid, iterations=iters,
                          n_found=n_found, u=u)


def _exact_choice(f: Nonlinearity, d: float, fibre_of, t: float, w, y_guess,
                  tol_sep: float) -> tuple:
    """(y, fibre): y the element nearest y_guess of the exact fibre of the
    checked target w, floats when D is 1 x 1; fibre None for one point,
    which is its own nearest element.  An empty fibre gives (None, None)."""
    scalar = type(w) is float
    # a radial or conformal map takes its target as a vector, also for p = 1
    target = np.array([w]) if scalar and f.kind != "piecewise_scalar" else w
    points, segments = fibre_of(f, d, t, target, tol_sep)
    fib = None
    if segments or len(points) > 1:
        fib = _exact_fibre(f, t, target, points, segments)
        y = fib.nearest(y_guess)[0]
    elif not points:
        return None, None
    elif f.kind == "radial":            # the one point s u, u = w / |w|
        y = points[0] * _ray(target)
    else:
        y = points[0]
    return (_as_float(y) if scalar else y), fib


def _range_exclusion(f: Nonlinearity) -> dict:
    """The certificate of an empty exact fibre."""
    return {"kind": "range_exclusion", "detail": _EXCLUDED_BY[f.kind]}


def _scalar_bracket_roots(f: Nonlinearity, D: np.ndarray, t: float,
                          w: np.ndarray, center: np.ndarray,
                          opts: SolveOptions) -> list[float]:
    """Roots of the residual's sign changes on a grid around center; grid
    points and brackets where f is not finite are skipped."""
    d = float(D[0, 0])
    w0 = float(w[0])
    c = float(center[0])

    def resid(x: float) -> float:
        return x - d * f.eval_scalar(t, x) - w0

    xs = np.linspace(c - opts.search_radius, c + opts.search_radius,
                     _BRACKET_POINTS)
    vals = xs - d * f.eval_rows(t, xs[:, None])[0][:, 0] - w0
    roots = []
    for i in range(xs.size - 1):
        if not (np.isfinite(vals[i]) and np.isfinite(vals[i + 1])):
            continue
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            with contextlib.suppress(EvaluationError):      # f not finite inside
                roots.append(_brentq(resid, xs[i], xs[i + 1], xtol=1e-13))
    if vals.size and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _brentq(f, a: float, b: float, xtol: float = 2e-12,
            rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """A root of the scalar f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973) as scipy.optimize.brentq runs it, step for step,
    so a root keeps its bits: xcur is the best estimate, xblk the
    contrapoint, xpre the previous estimate; an inverse quadratic or
    secant step scur is taken while it stays short, else a bisection
    step sbis, and never a step under the tolerance delta.  A NaN value
    or a bracket without a sign change raises ValueError, running out of
    iterations RuntimeError.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# ---------------------------------------------------------------------------
# Exact fibre enumeration for structured nonlinearities
# ---------------------------------------------------------------------------

def exact_structure_available(f: Nonlinearity, D) -> bool:
    return _exact_enumerator(f, D) is not None


def _exact_enumerator(f: Nonlinearity, D):
    """(d, fibre function) of f's exact fibre under the feedthrough D, or
    None without one: a piecewise-scalar map needs a 1 x 1 D = [[d]], a
    radial or conformal one D = d I."""
    D = _as_feedthrough(D)
    if f.kind == "piecewise_scalar":
        d = float(D[0, 0]) if D.shape == (1, 1) else None
    elif f.kind in ("radial", "conformal"):
        d = scalar_feedthrough(D)
    else:
        d = None
    return None if d is None else (d, _EXACT_FIBRES[f.kind])


def _exact_route(f: Nonlinearity, D, opts: SolveOptions):
    """The route rule of every solve and fibre: ``_exact_enumerator``'s
    (d, fibre function), or None for the numeric route."""
    return _exact_enumerator(f, D) if opts.use_structure else None


def _piece_roots_for_target(pc, d: float, target: float):
    """Roots of x - d*piece(x) = target on this piece.

    Returns (points, segments) lists of floats / (lo, hi) tuples.
    When the residual at the quadratic vertex is within the rounding error
    of F there, or a marginally negative discriminant leaves it within
    EXACT_TOL, the vertex is the one (double) root; this keeps the
    enumeration stable against roundoff at double roots.
    """
    lo, hi, c0, c1, c2, atan_coeff = pc
    if atan_coeff != 0.0:
        a = -d * c2
        b = 1.0 - d * c1
        aat = -d * atan_coeff
        if abs(a) > 1e-14 or abs(b) > 1e-14 or aat == 0.0:
            raise ConfigurationError(
                "unsupported piece formula for exact fibre enumeration "
                "(arctan piece solvable only when the linear part cancels)"
            )
        arg = (target + d * c0) / aat
        if abs(arg) >= math.pi / 2.0:
            return [], []
        root = math.tan(arg)
        return ([root] if _in_interval(root, lo, hi) else []), []

    a = -d * c2
    b = 1.0 - d * c1
    dc0 = d * c0
    c = -dc0 - target
    scale = max(1.0, abs(b), abs(c))
    if abs(a) <= 1e-14 * scale:
        if abs(b) <= 1e-14 * scale:
            if abs(c) <= EXACT_TOL:
                return [], [(lo, hi)]        # flat piece at the target value
            return [], []
        root = -c / b
        if abs(a) * root * root <= EXACT_TOL:    # no curvature at the root
            return ([root] if _in_interval(root, lo, hi) else []), []

    disc = b * b - 4.0 * a * c
    # 4|a| times the rounding error of F(vertex) - target = disc / (4a): its
    # terms are |vertex| = |b / 2a|, |d c1 vertex| <= (1 + |b|) |vertex|,
    # |a| vertex^2 = |b vertex| / 2, |d c0| and |target|
    disc_tol = 32.0 * _EPS * (abs(b) * (1.0 + 0.75 * abs(b))
                              + abs(a) * (abs(dc0) + abs(target)))
    pts = []
    if disc > disc_tol:
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
    elif disc >= -disc_tol or abs(disc) / (4.0 * abs(a)) <= EXACT_TOL:
        # a double root up to roundoff, or a vertex residual within EXACT_TOL
        vertex = -b / (2.0 * a)
        if _in_interval(vertex, lo, hi):
            pts.append(vertex)
    return pts, []


def _piece_image(pc, d: float) -> tuple[float, float]:
    """The targets w for which ``_piece_roots_for_target`` may find a root
    on the static piece pc: F = x - d pc(x) over the piece widened by twice
    ``_in_interval``'s tolerance (a flat F: its level), widened by 2 EXACT_TOL
    and 64 eps times the size of F's terms and b^2 / |a| (root rounding, the
    discriminant slack).  Arctan, near-linear (branch set by w), NaN: any w."""
    lo, hi, c0, c1, c2, atan_coeff = pc
    a, b, dc0 = -d * c2, 1.0 - d * c1, d * c0
    if atan_coeff or (abs(a) <= 1e-12 * max(1.0, abs(b)) if a else 1e-14 < abs(b) <= 1e-12):
        return -math.inf, math.inf
    xs = ([lo - 2e-12 * max(1.0, abs(lo)), hi + 2e-12 * max(1.0, abs(hi))]
          if a or abs(b) > 1e-14 else [0.0])
    if a and xs[0] < -b / (2.0 * a) < xs[1]:
        xs.append(-b / (2.0 * a))           # the vertex
    # at an infinite end, F's limit: a x^2 leads, else b x
    values = [(a * x + b) * x - dc0 if math.isfinite(x)
              else math.copysign(math.inf, a) if a else b * x for x in xs]
    size = abs(dc0) + sum(abs(v) + abs(a) * x * x + abs(b * x)
                          for x, v in zip(xs, values) if math.isfinite(x))
    slack = 2.0 * EXACT_TOL + 64.0 * _EPS * (size + ((b * b + abs(b)) / abs(a) if a else 0.0))
    image = (min(values) - slack, max(values) + slack)
    if any(map(math.isnan, values)) or not image[0] <= image[1]:
        return -math.inf, math.inf
    return image


def _in_interval(x: float, lo: float, hi: float) -> bool:
    tol = 1e-12 * max(1.0, abs(x))
    return (lo - tol) <= x <= (hi + tol)


def _assemble_scalar_fibre(point_vals: list[float],
                           segment_vals: list[tuple[float, float]],
                           resid_of, tol_sep: float):
    """Dedupe roots, absorb points into segments, merge touching segments.

    Of a cluster of nearby roots the one with the least |resid_of| is
    kept, the first on a tie; a cluster of equal roots (one root found on
    two touching pieces) keeps its first without evaluating.
    """
    if not segment_vals and len(point_vals) < 2:
        return list(point_vals), []         # nothing to merge
    groups: list[list[float]] = []
    for x in sorted(point_vals):
        if groups and x - groups[-1][-1] <= 2.0 * tol_sep:
            groups[-1].append(x)
        else:
            groups.append([x])
    # ascending and distinct, as the groups are
    pts = [g[0] if g[0] == g[-1]
           else min(g + [0.5 * (g[0] + g[-1])], key=lambda x: abs(resid_of(x)))
           for g in groups]
    if not segment_vals:
        return pts, []
    segs: list[tuple[float, float]] = []
    for lo, hi in sorted(segment_vals):
        if segs and lo <= segs[-1][1] + 1e-9:
            segs[-1] = (segs[-1][0], max(segs[-1][1], hi))
        else:
            segs.append((lo, hi))
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
    case (D = d I): f maps s u to g(t, s) u, g the profile's odd
    extension, so with u = w / |w| the fibre is s u over the same scalar
    fibre of s - d g(t, s) = |w|, s of either sign.  Conformal case (D =
    d I): the real roots of one polynomial in the radius, each radius r
    giving the one point w / (1 - d alpha(t, r)) (``_conformal_fibre``).
    Both scalar kinds give float-backed fibres (``FibreSet.of_floats``);
    a piecewise-scalar fibre's w may be a float.
    """
    D = _as_feedthrough(D)
    w = _exact_target(f, w, D.shape[0])
    if f.kind == "piecewise_scalar" and D.shape != (1, 1):
        raise ConfigurationError("piecewise-scalar fibre needs scalar D")
    if f.kind not in _EXACT_FIBRES:
        raise ConfigurationError(
            f"exact fibre enumeration is not available for kind {f.kind!r}")
    route = _exact_enumerator(f, D)
    if route is None:
        raise ConfigurationError(f"{f.kind} fibre needs D to be a multiple of I")
    d, fibre_of = route
    return _exact_fibre(f, t, w, *fibre_of(f, d, t, w, tol_sep))


def _exact_target(f: Nonlinearity, w, p: int):
    """The target w, checked, as its kind's fibre function takes it: a
    float for a piecewise-scalar map with p = 1, else a vector."""
    if f.kind == "piecewise_scalar" and p == 1:
        return _scalar_target(w)
    return _target(w, p)


def _exact_fibre(f: Nonlinearity, t: float, w, points: list,
                 segments: list) -> FibreSet:
    """The exact ``FibreSet`` of the target w from the raw elements of its
    kind's fibre function: floats for the scalar kinds, vectors for a
    conformal map."""
    if f.kind == "conformal":
        return FibreSet(points=points, segments=(), exact=True, t=t, w=w.copy())
    return FibreSet.of_floats(points, segments, exact=True, t=t,
                              w=w if f.kind == "piecewise_scalar" else w.copy())


def _scalar_fibre(f: Nonlinearity, d: float, t: float, w,
                  tol_sep: float) -> tuple[list[float], list[tuple[float, float]]]:
    """The points and intervals x with x - d g(t, x) = w, g the map's pieces;
    for a radial map (g its odd extension) the coordinates along w / |w| at
    the level |w|."""
    level = vec_norm(w) if f.kind == "radial" else w
    pieces = f.resolved_structure(t)
    candidates = pieces
    if f._static_resolved is not None:      # skip pieces whose image excludes w
        kept = f._images                    # (d.hex(), (piece, lo, hi) triples)
        if kept is None or kept[0] != d.hex():
            kept = (d.hex(), [(pc, *_piece_image(pc, d)) for pc in pieces])
            object.__setattr__(f, "_images", kept)
        candidates = [pc for pc, lo, hi in kept[1] if lo <= level <= hi]
    pts_raw: list[float] = []
    segs_raw: list[tuple[float, float]] = []
    for pc in candidates:
        pts, segs = _piece_roots_for_target(pc, d, level)
        pts_raw.extend(pts)
        segs_raw.extend(segs)

    def resid_of(x: float) -> float:
        return x - d * _eval_resolved(pieces, x) - level

    pts, segs = _assemble_scalar_fibre(pts_raw, segs_raw, resid_of, tol_sep)
    if f.kind == "radial" and level == 0.0:     # s = 0, and spheres |y| = |s|
        if any(abs(x) > tol_sep for x in pts) or segs:
            raise ConfigurationError("fibre of the origin is a sphere; not representable")
        pts = [0.0] if pts else []
    return pts, segs


def _conformal_fibre(f: Nonlinearity, d: float, t: float, w: np.ndarray,
                     tol_sep: float) -> tuple[list[np.ndarray], list]:
    """The fibre of F_t(y) = (1 - d alpha(t, |y|)) y over w.

    Its radii, the roots r >= 0 of r |1 - d alpha(t, r)| = |w|, come from
    the nonnegative roots of the modulus polynomial; companion eigenvalues
    are polished by Newton steps in r.  A radius gives the one point
    y = w / (1 - d alpha), kept when its residual is within EXACT_TOL of
    the size of y and w.
    """
    cf, rho, factor = f.conformal, vec_norm(w), f.conformal.at_time(t)
    c, gain, u = cf.c, cf.gain, (complex(factor[0, 0], factor[1, 0])
                                 if cf.rotating else 1.0)

    def beta(r: float):
        """1 - d alpha(t, r)."""
        return 1.0 - d * (c + gain(factor, r) * u)

    def phi(r: float):
        """(r |beta| - rho, its derivative in r)."""
        b = beta(r)
        size = abs(b)
        dsize = -d * (b.conjugate() * cf.slope(factor, r) * u).real / (size or 1.0)
        return r * size - rho, size + r * dsize

    def solves(r: float, residual: float) -> bool:
        return residual <= EXACT_TOL * max(1.0, rho, r)

    def polish(r: float) -> float:
        value, slope = phi(r)
        for _ in range(4):              # Newton steps, kept while they lower |phi|
            r_new = max(r - value / slope, 0.0) if slope else r
            if abs(r_new - r) <= 2.0 * _EPS * r:
                break
            value_new, slope_new = phi(r_new)
            if not abs(value_new) < abs(value):
                break
            r, value, slope = r_new, value_new, slope_new
        return r

    roots, converged = _nonnegative_roots(list(cf.modulus(factor, d, rho)))
    # an eigenvalue's error is eps times the largest root, not eps times its own
    radii = [cf.radius(z) if converged else polish(cf.radius(z)) for z in roots]
    radii, _ = _assemble_scalar_fibre(radii, [], lambda r: phi(r)[0], tol_sep)
    if rho == 0.0:          # the origin, and spheres where 1 - d alpha(t, r) = 0
        if any(r > tol_sep and solves(r, abs(phi(r)[0])) for r in radii):
            raise ConfigurationError("fibre of the origin is a sphere; not representable")
        return [np.zeros(f.p)], []
    norm = abs if cf.rotating else vec_norm
    target = complex(w[0], w[1]) if cf.rotating else w
    points = []
    for r in radii:
        b = beta(r)
        if not b:
            continue
        # w / beta as r w / rho turned by beta's phase: its length stays r
        # where beta is near 0 and w / beta would carry beta's relative error
        y = target * (r / rho) * (b.conjugate() / abs(b))
        if solves(r, norm(beta(norm(y)) * y - target)):
            points.append(np.array([y.real, y.imag]) if cf.rotating else y)
    return points, []


_EXACT_FIBRES = {"piecewise_scalar": _scalar_fibre, "radial": _scalar_fibre,
                 "conformal": _conformal_fibre}


def _nonnegative_roots(coeffs: list) -> tuple[list[float], bool]:
    """The real roots z >= 0 of a polynomial, coefficients highest first,
    and whether Newton's method has refined them.

    With P(0) < 0 and one sign change in the coefficients there is exactly
    one (Descartes' rule of signs): Newton's method finds it to 2 eps from
    half of Fujiwara's root bound, or nearer 0 from one Newton step from 0
    if P rises there, kept inside [0, bound] by bisection.  Otherwise the
    roots are the real eigenvalues of the companion matrix, up to an
    imaginary part of 1e-6 of their size (a double root can split so).
    Leading coefficients below eps^2 of the largest are removed from
    ``coeffs`` in place.
    """
    big = max(map(abs, coeffs))
    while len(coeffs) > 1 and abs(coeffs[0]) <= _EPS * _EPS * big:
        del coeffs[0]                   # a root beyond 1 / eps^2 of the others
    if len(coeffs) < 2:
        return [], True
    signs = [c > 0.0 for c in coeffs if c]
    if coeffs[-1] < 0.0 and sum(a != b for a, b in zip(signs, signs[1:])) == 1:
        z = max(abs(c / coeffs[0]) ** (1.0 / k) for k, c in enumerate(coeffs[1:], 1))
        lo, hi = 0.0, 2.0 * z
        if coeffs[-2] > 0.0:            # or from one Newton step from 0
            z = min(z, -coeffs[-1] / coeffs[-2])
        for _ in range(100):
            value = slope = 0.0
            for c in coeffs:
                value, slope = value * z + c, slope * z + value
            step = value / slope if slope else math.inf
            if abs(step) <= 2.0 * _EPS * z:
                break
            lo, hi = (z, hi) if value < 0.0 else (lo, z)
            z = z - step if lo < z - step < hi else 0.5 * (lo + hi)
        return [z], True
    companion = np.eye(len(coeffs) - 1, k=-1)
    companion[0] = [c / -coeffs[0] for c in coeffs[1:]]
    return [max(z.real, 0.0) for z in np.linalg.eigvals(companion).tolist()
            if abs(z.imag) <= 1e-6 * max(1.0, abs(z)) and z.real >= -1e-9], False


# ---------------------------------------------------------------------------
# Numeric stand-ins
# ---------------------------------------------------------------------------

def enumerate_fibre_multistart(f: Nonlinearity, D, t: float, w,
                               opts: SolveOptions | None = None,
                               center=None) -> FibreSet:
    """Multistart Newton approximation of the fibre (exact=False).

    Converged solutions are clustered with the separation tolerance; in
    the scalar case, chains of solutions whose midpoints also solve the
    equation are merged into segments.  The starts lie around ``center``,
    by default w.
    """
    opts = _checked(opts)
    D = _as_feedthrough(D)
    w = _target(w, D.shape[0])
    center = w.copy() if center is None else np.asarray(center, dtype=float).reshape(-1)
    return _multistart(f, D, t, w, center, opts)[0]


def _multistart(f: Nonlinearity, D: np.ndarray, t: float, w: np.ndarray,
                center: np.ndarray, opts: SolveOptions):
    """The multistart fibre around center: (FibreSet, least residual,
    iterations, whether a start was cut off by max_iter)."""
    p = w.size
    starts = _halton_starts(center, opts.search_radius, opts.n_starts, opts.seed)
    ys, rs, its, oks, cuts = _newton_stack(f, D, t, w, starts, opts)
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
    fib = FibreSet(points=tuple(reps), segments=tuple(segments),
                   exact=False, t=t, w=w.copy())
    return fib, min(rs.tolist(), default=math.inf), int(its.sum()), bool(cuts.any())


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
        # runs of flat cells: a single cell is a point, a longer run a segment
        edges = np.diff(np.concatenate(([0], flat.view(np.int8), [0])))
        points: list[float] = []
        segments: list[tuple[float, float]] = []
        for i, j in zip(np.flatnonzero(edges == 1).tolist(),
                        (np.flatnonzero(edges == -1) - 1).tolist()):
            if j > i:
                segments.append((float(xs[i]), float(xs[j])))
            else:
                points.append(float(xs[i]))
        crossings = (~flat[:-1] & ~flat[1:]) & (resid[:-1] * resid[1:] < 0.0)
        for i in np.flatnonzero(crossings).tolist():
            points.append(_brentq(resid_scalar, xs[i], xs[i + 1], xtol=1e-13))
        pts, segs = _assemble_scalar_fibre(points, segments, resid_scalar,
                                           tol_sep=h_scan * 0.5)
        return FibreSet.of_floats(pts, segs, exact=False, t=t, w=target)

    if p == 2:
        n = int(round(2.0 * R / h_scan)) + 1
        axis = np.linspace(-R, R, n)
        opts = SolveOptions(tol_resid=1e-10)
        hits: list[np.ndarray] = []
        tol_cell = max(1e-6, h_scan)
        # rows (x1, x2) with x2 running fastest, evaluated a block of x1
        # values at a time so the stack stays small on fine grids
        block = max(1, _SCAN_ROWS // n)
        for k in range(0, n, block):
            cells = np.stack(np.meshgrid(axis[k:k + block], axis,
                                         indexing="ij"), axis=-1).reshape(-1, 2)
            near = row_norms(apply_F(D, f, t, cells) - w) < tol_cell
            for y in cells[near]:
                ys, _, _, ok, _, _ = _newton(f, D, t, w, y, opts)
                if ok:
                    hits.append(ys)
        reps = _cluster_vectors(hits, 2.0 * h_scan)
        return FibreSet(points=tuple(reps), segments=(), exact=False,
                        t=t, w=w.copy())

    raise ConfigurationError("oracle supports p = 1 or p = 2 only")
