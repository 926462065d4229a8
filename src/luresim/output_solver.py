"""Solving the implicit output equation F_t(y) = w, with w = C x + D_e v.

Three routes:

* ``solve_output``: the exact fibre's element nearest the warm start,
  else damped Newton from the warm start, falling back to the multistart
  fibre's nearest element.  A run's stage holds its route and calls the
  exact fibre function, or this function on the Newton route.
* ``enumerate_fibre_exact``: closed-form enumeration of the whole fibre
  F_t^{-1}(w) for piecewise-scalar, radial and conformal nonlinearities
  (points and flat segments, residual at roundoff level), from the fibre
  value of one fibre function per kind, which ``solve_output`` shares.
  A radial map is the piecewise-scalar map s -> s - d g(t, s) along the
  ray of w, so both kinds share one scalar enumeration.
* ``brute_force_fibre_oracle``: a dense-scan oracle that cross-checks the
  exact enumeration by its own scan; a scalar fibre of either is assembled
  by the same ``_assemble_scalar_fibre``.

Every route gives one fibre value (``_order``): its frame, its elements
in one order and whether it is exact.  ``_nearest`` and ``_choose`` work
over it, and ``FibreSet`` is its public view.  ``select_from_fibre``,
``solve_output`` and every stage of a run choose through ``_choose``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .derivatives import finite_diff_jacobian, finite_diff_jacobians
from .errors import ConfigurationError, EmptyFibreError, EvaluationError
from .nonlinearity import (Nonlinearity, _eval_resolved, all_finite, row_norms,
                           vec_norm)
from .system import apply_F, scalar_feedthrough

EXACT_TOL = 1e-12       # residual bound for exact fibre entries
FLAT_TOL = 1e-10        # oracle flat-segment detection threshold
_SCAN_ROWS = 1 << 16    # grid cells per evaluation of the planar oracle
_SCAN_CELLS = 1 << 22   # grid cells an oracle scan may take
_BRACKET_POINTS = 129   # scalar sign-change grid across the search diameter
_RESID_FLOOR = 1e-6     # a fruitless search this close reads not_converged
_FLOAT = np.dtype(float)
_EPS = float(np.finfo(float).eps)
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
    ray, each read in ascending order of entries.  A segment may have an
    infinite endpoint when a flat piece is unbounded.

    A view of one fibre value (``_order``).  On the line (the exact fibre of
    a piecewise-scalar map, the oracle's for p = 1) ``elements``, ``nearest``
    and the policies give floats; on a ray (a radial map's, along w / |w|,
    or one given as vectors of length one, along e1) and in space, vectors.
    """

    __slots__ = ("_value", "exact", "t", "w")

    def __init__(self, points, segments, exact: bool, t: float = 0.0,
                 w: np.ndarray | None = None):
        points, segments = list(points), [tuple(seg) for seg in segments]
        if all(e.size == 1 for e in points + [e for seg in segments for e in seg]):
            frame = _identity(1)[0]             # floats along e1
            points = [float(pt[0]) for pt in points]
            segments = [(float(a[0]), float(b[0])) for a, b in segments]
        else:
            frame = (points or segments[0])[0].size
        self._value = (frame, _order(points, segments), exact)
        self.exact, self.t, self.w = exact, t, w

    @classmethod
    def _view(cls, value: tuple, t: float, w: np.ndarray) -> "FibreSet":
        fib = cls.__new__(cls)
        fib._value, fib.exact, fib.t, fib.w = value, value[2], t, w
        return fib

    def _sorted(self, segments: bool) -> list:
        """The points or the segments in ascending order of entries."""
        frame, elements = self._value[0], self._value[1]
        return sorted((e for e in elements if (type(e) is tuple) == segments),
                      key=(lambda e: np.ravel(e).tolist()) if type(frame) is int else None)

    def _vector(self, x) -> np.ndarray:
        v = _element(self._value[0], x)
        return np.array([v]) if type(v) is float else v

    @property
    def points(self) -> tuple[np.ndarray, ...]:
        return tuple(map(self._vector, self._sorted(False)))

    @property
    def segments(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple((self._vector(a), self._vector(b)) for a, b in self._sorted(True))

    @property
    def empty(self) -> bool:
        return not self._value[1]

    @property
    def n_elements(self) -> int:
        return len(self._value[1])

    def is_set_valued(self) -> bool:
        return _set_valued(self._value[1])

    def elements(self) -> list[tuple[str, object]]:
        """Deterministic ordering: sort by (norm of representative, entries)."""
        frame = self._value[0]
        return [("segment", (_element(frame, e[0]), _element(frame, e[1])))
                if type(e) is tuple else ("point", _element(frame, e))
                for e in self._value[1]]

    def nearest(self, target) -> tuple:
        """Closest fibre element to target: (value, distance, element index),
        the first in order on a tie (``_nearest``)."""
        return _nearest(self._value, target)

    def to_dict(self) -> dict:
        return {
            "points": [list(map(float, pt)) for pt in self.points],
            "segments": [[list(map(float, a)), list(map(float, b))]
                         for a, b in self.segments],
            "exact": self.exact,
            "t": float(self.t),
            "w": None if self.w is None else list(map(float, self.w)),
        }


# A fibre value is (frame, elements, exact).  The frame places an element:
# on the line (None) it is a float point or a (lo, hi) interval of floats;
# on a ray, the unit vector u, the same floats are the coordinates s of the
# elements s u; in space, the int p, a point is a vector of length p (and,
# given to ``FibreSet``, a segment a pair of them).


def _order(points: list, segments: list) -> list:
    """The elements in the (norm, entries) order of a point or a segment's
    midpoint (lo if hi is infinite), points first on a tie."""
    return sorted(points + segments, key=_key) if segments or len(points) > 1 else points


def _key(e) -> tuple:
    x = e if type(e) is not tuple else e[0] if not all_finite(e[1]) else 0.5 * (e[0] + e[1])
    if type(x) is float:
        return math.sqrt(x * x), x
    return vec_norm(x), tuple(x.tolist())


def _element(frame, x):
    """The element at x: x itself on the line and in space, x u on a ray u
    (at an infinite x, 0 where u is 0, not NaN)."""
    if type(frame) is not np.ndarray:
        return x
    if math.isfinite(x):
        return x * frame
    return np.multiply(x, frame, where=frame != 0.0, out=np.zeros_like(frame))


def _set_valued(elements: list) -> bool:
    """More than one element, or a segment whose ends are not allclose."""
    if len(elements) != 1:
        return len(elements) > 1
    return type(elements[0]) is tuple and not np.allclose(*elements[0])


def _nearest(value: tuple, target) -> tuple:
    """(element, distance, index) of the element of a fibre value nearest
    target, the first in order on a tie.  On the line target is a float (or
    a vector of length one) and so is the element; on a ray the element is
    the s u whose s is nearest target's coordinate along u, clamped into
    each segment; in space, a point or a segment's point nearest target."""
    frame, elements = value[0], value[1]
    if not elements:
        raise ConfigurationError("nearest() called on an empty fibre")
    if frame is None:
        x = _as_float(target, "target")
    elif type(frame) is int:
        x = target = _target(target, frame, "target")
    else:
        target = _target(target, frame.size, "target")
        x = float(np.sum(target * frame))
    best = None
    for idx, el in enumerate(elements):
        cand = (el if type(el) is not tuple else _on_segment(x, *el)
                if type(frame) is int else min(max(x, el[0]), el[1]))
        dist = vec_norm(cand - x)
        if best is None or dist < best[1]:
            best = (cand, dist, idx)
    if frame is None:
        return best
    if type(frame) is int:
        return np.array(best[0], dtype=float), best[1], best[2]
    y = best[0] * frame
    return y, vec_norm(y - target), best[2]


def _on_segment(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The point of the segment from a to b, vectors, nearest x.  An infinite
    end stands for the half-line from the other end (from 0, both ways, when
    both are infinite) along the signs of its infinite entries."""
    fa, fb = all_finite(a), all_finite(b)
    o, far = (a, b) if fa else (b, a) if fb else (np.zeros_like(a), b)
    d = b - a if fa and fb else np.where(np.isinf(far), np.sign(far), 0.0)
    dd = float(np.dot(d, d))
    tau = float(np.dot(x - o, d)) / dd if dd else 0.0
    lo, hi = (0.0 if fa or fb else -math.inf), (1.0 if fa and fb else math.inf)
    return o + min(max(tau, lo), hi) * d


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str               # nearest_previous | min_norm | max_norm | fixed_branch | segment_parameter
    index: int = 0
    s: float = 0.0

    def __post_init__(self):
        valid = ("nearest_previous", "min_norm", "max_norm", "fixed_branch",
                 "segment_parameter")
        if self.kind not in valid:
            raise ConfigurationError(f"unknown selection policy {self.kind!r}")
        if self.kind == "segment_parameter" and not 0.0 <= self.s <= 1.0:
            raise ConfigurationError("segment parameter must lie in [0, 1]")
        if self.kind == "fixed_branch" and self.index < 0:
            raise ConfigurationError(f"fixed_branch index must be >= 0, got {self.index}")

    @classmethod
    def nearest_previous(cls):
        return cls(kind="nearest_previous")

    @classmethod
    def min_norm(cls):
        return cls(kind="min_norm")

    @classmethod
    def max_norm(cls):
        return cls(kind="max_norm")

    @classmethod
    def fixed_branch(cls, index: int):
        return cls(kind="fixed_branch", index=int(index))

    @classmethod
    def segment_parameter(cls, s: float):
        return cls(kind="segment_parameter", s=float(s))

    @classmethod
    def parse(cls, text: str) -> "SelectionPolicy":
        """``name[:argument]``; raises ConfigurationError naming the text."""
        name, colon, arg = text.partition(":")
        try:
            if name == "fixed_branch":
                return cls.fixed_branch(int(arg or 0))
            if name == "segment_parameter":
                return cls.segment_parameter(float(arg or 0.5))
            if colon:
                raise ValueError(f"{name} takes no argument")
            return cls(kind=name)
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"bad selection policy {text!r}: {exc}") from None


# the choice of ``solve_output`` and of a run's stages without a policy
_NEAREST = SelectionPolicy.nearest_previous()


def _choose(value: tuple, policy, prev_y) -> tuple:
    """(element, index) that a ``SelectionPolicy`` picks from a fibre value,
    the first in order on a tie: a float on the line, else a fresh vector.
    A lone point is every policy's choice but ``segment_parameter``'s and a
    later ``fixed_branch``'s, taken without reading prev_y.  An empty fibre
    raises EmptyFibreError."""
    frame, elements, _ = value
    if not elements:
        raise EmptyFibreError("fibre is empty")
    kind = policy.kind
    if kind == "nearest_previous" and prev_y is None:
        raise ConfigurationError("nearest_previous requires a previous output")
    if (len(elements) == 1 and type(elements[0]) is not tuple
            and kind != "segment_parameter" and policy.index == 0):
        if frame is None:
            return elements[0], 0
        y = _element(frame, elements[0])
        return (np.array(y, dtype=float) if type(frame) is int else y), 0
    if kind == "nearest_previous" or kind == "min_norm":
        target = prev_y if kind == "nearest_previous" else 0.0 if frame is None \
            else np.zeros(frame if type(frame) is int else frame.size)
        y, _, idx = _nearest(value, target)
        return y, idx

    if kind == "fixed_branch":
        idx = policy.index
        if not 0 <= idx < len(elements):
            raise ConfigurationError(
                f"fixed_branch index {idx} out of range "
                f"(fibre has {len(elements)} elements)"
            )
        y = _representative(frame, elements[idx], kind)

    elif kind == "segment_parameter":
        idx = next((i for i, e in enumerate(elements) if type(e) is tuple), None)
        if idx is None:
            raise ConfigurationError("segment_parameter policy needs a segment fibre")
        a, b = (_element(frame, end) for end in elements[idx])
        if not (all_finite(a) and all_finite(b)):
            raise ConfigurationError("segment_parameter undefined on unbounded segment")
        y = (1.0 - policy.s) * a + policy.s * b

    else:                                    # max_norm, the first on a tie
        values = [_representative(frame, e, kind) for e in elements]
        idx = max(range(len(values)), key=lambda i: vec_norm(values[i]))
        y = values[idx]
    return (y if type(y) is float else np.array(y, dtype=float)), idx


def _representative(frame, e, kind: str):
    """A point, or a segment's end of largest norm (``max_norm``) or its
    midpoint (the finite end of an unbounded one), as an element."""
    if type(e) is not tuple:
        return _element(frame, e)
    a, b = _element(frame, e[0]), _element(frame, e[1])
    if kind == "max_norm":
        finite = [end for end in (a, b) if all_finite(end)]
        if not finite:
            raise ConfigurationError("max_norm undefined on unbounded segment")
        return max(finite, key=vec_norm)
    if all_finite(b) and all_finite(a):
        return 0.5 * (a + b)
    return a if all_finite(a) else b


def select_from_fibre(fib: FibreSet, policy, prev_y=None) -> tuple:
    """Deterministically pick one output from a fibre by a ``SelectionPolicy``.

    Returns (value, branch index into the sorted element list); the value
    is a float for a fibre on the line, else a fresh array.  Raises
    EmptyFibreError on an empty fibre; a run's stage reports an empty fibre
    as its own stage failure before choosing.
    """
    return _choose(fib._value, policy, prev_y)


def _as_float(value, name: str = "w") -> float:
    """The finite float ``name``, given as a float or a vector of length one:
    the target reader of the line."""
    if type(value) is float:
        x = value
    elif type(value) is np.ndarray and value.shape == (1,) and value.dtype is _FLOAT:
        x = value.item()            # a p = 1 stage's target or output
    else:
        arr = np.asarray(value, dtype=float).reshape(-1)
        x = float(arr[0]) if arr.size == 1 else math.nan
    if not math.isfinite(x):
        raise ConfigurationError(f"{name} must be a finite vector of length 1")
    return x


def _target(value, p: int, name: str = "w") -> np.ndarray:
    """The finite vector ``name`` of length p, flat: the target reader of a
    ray and of space."""
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size != p or not all_finite(arr):
        raise ConfigurationError(f"{name} must be a finite vector of length {p}")
    return arr


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

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

    Both routes choose through ``_choose``, the policies' one routine, as
    ``nearest_previous`` from y_guess.  A run's stage
    (``integrator._SolvingStage``) resolves the route once and calls this
    function only on the Newton route.

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
        w, y_guess = _as_float(w), _as_float(y_guess, "y_guess")
    else:
        w, y_guess = _target(w, p), _target(y_guess, p, "y_guess")

    route = _exact_route(f, D, opts)
    if route is not None:
        d, fibre_of = route
        fib = fibre_of(f, d, t, w, opts.tol_sep)
        if not fib[1]:
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
        if not fib[1]:
            least = min(rnorm, least)
            unresolved = cut or cut_more or least <= _RESID_FLOOR
            return OutputSolution(
                status="not_converged" if unresolved else "no_solution",
                y=None, residual=least, iterations=iters,
                certificate={"kind": "exhaustion", "n_starts": opts.n_starts + 1,
                             "min_residual": least},
            )
    y = _choose(fib, _NEAREST, y_guess)[0]
    if scalar:
        y = _as_float(y)
    elements = fib[1]
    status = "multiple" if _set_valued(elements) else "unique_point"
    u = _evaluate(f, t, y)           # floats with a 1 x 1 feedthrough
    resid = abs(y - float(D[0, 0]) * u - w) if scalar else vec_norm(y - D @ u - w)
    if scalar and not floats:
        y, u = np.array([y]), np.array([u])
    return OutputSolution(status=status, y=y, residual=resid, iterations=iters,
                          n_found=len(elements), u=u)


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
    A piecewise-scalar fibre lies on the line, a radial one on the ray of
    w and a conformal one in the plane.
    """
    D = _as_feedthrough(D)
    w = _target(w, D.shape[0]).copy()
    route = _exact_enumerator(f, D)
    if route is None:
        raise ConfigurationError(f"exact fibre enumeration is not available for "
                                 f"kind {f.kind!r} under D = {D.tolist()}")
    d, fibre_of = route
    return FibreSet._view(fibre_of(f, d, t, w, tol_sep), t, w)


def _scalar_fibre(f: Nonlinearity, d: float, t: float, w, tol_sep: float) -> tuple:
    """The fibre value of the points and intervals x with x - d g(t, x) = w,
    g the map's pieces, on the line; for a radial map (g its odd extension)
    of their coordinates at the level |w| along the ray u = w / |w| (e1 for
    w = 0)."""
    if f.kind == "radial":
        w = _target(w, f.p)
        level = vec_norm(w)
        frame = w / level if level else _identity(f.p)[0]
    else:
        level, frame = _as_float(w), None
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
    return frame, _order(pts, segs), True


def _conformal_fibre(f: Nonlinearity, d: float, t: float, w, tol_sep: float) -> tuple:
    """The fibre value of F_t(y) = (1 - d alpha(t, |y|)) y over w, in the plane.

    Its radii, the roots r >= 0 of r |1 - d alpha(t, r)| = |w|, come from
    the nonnegative roots of the modulus polynomial; companion eigenvalues
    are polished by Newton steps in r.  A radius gives the one point
    y = w / (1 - d alpha), kept when its residual is within EXACT_TOL of
    the size of y and w.
    """
    w = _target(w, f.p)
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
        return f.p, [np.zeros(f.p)], True
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
    return f.p, _order(points, []), True


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
    center = w if center is None else np.asarray(center, dtype=float).reshape(-1)
    return FibreSet._view(_multistart(f, D, t, w, center, opts)[0], t, w.copy())


def _multistart(f: Nonlinearity, D: np.ndarray, t: float, w: np.ndarray,
                center: np.ndarray, opts: SolveOptions):
    """The multistart fibre around center: (fibre value, least residual,
    iterations, whether a start was cut off by max_iter).  A p = 1 fibre
    lies on the ray of e1, its solutions floats."""
    p = w.size
    starts = _halton_starts(center, opts.search_radius, opts.n_starts, opts.seed)
    ys, rs, its, oks, cuts = _newton_stack(f, D, t, w, starts, opts)
    found: list[np.ndarray] = list(ys[oks])
    if p == 1:
        for root in _scalar_bracket_roots(f, D, t, w, center, opts):
            found.append(np.array([root]))
    reps = _cluster_vectors(found, 2.0 * opts.tol_sep)
    if p == 1:      # chains whose midpoints also solve merge into segments
        groups: list[list[float]] = []
        for x in sorted(float(r[0]) for r in reps):
            if groups and residual_norm(f, D, t, np.array([0.5 * (groups[-1][-1] + x)]),
                                        w) <= opts.tol_resid:
                groups[-1].append(x)
            else:
                groups.append([x])
        value = (_identity(1)[0], _order([g[0] for g in groups if len(g) == 1],
                             [(g[0], g[-1]) for g in groups if len(g) > 1]), False)
    else:
        value = (p, _order(reps, []), False)
    return value, min(rs.tolist(), default=math.inf), int(its.sum()), bool(cuts.any())


def brute_force_fibre_oracle(f: Nonlinearity, D, t: float, w, R: float,
                             h_scan: float) -> FibreSet:
    """Dense-scan oracle for F_t^{-1}(w) on [-R, R]^p (p = 1 or 2).

    Scalar case: residual scan with sign-change bracketing refined by
    bisection, plus flat-segment detection where |residual| < 1e-10 over
    consecutive grid cells.  Planar case: cells below tolerance refined
    by local Newton.  Only solutions inside the scan window are visible.
    R and h_scan must be finite and positive, and the grid at most
    ``_SCAN_CELLS`` cells: others are rejected before anything is allocated.
    """
    for name, value in (("radius R", R), ("step h_scan", h_scan)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"scan {name} must be finite and positive, "
                                     f"got {value!r}")
    D = _as_feedthrough(D)
    p = D.shape[0]
    if p not in (1, 2):
        raise ConfigurationError("oracle supports p = 1 or p = 2 only")
    w = _target(w, p)
    per_axis = 2.0 * R / h_scan + 1.0   # grid points, before rounding
    if (per_axis if p == 1 else per_axis * per_axis) > _SCAN_CELLS:
        raise ConfigurationError(f"scan R={R!r} at h_scan={h_scan!r} spans more "
                                 f"than {_SCAN_CELLS} grid cells")
    n = int(round(2.0 * R / h_scan)) + 1

    if p == 1:
        d = float(D[0, 0])
        target = float(w[0])
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
        return FibreSet._view((None, _order(pts, segs), False), t, w.copy())

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
    return FibreSet._view((p, _order(reps, []), False), t, w.copy())
