"""Static output nonlinearities u = f(t, y).

Three structured kinds get exact treatment downstream:

* ``piecewise_scalar`` (m = p = 1): an ordered list of pieces tiling the
  real line.  Each piece is a polynomial of degree <= 2 plus an optional
  arctan term, with possibly time-dependent coefficients and breakpoints.
  This is what makes output fibres exactly enumerable.
* ``radial`` (m = p): f(t, xi) = a(t, ||xi||) xi / ||xi|| with a scalar
  piecewise amplitude profile on [0, inf).  Its pieces are the profile's
  odd extension g(t, s) = sign(s) a(t, |s|) over the real line: f maps
  s u to g(t, s) u for every unit u, so along the ray of a target it is
  a piecewise-scalar map, and every exact consumer reads it as one.
* ``conformal`` (m = p): f(t, xi) = alpha(t, ||xi||) xi, alpha real or,
  with xi read as a complex number (p = 2), complex; with D = d I a fibre
  comes from the roots of one polynomial in the radius.
* ``smooth`` / ``expression``: opaque evaluators, numeric treatment only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, EvaluationError

_INF = math.inf


class _PerTime:
    """fn(t) with a one-entry memo: the last value is reused while t keeps
    the same bits (``==`` alone would let 0.0 stand for -0.0; NaN never
    matches).  fn must be a pure function of t, and callers must not
    mutate the value it returns."""

    __slots__ = ("fn", "entry")

    def __init__(self, fn):
        self.fn, self.entry = fn, (math.nan, None)

    def __call__(self, t):
        last, value = self.entry
        if t == last and math.copysign(1.0, t) == math.copysign(1.0, last):
            return value
        value = self.fn(t)
        self.entry = (float(t), value)      # one store: time and value agree
        return value


@dataclass(frozen=True)
class ScalarPiece:
    """One piece of a scalar map: c0 + c1*x + c2*x^2 + atan_coeff*atan(x) on [lo, hi].

    Breakpoints and polynomial coefficients may be callables of t.
    """

    lo: float | Callable[[float], float]
    hi: float | Callable[[float], float]
    c0: float | Callable[[float], float] = 0.0
    c1: float | Callable[[float], float] = 0.0
    c2: float | Callable[[float], float] = 0.0
    atan_coeff: float = 0.0

    def at(self, t: float) -> "ResolvedPiece":
        return ResolvedPiece(*(float(v(t)) if callable(v) else float(v) for v in (
            self.lo, self.hi, self.c0, self.c1, self.c2)), self.atan_coeff)

    @property
    def static(self) -> bool:
        return not any(callable(v) for v in (self.lo, self.hi, self.c0, self.c1, self.c2))


class ResolvedPiece(NamedTuple):
    """A piece at one time (or, field by field, at one time per row)."""

    lo: float
    hi: float
    c0: float
    c1: float
    c2: float
    atan_coeff: float

    def value(self, x):     # x a float, or a row array on per-row fields
        out = self.c0 + x * (self.c1 + x * self.c2)
        if self.atan_coeff:
            out = out + self.atan_coeff * _atan(x)
        return out

    def size(self, x):
        """The sum of the sizes of the terms that make ``value(x)``."""
        out = abs(self.c0) + abs(self.c1 * x) + abs(self.c2 * x * x)
        return out + abs(self.atan_coeff * _atan(x)) if self.atan_coeff else out


def _atan(x):
    """``math.atan`` of a float, or of each entry of an array."""
    return (np.array(list(map(math.atan, x.tolist()))) if isinstance(x, np.ndarray)
            else math.atan(x))


def _eval_resolved(resolved, x: float) -> float:
    for pc in resolved:
        if pc.lo <= x <= pc.hi:
            return pc.value(x)
    return resolved[-1].value(x)        # x is NaN or in a gap of at most 1e-12


def vec_norm(v) -> float:
    """Euclidean norm of a 1-d float vector, bit-for-bit ``np.linalg.norm``.

    A float stands for a vector of length one.
    """
    if type(v) is float:
        return math.sqrt(v * v)
    return math.sqrt(v.dot(v))


def all_finite(v) -> bool:
    """Whether every entry of a 1-d float vector (or a float) is finite."""
    if type(v) is float:
        return math.isfinite(v)
    return all(map(math.isfinite, v.tolist()))


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-for-bit ``np.linalg.norm`` of the row."""
    return np.sqrt(np.vecdot(X, X))


def _at_times(fn, T: np.ndarray):
    """fn(t) for each row time, one call per distinct time; 0-d T gives one value.

    Times are told apart by their bits, as the one-point path sees them:
    -0.0 is not 0.0.
    """
    if T.ndim == 0:
        return fn(float(T))
    if isinstance(fn, _PerTime):
        fn = fn.fn                  # each time is new here: the memo only misses
    bits, inverse = np.unique(np.ascontiguousarray(T, dtype=float).view(np.int64),
                              return_inverse=True)
    return np.asarray([fn(float(s)) for s in bits.view(float)])[inverse]


def _resolve_rows(pieces, T: np.ndarray, mirrored: int = 0) -> list[ResolvedPiece]:
    """The pieces at each row time: callable fields become per-row arrays.
    The tiling rule screens all rows at once; the first row time that
    breaks it raises as ``_check_tiling`` raises there."""
    resolved = [ResolvedPiece(*(_at_times(v, T).astype(float) if callable(v) else float(v)
                                for v in (pc.lo, pc.hi, pc.c0, pc.c1, pc.c2)),
                              pc.atan_coeff) for pc in pieces]
    with np.errstate(invalid="ignore", over="ignore"):     # at infinite edges
        flags = sum(_faults(resolved, mirrored), ())
    bad = np.logical_or.reduce(np.broadcast_arrays(T, *flags)[1:])
    if bad.any():
        t = float(T[np.argmax(bad)])
        _check_tiling([pc.at(t) for pc in pieces], t, mirrored)
    return resolved


def _resolver(pieces, mirrored: int = 0):
    """fn(t) -> [pc.at(t) for pc in pieces] bit for bit, calling only callables; checked."""
    rows = [[v if callable(v) else float(v) for v in (pc.lo, pc.hi, pc.c0, pc.c1, pc.c2)]
            + [pc.atan_coeff] for pc in pieces]
    varying = [(i, k, v) for i, row in enumerate(rows)
               for k, v in enumerate(row) if callable(v)]

    def resolve(t):
        resolved = [row.copy() for row in rows]
        for i, k, fn in varying:
            resolved[i][k] = float(fn(t))
        resolved = list(map(ResolvedPiece._make, resolved))
        _check_tiling(resolved, t, mirrored)
        return resolved
    return resolve


def _faults(resolved, mirrored: int = 0) -> list[tuple]:
    """The tiling rule at one time, for each piece from piece ``mirrored`` on
    (those before mirror the rest): (broken, gap, parted, misrun), bools or
    per-row masks.  Broken: a NaN edge or a non-finite coefficient.  Gap:
    the first begins away from -inf (a profile, from its mirror's end).
    Parted: at a finite breakpoint, it and the piece before differ beyond
    1e-9 of the sizes of their terms.  Misrun: it runs backwards, or ends
    away from where the next begins (the last, +inf).  Away: by > 1e-12."""
    prev = resolved[mirrored - 1] if mirrored else None
    start, faults = (prev.hi if mirrored else -_INF), []
    for i, pc in enumerate(resolved[mirrored:], mirrored + 1):
        lo, hi, c0, c1, c2, a = pc
        end = resolved[i].lo if i < len(resolved) else _INF
        parted = prev is not None and ((abs(lo) < _INF) & (
            abs(prev.value(lo) - pc.value(lo)) > 1e-9 * (prev.size(lo) + pc.size(lo))))
        # 0 * c is NaN where c is not finite; equal infinities meet (their difference is NaN)
        faults.append(((lo != lo) | (hi != hi) | (0.0 * c0 + 0.0 * c1 + 0.0 * c2 + 0.0 * a != 0.0),
                       abs(lo - start) > 1e-12, parted, (lo > hi) | (abs(hi - end) > 1e-12)))
        prev, start = pc, end
    return faults


def _check_tiling(resolved, t: float, mirrored: int = 0) -> None:
    """Raise ConfigurationError at the first piece resolved at t that breaks
    the rule of ``_faults``, counting from piece ``mirrored`` (a profile's)."""
    if not resolved:
        raise ConfigurationError("piecewise structure needs at least one piece")
    for i, (broken, gap, parted, misrun) in enumerate(_faults(resolved, mirrored), mirrored):
        pc, k = resolved[i], i - mirrored
        if broken:
            raise ConfigurationError(f"piece {k} has a NaN edge or a non-finite "
                                     f"coefficient at t={t}: {tuple(pc)}")
        if parted and not gap:
            raise ConfigurationError(f"pieces disagree at breakpoint {pc.lo} (t={t}): "
                                     f"{resolved[i - 1].value(pc.lo)} vs {pc.value(pc.lo)}")
        if gap or misrun:
            nxt = resolved[i + 1:i + 2]
            tail = (f"not from {0 if mirrored else -_INF}" if gap else
                    f"and piece {k + 1} begins at {nxt[0].lo}" if nxt else "not to inf")
            raise ConfigurationError(f"pieces do not tile at t={t}: piece {k} runs "
                                     f"from {pc.lo} to {pc.hi}, {tail}")


def _piece_values(pc: ResolvedPiece, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``pc.value`` at x[mask], element for element."""
    return ResolvedPiece._make(v[mask] if isinstance(v, np.ndarray) else v
                               for v in pc).value(x[mask])


def _first_match(resolved, x: np.ndarray) -> np.ndarray:
    """``_eval_resolved`` over an array: each x takes the first piece holding it.

    Piece fields are floats or per-row arrays of x's shape.
    """
    out = np.empty_like(x)
    todo = np.ones(x.shape, dtype=bool)
    for pc in resolved:
        mask = todo & (x >= pc.lo) & (x <= pc.hi)
        out[mask] = _piece_values(pc, x, mask)
        todo &= ~mask
    if todo.any():                      # NaN, or in a gap of at most 1e-12
        out[todo] = _piece_values(resolved[-1], x, todo)
    return out


def _sqrt(x):
    """``math.sqrt`` of a float, ``np.sqrt`` of a row array: the same bits."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


class Conformal(NamedTuple):
    """f(t, xi) = alpha(t, ||xi||) xi with alpha = c + g(t, r) u(t), c 0 or 1.

    ``at_time(t)``, memoised per time, is the rotation U(t) of the unit
    phase u(t) when ``rotating`` (p = 2), else a real factor of g (u = 1).
    ``gain`` and ``slope`` give g and dg/dr at (factor, r), r a float or a
    row array.  ``modulus(factor, d, rho)`` lists, highest first, the
    coefficients of r^2 |1 - d alpha|^2 - rho^2 times a positive factor, a
    polynomial in z >= 0 with r = radius(z) (by default z = r).
    """

    c: float
    at_time: Callable
    gain: Callable
    slope: Callable
    modulus: Callable
    rotating: bool = False
    radius: Callable = float


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluator for f(t, xi) in R^m, xi in R^p, plus optional structure.

    The piecewise kinds evaluate through their resolved pieces (a radial
    map's are set from its profile); ``fn`` is the evaluator of the others (a conformal map's four evaluators come
    from its ``Conformal`` structure).  ``fn_batch(T, X)``, when
    given, is the vectorised ``fn``: it maps an N x p stack to N x m rows
    equal to ``fn`` bit for bit, with T a 0-d time or one time per row.
    ``jac_batch(T, X)`` is the vectorised ``jac`` in the same way: N x m x p
    matrices, each equal to ``jac`` at its row bit for bit.
    """

    m: int
    p: int
    fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    kind: str = "smooth"     # smooth | piecewise_scalar | radial | conformal | expression
    pieces: tuple[ScalarPiece, ...] | None = None
    profile: tuple[ScalarPiece, ...] | None = None
    jac: Callable[[float, np.ndarray], np.ndarray] | None = None
    name: str = ""
    params: dict = field(default_factory=dict)
    fn_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    jac_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    conformal: Conformal | None = None
    _mirrored = 0       # how many pieces mirror the rest: a radial profile's

    def __post_init__(self):
        if self.kind == "piecewise_scalar":
            if self.m != 1 or self.p != 1:
                raise ConfigurationError("piecewise_scalar requires m = p = 1")
        elif self.kind == "radial":
            if self.m != self.p:
                raise ConfigurationError("radial nonlinearity requires m = p")
            object.__setattr__(self, "pieces", _odd_extension(self.profile or ()))
            object.__setattr__(self, "_mirrored", len(self.profile or ()))
        elif self.kind == "conformal" and self.conformal is None:
            raise ConfigurationError("conformal nonlinearity needs its structure")
        elif self.fn is None:
            raise ConfigurationError(
                f"nonlinearity of kind {self.kind!r} needs the evaluator fn"
            )
        # Pieces resolve and are checked per distinct t (a one-entry memo, as
        # stages share times), first at t = 0, which static pieces keep.
        static = memo = None
        if self.kind in ("piecewise_scalar", "radial"):
            memo = _PerTime(_resolver(self.pieces or (), self._mirrored))
            first = memo(0.0)
            static = first if all(pc.static for pc in self.pieces) else None
        object.__setattr__(self, "_static_resolved", static)
        object.__setattr__(self, "_memo", memo)
        # (d, (piece, image lo, hi) of x - d g(x)), set by output_solver
        object.__setattr__(self, "_images", None)

    def resolved_structure(self, t: float) -> list["ResolvedPiece"]:
        """The pieces over the real line at time t (a radial map's odd
        extension).  Piece callables must be pure functions of t: the last
        time's resolution is reused while t keeps the same bits."""
        if self._static_resolved is not None:
            return self._static_resolved
        return self._memo(t)

    def __call__(self, t: float, xi) -> np.ndarray:
        return self.eval(t, xi)

    def eval(self, t: float, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.shape[0] != self.p:
            raise ConfigurationError(
                f"xi has length {xi.shape[0]}, expected p={self.p}"
            )
        if self.kind == "piecewise_scalar":
            value = _eval_resolved(self.resolved_structure(t), float(xi[0]))
            if not math.isfinite(value):
                raise self._non_finite(t, xi)
            return np.array([value])
        if self.kind == "radial":
            r = vec_norm(xi)
            out = (np.zeros(self.p) if r == 0.0 else
                   (_eval_resolved(self.resolved_structure(t), r) / r) * xi)
        elif self.kind == "conformal":
            out = self.fn(t, xi)        # a flat float vector
        else:
            out = self._fn_row(t, xi)
        if out.shape[0] != self.m:
            raise self._bad_length(out.shape[0])
        if not all_finite(out):
            raise self._non_finite(t, xi)
        return out

    def eval_batch(self, t, Xi) -> np.ndarray:
        """f at every row of an N x p stack: N x m, each row bit-for-bit ``eval``.

        ``t`` is one time for all rows or one time per row.  The first row
        ``eval`` would reject raises the same error, with its t and point.
        """
        X = np.asarray(Xi, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ConfigurationError(
                f"Xi has shape {X.shape}, expected (N, p={self.p})"
            )
        out = self._stack_values(t, X, strict=True)
        if not np.isfinite(out).all():
            i = int(np.argmax(~np.isfinite(out).all(axis=1)))
            raise self._non_finite(row_time(t, i), X[i].copy())
        return out

    def eval_rows(self, t, X: np.ndarray, strict: bool = False):
        """(N x m values, bad-row mask) for an N x p stack; bad rows hold NaN.

        A row is bad when its value is not finite or, unless ``strict``,
        when ``fn`` raised EvaluationError on it.
        """
        out = self._stack_values(t, X, strict)
        return out, ~np.isfinite(out).all(axis=1)

    def _stack_values(self, t, X: np.ndarray, strict: bool) -> np.ndarray:
        """The N x m values of ``eval_rows``, bad rows unmarked."""
        T = np.asarray(t, dtype=float)
        if T.ndim and T.shape != (X.shape[0],):
            raise ConfigurationError(
                f"t has shape {T.shape}, expected one time or {X.shape[0]}"
            )
        if self.kind == "piecewise_scalar":
            out = _first_match(self._resolved_rows(t, T), X[:, 0])[:, None]
        elif self.kind == "radial":
            r = row_norms(X)
            amp = _first_match(self._resolved_rows(t, T), r)
            out = np.zeros_like(X)
            live = r != 0.0
            out[live] = (amp[live] / r[live])[:, None] * X[live]
        elif self.fn_batch is not None:
            out = np.asarray(self.fn_batch(T, X), dtype=float)
            if out.shape != (X.shape[0], self.m):
                raise self._bad_length(out.shape[-1])
        else:
            out = np.empty((X.shape[0], self.m))
            for i, xi in enumerate(X):
                try:
                    row = self._fn_row(row_time(t, i), xi.copy())
                except EvaluationError:
                    if strict:
                        raise
                    row = np.full(self.m, np.nan)
                if row.shape[0] != self.m:
                    raise self._bad_length(row.shape[0])
                out[i] = row
        return out

    def _fn_row(self, t, xi: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, xi), dtype=float).reshape(-1)

    def _resolved_rows(self, t, T: np.ndarray) -> list[ResolvedPiece]:
        if T.ndim == 0 or self._static_resolved is not None:
            return self.resolved_structure(t)
        return _resolve_rows(self.pieces, T, self._mirrored)

    def _bad_length(self, length: int) -> ConfigurationError:
        return ConfigurationError(
            f"nonlinearity returned length {length}, expected m={self.m}"
        )

    def _non_finite(self, t, xi: np.ndarray) -> EvaluationError:
        return EvaluationError(
            f"nonlinearity {self.name or '<anonymous>'} returned a non-finite "
            f"value at t={t}", t=t, point=xi.copy(),
        )

    def eval_scalar(self, t: float, x: float) -> float:
        """Fast scalar path for p = m = 1."""
        if self.kind == "piecewise_scalar":
            return _eval_resolved(self.resolved_structure(t), x)
        return float(self.eval(t, np.array([x]))[0])

    def eval_scalar_array(self, t: float, x: np.ndarray) -> np.ndarray:
        """Vectorised scalar evaluation (used by the scanning oracle)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "piecewise_scalar":
            return _first_match(self.resolved_structure(t), x)
        return self.eval_batch(t, x.reshape(-1, 1)).reshape(x.shape)


def row_time(t, i: int):
    """The time of row i: t itself when it is one time for all rows."""
    return t if np.ndim(t) == 0 else np.asarray(t, dtype=float)[i]


def _odd_extension(profile) -> tuple[ScalarPiece, ...]:
    """Pieces of g(t, s) = sign(s) a(t, |s|) over the real line, in order:
    each profile piece mirrored onto s <= 0 (-a(t, -s) negates c0 and c2),
    then the profile itself."""
    def neg(v):
        return _of_param(v, lambda x: -x)

    return tuple(ScalarPiece(lo=neg(pc.hi), hi=neg(pc.lo), c0=neg(pc.c0), c1=pc.c1,
                             c2=neg(pc.c2), atan_coeff=pc.atan_coeff)
                 for pc in reversed(profile)) + tuple(profile)


def piecewise_scalar(pieces, name: str = "", params: dict | None = None,
                     jac=None) -> Nonlinearity:
    """Build a scalar piecewise nonlinearity from ordered pieces."""
    return Nonlinearity(m=1, p=1, kind="piecewise_scalar", pieces=tuple(pieces),
                        jac=jac, name=name, params=params or {})


def radial_scalar_profile(profile, p: int, name: str = "",
                          params: dict | None = None) -> Nonlinearity:
    """Build f(t, xi) = a(t, ||xi||) xi/||xi|| from a scalar amplitude profile."""
    return Nonlinearity(m=p, p=p, kind="radial", profile=tuple(profile),
                        name=name, params=params or {})


def conformal_map(cf: Conformal, p: int, name: str = "",
                  params: dict | None = None) -> Nonlinearity:
    """Build f(t, xi) = alpha(t, ||xi||) xi with its evaluators from alpha:
    f = g U xi + c xi and Df = M(alpha) + M(d alpha / dr) xi xi^T / r =
    g U + (dg/dr / r) (U xi) xi^T + c I (U = I for a real alpha), each
    batch row equal to its one-point value bit for bit.  The time factor,
    memoised per time, is checked where it resolves: where it is not finite
    or raises ValueError or ArithmeticError, ConfigurationError names the map and t."""
    def factor_at(t, factor_of=cf.at_time):
        try:
            factor = factor_of(t)
            if all_finite(np.ravel(factor)):
                return factor
        except (ValueError, ArithmeticError) as exc:
            factor = exc
        raise ConfigurationError(f"nonlinearity {name or '<anonymous>'} has no finite "
                                 f"time factor at t={t}: {factor}")

    cf = cf._replace(at_time=_PerTime(factor_at))
    c, at_time, gain, slope, _, rotating, _ = cf
    eye = np.eye(p)

    def fn(t, xi):
        factor = at_time(t)
        out = gain(factor, vec_norm(xi)) * (factor @ xi if rotating else xi)
        return out + xi if c else out

    def fn_batch(T, X):
        factor = _at_times(at_time, T)
        V = np.matmul(factor, X[..., None])[..., 0] if rotating else X
        out = gain(factor, row_norms(X))[:, None] * V
        return out + X if c else out

    def jac(t, xi):
        factor, r = at_time(t), vec_norm(xi)
        k = slope(factor, r) / (r or 1.0)   # at r = 0 it multiplies xi = 0
        out = (gain(factor, r) * (factor if rotating else eye)
               + np.outer(k * (factor @ xi if rotating else xi), xi))
        return out + eye if c else out

    def jac_batch(T, X):
        factor, r = _at_times(at_time, T), row_norms(X)
        V = np.matmul(factor, X[..., None])[..., 0] if rotating else X
        k = slope(factor, r) / np.where(r != 0.0, r, 1.0)
        out = (gain(factor, r)[:, None, None] * (factor if rotating else eye)
               + (k[:, None] * V)[:, :, None] * X[:, None, :])
        return out + eye if c else out

    return Nonlinearity(m=p, p=p, kind="conformal", conformal=cf, fn=fn,
                        fn_batch=fn_batch, jac=jac, jac_batch=jac_batch,
                        name=name, params=params or {})


# ---------------------------------------------------------------------------
# Built-in nonlinearities (also addressable by name from config files)
# ---------------------------------------------------------------------------

def zero_nonlinearity(m: int, p: int) -> Nonlinearity:
    return Nonlinearity(
        m=m, p=p,
        fn=lambda t, xi: np.zeros(m),
        fn_batch=lambda T, X: np.zeros((X.shape[0], m)),
        jac=lambda t, xi: np.zeros((m, p)),
        name="zero", params={"m": m, "p": p},
    )


def linear_nonlinearity(K) -> Nonlinearity:
    K = np.atleast_2d(np.asarray(K, dtype=float))
    m, p = K.shape
    return Nonlinearity(
        m=m, p=p,
        fn=lambda t, xi: K @ xi,
        fn_batch=lambda T, X: np.matmul(K, X[..., None])[..., 0],
        jac=lambda t, xi: K.copy(),
        name="linear", params={"K": K.tolist()},
    )


def halfband_slopes() -> Nonlinearity:
    """Slope-1 outside [-2, 2] with unit offsets, slope 1/2 inside.

    With unit feedthrough, xi - f(xi) has range [-1, 1], so output
    solvability is lost whenever the forcing term leaves that band.
    """
    pieces = (
        ScalarPiece(lo=-_INF, hi=-2.0, c0=1.0, c1=1.0),
        ScalarPiece(lo=-2.0, hi=2.0, c1=0.5),
        ScalarPiece(lo=2.0, hi=_INF, c0=-1.0, c1=1.0),
    )
    return piecewise_scalar(pieces, name="halfband_slopes")


def parabolic_band() -> Nonlinearity:
    """Constant tails with the quadratic xi(1 - xi) on [-1/2, 1/2].

    xi - f(xi) equals xi^2 on the central band, so output fibres there
    are two-valued: the canonical non-uniqueness example.
    """
    pieces = (
        ScalarPiece(lo=-_INF, hi=-0.5, c0=-0.75),
        ScalarPiece(lo=-0.5, hi=0.5, c1=1.0, c2=-1.0),
        ScalarPiece(lo=0.5, hi=_INF, c0=0.25),
    )
    return piecewise_scalar(pieces, name="parabolic_band")


def identity_minus_atan() -> Nonlinearity:
    """f(xi) = xi - atan(xi); with unit feedthrough F(xi) = atan(xi)."""
    pieces = (ScalarPiece(lo=-_INF, hi=_INF, c1=1.0, atan_coeff=-1.0),)

    def jac(t, xi):
        x = float(xi[0])
        return np.array([[x * x / (1.0 + x * x)]])

    return piecewise_scalar(pieces, name="identity_minus_atan", jac=jac)


def _of_param(param, expr):
    """expr(param) for a numeric parameter, a static piece field; for a
    callable one, the function t -> expr(param(t)), resolved per time."""
    if callable(param):
        return lambda t: expr(param(t))
    return expr(float(param))


def deadzone_saturation(width=0.3) -> Nonlinearity:
    """Saturation with a deadzone of (possibly time-varying) half-width d(t).

    Zero on [-d, d], slope 1 on the transition bands, constant +-1 outside.
    A numeric width gives static pieces.
    """
    def of_d(expr):
        return _of_param(width, expr)

    pieces = (
        ScalarPiece(lo=-_INF, hi=of_d(lambda d: -(1.0 + d)), c0=-1.0),
        ScalarPiece(lo=of_d(lambda d: -(1.0 + d)), hi=of_d(lambda d: -d),
                    c0=of_d(lambda d: d), c1=1.0),
        ScalarPiece(lo=of_d(lambda d: -d), hi=of_d(lambda d: d)),
        ScalarPiece(lo=of_d(lambda d: d), hi=of_d(lambda d: 1.0 + d),
                    c0=of_d(lambda d: -d), c1=1.0),
        ScalarPiece(lo=of_d(lambda d: 1.0 + d), hi=_INF, c0=1.0),
    )
    params = {} if callable(width) else {"width": float(width)}
    return piecewise_scalar(pieces, name="deadzone_saturation", params=params)


def saturation_scaled(gain=1.0) -> Nonlinearity:
    """Scalar saturation scaled by a (possibly time-varying) gain h(t) in [0, 1].

    A numeric gain gives static pieces.
    """
    pieces = (
        ScalarPiece(lo=-_INF, hi=-1.0, c0=_of_param(gain, lambda h: -h)),
        ScalarPiece(lo=-1.0, hi=1.0, c1=_of_param(gain, lambda h: h)),
        ScalarPiece(lo=1.0, hi=_INF, c0=_of_param(gain, lambda h: h)),
    )
    params = {} if callable(gain) else {"gain": float(gain)}
    return piecewise_scalar(pieces, name="saturation_scaled", params=params)


def normalized_gain(gain=0.5, p: int = 2) -> Nonlinearity:
    """f(t, xi) = h(t) xi / (1 + ||xi||): linearly bounded, radially flattening.

    alpha = h(t) / (1 + r) is real, so any p will do.  A callable gain must
    be a pure function of t: its value is reused while t repeats.
    """
    h = gain if callable(gain) else (lambda _t, _h=float(gain): _h)

    def modulus(ht, d, rho):            # r^2 (r + 1 - d h)^2 - rho^2 (1 + r)^2
        k = 1.0 - d * ht
        return 1.0, 2.0 * k, k * k - rho * rho, -2.0 * rho * rho, -rho * rho

    return conformal_map(
        Conformal(0, h, lambda ht, r: ht / (1.0 + r),
                  lambda ht, r: -ht / ((1.0 + r) * (1.0 + r)), modulus), p,
        name="normalized_gain",
        params={"p": p} if callable(gain) else {"gain": float(gain), "p": p})


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotated_radial(angle=None) -> Nonlinearity:
    """Planar f(t, xi) = xi - ||xi|| R(theta(t)) xi, by default theta(t) = t.

    alpha = 1 + r u(t) with u = -e^{i theta(t)}: with D = I, ||xi - f|| =
    ||xi||^2, so xi - f is a homeomorphism for every t although the growth
    of f itself is superlinear.  The angle must be a pure function of t:
    -R(theta(t)) is reused while t repeats.
    """
    theta = angle if angle is not None else (lambda t: t)

    def turn(t):                        # -R(theta(t))
        a = theta(t)
        c, s = -math.cos(a), -math.sin(a)
        return np.array([[c, -s], [s, c]])

    return conformal_map(Conformal(
        1, turn, lambda U, r: r,
        lambda U, r: 1.0, rotating=True,
        # r^2 |1 - d - d r u|^2 - rho^2, with cos theta = -U[0, 0]
        modulus=lambda U, d, rho: (d * d, -2.0 * d * (1.0 - d) * float(U[0, 0]),
                                   (1.0 - d) * (1.0 - d), 0.0, -rho * rho)),
        2, name="rotated_radial")


def normalized_rotation(omega: float = 1.0) -> Nonlinearity:
    """Planar f(t, xi) = R(omega t) xi / s, s = sqrt(1 + ||xi||^2)."""

    def modulus(J, d, rho):     # (s^2 - 1)(s^2 - 2 d s cos + d^2) - rho^2 s^2, s = 1 + x
        dc, k = d * float(J[0, 0]), d * d - rho * rho
        return 1.0, 4.0 - 2.0 * dc, 5.0 - 6.0 * dc + k, 2.0 * (1.0 - 2.0 * dc + k), -rho * rho

    return conformal_map(Conformal(
        0, lambda t: rotation_matrix(omega * t),
        lambda J, r: 1.0 / _sqrt(1.0 + r * r),
        lambda J, r: -r / ((1.0 + r * r) * _sqrt(1.0 + r * r)), modulus,
        rotating=True, radius=lambda x: math.sqrt(x * (2.0 + x))),
        2, name="normalized_rotation", params={"omega": float(omega), "p": 2})


def radial_three_zone(p: int = 2) -> Nonlinearity:
    """Radial amplitude r | 2r-1 | r+1 on [0,1] | [1,2] | [2,inf).

    With feedthrough D = I/2 the middle zone of xi - D f is flat in radius,
    producing genuinely set-valued segment fibres.
    """
    profile = (
        ScalarPiece(lo=0.0, hi=1.0, c1=1.0),
        ScalarPiece(lo=1.0, hi=2.0, c0=-1.0, c1=2.0),
        ScalarPiece(lo=2.0, hi=_INF, c0=1.0, c1=1.0),
    )
    return radial_scalar_profile(profile, p=p, name="radial_three_zone",
                                 params={"p": p})
