"""Static output nonlinearities u = f(t, y).

Three structured kinds get exact treatment downstream:

* ``piecewise_scalar`` (m = p = 1): an ordered list of pieces tiling the
  real line.  Each piece is a polynomial of degree <= 2 plus an optional
  arctan term, with possibly time-dependent coefficients and breakpoints.
  This is what makes output fibres exactly enumerable.
* ``radial`` (m = p): f(t, xi) = a(t, ||xi||) xi / ||xi|| with a scalar
  piecewise amplitude profile, so fibres reduce to a scalar problem along
  the direction of the target.
* ``smooth`` / ``expression``: opaque evaluators, numeric treatment only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EvaluationError

_INF = math.inf


def _resolve(value, t: float) -> float:
    return float(value(t)) if callable(value) else float(value)


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
        return ResolvedPiece(
            _resolve(self.lo, t),
            _resolve(self.hi, t),
            _resolve(self.c0, t),
            _resolve(self.c1, t),
            _resolve(self.c2, t),
            self.atan_coeff,
        )

    @property
    def static(self) -> bool:
        return not any(callable(v) for v in (self.lo, self.hi, self.c0, self.c1, self.c2))


@dataclass(frozen=True)
class ResolvedPiece:
    lo: float
    hi: float
    c0: float
    c1: float
    c2: float
    atan_coeff: float

    def value(self, x: float) -> float:
        out = self.c0 + x * (self.c1 + x * self.c2)
        if self.atan_coeff:
            out += self.atan_coeff * math.atan(x)
        return out


def _eval_resolved(resolved, x: float) -> float:
    for pc in resolved:
        if pc.lo <= x <= pc.hi:
            return pc.value(x)
    # Fell through only by rounding at the outermost ends.
    return resolved[0].value(x) if x < resolved[0].lo else resolved[-1].value(x)


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-for-bit ``np.linalg.norm`` of the row."""
    return np.sqrt(np.vecdot(X, X))


def _at_times(fn, T: np.ndarray):
    """fn(t) for each row time, one call per distinct time; 0-d T gives one value."""
    if T.ndim == 0:
        return fn(float(T))
    times, inverse = np.unique(T, return_inverse=True)
    return np.asarray([fn(float(s)) for s in times])[inverse]


def _resolve_rows(pc: ScalarPiece, T: np.ndarray) -> ResolvedPiece:
    """The piece at each row time: callable fields become per-row arrays."""
    return ResolvedPiece(*(_at_times(v, T).astype(float) if callable(v) else float(v)
                           for v in (pc.lo, pc.hi, pc.c0, pc.c1, pc.c2)),
                         pc.atan_coeff)


def _rows(v, mask):
    return v[mask] if isinstance(v, np.ndarray) else v


def _piece_values(pc: ResolvedPiece, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``pc.value`` at x[mask], element for element (``math.atan`` per entry)."""
    xm = x[mask]
    out = _rows(pc.c0, mask) + xm * (_rows(pc.c1, mask) + xm * _rows(pc.c2, mask))
    if pc.atan_coeff:
        out = out + pc.atan_coeff * np.array([math.atan(v) for v in xm.tolist()])
    return out


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
    if todo.any():
        left = todo & (x < resolved[0].lo)
        out[left] = _piece_values(resolved[0], x, left)
        right = todo & ~left
        out[right] = _piece_values(resolved[-1], x, right)
    return out


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluator for f(t, xi) in R^m, xi in R^p, plus optional structure.

    The structured kinds evaluate through their resolved pieces; ``fn`` is
    the evaluator of the opaque kinds only.  ``fn_batch(T, X)``, when
    given, is the vectorised ``fn``: it maps an N x p stack to N x m rows
    equal to ``fn`` bit for bit, with T a 0-d time or one time per row.
    """

    m: int
    p: int
    fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    kind: str = "smooth"     # smooth | piecewise_scalar | radial | expression
    pieces: tuple[ScalarPiece, ...] | None = None
    profile: tuple[ScalarPiece, ...] | None = None
    jac: Callable[[float, np.ndarray], np.ndarray] | None = None
    name: str = ""
    params: dict = field(default_factory=dict)
    fn_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind == "piecewise_scalar":
            if self.m != 1 or self.p != 1:
                raise ConfigurationError("piecewise_scalar requires m = p = 1")
            _check_tiling(self.pieces, lo_start=-_INF)
        elif self.kind == "radial":
            if self.m != self.p:
                raise ConfigurationError("radial nonlinearity requires m = p")
            _check_tiling(self.profile, lo_start=0.0)
            for t in (0.0, 0.7, 3.1):
                a0 = self.profile[0].at(t).value(0.0)
                if abs(a0) > 1e-12:
                    raise ConfigurationError(
                        "radial amplitude profile must vanish at r = 0"
                    )
        elif self.fn is None:
            raise ConfigurationError(
                f"nonlinearity of kind {self.kind!r} needs the evaluator fn"
            )
        # Time-independent pieces resolve once.
        structure = self.pieces if self.kind == "piecewise_scalar" else self.profile
        if structure is not None and all(pc.static for pc in structure):
            object.__setattr__(self, "_static_resolved",
                               [pc.at(0.0) for pc in structure])
        else:
            object.__setattr__(self, "_static_resolved", None)

    def resolved_structure(self, t: float) -> list["ResolvedPiece"]:
        if self._static_resolved is not None:
            return self._static_resolved
        structure = self.pieces if self.kind == "piecewise_scalar" else self.profile
        return [pc.at(t) for pc in structure]

    def __call__(self, t: float, xi) -> np.ndarray:
        return self.eval(t, xi)

    def eval(self, t: float, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.shape[0] != self.p:
            raise ConfigurationError(
                f"xi has length {xi.shape[0]}, expected p={self.p}"
            )
        if self.kind == "piecewise_scalar":
            out = np.array([_eval_resolved(self.resolved_structure(t),
                                           float(xi[0]))])
        elif self.kind == "radial":
            r = float(np.linalg.norm(xi))
            out = np.zeros(self.p) if r == 0.0 else (self.amplitude(t, r) / r) * xi
        else:
            out = self._fn_row(t, xi)
        if out.shape[0] != self.m:
            raise self._bad_length(out.shape[0])
        if not np.all(np.isfinite(out)):
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
        out, bad = self.eval_rows(t, X, strict=True)
        if bad.any():
            i = int(np.argmax(bad))
            raise self._non_finite(row_time(t, i), X[i].copy())
        return out

    def eval_rows(self, t, X: np.ndarray, strict: bool = False):
        """(N x m values, bad-row mask) for an N x p stack; bad rows hold NaN.

        A row is bad when its value is not finite or, unless ``strict``,
        when ``fn`` raised EvaluationError on it.
        """
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
        bad = ~np.isfinite(out).all(axis=1)
        return out, bad

    def _fn_row(self, t, xi: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, xi), dtype=float).reshape(-1)

    def _resolved_rows(self, t, T: np.ndarray) -> list[ResolvedPiece]:
        if T.ndim == 0 or self._static_resolved is not None:
            return self.resolved_structure(t)
        structure = self.pieces if self.kind == "piecewise_scalar" else self.profile
        return [_resolve_rows(pc, T) for pc in structure]

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

    def amplitude(self, t: float, r: float) -> float:
        """Radial amplitude a(t, r) for the radial kind."""
        if self.kind != "radial":
            raise ConfigurationError("amplitude is defined for radial kind only")
        return _eval_resolved(self.resolved_structure(t), r)


def row_time(t, i: int):
    """The time of row i: t itself when it is one time for all rows."""
    return t if np.ndim(t) == 0 else np.asarray(t, dtype=float)[i]


def _check_tiling(pieces, lo_start: float):
    if not pieces:
        raise ConfigurationError("piecewise structure needs at least one piece")
    for t in (0.0, 0.7, 3.1):
        resolved = [pc.at(t) for pc in pieces]
        if resolved[0].lo != lo_start:
            raise ConfigurationError(
                f"first piece must start at {lo_start}, got {resolved[0].lo}"
            )
        if resolved[-1].hi != _INF:
            raise ConfigurationError("last piece must extend to +inf")
        for left, right in zip(resolved, resolved[1:]):
            if left.hi > right.lo + 1e-12 or left.hi < right.lo - 1e-12:
                raise ConfigurationError(
                    f"pieces do not tile: gap or overlap between {left.hi} and {right.lo}"
                )
            b = left.hi
            if math.isfinite(b):
                scale = 1.0 + abs(left.value(b))
                if abs(left.value(b) - right.value(b)) > 1e-9 * scale:
                    raise ConfigurationError(
                        f"pieces disagree at breakpoint {b} (t={t}): "
                        f"{left.value(b)} vs {right.value(b)}"
                    )


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


def deadzone_saturation(width=0.3) -> Nonlinearity:
    """Saturation with a deadzone of (possibly time-varying) half-width d(t).

    Zero on [-d, d], slope 1 on the transition bands, constant +-1 outside.
    """
    d = width if callable(width) else (lambda _t, _w=float(width): _w)
    pieces = (
        ScalarPiece(lo=-_INF, hi=lambda t: -(1.0 + d(t)), c0=-1.0),
        ScalarPiece(lo=lambda t: -(1.0 + d(t)), hi=lambda t: -d(t),
                    c0=lambda t: d(t), c1=1.0),
        ScalarPiece(lo=lambda t: -d(t), hi=lambda t: d(t)),
        ScalarPiece(lo=lambda t: d(t), hi=lambda t: 1.0 + d(t),
                    c0=lambda t: -d(t), c1=1.0),
        ScalarPiece(lo=lambda t: 1.0 + d(t), hi=_INF, c0=1.0),
    )
    params = {} if callable(width) else {"width": float(width)}
    return piecewise_scalar(pieces, name="deadzone_saturation", params=params)


def saturation_scaled(gain=1.0, gain_expr: str | None = None) -> Nonlinearity:
    """Scalar saturation scaled by a (possibly time-varying) gain h(t) in [0, 1]."""
    h = gain if callable(gain) else (lambda _t, _h=float(gain): _h)
    pieces = (
        ScalarPiece(lo=-_INF, hi=-1.0, c0=lambda t: -h(t)),
        ScalarPiece(lo=-1.0, hi=1.0, c1=lambda t: h(t)),
        ScalarPiece(lo=1.0, hi=_INF, c0=lambda t: h(t)),
    )
    params = {}
    if gain_expr is not None:
        params["gain"] = gain_expr
    elif not callable(gain):
        params["gain"] = float(gain)
    return piecewise_scalar(pieces, name="saturation_scaled", params=params)


def normalized_gain(gain=0.5, p: int = 2, gain_expr: str | None = None) -> Nonlinearity:
    """f(t, xi) = h(t) xi / (1 + ||xi||): linearly bounded, radially flattening."""
    h = gain if callable(gain) else (lambda _t, _h=float(gain): _h)

    def fn(t, xi):
        return (h(t) / (1.0 + np.linalg.norm(xi))) * xi

    def fn_batch(T, X):
        return (_at_times(h, T) / (1.0 + row_norms(X)))[:, None] * X

    def jac(t, xi):
        r = float(np.linalg.norm(xi))
        ht = h(t)
        if r == 0.0:
            return ht * np.eye(p)
        return ht * (np.eye(p) / (1.0 + r) - np.outer(xi, xi) / (r * (1.0 + r) ** 2))

    params = {"p": p}
    if gain_expr is not None:
        params["gain"] = gain_expr
    elif not callable(gain):
        params["gain"] = float(gain)
    return Nonlinearity(m=p, p=p, fn=fn, fn_batch=fn_batch, jac=jac,
                        name="normalized_gain", params=params)


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotated_radial(radial_gain=None, angle=None, angle_expr: str | None = None
                   ) -> Nonlinearity:
    """Planar f(t, xi) = xi - g(||xi||) R(theta(t)) xi.

    Defaults g(s) = s and theta(t) = t, for which s*g(s) is injective and
    radially unbounded, so xi - f is a homeomorphism for every t although
    the growth of f itself is superlinear.
    """
    g = radial_gain if radial_gain is not None else (lambda s: s)
    theta = angle if angle is not None else (lambda t: t)

    def fn(t, xi):
        r = float(np.linalg.norm(xi))
        return xi - g(r) * (rotation_matrix(theta(t)) @ xi)

    def fn_batch(T, X):
        r = row_norms(X)
        gains = r if radial_gain is None else np.array([g(s) for s in r.tolist()])
        rotations = _at_times(lambda t: rotation_matrix(theta(t)), T)
        return X - gains[:, None] * np.matmul(rotations, X[..., None])[..., 0]

    params = {}
    if angle_expr is not None:
        params["angle"] = angle_expr
    return Nonlinearity(m=2, p=2, fn=fn, fn_batch=fn_batch,
                        name="rotated_radial", params=params)


def normalized_rotation(omega: float = 1.0, p: int = 2, frame=None) -> Nonlinearity:
    """f(t, xi) = g(||xi||) J(t) xi with g(s) = 1/sqrt(1+s^2), J(t) orthogonal.

    The default frame is the planar rotation J(t) = R(omega t).
    """
    if frame is None:
        if p != 2:
            raise ConfigurationError("default rotation frame requires p = 2")
        J = lambda t: rotation_matrix(omega * t)
    else:
        J = frame

    def fn(t, xi):
        s = float(np.linalg.norm(xi))
        return (1.0 / math.sqrt(1.0 + s * s)) * (J(t) @ xi)

    def fn_batch(T, X):
        s = row_norms(X)
        frames = _at_times(J, T)
        return (1.0 / np.sqrt(1.0 + s * s))[:, None] * np.matmul(frames, X[..., None])[..., 0]

    def jac(t, xi):
        s2 = float(xi @ xi)
        P = np.outer(xi, xi) / (1.0 + s2)
        return (1.0 / math.sqrt(1.0 + s2)) * (J(t) @ (np.eye(p) - P))

    return Nonlinearity(m=p, p=p, fn=fn, fn_batch=fn_batch, jac=jac,
                        name="normalized_rotation",
                        params={"omega": float(omega), "p": p})


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
