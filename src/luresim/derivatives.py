"""Finite-difference Jacobians and sampled Clarke generalized Jacobians.

The Clarke generalized Jacobian of a locally Lipschitz map at a point is
the convex hull of limits of classical Jacobians at nearby points of
differentiability.  We approximate its generators statistically: draw
points in a small ball, take central-difference Jacobians there.  Kinks
show up as clusters of distinct slopes.  This cannot honor the avoidance
of arbitrary null sets that the exact definition permits; for the maps
handled here (finitely many smooth pieces) the sampled set is the right
one with probability one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .nonlinearity import Nonlinearity, row_time, row_norms

DEFAULT_FD_SCALE = 1e-6
DEFAULT_CLARKE_RADIUS = 1e-4
DEFAULT_CLARKE_SAMPLES = 32


def finite_diff_jacobian(f, t: float, xi, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of f(t, .) at xi, column by column.

    The default step is 1e-6 * max(1, ||xi||).
    """
    xi = np.asarray(xi, dtype=float).reshape(1, -1)
    return finite_diff_jacobians(f, t, xi, h)[0]


def finite_diff_jacobians(f, t, X, h=None, strict: bool = True) -> np.ndarray:
    """Central-difference Jacobians of f(t, .) at every row of X: N x m x p.

    ``t`` and ``h`` are one value for all rows or one per row; the default
    step of a row is 1e-6 * max(1, ||row||).  The 2p perturbed rows of all
    points go through one batched evaluation (``eval_batch`` for a
    Nonlinearity, one call per row for any other f(t, xi)); each Jacobian
    equals the one built column by column from single evaluations.  With
    ``strict=False`` a Nonlinearity evaluation that fails leaves NaN in the
    Jacobians it enters instead of raising.
    """
    X = np.asarray(X, dtype=float)
    h = _fd_steps(X, h)
    rows = _perturbed_rows(X, h)
    T = np.repeat(t, 2 * X.shape[1]) if np.ndim(t) else t
    if isinstance(f, Nonlinearity):
        values = f.eval_batch(T, rows) if strict else f.eval_rows(T, rows)[0]
    else:
        values = np.array([np.asarray(f(row_time(T, i), row), dtype=float).reshape(-1)
                           for i, row in enumerate(rows)])
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad)) // 2 * 2      # the +h row of that column
            raise EvaluationError("non-finite evaluation while differencing",
                                  t=row_time(T, k), point=rows[k].copy())
    return _central_quotients(values, X.shape, h)


def _fd_steps(X: np.ndarray, h) -> np.ndarray:
    if h is None:
        return DEFAULT_FD_SCALE * np.fmax(1.0, row_norms(X))
    h = np.broadcast_to(np.asarray(h, dtype=float), X.shape[:1])
    if np.any(h <= 0):
        raise ConfigurationError("finite-difference step must be positive")
    return h


def _perturbed_rows(X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows xi + h e_j, xi - h e_j for j = 1..p, point after point: 2pN x p."""
    n, p = X.shape
    steps = np.zeros((n, p, p))
    steps[:, np.arange(p), np.arange(p)] = h[:, None]
    rows = np.empty((n, p, 2, p))
    rows[:, :, 0] = X[:, None, :] + steps
    rows[:, :, 1] = X[:, None, :] - steps
    return rows.reshape(2 * p * n, p)


def _central_quotients(values: np.ndarray, shape: tuple[int, int],
                      h: np.ndarray) -> np.ndarray:
    """Jacobians (N x m x p) from the values at ``_perturbed_rows``."""
    n, p = shape
    pairs = values.reshape(n, p, 2, -1)
    cols = (pairs[:, :, 0] - pairs[:, :, 1]) / (2.0 * h)[:, None, None]
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


@dataclass(frozen=True)
class JacobianSample:
    """Finite list of Jacobians sampled near a base point."""

    matrices: tuple[np.ndarray, ...]
    base_point: tuple[float, np.ndarray]
    radius: float
    seed: int

    def max_norm(self) -> float:
        return max(float(np.linalg.norm(M, 2)) for M in self.matrices)


def ball_offsets(p: int, radius: float, n: int, seed: int) -> np.ndarray:
    """n offsets uniform in the closed p-ball of the given radius (seeded)."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, p))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / p)
    return (dirs / norms) * radii[:, None]


def sample_clarke_jacobian(f, t: float, xi, radius: float = DEFAULT_CLARKE_RADIUS,
                           n_samples: int = DEFAULT_CLARKE_SAMPLES,
                           seed: int = 0) -> JacobianSample:
    """Approximate generators of the Clarke set of f(t, .) at xi.

    Draws n_samples points uniformly in the ball of the given radius
    around xi and takes central-difference Jacobians with step radius/100.
    Reproducible for a fixed seed.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    matrices = sample_clarke_jacobians(f, t, xi[None], radius, n_samples, seed)[0]
    return JacobianSample(matrices=tuple(matrices), base_point=(t, xi.copy()),
                          radius=radius, seed=seed)


def sample_clarke_jacobians(f, t: float, X, radius: float = DEFAULT_CLARKE_RADIUS,
                            n_samples: int = DEFAULT_CLARKE_SAMPLES,
                            seed: int = 0) -> np.ndarray:
    """``sample_clarke_jacobian`` at every row of X: N x n_samples x m x p.

    The same seeded ball offsets serve every row, and all N * n_samples
    points are differenced in one ``finite_diff_jacobians`` call.
    """
    X = np.asarray(X, dtype=float)
    if radius <= 0:
        raise ConfigurationError("sampling radius must be positive")
    if n_samples < 1:
        raise ConfigurationError("need at least one sample")
    n, p = X.shape
    points = X[:, None, :] + ball_offsets(p, radius, n_samples, seed)
    J = finite_diff_jacobians(f, t, points.reshape(-1, p), h=radius / 100.0)
    return J.reshape((n, n_samples) + J.shape[1:])
