"""State-space data for Lur'e systems with feedthrough.

A system is the sextuple (A, B, B_e, C, D, D_e) of the linear part

    xdot = A x + B u + B_e v,      y = C x + D u + D_e v,

closed by static output feedback u = f(t, y).  The feedthrough D makes
the output equation implicit in y; everything downstream (output solver,
integrators, analyzer) works off the map  F_t(xi) = xi - D f(t, xi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def _as_matrix(name: str, value, rows: int, cols: int) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    if mat.shape != (rows, cols):
        raise ConfigurationError(
            f"matrix {name} has shape {mat.shape}, expected ({rows}, {cols})"
        )
    if not np.all(np.isfinite(mat)):
        raise ConfigurationError(f"matrix {name} contains non-finite entries")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class SystemMatrices:
    """The sextuple (A, B, B_e, C, D, D_e) with validated dimensions.

    Dimensions are inferred from A (n x n), D (p x m) and D_e (p x m_e);
    all six matrices must conform exactly.
    """

    A: np.ndarray
    B: np.ndarray
    B_e: np.ndarray
    C: np.ndarray
    D: np.ndarray
    D_e: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ConfigurationError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        p, m = D.shape
        D_e = np.atleast_2d(np.asarray(self.D_e, dtype=float))
        if D_e.shape[0] != p:
            raise ConfigurationError(
                f"D_e has {D_e.shape[0]} rows, expected {p} to match D"
            )
        m_e = D_e.shape[1]
        object.__setattr__(self, "A", _as_matrix("A", A, n, n))
        object.__setattr__(self, "B", _as_matrix("B", self.B, n, m))
        object.__setattr__(self, "B_e", _as_matrix("B_e", self.B_e, n, m_e))
        object.__setattr__(self, "C", _as_matrix("C", self.C, p, n))
        object.__setattr__(self, "D", _as_matrix("D", D, p, m))
        object.__setattr__(self, "D_e", _as_matrix("D_e", D_e, p, m_e))

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(n, m, m_e, p)."""
        n = self.A.shape[0]
        p, m = self.D.shape
        m_e = self.D_e.shape[1]
        return (n, m, m_e, p)

    def scalar_feedthrough(self) -> float | None:
        """Return d when D acts as d*I (including the 1x1 case), else None."""
        return scalar_feedthrough(self.D)


def scalar_feedthrough(D: np.ndarray) -> float | None:
    """Return d when the 2-d feedthrough D equals d*I, else None.

    Entry by entry against d on the diagonal and d*0 off it, so a
    non-finite d matches only where d*I would equal D.
    """
    p, m = D.shape
    if p != m:
        return None
    rows = D.tolist()
    d = rows[0][0]
    off = d * 0.0
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != (d if i == j else off):
                return None
    return float(d)


def eval_F(sys: SystemMatrices, f, t, xi) -> np.ndarray:
    """Evaluate F_t(xi) = xi - D f(t, xi) at one point or at each row of an N x p stack.

    For a stack, ``t`` is one time or one time per row and the rows go
    through ``f.eval_batch``; each equals the single-point value bit for bit.
    """
    xi = np.asarray(xi, dtype=float)
    p = sys.D.shape[0]
    if xi.ndim == 2:
        if xi.shape[1] != p:
            raise ConfigurationError(f"xi has {xi.shape[1]} columns, expected p={p}")
        return xi - np.matmul(sys.D, f.eval_batch(t, xi)[..., None])[..., 0]
    xi = xi.reshape(-1)
    if xi.shape[0] != p:
        raise ConfigurationError(f"xi has length {xi.shape[0]}, expected p={p}")
    return xi - sys.D @ f(t, xi)


def gronwall_bound(c: float, h_values, t0: float, grid) -> np.ndarray:
    """Integral-inequality bound t -> c * exp(int_{t0}^t h).

    The integral is accumulated with the trapezoid rule on the given grid,
    which must be strictly increasing and start at t0.  Used as a diagnostic
    envelope, not as a control quantity.
    """
    grid = np.asarray(grid, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    if c < 0:
        raise ConfigurationError("c must be non-negative")
    if grid.ndim != 1 or grid.size < 1 or grid[0] != t0:
        raise ConfigurationError("grid must be a 1-d array starting at t0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ConfigurationError("grid must be strictly increasing")
    if h_values.shape != grid.shape:
        raise ConfigurationError("h_values must match the grid")
    if np.any(h_values < 0):
        raise ConfigurationError("h samples must be non-negative")
    integral = np.zeros_like(grid)
    if grid.size > 1:
        steps = np.diff(grid)
        integral[1:] = np.cumsum(0.5 * steps * (h_values[:-1] + h_values[1:]))
    return c * np.exp(integral)
