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
    """A read-only float copy of value, so no caller's array can change it."""
    mat = np.array(value, dtype=float, ndmin=2)
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
    all six matrices must conform exactly.  Each is held as a read-only
    copy, so D, and what the output solver derives from it, stays fixed.
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
    return apply_F(sys.D, f, t, xi)


def apply_F(D: np.ndarray, f, t, xi) -> np.ndarray:
    """``eval_F`` for a bare 2-d feedthrough matrix D."""
    xi = np.asarray(xi, dtype=float)
    p = D.shape[0]
    if xi.ndim == 2:
        if xi.shape[1] != p:
            raise ConfigurationError(f"xi has {xi.shape[1]} columns, expected p={p}")
        return xi - np.matmul(D, f.eval_batch(t, xi)[..., None])[..., 0]
    xi = xi.reshape(-1)
    if xi.shape[0] != p:
        raise ConfigurationError(f"xi has length {xi.shape[0]}, expected p={p}")
    return xi - D @ f(t, xi)

