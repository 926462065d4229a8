"""External input signals.

Four representations are supported, all locally bounded by construction:
zero, constant, piecewise-constant table, and polynomial in t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class InputSignal:
    """Forcing signal t -> v(t) in R^{m_e}."""

    kind: str            # zero | constant | piecewise_constant | polynomial
    m_e: int
    constant: np.ndarray | None = None
    table_times: np.ndarray | None = None     # breakpoints, right-continuous
    table_values: np.ndarray | None = None    # (len(times)+1) x m_e
    coefficients: np.ndarray | None = None    # n_pow x m_e, v(t) = sum c_k t^k

    def __post_init__(self):
        if self.m_e < 1:
            raise ConfigurationError("m_e must be positive")
        if self.kind == "zero":
            pass
        elif self.kind == "constant":
            vec = np.asarray(self.constant, dtype=float).reshape(-1)
            if vec.shape != (self.m_e,) or not np.all(np.isfinite(vec)):
                raise ConfigurationError("constant input must be a finite m_e-vector")
            object.__setattr__(self, "constant", vec)
        elif self.kind == "piecewise_constant":
            times = np.asarray(self.table_times, dtype=float).reshape(-1)
            vals = np.atleast_2d(np.asarray(self.table_values, dtype=float))
            if times.size >= 2 and not np.all(np.diff(times) > 0):
                raise ConfigurationError("table times must be strictly increasing")
            if vals.shape != (times.size + 1, self.m_e):
                raise ConfigurationError(
                    "table values must have shape (len(times)+1, m_e)"
                )
            if not np.all(np.isfinite(vals)):
                raise ConfigurationError("table values must be finite")
            object.__setattr__(self, "table_times", times)
            object.__setattr__(self, "table_values", vals)
        elif self.kind == "polynomial":
            coeff = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
            if coeff.shape[1] != self.m_e or not np.all(np.isfinite(coeff)):
                raise ConfigurationError(
                    "polynomial coefficients must be n_pow x m_e and finite"
                )
            object.__setattr__(self, "coefficients", coeff)
        else:
            raise ConfigurationError(f"unknown input signal kind {self.kind!r}")

    def __call__(self, t: float) -> np.ndarray:
        return self.eval(t)

    def eval(self, t: float) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(self.m_e)
        if self.kind == "constant":
            return self.constant.copy()
        if self.kind == "piecewise_constant":
            idx = int(np.searchsorted(self.table_times, t, side="right"))
            return self.table_values[idx].copy()
        # polynomial, Horner in t
        out = np.zeros(self.m_e)
        for row in self.coefficients[::-1]:
            out = out * t + row
        return out


def _fixed_value(v) -> np.ndarray | None:
    """v(t), the same for every t, when v is a zero or constant
    ``InputSignal``; None for a time-varying signal or any other callable."""
    if isinstance(v, InputSignal) and v.kind in ("zero", "constant"):
        return v.eval(0.0)
    return None


def zero_input(m_e: int) -> InputSignal:
    return InputSignal(kind="zero", m_e=m_e)


def constant_input(vec) -> InputSignal:
    vec = np.asarray(vec, dtype=float).reshape(-1)
    return InputSignal(kind="constant", m_e=vec.size, constant=vec)


def polynomial_input(coefficients) -> InputSignal:
    coeff = np.atleast_2d(np.asarray(coefficients, dtype=float))
    return InputSignal(kind="polynomial", m_e=coeff.shape[1], coefficients=coeff)


def piecewise_constant_input(times, values) -> InputSignal:
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    return InputSignal(
        kind="piecewise_constant",
        m_e=vals.shape[1],
        table_times=np.asarray(times, dtype=float).reshape(-1),
        table_values=vals,
    )
