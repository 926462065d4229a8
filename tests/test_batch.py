"""Differential tests for the batched layer: every stacked evaluation must
equal, bit for bit, the single-point evaluation it replaces."""

import math

import numpy as np
import pytest

from luresim import (EXAMPLE_NAMES, ConfigurationError, EvaluationError,
                     Nonlinearity, ScalarPiece, SolveOptions,
                     compile_vector_expression, deadzone_saturation, eval_F,
                     finite_diff_jacobian, finite_diff_jacobians,
                     halfband_slopes, identity_minus_atan, linear_nonlinearity,
                     normalized_gain, normalized_rotation, parabolic_band,
                     radial_scalar_profile, radial_three_zone, rotated_radial,
                     sample_clarke_jacobian, sample_clarke_jacobians,
                     saturation_scaled, zero_nonlinearity)
from luresim.output_solver import _halton_starts, _newton, _newton_stack


def _opaque_lambda():
    return Nonlinearity(m=2, p=2, name="lambda",
                        fn=lambda t, xi: np.array([math.sin(t) * xi[0],
                                                   xi[0] * xi[1]]))


def _time_varying_radial():
    profile = (ScalarPiece(lo=0.0, hi=lambda t: 1.0 + 0.1 * t,
                           c1=lambda t: 0.5 + 0.1 * math.sin(t)),
               ScalarPiece(lo=lambda t: 1.0 + 0.1 * t, hi=math.inf,
                           c0=lambda t: (1.0 + 0.1 * t) * (0.5 + 0.1 * math.sin(t)),
                           c1=0.0))
    return radial_scalar_profile(profile, p=2, name="tv_radial")


NONLINEARITIES = {
    "zero": lambda: zero_nonlinearity(2, 2),
    "linear": lambda: linear_nonlinearity([[0.3, -1.2], [2.0, 0.7], [1.0, 1.0]]),
    "halfband_slopes": halfband_slopes,
    "parabolic_band": parabolic_band,
    "identity_minus_atan": identity_minus_atan,
    "deadzone_static": lambda: deadzone_saturation(0.3),
    "deadzone_time_varying": lambda: deadzone_saturation(lambda t: 0.2 + 0.05 * t),
    "saturation_time_varying": lambda: saturation_scaled(lambda t: min(1.0, 0.5 * t)),
    "normalized_gain": lambda: normalized_gain(0.5),
    "normalized_gain_time_varying": lambda: normalized_gain(lambda t: 0.5 + 0.3 * math.cos(t)),
    "normalized_rotation": normalized_rotation,
    "rotated_radial": rotated_radial,
    "rotated_radial_custom_gain": lambda: rotated_radial(radial_gain=lambda s: s * s,
                                                         angle=lambda t: 2.0 * t),
    "radial_three_zone": radial_three_zone,
    "radial_time_varying": _time_varying_radial,
    "expression": lambda: compile_vector_expression(
        ["xi_1 * cos(t) - atan(xi_2)", "sqrt(1 + xi_1 * xi_1) * sin(xi_2)"], 2),
    "lambda": _opaque_lambda,
}


def _stack(rng, p, n=300):
    scales = rng.choice([1e-3, 0.5, 2.0, 50.0], size=(n, 1))
    X = scales * rng.standard_normal((n, p))
    X[0] = 0.0                  # the origin (radial: r = 0)
    X[1] = -X[2]
    return X


def _assert_rows_equal(f, t, X):
    batch = f.eval_batch(t, X)
    rows = np.array([f.eval(t if np.ndim(t) == 0 else t[i], X[i])
                     for i in range(len(X))])
    assert batch.shape == (len(X), f.m)
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
def test_eval_batch_equals_eval(name, rng):
    f = NONLINEARITIES[name]()
    X = _stack(rng, f.p)
    _assert_rows_equal(f, 1.7, X)
    _assert_rows_equal(f, 10.0 * rng.random(len(X)), X)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_eval_batch_equals_eval_on_catalog(entry, name, rng):
    f = entry(name).nonlinearity
    X = _stack(rng, f.p)
    T = np.repeat(np.linspace(0.0, 10.0, 6), 50)     # repeated and distinct times
    _assert_rows_equal(f, T, X)
    _assert_rows_equal(f, 0.4, X)


def test_eval_scalar_array_equals_eval_scalar():
    f = identity_minus_atan()
    x = np.linspace(-40.0, 40.0, 4001)
    assert np.array_equal(f.eval_scalar_array(0.0, x),
                          [f.eval_scalar(0.0, float(v)) for v in x])


def test_eval_batch_non_finite_row_raises_with_its_point():
    f = Nonlinearity(m=1, p=2, name="blows",
                     fn=lambda t, xi: np.array([1.0 / (xi[0] - 1.0) if xi[0] != 1.0
                                                else math.inf]))
    X = np.array([[0.0, 0.0], [1.0, 5.0], [1.0, 6.0]])
    with pytest.raises(EvaluationError) as info:
        f.eval_batch(np.array([0.0, 0.25, 0.5]), X)
    assert info.value.t == 0.25
    assert np.array_equal(info.value.point, [1.0, 5.0])
    # the same row alone raises the same error through eval
    with pytest.raises(EvaluationError, match="blows"):
        f.eval(0.25, X[1])


def test_eval_batch_nan_row_of_structured_kind():
    f = radial_three_zone()
    X = np.array([[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(EvaluationError) as info:
        f.eval_batch(0.0, X)
    assert np.isnan(info.value.point[0])


def test_eval_batch_shape_checks():
    f = normalized_rotation()
    with pytest.raises(ConfigurationError, match="Xi has shape"):
        f.eval_batch(0.0, np.zeros((3, 3)))
    with pytest.raises(ConfigurationError, match="t has shape"):
        f.eval_batch(np.zeros(2), np.zeros((3, 2)))
    bad = Nonlinearity(m=2, p=1, fn=lambda t, xi: np.zeros(3))
    with pytest.raises(ConfigurationError, match="expected m=2"):
        bad.eval_batch(0.0, np.zeros((2, 1)))


def test_eval_rows_marks_bad_rows_without_raising():
    def fn(t, xi):
        if xi[0] < 0:
            raise EvaluationError("negative", t=t, point=xi)
        return np.array([xi[0], math.inf if xi[0] > 5 else 1.0])

    f = Nonlinearity(m=2, p=1, fn=fn)
    values, bad = f.eval_rows(0.0, np.array([[1.0], [-1.0], [7.0], [2.0]]))
    assert bad.tolist() == [False, True, True, False]
    assert np.array_equal(values[[0, 3]], [[1.0, 1.0], [2.0, 1.0]])


@pytest.mark.parametrize("name", ["ex3d", "ex4a", "ex4b", "sec42b", "sec42c"])
def test_eval_F_stack_equals_points(entry, name, rng):
    e = entry(name)
    X = _stack(rng, e.nonlinearity.p, n=100)
    T = 5.0 * rng.random(len(X))
    stacked = eval_F(e.system, e.nonlinearity, T, X)
    single = np.array([eval_F(e.system, e.nonlinearity, T[i], X[i])
                       for i in range(len(X))])
    assert np.array_equal(stacked, single)


# ---------------------------------------------------------------------------
# Stacked derivatives
# ---------------------------------------------------------------------------

def _columns_from_scalar_calls(f, t, xi, h):
    cols = []
    for j in range(xi.size):
        step = np.zeros_like(xi)
        step[j] = h
        cols.append((f(t, xi + step) - f(t, xi - step)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("name", ["ex3b", "ex3d", "ex4a", "ex4b", "ex4c",
                                  "sec42a", "sec42b", "sec42c"])
def test_stacked_fd_jacobian_equals_scalar_columns(entry, name, rng):
    f = entry(name).nonlinearity
    X = _stack(rng, f.p, n=60)
    t = 2.3
    J = finite_diff_jacobians(f, t, X)
    for xi, Ji in zip(X, J):
        h = 1e-6 * max(1.0, float(np.linalg.norm(xi)))
        assert np.array_equal(Ji, _columns_from_scalar_calls(f, t, xi, h))
        assert np.array_equal(finite_diff_jacobian(f, t, xi), Ji)
    # one step and one time per row
    T = 4.0 * rng.random(len(X))
    J = finite_diff_jacobians(f, T, X, h=1e-5)
    for ti, xi, Ji in zip(T, X, J):
        assert np.array_equal(Ji, _columns_from_scalar_calls(f, ti, xi, 1e-5))


def test_stacked_fd_jacobian_of_plain_callable(rng):
    def g(t, xi):
        return np.array([math.sin(xi[0]) * xi[1], t * xi[0]])

    X = rng.standard_normal((10, 2))
    J = finite_diff_jacobians(g, 0.5, X, h=1e-4)
    for xi, Ji in zip(X, J):
        assert np.array_equal(Ji, _columns_from_scalar_calls(g, 0.5, xi, 1e-4))


def test_stacked_clarke_equals_per_point(entry, rng):
    f = entry("sec42b").nonlinearity
    X = _stack(rng, 2, n=8)
    stacked = sample_clarke_jacobians(f, 1.0, X, radius=1e-3, n_samples=6, seed=4)
    for xi, mats in zip(X, stacked):
        single = sample_clarke_jacobian(f, 1.0, xi, radius=1e-3, n_samples=6, seed=4)
        assert np.array_equal(np.array(single.matrices), mats)


# ---------------------------------------------------------------------------
# Stacked multistart Newton
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,w", [("ex4a", [0.3, 0.1]), ("ex4b", [0.4, -0.2]),
                                    ("ex4c", [1.5, 0.5]), ("ex3d", [0.7])])
def test_stacked_newton_equals_per_start_runs(entry, name, w):
    e = entry(name)
    f, D = e.nonlinearity, e.system.D
    w = np.asarray(w, dtype=float)
    opts = SolveOptions(max_iter=12)
    starts = _halton_starts(w, 10.0, 24, 0)
    Y, resid, iters, ok = _newton_stack(f, D, 1.3, w, starts, opts)
    for i, y0 in enumerate(starts):
        y, r, it, o = _newton(f, D, 1.3, w, y0, opts)
        assert np.array_equal(Y[i], y)
        assert resid[i] == r
        assert iters[i] == it
        assert ok[i] == o


@pytest.mark.parametrize("analytic", [False, True])
def test_stacked_newton_failures_match_per_start_runs(analytic):
    # evaluation fails left of -1 and the Jacobian is singular at 0.5:
    # starts there fail, stagnate or converge exactly as they do alone
    def fn(t, xi):
        if xi[0] < -1.0:
            raise EvaluationError("outside the domain", t=t, point=xi)
        return np.array([(xi[0] - 0.5) ** 2 + xi[0]])

    def jac(t, xi):
        return np.array([[2.0 * (xi[0] - 0.5) + 1.0]])

    f = Nonlinearity(m=1, p=1, fn=fn, jac=jac if analytic else None)
    D = np.array([[1.0]])
    w = np.array([-0.5])
    starts = np.array([[-2.0], [0.5], [3.0], [-0.9], [10.0], [0.0]])
    opts = SolveOptions(max_iter=30)
    Y, resid, iters, ok = _newton_stack(f, D, 0.0, w, starts, opts)
    for i, y0 in enumerate(starts):
        y, r, it, o = _newton(f, D, 0.0, w, y0, opts)
        assert (np.array_equal(Y[i], y), resid[i], iters[i], ok[i]) == (True, r, it, o)
    assert not ok.all()
