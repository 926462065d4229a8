import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luresim import (ConfigurationError, SystemMatrices, constant_input,
                     eval_F, gronwall_bound, normalized_gain,
                     piecewise_constant_input, polynomial_input,
                     rotated_radial, zero_input, zero_nonlinearity)
from luresim.system import scalar_feedthrough


def test_dimensions_inferred():
    sys = SystemMatrices(A=np.eye(3), B=np.ones((3, 2)), B_e=np.ones((3, 1)),
                         C=np.ones((2, 3)), D=np.zeros((2, 2)),
                         D_e=np.zeros((2, 1)))
    assert sys.dims == (3, 2, 1, 2)


@pytest.mark.parametrize("bad", [
    dict(B=np.ones((2, 2))),                  # wrong row count
    dict(C=np.ones((2, 4))),                  # wrong width
    dict(D_e=np.ones((3, 1))),                # wrong row count
    dict(A=np.full((3, 3), np.nan)),          # non-finite
])
def test_construction_rejects_mismatches(bad):
    base = dict(A=np.eye(3), B=np.ones((3, 2)), B_e=np.ones((3, 1)),
                C=np.ones((2, 3)), D=np.zeros((2, 2)), D_e=np.zeros((2, 1)))
    base.update(bad)
    with pytest.raises(ConfigurationError):
        SystemMatrices(**base)


def test_scalar_feedthrough_detection():
    sys = SystemMatrices(A=np.eye(2), B=np.eye(2), B_e=np.eye(2), C=np.eye(2),
                         D=0.5 * np.eye(2), D_e=np.zeros((2, 2)))
    assert sys.scalar_feedthrough() == 0.5
    sys2 = SystemMatrices(A=np.eye(2), B=np.eye(2), B_e=np.eye(2), C=np.eye(2),
                          D=np.array([[0.5, 0.1], [0.0, 0.5]]),
                          D_e=np.zeros((2, 2)))
    assert sys2.scalar_feedthrough() is None


@pytest.mark.parametrize("D,expected", [
    ([[-0.5, 0.0], [0.0, -0.5]], -0.5),
    ([[-2.0]], -2.0),
    ([[0.0, 0.0], [0.0, 0.0]], 0.0),
    ([[1.0, -0.0], [0.0, 1.0]], 1.0),
    ([[1.0, 0.0], [0.0, 1.0 + 1e-15]], None),
    ([[1.0, 1e-300], [0.0, 1.0]], None),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], None),
    ([[math.inf]], math.inf),
    ([[math.inf, 0.0], [0.0, math.inf]], None),
    ([[math.nan]], None),
])
def test_scalar_feedthrough_matches_multiple_of_identity(D, expected):
    # the entry-wise test gives what comparing with d * I gives
    D = np.array(D)
    d = float(D[0, 0])
    with np.errstate(invalid="ignore"):
        reference = (d if D.shape[0] == D.shape[1]
                     and np.array_equal(D, d * np.eye(D.shape[0])) else None)
    assert scalar_feedthrough(D) == expected == reference


def test_eval_F_identity_when_f_vanishes():
    sys = SystemMatrices(A=np.eye(2), B=np.eye(2), B_e=np.eye(2), C=np.eye(2),
                         D=np.array([[3.0, -1.0], [2.0, 0.5]]),
                         D_e=np.zeros((2, 2)))
    out = eval_F(sys, zero_nonlinearity(2, 2), 0.3, [3.0, -1.0])
    assert np.array_equal(out, [3.0, -1.0])


def test_eval_F_on_bounded_range_example(entry):
    # xi - f(xi) = 1 on the upper constant branch (xi > 2).
    e = entry("ex3b")
    out = eval_F(e.system, e.nonlinearity, 0.0, [3.0])
    assert out == pytest.approx([1.0], abs=1e-15)


def test_eval_F_on_normalized_gain():
    # p = 1 variant with h = 1/2: (1 - 1/2 + 1)/(1 + 1) = 0.75 at xi = 1.
    f = normalized_gain(gain=0.5, p=1)
    sys = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[1.0]], D_e=[[0.0]])
    out = eval_F(sys, f, 0.0, [1.0])
    assert out == pytest.approx([0.75], abs=1e-15)


def test_eval_F_dimension_mismatch():
    sys = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                         D=[[1.0]], D_e=[[0.0]])
    with pytest.raises(ConfigurationError):
        eval_F(sys, zero_nonlinearity(1, 1), 0.0, [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_eval_F_algebraic_identity(seed):
    # eval_F + D f(t, xi) recovers xi exactly.
    gen = np.random.default_rng(seed)
    p, m = int(gen.integers(1, 4)), int(gen.integers(1, 4))
    n = int(gen.integers(1, 4))
    sys = SystemMatrices(A=gen.standard_normal((n, n)),
                         B=gen.standard_normal((n, m)),
                         B_e=gen.standard_normal((n, 1)),
                         C=gen.standard_normal((p, n)),
                         D=gen.standard_normal((p, m)),
                         D_e=gen.standard_normal((p, 1)))
    K = gen.standard_normal((m, p))
    from luresim import linear_nonlinearity
    f = linear_nonlinearity(K)
    xi = gen.standard_normal(p)
    t = float(gen.random() * 5)
    recon = eval_F(sys, f, t, xi) + sys.D @ f(t, xi)
    assert np.allclose(recon, xi, rtol=0, atol=1e-12)


def test_rotating_radial_norm_identity(rng):
    # ||xi - D f(t, xi)|| equals g(||xi||) ||xi|| = ||xi||^2 for all t.
    f = rotated_radial()
    sys = SystemMatrices(A=np.zeros((2, 2)), B=np.eye(2), B_e=np.eye(2),
                         C=np.eye(2), D=np.eye(2), D_e=np.zeros((2, 2)))
    for _ in range(300):
        t = float(rng.random() * 12.0)
        xi = rng.standard_normal(2) * 2.0
        lhs = float(np.linalg.norm(eval_F(sys, f, t, xi)))
        assert abs(lhs - float(xi @ xi)) < 1e-10


# ---------------------------------------------------------------------------
# Integral-inequality bound
# ---------------------------------------------------------------------------

def test_gronwall_zero_integrand():
    grid = np.linspace(0.0, 3.0, 50)
    bound = gronwall_bound(1.0, np.zeros_like(grid), 0.0, grid)
    assert np.array_equal(bound, np.ones_like(grid))


def test_gronwall_constant_integrand():
    grid = np.linspace(0.0, 1.0, 11)
    bound = gronwall_bound(2.0, np.full_like(grid, 3.0), 0.0, grid)
    # trapezoid is exact for constants: 2 e^{3t}
    assert abs(bound[-1] - 2.0 * math.exp(3.0)) < 1e-9


def test_gronwall_linear_integrand_closed_form():
    # h(s) = s integrates to t^2/2, so the bound is e^{t^2/2}; at t = 2
    # that is e^2.
    grid = np.linspace(0.0, 2.0, 1000)
    bound = gronwall_bound(1.0, grid.copy(), 0.0, grid)
    assert abs(bound[-1] - math.exp(2.0)) < 1e-4
    expected = np.exp(grid ** 2 / 2.0)
    assert np.max(np.abs(bound - expected)) < 1e-4


def test_gronwall_rejects_negative_samples():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        gronwall_bound(1.0, np.array([0.0, 1.0, -0.1, 1.0, 1.0]), 0.0, grid)


# ---------------------------------------------------------------------------
# Input signals
# ---------------------------------------------------------------------------

def test_input_signal_representations():
    assert np.array_equal(zero_input(2)(3.0), [0.0, 0.0])
    assert np.array_equal(constant_input([1.0, -2.0])(9.9), [1.0, -2.0])
    poly = polynomial_input([[0.0], [1.0]])        # v(t) = t
    assert poly(2.5) == pytest.approx([2.5])
    table = piecewise_constant_input([1.0, 2.0], [[0.0], [5.0], [-1.0]])
    assert table(0.5) == pytest.approx([0.0])
    assert table(1.5) == pytest.approx([5.0])
    assert table(2.5) == pytest.approx([-1.0])


def test_table_input_requires_increasing_times():
    with pytest.raises(ConfigurationError):
        piecewise_constant_input([2.0, 1.0], [[0.0], [1.0], [2.0]])
