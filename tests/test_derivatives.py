import math

import numpy as np
import pytest

from luresim import (EvaluationError, Nonlinearity, check_upper_lipschitz,
                     deadzone_saturation, finite_diff_jacobian,
                     identity_minus_atan, linear_nonlinearity,
                     normalized_rotation, parabolic_band,
                     sample_clarke_jacobian)


def test_linear_map_reproduced_to_roundoff(rng):
    K = rng.standard_normal((3, 2))
    f = linear_nonlinearity(K)
    J = finite_diff_jacobian(f, 0.0, rng.standard_normal(2), h=1e-5)
    assert np.max(np.abs(J - K)) < 1e-10


def test_atan_composition_flat_at_origin():
    # derivative of xi - atan(xi) is 1 - 1/(1+xi^2), zero at the origin
    f = identity_minus_atan()
    J = finite_diff_jacobian(f, 0.0, np.array([0.0]), h=1e-5)
    assert abs(J[0, 0]) < 1e-9


def test_normalized_rotation_identity_frame_at_origin():
    f = Nonlinearity(m=2, p=2, fn=lambda t, xi: xi / math.sqrt(1.0 + float(xi @ xi)))
    J = finite_diff_jacobian(f, 0.3, np.zeros(2))
    assert np.max(np.abs(J - np.eye(2))) < 1e-8


def test_nonfinite_evaluation_reported_with_point():
    with np.errstate(invalid="ignore"):
        f = Nonlinearity(m=1, p=1,
                         fn=lambda t, xi: np.array([np.sqrt(xi[0])]))
        with pytest.raises(EvaluationError):
            finite_diff_jacobian(f, 0.0, np.array([0.0]), h=1e-6)


# ---------------------------------------------------------------------------
# Sampled Clarke generators
# ---------------------------------------------------------------------------

def test_smooth_map_gives_singleton_cluster():
    f = normalized_rotation()
    xi = np.array([0.4, -0.2])
    centre = finite_diff_jacobian(f, 1.0, xi)
    sample = sample_clarke_jacobian(f, 1.0, xi, radius=1e-7, n_samples=16,
                                    seed=3)
    for M in sample.matrices:
        assert np.max(np.abs(M - centre)) < 1e-6


def test_deadzone_kink_shows_two_slopes():
    # xi = 0.3 is the deadzone edge: slopes cluster at 0 and 1.
    f = deadzone_saturation(0.3)
    sample = sample_clarke_jacobian(f, 0.0, np.array([0.3]), radius=1e-3,
                                    n_samples=32, seed=0)
    slopes = np.array([M[0, 0] for M in sample.matrices])
    near0 = np.abs(slopes) < 1e-3
    near1 = np.abs(slopes - 1.0) < 1e-3
    # With this seed no sample straddles the kink within the step size.
    assert np.all(near0 | near1)
    assert near0.any() and near1.any()


def test_composition_with_matrix_factor_is_exact():
    g = deadzone_saturation(0.3)
    L = 2.0
    Lg = Nonlinearity(m=1, p=1, fn=lambda t, xi: L * g(t, xi), name="Lg")
    for seed, x in ((0, 0.3), (7, -0.85), (12, 1.1)):
        s_g = sample_clarke_jacobian(g, 0.0, np.array([x]), radius=1e-4,
                                     n_samples=16, seed=seed)
        s_Lg = sample_clarke_jacobian(Lg, 0.0, np.array([x]), radius=1e-4,
                                      n_samples=16, seed=seed)
        for Mg, MLg in zip(s_g.matrices, s_Lg.matrices):
            assert np.max(np.abs(MLg - L * Mg)) < 1e-12


def test_reproducible_for_fixed_seed():
    f = parabolic_band()
    a = sample_clarke_jacobian(f, 0.0, np.array([0.2]), seed=9)
    b = sample_clarke_jacobian(f, 0.0, np.array([0.2]), seed=9)
    for Ma, Mb in zip(a.matrices, b.matrices):
        assert np.array_equal(Ma, Mb)


@pytest.mark.parametrize("factory", [deadzone_saturation, parabolic_band,
                                     identity_minus_atan])
def test_lipschitz_bound_transfer(factory):
    # Empirical difference quotients never exceed the largest operator norm
    # over a dense Clarke sample of the box (derivative bounds transfer to
    # increments).
    f = factory()
    b_hat = 0.0
    for x in np.linspace(-2.0, 2.0, 41):
        sample = sample_clarke_jacobian(f, 0.0, np.array([x]), radius=1e-4,
                                        n_samples=8, seed=5)
        b_hat = max(b_hat, sample.max_norm())
    rec = check_upper_lipschitz(f, (0.0, 1.0), (-2.0, 2.0), n_pairs=2000,
                                seed=11)
    assert rec.margin <= (1.0 + 1e-6) * b_hat
