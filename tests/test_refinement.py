"""A failure found at coarse settings survives a refined probe that misses it.

Each probe that takes ``prior`` is run on a setting where its own samples
pass, with a coarse ``fail_witness`` record whose witness violates the
hypothesis outside the refined samples; the witness must be retained.
"""

import numpy as np
import pytest

from luresim import (CheckRecord, Nonlinearity, SystemMatrices,
                     check_determinant_condition, check_growth_condition,
                     check_lower_lipschitz, check_monotonicity,
                     halfband_slopes, probe_fibre_convexity,
                     probe_fibre_nonempty, probe_radial_unboundedness,
                     zero_nonlinearity)


def _scalar_system(C=1.0):
    return SystemMatrices(A=[[-1.0]], B=[[1.0]], B_e=[[0.0]], C=[[C]],
                          D=[[1.0]], D_e=[[0.0]])


def _opaque(fn):
    """A scalar nonlinearity without exact structure (no collision pairs)."""
    return Nonlinearity(m=1, p=1, fn=lambda t, xi: np.array([fn(float(xi[0]))]))


# f(x) = max(x - 10, 0): F = x - f is the identity on the box and flat
# beyond 10, where the Jacobian of f is 1.
_FLAT_BEYOND_10 = _opaque(lambda x: max(x - 10.0, 0.0))


def _parabolic_band(x):
    if x < -0.5:
        return -0.75
    return x * (1.0 - x) if x <= 0.5 else 0.25


CASES = {
    "radial_unbounded": (
        lambda prior: probe_radial_unboundedness(
            _scalar_system(), zero_nonlinearity(1, 1), prior=prior),
        {"t": 0.0, "xi": [0.5], "norm_F": 0.5, "rho_level": 1.0}),
    "lower_lipschitz": (
        lambda prior: check_lower_lipschitz(
            _scalar_system(), _FLAT_BEYOND_10, (0.0, 1.0), 2.0, n_pairs=256,
            prior=prior),
        {"t": 0.0, "xi": [11.0], "zeta": [12.0], "ratio": 0.0}),
    "determinant": (
        lambda prior: check_determinant_condition(
            _FLAT_BEYOND_10, [[1.0]], (0.0, 1.0), 2.0, n_t=2, n_xi=4,
            clarke_samples=4, prior=prior),
        {"t": 0.0, "xi": [11.0], "det": 0.0}),
    "growth": (
        lambda prior: check_growth_condition(
            _opaque(lambda x: 0.5 * x if abs(x) <= 100.0 else 2.0 * x),
            [[1.0]], (0.0, 1.0), n_t=2, prior=prior),
        {"t": 0.0, "xi": [200.0], "ratio": 2.0}),
    "monotonicity": (
        lambda prior: check_monotonicity(
            _opaque(lambda x: 0.5 * x if x <= 10.0 else 5.0 + 3.0 * (x - 10.0)),
            [[1.0]], (0.0, 1.0), 2.0, n_pairs=256, prior=prior),
        {"gamma1": {"t": 0.0, "xi": [11.0], "zeta": [12.0], "ratio": 3.0},
         "gamma2": {"t": 0.0, "xi": [0.0], "zeta": [1.0], "ratio": 0.5}}),
    "fibre_nonempty": (
        # outputs 0.1 x stay inside the range [-1, 1] of xi - f(xi)
        lambda prior: probe_fibre_nonempty(
            _scalar_system(C=0.1), halfband_slopes(), (0.0, 1.0), n_w=16,
            prior=prior),
        {"t": 0.0, "w": [1.5]}),
    "fibre_convex": (
        # outputs 10 x almost never land in (0, 1/4), where fibres are
        # two points with a nonconvex image
        lambda prior: probe_fibre_convexity(
            _scalar_system(C=10.0), _opaque(_parabolic_band), (0.0, 1.0),
            n_w=8, prior=prior),
        {"t": 0.0, "w": [0.1]}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refined_probe_keeps_coarse_witness(name):
    run, witness = CASES[name]
    refined = run(None)
    assert refined.name == name
    assert refined.verdict != "fail_witness"      # the refined samples miss it
    prior = CheckRecord(name=name, verdict="fail_witness", margin=-1.0,
                        witness=witness, detail="coarse")
    merged = run(prior)
    assert merged.verdict == "fail_witness"
    assert merged.witness is witness
    assert merged.detail == "witness retained from coarser probe"
    assert merged.margin == min(refined.margin, prior.margin)


@pytest.mark.parametrize("name", sorted(CASES))
def test_passing_prior_is_ignored(name):
    # a coarse record that is not a failure leaves the refined record alone
    run, witness = CASES[name]
    prior = CheckRecord(name=name, verdict="pass_sampled", margin=1.0,
                        witness=witness)
    merged = run(prior)
    assert merged.verdict == run(None).verdict
    assert merged.witness is not witness
