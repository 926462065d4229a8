import dataclasses
import json
import math

import numpy as np
import pytest

from luresim import (EXAMPLE_NAMES, AnalyzerOptions, ConfigurationError,
                     Nonlinearity, ProbeGrid, SystemMatrices, analyze_system,
                     check_determinant_condition, check_growth_condition,
                     check_lower_lipschitz, check_monotonicity,
                     check_upper_lipschitz, enumerate_fibre_exact,
                     linear_nonlinearity, probe_fibre_convexity,
                     probe_fibre_nonempty, probe_radial_unboundedness,
                     theorem_applicability,
                     zero_nonlinearity)
from luresim import analyzer


def _identity_system(p=1):
    eye = np.eye(p)
    return SystemMatrices(A=eye, B=eye, B_e=eye, C=eye, D=eye,
                          D_e=np.zeros((p, 1)))


# ---------------------------------------------------------------------------
# Radial unboundedness
# ---------------------------------------------------------------------------

def test_radial_identity_passes():
    sys = _identity_system()
    rec = probe_radial_unboundedness(sys, zero_nonlinearity(1, 1))
    assert rec.verdict == "pass_sampled"
    # F = identity: tabulated minima equal the radii exactly
    assert np.allclose(rec.table["min_norm_F"], rec.table["radii"])


def test_radial_quadratic_growth(entry):
    e = entry("ex4a")
    grid = ProbeGrid(radii=tuple(float(2 ** k) for k in range(6)))
    rec = probe_radial_unboundedness(e.system, e.nonlinearity, grid)
    assert rec.verdict == "pass_sampled"
    assert np.allclose(rec.table["min_norm_F"],
                       [r ** 2 for r in rec.table["radii"]], atol=1e-10)


def test_radial_plateau_fails_with_witness(entry):
    e = entry("ex3a")
    rec = probe_radial_unboundedness(e.system, e.nonlinearity)
    assert rec.verdict == "fail_witness"
    assert rec.table["sigma"]["2.0"] is None
    # witness reproduces the plateau: ||F(xi)|| < 2 at a large point
    xi = np.asarray(rec.witness["xi"])
    val = np.linalg.norm(xi - e.system.D @ e.nonlinearity(rec.witness["t"], xi))
    assert val < rec.witness["rho_level"]


# ---------------------------------------------------------------------------
# Lipschitz pair estimates
# ---------------------------------------------------------------------------

def test_linear_map_ratio_bounded_by_operator_norm(rng):
    K = rng.standard_normal((2, 2))
    f = linear_nonlinearity(K)
    rec = check_upper_lipschitz(f, (0.0, 1.0), 2.0, n_pairs=4096, seed=1)
    opnorm = float(np.linalg.norm(K, 2))
    assert rec.margin <= opnorm + 1e-9
    assert rec.margin >= 0.8 * opnorm


def test_lower_lipschitz_collision_witness(entry):
    e = entry("ex3c")
    rec = check_lower_lipschitz(e.system, e.nonlinearity, (0.0, 10.0), 2.0)
    assert rec.verdict == "fail_witness"
    assert sorted([rec.witness["xi"][0], rec.witness["zeta"][0]]) == \
        pytest.approx([-0.5, 0.5], abs=1e-12)
    assert rec.witness["ratio"] == pytest.approx(0.0, abs=1e-12)


def test_lower_lipschitz_contractive_feedthrough(entry):
    # ||D (df)|| <= ||D|| = 1/2 keeps the lower quotient above 1 - ||D||
    e = entry("ex4b")
    rec = check_lower_lipschitz(e.system, e.nonlinearity, (0.0, 10.0), 2.0)
    assert rec.verdict == "pass_sampled"
    assert rec.margin >= 0.5 - 1e-6


# ---------------------------------------------------------------------------
# Determinant condition
# ---------------------------------------------------------------------------

def test_determinant_half_gain_passes(entry):
    e = entry("ex4c")
    rec = check_determinant_condition(e.nonlinearity, e.system.D, (0.0, 10.0),
                                      0.05)
    assert rec.verdict == "pass_sampled"
    # (1 - h)^p at the origin with h = 1/2 and p = 2
    assert rec.table["delta_hat"] >= 0.9 * 0.25


def test_determinant_unit_gain_fails_at_origin(entry):
    e = entry("ex4c", gain=1.0)
    rec = check_determinant_condition(e.nonlinearity, e.system.D, (0.0, 10.0),
                                      2.0)
    assert rec.verdict == "fail_witness"
    assert np.linalg.norm(rec.witness["xi"]) <= 1e-12
    assert abs(rec.witness["det"]) < 1e-6


def test_determinant_trivial_for_zero_map():
    rec = check_determinant_condition(zero_nonlinearity(2, 2), np.eye(2),
                                      (0.0, 1.0), 1.0)
    assert rec.verdict == "pass_sampled"
    assert rec.table["delta_hat"] == pytest.approx(1.0, abs=1e-9)


def test_determinant_linear_specialization(rng):
    # for f = K xi the check must agree exactly with the direct test on
    # |det(I - D K)|
    for _ in range(6):
        K = rng.standard_normal((2, 2))
        D = rng.standard_normal((2, 2))
        f = linear_nonlinearity(K)
        direct = abs(float(np.linalg.det(np.eye(2) - D @ K))) > 1e-6
        rec = check_determinant_condition(f, D, (0.0, 1.0), 2.0,
                                          clarke_samples=4)
        assert (rec.verdict == "pass_sampled") == direct


# ---------------------------------------------------------------------------
# Growth condition
# ---------------------------------------------------------------------------

def test_growth_normalized_gain_passes(entry):
    e = entry("ex4c")
    rec = check_growth_condition(e.nonlinearity, e.system.D, (0.0, 10.0))
    assert rec.verdict == "pass_sampled"
    # c_hat(rho) <= h / (1 + rho)
    for rho, c in rec.table["c_hat"].items():
        assert c <= 0.5 / (1.0 + float(rho)) + 1e-9


def test_growth_superlinear_fails(entry):
    e = entry("ex4a")
    rec = check_growth_condition(e.nonlinearity, e.system.D, (0.0, 10.0))
    assert rec.verdict == "fail_witness"
    xi = np.asarray(rec.witness["xi"])
    ratio = np.linalg.norm(e.nonlinearity(rec.witness["t"], xi)) / \
        np.linalg.norm(xi)
    assert ratio >= 1.0


def test_growth_bounded_map_passes(entry):
    e = entry("sec42a")
    rec = check_growth_condition(e.nonlinearity, e.system.D, (0.0, 10.0))
    assert rec.verdict == "pass_sampled"


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

def test_monotonicity_linear_symmetric(rng):
    # for f = K xi with D K symmetric the sampled maximum quotient
    # approaches the top eigenvalue
    D = np.eye(2)
    K = np.array([[0.4, 0.1], [0.1, -0.2]])
    f = linear_nonlinearity(K)
    rec = check_monotonicity(f, D, (0.0, 1.0), 2.0, n_pairs=1 << 16, seed=4)
    lam_max = float(np.max(np.linalg.eigvalsh(K)))
    assert rec.table["gamma1_hat"] == pytest.approx(lam_max, abs=1e-5)


def test_monotonicity_contractive_passes(entry):
    e = entry("ex4b")
    rec = check_monotonicity(e.nonlinearity, e.system.D, (0.0, 10.0), 2.0)
    assert rec.verdict == "pass_sampled"
    assert rec.table["gamma1_hat"] <= 0.5 + 1e-9


def test_monotonicity_passes_on_the_gamma_2_branch():
    # D f = 3 xi: every quotient is 3, so gamma_1 fails and gamma_2 holds
    rec = check_monotonicity(linear_nonlinearity([[3.0]]), [[1.0]], (0.0, 1.0), 2.0)
    assert rec.verdict == "pass_sampled" and rec.detail == "gamma_2 branch"
    assert rec.table["gamma1_hat"] == pytest.approx(3.0)
    assert rec.table["gamma2_hat"] == pytest.approx(3.0)
    assert rec.margin == pytest.approx(2.0)


def test_monotonicity_parabolic_band_fails(entry):
    # slope reaches 2 inside the band and 0 on the flats: both one-sided
    # branches are witnessed violated
    e = entry("ex3c")
    rec = check_monotonicity(e.nonlinearity, e.system.D, (0.0, 10.0), 2.0)
    assert rec.verdict == "fail_witness"
    assert rec.table["gamma1_hat"] > 1.5
    assert rec.table["gamma2_hat"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Fibre probes and aggregation
# ---------------------------------------------------------------------------

def test_fibre_nonempty_fails_off_band(entry):
    e = entry("ex3a")
    rec = probe_fibre_nonempty(e.system, e.nonlinearity, (0.0, 10.0))
    assert rec.verdict == "fail_witness"
    fib = enumerate_fibre_exact(e.nonlinearity, e.system.D,
                                rec.witness["t"], rec.witness["w"])
    assert fib.empty


def test_applicability_full_house(entry):
    e = entry("ex4c")
    report = analyze_system(e.system, e.nonlinearity)
    for tag in report.applicability:
        assert tag.granted, tag.name
        assert tag.qualifier == "sampled"


def test_applicability_no_existence_routes(entry):
    e = entry("ex3a")
    report = analyze_system(e.system, e.nonlinearity)
    assert not report.tag("existence_and_blowup").granted
    assert not report.tag("existence_and_blowup_inclusion").granted
    assert "radial_unbounded" in report.tag("existence_and_blowup").violated
    # the plateau witness travels into the report
    assert report.record("radial_unbounded").witness is not None


def test_applicability_uniqueness_denied(entry):
    e = entry("ex3c")
    report = analyze_system(e.system, e.nonlinearity)
    assert not report.tag("uniqueness").granted
    assert "lower_lipschitz" in report.tag("uniqueness").violated


def test_report_serializes(entry):
    import json
    e = entry("sec42a")
    report = analyze_system(e.system, e.nonlinearity)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert "radial_unbounded" in payload


# ---------------------------------------------------------------------------
# Witness reproducibility and monotone refinement
# ---------------------------------------------------------------------------

def _reevaluate(record, sys, f):
    """Re-check the violated inequality at the stored witness."""
    w = record.witness
    if record.name == "radial_unbounded":
        xi = np.asarray(w["xi"])
        return float(np.linalg.norm(xi - sys.D @ f(w["t"], xi))) \
            < w["rho_level"] - 1e-9
    if record.name == "lower_lipschitz":
        xi, zeta = np.asarray(w["xi"]), np.asarray(w["zeta"])
        num = np.linalg.norm((xi - sys.D @ f(w["t"], xi))
                             - (zeta - sys.D @ f(w["t"], zeta)))
        return num / np.linalg.norm(xi - zeta) < 1e-6
    if record.name == "determinant":
        from luresim import finite_diff_jacobian
        M = finite_diff_jacobian(f, w["t"], np.asarray(w["xi"]))
        return abs(np.linalg.det(np.eye(sys.D.shape[0]) - sys.D @ M)) < 1e-6 \
            or abs(w["det"]) < 1e-6
    if record.name == "growth":
        xi = np.asarray(w["xi"])
        dnorm = float(np.linalg.norm(sys.D, 2))
        return (np.linalg.norm(f(w["t"], xi)) / np.linalg.norm(xi)) * dnorm \
            >= 1.0 - 1e-9
    if record.name == "monotonicity":
        def ratio(ww):
            xi, zeta = np.asarray(ww["xi"]), np.asarray(ww["zeta"])
            diff = xi - zeta
            return float((sys.D @ (f(ww["t"], xi) - f(ww["t"], zeta))) @ diff
                         ) / float(diff @ diff)
        return ratio(w["gamma1"]) >= 1.0 - 1e-9 and ratio(w["gamma2"]) <= 1.0 + 1e-9
    return True


@pytest.mark.parametrize("name", ["ex3a", "ex3c", "ex4a"])
def test_fail_witnesses_reproduce(entry, name):
    e = entry(name)
    report = analyze_system(e.system, e.nonlinearity)
    for rec in report.records:
        if rec.verdict == "fail_witness" and rec.name != "fibre_nonempty" \
                and rec.name != "fibre_convex":
            assert _reevaluate(rec, e.system, e.nonlinearity), rec.name


def test_refinement_never_flips_fail_to_pass(entry):
    # a failure found at coarse settings is retained when the probe is
    # refined (the witness is carried and re-checked)
    e = entry("ex3a")
    coarse = probe_radial_unboundedness(
        e.system, e.nonlinearity,
        ProbeGrid(n_t=3, radii=(1.0, 4.0, 16.0, 256.0)))
    assert coarse.verdict == "fail_witness"
    fine = probe_radial_unboundedness(
        e.system, e.nonlinearity,
        ProbeGrid(n_t=50, radii=tuple(float(2 ** k) for k in range(11))),
        prior=coarse)
    assert fine.verdict == "fail_witness"

    e2 = entry("ex3c")
    c2 = check_lower_lipschitz(e2.system, e2.nonlinearity, (0.0, 10.0), 2.0,
                               n_pairs=128)
    f2 = check_lower_lipschitz(e2.system, e2.nonlinearity, (0.0, 10.0), 2.0,
                               n_pairs=8192, prior=c2)
    assert f2.verdict == "fail_witness"


def test_nested_sampling_monotone_margins(entry):
    # with a fixed seed the first n draws are a prefix of the first 2n,
    # so the sampled minimum can only shrink
    e = entry("ex3d")
    sys, f = e.system, e.nonlinearity
    small, large = (
        (check_lower_lipschitz(sys, f, (0.0, 10.0), 2.0, n_pairs=n, seed=7).margin,
         check_upper_lipschitz(f, (0.0, 10.0), 2.0, n_pairs=n, seed=7).margin)
        for n in (512, 4096))
    assert large[0] <= small[0] + 1e-15
    assert large[1] >= small[1] - 1e-15


def test_preimage_bound_cross_check(entry):
    # radial pass gives sigma(rho): every fibre point of targets with
    # ||w|| <= rho must lie inside the ball of radius sigma(rho)
    for name in ("ex3c", "sec42a", "sec42c"):
        e = entry(name)
        rec = probe_radial_unboundedness(e.system, e.nonlinearity)
        assert rec.verdict == "pass_sampled"
        sigma = rec.table["sigma"]["2.0"]
        assert sigma is not None
        rng = np.random.default_rng(3)
        for _ in range(40):
            wv = float(rng.uniform(-1.9, 1.9))
            fib = enumerate_fibre_exact(e.nonlinearity, e.system.D,
                                        float(rng.random() * 3.0), [wv])
            for pt in fib.points:
                assert abs(float(pt[0])) <= sigma
            for a, b in fib.segments:
                for end in (a, b):
                    if np.all(np.isfinite(end)):
                        assert abs(float(end[0])) <= sigma


def test_theorem_applicability_requires_route_records():
    report = theorem_applicability([])
    for tag in report.applicability:
        assert not tag.granted


# ---------------------------------------------------------------------------
# Options and the one sampling plan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", True), ("t_window", ("a", "b")),
    ("t_window", (5.0,)), ("t_window", (0.0, math.inf)),
    ("t_window", (0.0, math.nan))])
def test_analyzer_options_rejected_naming_the_field(entry, field, value):
    e = entry("ex3c")
    opts = AnalyzerOptions(**{field: value})
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        analyze_system(e.system, e.nonlinearity, opts)


_WINDOW_PROBES = {
    "upper": lambda sys, f, tw, box: check_upper_lipschitz(f, tw, box),
    "lower": lambda sys, f, tw, box: check_lower_lipschitz(sys, f, tw, box),
    "determinant": lambda sys, f, tw, box: check_determinant_condition(f, sys.D, tw, box),
    "growth": lambda sys, f, tw, box: check_growth_condition(f, sys.D, tw),
    "monotonicity": lambda sys, f, tw, box: check_monotonicity(f, sys.D, tw, box),
    "nonempty": lambda sys, f, tw, box: probe_fibre_nonempty(sys, f, tw),
    "convexity": lambda sys, f, tw, box: probe_fibre_convexity(sys, f, tw),
}


@pytest.mark.parametrize("probe", sorted(_WINDOW_PROBES))
@pytest.mark.parametrize("t_window", [(math.nan, 1.0), (5.0, 1.0), (0.0, math.inf)])
def test_probes_reject_a_bad_window(entry, probe, t_window):
    # sec42c's lower and determinant probes once failed with a witness at
    # t = nan, and every probe took (5, 1) and (0, inf)
    e = entry("sec42c")
    with pytest.raises(ConfigurationError, match="^t_window must be"):
        _WINDOW_PROBES[probe](e.system, e.nonlinearity, t_window, 2.0)


@pytest.mark.parametrize("probe", ["upper", "lower", "determinant", "monotonicity"])
@pytest.mark.parametrize("box", [0.0, -2.0, math.inf, math.nan, (1.0, -1.0),
                                 (0.0, math.inf), (1.0,), True])
def test_probes_reject_a_bad_box(entry, probe, box):
    # box=0.0 once passed the upper probe with margin -inf and no witness
    e = entry("sec42c")
    with pytest.raises(ConfigurationError, match="^box must be"):
        _WINDOW_PROBES[probe](e.system, e.nonlinearity, (0.0, 1.0), box)


def test_a_box_reads_as_its_half_width(entry):
    f = entry("sec42c").nonlinearity
    assert (_dump([check_upper_lipschitz(f, (0, 1), 2, seed=3)])
            == _dump([check_upper_lipschitz(f, (0.0, 1.0), (-2.0, 2.0), seed=3)]))


def _dump(records):
    return json.dumps([dataclasses.asdict(rec) for rec in records], sort_keys=True)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
@pytest.mark.parametrize("t_window, seed", [((0.0, 10.0), 0), ((0.5, 3.0), 11)])
def test_audit_equals_its_probes_called_alone(entry, name, t_window, seed):
    # the audit samples as each probe does by default on the cube of
    # half-width 2, at the same window and seed
    e = entry(name)
    sys, f, D = e.system, e.nonlinearity, e.system.D
    alone = [
        probe_radial_unboundedness(sys, f, ProbeGrid(t_window=t_window, seed=seed)),
        check_upper_lipschitz(f, t_window, 2.0, seed=seed),
        check_lower_lipschitz(sys, f, t_window, 2.0, seed=seed),
        check_determinant_condition(f, D, t_window, 2.0, seed=seed),
        check_growth_condition(f, D, t_window, seed=seed),
        check_monotonicity(f, D, t_window, 2.0, seed=seed),
        probe_fibre_nonempty(sys, f, t_window, seed=seed),
        probe_fibre_convexity(sys, f, t_window, seed=seed),
    ]
    report = analyze_system(sys, f, AnalyzerOptions(t_window=t_window, seed=seed))
    assert _dump(report.records) == _dump(alone)


@pytest.mark.parametrize("name, rows, fibres", [
    ("ex3c", 13541, 65), ("ex4a", None, 40), ("sec42a", None, 160)])
def test_audit_draws_and_evaluates_each_shared_sample_once(entry, monkeypatch,
                                                            name, rows, fibres):
    # ex3c evaluates f on 8192 shared pair rows, 50 collision and 60 slope
    # rows in its pair stage, where three pair probes once took 24,686 of
    # 29,925 rows; each of the 40 sampled fibres is enumerated once, and the
    # convexity probe adds the fibres at the collision outputs (25 on ex3c,
    # 120 on sec42a)
    counts = {"rows": 0, "fibres": 0}
    stack_values, enumerate_fibre = Nonlinearity._stack_values, analyzer.enumerate_fibre

    def counted_stack(self, t, X, strict):
        counts["rows"] += X.shape[0]
        return stack_values(self, t, X, strict)

    def counted_fibre(*args):
        counts["fibres"] += 1
        return enumerate_fibre(*args)

    monkeypatch.setattr(Nonlinearity, "_stack_values", counted_stack)
    monkeypatch.setattr(analyzer, "enumerate_fibre", counted_fibre)
    e = entry(name)
    analyze_system(e.system, e.nonlinearity)
    assert counts["fibres"] == fibres
    assert rows is None or counts["rows"] == rows
