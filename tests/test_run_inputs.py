"""Run inputs are checked where they enter, and a solve that chooses among
several outputs is flagged on the sample it produced."""

import dataclasses
import math
from pathlib import Path

import pytest

from luresim import (ConfigurationError, InclusionOptions, SelectionPolicy,
                     SimOptions, SolveOptions, SystemMatrices, constant_input,
                     enumerate_fibre, enumerate_fibre_multistart,
                     parabolic_band, probe_fibre_convexity,
                     probe_fibre_nonempty, refine_escape_time, simulate,
                     simulate_inclusion, solve_output, summary_dict,
                     write_csv, zero_input)
from luresim import cli
from luresim.cli import main

NAN, INF = math.nan, math.inf
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run(e, integrator, t0=0.0, x0=None, **opts):
    x0 = e.x0 if x0 is None else x0
    if integrator == "simulate":
        return simulate(e.system, e.nonlinearity, e.input, t0, x0,
                        SimOptions(**{"tmax": 0.01, **opts}))
    return simulate_inclusion(e.system, e.nonlinearity, e.input, t0, x0,
                              SelectionPolicy.nearest_previous(),
                              InclusionOptions(**{"tmax": 0.01, **opts}))


BOTH = ("simulate", "simulate_inclusion")

# (field, bad input, integrators); the error names the field first
BAD_INPUTS = [
    ("t0", {"t0": NAN}, BOTH),
    ("t0", {"t0": -INF}, BOTH),
    ("x0", {"x0": [NAN]}, BOTH),
    ("x0", {"x0": [0.5, 0.5]}, BOTH),
    ("tmax", {"tmax": INF}, BOTH),
    ("tmax", {"tmax": NAN}, BOTH),
    ("tmax", {"tmax": 0.0}, BOTH),
    ("dt", {"dt": 0.0}, BOTH),
    ("dt", {"dt": -1e-3}, BOTH),
    ("dt_min", {"dt_min": 0.0}, BOTH),
    ("dt_min", {"dt_min": 1e-2, "dt": 1e-3}, BOTH),
    ("dt_max", {"dt_max": 0.0}, ("simulate",)),
    ("rtol", {"rtol": -1e-8, "method": "rk45_adaptive"}, ("simulate",)),
    ("atol", {"atol": 0.0}, ("simulate",)),
    ("blowup_threshold", {"blowup_threshold": -1.0}, BOTH),
    ("y_blowup_threshold", {"y_blowup_threshold": 0.0}, BOTH),
    ("jump_tol", {"jump_tol": NAN}, ("simulate_inclusion",)),
]


CASES = [(integrator, field, bad) for field, bad, integrators in BAD_INPUTS
         for integrator in integrators]


@pytest.mark.parametrize("integrator, field, bad", CASES,
                         ids=[f"{i}-{f}={v}" for i, f, v in CASES])
def test_bad_run_input_is_rejected_naming_its_field(entry, integrator, field, bad):
    e = entry("sec42a")
    with pytest.raises(ConfigurationError, match=rf"^{field} "):
        _run(e, integrator, **bad)


# (field, bad value) of the output-solver options
BAD_SOLVER = [
    ("tol_resid", -1.0), ("tol_resid", NAN), ("tol_resid", 0.0),
    ("tol_sep", NAN), ("tol_sep", -1e-6), ("tol_sep", INF),
    ("max_iter", 0), ("max_iter", 2.5),
    ("n_starts", -3), ("n_starts", 1.0),
    ("search_radius", -1.0), ("search_radius", INF), ("search_radius", NAN),
    ("seed", -1), ("seed", 1.5), ("seed", True),
]
SOLVER_CASES = [(integrator, field, bad) for field, bad in BAD_SOLVER
                for integrator in BOTH]


@pytest.mark.parametrize("integrator, field, bad", SOLVER_CASES,
                         ids=[f"{i}-{f}={v}" for i, f, v in SOLVER_CASES])
def test_bad_solver_option_is_rejected_naming_its_field(entry, integrator, field, bad):
    # on ex4a's Newton route tol_resid=-1 used to read as an output lost at t0
    e = entry("ex4a")
    name = "solver" if integrator == "simulate" else "fibre"
    with pytest.raises(ConfigurationError, match=rf"^{name}\.{field} "):
        _run(e, integrator, **{name: SolveOptions(**{field: bad})})


ONE_SHOT = {
    "solve_output": lambda e, o: solve_output(
        e.system, e.nonlinearity, 0.0, [0.5, 0.2], [0.0, 0.0], o),
    "enumerate_fibre_multistart": lambda e, o: enumerate_fibre_multistart(
        e.nonlinearity, e.system.D, 0.0, [0.5, 0.2], o),
    "enumerate_fibre": lambda e, o: enumerate_fibre(
        e.nonlinearity, e.system.D, 0.0, [0.5, 0.2], o),
    "probe_fibre_nonempty": lambda e, o: probe_fibre_nonempty(
        e.system, e.nonlinearity, (0.0, 1.0), n_w=2, fibre_opts=o),
    "probe_fibre_convexity": lambda e, o: probe_fibre_convexity(
        e.system, e.nonlinearity, (0.0, 1.0), n_w=2, fibre_opts=o),
}


@pytest.mark.parametrize("call", sorted(ONE_SHOT))
@pytest.mark.parametrize("field, bad", BAD_SOLVER[::2])
def test_one_shot_entries_reject_bad_solver_options(entry, call, field, bad):
    prefix = "fibre_opts\\." if call.startswith("probe") else ""
    with pytest.raises(ConfigurationError, match=rf"^{prefix}{field} "):
        ONE_SHOT[call](entry("ex4a"), SolveOptions(**{field: bad}))


@pytest.mark.parametrize("bad", [-1, 1.5, True])
def test_bad_seed_is_rejected_before_the_halton_starts(entry, bad):
    # scipy's Halton sampler used to raise a bare ValueError on seed=-1
    e = entry("ex4a")
    with pytest.raises(ConfigurationError, match=r"^seed must be an integer >= 0"):
        enumerate_fibre_multistart(e.nonlinearity, e.system.D, 0.0, [0.5, 0.2],
                                   SolveOptions(seed=bad))


def test_refine_escape_time_rejects_bad_solver_options(entry):
    e = entry("ex3b")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0, SimOptions(dt=1e-2))
    assert rec.termination.kind == "no_output_solution"
    with pytest.raises(ConfigurationError, match=r"^solver\.n_starts "):
        refine_escape_time(rec, e.system, e.nonlinearity, e.input,
                           opts=SimOptions(solver=SolveOptions(n_starts=-1)))


def test_edge_solver_options_pass(entry):
    e = entry("ex4a")
    opts = SolveOptions(n_starts=0, max_iter=1, use_structure=False)
    sol = solve_output(e.system, e.nonlinearity, 0.0, [0.5, 0.2], [0.3, 0.1], opts)
    assert sol.status == "not_converged" and sol.certificate["n_starts"] == 1
    # at the origin the Jacobian of F = |xi| R xi is singular: Newton stops
    sol = solve_output(e.system, e.nonlinearity, 0.0, [0.5, 0.2], [0.0, 0.0], opts)
    assert sol.status == "no_solution" and sol.certificate["n_starts"] == 1
    rec = _run(e, "simulate", solver=SolveOptions(n_starts=0, use_structure=False))
    assert rec.termination.kind == "reached_tmax"


def test_cli_bad_solver_option_exit_2(tmp_path, capsys, monkeypatch):
    # a configuration error, not the exit 3 of an output lost at t0
    monkeypatch.setattr(cli, "SolveOptions",
                        lambda **kw: SolveOptions(tol_resid=-1.0, **kw))
    code = main(["simulate", "--system", str(CONFIGS / "ex4a.json"),
                 "--tmax", "0.01", "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 2
    assert "solver.tol_resid must be finite and positive" in captured.err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("name", ["sec42a", "ex3b"])
def test_input_of_wrong_length_is_rejected(entry, name):
    # sec42a runs on floats, which would otherwise read only v(t)[0]
    e = entry(name)
    v = constant_input([0.1, 0.2])
    with pytest.raises(ConfigurationError, match=r"^v\(t0\) must have shape \(1,\)"):
        simulate(e.system, e.nonlinearity, v, 0.0, e.x0, SimOptions(tmax=0.01))
    with pytest.raises(ConfigurationError, match=r"^v\(t0\) "):
        simulate_inclusion(e.system, e.nonlinearity, v, 0.0, e.x0,
                           SelectionPolicy.nearest_previous(),
                           InclusionOptions(tmax=0.01))


@pytest.mark.parametrize("integrator", BOTH)
def test_good_run_inputs_pass(entry, integrator):
    rec = _run(entry("sec42a"), integrator, t0=-0.0, dt_min=1e-3, dt=1e-3)
    assert rec.termination.kind == "reached_tmax"


# ---------------------------------------------------------------------------
# Flagged choices among several outputs
# ---------------------------------------------------------------------------

def test_multiple_outputs_are_flagged(entry, tmp_path):
    # ex3c at x = 1/4 has the two-valued fibre {-1/2, 1/2} at every step
    e = entry("ex3c")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(dt=1e-3, tmax=0.05))
    assert rec.n_samples == 51 and rec.flags == ["multiple"] * 51
    # the flag is not part of the CSV or the summary
    plain = dataclasses.replace(rec, flags=[""] * rec.n_samples)
    write_csv(rec, tmp_path / "a.csv")
    write_csv(plain, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert summary_dict(rec) == summary_dict(plain)


def test_flag_clears_once_the_outputs_are_unique():
    # w = x = 0.1 e^t: parabolic_band has several outputs while w < 1/4
    # (t < ln 2.5) and one after; u does not feed back (B = 0)
    sys = SystemMatrices(A=[[1.0]], B=[[0.0]], B_e=[[0.0]], C=[[1.0]],
                         D=[[1.0]], D_e=[[0.0]])
    rec = simulate(sys, parabolic_band(), zero_input(1), 0.0, [0.1],
                   SimOptions(dt=1e-2, tmax=1.5))
    multiple = [flag == "multiple" for flag in rec.flags]
    assert multiple[0] and not multiple[-1]
    assert multiple == sorted(multiple, reverse=True)
    # the first sample whose whole step lies past the crossing
    assert 0.0 < rec.times[multiple.index(False)] - math.log(2.5) <= 2e-2


def test_unique_outputs_are_not_flagged(entry):
    e = entry("sec42c")
    rec = simulate(e.system, e.nonlinearity, e.input, 0.0, e.x0,
                   SimOptions(dt=1e-3, tmax=0.5))
    assert set(rec.flags) == {""}


def test_cli_counts_flagged_samples(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["simulate", "--system", str(CONFIGS / "ex3c.json"),
                 "--tmax", "0.05", "--dt", "1e-3", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ("note: at 51 of 51 samples a solve chose among "
                            "several outputs (nearest the warm start)\n")
    assert captured.out.startswith("{")
