import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from luresim import (EXAMPLE_NAMES, ConfigurationError, ScalarPiece,
                     build_example, config_text, deadzone_saturation,
                     entry_to_config, enumerate_fibre_exact, parse_config,
                     piecewise_scalar, saturation_scaled)
from luresim.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_round_trip_every_entry(entry, name):
    e = entry(name)
    cfg = parse_config(config_text(e))
    for key in ("A", "B", "B_e", "C", "D", "D_e"):
        assert np.array_equal(getattr(cfg.system, key), getattr(e.system, key))
    assert cfg.nonlinearity.name == e.nonlinearity.name
    assert cfg.nonlinearity.params == e.nonlinearity.params
    assert cfg.input.kind == e.input.kind
    assert np.array_equal(cfg.defaults["x0"], e.x0)
    assert cfg.defaults["tmax"] == e.tmax
    # behavioural agreement on sampled points
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = float(rng.random() * 3.0)
        xi = rng.standard_normal(e.nonlinearity.p)
        assert np.allclose(cfg.nonlinearity(t, xi), e.nonlinearity(t, xi),
                           atol=1e-12)
        assert np.allclose(cfg.input(t), e.input(t), atol=1e-15)


@pytest.mark.parametrize("name, params", [
    ("ex4a", {"angle": "2*t"}), ("sec42a", {"width": "0.5"}),
    ("sec42c", {"gain": 0.5}), ("ex4c", {"gain": "0.5+0*t"}),
])
def test_round_trip_of_entry_parameters(name, params):
    # a parameter given to the catalog is written as given, so the config
    # reloads the same map, bit for bit
    e = build_example(name, **params)
    cfg = parse_config(config_text(e))
    assert cfg.nonlinearity.params == e.nonlinearity.params
    assert all(e.nonlinearity.params[key] == value for key, value in params.items())
    p = e.nonlinearity.p
    for t in (0.0, 0.3, 1.3, 2.5):
        for xi in (np.full(p, 0.4), np.linspace(-1.7, 1.1, p), np.full(p, 1.2)):
            want = e.nonlinearity(t, xi)
            assert cfg.nonlinearity(t, xi).tobytes() == want.tobytes()


def _with_builtin(doc, name, params):
    doc["nonlinearity"] = {"builtin": {"name": name, "params": params}}
    return json.dumps(doc)


@pytest.mark.parametrize("name, key, value", [
    ("rotated_radial", "angle", 0.5),
    ("normalized_gain", "p", None),
    ("normalized_gain", "p", True),
    ("normalized_gain", "p", 0),
    ("normalized_rotation", "omega", "x"),
    ("normalized_rotation", "p", 3),
    ("saturation_scaled", "gain", [1.0]),
    ("linear", "K", [["a", 1.0], [0.0, 1.0]]),
    ("linear", "K", [[1.0, 0.0], [0.0]]),
    ("linear", "K", [[float("inf"), 0.0], [0.0, 1.0]]),
])
def test_bad_builtin_parameter_is_rejected_naming_it(entry, name, key, value):
    doc = entry_to_config(entry("ex4b"))          # n = m = p = 2
    with pytest.raises(ConfigurationError,
                       match=rf"^nonlinearity\.builtin\.params\.{key}: "):
        parse_config(_with_builtin(doc, name, {key: value}))


def test_builtin_parameters_missing_or_unknown(entry):
    doc = entry_to_config(entry("ex4b"))
    with pytest.raises(ConfigurationError,
                       match=r"^nonlinearity\.builtin\.params\.K: required"):
        parse_config(_with_builtin(doc, "linear", {}))
    with pytest.raises(ConfigurationError, match=r"unknown parameters \['q'\]"):
        parse_config(_with_builtin(doc, "rotated_radial", {"q": 1}))
    with pytest.raises(ConfigurationError, match="unknown builtin 'nope'"):
        parse_config(_with_builtin(doc, "nope", {}))
    cfg = parse_config(_with_builtin(doc, "linear", {"K": [[2, 0], [0, 1]]}))
    assert cfg.nonlinearity.params == {"K": [[2.0, 0.0], [0.0, 1.0]]}


def test_shipped_configs_match_catalog(entry):
    for name in EXAMPLE_NAMES:
        path = CONFIG_DIR / f"{name}.json"
        assert path.exists(), f"missing shipped config {path}"
        cfg = parse_config(path.read_text())
        e = entry(name)
        assert np.array_equal(cfg.system.A, e.system.A)
        assert cfg.nonlinearity.name == e.nonlinearity.name
        xi = np.full(e.nonlinearity.p, 0.3)
        assert np.allclose(cfg.nonlinearity(0.7, xi),
                           e.nonlinearity(0.7, xi), atol=1e-12)


def test_dimension_error_names_matrix(entry):
    doc = entry_to_config(entry("ex3b"))
    doc["matrices"]["C"] = [[1.0, 0.0, 5.0]]      # wrong width
    with pytest.raises(ConfigurationError, match="matrices.C"):
        parse_config(json.dumps(doc))


def test_unknown_fields_rejected(entry):
    doc = entry_to_config(entry("ex3c"))
    doc["surprise"] = 1
    with pytest.raises(ConfigurationError, match="surprise"):
        parse_config(json.dumps(doc))
    doc = entry_to_config(entry("ex3c"))
    doc["defaults"]["dtmax"] = 1.0
    with pytest.raises(ConfigurationError, match="defaults"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("t0", "x"), ("t0", float("nan")), ("tmax", None), ("dt", True),
    ("dt", 0.0), ("dt", -1e-3), ("tmax", 0.0), ("tmax", -0.5),
])
def test_bad_default_time_is_rejected_naming_it(entry, field, value):
    # ex3b's defaults start at t0 = 0, so tmax 0 or below ends before it
    doc = entry_to_config(entry("ex3b"))
    doc["defaults"][field] = value
    with pytest.raises(ConfigurationError, match=rf"^defaults\.{field}: expected"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("value, field", [
    (["a", 1], r"defaults\.x0\[0\]"), ([1.0, None], r"defaults\.x0\[1\]"),
    ([[1.0, 0.0]], r"defaults\.x0"), (1.5, r"defaults\.x0"),
])
def test_bad_default_x0_is_rejected_naming_it(entry, value, field):
    doc = entry_to_config(entry("ex3a"))          # n = 2
    doc["defaults"]["x0"] = value
    with pytest.raises(ConfigurationError, match=rf"^{field}: "):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("value", ["one", 1.0, 0, True])
def test_bad_zero_input_m_e_is_rejected_naming_it(entry, value):
    doc = entry_to_config(entry("ex3a"))
    doc["input"] = {"zero": {"m_e": value}}
    with pytest.raises(ConfigurationError,
                       match=r"^input\.zero\.m_e: expected an integer"):
        parse_config(json.dumps(doc))


def test_cli_bad_default_exits_2_naming_it(tmp_path, entry, capsys):
    doc = entry_to_config(entry("ex3b"))
    doc["defaults"]["t0"] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["simulate", "--system", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "defaults.t0" in err and "Traceback" not in err


def test_entry_to_config_refuses_unrecorded_parameter(entry):
    e = dataclasses.replace(entry("sec42a"),
                            nonlinearity=deadzone_saturation(width=lambda t: 0.5))
    with pytest.raises(ConfigurationError,
                       match=r"^nonlinearity\.builtin\.params\.width: "):
        entry_to_config(e)
    e = dataclasses.replace(e, nonlinearity=deadzone_saturation(width=0.5))
    assert parse_config(config_text(e)).nonlinearity.params == {"width": 0.5}


def test_entry_to_config_refuses_non_builtin(entry):
    e = dataclasses.replace(entry("ex3b"), nonlinearity=piecewise_scalar(
        (ScalarPiece(lo=-math.inf, hi=math.inf, c1=0.5),), name="half"))
    with pytest.raises(ConfigurationError, match=r"^nonlinearity\.builtin\.name: "):
        entry_to_config(e)


def test_parse_error_carries_location():
    with pytest.raises(ConfigurationError, match="line"):
        parse_config("{ not json }")


def test_expression_nonlinearity_matches_atan(entry):
    e = entry("ex3d")
    doc = entry_to_config(e)
    doc["nonlinearity"] = {"expression": ["xi_1 - atan(xi_1)"]}
    cfg = parse_config(json.dumps(doc))
    rng = np.random.default_rng(0)
    for _ in range(30):
        x = float(rng.standard_normal() * 3)
        want = x - math.atan(x)
        assert cfg.nonlinearity(0.0, [x]) == pytest.approx([want], abs=1e-12)


def test_expression_rejects_unknown_names(entry):
    doc = entry_to_config(entry("ex3d"))
    doc["nonlinearity"] = {"expression": ["xi_2 + 1"]}    # p = 1
    with pytest.raises(ConfigurationError):
        parse_config(json.dumps(doc))
    doc["nonlinearity"] = {"expression": ["__import__('os')"]}
    with pytest.raises(ConfigurationError):
        parse_config(json.dumps(doc))


def test_input_dimension_mismatch(entry):
    doc = entry_to_config(entry("ex3b"))
    doc["input"] = {"constant": [1.0, 2.0]}       # m_e = 1
    with pytest.raises(ConfigurationError, match="input"):
        parse_config(json.dumps(doc))


def test_nonlinearity_dimension_mismatch(entry):
    doc = entry_to_config(entry("ex4c"))          # D is 2 x 2
    doc["nonlinearity"] = {"builtin": {"name": "parabolic_band", "params": {}}}
    with pytest.raises(ConfigurationError, match="nonlinearity"):
        parse_config(json.dumps(doc))


def test_piecewise_scalar_config(entry):
    doc = entry_to_config(entry("ex3c"))
    doc["nonlinearity"] = {"piecewise_scalar": {"pieces": [
        {"lo": "-inf", "hi": -0.5, "poly": [-0.75]},
        {"lo": -0.5, "hi": 0.5, "poly": [0.0, 1.0, -1.0]},
        {"lo": 0.5, "hi": "inf", "poly": [0.25]},
    ]}}
    cfg = parse_config(json.dumps(doc))
    assert cfg.nonlinearity.kind == "piecewise_scalar"
    assert cfg.nonlinearity(0.0, [0.2]) == pytest.approx([0.16])


NAN_EDGES = [{"lo": "-inf", "hi": math.nan, "poly": [0, 1]},
             {"lo": math.nan, "hi": "inf", "poly": [0, 2]}]


@pytest.mark.parametrize("pieces, field", [
    (NAN_EDGES, "pieces[0].hi"),
    ([{"lo": "-inf", "hi": 0.0, "poly": [0, math.nan]},
      {"lo": 0.0, "hi": "inf", "poly": [0, 2]}], "pieces[0].poly"),
    ([{"lo": "-inf", "hi": "inf", "poly": [math.inf]}], "pieces[0].poly"),
])
def test_cli_fibre_rejects_a_non_finite_piece_naming_it(tmp_path, entry, capsys,
                                                        pieces, field):
    # NaN edges once gave an exact certificate of an empty fibre, exit 0, and
    # a NaN coefficient a ZeroDivisionError traceback
    doc = entry_to_config(entry("sec42a"))
    doc["nonlinearity"] = {"piecewise_scalar": {"pieces": pieces}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["fibre", "--system", str(bad), "--t", "0", "--w", "0.3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"nonlinearity.piecewise_scalar.{field}:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("pieces", [
    [ScalarPiece(lo=-math.inf, hi=math.nan, c1=1.0),
     ScalarPiece(lo=math.nan, hi=math.inf, c1=2.0)],
    [ScalarPiece(lo=-math.inf, hi=math.inf, c0=math.nan)],
    [ScalarPiece(lo=-math.inf, hi=math.inf, c1=lambda t: math.inf)],
    [ScalarPiece(lo=-math.inf, hi=math.inf, c1=1.0, atan_coeff=math.inf)],
])
def test_non_finite_pieces_are_rejected(pieces):
    with pytest.raises(ConfigurationError, match="NaN edge or a non-finite"):
        piecewise_scalar(pieces)


# finite at _check_tiling's probe times (0, 0.7 and 3.1), infinite elsewhere
_PROBE_FINITE_GAIN = "t*(t-0.7)*(t-3.1)*1e300*1e300"


@pytest.mark.parametrize("command", [["fibre", "--t", "2", "--w", "0.3"],
                                     ["simulate", "--tmax", "0.1"]])
def test_time_varying_pieces_are_checked_where_they_resolve(tmp_path, entry,
                                                             capsys, command):
    # such a gain once gave an exact certificate of an empty fibre at t = 2,
    # and a run that stopped as no_output_solution at t = 0, both exiting 0
    doc = entry_to_config(entry("sec42c"))
    doc["nonlinearity"]["builtin"]["params"]["gain"] = _PROBE_FINITE_GAIN
    cfg = tmp_path / "gain.json"
    cfg.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "run")] if command[0] == "simulate" else []
    code = main([command[0], "--system", str(cfg), *command[1:], *out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert re.match(r"error: piece 0 has a NaN edge or a non-finite "
                    r"coefficient at t=(2\.0|0\.0005):", captured.err)


def test_time_varying_pieces_are_checked_per_row_time():
    # the stacked path resolves a piece at each row's time, and checks it there
    f = saturation_scaled(lambda t: t * (t - 0.7) * (t - 3.1) * 1e300 * 1e300)
    X = np.array([[-3.0], [0.5], [3.0]])
    assert f.eval_batch(np.array([0.0, 0.7, 3.1]), X).tolist() == [[0.0]] * 3
    with pytest.raises(ConfigurationError, match=r"^piece 0 .* at t=2\.0: "):
        f.eval_rows(np.array([0.0, 2.0, 0.7]), X)


def test_an_inverted_piece_is_rejected():
    # a deadzone of half-width t - 1 inverts its middle piece at t = 0, to
    # [1, -1]; its neighbours still met it, and the exact fibre of w = 0
    # read {-1, 1}, where y = 1 has residual 1
    with pytest.raises(ConfigurationError,
                       match=r"^pieces do not tile at t=0\.0: piece 2 runs from 1\.0 to -1\.0"):
        deadzone_saturation(lambda t: t - 1.0)


def test_pieces_that_part_between_the_probe_times_are_rejected_where_they_resolve():
    # the pieces meet at _check_tiling's probe times (0, 0.7 and 3.1) but
    # part at t = 2, where y = f(2, 0) = 0.5 solves y = f(2, y), yet the
    # exact fibre read empty
    f = piecewise_scalar([
        ScalarPiece(lo=-math.inf, hi=lambda t: 1.0 + t * (t - 0.7) * (t - 3.1), c1=0.5),
        ScalarPiece(lo=1.0, hi=math.inf, c0=0.5)])
    match = r"^pieces do not tile at t=2\.0: piece 0 runs from -inf to -1\.86"
    with pytest.raises(ConfigurationError, match=match):
        enumerate_fibre_exact(f, [[1.0]], 2.0, [0.0])
    with pytest.raises(ConfigurationError, match=match):
        f.eval_rows(np.array([0.0, 2.0, 0.7]), np.zeros((3, 1)))


@pytest.mark.parametrize("width, t", [("t - 1", "0"),
                                      ("t*(t-0.7)*(t-3.1) + 0.3", "2")])
def test_cli_fibre_rejects_an_inverted_piece(tmp_path, entry, capsys, width, t):
    # inverted at t = 0, and at t = 2 alone (between the probe times): each
    # once printed the exact fibre {-1, 1} of w = 0 and exited 0
    doc = entry_to_config(entry("sec42c"))
    doc["nonlinearity"] = {"builtin": {"name": "deadzone_saturation",
                                       "params": {"width": width}}}
    cfg = tmp_path / "deadzone.json"
    cfg.write_text(json.dumps(doc))
    code = main(["fibre", "--system", str(cfg), "--t", t, "--w", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: pieces do not tile at t={float(t)}: piece 2 ")


@pytest.mark.parametrize("pieces, field", [
    ([{"lo": "-inf", "hi": True, "poly": [0, 1]},
      {"lo": 1.0, "hi": "inf", "poly": [0, 1]}], "pieces[0].hi"),
    ([{"lo": "-inf", "hi": "inf", "poly": [False, True]}], "pieces[0].poly"),
])
def test_boolean_piece_fields_are_rejected_naming_them(entry, pieces, field):
    # JSON true once read as the breakpoint 1.0, and [false, true] as bools
    doc = entry_to_config(entry("sec42a"))
    doc["nonlinearity"] = {"piecewise_scalar": {"pieces": pieces}}
    with pytest.raises(ConfigurationError,
                       match=rf"^nonlinearity\.piecewise_scalar\.{re.escape(field)}: "):
        parse_config(json.dumps(doc))


def test_continuity_tolerance_scales_with_the_terms_at_the_breakpoint():
    # continuous by construction at b = -1e6, where c2 b^2 is about 1.7e12,
    # so the quadratic piece's value there rounds by about 5e-5; a tolerance
    # scaled by the value (1.3) rejected it, and a jump of 1e-6 stays rejected
    b = -1e6
    f = piecewise_scalar([
        ScalarPiece(lo=-math.inf, hi=b, c0=1.3),
        ScalarPiece(lo=b, hi=math.inf, c0=1.3 - (0.37 * b + 1.7 * b * b),
                    c1=0.37, c2=1.7)])
    assert f(0.0, [b - 1.0]) == [1.3]
    with pytest.raises(ConfigurationError, match="pieces disagree at breakpoint 1.0"):
        piecewise_scalar([ScalarPiece(lo=-math.inf, hi=1.0, c1=1.0),
                          ScalarPiece(lo=1.0, hi=math.inf, c0=1e-6, c1=1.0)])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_config(tmp_path, entry_obj, name):
    path = tmp_path / f"{name}.json"
    path.write_text(config_text(entry_obj))
    return path


def test_cli_simulate_writes_outputs(tmp_path, entry, capsys):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")
    out = tmp_path / "run"
    code = main(["simulate", "--system", str(cfg), "--tmax", "0.2",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "run.csv").exists()
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["termination"] == "reached_tmax"
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header == "t,x_1,y_1,u_1,residual"


def test_cli_simulate_exit_3_when_unsolvable_at_start(tmp_path, entry, capsys):
    cfg = _write_config(tmp_path, entry("ex3a"), "ex3a")
    code = main(["simulate", "--system", str(cfg), "--x0", "1.5,0",
                 "--tmax", "0.5", "--out", str(tmp_path / "dead")])
    assert code == 3


def test_cli_simulate_inclusion_branch_column(tmp_path, entry):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")
    out = tmp_path / "branchy"
    code = main(["simulate", "--system", str(cfg), "--inclusion",
                 "--policy", "fixed_branch:1", "--tmax", "0.05",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    header = (tmp_path / "branchy.csv").read_text().splitlines()[0]
    assert header.endswith(",branch")


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
def test_cli_inclusion_rejects_method_it_lacks(tmp_path, entry, capsys, method):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")
    out = tmp_path / "rejected"
    code = main(["simulate", "--system", str(cfg), "--inclusion",
                 "--method", method, "--tmax", "0.05", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--method" in captured.err and method in captured.err
    assert not (tmp_path / "rejected.csv").exists()


@pytest.mark.parametrize("policy", ["fixed_branch:x", "segment_parameter:abc",
                                    "fixed_branch:-1", "nearest_previous:3"])
def test_cli_inclusion_bad_policy_exits_2_naming_it(tmp_path, entry, capsys,
                                                    policy):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")
    code = main(["simulate", "--system", str(cfg), "--inclusion", "--policy",
                 policy, "--tmax", "0.05", "--out", str(tmp_path / "bad")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: bad selection policy {policy!r}")
    assert not (tmp_path / "bad.csv").exists()


def test_cli_inclusion_default_method_is_euler(tmp_path, entry):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")
    texts = []
    for name, extra in (("default", []), ("euler", ["--method", "euler"])):
        code = main(["simulate", "--system", str(cfg), "--inclusion", *extra,
                     "--tmax", "0.05", "--out", str(tmp_path / name)])
        assert code == 0
        texts.append((tmp_path / f"{name}.csv").read_text())
    assert texts[0] == texts[1]


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["simulate", "--system", str(bad), "--out",
                 str(tmp_path / "x")])
    assert code == 2


def test_cli_expression_domain_error_exit_1(tmp_path, entry, capsys):
    # sqrt(xi_1) at a sampled negative point: a named evaluation error
    doc = entry_to_config(entry("ex3d"))
    doc["nonlinearity"] = {"expression": ["sqrt(xi_1)"]}
    cfg = tmp_path / "sqrt.json"
    cfg.write_text(json.dumps(doc))
    assert main(["analyze", "--system", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nonlinearity.expression[0]: math domain error")
    assert "Traceback" not in err


@pytest.mark.parametrize("args, named", [
    (["--twindow", "a:b"], "--twindow"), (["--twindow", "5"], "--twindow"),
    (["--twindow", "0:1:2"], "--twindow"), (["--twindow", "0:inf"], "t_window"),
    (["--seed", "-1"], "seed")])
def test_cli_analyze_bad_option_exits_2_naming_it(capsys, args, named):
    code = main(["analyze", "--system", str(CONFIG_DIR / "ex3c.json"), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {named} must")


def test_cli_fibre_reports_segment(tmp_path, entry, capsys):
    cfg = _write_config(tmp_path, entry("sec42a"), "sec42a")
    code = main(["fibre", "--system", str(cfg), "--t", "0", "--w", "0.3"])
    assert code == 0
    fib = json.loads(capsys.readouterr().out)
    assert fib["exact"] is True
    (seg,) = fib["segments"]
    assert seg[0][0] == pytest.approx(0.3, abs=1e-12)
    assert seg[1][0] == pytest.approx(1.3, abs=1e-12)


def test_cli_fibre_rejects_wrong_length_target(tmp_path, entry, capsys):
    cfg = _write_config(tmp_path, entry("sec42a"), "sec42a")
    code = main(["fibre", "--system", str(cfg), "--w", "1.5,0.5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "w must be a finite vector of length 1" in captured.err


@pytest.mark.parametrize("scan, named", [
    (["--scan-radius", "nan"], "scan radius R must be finite"),
    (["--scan-radius", "3", "--scan-step", "nan"], "scan step h_scan must be finite"),
    (["--scan-radius", "inf"], "scan radius R must be finite"),
    (["--scan-radius", "1e6", "--scan-step", "1e-9"], "spans more than"),
])
def test_cli_fibre_rejects_bad_scan_naming_it(capsys, scan, named):
    # each exited 1 with a traceback (ValueError, OverflowError, or numpy's
    # failure to allocate 14.2 PiB); each is rejected before any allocation
    code = main(["fibre", "--system", str(CONFIG_DIR / "ex3c.json"),
                 "--w", "0.1", *scan])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_cli_example_list_and_show(capsys):
    assert main(["example", "--list"]) == 0
    listing = capsys.readouterr().out
    for name in EXAMPLE_NAMES:
        assert name in listing
    assert main(["example", "ex3b"]) == 0
    shown = capsys.readouterr().out
    assert "dims" in shown


def test_cli_example_unknown_exit_2(capsys):
    assert main(["example", "doesnotexist"]) == 2


def test_cli_example_verify_reports_escape(capsys):
    assert main(["example", "ex3b", "--verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "0.6931" in out
    assert "[FAIL]" not in out


def test_cli_analyze_writes_report(tmp_path, entry, capsys):
    cfg = _write_config(tmp_path, entry("sec42c"), "sec42c")
    out = tmp_path / "report.json"
    code = main(["analyze", "--system", str(cfg), "--twindow", "0:3",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    names = {rec["name"] for rec in report["checks"]}
    assert "radial_unbounded" in names and "fibre_convex" in names
    table = capsys.readouterr().out
    assert "radial_unbounded" in table


def test_cli_determinism_byte_identical(tmp_path, entry, capsys):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")

    def run_once(tag):
        out = tmp_path / f"det_{tag}"
        code = main(["simulate", "--system", str(cfg), "--inclusion",
                     "--policy", "fixed_branch:0", "--tmax", "0.1",
                     "--dt", "1e-3", "--seed", "7", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        return ((tmp_path / f"det_{tag}.csv").read_bytes(),
                (tmp_path / f"det_{tag}.json").read_bytes(), stdout)

    first = run_once("a")
    second = run_once("b")
    assert first == second


def test_cli_out_dir_override(tmp_path, entry, capsys, monkeypatch):
    cfg = _write_config(tmp_path, entry("ex3c"), "ex3c")
    monkeypatch.setenv("LURESIM_OUT_DIR", str(tmp_path))
    code = main(["simulate", "--system", str(cfg), "--tmax", "0.05",
                 "--dt", "1e-3", "--out", "nested"])
    assert code == 0
    assert (tmp_path / "nested.csv").exists()
