import json
import math
from pathlib import Path

import numpy as np
import pytest

from luresim import (EXAMPLE_NAMES, ConfigurationError, config_text,
                     entry_to_config, parse_config)
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


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["simulate", "--system", str(bad), "--out",
                 str(tmp_path / "x")])
    assert code == 2


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
