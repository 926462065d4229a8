"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run shortened items, not the workloads themselves.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # sets the thread variables and the paths

sys.path.insert(0, run.SRC)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import luresim  # noqa: E402
from bench_workloads import Item  # noqa: E402

TINY = {
    "simulate": (
        Item("sec42c", "sec42c", "simulate", "rk4_fixed", 1e-3, tmax=0.2),
        Item("ex4b", "ex4b", "simulate", "rk45_adaptive", 1e-2, tmax=0.5,
             newton=True),
    ),
    "inclusion": (
        Item("ex3c.branch1", "ex3c", "inclusion", "euler", 1e-3,
             "fixed_branch:1", tmax=0.2, ref=0, ref_tol=1e-8),
        Item("sec42a", "sec42a", "inclusion", "rk4", 1e-3,
             "nearest_previous", tmax=0.1),
    ),
    "audit": (Item("ex3a", "ex3a", "audit"),),
}
SPEC = run.load_spec()


def _snapshot():
    from luresim.nonlinearity import Nonlinearity
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "luresim"
                                    or name.startswith("luresim."))}
    methods = {m: Nonlinearity.__dict__[m] for m in bench_trace.EVAL_METHODS}
    return mods, methods


def _assert_same(before, after):
    for name, attrs in before[0].items():
        now = vars(sys.modules[name])
        changed = [k for k, v in attrs.items() if now.get(k) is not v]
        assert not changed, (name, changed)
    assert before[1] == after[1]


def test_wrappers_restore_originals():
    before = _snapshot()
    original = luresim.integrator.solve_output
    with bench_trace.Tracer():
        assert luresim.integrator.solve_output is not original
        assert luresim.catalog.enumerate_fibre_exact.__wrapped__ is \
            luresim.output_solver.enumerate_fibre_exact.__wrapped__
        assert luresim.inclusion.enumerate_fibre_exact is not \
            before[0]["luresim.inclusion"]["enumerate_fibre_exact"]
    _assert_same(before, _snapshot())
    with pytest.raises(RuntimeError):
        with bench_trace.Tracer():
            raise RuntimeError("inside the traced region")
    _assert_same(before, _snapshot())


def _traced_pass(tmp_path):
    tracer = bench_trace.Tracer()
    items = TINY["simulate"] + TINY["inclusion"] + TINY["audit"]
    with tracer, tracer.span("setup"):
        entries = bw.build_entries(items)
    run.run_pass(bw, items, entries, 0, str(tmp_path), tracer)
    return bench_trace.summarize(tracer, luresim.EXAMPLE_NAMES)[0]


def test_traced_counts_repeat(tmp_path):
    first, second = _traced_pass(tmp_path), _traced_pass(tmp_path)
    counts = {k: v for k, v in first.items() if v[1] not in ("s", "us")}
    assert counts == {k: second[k] for k in counts}
    for name in ("integrator.steps", "output_solver.solves",
                 "output_solver.fibres_exact", "nonlinearity.evals",
                 "derivatives.fd_jacobians", "derivatives.clarke_samples",
                 "inclusion.steps"):
        assert counts[name][0] > 0, name
    assert first["analyzer.ex3a_s"][0] > 0.0


def _main(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(bw.WORKLOADS, workload, TINY[workload])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", ["simulate", "inclusion", "audit"])
def test_every_metric_printed_with_unit(monkeypatch, capsys, workload):
    out, result = _main(monkeypatch, capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    shown = {line.split()[1]: line.split()[-1] for line in out
             if line.startswith("metric ")}
    expected = {"setup_s": "s", "wall_s": "s", "fail_ratio": "ratio",
                "peak_rss_mb": "MB"}
    if workload != "audit":
        expected["steps_per_s"] = "1/s"
    if workload == "inclusion":
        expected["ref_err_max"] = "ratio"
    assert {k: shown.get(k) for k in expected} == expected

    out, result = _main(monkeypatch, capsys, workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any(line.startswith("trace_overhead_s:") for line in out)
    assert "baseline:" in out


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "simulate",
                                             "--seed", "0", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
