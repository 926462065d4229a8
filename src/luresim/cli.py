"""Command-line front end.

Subcommands: ``simulate``, ``analyze``, ``fibre``, ``example``.  Exit
codes: 0 on success (including mid-run existence loss or blow-up, which
are results), 2 on configuration or usage errors, 3 when the output
equation is already unsolvable at the initial time.  With a fixed seed
all outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analyzer import AnalyzerOptions, analyze_system
from .catalog import build_example, list_examples, verify_example
from .config import config_text, load_config
from .errors import ConfigurationError, LuresimError, UsageError
from .inclusion import (InclusionOptions, SelectionPolicy, enumerate_fibre,
                        simulate_inclusion)
from .integrator import (SimOptions, simulate, summary_dict, write_csv,
                         write_summary_json)
from .output_solver import SolveOptions, brute_force_fibre_oracle


def _out_path(path: str) -> str:
    base = os.environ.get("LURESIM_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError:
        raise ConfigurationError(f"could not parse vector {text!r}") from None


def _cmd_simulate(args) -> int:
    cfg = load_config(args.system)
    t0 = args.t0 if args.t0 is not None else cfg.defaults.get("t0", 0.0)
    tmax = args.tmax if args.tmax is not None else cfg.defaults.get("tmax", 10.0)
    dt = args.dt if args.dt is not None else cfg.defaults.get("dt", 1e-3)
    if args.x0 is not None:
        x0 = _parse_vector(args.x0)
    elif "x0" in cfg.defaults:
        x0 = cfg.defaults["x0"]
    else:
        raise ConfigurationError("no initial state: pass --x0 or set defaults.x0")

    if args.inclusion:
        # Euler unless RK4 is requested explicitly; the higher-order claim
        # is only honest on single-valued stretches.
        method = args.method or "euler"
        if method not in ("euler", "rk4"):
            raise UsageError(f"--method {method} is not available with "
                             f"--inclusion (use euler or rk4)")
        policy = SelectionPolicy.parse(args.policy)
        opts = InclusionOptions(method=method, dt=dt, tmax=tmax,
                                fibre=SolveOptions(seed=args.seed))
        record = simulate_inclusion(cfg.system, cfg.nonlinearity, cfg.input,
                                    t0, x0, policy, opts)
    else:
        opts = SimOptions(method=args.method or "rk4_fixed", dt=dt, tmax=tmax,
                          solver=SolveOptions(seed=args.seed))
        record = simulate(cfg.system, cfg.nonlinearity, cfg.input, t0, x0, opts)

    base = _out_path(args.out)
    write_csv(record, base + ".csv")
    write_summary_json(record, base + ".json")
    print(json.dumps(summary_dict(record), sort_keys=True))
    multiple = (record.flags or []).count("multiple")
    if multiple:
        print(f"note: at {multiple} of {record.n_samples} samples a solve chose "
              f"among several outputs (nearest the warm start)", file=sys.stderr)
    if record.termination.kind == "no_output_solution" and record.n_samples == 0:
        return 3
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.system)
    try:
        ta, tb = (float(tok) for tok in args.twindow.split(":"))
    except ValueError:
        raise ConfigurationError(f"--twindow must read a:b with two numbers, "
                                 f"got {args.twindow!r}") from None
    opts = AnalyzerOptions(t_window=(ta, tb), seed=args.seed)
    report = analyze_system(cfg.system, cfg.nonlinearity, opts)
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out:
        with open(_out_path(args.out), "w") as fh:
            fh.write(payload + "\n")
    name_w = max(len(rec.name) for rec in report.records)
    name_w = max(name_w, max(len(tag.name) for tag in report.applicability))
    for rec in report.records:
        print(f"{rec.name:<{name_w}}  {rec.verdict:<14} margin={rec.margin:+.3e}")
    for tag in report.applicability:
        status = "applicable (sampled)" if tag.granted else "not established"
        print(f"{tag.name:<{name_w}}  {status}")
    return 0


def _cmd_fibre(args) -> int:
    cfg = load_config(args.system)
    w = _parse_vector(args.w)
    if args.scan_radius is not None:
        fib = brute_force_fibre_oracle(cfg.nonlinearity, cfg.system.D, args.t,
                                       w, R=args.scan_radius,
                                       h_scan=args.scan_step)
    else:
        fib = enumerate_fibre(cfg.nonlinearity, cfg.system.D, args.t, w,
                              SolveOptions(seed=args.seed))
    print(json.dumps(fib.to_dict(), sort_keys=True))
    return 0


def _cmd_example(args) -> int:
    if args.list:
        for name, title in list_examples():
            print(f"{name:<8} {title}")
        return 0
    if not args.name:
        raise UsageError("example: give a name or --list")
    if args.emit_config:
        entry = build_example(args.name)
        with open(_out_path(args.emit_config), "w") as fh:
            fh.write(config_text(entry))
        print(f"wrote {args.emit_config}")
        return 0
    if args.verify:
        report = verify_example(args.name, quick=args.quick)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1
    entry = build_example(args.name)
    print(f"{entry.name}: {entry.title}")
    n, m, m_e, p = entry.system.dims
    print(f"dims: n={n} m={m} m_e={m_e} p={p}")
    print(f"defaults: t0={entry.t0} x0={list(map(float, entry.x0))} "
          f"tmax={entry.tmax} dt={entry.dt}")
    print(entry.notes)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luresim",
        description="Simulate Lur'e systems with feedthrough and audit "
                    "their well-posedness hypotheses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a system from a config file")
    sim.add_argument("--system", required=True, help="config file path")
    sim.add_argument("--x0", help="initial state, comma separated")
    sim.add_argument("--t0", type=float)
    sim.add_argument("--tmax", type=float)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--method",
                     choices=["rk4_fixed", "rk45_adaptive", "euler", "rk4"],
                     help="rk4_fixed (default) or rk45_adaptive; with "
                          "--inclusion, euler (default) or rk4")
    sim.add_argument("--out", required=True,
                     help="output base path (writes .csv and .json)")
    sim.add_argument("--inclusion", action="store_true",
                     help="fibre-selection stepping for set-valued outputs")
    sim.add_argument("--policy", default="nearest_previous",
                     help="selection policy, e.g. fixed_branch:1")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="run the well-posedness audits")
    ana.add_argument("--system", required=True)
    ana.add_argument("--twindow", default="0:10", help="time window a:b")
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--out", help="write the report JSON here")
    ana.set_defaults(func=_cmd_analyze)

    fib = sub.add_parser("fibre", help="enumerate an output fibre")
    fib.add_argument("--system", required=True)
    fib.add_argument("--t", type=float, default=0.0)
    fib.add_argument("--w", required=True, help="target output, comma separated")
    fib.add_argument("--scan-radius", type=float, default=None,
                     help="use the dense-scan oracle with this radius")
    fib.add_argument("--scan-step", type=float, default=1e-3)
    fib.add_argument("--seed", type=int, default=0)
    fib.set_defaults(func=_cmd_fibre)

    exa = sub.add_parser("example", help="inspect or verify built-in examples")
    exa.add_argument("name", nargs="?")
    exa.add_argument("--list", action="store_true")
    exa.add_argument("--verify", action="store_true")
    exa.add_argument("--quick", action="store_true",
                     help="coarser steps for a fast smoke check")
    exa.add_argument("--emit-config", help="write the entry as a config file")
    exa.set_defaults(func=_cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LuresimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
