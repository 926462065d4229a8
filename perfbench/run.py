"""luresim benchmark: one workload per invocation, one process, closed loop.

    python3 perfbench/run.py --workload simulate|inclusion|audit \
        --seed N --seconds S --trace 0|1

``--trace 0`` sets up (timed, and again in fresh processes for a median),
then repeats the workload body, untraced, as often as fits in
``--seconds`` (at least twice) and reports the end-to-end metrics.
``--trace 1`` runs the body once untraced and twice traced, and reports
the per-layer metrics, the baseline table and the tracing overhead.
Both check every item's outputs.  The last line of standard output is
the JSON result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Single-threaded numerics on a two-core machine; set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
WORKLOAD_NAMES = ("simulate", "inclusion", "audit")
SETUP_PROBES = 2          # fresh processes timing set-up, besides this one
MIN_REPS = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def setup(workload: str, seed: int, out_dir: str):
    """Import luresim, build the entries, warm up.  Returns (seconds,
    bench_workloads module, entries)."""
    if not os.path.isfile(os.path.join(SRC, "luresim", "__init__.py")):
        raise BenchError(f"no luresim sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = perf_counter()
    import bench_workloads as bw
    import luresim
    if os.path.dirname(os.path.dirname(os.path.abspath(luresim.__file__))) \
            != SRC:
        raise BenchError(f"luresim imported from {luresim.__file__}, "
                         f"not {SRC}")
    entries = bw.build_entries(bw.WORKLOADS[workload])
    bw.warm_up(workload, seed, out_dir)
    return perf_counter() - t0, bw, entries


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(bw, items, entries, seed: int, out_dir: str, tracer=None):
    """One pass of the workload body; returns the ItemResults."""
    results = []
    for item in items:
        entry = entries[item.entry]
        if tracer is None:
            timed = bw.execute(item, entry, seed, out_dir)
        else:
            with tracer, tracer.item(item.name):
                timed = bw.execute(item, entry, seed, out_dir)
        results.append(bw.finish(item, entry, timed, out_dir))
    return results


def body_seconds(results) -> float:
    return sum(r.seconds for r in results)


def median_body(reps) -> tuple[float, float]:
    """(wall, steps per second) of one body pass, each item at its median
    over the repetitions, so a burst of machine noise during one item of
    one repetition does not move the result."""
    wall = step_s = steps = 0.0
    for i, res in enumerate(reps[0]):
        wall += statistics.median(rep[i].seconds for rep in reps)
        step_s += statistics.median(rep[i].step_seconds for rep in reps)
        steps += res.steps
    return wall, steps / step_s if step_s else 0.0


class Checks:
    """Correctness checks of a run; failures go into fail_ratio."""

    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, measured: str) -> None:
        self.rows.append((name, bool(passed), measured))

    def add_items(self, results, label: str) -> None:
        for res in results:
            for name, passed, measured in res.checks:
                self.add(f"{label}.{res.name}.{name}", passed, measured)

    def add_digest_match(self, base, other, label: str) -> None:
        for a, b in zip(base, other):
            self.add(f"{label}.{a.name}.digest", a.digests == b.digests,
                     "identical" if a.digests == b.digests
                     else f"{a.digests} vs {b.digests}")

    @property
    def failed(self) -> int:
        return sum(1 for _, passed, _ in self.rows if not passed)


def environment(seed: int, load_start) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args, bw, items, entries, out_dir, setup_s, checks):
    setups = [setup_s] + [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    reps = []
    t0 = perf_counter()
    # Start another repetition only if it should end within --seconds.
    while len(reps) < MIN_REPS or (perf_counter() - t0) * (len(reps) + 1) \
            <= args.seconds * len(reps):
        results = run_pass(bw, items, entries, args.seed, out_dir)
        checks.add_items(results, f"rep{len(reps)}")
        if reps:
            checks.add_digest_match(reps[0], results, f"rep{len(reps)}")
        reps.append(results)
    ratios = [r.ref_err_ratio for results in reps for r in results
              if r.ref_err_ratio is not None]
    wall, rate = median_body(reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Printed only: not defined on every workload (see README).
    if args.workload != "audit":
        metrics["steps_per_s"] = (rate, "1/s")
    if ratios:
        metrics["ref_err_max"] = (max(ratios), "ratio")
    info = {
        "setup_samples_s": setups,
        "reps": len(reps),
        "rep_wall_s": [body_seconds(r) for r in reps],
        "items": {res.name: {"median_s": statistics.median(
            rep[i].seconds for rep in reps), "steps": res.steps,
            "digests": res.digests} for i, res in enumerate(reps[0])},
    }
    return metrics, info


def run_traced(args, bw, items, entries, out_dir, checks):
    import bench_trace
    import luresim

    base = run_pass(bw, items, entries, args.seed, out_dir)
    checks.add_items(base, "untraced")
    passes = []
    for k in range(2):
        tracer = bench_trace.Tracer()
        with tracer, tracer.span("setup"):
            traced_entries = bw.build_entries(items)
        results = run_pass(bw, items, traced_entries, args.seed, out_dir,
                           tracer)
        checks.add_items(results, f"traced{k}")
        checks.add_digest_match(base, results, f"traced{k}")
        passes.append((tracer, results,
                       bench_trace.summarize(tracer, luresim.EXAMPLE_NAMES)))
    (tracer, results, (layer, per_item)), second = passes[0], passes[1]
    for name, (value, unit) in layer.items():
        if unit not in ("s", "us"):      # counts and ratios of counts
            again = second[2][0][name][0]
            checks.add(f"trace_repeat.{name}", value == again,
                       f"{value!r} vs {again!r}")
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                                   ".csv.gz")
    tracer.write(trace_path)
    info = {
        "untraced_wall_s": body_seconds(base),
        "traced_wall_s": body_seconds(results),
        "trace_overhead_s": body_seconds(results) - body_seconds(base),
        "spans": len(tracer),
        "trace_file": os.path.relpath(trace_path, ROOT),
        "baseline": baseline_table(args.workload, base, per_item),
    }
    return layer, info


def baseline_table(workload: str, base, per_item) -> list[str]:
    """The ROADMAP baseline rows: untraced wall per item, counts from the
    trace."""
    rows = []
    for res in base:
        fig = per_item.get(res.name, {})
        if workload == "simulate":
            steps = fig.get("steps", 0)
            rows.append(f"{res.name}: steps {int(steps)}, solves/step "
                        f"{fig.get('solves', 0) / steps if steps else 0:.2f}, "
                        f"wall {res.seconds:.3f} s")
        elif workload == "inclusion":
            rows.append(f"{res.name}: {res.steps} steps, "
                        f"{1e6 * res.seconds / max(res.steps, 1):.1f} us/step")
        else:
            probes = ", ".join(f"{k[:-2]} {v:.3f}" for k, v in fig.items()
                               if k.endswith("_s") and k != "analyze_s")
            rows.append(f"{res.name}: wall {res.seconds:.3f} s; traced s per "
                        f"probe: {probes}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (internal)")
    args = parser.parse_args(argv)
    load_start = os.getloadavg()
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    try:
        spec = load_spec()
        setup_s, bw, entries = setup(args.workload, args.seed, out_dir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        items = bw.WORKLOADS[args.workload]
        checks = Checks()
        if args.trace:
            metrics, info = run_traced(args, bw, items, entries, out_dir,
                                       checks)
            wanted = spec["per_layer"]
        else:
            metrics, info = run_untraced(args, bw, items, entries, out_dir,
                                         setup_s, checks)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = len(checks.rows)
    if not args.trace:
        metrics["fail_ratio"] = (checks.failed / attempted, "ratio")
    env = environment(args.seed, load_start)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, passed, measured in checks.rows:
        if not passed:
            print(f"FAIL {name}: {measured}")
    print(f"checks: {attempted - checks.failed}/{attempted} passed")
    for key, value in info.items():
        if key == "baseline":
            print("baseline:")
            for row in value:
                print("  " + row)
        else:
            print(f"{key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "checks": checks.rows, **info}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    result = {"correct": checks.failed == 0, "attempted": attempted,
              "failed": checks.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": metrics[m["name"]][1]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
