"""The in-house scrambled Halton, Brent root finder and ex3d quadrature
against the scipy routines they replace, and a guard that no runtime path
of luresim loads scipy.

scipy is a test dependency only: it serves here as the oracle, bit for bit
for Halton and Brent, to roundoff for the quadrature.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from luresim.catalog import _ex3d_state_factor
from luresim.output_solver import _brentq, _scrambled_halton

qmc = pytest.importorskip("scipy.stats.qmc")
optimize = pytest.importorskip("scipy.optimize")
integrate = pytest.importorskip("scipy.integrate")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_halton_matches_scipy_bit_for_bit(p):
    for n in (1, 8, 16, 17, 24, 64, 256):
        for seed in range(8):
            expected = qmc.Halton(d=p, scramble=True, seed=seed).random(n)
            got = _scrambled_halton(p, n, seed)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), \
                (p, n, seed)


def _outcome(solver, f, a, b, **kw):
    try:
        return "root", solver(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _families(rng):
    """Scalar residuals of the kinds the solver's brackets come from:
    x - d g(x) - w for smooth, kinked and saturating g, and plain
    polynomials with clustered roots."""
    d = rng.uniform(-3.0, 3.0)
    w = rng.uniform(-2.0, 2.0)
    c = rng.uniform(-1.0, 1.0, size=4)
    k = rng.uniform(0.2, 4.0)
    return [
        lambda x: x - d * math.atan(k * x) - w,
        lambda x: x - d * math.tanh(k * x) - w,
        lambda x: x - d * min(1.0, max(-1.0, k * x)) - w,
        lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
        lambda x: (x - w) ** 3 * (x + d) + c[0] * 1e-9,
        lambda x: math.exp(c[0] * x) - 1.0 - w * x,
        lambda x: x * x - w * w * 1e-6,
        lambda x: math.sin(k * x) - c[1],
    ]


@pytest.mark.parametrize("kw", [{"xtol": 1e-13},
                                {"xtol": 1e-16, "rtol": 8.9e-16},
                                {}], ids=["xtol13", "xtol16_rtol", "defaults"])
def test_brentq_matches_scipy_bit_for_bit(kw):
    """Seeded brackets: the sign changes of each residual on a grid, as the
    multistart and oracle scans find them."""
    rng = np.random.default_rng(20261019)
    brackets = 0
    while brackets < 800:
        for f in _families(rng):
            lo, hi = sorted(rng.uniform(-4.0, 4.0, size=2))
            xs = np.linspace(lo, hi, int(rng.integers(3, 40)))
            vals = [f(float(x)) for x in xs]
            for i in range(xs.size - 1):
                if vals[i] * vals[i + 1] < 0.0:
                    assert _outcome(_brentq, f, xs[i], xs[i + 1], **kw) == \
                        _outcome(optimize.brentq, f, xs[i], xs[i + 1], **kw)
                    brackets += 1
    assert brackets >= 800


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x - 0.25, 0.25, 1.0, {}),            # exact zero at a
    (lambda x: x - 1.0, 0.0, 1.0, {}),              # exact zero at b
    (lambda x: 1e-170 * x, -1.0, 2.0, {}),          # f(a) f(b) underflows to -0
    (lambda x: x * x + 1.0, -1.0, 2.0, {"xtol": 1e-13}),   # same sign: raises
    (lambda x: 1e-170 * (x + 10.0), 1.0, 2.0, {}),  # same sign, tiny values
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}),   # NaN: raises
    (lambda x: np.float64(x) ** 3 - 0.2, 0.0, 1.0, {}),           # numpy scalars
    (lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0, {}),        # a jump
    (lambda x: x ** 3 - 0.2, 0.0, 1.0, {"maxiter": 3}),   # out of iterations
])
def test_brentq_edge_cases_match_scipy(f, a, b, kw):
    assert _outcome(_brentq, f, a, b, **kw) == \
        _outcome(optimize.brentq, f, a, b, **kw)


def test_ex3d_state_factor_matches_quad():
    for t in np.linspace(0.0, math.pi / 2 - 0.02, 97).tolist():
        integral, _ = integrate.quad(lambda s: math.exp(-2.0 * s) * math.tan(s),
                                     0.0, t, epsabs=1e-13, epsrel=1e-13,
                                     limit=200)
        expected = math.exp(2.0 * t) * (integral - 1.0)
        assert _ex3d_state_factor(t) == pytest.approx(expected, rel=1e-14, abs=0.0)


_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    import luresim
    from luresim import (AnalyzerOptions, InclusionOptions, SelectionPolicy,
                         SimOptions, SolveOptions, analyze_system,
                         build_example, enumerate_fibre_multistart,
                         simulate, simulate_inclusion)

    entries = {name: build_example(name) for name in luresim.EXAMPLE_NAMES}
    entries["ex3d"].reference.x(1.0)

    e = entries["ex4a"]
    rec = simulate(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                   SimOptions(method="rk4_fixed", dt=1e-3, tmax=0.05,
                              solver=SolveOptions(use_structure=False)))
    assert rec.n_samples > 1

    e = entries["ex3c"]
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                             SelectionPolicy.fixed_branch(0),
                             InclusionOptions(method="euler", dt=1e-3,
                                              tmax=e.tmax))
    assert "fold" in (rec.flags or []), rec.flags

    e = entries["ex3a"]
    analyze_system(e.system, e.nonlinearity, AnalyzerOptions(seed=0))

    for name, w in (("sec42a", [0.3]), ("ex4b", [0.4, -0.2])):
        e = entries[name]
        fib = enumerate_fibre_multistart(e.nonlinearity, e.system.D, 0.5,
                                         np.array(w), SolveOptions(seed=0))
        assert fib.points or fib.segments, name

    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_runtime_paths_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
