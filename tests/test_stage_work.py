"""Per-time work on the exact route is done once: time-varying pieces are
resolved once per distinct time, expressions are compiled once into plain
functions, and a solve hands on the u = f(t, y) its residual used."""

import ast
import math

import numpy as np
import pytest

from luresim import (EvaluationError, InclusionOptions, ScalarPiece,
                     SelectionPolicy, SolveOptions, SystemMatrices,
                     compile_scalar_expression, compile_vector_expression,
                     deadzone_saturation, piecewise_scalar, saturation_scaled,
                     simulate_inclusion, solve_output)
from luresim import config


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# ---------------------------------------------------------------------------
# Memoised piece resolution
# ---------------------------------------------------------------------------

def _counting_pieces(pieces):
    """Copies of the pieces whose callable fields count their calls."""
    counts = {}

    def wrap(key, fn):
        counts[key] = 0

        def counted(t):
            counts[key] += 1
            return fn(t)
        return counted

    out = []
    for i, pc in enumerate(pieces):
        fields = {name: getattr(pc, name) for name in ("lo", "hi", "c0", "c1", "c2")}
        out.append(ScalarPiece(
            atan_coeff=pc.atan_coeff,
            **{name: wrap((i, name), v) if callable(v) else v
               for name, v in fields.items()}))
    return out, counts


def test_rk4_inclusion_resolves_each_piece_twice_per_step(entry):
    # stages 2 and 3 share t + h/2; stage 4, the landing point and the
    # accepted sample share t + h; stage 1 is the accepted sample
    e = entry("sec42a")
    pieces, counts = _counting_pieces(e.nonlinearity.pieces)
    f = piecewise_scalar(pieces, name="deadzone_saturation")
    assert counts and any(counts.values())      # the tiling check ran
    for key in counts:
        counts[key] = 0
    rec = simulate_inclusion(e.system, f, e.input, 0.0, e.x0,
                             SelectionPolicy.nearest_previous(),
                             InclusionOptions(method="rk4", dt=1e-3, tmax=0.1))
    steps = rec.n_samples - 1
    assert rec.termination.kind == "reached_tmax" and steps == 100
    assert set(rec.flags) == {""}
    assert max(counts.values()) <= 2 * steps + 1, counts


def _sign_width(t):
    # differs between t = -0.0 and t = 0.0, so a memo keyed on == fails
    return 0.3 + 0.1 * math.copysign(1.0, t) + 0.05 * math.sin(t)


@pytest.mark.parametrize("make", [
    lambda: deadzone_saturation(width=_sign_width),
    lambda: saturation_scaled(gain=compile_scalar_expression("min(1, 0.5*t)")),
])
def test_memo_returns_the_pieces_at_t(make):
    f = make()
    times = [0.0, 0.5, 0.5, -0.0, -0.0, 0.0, 1.0, 0.5, 0.5, 3.0, 3.0, 1.0,
             np.float64(1.0), 2.0 ** -1074, 0.0]
    for t in times:
        got = f.resolved_structure(t)
        assert got == [pc.at(t) for pc in f.pieces], t
        # bit for bit, -0.0 included
        for a, b in zip(got, (pc.at(t) for pc in f.pieces)):
            assert all(_same_bits(getattr(a, k), getattr(b, k))
                       for k in ("lo", "hi", "c0", "c1", "c2"))
        assert float(f.eval(t, [0.31])[0]) == f.eval_scalar(t, 0.31)


def test_memo_distinguishes_signed_zero():
    f = deadzone_saturation(width=_sign_width)
    neg, pos = _sign_width(-0.0), _sign_width(0.0)
    assert neg != pos
    # the middle piece is [-d(t), d(t)]
    assert f.resolved_structure(-0.0)[2].hi == neg
    assert f.resolved_structure(0.0)[2].hi == pos
    assert f.resolved_structure(-0.0)[2].hi == neg


# ---------------------------------------------------------------------------
# Compiled expressions
# ---------------------------------------------------------------------------

def _reference(expr: str, names):
    """Evaluation by ``eval`` of the same checked AST, names as locals."""
    code = compile(ast.parse(expr, mode="eval"), "<reference>", "eval")
    env = {**config._ALLOWED_FUNCS, "norm": config._norm}

    def evaluate(*values):
        return float(eval(code, {"__builtins__": {}},
                          {**env, **dict(zip(names, values))}))
    return evaluate


GRID = [-0.0, 0.0, 0.5, -1.5, 2.0, 1e-300, 3.7, -2.25, 7.0 / 3.0]
SCALAR_EXPRS = [
    "min(1, 0.5*t)",
    "max(-t, t**2) - abs(t)",
    "min(t, -0.0)",
    "max(0.0, t) * -1",
    "norm(t, 2*t) ** 0.5",
    "-t",
    "t ** 3 - 2 ** -1 + (+t)",
    "sqrt(abs(t)) * sin(t) + exp(-t**2)",
    "atan(t) / (1 + t**2) - cos(3*t)",
]


@pytest.mark.parametrize("expr", SCALAR_EXPRS)
def test_compiled_scalar_expression_matches_eval(expr):
    compiled = compile_scalar_expression(expr)
    reference = _reference(expr, ["t"])
    for t in GRID:
        got, want = compiled(t), reference(t)
        assert type(got) is float
        assert _same_bits(got, want), (expr, t, got, want)


def test_compiled_vector_expression_matches_eval():
    exprs = ["xi_1 * t - norm(xi_1, xi_2)", "max(xi_1, xi_2) ** 2 - min(-xi_2, t)",
             "abs(xi_1) ** 1.5 + xi_2 / (1 + t**2)"]
    f = compile_vector_expression(exprs, p=2)
    refs = [_reference(e, ["t", "xi_1", "xi_2"]) for e in exprs]
    for t in GRID:
        for xi in ([-0.0, 0.0], [0.5, -1.5], [2.0, 3.7], [1e-300, -2.25]):
            got = f(t, np.array(xi))
            want = [ref(float(t), *xi) for ref in refs]
            assert all(_same_bits(a, b) for a, b in zip(got.tolist(), want))


def test_compiled_expression_errors_match_eval():
    compiled = compile_scalar_expression("sqrt(t)")
    with pytest.raises(ValueError):
        compiled(-1.0)
    with pytest.raises(ZeroDivisionError):
        compile_scalar_expression("1 / t")(0.0)
    # the conversion wrapper is not reachable from an expression
    with pytest.raises(config.ConfigurationError):
        compile_scalar_expression("float(t)")


# ---------------------------------------------------------------------------
# The solution carries u = f(t, y)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, w, opts", [
    ("ex3c", [0.1], SolveOptions()),                    # exact, scalar
    ("sec42b", [0.3, 0.4], SolveOptions()),             # exact, radial
    ("ex4b", [0.5, 0.2], SolveOptions()),               # Newton
    ("ex3c", [0.1], SolveOptions(use_structure=False, max_iter=1)),  # multistart
])
def test_solution_carries_u(entry, name, w, opts):
    e = entry(name)
    sol = solve_output(e.system, e.nonlinearity, 0.7, w, np.full(len(w), 0.2), opts)
    assert sol.y is not None
    want = e.nonlinearity(0.7, sol.y)
    assert sol.u.shape == want.shape
    assert all(_same_bits(a, b) for a, b in zip(sol.u.tolist(), want.tolist()))


def test_solution_rejects_non_finite_u():
    # with D = 0 the fibre of w is {w}; the steep quadratic overflows there
    f = piecewise_scalar([ScalarPiece(lo=-math.inf, hi=math.inf, c1=0.5, c2=1e300)])
    system = SystemMatrices(A=[[0.0]], B=[[1.0]], B_e=[[0.0]], C=[[1.0]],
                            D=[[0.0]], D_e=[[0.0]])
    with pytest.raises(EvaluationError):
        solve_output(system, f, 0.0, [1e10], [1e10])
