"""Per-time work is done once: time-varying pieces and the time factors of
the opaque built-in maps are resolved once per distinct time, constant
widths and gains give static pieces, expressions are compiled once into
plain functions, and a solve hands on the u = f(t, y) its residual used.
An inclusion stage chooses from the fibre value of its fibre, without a
FibreSet."""

import ast
import math

import numpy as np
import pytest

from luresim import (ConfigurationError, EvaluationError, FibreSet, InclusionOptions,
                     Nonlinearity, ScalarPiece, SelectionPolicy, SolveOptions, SystemMatrices,
                     compile_scalar_expression, compile_vector_expression,
                     deadzone_saturation, normalized_gain, piecewise_scalar,
                     rotated_radial, saturation_scaled, simulate_inclusion,
                     solve_output)
from luresim.nonlinearity import _at_times, _PerTime, rotation_matrix
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
    # accepted sample share t + h; stage 1 is the accepted sample.  A
    # numeric width gives static pieces, so the width is a function of t.
    e = entry("sec42a")
    varying = deadzone_saturation(width=lambda t: 0.3)
    pieces, counts = _counting_pieces(varying.pieces)
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


@pytest.mark.parametrize("name, method, dt, policy, fold", [
    ("ex3c", "euler", 1e-4, "fixed_branch:1", False),
    ("sec42a", "rk4", 1e-3, "nearest_previous", False),
    ("ex3c", "euler", 1e-4, "fixed_branch:0", True),     # lands on a fold once
    ("sec42b", "euler", 1e-3, "max_norm", False),        # radial
    ("ex4c", "euler", 1e-3, "min_norm", False),          # conformal
])
def test_inclusion_stages_build_no_fibre_set(entry, monkeypatch, name, method,
                                             dt, policy, fold):
    # the stages, and the fold landing's bisection, choose from the fibre
    # value of each fibre
    e = entry(name)
    built = []
    init, view = FibreSet.__init__, FibreSet._view.__func__

    def counting_init(self, *args, **kwargs):
        built.append(name)
        init(self, *args, **kwargs)

    def counting_view(cls, *args, **kwargs):
        built.append(name)
        return view(cls, *args, **kwargs)

    monkeypatch.setattr(FibreSet, "__init__", counting_init)
    monkeypatch.setattr(FibreSet, "_view", classmethod(counting_view))
    rec = simulate_inclusion(e.system, e.nonlinearity, e.input, e.t0, e.x0,
                             SelectionPolicy.parse(policy),
                             InclusionOptions(method=method, dt=dt, tmax=e.tmax))
    assert rec.termination.kind == "reached_tmax"
    assert ("fold" in rec.flags) == fold
    assert not built


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


def test_constant_width_pieces_are_static_and_bit_equal():
    # a numeric width or gain builds float piece fields, resolved once; they
    # evaluate bit for bit as the same map with a constant function of t
    pairs = [(deadzone_saturation(0.3), deadzone_saturation(width=lambda t: 0.3)),
             (deadzone_saturation(0), deadzone_saturation(width=lambda t: 0.0)),
             (saturation_scaled(0.7), saturation_scaled(gain=lambda t: 0.7))]
    xs = [-0.0, 0.0, 0.3, -0.3, 1.3, -1.3, 0.29999999999999993, 1.3000000000000003,
          -5.0, 0.7, 1.0, -1.0, 1e-300, -1e-300, 2.5]
    for static, varying in pairs:
        assert all(pc.static for pc in static.pieces)
        assert not any(pc.static for pc in varying.pieces[1:-1])
        for t in (0.0, -0.0, 0.5, 3.0):
            for a, b in zip(static.resolved_structure(t),
                            varying.resolved_structure(t)):
                assert all(_same_bits(getattr(a, k), getattr(b, k))
                           for k in ("lo", "hi", "c0", "c1", "c2"))
            for x in xs:
                assert _same_bits(static.eval_scalar(t, x), varying.eval_scalar(t, x))
            X = np.array(xs)
            assert (static.eval_batch(t, X[:, None]).tobytes()
                    == varying.eval_batch(t, X[:, None]).tobytes())
    assert deadzone_saturation(0.3).params == {"width": 0.3}


# ---------------------------------------------------------------------------
# Per-time factors of the opaque built-in maps
# ---------------------------------------------------------------------------

def _counted(fn):
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)
    return counted, calls


MEMO_TIMES = [0.0, 0.0, -0.0, -0.0, 0.0, 0.5, 0.5, 0.5, math.nan, math.nan,
              1.25, np.float64(1.25), 1.25, -0.0, 2.0 ** -1074, 0.5]


def _distinct_runs(times):
    """Calls a one-entry memo makes: one per change of bits, one per NaN."""
    runs, last = 0, None
    for t in times:
        key = np.float64(t).tobytes()
        if key != last or math.isnan(t):
            runs += 1
        last = key
    return runs


def _normalized_frame(angle):
    """R(angle(t)) xi / sqrt(1 + ||xi||^2) as a bare map, its frame memoised."""
    frame = _PerTime(lambda t: rotation_matrix(angle(t)))

    def fn_batch(T, X):
        scale = 1.0 / np.sqrt(1.0 + np.vecdot(X, X))
        return scale[:, None] * np.matmul(_at_times(frame, T), X[..., None])[..., 0]

    return Nonlinearity(m=2, p=2, name="normalized_frame", fn_batch=fn_batch,
                        fn=lambda t, xi: (1.0 / math.sqrt(1.0 + float(xi @ xi)))
                        * (frame(t) @ xi))


@pytest.mark.parametrize("build, direct", [
    (lambda angle: rotated_radial(angle=angle),
     lambda angle, t, xi: xi - float(np.linalg.norm(xi))
     * (rotation_matrix(angle(t)) @ xi)),
    (_normalized_frame,
     lambda angle, t, xi: (1.0 / math.sqrt(1.0 + float(xi @ xi)))
     * (rotation_matrix(angle(t)) @ xi)),
    (lambda angle: normalized_gain(gain=angle, p=2),
     lambda angle, t, xi: (angle(t) / (1.0 + np.linalg.norm(xi))) * xi),
])
def test_time_factors_memoised_per_time(build, direct):
    # the angle tells -0.0 from 0.0; NaN gives NaN factors and never hits,
    # and a conformal map rejects a NaN factor where it resolves
    def angle(t):
        return 0.25 + 0.5 * math.copysign(1.0, t) + math.sin(t)

    counted, calls = _counted(angle)
    f = build(counted)
    xi = np.array([0.6, -0.0])
    with np.errstate(invalid="ignore"):
        for t in MEMO_TIMES:
            if math.isnan(t) and f.kind == "conformal":
                with pytest.raises(ConfigurationError, match="no finite time factor at t=nan"):
                    f.fn(t, xi)
                continue
            got, want = f.fn(t, xi), direct(angle, t, xi)
            assert got.tobytes() == want.tobytes(), t
        assert len(calls) == _distinct_runs(MEMO_TIMES)
        # the batched form shares the memo; one time per row resolves each
        # distinct time, in the same bits
        X = np.array([[0.6, -0.0], [-1.5, 0.25], [0.0, 2.0]])
        for t in (0.5, -0.0, 0.0):
            rows = f.fn_batch(np.asarray(t), X)
            for xi_row, row in zip(X, rows):
                assert row.tobytes() == direct(angle, t, xi_row).tobytes()
        T = np.array([-0.0, 0.5, 0.0])
        rows = f.fn_batch(T, X)
        for t, xi_row, row in zip(T.tolist(), X, rows):
            assert row.tobytes() == direct(angle, t, xi_row).tobytes()


def test_per_time_memo_keys_on_bits():
    from luresim.nonlinearity import _PerTime
    counted, calls = _counted(lambda t: math.copysign(1.0, t) + t)
    memo = _PerTime(counted)
    for t in MEMO_TIMES:
        got = memo(t)
        want = math.copysign(1.0, t) + t
        assert _same_bits(got, want) or (math.isnan(got) and math.isnan(want))
    assert len(calls) == _distinct_runs(MEMO_TIMES)


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
    # the error eval raises is the cause of an EvaluationError at that t
    compiled = compile_scalar_expression("sqrt(t)")
    with pytest.raises(EvaluationError) as exc:
        compiled(-1.0)
    assert type(exc.value.__cause__) is ValueError and exc.value.t == -1.0
    with pytest.raises(EvaluationError) as exc:
        compile_scalar_expression("1 / t")(0.0)
    assert type(exc.value.__cause__) is ZeroDivisionError
    # the conversion wrapper is not reachable from an expression
    with pytest.raises(config.ConfigurationError):
        compile_scalar_expression("float(t)")


# ---------------------------------------------------------------------------
# The solution carries u = f(t, y)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, w, opts", [
    ("ex3c", [0.1], SolveOptions()),                    # exact, scalar
    ("sec42b", [0.3, 0.4], SolveOptions()),             # exact, radial
    ("ex4b", [0.5, 0.2], SolveOptions(use_structure=False)),  # Newton
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
