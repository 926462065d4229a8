"""System-definition files: strict parsing, validation, serialization.

One format only: a JSON document with the four top-level sections
``matrices``, ``nonlinearity``, ``input`` and ``defaults``.  Unknown
fields are rejected and every error carries the offending field path.
Nonlinearities are either built-ins (by name, with parameters),
piecewise-scalar descriptions, or arithmetic expressions over
``t, xi_1 .. xi_p`` with a small whitelisted function set.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nonlinearity as nl
from .errors import ConfigurationError, EvaluationError
from .nonlinearity import Nonlinearity, ScalarPiece
from .signals import (InputSignal, constant_input, piecewise_constant_input,
                      polynomial_input, zero_input)
from .system import SystemMatrices

_MATRIX_NAMES = ("A", "B", "B_e", "C", "D", "D_e")
_ALLOWED_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "atan": math.atan,
    "sqrt": math.sqrt,
    "abs": abs,
    "min": min,
    "max": max,
    "exp": math.exp,
}
# the least number of arguments of the functions that take several
_LEAST_ARGS = {"min": 2, "max": 2, "norm": 1}


def _err(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Safe arithmetic expressions
# ---------------------------------------------------------------------------

class _ExprChecker(ast.NodeVisitor):
    def __init__(self, names: set[str], path: str):
        self.names = names
        self.path = path

    def generic_visit(self, node):
        allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                   ast.Name, ast.Call, ast.Add, ast.Sub, ast.Mult, ast.Div,
                   ast.Pow, ast.USub, ast.UAdd, ast.Load)
        if not isinstance(node, allowed):
            raise _err(self.path, f"disallowed syntax {type(node).__name__}")
        super().generic_visit(node)

    def visit_Constant(self, node):
        if not isinstance(node.value, (int, float)):
            raise _err(self.path, f"non-numeric constant {node.value!r}")

    def visit_Name(self, node):
        if node.id not in self.names:
            raise _err(self.path, f"unknown name {node.id!r}")

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name) or node.func.id not in (
                set(_ALLOWED_FUNCS) | {"norm"}):
            raise _err(self.path, "only sin, cos, atan, sqrt, abs, min, max, "
                                  "exp, norm may be called")
        if node.keywords:
            raise _err(self.path, "keyword arguments are not allowed")
        n, least = len(node.args), _LEAST_ARGS.get(node.func.id, 1)
        if n < least or (n > 1 and node.func.id not in _LEAST_ARGS):
            raise _err(self.path, f"{node.func.id} given {n} arguments")
        for arg in node.args:
            self.visit(arg)


def _norm(*args):
    return math.sqrt(sum(float(a) ** 2 for a in args))


def _compile_expression(expr: str, names: list[str], path: str):
    """Check the expression, then compile it once into a plain function of
    ``names`` (positional, in order) returning a float.

    The function body is the checked expression itself, so every operation
    and ``math`` call is the one ``eval`` would make; only the whitelisted
    functions are reachable, as globals, and builtins are empty.  A domain
    error, an overflow or a complex value raises EvaluationError at t and
    the point, with the original error as its cause.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise _err(path, f"syntax error: {exc.msg}") from None
    _ExprChecker(set(names), path).visit(tree)
    # The expression names only its variables and the whitelisted functions
    # (with valid argument counts), so it cannot reach the names below, and
    # a TypeError is an operation on a complex value.  The checked
    # expression takes the place of the "...".
    args = ", ".join(names)
    module = ast.parse(f"def expression({args}):\n"
                       f"    try:\n"
                       f"        return float(...)\n"
                       f"    except _FAILURES as exc:\n"
                       f"        raise _failed(exc, {args}) from exc\n")
    module.body[0].body[0].body[0].value.args = [tree.body]
    code = compile(ast.fix_missing_locations(module), f"<{path}>", "exec")

    def failed(exc, *values):
        return EvaluationError(f"{path}: {exc} at {dict(zip(names, values))}",
                               t=values[0], point=np.array(values[1:]))

    env = {"__builtins__": {}, **_ALLOWED_FUNCS, "norm": _norm, "float": float,
           "_FAILURES": (ArithmeticError, ValueError, TypeError), "_failed": failed}
    exec(code, env)
    return env["expression"]


def compile_scalar_expression(expr: str, path: str = "expression"):
    """Compile an expression of t into a callable t -> float."""
    return _compile_expression(expr, ["t"], path)


def compile_vector_expression(exprs: list[str], p: int,
                              path: str = "nonlinearity.expression") -> Nonlinearity:
    """Compile m expressions of (t, xi_1..xi_p) into a nonlinearity."""
    names = ["t"] + [f"xi_{i+1}" for i in range(p)]
    fns = [_compile_expression(e, names, f"{path}[{i}]")
           for i, e in enumerate(exprs)]

    def fn(t, xi):
        values = [float(t)] + [float(xi[i]) for i in range(p)]
        return np.array([g(*values) for g in fns])

    return Nonlinearity(m=len(exprs), p=p, fn=fn, kind="expression",
                        name="expression", params={"exprs": list(exprs)})


# ---------------------------------------------------------------------------
# Builtin nonlinearity registry
# ---------------------------------------------------------------------------

def _number(value, path: str, expected: str = "a finite number") -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise _err(path, f"expected {expected}")
    return float(value)


def _count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _err(path, "expected an integer >= 1")
    return value


def _planar(value, path: str) -> int:
    if _count(value, path) != 2:
        raise _err(path, "expected 2: the map is planar")
    return value


def _time_expr(value, path: str) -> str:
    if not isinstance(value, str):
        raise _err(path, "expected an expression of t")
    return value


def _number_or_time_expr(value, path: str):
    if isinstance(value, str):
        return value
    return _number(value, path, "a finite number or an expression of t")


def _matrix(value, path: str) -> list[list[float]]:
    try:
        arr = np.array(value, dtype=float, ndmin=2)
    except (TypeError, ValueError):
        raise _err(path, "expected a finite numeric matrix") from None
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise _err(path, "expected a finite numeric matrix")
    return arr.tolist()


# name -> (builder, {parameter: (reader, default)}); a reader checks a
# given value and returns it as the map's params record it, and a default
# of None marks a required parameter
_BUILTINS = {
    "zero": (nl.zero_nonlinearity, {"m": (_count, None), "p": (_count, None)}),
    "linear": (nl.linear_nonlinearity, {"K": (_matrix, None)}),
    "halfband_slopes": (nl.halfband_slopes, {}),
    "parabolic_band": (nl.parabolic_band, {}),
    "identity_minus_atan": (nl.identity_minus_atan, {}),
    "deadzone_saturation": (nl.deadzone_saturation,
                            {"width": (_number_or_time_expr, 0.3)}),
    "saturation_scaled": (nl.saturation_scaled,
                          {"gain": (_number_or_time_expr, 1.0)}),
    "normalized_gain": (nl.normalized_gain,
                        {"gain": (_number_or_time_expr, 0.5), "p": (_count, 2)}),
    "rotated_radial": (nl.rotated_radial, {"angle": (_time_expr, "t")}),
    "normalized_rotation": (lambda omega, p: nl.normalized_rotation(omega),
                            {"omega": (_number, 1.0), "p": (_planar, 2)}),
    "radial_three_zone": (nl.radial_three_zone, {"p": (_count, 2)}),
}


def _build_builtin(name: str, params, path: str = "nonlinearity.builtin"
                   ) -> Nonlinearity:
    """The built-in map ``name``, for config files and the catalog alike.

    Each parameter, given or default, is read once and recorded as read
    (an expression of t as its text) in the map's ``params``, so a config
    written from them builds the same map.  Errors name the field.
    """
    if not isinstance(name, str) or name not in _BUILTINS:
        raise _err(f"{path}.name",
                   f"unknown builtin {name!r}; valid: {sorted(_BUILTINS)}")
    builder, spec = _BUILTINS[name]
    if not isinstance(params, dict):
        raise _err(f"{path}.params", "expected an object")
    if set(params) - set(spec):
        raise _err(f"{path}.params",
                   f"unknown parameters {sorted(set(params) - set(spec))}")
    record, args = {}, {}
    for key, (read, default) in spec.items():
        field = f"{path}.params.{key}"
        if key not in params and default is None:
            raise _err(field, "required parameter missing")
        record[key] = args[key] = read(params.get(key, default), field)
        if isinstance(record[key], str):
            args[key] = compile_scalar_expression(record[key], field)
    return replace(builder(**args), params=record)


def _build_piecewise(spec: dict, path: str) -> Nonlinearity:
    spec = dict(spec)
    pieces_raw = spec.pop("pieces", None)
    if spec:
        raise _err(path, f"unknown fields {sorted(spec)}")
    if not isinstance(pieces_raw, list) or not pieces_raw:
        raise _err(f"{path}.pieces", "expected a non-empty list of pieces")
    pieces = []
    for i, raw in enumerate(pieces_raw):
        ppath = f"{path}.pieces[{i}]"
        if not isinstance(raw, dict):
            raise _err(ppath, "expected an object")
        raw = dict(raw)
        lo = raw.pop("lo", None)
        hi = raw.pop("hi", None)

        def edge(value, which):
            if value == "-inf":
                return -math.inf
            if value == "inf":
                return math.inf
            if type(value) in (int, float) and not math.isnan(value):
                return float(value)
            raise _err(f"{ppath}.{which}", "expected a number, 'inf' or '-inf'")

        lo_v, hi_v = edge(lo, "lo"), edge(hi, "hi")
        if "poly" in raw:
            coeffs = raw.pop("poly")
            if (not isinstance(coeffs, list) or not 1 <= len(coeffs) <= 3
                    or not all(type(c) in (int, float) and math.isfinite(c)
                               for c in coeffs)):
                raise _err(f"{ppath}.poly", "expected 1 to 3 finite numeric coefficients")
            coeffs = list(coeffs) + [0.0] * (3 - len(coeffs))
            pieces.append(ScalarPiece(lo=lo_v, hi=hi_v, c0=coeffs[0],
                                      c1=coeffs[1], c2=coeffs[2]))
        elif raw.pop("id_minus_atan", False):
            pieces.append(ScalarPiece(lo=lo_v, hi=hi_v, c1=1.0, atan_coeff=-1.0))
        else:
            raise _err(ppath, "piece needs 'poly' or 'id_minus_atan'")
        if raw:
            raise _err(ppath, f"unknown fields {sorted(raw)}")
    return nl.piecewise_scalar(tuple(pieces), name="piecewise_scalar",
                               params={"pieces": pieces_raw})


# ---------------------------------------------------------------------------
# Top-level config
# ---------------------------------------------------------------------------

def _signal(build, path: str, *args) -> InputSignal:
    """build(*args), whose errors, numpy's included, name the field."""
    try:
        return build(*args)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise _err(path, str(exc)) from None


@dataclass
class SystemConfig:
    system: SystemMatrices
    nonlinearity: Nonlinearity
    input: InputSignal
    defaults: dict
    raw: dict


def parse_config(text: str) -> SystemConfig:
    """Parse and strictly validate a system-definition document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be an object")
    doc = dict(doc)
    matrices_raw = doc.pop("matrices", None)
    nonlin_raw = doc.pop("nonlinearity", None)
    input_raw = doc.pop("input", None)
    defaults_raw = doc.pop("defaults", {})
    if doc:
        raise ConfigurationError(f"unknown top-level fields {sorted(doc)}")

    if not isinstance(matrices_raw, dict):
        raise _err("matrices", "expected an object with A, B, B_e, C, D, D_e")
    matrices_raw = dict(matrices_raw)
    mats = {}
    for key in _MATRIX_NAMES:
        if key not in matrices_raw:
            raise _err(f"matrices.{key}", "required matrix missing")
        mats[key] = np.array(_matrix(matrices_raw.pop(key), f"matrices.{key}"))
    if matrices_raw:
        raise _err("matrices", f"unknown fields {sorted(matrices_raw)}")

    n = mats["A"].shape[0]
    if mats["A"].shape != (n, n):
        raise _err("matrices.A", f"must be square, got {mats['A'].shape}")
    p, m = mats["D"].shape
    checks = {
        "B": (n, m), "B_e": (n, mats["D_e"].shape[1]),
        "C": (p, n), "D_e": (p, mats["D_e"].shape[1]),
    }
    for key, shape in checks.items():
        if mats[key].shape != shape:
            raise _err(f"matrices.{key}",
                       f"has shape {mats[key].shape}, expected {shape}")
    system = SystemMatrices(A=mats["A"], B=mats["B"], B_e=mats["B_e"],
                            C=mats["C"], D=mats["D"], D_e=mats["D_e"])

    if not isinstance(nonlin_raw, dict) or len(nonlin_raw) != 1:
        raise _err("nonlinearity",
                   "expected exactly one of: builtin, piecewise_scalar, expression")
    (tag, payload), = nonlin_raw.items()
    if tag == "builtin":
        if not isinstance(payload, dict) or set(payload) - {"name", "params"}:
            raise _err("nonlinearity.builtin", "expected an object with a name "
                                               "and optional params")
        f = _build_builtin(payload.get("name"), payload.get("params", {}))
    elif tag == "piecewise_scalar":
        f = _build_piecewise(payload, "nonlinearity.piecewise_scalar")
    elif tag == "expression":
        if (not isinstance(payload, list) or not payload
                or not all(isinstance(e, str) for e in payload)):
            raise _err("nonlinearity.expression", "expected a list of expressions")
        f = compile_vector_expression(payload, p)
    else:
        raise _err("nonlinearity", f"unknown kind {tag!r}")

    if f.p != p or f.m != m:
        raise _err("nonlinearity",
                   f"evaluates R^{f.p} -> R^{f.m}, but D is {p} x {m}")

    m_e = system.dims[2]
    if not isinstance(input_raw, dict) or len(input_raw) != 1:
        raise _err("input", "expected exactly one of: zero, constant, "
                            "piecewise_constant, polynomial")
    (itag, ipayload), = input_raw.items()
    if itag == "zero":
        if ipayload is not True and not (isinstance(ipayload, dict)
                                         and set(ipayload) <= {"m_e"}):
            raise _err("input.zero", "expected true or an object {\"m_e\": int}")
        if isinstance(ipayload, dict) and "m_e" in ipayload \
                and _count(ipayload["m_e"], "input.zero.m_e") != m_e:
            raise _err("input.zero.m_e", f"got {ipayload['m_e']}, expected {m_e}")
        signal = zero_input(m_e)
    elif itag == "constant":
        signal = _signal(constant_input, "input.constant", ipayload)
    elif itag == "piecewise_constant":
        if not isinstance(ipayload, dict) or set(ipayload) != {"times", "values"}:
            raise _err("input.piecewise_constant", "expected times and values")
        signal = _signal(piecewise_constant_input, "input.piecewise_constant",
                         ipayload["times"], ipayload["values"])
    elif itag == "polynomial":
        signal = _signal(polynomial_input, "input.polynomial", ipayload)
    else:
        raise _err("input", f"unknown kind {itag!r}")
    if signal.m_e != m_e:
        raise _err("input", f"signal has m_e={signal.m_e}, system needs {m_e}")

    if not isinstance(defaults_raw, dict):
        raise _err("defaults", "expected an object")
    defaults_raw = dict(defaults_raw)
    defaults = {}
    for key in ("t0", "tmax", "dt"):
        if key in defaults_raw:
            defaults[key] = _number(defaults_raw.pop(key), f"defaults.{key}")
    if defaults.get("dt", 1.0) <= 0:
        raise _err("defaults.dt", "expected a positive step")
    if defaults.get("tmax", math.inf) <= defaults.get("t0", -math.inf):
        raise _err("defaults.tmax", "expected a time after defaults.t0")
    if "x0" in defaults_raw:
        x0 = defaults_raw.pop("x0")
        if not isinstance(x0, list):
            raise _err("defaults.x0", f"expected a list of n={n} numbers")
        if len(x0) != n:
            raise _err("defaults.x0", f"has length {len(x0)}, expected n={n}")
        defaults["x0"] = np.array([_number(v, f"defaults.x0[{i}]")
                                   for i, v in enumerate(x0)])
    if defaults_raw:
        raise _err("defaults", f"unknown fields {sorted(defaults_raw)}")

    raw = json.loads(text)
    return SystemConfig(system=system, nonlinearity=f, input=signal,
                        defaults=defaults, raw=raw)


def load_config(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Serialization of catalog entries
# ---------------------------------------------------------------------------

def _signal_to_dict(signal: InputSignal) -> dict:
    if signal.kind == "zero":
        return {"zero": {"m_e": signal.m_e}}
    if signal.kind == "constant":
        return {"constant": [float(v) for v in signal.constant]}
    if signal.kind == "piecewise_constant":
        return {"piecewise_constant": {
            "times": [float(v) for v in signal.table_times],
            "values": [[float(v) for v in row] for row in signal.table_values],
        }}
    return {"polynomial": [[float(v) for v in row]
                           for row in signal.coefficients]}


def entry_to_config(entry) -> dict:
    """Serialize a catalog entry into the config schema.

    Only a built-in map whose ``params`` record every parameter of its
    name reloads as the same map; any other raises ConfigurationError
    naming the field that cannot be written.
    """
    mats = {key: [[float(v) for v in row] for row in getattr(entry.system, key)]
            for key in _MATRIX_NAMES}
    f = entry.nonlinearity
    if f.name not in _BUILTINS:
        raise _err("nonlinearity.builtin.name",
                   f"{f.name or 'an unnamed map'!r} is not a builtin")
    for key in _BUILTINS[f.name][1]:
        if key not in f.params:
            raise _err(f"nonlinearity.builtin.params.{key}",
                       "not recorded by the map (a callable parameter?), "
                       "so a config would not rebuild it")
    return {
        "matrices": mats,
        "nonlinearity": {"builtin": {"name": f.name, "params": dict(f.params)}},
        "input": _signal_to_dict(entry.input),
        "defaults": {
            "t0": float(entry.t0),
            "x0": [float(v) for v in entry.x0],
            "tmax": float(entry.tmax),
            "dt": float(entry.dt),
        },
    }


def config_text(entry) -> str:
    return json.dumps(entry_to_config(entry), indent=2, sort_keys=True) + "\n"
