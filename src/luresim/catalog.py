"""Built-in example systems with closed-form references and expected verdicts.

Each entry bundles the system sextuple, its nonlinearity and forcing,
default initial data, reference solutions where a closed form exists,
and the analyzer verdicts the entry is expected to reproduce.  The
references are checked against the system equations by substitution on
load, so a transcription slip cannot survive silently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analyzer import analyze_system
from .config import _build_builtin
from .errors import UsageError
from .inclusion import (InclusionOptions, SelectionPolicy, check_image_convexity,
                        simulate_inclusion)
from .integrator import (SimOptions, compare_to_reference, refine_escape_time,
                         simulate)
from .nonlinearity import Nonlinearity
from .output_solver import enumerate_fibre_exact
from .signals import InputSignal, polynomial_input, zero_input
from .system import SystemMatrices, eval_F

LN2 = math.log(2.0)
PI_2 = math.pi / 2.0

EXAMPLE_NAMES = ("ex3a", "ex3b", "ex3c", "ex3d", "ex4a", "ex4b", "ex4c",
                 "sec42a", "sec42b", "sec42c")


@dataclass(frozen=True)
class Reference:
    """Closed-form solution data attached to a catalog entry."""

    label: str
    x: Callable[[float], np.ndarray]
    y: Callable[[float], np.ndarray] | None = None
    xdot: Callable[[float], np.ndarray] | None = None
    tau: float | None = None
    termination: str = "reached_tmax"
    t_end: float | None = None          # right end of the comparison domain


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    title: str
    system: SystemMatrices
    nonlinearity: Nonlinearity
    input: InputSignal
    t0: float
    x0: np.ndarray
    tmax: float
    dt: float
    references: tuple[Reference, ...] = ()
    expected_verdicts: dict = field(default_factory=dict)
    expected_tags: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def reference(self) -> Reference | None:
        return self.references[0] if self.references else None


def _scalar_sys(a: float) -> SystemMatrices:
    return SystemMatrices(A=[[a]], B=[[1.0]], B_e=[[1.0]], C=[[1.0]],
                          D=[[1.0]], D_e=[[1.0]])


def _planar_sys(a_diag: float, d_scale: float) -> SystemMatrices:
    eye = np.eye(2)
    return SystemMatrices(A=a_diag * eye, B=eye, B_e=eye, C=eye,
                          D=d_scale * eye, D_e=np.zeros((2, 2)))


def _band_system() -> SystemMatrices:
    return SystemMatrices(
        A=[[1.0, 0.0], [0.0, 0.0]],
        B=[[0.0], [1.0]], B_e=[[0.0], [1.0]],
        C=[[1.0, 0.0]], D=[[1.0]], D_e=[[1.0]],
    )


def _verdicts(radial, lower, det, growth, mono, nonempty, convex):
    return {
        "radial_unbounded": radial,
        "upper_lipschitz": "pass_sampled",
        "lower_lipschitz": lower,
        "determinant": det,
        "growth": growth,
        "monotonicity": mono,
        "fibre_nonempty": nonempty,
        "fibre_convex": convex,
    }


def _tags(existence, inclusion_existence, fwd, fwd_inclusion, uniqueness):
    return {
        "existence_and_blowup": existence,
        "existence_and_blowup_inclusion": inclusion_existence,
        "forward_complete": fwd,
        "forward_complete_inclusion": fwd_inclusion,
        "uniqueness": uniqueness,
    }


def _build_ex3a() -> CatalogEntry:
    return CatalogEntry(
        name="ex3a",
        title="output equation with a bounded range: existence fails off the band",
        system=_band_system(), nonlinearity=_build_builtin("halfband_slopes", {}),
        input=zero_input(1), t0=0.0, x0=np.array([1.5, 0.0]),
        tmax=1.0, dt=1e-3,
        expected_verdicts=_verdicts("fail_witness", "fail_witness",
                                    "fail_witness", "inconclusive",
                                    "inconclusive", "fail_witness",
                                    "pass_sampled"),
        expected_tags=_tags(False, False, False, False, False),
        notes="No trajectory exists from (a, 0) when |a| > 1; the forcing "
              "term e^t a leaves the range [-1, 1] of xi - f(xi).",
    )


def _build_ex3b() -> CatalogEntry:
    def x_ref(t):
        return np.array([math.exp(t) / 2.0, (math.exp(t) - 1.0) / 2.0])

    def y_ref(t):
        return np.array([math.exp(t)])

    def xdot_ref(t):
        return np.array([math.exp(t) / 2.0, math.exp(t) / 2.0])

    ref = Reference(label="maximal", x=x_ref, y=y_ref, xdot=xdot_ref,
                    tau=LN2, termination="no_output_solution",
                    t_end=LN2 - 1e-6)
    entry = _build_ex3a()
    return CatalogEntry(
        name="ex3b",
        title="bounded state with finite escape of existence at ln 2",
        system=entry.system, nonlinearity=entry.nonlinearity,
        input=entry.input, t0=0.0, x0=np.array([0.5, 0.0]),
        tmax=1.0, dt=1e-4, references=(ref,),
        expected_verdicts=entry.expected_verdicts,
        expected_tags=entry.expected_tags,
        notes="The maximal solution lives on [0, ln 2) with bounded state "
              "and bounded output integrals: existence is lost without "
              "any blow-up.",
    )


def _build_ex3c() -> CatalogEntry:
    def x_const(t):
        return np.array([0.25])

    def y_const(t):
        return np.array([0.5])

    def x_decay(t):
        if t <= LN2:
            return np.array([(math.exp(-t) - 0.5) ** 2])
        return np.array([0.0])

    def y_decay(t):
        if t <= LN2:
            return np.array([0.5 - math.exp(-t)])
        return np.array([0.0])

    def xdot_decay(t):
        if t <= LN2:
            return np.array([2.0 * (math.exp(-t) - 0.5) * (-math.exp(-t))])
        return np.array([0.0])

    refs = (
        Reference(label="constant", x=x_const, y=y_const,
                  xdot=lambda t: np.array([0.0]), termination="reached_tmax"),
        Reference(label="decay", x=x_decay, y=y_decay, xdot=xdot_decay,
                  termination="reached_tmax"),
    )
    return CatalogEntry(
        name="ex3c",
        title="two-valued fibres: two solutions from one initial state",
        system=_scalar_sys(-1.0), nonlinearity=_build_builtin("parabolic_band", {}),
        input=zero_input(1), t0=0.0, x0=np.array([0.25]),
        tmax=2.0, dt=1e-4, references=refs,
        expected_verdicts=_verdicts("pass_sampled", "fail_witness",
                                    "fail_witness", "pass_sampled",
                                    "fail_witness", "pass_sampled",
                                    "fail_witness"),
        expected_tags=_tags(False, False, False, False, False),
        notes="xi - f(xi) = xi^2 on the central band, so fibres carry two "
              "points; selecting each branch realises both closed-form "
              "solutions.  The image of a three-point fibre is not convex.",
    )


@functools.lru_cache(maxsize=1)
def _gauss_legendre_80() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(80)


def _ex3d_state_factor(t: float) -> float:
    """exp(2t) (int_0^t exp(-2s) tan(s) ds - 1) by 80-point Gauss-Legendre.

    tan's pole at pi/2 is the integrand's nearest singularity, so the rule
    is at roundoff level up to t = pi/2 - 0.02, past the reference's end.
    """
    nodes, weights = _gauss_legendre_80()
    s = 0.5 * t * (nodes + 1.0)
    integral = 0.5 * t * float(weights @ (np.exp(-2.0 * s) * np.tan(s)))
    return math.exp(2.0 * t) * (integral - 1.0)


def _build_ex3d() -> CatalogEntry:
    b_vec = np.array([1.0, -1.0])

    def x_ref(t):
        return _ex3d_state_factor(t) * b_vec

    def y_ref(t):
        return np.array([math.tan(t)])

    def xdot_ref(t):
        return (2.0 * _ex3d_state_factor(t) + math.tan(t)) * b_vec

    ref = Reference(label="maximal", x=x_ref, y=y_ref, xdot=xdot_ref,
                    tau=PI_2, termination="blow_up", t_end=PI_2 - 0.15)
    return CatalogEntry(
        name="ex3d",
        title="finite-time blow-up under linearly bounded feedback",
        system=SystemMatrices(A=[[1.0, -1.0], [-1.0, 1.0]],
                              B=[[1.0], [-1.0]], B_e=[[1.0], [-1.0]],
                              C=[[1.0, 1.0]], D=[[1.0]], D_e=[[1.0]]),
        nonlinearity=_build_builtin("identity_minus_atan", {}),
        input=polynomial_input([[0.0], [1.0]]),     # v(t) = t
        t0=0.0, x0=np.array([-1.0, 1.0]),
        tmax=2.0, dt=1e-3, references=(ref,),
        expected_verdicts=_verdicts("fail_witness", "pass_sampled",
                                    "pass_sampled", "inconclusive",
                                    "pass_sampled", "fail_witness",
                                    "pass_sampled"),
        expected_tags=_tags(False, False, False, False, True),
        notes="y(t) = tan(t) escapes at pi/2 although f is linearly "
              "bounded; the blow-up is caused by the feedthrough.",
    )


def _build_ex4a(angle="t") -> CatalogEntry:
    return CatalogEntry(
        name="ex4a",
        title="rotating radial map: invertible output, superlinear gain",
        system=SystemMatrices(A=np.zeros((2, 2)), B=np.eye(2), B_e=np.eye(2),
                              C=np.eye(2), D=np.eye(2), D_e=np.zeros((2, 2))),
        nonlinearity=_build_builtin("rotated_radial", {"angle": angle}),
        input=zero_input(2), t0=0.0, x0=np.array([1.0, 0.0]),
        tmax=5.0, dt=1e-3,
        expected_verdicts=_verdicts("pass_sampled", "pass_sampled",
                                    "fail_witness", "fail_witness",
                                    "fail_witness", "pass_sampled",
                                    "pass_sampled"),
        expected_tags=_tags(True, True, False, False, True),
        notes="||xi - D f(t, xi)|| = g(||xi||) ||xi|| identically in t; the "
              "growth check fails because ||f||/||xi|| reaches 1 at the "
              "quarter-turn times and grows with g.",
    )


def _build_ex4b() -> CatalogEntry:
    return CatalogEntry(
        name="ex4b",
        title="normalized rotation with contractive feedthrough",
        system=_planar_sys(-1.0, 0.5),
        nonlinearity=_build_builtin("normalized_rotation", {}),
        input=zero_input(2), t0=0.0, x0=np.array([1.0, 1.0]),
        tmax=10.0, dt=1e-3,
        expected_verdicts=_verdicts("pass_sampled", "pass_sampled",
                                    "pass_sampled", "pass_sampled",
                                    "pass_sampled", "pass_sampled",
                                    "pass_sampled"),
        expected_tags=_tags(True, True, True, True, True),
        notes="||D (df_t)|| <= ||D|| = 1/2 < 1 everywhere, so every "
              "single-valued route applies.",
    )


def _build_ex4c(gain=0.5) -> CatalogEntry:
    f = _build_builtin("normalized_gain", {"gain": gain, "p": 2})
    return CatalogEntry(
        name="ex4c",
        title="normalized gain: complete and unique for gains below one",
        system=_planar_sys(-1.0, 1.0), nonlinearity=f,
        input=zero_input(2), t0=0.0, x0=np.array([2.0, 1.0]),
        tmax=10.0, dt=1e-3,
        expected_verdicts=_verdicts("pass_sampled", "pass_sampled",
                                    "pass_sampled", "pass_sampled",
                                    "pass_sampled", "pass_sampled",
                                    "pass_sampled"),
        expected_tags=_tags(True, True, True, True, True),
        notes="With gain h bounded away from 1 the Jacobian of the output "
              "map at the origin is (1-h) I; at h = 1 the invertibility "
              "margin collapses there.",
    )


def _build_sec42a(width=0.3) -> CatalogEntry:
    f = _build_builtin("deadzone_saturation", {"width": width})
    return CatalogEntry(
        name="sec42a",
        title="deadzone-saturation: segment fibres with convex images",
        system=_scalar_sys(-1.0), nonlinearity=f,
        input=zero_input(1), t0=0.0, x0=np.array([0.5]),
        tmax=5.0, dt=1e-3,
        expected_verdicts=_verdicts("pass_sampled", "fail_witness",
                                    "fail_witness", "pass_sampled",
                                    "inconclusive", "pass_sampled",
                                    "pass_sampled"),
        expected_tags=_tags(False, True, False, True, False),
        notes="Fibres at +-d(t) are whole transition bands; their images "
              "under f are the intervals [0, 1] and [-1, 0].",
    )


def _build_sec42b() -> CatalogEntry:
    return CatalogEntry(
        name="sec42b",
        title="radial three-zone map: segment fibres along rays",
        system=_planar_sys(-1.0, 0.5),
        nonlinearity=_build_builtin("radial_three_zone", {"p": 2}),
        input=zero_input(2), t0=0.0, x0=np.array([1.5, 0.0]),
        tmax=5.0, dt=1e-3,
        expected_verdicts=_verdicts("pass_sampled", "fail_witness",
                                    "fail_witness", "pass_sampled",
                                    "inconclusive", "pass_sampled",
                                    "pass_sampled"),
        expected_tags=_tags(False, True, False, True, False),
        notes="At ||w|| = 1/2 the fibre is the ray segment {r w : r in "
              "[2, 4]} with image {r w : r in [2, 6]}, convex.",
    )


def _build_sec42c(gain="min(1, 0.5*t)") -> CatalogEntry:
    f = _build_builtin("saturation_scaled", {"gain": gain})
    return CatalogEntry(
        name="sec42c",
        title="time-varying saturation: fibres fatten as the gain reaches one",
        system=_scalar_sys(-1.0), nonlinearity=f,
        input=zero_input(1), t0=0.0, x0=np.array([0.5]),
        tmax=3.0, dt=1e-3,
        expected_verdicts=_verdicts("pass_sampled", "fail_witness",
                                    "fail_witness", "pass_sampled",
                                    "inconclusive", "pass_sampled",
                                    "pass_sampled"),
        expected_tags=_tags(False, True, False, True, False),
        notes="Default gain min(1, t/2): singleton fibres at t = 0, unique "
              "solvability for t < 2, and the segment fibre [-1, 1] at "
              "w = 0 once the gain saturates at one.",
    )


_BUILDERS = {
    "ex3a": _build_ex3a,
    "ex3b": _build_ex3b,
    "ex3c": _build_ex3c,
    "ex3d": _build_ex3d,
    "ex4a": _build_ex4a,
    "ex4b": _build_ex4b,
    "ex4c": _build_ex4c,
    "sec42a": _build_sec42a,
    "sec42b": _build_sec42b,
    "sec42c": _build_sec42c,
}


def build_example(name: str, **params) -> CatalogEntry:
    """Construct a catalog entry by name.

    Some entries take parameters, read as a config file reads them (ex4c
    ``gain``, sec42a ``width``, sec42c ``gain``: a number or an expression
    of t; ex4a ``angle``: an expression of t); defaults match the shipped
    configuration.
    """
    if name not in _BUILDERS:
        raise UsageError(
            f"unknown example {name!r}; valid names: {', '.join(EXAMPLE_NAMES)}"
        )
    entry = _BUILDERS[name](**params)
    _self_check(entry, n_grid=8)
    return entry


def list_examples() -> list[tuple[str, str]]:
    return [(name, _BUILDERS[name]().title) for name in EXAMPLE_NAMES]


def reference_residuals(entry: CatalogEntry, ref: Reference,
                        n_grid: int = 1000) -> tuple[float, float]:
    """Max substitution residuals of a reference over its domain grid.

    Returns (state-equation residual, output-equation residual).
    """
    sys = entry.system
    f = entry.nonlinearity
    v = entry.input
    t_end = ref.t_end if ref.t_end is not None else entry.tmax
    grid = np.linspace(entry.t0, t_end, n_grid)
    worst_state = 0.0
    worst_output = 0.0
    for t in grid:
        x = np.asarray(ref.x(t), dtype=float).reshape(-1)
        y = np.asarray(ref.y(t), dtype=float).reshape(-1)
        u = f(float(t), y)
        vt = v(float(t))
        if ref.xdot is not None:
            r_state = ref.xdot(t) - (sys.A @ x + sys.B @ u + sys.B_e @ vt)
            worst_state = max(worst_state, float(np.linalg.norm(r_state)))
        r_out = y - sys.C @ x - sys.D @ u - sys.D_e @ vt
        worst_output = max(worst_output, float(np.linalg.norm(r_out)))
    return worst_state, worst_output


def _self_check(entry: CatalogEntry, n_grid: int = 8) -> None:
    for ref in entry.references:
        ws, wo = reference_residuals(entry, ref, n_grid=n_grid)
        if max(ws, wo) > 1e-9:
            raise UsageError(
                f"catalog entry {entry.name}: reference {ref.label!r} fails "
                f"substitution (state {ws:.2e}, output {wo:.2e})"
            )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationItem:
    name: str
    passed: bool
    measured: str


@dataclass
class VerificationReport:
    example: str
    items: list[VerificationItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            out.append(f"[{status}] {self.example}.{item.name}: {item.measured}")
        return out


def verify_example(name: str, quick: bool = False) -> VerificationReport:
    """Run the entry's simulation/analysis recipe against its references."""
    entry = build_example(name)
    items: list[VerificationItem] = []

    def record(check: str, passed: bool, measured: str):
        items.append(VerificationItem(name=check, passed=bool(passed),
                                      measured=measured))

    if name == "ex3a":
        for a in (1.5, -2.0, 10.0):
            rec = simulate(entry.system, entry.nonlinearity, entry.input,
                           0.0, np.array([a, 0.0]),
                           SimOptions(method="rk4_fixed", dt=1e-3, tmax=0.5))
            record(f"no_start_a_{a}", rec.termination.kind == "no_output_solution"
                   and rec.termination.time == 0.0,
                   f"termination={rec.termination.kind} at t={rec.termination.time}")
        rec = simulate(entry.system, entry.nonlinearity, entry.input, 0.0,
                       np.array([0.5, 0.0]),
                       SimOptions(method="rk4_fixed", dt=1e-3, tmax=0.05))
        record("starts_inside_band", rec.n_samples > 10,
               f"{rec.n_samples} samples")

    elif name == "ex3b":
        dt = 1e-3 if quick else 1e-4
        rec = simulate(entry.system, entry.nonlinearity, entry.input,
                       entry.t0, entry.x0,
                       SimOptions(method="rk4_fixed", dt=dt, tmax=entry.tmax))
        record("termination", rec.termination.kind == "no_output_solution",
               rec.termination.kind)
        t_star, half = refine_escape_time(rec, entry.system,
                                          entry.nonlinearity, entry.input,
                                          time_tol=1e-7)
        record("escape_time", abs(t_star - LN2) < 1e-3,
               f"t*={t_star:.8f} vs ln2={LN2:.8f} (width {2.0 * half:.1e})")
        metrics = compare_to_reference(rec, entry.reference)
        tol = 1e-6 if not quick else 1e-4
        record("trajectory_error", metrics["x_max_err"] < tol,
               f"sup error {metrics['x_max_err']:.2e}")
        record("bounded_state", float(np.linalg.norm(rec.x[-1])) < 2.0,
               f"final ||x|| = {np.linalg.norm(rec.x[-1]):.4f}")
        total = rec.y_integral_norm + rec.u_integral_norm
        record("bounded_integrals", total < 10.0, f"integral sum {total:.4f}")

    elif name == "ex3c":
        dt = 1e-3 if quick else 1e-4
        opts = InclusionOptions(method="euler", dt=dt, tmax=entry.tmax)
        rec_hi = simulate_inclusion(entry.system, entry.nonlinearity,
                                    entry.input, entry.t0, entry.x0,
                                    SelectionPolicy.fixed_branch(1), opts)
        rec_lo = simulate_inclusion(entry.system, entry.nonlinearity,
                                    entry.input, entry.t0, entry.x0,
                                    SelectionPolicy.fixed_branch(0), opts)
        m_hi = compare_to_reference(rec_hi, entry.references[0])
        m_lo = compare_to_reference(rec_lo, entry.references[1])
        tol = 1e-4 if not quick else 1e-3
        record("constant_branch", m_hi["x_max_err"] < 1e-8,
               f"sup error {m_hi['x_max_err']:.2e}")
        record("decay_branch", m_lo["x_max_err"] < tol,
               f"sup error {m_lo['x_max_err']:.2e}")
        n = min(rec_hi.n_samples, rec_lo.n_samples)
        gap = float(np.max(np.abs(rec_hi.x[:n, 0] - rec_lo.x[:n, 0])))
        record("branches_separate", gap > 0.1, f"sup distance {gap:.4f}")

    elif name == "ex3d":
        rec = simulate(entry.system, entry.nonlinearity, entry.input,
                       entry.t0, entry.x0,
                       SimOptions(method="rk45_adaptive", dt=1e-3,
                                  tmax=entry.tmax, rtol=1e-8))
        record("termination", rec.termination.kind == "blow_up",
               rec.termination.kind)
        t_star, _ = refine_escape_time(rec, entry.system,
                                       entry.nonlinearity, entry.input,
                                       time_tol=1e-7)
        record("escape_time", abs(t_star - PI_2) < 1e-2,
               f"t*={t_star:.8f} vs pi/2={PI_2:.8f}")
        record("output_diverges", rec.y_sup_norm > 1e3,
               f"sup ||y|| = {rec.y_sup_norm:.3e}")
        metrics = compare_to_reference(rec, entry.reference)
        record("trajectory_error", metrics["x_max_err"] < 1e-4,
               f"sup error {metrics['x_max_err']:.2e}")

    elif name == "ex4a":
        f = entry.nonlinearity
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200 if quick else 2000):
            t = 10.0 * rng.random()
            xi = rng.standard_normal(2) * 2.0
            lhs = float(np.linalg.norm(eval_F(entry.system, f, t, xi)))
            rhs = float(np.linalg.norm(xi) ** 2)
            worst = max(worst, abs(lhs - rhs))
        record("norm_identity", worst < 1e-10, f"max deviation {worst:.2e}")
        report = analyze_system(entry.system, f)
        record("radial_passes",
               report.record("radial_unbounded").verdict == "pass_sampled",
               report.record("radial_unbounded").verdict)
        record("growth_fails",
               report.record("growth").verdict == "fail_witness",
               report.record("growth").verdict)

    elif name in ("ex4b", "ex4c"):
        rec = simulate(entry.system, entry.nonlinearity, entry.input,
                       entry.t0, entry.x0,
                       SimOptions(method="rk45_adaptive", dt=1e-2,
                                  tmax=entry.tmax))
        record("forward_complete_run", rec.termination.kind == "reached_tmax",
               rec.termination.kind)
        record("residual_contract", float(np.max(rec.residuals)) <= 1e-10,
               f"max residual {np.max(rec.residuals):.2e}")

    elif name == "sec42a":
        t = 0.0
        fib = enumerate_fibre_exact(entry.nonlinearity, entry.system.D, t,
                                    np.array([0.3]))
        ok = (len(fib.segments) == 1 and not fib.points
              and abs(fib.segments[0][0][0] - 0.3) < 1e-12
              and abs(fib.segments[0][1][0] - 1.3) < 1e-12)
        record("segment_fibre", ok, f"fibre={fib.to_dict()}")
        verdict = check_image_convexity(entry.nonlinearity, entry.system.D, t,
                                     np.array([0.3]), fib)
        record("convex_image", verdict.kind == "convex_exact", verdict.kind)

    elif name == "sec42b":
        w = np.array([0.5, 0.0])
        fib = enumerate_fibre_exact(entry.nonlinearity, entry.system.D, 0.0, w)
        ok = (len(fib.segments) == 1
              and np.allclose(fib.segments[0][0], [1.0, 0.0])
              and np.allclose(fib.segments[0][1], [2.0, 0.0]))
        record("radial_segment_fibre", ok, f"fibre={fib.to_dict()}")
        verdict = check_image_convexity(entry.nonlinearity, entry.system.D, 0.0,
                                     w, fib)
        record("convex_image", verdict.kind == "convex_exact", verdict.kind)

    elif name == "sec42c":
        f = entry.nonlinearity
        D = entry.system.D
        fib0 = enumerate_fibre_exact(f, D, 0.0, np.array([0.4]))
        fib1 = enumerate_fibre_exact(f, D, 1.0, np.array([0.4]))
        fib2 = enumerate_fibre_exact(f, D, 2.5, np.array([0.0]))
        record("singleton_at_zero_gain",
               len(fib0.points) == 1 and not fib0.segments
               and abs(fib0.points[0][0] - 0.4) < 1e-12,
               f"{fib0.to_dict()}")
        record("unique_at_partial_gain",
               len(fib1.points) == 1 and not fib1.segments,
               f"{fib1.to_dict()}")
        ok = (len(fib2.segments) == 1
              and abs(fib2.segments[0][0][0] + 1.0) < 1e-12
              and abs(fib2.segments[0][1][0] - 1.0) < 1e-12)
        record("segment_at_full_gain", ok, f"{fib2.to_dict()}")
        rec = simulate(entry.system, f, entry.input, entry.t0, entry.x0,
                       SimOptions(method="rk4_fixed", dt=1e-3, tmax=entry.tmax))
        record("run_completes", rec.termination.kind == "reached_tmax",
               rec.termination.kind)

    # Shared: analyzer verdict matrix.
    if not quick:
        report = analyze_system(entry.system, entry.nonlinearity)
        verdicts = report.verdicts()
        mismatches = {k: (entry.expected_verdicts[k], verdicts.get(k))
                      for k in entry.expected_verdicts
                      if verdicts.get(k) != entry.expected_verdicts[k]}
        record("analyzer_matrix", not mismatches,
               "all verdicts as expected" if not mismatches
               else f"mismatches: {mismatches}")
        tags = {tg.name: tg.granted for tg in report.applicability}
        tag_mismatch = {k: (entry.expected_tags[k], tags.get(k))
                        for k in entry.expected_tags
                        if tags.get(k) != entry.expected_tags[k]}
        record("applicability_tags", not tag_mismatch,
               "all tags as expected" if not tag_mismatch
               else f"mismatches: {tag_mismatch}")
    return VerificationReport(example=name, items=items)
