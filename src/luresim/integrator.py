"""Time integration of the eliminated state equation.

Each Runge-Kutta stage solves the implicit output equation at the stage
point (warm-started from the previous output), then advances

    xdot = A x + B f(t, y(t, x)) + B_e v(t).

Stage 1 reuses the output and slope resolved when the step's starting
state was accepted.

The loop's values (state, output, f(t, y), slope, input) are 1-d arrays,
or plain floats when n = m = m_e = p = 1 (``_ScalarPlant``); the float
form reproduces numpy's 1 x 1 products bit for bit.

One loop, ``_integrate``, and one stage, ``_SolvingStage``, serve
``simulate``, ``inclusion.simulate_inclusion`` and ``refine_escape_time``.
The loop owns the horizon test, the step floor, the collapse
classification, the blow-up test and the recording.
Each caller hands it an ``advance`` hook that attempts one step:
``simulate``'s, ``_rk_advance``, holds the RK step, the RKF45 error
control and the ``multiple`` flag; ``refine_escape_time`` re-enters the
loop over a stopped run's last bracket with it, so one locator places
every event; ``simulate_inclusion``'s holds the jump test and the fold
landing.

Termination follows the trichotomy: the horizon was reached; the output
equation lost solvability (existence boundary, with the state and output
staying bounded); or the trajectory blew up in finite time.  Blow-up is
detected by the state norm crossing a threshold, or by step collapse
with a divergent output or state derivative.  A divergent output is
accepted as blow-up evidence because the quantity that is unbounded on a
maximal bounded interval includes the output integral, and state growth
alone can be too slow (logarithmic) to cross any threshold in floating
point.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, UsageError
from .nonlinearity import all_finite, row_norms, vec_norm
from .output_solver import (_NEAREST, SolveOptions, _as_float, _checked,
                            _choose, _evaluate, _exact_route, _multistart,
                            _range_exclusion, _set_valued, _target,
                            solve_output)
from .signals import _fixed_value
from .system import SystemMatrices

_RK45_C = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RK45_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RK45_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
            -9.0 / 50.0, 2.0 / 55.0)
_RK45_E = (1.0 / 360.0, 0.0, -128.0 / 4275.0, -2197.0 / 75240.0,
           1.0 / 50.0, 2.0 / 55.0)

# Recent outputs searched for divergence when the step size collapses.
_COLLAPSE_WINDOW = 10
# Rows that ``write_csv`` formats at a time.
_CSV_BLOCK = 4096

_EPS = float(np.finfo(float).eps)


@dataclass
class SimOptions:
    """Integration options shared by both stepping methods."""

    method: str = "rk4_fixed"        # rk4_fixed | rk45_adaptive
    dt: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.1
    rtol: float = 1e-8
    atol: float = 1e-10
    tmax: float = 10.0
    blowup_threshold: float = 1e8
    y_blowup_threshold: float = 1e6
    solver: SolveOptions = field(default_factory=SolveOptions)


@dataclass
class Termination:
    kind: str                         # reached_tmax | no_output_solution | blow_up | step_collapse
    time: float
    bracket: tuple[float, float] | None = None
    detail: str = ""


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with running output/feedback integrals."""

    times: np.ndarray
    x: np.ndarray                     # N x n
    y: np.ndarray                     # N x p
    u: np.ndarray                     # N x m
    residuals: np.ndarray             # N
    termination: Termination
    y_integral: np.ndarray            # running integral of ||y||
    u_integral: np.ndarray            # running integral of ||f(t, y)||
    branches: np.ndarray | None = None
    flags: list[str] | None = None

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def final_state(self) -> np.ndarray | None:
        return self.x[-1] if self.n_samples else None

    @property
    def y_integral_norm(self) -> float:
        return float(self.y_integral[-1]) if self.n_samples else 0.0

    @property
    def u_integral_norm(self) -> float:
        return float(self.u_integral[-1]) if self.n_samples else 0.0

    @property
    def y_sup_norm(self) -> float:
        if not self.n_samples:
            return 0.0
        return float(np.max(np.linalg.norm(self.y, axis=1)))


class _StageFailure(Exception):
    def __init__(self, certificate: dict | None):
        super().__init__("output equation unsolvable at a stage point")
        self.certificate = certificate


class _Plant:
    """The linear part of ``sys`` and its input v, on the loop's values.

    Values are 1-d arrays: the state x, the output y, u = f(t, y), the
    slope and the input terms (D_e v(t), B_e v(t)), which a zero or
    constant input computes once per run.  ``value`` turns an initial state
    or a solver or fibre output (a float) into the loop's form.
    """

    def __init__(self, sys: SystemMatrices, v):
        self.sys, self.v = sys, v
        fixed = _fixed_value(v)
        self.fixed = None if fixed is None else self.terms(fixed)

    def value(self, y):
        return np.array([y]) if type(y) is float else y

    def input(self, t: float):
        """The input terms at t."""
        return self.fixed or self.terms(self.v(t))

    def terms(self, vt):
        """(D_e v(t), B_e v(t)) of the input value vt = v(t)."""
        return self.sys.D_e @ vt, self.sys.B_e @ vt

    def target(self, x, terms):
        """w = C x + D_e v(t)."""
        return self.sys.C @ x + terms[0]

    def slope(self, x, u, terms):
        """xdot = A x + B u + B_e v(t)."""
        sys = self.sys
        return sys.A @ x + sys.B @ u + terms[1]

    def residual(self, x, y, u, terms) -> float:
        """||y - D u - C x - D_e v(t)||."""
        sys = self.sys
        return vec_norm(y - sys.D @ u - sys.C @ x - terms[0])

    def shift_target(self, x, r: float):
        """x moved along C^T so that the (scalar) target C x grows by r."""
        c_row = self.sys.C[0]
        return x + c_row * (r / float(c_row @ c_row))


class _ScalarPlant(_Plant):
    """``_Plant`` for n = m = m_e = p = 1, on floats.

    Each 1 x 1 product a x is taken as ``0.0 + a * x``, numpy's
    accumulation, so that signed zeros keep their bits: [[-1.]] @ [0.] is
    +0.0.
    """

    def __init__(self, sys: SystemMatrices, v):
        self.a, self.b, self.b_e, self.c, self.d, self.d_e = (
            float(M[0, 0]) for M in (sys.A, sys.B, sys.B_e, sys.C, sys.D, sys.D_e))
        super().__init__(sys, v)

    @staticmethod
    def value(y) -> float:
        return y if type(y) is float else float(y[0])

    def terms(self, vt) -> tuple[float, float]:
        vt = _as_float(vt, "v(t)")
        return 0.0 + self.d_e * vt, 0.0 + self.b_e * vt

    def target(self, x: float, terms) -> float:
        return (0.0 + self.c * x) + terms[0]

    def slope(self, x: float, u: float, terms) -> float:
        return ((0.0 + self.a * x) + (0.0 + self.b * u)) + terms[1]

    def residual(self, x: float, y: float, u: float, terms) -> float:
        r = y - (0.0 + self.d * u) - (0.0 + self.c * x) - terms[0]
        return math.sqrt(r * r)

    def shift_target(self, x: float, r: float) -> float:
        return x + self.c * (r / (self.c * self.c))


def _plant(sys: SystemMatrices, v) -> _Plant:
    """The float form for a system with n = m = m_e = p = 1, else arrays."""
    return _ScalarPlant(sys, v) if sys.dims == (1, 1, 1, 1) else _Plant(sys, v)


class _SolvingStage:
    """Stage callable ``stage(t, x, y_prev) -> (y, u, xdot, input terms)``.

    The route is resolved once.  The stage chooses by ``policy``
    (``nearest_previous`` by default) through ``_choose``, from the exact
    fibre or, given a policy and no exact structure, the multistart fibre
    around w; with neither it calls ``solve_output``.  It records the
    ``branch`` chosen and whether any stage since ``multiple`` was cleared
    had several outputs.  An empty fibre raises ``_StageFailure``.
    """

    def __init__(self, plant: _Plant, f, solver: SolveOptions, policy=None):
        self.plant, self.f, self.solver = plant, f, solver
        self.policy = policy or _NEAREST
        self.route = _exact_route(f, plant.sys.D, solver)
        self.d, self.fibre_of = self.route or (None, None)
        self.newton = self.route is None and policy is None
        self.multiple, self.branch = False, -1

    def fibre(self, t: float, w) -> tuple:
        """The fibre value of w at t: exact, else the multistart around w."""
        if self.route is None:
            w = _target(w, self.plant.sys.dims[3])
            return _multistart(self.f, self.plant.sys.D, t, w, w, self.solver)[0]
        return self.fibre_of(self.f, self.d, t, w, self.solver.tol_sep)

    def __call__(self, t: float, x, y_prev):
        plant, f = self.plant, self.f
        terms = plant.input(t)
        w = plant.target(x, terms)
        if self.newton:
            sol = solve_output(plant.sys, f, t, w, y_prev, self.solver)
            if sol.y is None:
                raise _StageFailure(sol.certificate)
            if sol.status == "multiple":
                self.multiple = True
            y, u = plant.value(sol.y), plant.value(sol.u)
        else:
            # the exact fibre function directly: a call fewer per stage
            fib = (self.fibre(t, w) if self.route is None
                   else self.fibre_of(f, self.d, t, w, self.solver.tol_sep))
            elements = fib[1]
            if not elements:
                raise _StageFailure(None if self.route is None
                                    else _range_exclusion(f))
            if not self.multiple and _set_valued(elements):
                self.multiple = True
            y, self.branch = _choose(fib, self.policy, y_prev)
            u = _evaluate(f, t, y)
            y, u = plant.value(y), plant.value(u)
        return y, u, plant.slope(x, u, terms), terms


def _rk_step(method: str, stage, t: float, x, h: float, y, k1):
    """One ``euler``, ``rk4`` or ``rkf45`` step from (t, x), whose output y
    and slope k1 are stage 1; x, y and k1 are plant values.  Later stages
    call ``stage(t, x, y_prev) -> (y, u, xdot, input terms)``.  Returns
    (x_new, mean slope or None, error estimate or None, last stage output).
    """
    if method == "euler":
        return x + h * k1, k1, None, y
    if method == "rk4":
        y2, _, k2, _ = stage(t + 0.5 * h, x + 0.5 * h * k1, y)
        y3, _, k3, _ = stage(t + 0.5 * h, x + 0.5 * h * k2, y2)
        y4, _, k4, _ = stage(t + h, x + h * k3, y3)
        k = k1 + 2.0 * k2 + 2.0 * k3 + k4
        return x + (h / 6.0) * k, k / 6.0, None, y4
    ks = [k1]
    for c, a in zip(_RK45_C[1:], _RK45_A[1:]):
        xi = x
        for a_j, k_j in zip(a, ks):
            xi = xi + h * a_j * k_j
        y, _, k, _ = stage(t + c * h, xi, y)
        ks.append(k)
    x_new, err = x, 0.0
    for b, e, k in zip(_RK45_B5, _RK45_E, ks):
        x_new = x_new + h * b * k
        err = err + h * e * k
    return x_new, None, err, y


def _initial_guess(sys: SystemMatrices, f, t0: float, w0: np.ndarray) -> np.ndarray:
    """Linearised guess (I - D J)^{-1} w0 when an analytic Jacobian exists."""
    if f.jac is not None:
        try:
            J = f.jac(t0, w0)
            return np.linalg.solve(np.eye(w0.size) - sys.D @ J, w0)
        except np.linalg.LinAlgError:
            pass
    return w0.copy()


class _Recorder:
    """The accepted samples of one run, in the plant's values, which the
    loop hands in fresh; x0 alone may be a view of the caller's array."""

    def __init__(self, plant: _Plant, with_branches: bool = False):
        self.plant, self.with_branches = plant, with_branches
        self.times: list[float] = []
        self.xs: list[np.ndarray] = []
        self.ys: list[np.ndarray] = []
        self.us: list[np.ndarray] = []
        self.residuals: list[float] = []
        self.flags: list[str] = []
        self.branches: list[int] = []

    def push(self, t, x, y, u, terms, flag="", branch=-1):
        """Record a sample with u = f(t, y) and the input terms at t; its
        residual is ||y - D u - C x - D_e v(t)||."""
        self.residuals.append(self.plant.residual(x, y, u, terms))
        self.xs.append(x if self.times else copy.copy(x))
        self.times.append(float(t))
        self.ys.append(y)
        self.us.append(u)
        self.flags.append(flag)
        self.branches.append(branch)

    def build(self, termination: Termination) -> TrajectoryRecord:
        n, m, _, p = self.plant.sys.dims
        count = len(self.times)
        times = np.array(self.times)
        y = np.array(self.ys).reshape(count, p)
        u = np.array(self.us).reshape(count, m)
        # running trapezoidal integrals of ||y||, ||u||; cumsum is sequential
        norms = np.array([row_norms(y), row_norms(u)])
        steps = 0.5 * np.diff(times) * (norms[:, :-1] + norms[:, 1:])
        integrals = np.cumsum(np.hstack([np.zeros((2, 1)), steps]), axis=1)
        return TrajectoryRecord(
            times=times,
            x=np.array(self.xs).reshape(count, n),
            y=y,
            u=u,
            residuals=np.array(self.residuals),
            termination=termination,
            y_integral=integrals[0, :count],
            u_integral=integrals[1, :count],
            branches=(np.array(self.branches, dtype=int)
                      if self.with_branches else None),
            flags=self.flags,
        )


def _validate_run(opts, t0: float, x0, sys: SystemMatrices, v
                  ) -> tuple[float, np.ndarray, SolveOptions]:
    """Check the inputs of a run where they enter; return (t0, x0) as floats
    and the checked output-solver options.

    Raises ConfigurationError naming the first bad field: ``t0`` and ``x0``
    finite, ``tmax`` finite and after t0, ``0 < dt_min <= dt``, every
    tolerance and threshold the options carry positive, the solver options
    (``solver`` or ``fibre``) as ``output_solver._checked`` asks, and v(t0)
    a vector of length m_e.
    """
    n, _, m_e, _ = sys.dims
    t0 = float(t0)
    if not math.isfinite(t0):
        raise ConfigurationError(f"t0 must be finite, got {t0}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (n,):
        raise ConfigurationError(f"x0 must have length n={n}")
    if not all_finite(x0):
        raise ConfigurationError(f"x0 must be finite, got {x0.tolist()}")
    if not (math.isfinite(opts.tmax) and opts.tmax > t0):
        raise ConfigurationError(
            f"tmax must be finite and greater than t0={t0}, got {opts.tmax}")
    if not opts.dt > 0:
        raise ConfigurationError(f"dt must be positive, got {opts.dt}")
    if not 0 < opts.dt_min <= opts.dt:
        raise ConfigurationError(
            f"dt_min must lie in (0, dt={opts.dt}], got {opts.dt_min}")
    for name in ("dt_max", "rtol", "atol", "blowup_threshold",
                 "y_blowup_threshold", "jump_tol"):
        value = getattr(opts, name, None)
        if value is not None and not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    field_name = "solver" if hasattr(opts, "solver") else "fibre"
    solver = _checked(getattr(opts, field_name), f"{field_name}.")
    shape = np.shape(v(t0))
    if shape != (m_e,):
        raise ConfigurationError(f"v(t0) must have shape ({m_e},), got {shape}")
    return t0, x0, solver


def _integrate(rec: _Recorder, opts, t: float, x, y, k, h: float,
               advance) -> Termination:
    """Step from the recorded sample (t, x, y, k), in the recorder's plant
    values, and return the termination.

    ``advance(t, x, y, k, h) -> (sample | None, h_next, failed)`` attempts
    one step of size h.  A sample (t, x, y, u, xdot, input terms, branch, flag) is
    recorded; None with ``failed`` marks an unresolvable output, None
    without it a rejected step.  A collapse is bracketed by the last
    failed step since the last sample, else by the step floor.
    """
    fail_h: float | None = None       # size of the last failed step
    while t < opts.tmax - 1e-15 * max(1.0, abs(opts.tmax)):
        h_eff = min(h, opts.tmax - t)
        floor = max(opts.dt_min, 8.0 * _EPS * max(1.0, abs(t)))
        if opts.tmax - t <= floor:
            break   # remaining horizon below resolvable step size
        if h_eff < floor:
            # Blow-up evidence is divergence of the recent outputs or of the
            # state derivative; a monotonically growing but bounded state
            # (the existence-boundary case) must not count, since its norm
            # also increases all the way to the stop.
            recent = max(vec_norm(yr) for yr in rec.ys[-_COLLAPSE_WINDOW:])
            if (recent > opts.y_blowup_threshold
                    or vec_norm(k) > opts.y_blowup_threshold):
                kind = "blow_up"
            else:
                kind = "no_output_solution" if fail_h else "step_collapse"
            return Termination(kind=kind, time=t,
                               bracket=(t, t + (fail_h or floor)),
                               detail="step size collapsed")
        sample, h, failed = advance(t, x, y, k, h_eff)
        if failed:
            fail_h = h_eff
        if sample is None:
            continue
        t, x, y, u, k, terms, branch, flag = sample
        rec.push(t, x, y, u, terms, flag, branch)
        fail_h = None
        if vec_norm(x) > opts.blowup_threshold:
            return Termination(kind="blow_up", time=t,
                               detail="state norm crossed blowup_threshold")
    return Termination(kind="reached_tmax", time=float(t))


def simulate(sys: SystemMatrices, f, v, t0: float, x0, opts: SimOptions | None = None
             ) -> TrajectoryRecord:
    """Integrate from x(t0) = x0 until tmax or a termination event.

    Fixed-step RK4 or adaptive RKF45; every stage but the first (the
    accepted state) re-solves the implicit output equation (warm-started),
    preserving the order of the scheme for the semi-explicit structure.
    On stage failure the step is halved down to dt_min, so event times
    are located to roughly dt_min.

    When a stage finds several outputs the one nearest the warm start is
    taken, which keeps the output path on a continuous selection wherever
    one exists; genuinely set-valued fibres are the business of
    ``simulate_inclusion``, which exposes explicit selection policies.
    """
    opts = opts or SimOptions()
    if opts.method not in ("rk4_fixed", "rk45_adaptive"):
        raise ConfigurationError(f"unknown method {opts.method!r}")
    t0, x0, solver = _validate_run(opts, t0, x0, sys, v)

    plant = _plant(sys, v)
    stage = _SolvingStage(plant, f, solver)
    rec = _Recorder(plant)

    w0 = sys.C @ x0 + sys.D_e @ v(t0)
    guess = plant.value(_initial_guess(sys, f, t0, w0))
    x0 = plant.value(x0)
    try:
        y, u, k, terms = stage(t0, x0, guess)
    except _StageFailure as exc:
        detail = dict(exc.certificate or {})
        term = Termination(kind="no_output_solution", time=t0,
                           bracket=(t0, t0), detail=f"unsolvable at initial time: {detail}")
        return rec.build(term)
    # a solve that chose among several outputs is flagged, never silent
    rec.push(t0, x0, y, u, terms, flag="multiple" if stage.multiple else "")
    h = min(opts.dt, opts.dt_max) if opts.method == "rk45_adaptive" else opts.dt
    return rec.build(_integrate(rec, opts, t0, x0, y, k, h,
                                _rk_advance(stage, opts)))


def _rk_advance(stage: _SolvingStage, opts: SimOptions):
    """``simulate``'s advance hook: one step of ``opts.method`` through
    ``stage``, which RKF45 rejects on its error estimate; the sample is
    flagged ``multiple`` when a stage of the step had several outputs."""
    adaptive = opts.method == "rk45_adaptive"
    method = "rkf45" if adaptive else "rk4"

    def advance(t, x, y, k, h):
        stage.multiple = False
        try:
            x_new, _, err, y_last = _rk_step(method, stage, t, x, h, y, k)
            if adaptive:
                scale = opts.atol + opts.rtol * np.maximum(np.abs(x), np.abs(x_new))
                errnorm = float(np.max(np.abs(err) / scale))
                if errnorm > 1.0:
                    return None, max(0.5 * h, 0.9 * h * errnorm ** -0.2), False
            sample = (t + h, x_new, *stage(t + h, x_new, y_last), -1,
                      "multiple" if stage.multiple else "")
        except _StageFailure:
            return None, 0.5 * h, True
        if not adaptive:
            return sample, opts.dt, False
        grow = min(5.0, 0.9 * errnorm ** -0.2) if errnorm > 0.0 else 5.0
        return sample, min(opts.dt_max, h * grow), False
    return advance


def refine_escape_time(record: TrajectoryRecord, sys: SystemMatrices, f, v,
                       time_tol: float = 1e-6,
                       opts: SimOptions | None = None) -> tuple[float, float]:
    """Bracket the termination event of a stopped trajectory within time_tol.

    The bracket is the record's or, for a run that crossed
    ``blowup_threshold``, its last step.  One wider than 2 time_tol is
    narrowed by re-entering ``_integrate`` from the sample at its lower
    end, stepping by ``opts.method`` with floor time_tol up to its upper
    end, where a step across either blow-up threshold fails; the collapse
    bracket found, else (last sample time, upper end), replaces it.
    Returns (t_star, half_width), the bracket's midpoint and half width.
    """
    if record.termination.kind not in ("no_output_solution", "blow_up"):
        raise UsageError("refine_escape_time applies to terminated records only")
    if not (math.isfinite(time_tol) and time_tol > 0):
        raise ConfigurationError(f"time_tol must be finite and positive, got {time_tol}")
    opts = opts or SimOptions()
    solver = _checked(opts.solver, "solver.")
    i = record.n_samples - (1 if record.termination.bracket else 2)
    lo, hi = record.termination.bracket or record.times[[i, -1]].tolist()
    if hi - lo > 2.0 * time_tol:
        plant = _plant(sys, v)
        x, y, u = (plant.value(a[i]) for a in (record.x, record.y, record.u))
        terms, rec = plant.input(lo), _Recorder(plant)
        rec.push(lo, x, y, u, terms)
        sub = replace(opts, dt=hi - lo, dt_min=time_tol, tmax=hi)
        advance = _rk_advance(_SolvingStage(plant, f, solver), sub)

        def bounded(t, x, y, k, h):
            """``advance``, with a step across a blow-up threshold failed."""
            sample, h_next, failed = advance(t, x, y, k, h)
            if sample is not None and (vec_norm(sample[1]) > opts.blowup_threshold
                                       or vec_norm(sample[2]) > opts.y_blowup_threshold):
                return None, 0.5 * h, True
            return sample, h_next, failed

        lo, hi = (_integrate(rec, sub, lo, x, y, plant.slope(x, u, terms), hi - lo,
                             bounded).bracket or (rec.times[-1], hi))
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def compare_to_reference(record: TrajectoryRecord, reference) -> dict:
    """Sup-norm deviations of the record against closed-form references.

    ``reference`` provides callables x(t) and optionally y(t), and an
    optional right endpoint ``t_end`` restricting the comparison domain.
    """
    if record.n_samples == 0:
        raise UsageError("record has no samples to compare")
    t_end = getattr(reference, "t_end", None)
    mask = np.ones(record.n_samples, dtype=bool)
    if t_end is not None:
        mask &= record.times <= t_end + 1e-12
    if not np.any(mask):
        raise UsageError("reference domain does not overlap the record")
    times = record.times[mask]
    x_ref = np.array([np.asarray(reference.x(t), dtype=float).reshape(-1)
                      for t in times])
    metrics = {}
    err_x = np.abs(record.x[mask] - x_ref)
    metrics["x_max_err_per_component"] = err_x.max(axis=0)
    metrics["x_max_err"] = float(err_x.max())
    if getattr(reference, "y", None) is not None:
        y_ref = np.array([np.asarray(reference.y(t), dtype=float).reshape(-1)
                          for t in times])
        err_y = np.abs(record.y[mask] - y_ref)
        metrics["y_max_err_per_component"] = err_y.max(axis=0)
        metrics["y_max_err"] = float(err_y.max())
    return metrics


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def write_csv(record: TrajectoryRecord, path) -> None:
    """CSV with columns t, x_1..x_n, y_1..y_p, u_1..u_m, residual[, branch];
    each value as ``format(value, '.17g')``, which '%.17g' equals."""
    n, p, m = (a.shape[1] if record.n_samples else 0
               for a in (record.x, record.y, record.u))
    header = (["t"] + [f"x_{i+1}" for i in range(n)]
              + [f"y_{i+1}" for i in range(p)]
              + [f"u_{i+1}" for i in range(m)] + ["residual"])
    columns = [record.times, record.x, record.y, record.u, record.residuals]
    template = ",".join(["%.17g"] * (n + p + m + 2))
    if record.branches is not None:     # small integers, exact as floats
        header.append("branch")
        columns.append(record.branches)
        template += ",%d"
    rows = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # a block of rows at a time as floats, which bounds the memory
        for start in range(0, record.n_samples, _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK].tolist()
            fh.writelines([template % tuple(row) + "\n" for row in block])


def summary_dict(record: TrajectoryRecord) -> dict:
    term = record.termination
    return {
        "termination": term.kind,
        "t_star": term.time,
        "bracket": list(term.bracket) if term.bracket else None,
        "detail": term.detail,
        "n_samples": record.n_samples,
        "y_integral_norm": record.y_integral_norm,
        "u_integral_norm": record.u_integral_norm,
        "y_sup_norm": record.y_sup_norm,
        "final_state": (list(map(float, record.final_state))
                        if record.final_state is not None else None),
        "max_residual": (float(np.max(record.residuals))
                         if record.n_samples else None),
    }


def write_summary_json(record: TrajectoryRecord, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary_dict(record), fh, sort_keys=True, indent=2)
        fh.write("\n")
