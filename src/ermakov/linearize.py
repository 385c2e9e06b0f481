"""Linearization of the six-function family and solution reconstruction.

With the invariant level fixed by the initial data, the substitution
psi = rho(t)/r with the angle as independent variable turns the radial
dynamics into a second-order linear ODE

    p2(theta) psi'' + p1(theta) psi' + p0(theta) psi = rhs(theta),

with p2 = h^2, p1 = h dh/dtheta - a, p0 = h^2 + F - b, rhs = c, where
(a, b, c) come from the structure functions evaluated on shell
(L = h(theta)).  ``linearize`` solves it on an angle domain.  The
reconstruction writes the same equation in angular time tau
(dtau = dtheta/L = dt/r^2),

    psi_tau_tau + A psi_tau + (L^2 + F - B) psi = C,

and integrates it with theta_tau = L, L_tau = -dV/dtheta and
t_tau = rho(t)^2/psi^2, which pass through turning points of the angle;
inverting the time column recovers theta(t), and the radius r = rho/psi.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import suppress

from .expressions import (
    EvaluationError,
    as_expression,
    evaluate,
    free_variables,
    is_literal_zero,
)
from .integration import EventSpec, IntegratorConfig, Trajectory, integrate
from .invariant import (
    ForbiddenRegionError,
    TurningPointError,
    invariant_level,
    momentum_from_gap,
    turning_tolerance,
)
from .numerics import QuadratureError, linspace
from .systems import LinearizableSpec, PolarState, check_rho_nonzero

__all__ = [
    "AngularTimeRun",
    "LinearODE",
    "LinearSolution",
    "LinearizationError",
    "OutsideWindowError",
    "auto_theta_domain",
    "build_linear_ode",
    "build_pipeline",
    "solve_from_state",
    "solve_linear",
    "verify_compatibility",
]

_SOLVE_REL_TOL = 1e-12
_SOLVE_ABS_TOL = 1e-14


class LinearizationError(ValueError):
    """The linearized solution cannot be built or used as requested."""


class OutsideWindowError(ValueError):
    """A query time or angle falls outside the covered window."""


# ---------------------------------------------------------------------------
# Linear ODE construction
# ---------------------------------------------------------------------------

def _check_linearizable(spec) -> LinearizableSpec:
    if isinstance(spec, LinearizableSpec):
        return spec
    raise TypeError(f"cannot linearize a {type(spec).__name__}")


class LinearODE:
    """Coefficients of the linear equation in psi(theta) at a fixed invariant level.

    Valid on an open angle interval where the invariant level exceeds the
    potential; p2 is positive on the interior.
    """

    def __init__(self, spec: LinearizableSpec, invariant: float, domain: tuple, branch_sign: int):
        self.spec, self.invariant, self.domain, self.branch_sign = spec, invariant, domain, branch_sign
        self.rhs_is_zero = is_literal_zero(spec.C)
        self.turning_tol = turning_tolerance(invariant)

    def gap(self, theta: float) -> float:
        return self.invariant - evaluate(self.spec.V, {"theta": theta})

    def terms(self, theta: float, gap: float) -> tuple[float, float, float, float, float, float]:
        """(h, p2, p1, p0, rhs, dV/dtheta) at theta, given the gap I - V(theta) there."""
        tol = self.turning_tol  # at or below it, momentum_from_gap raises
        h = math.sqrt(2.0 * gap) if gap > tol else momentum_from_gap(theta, self.invariant, gap)
        ell = self.branch_sign * h
        A, b, c, f, dv = self.spec.linear_terms(theta, ell)
        a = -ell * A  # the right side is a psi' + b psi + c, a = -L A
        p2 = 2.0 * gap
        # h dh/dtheta = -dV/dtheta exactly
        return h, p2, -dv - a, p2 + f - b, c, dv


def build_linear_ode(
    spec,
    invariant,
    theta_domain: tuple[float, float],
    branch_sign: int = 1,
) -> LinearODE:
    """Validate a handed-in angle interval and assemble the linear ODE coefficients.

    The level is checked on a 401-point grid.  Raises ForbiddenRegionError
    if it fails to exceed the potential anywhere on the interval; the
    message names the boundary angle where the level is first reached.
    Raises LinearizationError, naming the angle and the cause, where the
    potential is undefined.
    """
    lin = _check_linearizable(spec)
    level = float(invariant)
    lo, hi = float(theta_domain[0]), float(theta_domain[1])
    if not lo < hi:
        raise ValueError(f"theta_domain must be increasing, got {theta_domain}")
    if branch_sign not in (-1, 1):
        raise ValueError(f"branch_sign must be +1 or -1, got {branch_sign!r}")
    tol = turning_tolerance(level)
    grid = linspace(lo, hi, 401)
    gaps = []
    for th in grid:
        try:
            gaps.append(level - evaluate(lin.V, {"theta": th}))
        except (EvaluationError, QuadratureError) as exc:
            raise LinearizationError(f"potential undefined at theta={th!r}: {exc}") from exc
    if min(gaps) <= tol:
        theta_star = _locate_turning(lin.V, level, grid, gaps, tol)
        raise ForbiddenRegionError(
            theta_star,
            level,
            float(evaluate(lin.V, {"theta": theta_star})),
            detail=f"turning point near theta={theta_star:.12g}",
        )
    return LinearODE(lin, level, (lo, hi), branch_sign)


def _locate_turning(V, level, grid, gaps, tol) -> float:
    """Refine where the invariant level meets the potential, for messages.

    Bisects the first grid cell where the gap crosses the tolerance, down to
    adjacent floats, if the gap changes sign across it.
    """
    for i in range(len(grid) - 1):
        if (gaps[i] <= tol) != (gaps[i + 1] <= tol):
            lo, hi = grid[i], grid[i + 1]
            edge = hi if gaps[i + 1] <= tol else lo
            lo_positive = gaps[i] > 0.0
            if lo_positive == (gaps[i + 1] > 0.0):
                return edge
            try:
                while lo < (mid := 0.5 * (lo + hi)) < hi:
                    if (level - evaluate(V, {"theta": mid}) > 0.0) == lo_positive:
                        lo = mid
                    else:
                        hi = mid
            except ValueError:
                return edge
            return lo
    # no transition inside the interval: report the worst point
    return grid[gaps.index(min(gaps))]


_DOMAIN_MARGIN_REL = 1e-3
_DOMAIN_STEP = math.pi / 720.0
_DOMAIN_SPAN = 2.0 * math.pi


def auto_theta_domain(V, invariant, theta0: float) -> tuple[float, float]:
    """Maximal scanned interval around theta0 where the level clears the potential.

    The scan steps pi/720 at a time, up to 2 pi each way.  It stops a safety
    margin of 1e-3 (1 + |I|) short of any turning point, and one step short
    of an angle where the potential is undefined: the solve carries I - V
    along the run, and must not meet the singularity that often bounds the
    potential's domain (the log of U(tan theta) at a sector edge).  Raises
    LinearizationError if it cannot take a step to either side.
    """
    V = as_expression(V)
    level = float(invariant)
    margin = _DOMAIN_MARGIN_REL * (1.0 + abs(level))
    env = {"theta": theta0}
    v0 = evaluate(V, env)
    potential = V._lowered  # the function evaluate compiled and kept on the tree

    def edge(step: float) -> float:
        back, end = theta0, theta0
        while abs(end - theta0) < _DOMAIN_SPAN:
            th = env["theta"] = end + step
            try:
                if not level - potential(env) > margin:
                    return end
            except (EvaluationError, QuadratureError):
                return back
            back, end = end, th
        return end

    if not level - v0 > margin:
        detail = "initial angle too close to a turning point"
        if level < v0:
            raise ForbiddenRegionError(theta0, level, v0, detail=detail)
        raise TurningPointError(theta0, level, detail=f"potential {v0!r}; {detail}")
    hi = edge(_DOMAIN_STEP)
    lo = edge(-_DOMAIN_STEP)
    if lo == hi:
        raise LinearizationError(
            f"empty angle domain at theta={theta0!r}: one step of pi/720 either way, the potential"
            f" is within {margin!r} of the level {level!r}, or undefined within two steps"
        )
    return lo, hi


# ---------------------------------------------------------------------------
# Numeric solution of the linear ODE
# ---------------------------------------------------------------------------

def _solve_run(ode: LinearODE, theta0, y0, theta1) -> Trajectory | None:
    """Integrate [psi, psi', W, g] from theta0 towards theta1 (None where they coincide).

    The gap g = I - V(theta) rides along with g' = -dV/dtheta, so no step
    evaluates the potential itself.
    """
    if theta1 == theta0:
        return None
    terms = ode.terms

    def rhs(th, y):
        psi, dpsi, w, gap = y
        h, p2, p1, p0, c, dv = terms(th, gap)
        return dpsi, (c - p1 * dpsi - p0 * psi) / p2, -p1 / p2 * w, -dv

    cfg = IntegratorConfig(t_span=(theta0, theta1), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
    traj = integrate(rhs, y0, cfg)
    if traj.termination != "completed":
        raise LinearizationError(
            f"linear solve stopped at theta={traj.t_end!r} ({traj.termination})"
        )
    return traj


class LinearSolution:
    """Solution psi of the linear ODE with given data (psi0, psi'0) at theta0.

    ``up`` and ``down`` are the dense runs leaving theta0 each way, or None
    where nothing was solved.  A run carries psi, psi', Abel's Wronskian
    factor W of the identity basis (W' = -(p1/p2) W, W(theta0) = 1) and the
    gap g = I - V(theta): a row is (psi, psi', W, g), ``y0`` at theta0.
    """

    def __init__(self, ode: LinearODE, theta0: float, y0: list[float], up, down):
        self.ode, self.theta0, self.y0, self.up, self.down = ode, theta0, y0, up, down

    @property
    def window(self) -> tuple[float, float]:
        lo = self.down.t_end if self.down else self.theta0
        hi = self.up.t_end if self.up else self.theta0
        return lo, hi

    def row(self, theta: float) -> list[float]:
        x = float(theta)
        if x == self.theta0:
            return self.y0
        run = self.up if x > self.theta0 else self.down
        lo, hi = self.window
        if not (run and lo - 1e-12 <= x <= hi + 1e-12):
            raise OutsideWindowError(f"theta={x!r} outside the window [{lo}, {hi}]")
        return run.at(x)

    def psi(self, theta: float) -> float:
        return self.row(theta)[0]

    def coefficients(self, theta: float) -> tuple[float, float, float, float, float]:
        """(p2, p1, p0, rhs, psi) at theta, from the gap carried along the solve."""
        row = self.row(theta)
        return (*self.ode.terms(theta, row[-1])[1:5], row[0])


def solve_linear(ode: LinearODE, theta0: float, psi0: float, dpsi0: float) -> LinearSolution:
    """Solve the linear ODE matching (psi0, dpsi0) at theta0 on the ODE domain.

    Raises LinearizationError if Abel's factor W stops being positive, i.e.
    the homogeneous solutions become linearly dependent.
    """
    lo, hi = ode.domain
    if not (lo <= theta0 <= hi):
        raise ValueError(f"theta0={theta0!r} outside the ODE domain [{lo}, {hi}]")
    y0 = [psi0, dpsi0, 1.0, ode.gap(theta0)]
    runs = (_solve_run(ode, theta0, y0, hi), _solve_run(ode, theta0, y0, lo))
    if not all(0.0 < y[2] < math.inf for traj in runs if traj for y in traj.ys):  # Abel factor W
        raise LinearizationError("homogeneous solutions became linearly dependent")
    return LinearSolution(ode, theta0, y0, *runs)


# ---------------------------------------------------------------------------
# The trajectory in angular time
# ---------------------------------------------------------------------------

_PSI_FLOOR_REL = 1e-4  # a run stops where psi falls to this share of psi0 (an escape)
_TAU_SPAN = 1e300  # no end in tau: a run ends where its time passes the window


def _time_run(spec: LinearizableSpec, y0: list[float], t_end: float) -> Trajectory | None:
    """Integrate (theta, L, psi, psi_tau, t) in tau from y0 until t passes t_end (None: no run).

    In tau the linear equation reads psi_tau_tau + A psi_tau + (L^2 + F - B) psi = C,
    with theta_tau = L, L_tau = -dV/dtheta and t_tau = rho(t)^2/psi^2.  The run ends
    after the step where t first passes t_end, or where psi falls to 1e-4 psi0.  That
    step reads rho past t_end; where rho has no value there, its value at t_end
    stands in.
    """
    t0 = y0[4]
    if t_end == t0:
        return None
    sign = 1.0 if t_end > t0 else -1.0
    terms, rho = spec.linear_terms, spec.rho
    rho_c = None  # a constant rho is read once; where it has no value, each stage fails
    with suppress(EvaluationError):
        rho_c = None if free_variables(rho) else evaluate(rho)
    floor = _PSI_FLOOR_REL * y0[2]

    def rhs(tau, y):
        theta, ell, psi, dpsi, t = y
        A, B, C, F, dv = terms(theta, ell)
        rv = rho_c
        if rv is None:
            try:
                rv = evaluate(rho, {"t": t})
            except EvaluationError:
                if not sign * (t - t_end) > 0.0:
                    raise
                rv = evaluate(rho, {"t": t_end})
        return ell, -dv, dpsi, C - A * dpsi - (ell * ell + F - B) * psi, rv * rv / (psi * psi)

    cfg = IntegratorConfig(t_span=(0.0, sign * _TAU_SPAN), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
    events = [EventSpec("psi_floor", lambda tau, y: y[2] - floor, terminal=True)]
    traj = integrate(rhs, y0, cfg, events, lambda tau, y: sign * (y[4] - t_end) >= 0.0)
    if traj.termination not in ("stopped", "event:psi_floor"):
        theta, _, _, _, t = traj.ys[-1]
        raise LinearizationError(f"linear solve stopped at theta={theta!r}, t={t!r} ({traj.termination})")
    return traj


class AngularTimeRun:
    """The trajectory through a state, rebuilt in angular time tau (dtau = dt/r^2).

    ``up`` and ``down`` are the dense runs leaving the initial time forward
    and backward, or None where the time window ``window`` does not reach;
    a row is (theta, L, psi, psi_tau, t), ``y0`` at the initial state.  ``at``
    answers (theta, r) at a time of the window.
    """

    def __init__(self, spec: LinearizableSpec, y0: list[float], window: tuple[float, float], up, down):
        self.spec, self.y0, self.window, self.up, self.down = spec, y0, window, up, down

    def row(self, t: float) -> list[float]:
        """The run's row at time t: its t column inverted, then one dense lookup.

        The step holding t is found by its node times, and its interpolant
        solved by Newton's method with its exact slope, falling back to
        bisection.  Results depend only on the stored runs, never on the
        order of queries.
        """
        t = float(t)
        lo, hi = self.window
        if not lo <= t <= hi:
            raise OutsideWindowError(f"t={t!r} outside the time window [{lo}, {hi}]")
        if t == self.y0[4]:
            return self.y0
        sign = 1.0 if t > self.y0[4] else -1.0
        run = self.up if sign > 0.0 else self.down
        end = run.ys[-1][4]
        if sign * (t - end) > 0.0:
            raise OutsideWindowError(f"t={t!r} lies past t={end!r}, where psi fell to 1e-4 psi0 (an escape)")
        # node times, increasing along the run's own direction
        i = bisect_left(run.ys, sign * t, key=lambda y: sign * y[4])
        t_prev, t_next = run.ys[i - 1][4], run.ys[i][4]
        x_prev, x_next = run.ts[i - 1], run.ts[i]
        x = x_prev + (x_next - x_prev) * (t - t_prev) / (t_next - t_prev)
        a, b = min(x_prev, x_next), max(x_prev, x_next)
        for _ in range(100):
            value, slope = run.at_with_slope(x)
            f, slope = value[4] - t, slope[4]
            if f == 0.0:
                return value
            if f < 0.0:
                a = x
            else:
                b = x
            # Newton step, or bisection where it fails or leaves the bracket
            x_new = x - f / slope if slope > 0.0 else math.nan
            if not a <= x_new <= b:
                x_new = 0.5 * (a + b)
            if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
                return value
            x = x_new
        return value

    def at(self, t: float) -> tuple[float, float]:
        """(theta, r) at a time t of the window, with r = rho(t)/psi from the same row."""
        row = self.row(t)
        return row[0], evaluate(self.spec.rho, {"t": t}) / row[2]


# ---------------------------------------------------------------------------
# Initial data, compatibility check and end-to-end pipeline
# ---------------------------------------------------------------------------

def _initial_data(spec: LinearizableSpec, state: PolarState) -> tuple[float, float, float]:
    """(rho, psi, psi_tau) at a state: psi = rho/r, psi_tau = r^2 dpsi/dt = -(rho rdot - rho' r)."""
    tenv = {"t": state.t}
    rho_v = evaluate(spec.rho, tenv)
    rho_dv = evaluate(spec.rho_derivatives[0], tenv)
    return rho_v, rho_v / state.r, -(rho_v * state.rdot - rho_dv * state.r)


def verify_compatibility(spec: LinearizableSpec, state: PolarState) -> float:
    """Residual of the linearization constraint at one state.

    Evaluates rho^3 (rhoddot + w2 rho)/psi^3 with the induced frequency on
    one side and a psi' + b psi + c on the other; the two agree identically
    for any member of the family, up to rounding.  Raises LinearizationError
    where a radius near the float limits leaves r^2 or psi^3 without a value.
    """
    spec = _check_linearizable(spec)
    if state.thetadot == 0.0:
        raise ValueError("compatibility residual needs a state with nonzero thetadot")
    try:
        rho_v, psi, dpsi = _initial_data(spec, state)
        dpsi /= state.r**2 * state.thetadot  # psi' = psi_tau / L
        rho_ddv = evaluate(spec.rho_derivatives[1], {"t": state.t})
        if rho_v == 0.0:
            raise EvaluationError(f"rho vanished at t={state.t!r}")
        ell = state.angular_momentum
        try:  # the spec's compiled tuples, which also evaluate F and dV/dtheta
            A, b, c = spec.linear_terms(state.theta, ell)[:3]
            w2 = spec.polar_terms(state.t, state.r, state.theta, state.rdot, state.thetadot)[0]
        except EvaluationError:  # F or dV/dtheta may fail alone: evaluate what the check reads
            env = {"t": state.t, "r": state.r, "theta": state.theta, "rdot": state.rdot,
                   "thetadot": state.thetadot, "L": ell}
            A, b, c, w2 = (evaluate(e, env) for e in (spec.A, spec.B, spec.C, spec.omega_sq))
        lhs = rho_v**3 * (rho_ddv + w2 * rho_v) / psi**3
    except ArithmeticError as exc:  # r**2 or psi**3 overflows, or underflows to a zero divisor
        raise LinearizationError(f"no compatibility residual at r={state.r!r}: {exc}") from exc
    rhs = -ell * A * dpsi + b * psi + c
    return abs(lhs - rhs)


def _linear_problem(spec, state0: PolarState, theta_domain) -> tuple[LinearODE, float, float]:
    """The linear ODE through ``state0`` and its initial data (psi0, psi'0).

    A scanned domain is used as found; ``build_linear_ode`` checks one handed in.
    """
    lin = _check_linearizable(spec)
    if state0.thetadot == 0.0:
        raise LinearizationError("initial state sits at a turning point (thetadot = 0)")
    branch = 1 if state0.thetadot > 0.0 else -1
    inv = invariant_level(state0.r, state0.theta, state0.thetadot, lin.V)
    if not math.isfinite(inv):
        raise LinearizationError(f"invariant level {inv!r} at the initial state is not finite")
    if theta_domain is None:
        ode = LinearODE(lin, inv, auto_theta_domain(lin.V, inv, state0.theta), branch)
    else:
        ode = build_linear_ode(lin, inv, theta_domain, branch)
    _, psi0, psi_tau0 = _initial_data(lin, state0)
    return ode, psi0, psi_tau0 / (state0.r**2 * state0.thetadot)


def solve_from_state(
    spec, state0: PolarState, theta_domain: tuple[float, float] | None = None
) -> LinearSolution:
    """Linear ODE and its solution for the trajectory through ``state0``.

    The invariant level and branch come from the state, and so do the
    initial data (psi0, psi'0); the angle domain is scanned automatically
    unless supplied.  psi is solved on the whole domain.
    """
    ode, psi0, dpsi0 = _linear_problem(spec, state0, theta_domain)
    return solve_linear(ode, state0.theta, psi0, dpsi0)


def build_pipeline(spec, state0: PolarState, *, t_window: tuple[float, float]) -> AngularTimeRun:
    """The linearized route for the trajectory through ``state0`` over ``t_window``.

    One run in angular time leaves state0.t each way the window reaches,
    through turning points of the angle, and ends after the step where its
    time passes the window's end, or where psi falls to 1e-4 psi0; times
    past either raise OutsideWindowError.  A time-dependent rho must keep
    clear of zero over the window, and psi0 = rho/r must be positive.
    """
    lin = _check_linearizable(spec)
    t0 = state0.t
    if free_variables(lin.rho):
        check_rho_nonzero(lin.rho, t_window[0], t_window[1], 257, f"the time window {t_window!r}")
    _, psi0, psi_tau0 = _initial_data(lin, state0)
    if not psi0 > 0.0:
        raise LinearizationError(f"psi = rho/r = {psi0!r} at the initial state is not positive")
    ell = state0.angular_momentum
    if not math.isfinite(ell * ell):  # I = L^2/2 + V(theta0)
        raise LinearizationError(f"invariant level inf at the initial state is not finite (L = {ell!r})")
    y0 = [state0.theta, ell, psi0, psi_tau0, t0]
    lo, hi = min(t0, *t_window), max(t0, *t_window)
    return AngularTimeRun(lin, y0, (lo, hi), _time_run(lin, y0, hi), _time_run(lin, y0, lo))
