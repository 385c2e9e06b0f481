"""Linearization of the six-function family and solution reconstruction.

With the invariant level fixed by the initial data, the substitution
psi = rho(t)/r turns the radial dynamics into a linear equation, written
in angular time tau (dtau = dtheta/L = dt/r^2) as

    psi_tau_tau + A psi_tau + (L^2 + F - B) psi = C,    L_tau = -dV/dtheta,

with the structure functions A, B, C at (theta, L).  Against the angle it
reads p2 psi'' + p1 psi' + p0 psi = rhs with p2 = L^2, p1 = -dV/dtheta + L A,
p0 = L^2 + F - B and rhs = C.  ``linearize`` solves it on an angle domain,
carrying (L, psi, psi_tau) with the tau field divided by L; without a
handed-in domain, its runs end the domain themselves, at a turning margin
or where they stall at a singularity of the potential.  The
reconstruction integrates (theta, L, psi, psi_tau, t) in tau, with
theta_tau = L and t_tau = rho(t)^2/psi^2, which pass through turning points
of the angle; ``Trajectory.invert`` of the time column recovers theta(t),
and the radius r = rho/psi.  Both answer a grid, of angles or of times, in
one sweep per run, and each point as it would be answered alone.
"""

from __future__ import annotations

import math
from contextlib import suppress

from .expressions import EvaluationError, evaluate, free_variables
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
    """The linear equation in psi(theta) at a fixed invariant level, on an angle domain.

    Valid on an open angle interval where the invariant level exceeds the
    potential; ``LinearSolution.coefficients`` gives its coefficients.  A
    solve with a gap margin may end short of the domain's ends.
    """

    def __init__(self, spec: LinearizableSpec, invariant: float, domain: tuple, branch_sign: int):
        self.spec, self.invariant, self.domain, self.branch_sign = spec, invariant, domain, branch_sign
        self.turning_tol = turning_tolerance(invariant)

    def gap(self, theta: float) -> float:
        return self.invariant - evaluate(self.spec.V, {"theta": theta})


def build_linear_ode(spec, invariant, theta_domain: tuple[float, float], branch_sign: int = 1) -> LinearODE:
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


# ---------------------------------------------------------------------------
# Numeric solution of the linear ODE
# ---------------------------------------------------------------------------

_DOMAIN_MARGIN_REL = 1e-3  # a no-span run ends where the gap I - V falls to this share of 1 + |I|
_DOMAIN_SPAN = 2.0 * math.pi  # and reaches at most this far from theta0
_STALL_STEPS, _STALL_SHARE = 16, 1e-4  # or where these last steps cover this share of its travel


def _tau_slopes(terms, theta: float, ell: float, psi: float, dpsi: float) -> tuple[float, float]:
    """(L_tau, psi_tau_tau) = (-dV/dtheta, C - A psi_tau - (L^2 + F - B) psi) at one state."""
    A, B, C, F, dv = terms(theta, ell)
    return -dv, C - A * dpsi - (ell * ell + F - B) * psi


def _solve_run(ode: LinearODE, theta0, y0, theta1, margin=None) -> Trajectory | None:
    """Integrate (L, psi, psi_tau) from theta0 towards theta1 (None where they coincide).

    The field is the angular-time one divided by L = theta_tau, so no step
    evaluates the potential itself.  A stage where L^2/2 falls to the
    turning tolerance raises TurningPointError, which rejects the step.
    Given a margin, the run may also end early: at the event where L^2/2,
    the gap, falls to the margin (a turning end), or at the node where its
    last 16 steps cover less than 1e-4 of its travel (a singular end).
    """
    if theta1 == theta0:
        return None
    terms, tol, level = ode.spec.linear_terms, ode.turning_tol, ode.invariant

    def rhs(th, y):
        ell, psi, dpsi = y
        if 0.5 * ell * ell <= tol:
            raise TurningPointError(th, level)
        dl, ddpsi = _tau_slopes(terms, th, ell, psi, dpsi)
        return dl / ell, dpsi / ell, ddpsi / ell

    events, until = (), None
    if margin is not None:
        sign, floor, nodes = ode.branch_sign, math.sqrt(2.0 * margin), [theta0]
        events = [EventSpec("turning_margin", lambda th, y: sign * y[0] - floor, terminal=True)]

        def until(th, y):
            nodes.append(th)
            return len(nodes) > _STALL_STEPS and (
                abs(th - nodes[-1 - _STALL_STEPS]) < _STALL_SHARE * abs(th - theta0))

    cfg = IntegratorConfig(t_span=(theta0, theta1), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
    traj = integrate(rhs, y0, cfg, events, until)
    if traj.termination not in ("completed", "event:turning_margin", "stopped"):
        raise LinearizationError(f"linear solve stopped at theta={traj.t_end!r} ({traj.termination})")
    return traj


class LinearSolution:
    """Solution psi of the linear ODE with given data (psi0, psi'0) at theta0.

    ``up`` and ``down`` are the dense runs leaving theta0 each way, or None
    where nothing was solved.  A row is (L, psi, psi_tau), the columns the
    run in angular time carries too, with psi' = psi_tau/L; ``y0`` at theta0.
    """

    def __init__(self, ode: LinearODE, theta0: float, y0: list[float], up, down):
        self.ode, self.theta0, self.y0, self.up, self.down = ode, theta0, y0, up, down

    @property
    def window(self) -> tuple[float, float]:
        lo = self.down.t_end if self.down else self.theta0
        hi = self.up.t_end if self.up else self.theta0
        return lo, hi

    def rows(self, thetas) -> list[list[float]]:
        """Rows at the angles of a grid, in its order: one sweep of ``down`` over those below
        theta0, a copy of ``y0`` at it, one sweep of ``up`` above.  Raises OutsideWindowError
        naming the first angle the runs do not cover."""
        xs = [float(th) for th in thetas]
        theta0, (lo, hi) = self.theta0, self.window
        for x in xs:
            run = self.up if x > theta0 else self.down
            if x != theta0 and not (run and lo - 1e-12 <= x <= hi + 1e-12):
                raise OutsideWindowError(f"theta={x!r} outside the window [{lo}, {hi}]")
        down = iter(self.down.sample([x for x in xs if x < theta0]) if self.down else ())
        up = iter(self.up.sample([x for x in xs if x > theta0]) if self.up else ())
        return [next(up) if x > theta0 else next(down) if x < theta0 else list(self.y0) for x in xs]

    def row(self, theta: float) -> list[float]:
        return self.rows((theta,))[0]

    def psi(self, theta: float) -> float:
        return self.row(theta)[1]

    def coefficients(self, thetas) -> list[tuple[float, float, float, float, float]]:
        """(p2, p1, p0, rhs, psi) at each angle of a grid, with L read from the solve."""
        xs = [float(th) for th in thetas]
        rows = self.rows(xs)
        terms = [self.ode.spec.linear_terms(th, row[0]) for th, row in zip(xs, rows)]
        return [(ell * ell, -dv + ell * A, ell * ell + F - B, C, psi)
                for (ell, psi, _), (A, B, C, F, dv) in zip(rows, terms)]


def solve_linear(ode: LinearODE, theta0: float, psi0: float, dpsi0: float, margin=None) -> LinearSolution:
    """Solve the linear ODE matching (psi0, dpsi0) at theta0 on the ODE domain.

    L0 = branch sqrt(2 (I - V(theta0))); raises TurningPointError or
    ForbiddenRegionError where the level meets or falls below V(theta0).
    Given a gap margin, a run may end short of the domain's end, at a
    turning margin or a singular end (``_solve_run``); ``window`` is what
    the runs reach.
    """
    lo, hi = ode.domain
    if not (lo <= theta0 <= hi):
        raise ValueError(f"theta0={theta0!r} outside the ODE domain [{lo}, {hi}]")
    ell = ode.branch_sign * momentum_from_gap(theta0, ode.invariant, ode.gap(theta0))
    y0 = [ell, psi0, ell * dpsi0]
    up, down = _solve_run(ode, theta0, y0, hi, margin), _solve_run(ode, theta0, y0, lo, margin)
    return LinearSolution(ode, theta0, y0, up, down)


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
        dl, ddpsi = _tau_slopes(terms, theta, ell, psi, dpsi)
        rv = rho_c
        if rv is None:
            try:
                rv = evaluate(rho, {"t": t})
            except EvaluationError:
                if not sign * (t - t_end) > 0.0:
                    raise
                rv = evaluate(rho, {"t": t_end})
        return ell, dl, dpsi, ddpsi, rv * rv / (psi * psi)

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

    def rows(self, times) -> list[list[float]]:
        """Rows at times of the window, in the caller's order: the ``down`` run's t column
        inverted at those below t0, a copy of ``y0`` at it, the ``up`` run's above.  Raises
        OutsideWindowError naming the first time outside the window or past a psi floor."""
        xs = [float(t) for t in times]
        (lo, hi), t0 = self.window, self.y0[4]
        for t in xs:
            if not lo <= t <= hi:
                raise OutsideWindowError(f"t={t!r} outside the time window [{lo}, {hi}]")
            end = (self.up if t > t0 else self.down).ys[-1][4] if t != t0 else t0
            if (t - end > 0.0) if t > t0 else (end - t > 0.0):
                raise OutsideWindowError(f"t={t!r} lies past t={end!r}, where psi fell to 1e-4 psi0"
                                         " (an escape)")
        down = iter(self.down.invert(4, [t for t in xs if t < t0]) if self.down else ())
        up = iter(self.up.invert(4, [t for t in xs if t > t0]) if self.up else ())
        return [next(up) if t > t0 else next(down) if t < t0 else list(self.y0) for t in xs]

    def row(self, t: float) -> list[float]:
        return self.rows((t,))[0]

    def sample(self, times) -> list[tuple[float, float]]:
        """(theta, r) at times of the window, in the caller's order, r = rho(t)/psi from one row."""
        xs = [float(t) for t in times]
        return [(row[0], evaluate(self.spec.rho, {"t": t}) / row[2]) for t, row in zip(xs, self.rows(xs))]

    def at(self, t: float) -> tuple[float, float]:
        return self.sample((t,))[0]


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


def solve_from_state(
    spec, state0: PolarState, theta_domain: tuple[float, float] | None = None
) -> LinearSolution:
    """Linear ODE and its solution for the trajectory through ``state0``.

    The invariant level and branch come from the state, and so do the
    initial data (psi0, psi'0).  psi is solved on a handed-in domain, which
    ``build_linear_ode`` checks, or, without one, from theta0 towards
    theta0 +- 2 pi: each run ends there, where the gap I - V falls to the
    margin 1e-3 (1 + |I|) (a turning end), or where it stalls (a singular
    end, such as a pole or a log of the potential); ``window`` is the
    domain reached.  A gap at theta0 within the margin raises
    TurningPointError, naming the potential there.
    """
    lin = _check_linearizable(spec)
    if state0.thetadot == 0.0:
        raise LinearizationError("initial state sits at a turning point (thetadot = 0)")
    branch = 1 if state0.thetadot > 0.0 else -1
    inv = invariant_level(state0.r, state0.theta, state0.thetadot, lin.V)
    if not math.isfinite(inv):
        raise LinearizationError(f"invariant level {inv!r} at the initial state is not finite")
    theta0, margin = state0.theta, None
    if theta_domain is not None:
        ode = build_linear_ode(lin, inv, theta_domain, branch)
    else:
        ode = LinearODE(lin, inv, (theta0 - _DOMAIN_SPAN, theta0 + _DOMAIN_SPAN), branch)
        margin, v0 = _DOMAIN_MARGIN_REL * (1.0 + abs(inv)), evaluate(lin.V, {"theta": theta0})
        if not inv - v0 > margin:  # I = L^2/2 + V(theta0): the gap is never negative
            detail = f"potential {v0!r}; initial angle too close to a turning point"
            raise TurningPointError(theta0, inv, detail=detail)
    _, psi0, psi_tau0 = _initial_data(lin, state0)
    return solve_linear(ode, theta0, psi0, psi_tau0 / (state0.r**2 * state0.thetadot), margin)


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
