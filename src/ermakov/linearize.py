"""Linearization of the six-function family and solution reconstruction.

With the invariant level fixed by the initial data, the substitution
psi = rho(t)/r with the angle as independent variable turns the radial
dynamics into a second-order linear ODE

    p2(theta) psi'' + p1(theta) psi' + p0(theta) psi = rhs(theta),

with p2 = h^2, p1 = h dh/dtheta - a, p0 = h^2 + F - b, rhs = c, where
(a, b, c) come from the structure functions evaluated on shell
(L = h(theta)).  Solving it and inverting the separable angle quadrature
recovers theta(t), and the radius r = rho/psi.
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
    "LinearODE",
    "LinearSolution",
    "LinearizationError",
    "OutsideWindowError",
    "QuadratureSolution",
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

    def coefficients(self, theta: float) -> tuple[float, float, float, float]:
        """(p2, p1, p0, rhs) at theta, from the potential evaluated there."""
        return self.terms(theta, self.gap(theta))[1:5]


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


def auto_theta_domain(V, invariant, theta0: float, sides=(True, True)) -> tuple[float, float]:
    """Maximal scanned interval around theta0 where the level clears the potential.

    The scan steps pi/720 at a time, up to 2 pi each way.  It stops a safety
    margin of 1e-3 (1 + |I|) short of any turning point, and one step short
    of an angle where the potential is undefined: the solve carries I - V
    along the run, and must not meet the singularity that often bounds the
    potential's domain (the log of U(tan theta) at a sector edge).  A side
    that ``sides`` = (below, above) marks False is not scanned and ends at
    theta0, unless every scanned side ends there too.  Raises
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
    hi = edge(_DOMAIN_STEP) if sides[1] else theta0
    lo = edge(-_DOMAIN_STEP) if sides[0] else theta0
    if lo == hi:  # each scanned side ended at theta0, within two steps: scan both
        hi, lo = edge(_DOMAIN_STEP), edge(-_DOMAIN_STEP)
    if lo == hi:
        raise LinearizationError(
            f"empty angle domain at theta={theta0!r}: one step of pi/720 either way, the potential"
            f" is within {margin!r} of the level {level!r}, or undefined within two steps"
        )
    return lo, hi


# ---------------------------------------------------------------------------
# Numeric solution of the linear ODE
# ---------------------------------------------------------------------------

_PSI_FLOOR_REL = 1e-4  # a timed run stops where psi falls to this share of psi0


class _SidedRuns:
    """Dense output of the angle runs that leave theta0 on each side.

    ``up`` and ``down`` hold the run in each direction, or None where
    nothing was solved; a row is the run's state vector at theta, ``y0`` at
    theta0 itself.  ``inverse`` reads a column that is 0 at theta0 and
    increases with theta: it finds the step by its node values and solves
    that step's interpolant by Newton's method with its exact slope, falling
    back to bisection.  Results depend only on the stored runs, never on the
    order of queries.
    """

    def __init__(self, x0: float, y0: list[float], up: Trajectory | None, down: Trajectory | None):
        self.x0, self.y0, self.up, self.down = x0, y0, up, down

    @property
    def window(self) -> tuple[float, float]:
        lo = self.down.t_end if self.down else self.x0
        hi = self.up.t_end if self.up else self.x0
        return lo, hi

    def row(self, x: float) -> list[float]:
        x = float(x)
        if x == self.x0:
            return self.y0
        run = self.up if x > self.x0 else self.down
        lo, hi = self.window
        if not (run and lo - 1e-12 <= x <= hi + 1e-12):
            raise OutsideWindowError(f"theta={x!r} outside the window [{lo}, {hi}]")
        return run.at(x)

    def inverse(self, v: float, column: int) -> float:
        """The theta whose row holds v in ``column``."""
        v = float(v)
        if v == 0.0:
            return self.x0
        lo, hi = (r.ys[-1][column] if r else 0.0 for r in (self.down, self.up))
        if not lo <= v <= hi:
            edge = self.window[1 if v > 0.0 else 0]
            raise OutsideWindowError(
                f"requested time maps beyond theta={edge!r} (window edge or turning point)"
            )
        run = self.up if v > 0.0 else self.down
        # node values in the run's own direction, increasing from 0
        sign = 1.0 if v > 0.0 else -1.0
        i = bisect_left(run.ys, sign * v, key=lambda y: sign * y[column])
        v_prev, v_next = sign * run.ys[i - 1][column], sign * run.ys[i][column]
        x_prev, x_next = run.ts[i - 1], run.ts[i]
        x = x_prev + (x_next - x_prev) * (sign * v - v_prev) / (v_next - v_prev)
        a, b = min(x_prev, x_next), max(x_prev, x_next)
        for _ in range(100):
            value, slope = run.at_with_slope(x)
            f, slope = value[column] - v, slope[column]
            if f == 0.0:
                return x
            if f < 0.0:
                a = x
            else:
                b = x
            # Newton step, or bisection where it fails or leaves the bracket
            x_new = x - f / slope if slope > 0.0 else math.nan
            if not a <= x_new <= b:
                x_new = 0.5 * (a + b)
            if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
                return x_new
            x = x_new
        return x


def _solve_run(ode: LinearODE, theta0, y0, theta1, clock=None) -> Trajectory | None:
    """Integrate from theta0 towards theta1: [psi, psi', W, g], or [psi, psi', T, W, g].

    The gap g = I - V(theta) rides along with g' = -dV/dtheta, so no step
    evaluates the potential itself.  Given a ``clock`` = (t0, reach), the
    time T = branch_sign*(t - t0) rides along too, with
    T' = rho(t)^2/(h psi^2), and the run ends where psi falls to 1e-4 psi0
    or after the step where |T| first reaches ``reach`` (0: no run).  That
    step reads rho past the reach; where rho has no value there, its value
    at the reach stands in.
    """
    if theta1 == theta0 or (clock and clock[1] == 0.0):
        return None
    terms = ode.terms
    events, until = (), None
    if clock is None:
        def rhs(th, y):
            psi, dpsi, w, gap = y
            h, p2, p1, p0, c, dv = terms(th, gap)
            return dpsi, (c - p1 * dpsi - p0 * psi) / p2, -p1 / p2 * w, -dv
    else:
        t0, reach = clock
        rho, branch = ode.spec.rho, ode.branch_sign
        rho_c = None  # a constant rho is read once; where it has no value, each stage fails
        with suppress(EvaluationError):
            rho_c = None if free_variables(rho) else evaluate(rho)
        floor = _PSI_FLOOR_REL * y0[0]
        events = [EventSpec("psi_floor", lambda th, y: y[0] - floor, terminal=True)]

        def until(th, y):
            return abs(y[2]) >= reach

        def rhs(th, y):
            psi, dpsi, T, w, gap = y
            h, p2, p1, p0, c, dv = terms(th, gap)
            d2 = (c - p1 * dpsi - p0 * psi) / p2
            rv = rho_c
            if rv is None:
                try:
                    rv = evaluate(rho, {"t": t0 + branch * T})
                except EvaluationError:
                    if not abs(T) > reach:
                        raise
                    rv = evaluate(rho, {"t": t0 + branch * math.copysign(reach, T)})
            return dpsi, d2, rv * rv / (h * psi * psi), -p1 / p2 * w, -dv

    cfg = IntegratorConfig(t_span=(theta0, theta1), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
    traj = integrate(rhs, y0, cfg, events, until)
    if traj.termination not in ("completed", "stopped", "event:psi_floor"):
        raise LinearizationError(
            f"linear solve stopped at theta={traj.t_end!r} ({traj.termination})"
        )
    return traj


class LinearSolution:
    """Solution psi of the linear ODE with given data (psi0, psi'0) at theta0.

    One run per direction carries psi, psi', Abel's Wronskian factor W of
    the identity basis (W' = -(p1/p2) W, W(theta0) = 1) and the gap
    g = I - V(theta), over the whole domain: ``path`` rows are
    (psi, psi', W, g).  A solve for the time reconstruction also carries
    the time T = branch_sign*(t - t0) at which the trajectory reaches each
    angle, and ends where psi falls to 1e-4 psi0 or where T reaches a time
    window's end; its rows are (psi, psi', T, W, g).
    """

    def __init__(self, ode: LinearODE, theta0: float, path: _SidedRuns):
        self.ode, self.theta0, self.path = ode, theta0, path

    def psi(self, theta: float) -> float:
        return self.path.row(theta)[0]

    def coefficients(self, theta: float) -> tuple[float, float, float, float, float]:
        """(p2, p1, p0, rhs, psi) at theta, from the gap carried along the solve."""
        row = self.path.row(theta)
        return (*self.ode.terms(theta, row[-1])[1:5], row[0])


def solve_linear(
    ode: LinearODE,
    theta0: float,
    psi0: float,
    dpsi0: float,
    clock: tuple[float, tuple[float, float]] | None = None,
) -> LinearSolution:
    """Solve the linear ODE matching (psi0, dpsi0) at theta0 on the ODE domain.

    Given ``clock`` = (t0, reach), the solve also carries the time
    T = branch_sign*(t - t0), from T' = rho(t)^2/(h psi^2): the angle
    quadrature integral of 1/(h psi^2) equals branch_sign times the time
    quadrature integral of 1/rho^2.  ``reach`` = (before, after) is how far
    the time must reach before and after t0, and each side of theta0 is cut
    where |T| reaches its share; the time needs psi0 > 0.
    Raises LinearizationError if Abel's factor W stops being positive, i.e.
    the homogeneous solutions become linearly dependent.
    """
    lo, hi = ode.domain
    if not (lo <= theta0 <= hi):
        raise ValueError(f"theta0={theta0!r} outside the ODE domain [{lo}, {hi}]")
    gap0 = ode.gap(theta0)
    if clock is None:
        y0 = [psi0, dpsi0, 1.0, gap0]
        down = up = None
    elif psi0 > 0.0:
        y0 = [psi0, dpsi0, 0.0, 1.0, gap0]
        t0, reach = clock
        down, up = ((t0, r) for r in reach[:: ode.branch_sign])  # below and above theta0
    else:
        raise LinearizationError(f"psi({theta0!r}) = {psi0!r} is not positive")
    runs = (_solve_run(ode, theta0, y0, hi, up), _solve_run(ode, theta0, y0, lo, down))
    if not all(0.0 < y[-2] < math.inf for traj in runs if traj for y in traj.ys):  # Abel factor W
        raise LinearizationError("homogeneous solutions became linearly dependent")
    return LinearSolution(ode=ode, theta0=theta0, path=_SidedRuns(theta0, y0, *runs))


# ---------------------------------------------------------------------------
# Angle and time maps
# ---------------------------------------------------------------------------

class QuadratureSolution:
    """The linearized route for one trajectory: the angle map and the radius.

    Column 2 of the solve holds T = branch_sign*(t - t0), the time at which
    the trajectory reaches each angle; it is strictly increasing in theta,
    so theta(t) inverts it.  Times outside the span ``t_window`` (t0
    included) raise OutsideWindowError.  The radius is r = rho/psi.
    """

    def __init__(self, solution: LinearSolution, t0: float, t_window: tuple[float, float]):
        if len(solution.path.y0) != 5:  # rows (psi, psi', W, g)
            raise LinearizationError("the linear solve carries no time column: give it a clock")
        self.solution, self.t0, self.t_window = solution, t0, t_window

    def theta_at(self, t: float) -> float:
        """The unique angle whose time column holds branch_sign*(t - t0)."""
        t = float(t)
        lo, hi = self.t_window
        if not lo <= t <= hi:
            raise OutsideWindowError(f"t={t!r} outside the time window [{lo}, {hi}]")
        return self.solution.path.inverse(self.solution.ode.branch_sign * (t - self.t0), 2)

    def r_at(self, t: float, theta: float) -> float:
        """Radius rho(t) / psi(theta) at a time t whose angle theta = theta_at(t) is known."""
        psi = self.solution.psi(theta)
        if not psi > 0.0:
            raise LinearizationError(f"psi({theta!r}) = {psi!r} is not positive")
        return evaluate(self.solution.ode.spec.rho, {"t": t}) / psi


# ---------------------------------------------------------------------------
# Initial data, compatibility check and end-to-end pipeline
# ---------------------------------------------------------------------------

def _initial_data(spec: LinearizableSpec, state: PolarState) -> tuple[float, float, float]:
    """(rho, psi, psi') at a state: psi = rho/r, psi' = -(rho rdot - rho' r)/(r^2 thetadot)."""
    tenv = {"t": state.t}
    rho_v = evaluate(spec.rho, tenv)
    rho_dv = evaluate(spec.rho_derivatives[0], tenv)
    psi = rho_v / state.r
    dpsi = -(rho_v * state.rdot - rho_dv * state.r) / (state.r**2 * state.thetadot)
    return rho_v, psi, dpsi


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


def _linear_problem(
    spec, state0: PolarState, theta_domain, reach=(math.inf, math.inf)
) -> tuple[LinearODE, float, float]:
    """The linear ODE through ``state0`` and its initial data (psi0, psi'0).

    A scanned domain is used as found; ``build_linear_ode`` checks one handed in.
    The scan skips an angle side that the time ``reach`` = (before, after) of
    the solve leaves at 0.
    """
    lin = _check_linearizable(spec)
    if state0.thetadot == 0.0:
        raise LinearizationError("initial state sits at a turning point (thetadot = 0)")
    branch = 1 if state0.thetadot > 0.0 else -1
    inv = invariant_level(state0.r, state0.theta, state0.thetadot, lin.V)
    if not math.isfinite(inv):
        raise LinearizationError(f"invariant level {inv!r} at the initial state is not finite")
    if theta_domain is None:
        sides = [r != 0.0 for r in reach[::branch]]  # below and above theta0, as solve_linear maps them
        ode = LinearODE(lin, inv, auto_theta_domain(lin.V, inv, state0.theta, sides), branch)
    else:
        ode = build_linear_ode(lin, inv, theta_domain, branch)
    _, psi0, dpsi0 = _initial_data(lin, state0)
    return ode, psi0, dpsi0


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


def build_pipeline(
    spec, state0: PolarState, *, t_window: tuple[float, float]
) -> QuadratureSolution:
    """The linearized route for the trajectory through ``state0`` over ``t_window``.

    The angle run carries the time from state0.t and is solved only as far
    as the time reaches over the window, or until psi falls to 1e-4 psi0
    or the domain ends; times outside the window raise OutsideWindowError.
    A side of theta0 that the window never reaches is neither solved nor
    scanned: ``ode.domain`` ends at theta0 there.  A time-dependent rho must
    keep clear of zero over the window.  Queries outside the covered window
    raise instead of crossing turning points.
    """
    t0 = state0.t
    span = (min(t0, *t_window), max(t0, *t_window))
    reach = (t0 - span[0], span[1] - t0)
    ode, psi0, dpsi0 = _linear_problem(spec, state0, None, reach)
    if free_variables(ode.spec.rho):
        check_rho_nonzero(ode.spec.rho, t_window[0], t_window[1], 257, f"the time window {t_window!r}")
    sol = solve_linear(ode, state0.theta, psi0, dpsi0, (t0, reach))
    return QuadratureSolution(sol, t0, span)
