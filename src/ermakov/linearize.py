"""Linearization of the six-function family and solution reconstruction.

With the invariant level fixed by the initial data, the substitution
psi = rho(t)/r with the angle as independent variable turns the radial
dynamics into a second-order linear ODE

    p2(theta) psi'' + p1(theta) psi' + p0(theta) psi = rhs(theta),

with p2 = h^2, p1 = h dh/dtheta - a, p0 = h^2 + F - b, rhs = c, where
(a, b, c) come from the structure functions evaluated on shell
(L = h(theta)).  Solving it and inverting the separable angle quadrature
recovers theta(t), t(theta), and the orbit r(theta) = rho/psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .expressions import (
    EvaluationError,
    Expression,
    as_expression,
    evaluate,
    free_variables,
    is_literal_zero,
)
from .integration import EventSpec, IntegratorConfig, integrate
from .invariant import (
    ForbiddenRegionError,
    TurningPointError,
    lewis_ray_reid_polar,
    momentum_from_gap,
    turning_tolerance,
)
from .numerics import QuadratureError, quad_adaptive
from .systems import (
    LinearizableSpec,
    PolarState,
    WinternitzParams,
    _potential_derivative,
    _rho_derivatives,
    check_rho_nonzero,
    frequency_from_linearizable,
)

__all__ = [
    "LinearODE",
    "LinearSolution",
    "LinearizationError",
    "OutsideWindowError",
    "QuadratureSolution",
    "angular_time",
    "auto_theta_domain",
    "build_linear_ode",
    "build_pipeline",
    "free_motion_solution",
    "solve_from_state",
    "solve_linear",
    "time_quadrature",
    "verify_compatibility",
    "winternitz_angular_time_closed",
    "winternitz_dpsi_closed",
    "winternitz_psi_closed",
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


@dataclass
class LinearODE:
    """Coefficients of the linear equation in psi(theta) at a fixed invariant level.

    Valid on an open angle interval where the invariant level exceeds the
    potential; p2 is positive on the interior.
    """

    spec: LinearizableSpec
    invariant: float
    domain: tuple[float, float]
    branch_sign: int
    _dV: Expression
    rhs_is_zero: bool

    def gap(self, theta: float) -> float:
        return self.invariant - evaluate(self.spec.V, {"theta": theta})

    def h(self, theta: float) -> float:
        return momentum_from_gap(theta, self.invariant, self.gap(theta))

    def p2(self, theta: float) -> float:
        return 2.0 * self.gap(theta)

    def p1(self, theta: float) -> float:
        return self.terms(theta)[2]

    def p0(self, theta: float) -> float:
        return self.terms(theta)[3]

    def rhs(self, theta: float) -> float:
        return self.terms(theta)[4]

    def terms(self, theta: float) -> tuple[float, float, float, float, float]:
        """(h, p2, p1, p0, rhs) at theta from one evaluation of the potential."""
        gap = self.gap(theta)
        h = momentum_from_gap(theta, self.invariant, gap)
        ell = self.branch_sign * h
        env = {"theta": theta, "L": ell}
        a = -ell * evaluate(self.spec.A, env)
        b = evaluate(self.spec.B, env)
        c = evaluate(self.spec.C, env)
        p2 = 2.0 * gap
        f = evaluate(self.spec.F, {"theta": theta})
        # h dh/dtheta = -dV/dtheta exactly
        dv = evaluate(self._dV, {"theta": theta})
        return h, p2, -dv - a, p2 + f - b, c

    def coefficients(self, theta: float) -> tuple[float, float, float, float]:
        return self.terms(theta)[1:]


def build_linear_ode(
    spec,
    invariant,
    theta_domain: tuple[float, float],
    branch_sign: int = 1,
) -> LinearODE:
    """Validate the angle interval and assemble the linear ODE coefficients.

    Raises ForbiddenRegionError if the invariant level fails to exceed the
    potential anywhere on the interval; the message names the boundary
    angle where the level is first reached.
    """
    lin = _check_linearizable(spec)
    level = float(invariant)
    lo, hi = float(theta_domain[0]), float(theta_domain[1])
    if not lo < hi:
        raise ValueError(f"theta_domain must be increasing, got {theta_domain}")
    if branch_sign not in (-1, 1):
        raise ValueError(f"branch_sign must be +1 or -1, got {branch_sign!r}")
    tol = turning_tolerance(level)
    grid = np.linspace(lo, hi, 401)
    gaps = []
    for th in grid:
        try:
            gaps.append(level - evaluate(lin.V, {"theta": float(th)}))
        except EvaluationError as exc:
            raise ForbiddenRegionError(float(th), level, math.inf, detail=str(exc)) from exc
    gaps = np.array(gaps)
    if np.min(gaps) <= tol:
        theta_star = _locate_turning(lin.V, level, grid, gaps, tol)
        raise ForbiddenRegionError(
            theta_star,
            level,
            float(evaluate(lin.V, {"theta": theta_star})),
            detail=f"turning point near theta={theta_star:.12g}",
        )
    return LinearODE(
        spec=lin,
        invariant=level,
        domain=(lo, hi),
        branch_sign=branch_sign,
        _dV=_potential_derivative(lin.V),
        rhs_is_zero=is_literal_zero(lin.C),
    )


def _locate_turning(V, level, grid, gaps, tol) -> float:
    """Refine where the invariant level meets the potential, for messages."""
    bad = gaps <= tol
    fn = lambda th: level - evaluate(V, {"theta": th})
    for i in range(len(grid) - 1):
        if bad[i] != bad[i + 1]:
            try:
                return brentq(fn, float(grid[i]), float(grid[i + 1]), xtol=1e-15, disp=False)
            except ValueError:
                return float(grid[i + 1] if bad[i + 1] else grid[i])
    # no transition inside the interval: report the worst point
    return float(grid[int(np.argmin(gaps))])


_DOMAIN_MARGIN_REL = 1e-3
_DOMAIN_STEP = math.pi / 720.0


def auto_theta_domain(
    V, invariant, theta0: float, *, span_cap: float = 2.0 * math.pi
) -> tuple[float, float]:
    """Maximal scanned interval around theta0 where the level clears the potential.

    The scan stops a safety margin short of any turning point and at angles
    where the potential stops being evaluable.
    """
    V = as_expression(V)
    level = float(invariant)
    margin = _DOMAIN_MARGIN_REL * (1.0 + abs(level))

    def clears(th: float) -> bool:
        try:
            return level - evaluate(V, {"theta": th}) > margin
        except (EvaluationError, QuadratureError):
            return False

    v0 = evaluate(V, {"theta": theta0})
    if not level - v0 > margin:
        detail = "initial angle too close to a turning point"
        if level < v0:
            raise ForbiddenRegionError(theta0, level, v0, detail=detail)
        raise TurningPointError(theta0, level, detail=f"potential {v0!r}; {detail}")
    hi = theta0
    while hi - theta0 < span_cap and clears(hi + _DOMAIN_STEP):
        hi += _DOMAIN_STEP
    lo = theta0
    while theta0 - lo < span_cap and clears(lo - _DOMAIN_STEP):
        lo -= _DOMAIN_STEP
    return lo, hi


# ---------------------------------------------------------------------------
# Numeric solution of the linear ODE
# ---------------------------------------------------------------------------

_PSI_FLOOR_REL = 1e-4  # the angle map stops where psi falls to this share of psi0


@dataclass
class _SidedRuns:
    """Dense output of the runs that leave x0 on each side.

    ``up`` and ``down`` hold consecutive runs in one direction, each
    continuing the one before; a row is the runs' state vector at x, ``y0``
    at x0 itself.  ``inverse`` reads the first run of a side, in a column
    that is 0 at x0 and increases with x: it finds the step by its node
    values and solves that step's interpolant by Newton's method with its
    exact slope, falling back to bisection.  Results depend only on the
    stored runs, never on the order of queries.
    """

    var: str
    x0: float
    y0: np.ndarray
    up: list
    down: list

    @property
    def window(self) -> tuple[float, float]:
        lo = self.down[-1].t_end if self.down else self.x0
        hi = self.up[-1].t_end if self.up else self.x0
        return lo, hi

    def row(self, x: float) -> np.ndarray:
        x = float(x)
        if x == self.x0:
            return self.y0
        runs = self.up if x > self.x0 else self.down
        lo, hi = self.window
        if not (runs and lo - 1e-12 <= x <= hi + 1e-12):
            raise OutsideWindowError(f"{self.var}={x!r} outside the window [{lo}, {hi}]")
        reach = abs(x - self.x0)
        for traj in runs[:-1]:
            if reach <= abs(traj.t_end - self.x0):
                return traj.at(x)
        return runs[-1].at(x)

    def inverse(self, v: float, column: int) -> float:
        """The x whose row holds v in ``column``."""
        v = float(v)
        if v == 0.0:
            return self.x0
        runs = self.up if v > 0.0 else self.down
        if not runs or abs(v) > abs(runs[0].ys[-1, column]):
            edge = self.window[1 if v > 0.0 else 0]
            raise OutsideWindowError(
                f"requested time maps beyond {self.var}={float(edge)!r}"
                " (window edge or turning point)"
            )
        run = runs[0]
        # node values in the run's own direction, increasing from 0
        sign = 1.0 if v > 0.0 else -1.0
        vs = sign * run.ys[:, column]
        i = int(np.searchsorted(vs, sign * v))
        x_prev, x_next = float(run.ts[i - 1]), float(run.ts[i])
        x = x_prev + (x_next - x_prev) * (sign * v - vs[i - 1]) / (vs[i] - vs[i - 1])
        a, b = min(x_prev, x_next), max(x_prev, x_next)
        for _ in range(100):
            value, slope = run.at_with_slope(x)
            f, slope = float(value[column]) - v, float(slope[column])
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


def _solve_runs(ode: LinearODE, theta0, y0, theta1, forced, floor) -> list:
    """Integrate from theta0 towards theta1: [psi, psi', W], plus Theta when a psi floor is given.

    Theta' = 1/(h psi^2) rides along until psi falls to the floor; a second
    run then carries [psi, psi', W] on to theta1.
    """
    if theta1 == theta0:
        return []
    with_theta = floor is not None

    def rhs(th, y):
        h, p2, p1, p0, c = ode.terms(float(th))
        psi, dpsi, *_, w = y.tolist()
        d2 = ((c if forced else 0.0) - p1 * dpsi - p0 * psi) / p2
        if with_theta:
            return np.array([dpsi, d2, 1.0 / (h * psi * psi), -p1 / p2 * w])
        return np.array([dpsi, d2, -p1 / p2 * w])

    events = []
    if with_theta:
        events.append(EventSpec("psi_floor", lambda th, y: y[0] - floor, terminal=True))
    cfg = IntegratorConfig(t_span=(theta0, theta1), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
    traj = integrate(rhs, y0, cfg, events)
    if traj.termination == "completed":
        return [traj]
    if traj.termination != "event:psi_floor":
        raise LinearizationError(
            f"linear solve stopped at theta={traj.t_end!r} ({traj.termination})"
        )
    y_end = traj.ys[-1][[0, 1, 3]]  # Theta stops here
    return [traj, *_solve_runs(ode, traj.t_end, y_end, theta1, forced, None)]


@dataclass
class LinearSolution:
    """Solution psi of the linear ODE with given data (psi0, psi'0) at theta0.

    One run per direction carries psi, psi', Abel's Wronskian factor W of
    the identity basis (W' = -(p1/p2) W, W(theta0) = 1) and, when psi0 > 0,
    the angle map Theta(theta) = integral of 1/(h psi^2) from theta0 up to
    where psi falls to 1e-4 psi0; a second run carries psi on to the end of
    the domain.  ``path`` rows are (psi, psi', ..., W) and ``Theta`` rows
    hold Theta in column 2.  The homogeneous basis psi1, psi2 is integrated
    only on request.
    """

    ode: LinearODE
    theta0: float
    domain: tuple[float, float]
    path: _SidedRuns
    Theta: _SidedRuns | None

    def psi(self, theta: float) -> float:
        return float(self.path.row(theta)[0])

    def dpsi(self, theta: float) -> float:
        return float(self.path.row(theta)[1])

    def wronskian(self, theta: float) -> float:
        """psi1 psi2' - psi2 psi1' from the homogeneous basis."""
        a = self.psi1.row(theta)
        b = self.psi2.row(theta)
        return float(a[0] * b[1] - b[0] * a[1])

    @cached_property
    def psi1(self) -> _SidedRuns:
        return self._homogeneous([1.0, 0.0, 1.0])

    @cached_property
    def psi2(self) -> _SidedRuns:
        return self._homogeneous([0.0, 1.0, 1.0])

    def _homogeneous(self, y0) -> _SidedRuns:
        y0 = np.asarray(y0, dtype=float)
        runs = [
            _solve_runs(self.ode, self.theta0, y0, end, False, None)
            for end in (self.domain[1], self.domain[0])
        ]
        return _SidedRuns("theta", self.theta0, y0, *runs)


def solve_linear(
    ode: LinearODE,
    theta0: float,
    psi0: float,
    dpsi0: float,
    grid: Sequence[float],
) -> LinearSolution:
    """Solve the linear ODE matching (psi0, dpsi0) at theta0.

    The span of ``grid`` (clipped to the ODE domain) sets the solved
    interval.  Raises LinearizationError if Abel's factor W stops being
    positive, i.e. the homogeneous solutions become linearly dependent.
    """
    lo = max(min(grid), ode.domain[0])
    hi = min(max(grid), ode.domain[1])
    if not (lo <= theta0 <= hi):
        raise ValueError(f"theta0={theta0!r} outside the requested grid span [{lo}, {hi}]")
    floor = _PSI_FLOOR_REL * psi0 if psi0 > 0.0 else None
    y0 = np.array([psi0, dpsi0, 0.0, 1.0] if floor is not None else [psi0, dpsi0, 1.0])
    fwd = _solve_runs(ode, theta0, y0, hi, True, floor)
    bwd = _solve_runs(ode, theta0, y0, lo, True, floor)
    w = np.concatenate([traj.ys[:, -1] for traj in fwd + bwd] + [y0[-1:]])
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise LinearizationError("homogeneous solutions became linearly dependent")
    Theta = None
    if floor is not None:
        Theta = _SidedRuns("theta", theta0, y0, fwd[:1], bwd[:1])
    return LinearSolution(
        ode=ode,
        theta0=theta0,
        domain=(lo, hi),
        path=_SidedRuns("theta", theta0, y0, fwd, bwd),
        Theta=Theta,
    )


# ---------------------------------------------------------------------------
# Quadratures and inversion
# ---------------------------------------------------------------------------

def angular_time(theta: float, invariant, V, J: float = 0.0, base: float = math.pi / 2.0) -> float:
    """Reparametrized time T(theta) = integral of 1/h from the base angle, plus J."""
    V = as_expression(V)
    level = float(invariant)
    lo, hi = (base, theta) if base <= theta else (theta, base)
    tol = turning_tolerance(level)
    if lo < hi:
        for th in np.linspace(lo, hi, 201):
            gap = level - evaluate(V, {"theta": float(th)})
            if gap <= tol:
                raise ForbiddenRegionError(float(th), level, level - gap)

    def integrand(lam: float) -> float:
        gap = level - evaluate(V, {"theta": lam})
        if gap <= 0.0:
            raise ForbiddenRegionError(lam, level, level - gap)
        return 1.0 / math.sqrt(2.0 * gap)

    return quad_adaptive(integrand, base, theta) + J


def winternitz_angular_time_closed(
    params: WinternitzParams,
    invariant,
    theta: float,
    J: float = 0.0,
    base: float = math.pi / 2.0,
) -> float:
    """Arcsine antiderivative of 1/h for the Winternitz potential, anchored at the base.

    Valid when the discriminant g2^2 + 4 I (I - g1) is positive and the
    arcsine argument stays inside [-1, 1] between the base and theta;
    raises ValueError otherwise so callers can fall back to quadrature.
    """
    level = float(invariant)
    if level <= 0.0:
        raise ValueError(f"closed form requires a positive invariant, got {level!r}")
    disc = params.g2**2 + 4.0 * level * (level - params.g1)
    if disc <= 0.0:
        raise ValueError(f"closed form requires a positive discriminant, got {disc!r}")
    d = math.sqrt(disc)

    def antiderivative(th: float) -> float:
        arg = (2.0 * level * math.cos(th) + params.g2) / d
        if abs(arg) > 1.0:
            raise ValueError(f"arcsine argument {arg!r} outside [-1, 1] at theta={th!r}")
        return -math.asin(arg) / math.sqrt(2.0 * level)

    return antiderivative(theta) - antiderivative(base) + J


def _winternitz_time(params, invariant, theta, J):
    try:
        return winternitz_angular_time_closed(params, invariant, theta, J)
    except ValueError:
        v = _winternitz_potential(params)
        return angular_time(theta, invariant, v, J)


@lru_cache(maxsize=1)
def _winternitz_potential(params: WinternitzParams):
    from .systems import winternitz_system

    return winternitz_system(params).V


def winternitz_psi_closed(
    params: WinternitzParams,
    invariant,
    c1: float,
    c2: float,
    J: float,
    theta: float,
) -> float:
    """Closed-form psi(theta) for the Winternitz system at invariant level I.

    In the reparametrized time T the linear equation is a driven oscillator
    psi_TT + 2 (I + g3) psi = mu0, so
    psi = c1 cos(k T) + c2 sin(k T) + mu0 / k^2 with k = sqrt(2 (I + g3)).
    """
    level = float(invariant)
    ksq = 2.0 * (level + params.g3)
    if ksq <= 0.0:
        raise ValueError(f"requires I + g3 > 0, got {level + params.g3!r}")
    k = math.sqrt(ksq)
    t_par = _winternitz_time(params, level, theta, J)
    return c1 * math.cos(k * t_par) + c2 * math.sin(k * t_par) + params.mu0 / ksq


def winternitz_dpsi_closed(
    params: WinternitzParams,
    invariant,
    c1: float,
    c2: float,
    J: float,
    theta: float,
) -> float:
    """d psi / d theta of the closed form (chain rule through dT/dtheta = 1/h)."""
    level = float(invariant)
    k = math.sqrt(2.0 * (level + params.g3))
    t_par = _winternitz_time(params, level, theta, J)
    v = evaluate(_winternitz_potential(params), {"theta": theta})
    h = math.sqrt(2.0 * (level - v))
    return (-c1 * k * math.sin(k * t_par) + c2 * k * math.cos(k * t_par)) / h


def free_motion_solution(c1: float, c2: float, theta: float) -> float:
    """psi affine in the angle: the free-motion-class general solution."""
    return c1 + c2 * theta


def _time_map(rho: Expression, t0: float, t_window: tuple[float, float]) -> _SidedRuns:
    """Tau(t) = integral of 1/rho^2 from t0, integrated once over the time window."""

    def rhs(t, y):
        t = float(t)
        rv = evaluate(rho, {"t": t})
        if rv == 0.0:
            raise EvaluationError(f"rho vanished at t={t!r}")
        return np.array([1.0 / (rv * rv)])

    def side(t1: float) -> list:
        if t1 == t0:
            return []
        cfg = IntegratorConfig(t_span=(t0, t1), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
        traj = integrate(rhs, [0.0], cfg)
        if traj.termination != "completed":
            raise LinearizationError(
                f"time quadrature stopped at t={traj.t_end!r} ({traj.termination})"
            )
        return [traj]

    down = side(min(t0, *t_window))
    return _SidedRuns("t", t0, np.zeros(1), side(max(t0, *t_window)), down)


@dataclass
class QuadratureSolution:
    """The linearized route for one trajectory: angle and time maps, and the radius.

    The maps satisfy Theta(theta(t)) = branch_sign * Tau(t), where Theta
    integrates 1/(h psi^2) from theta0 inside the solve and Tau integrates
    1/rho^2 from t0.  Both are strictly increasing on their windows.  Tau
    is (t - t0)/rho^2 for a constant rho, and otherwise read off ``Tau``.
    The radius is r = rho/psi.
    """

    solution: LinearSolution
    t0: float
    Tau: _SidedRuns | None
    rho_const: float | None

    @property
    def theta_window(self) -> tuple[float, float]:
        return self.solution.Theta.window

    def theta_at(self, t: float) -> float:
        """The unique angle with Theta(theta) = branch_sign*Tau(t)."""
        t = float(t)
        if self.Tau is None:
            tau = (t - self.t0) / (self.rho_const * self.rho_const)
        else:
            tau = float(self.Tau.row(t)[0])
        return self.solution.Theta.inverse(self.solution.ode.branch_sign * tau, 2)

    def t_at(self, theta: float) -> float:
        """The time with Tau(t) = Theta(theta)/branch_sign."""
        tau = float(self.solution.Theta.row(theta)[2]) / self.solution.ode.branch_sign
        if self.Tau is None:
            return self.t0 + self.rho_const * self.rho_const * tau
        return self.Tau.inverse(tau, 0)

    def _psi(self, theta: float) -> float:
        psi = self.solution.psi(theta)
        if not psi > 0.0:
            raise LinearizationError(f"psi({theta!r}) = {psi!r} is not positive")
        return psi

    def r_of_theta(self, theta: float) -> float:
        """Orbit radius r(theta) = rho(t(theta)) / psi(theta).

        With a constant rho no time inversion is needed.
        """
        psi = self._psi(theta)
        if self.rho_const is not None:
            return self.rho_const / psi
        return evaluate(self.solution.ode.spec.rho, {"t": self.t_at(theta)}) / psi

    def r_of_t(self, t: float) -> float:
        """Radius as a function of time: rho(t) / psi(theta(t))."""
        psi = self._psi(self.theta_at(t))
        if self.rho_const is not None:
            return self.rho_const / psi
        return evaluate(self.solution.ode.spec.rho, {"t": t}) / psi


def time_quadrature(
    sol: LinearSolution, t0: float, t_window: tuple[float, float] | None = None
) -> QuadratureSolution:
    """Pair the solve's angle map with the time map anchored at (sol.theta0, t0).

    The scale factor rho and the branch come from the solved ODE.  Tau
    integrates 1/rho^2, in closed form for a constant rho and otherwise
    once over ``t_window``, which a time-dependent rho requires.
    """
    psi0 = sol.psi(sol.theta0)
    if not psi0 > 0.0:
        raise LinearizationError(f"psi({sol.theta0!r}) = {psi0!r} is not positive")
    rho = sol.ode.spec.rho
    rho_const = Tau = None
    if not free_variables(rho):
        rho_const = evaluate(rho, {})
        if rho_const == 0.0:
            raise EvaluationError("rho is identically zero")
    else:
        if t_window is None:
            raise LinearizationError("a time-dependent rho needs a time window")
        check_rho_nonzero(rho, t_window[0], t_window[1], 257, f"the time window {t_window!r}")
        Tau = _time_map(rho, t0, t_window)
    return QuadratureSolution(solution=sol, t0=t0, Tau=Tau, rho_const=rho_const)


# ---------------------------------------------------------------------------
# Initial data, compatibility check and end-to-end pipeline
# ---------------------------------------------------------------------------

def _initial_data(spec: LinearizableSpec, state: PolarState) -> tuple[float, float, float]:
    """(rho, psi, psi') at a state: psi = rho/r, psi' = -(rho rdot - rho' r)/(r^2 thetadot)."""
    tenv = {"t": state.t}
    rho_v = evaluate(spec.rho, tenv)
    rho_dv = evaluate(_rho_derivatives(spec.rho)[0], tenv)
    psi = rho_v / state.r
    dpsi = -(rho_v * state.rdot - rho_dv * state.r) / (state.r**2 * state.thetadot)
    return rho_v, psi, dpsi


def verify_compatibility(spec: LinearizableSpec, state: PolarState) -> float:
    """Residual of the linearization constraint at one state.

    Evaluates rho^3 (rhoddot + w2 rho)/psi^3 with the induced frequency on
    one side and a psi' + b psi + c on the other; the two agree identically
    for any member of the family, up to rounding.
    """
    spec = _check_linearizable(spec)
    if state.thetadot == 0.0:
        raise ValueError("compatibility residual needs a state with nonzero thetadot")
    rho_v, psi, dpsi = _initial_data(spec, state)
    rho_ddv = evaluate(_rho_derivatives(spec.rho)[1], {"t": state.t})
    if rho_v == 0.0:
        raise EvaluationError(f"rho vanished at t={state.t!r}")
    ell = state.angular_momentum
    env = {"theta": state.theta, "L": ell}
    a = -ell * evaluate(spec.A, env)
    b = evaluate(spec.B, env)
    c = evaluate(spec.C, env)
    w2 = evaluate(
        frequency_from_linearizable(spec),
        {
            "t": state.t,
            "r": state.r,
            "theta": state.theta,
            "rdot": state.rdot,
            "thetadot": state.thetadot,
        },
    )
    lhs = rho_v**3 * (rho_ddv + w2 * rho_v) / psi**3
    rhs = a * dpsi + b * psi + c
    return abs(lhs - rhs)


def solve_from_state(
    spec, state0: PolarState, theta_domain: tuple[float, float] | None = None
) -> LinearSolution:
    """Linear ODE and its solution for the trajectory through ``state0``.

    The invariant level and branch come from the state, and so do the
    initial data (psi0, psi'0); the angle domain is scanned automatically
    unless supplied.
    """
    lin = _check_linearizable(spec)
    if state0.thetadot == 0.0:
        raise LinearizationError("initial state sits at a turning point (thetadot = 0)")
    branch = 1 if state0.thetadot > 0.0 else -1
    inv = lewis_ray_reid_polar(state0, lin.V)
    if theta_domain is None:
        theta_domain = auto_theta_domain(lin.V, inv, state0.theta)
    ode = build_linear_ode(lin, inv, theta_domain, branch)
    _, psi0, dpsi0 = _initial_data(lin, state0)
    return solve_linear(ode, state0.theta, psi0, dpsi0, grid=list(theta_domain))


def build_pipeline(
    spec,
    state0: PolarState,
    *,
    theta_domain: tuple[float, float] | None = None,
    t_window: tuple[float, float] | None = None,
) -> QuadratureSolution:
    """Assemble the linearized route for one trajectory.

    ``solve_from_state`` followed by the time quadrature.  The result
    refuses to cross turning points: queries outside the covered window
    raise instead of switching branches.
    """
    return time_quadrature(solve_from_state(spec, state0, theta_domain), state0.t, t_window)
