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
from .integration import EventSpec, IntegratorConfig, Trajectory, integrate
from .invariant import (
    ForbiddenRegionError,
    InvariantValue,
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
    "ReconstructionPipeline",
    "angular_time",
    "auto_theta_domain",
    "build_linear_ode",
    "build_pipeline",
    "free_motion_solution",
    "invert_theta_of_t",
    "reconstruct_orbit",
    "reconstruct_radial",
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

    if not clears(theta0):
        raise ForbiddenRegionError(
            theta0, level, float("nan"), detail="initial angle too close to a turning point"
        )
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


class MonotoneMap:
    """Increasing scalar map read off the dense output of runs that start at x0.

    Column ``column`` of each run is 0 at ``x0`` and must increase with x;
    at most one run goes each way from x0.  The inverse finds the step by
    its node values and solves that step's interpolant by Newton's method
    with its exact slope, falling back to bisection.  Results depend only
    on the stored runs, never on the order of queries.
    """

    def __init__(self, var: str, x0: float, runs: Sequence[Trajectory], column: int):
        self.var = var
        self.x0 = x0
        self.column = column
        self._up = next((traj for traj in runs if traj.t_end > x0), None)
        self._down = next((traj for traj in runs if traj.t_end < x0), None)

    @property
    def window(self) -> tuple[float, float]:
        lo = self._down.t_end if self._down is not None else self.x0
        hi = self._up.t_end if self._up is not None else self.x0
        return lo, hi

    def _at(self, run: Trajectory, x: float) -> tuple[float, float]:
        value, slope = run.at_with_slope(x)
        return float(value[self.column]), float(slope[self.column])

    def __call__(self, x: float) -> float:
        x = float(x)
        lo, hi = self.window
        if not (lo - 1e-12 <= x <= hi + 1e-12):
            raise OutsideWindowError(f"{self.var}={x!r} outside the window [{lo}, {hi}]")
        run = self._up if x > self.x0 else self._down
        return 0.0 if run is None else self._at(run, x)[0]

    def inverse(self, v: float) -> float:
        """The x with map(x) = v."""
        v = float(v)
        if v == 0.0:
            return self.x0
        run = self._up if v > 0.0 else self._down
        if run is None or abs(v) > abs(run.ys[-1, self.column]):
            edge = self.window[1 if v > 0.0 else 0]
            raise OutsideWindowError(
                f"requested time maps beyond {self.var}={float(edge)!r}"
                " (window edge or turning point)"
            )
        # node values in the run's own direction, increasing from 0
        sign = 1.0 if v > 0.0 else -1.0
        vs = sign * run.ys[:, self.column]
        i = int(np.searchsorted(vs, sign * v))
        x_prev, x_next = float(run.ts[i - 1]), float(run.ts[i])
        x = x_prev + (x_next - x_prev) * (sign * v - vs[i - 1]) / (vs[i] - vs[i - 1])
        a, b = min(x_prev, x_next), max(x_prev, x_next)
        for _ in range(100):
            f, slope = self._at(run, x)
            f -= v
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


class _ThetaFn:
    """Dense solution assembled from consecutive runs forward and backward of theta0.

    Rows are the runs' state vectors: (psi, psi') first, the Abel factor W last.
    """

    def __init__(self, theta0: float, y0: np.ndarray, forward: list, backward: list):
        self._theta0 = theta0
        self._y0 = y0
        self._fwd = forward
        self._bwd = backward

    def row(self, theta: float) -> np.ndarray:
        if theta == self._theta0:
            return self._y0
        runs = self._fwd if theta > self._theta0 else self._bwd
        if not runs:
            raise OutsideWindowError(f"theta={theta!r} beyond the solved interval")
        reach = abs(theta - self._theta0)
        for traj in runs[:-1]:
            if reach <= abs(traj.t_end - self._theta0):
                return traj.at(theta)
        return runs[-1].at(theta)

    def value(self, theta: float) -> float:
        return float(self.row(theta)[0])

    def slope(self, theta: float) -> float:
        return float(self.row(theta)[1])


def _solve_runs(ode: LinearODE, theta0, y0, theta1, forced, floor, rel_tol, abs_tol) -> list:
    """Integrate from theta0 towards theta1: [psi, psi', W], plus Theta when a psi floor is given.

    Theta' = 1/(h psi^2) rides along until psi falls to the floor; a second
    run then carries [psi, psi', W] on to theta1.
    """
    if theta1 == theta0:
        return []
    with_theta = floor is not None

    def rhs(th, y):
        h, p2, p1, p0, c = ode.terms(th)
        psi, dpsi, w = float(y[0]), float(y[1]), float(y[-1])
        d2 = ((c if forced else 0.0) - p1 * dpsi - p0 * psi) / p2
        if with_theta:
            return np.array([dpsi, d2, 1.0 / (h * psi * psi), -p1 / p2 * w])
        return np.array([dpsi, d2, -p1 / p2 * w])

    events = []
    if with_theta:
        events.append(EventSpec("psi_floor", lambda th, y: y[0] - floor, terminal=True))
    cfg = IntegratorConfig(t_span=(theta0, theta1), rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(rhs, y0, cfg, events)
    if traj.termination == "completed":
        return [traj]
    if traj.termination != "event:psi_floor":
        raise LinearizationError(
            f"linear solve stopped at theta={traj.t_end!r} ({traj.termination})"
        )
    y_end = traj.ys[-1][[0, 1, 3]]  # Theta stops here
    return [traj, *_solve_runs(ode, traj.t_end, y_end, theta1, forced, None, rel_tol, abs_tol)]


@dataclass
class LinearSolution:
    """Solution psi of the linear ODE with given data (psi0, psi'0) at theta0.

    One run per direction carries psi, psi', Abel's Wronskian factor W of
    the identity basis (W' = -(p1/p2) W, W(theta0) = 1) and, when psi0 > 0,
    the angle map Theta(theta) = integral of 1/(h psi^2) from theta0 up to
    where psi falls to 1e-4 psi0.  The homogeneous basis psi1, psi2 is
    integrated only on request.
    """

    ode: LinearODE
    theta0: float
    domain: tuple[float, float]
    path: _ThetaFn
    Theta: MonotoneMap | None
    rel_tol: float
    abs_tol: float

    def psi(self, theta: float) -> float:
        return self.path.value(theta)

    def dpsi(self, theta: float) -> float:
        return self.path.slope(theta)

    def wronskian(self, theta: float) -> float:
        """psi1 psi2' - psi2 psi1' from the homogeneous basis."""
        a = self.psi1.row(theta)
        b = self.psi2.row(theta)
        return float(a[0] * b[1] - b[0] * a[1])

    @cached_property
    def psi1(self) -> _ThetaFn:
        return self._homogeneous([1.0, 0.0, 1.0])

    @cached_property
    def psi2(self) -> _ThetaFn:
        return self._homogeneous([0.0, 1.0, 1.0])

    def _homogeneous(self, y0) -> _ThetaFn:
        y0 = np.asarray(y0, dtype=float)
        runs = [
            _solve_runs(self.ode, self.theta0, y0, end, False, None, self.rel_tol, self.abs_tol)
            for end in (self.domain[1], self.domain[0])
        ]
        return _ThetaFn(self.theta0, y0, *runs)


def solve_linear(
    ode: LinearODE,
    theta0: float,
    psi0: float,
    dpsi0: float,
    grid: Sequence[float],
    *,
    rel_tol: float = _SOLVE_REL_TOL,
    abs_tol: float = _SOLVE_ABS_TOL,
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
    fwd = _solve_runs(ode, theta0, y0, hi, True, floor, rel_tol, abs_tol)
    bwd = _solve_runs(ode, theta0, y0, lo, True, floor, rel_tol, abs_tol)
    w = np.concatenate([traj.ys[:, -1] for traj in fwd + bwd] + [y0[-1:]])
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise LinearizationError("homogeneous solutions became linearly dependent")
    Theta = None
    if floor is not None:
        Theta = MonotoneMap("theta", theta0, [runs[0] for runs in (bwd, fwd) if runs], 2)
    return LinearSolution(
        ode=ode,
        theta0=theta0,
        domain=(lo, hi),
        path=_ThetaFn(theta0, y0, fwd, bwd),
        Theta=Theta,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
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


@lru_cache(maxsize=None)
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


@dataclass(frozen=True)
class _ConstantRhoTime:
    """Tau(t) = (t - t0)/rho^2 for a constant rho, with its inverse."""

    t0: float
    rho_sq: float

    def __call__(self, t: float) -> float:
        return (float(t) - self.t0) / self.rho_sq

    def inverse(self, tau: float) -> float:
        return self.t0 + self.rho_sq * tau


def _time_map(rho: Expression, t0: float, t_window: tuple[float, float]) -> MonotoneMap:
    """Tau(t) = integral of 1/rho^2 from t0, integrated once over the time window."""

    def rhs(t, y):
        rv = evaluate(rho, {"t": t})
        if rv == 0.0:
            raise EvaluationError(f"rho vanished at t={t!r}")
        return np.array([1.0 / (rv * rv)])

    runs = []
    for t1 in (min(t0, *t_window), max(t0, *t_window)):
        if t1 == t0:
            continue
        cfg = IntegratorConfig(t_span=(t0, t1), rel_tol=_SOLVE_REL_TOL, abs_tol=_SOLVE_ABS_TOL)
        traj = integrate(rhs, [0.0], cfg)
        if traj.termination != "completed":
            raise LinearizationError(
                f"time quadrature stopped at t={traj.t_end!r} ({traj.termination})"
            )
        runs.append(traj)
    return MonotoneMap("t", t0, runs, 0)


@dataclass
class QuadratureSolution:
    """Angle and time maps with their inversion handles.

    The maps satisfy Theta(theta(t)) = branch_sign * Tau(t) + J, where
    Theta integrates 1/(h psi^2) from theta0 and Tau integrates 1/rho^2
    from t0.  Both are strictly increasing on their windows.
    """

    Theta: MonotoneMap
    Tau: MonotoneMap | _ConstantRhoTime
    J: float
    branch_sign: int
    theta0: float
    t0: float
    solution: LinearSolution
    rho: Expression
    rho_const: float | None

    @property
    def theta_window(self) -> tuple[float, float]:
        return self.Theta.window

    def theta_at(self, t: float) -> float:
        """The unique angle with Theta(theta) = branch_sign*Tau(t) + J."""
        return self.Theta.inverse(self.branch_sign * self.Tau(float(t)) + self.J)

    def t_at(self, theta: float) -> float:
        """The time with Tau(t) = (Theta(theta) - J)/branch_sign."""
        return self.Tau.inverse((self.Theta(float(theta)) - self.J) / self.branch_sign)


def time_quadrature(
    sol: LinearSolution,
    rho,
    t0: float,
    J: float = 0.0,
    branch_sign: int = 1,
    t_window: tuple[float, float] | None = None,
) -> QuadratureSolution:
    """Pair the solve's angle map with the time map anchored at (sol.theta0, t0).

    Theta integrates 1/(h psi^2) inside ``sol``.  Tau integrates 1/rho^2,
    in closed form for a constant rho and otherwise once over ``t_window``,
    which a time-dependent rho requires.  With anchored base points the
    integration constant is J.
    """
    rho = as_expression(rho)
    if branch_sign not in (-1, 1):
        raise ValueError(f"branch_sign must be +1 or -1, got {branch_sign!r}")
    theta0 = sol.theta0
    psi0 = sol.psi(theta0)
    if not psi0 > 0.0:
        raise LinearizationError(f"psi({theta0!r}) = {psi0!r} is not positive")

    rho_const = None
    if not free_variables(rho):
        rho_const = evaluate(rho, {})
        if rho_const == 0.0:
            raise EvaluationError("rho is identically zero")
        Tau = _ConstantRhoTime(t0, rho_const * rho_const)
    else:
        if t_window is None:
            raise LinearizationError("a time-dependent rho needs a time window")
        check_rho_nonzero(rho, t_window[0], t_window[1], 257, f"the time window {t_window!r}")
        Tau = _time_map(rho, t0, t_window)

    return QuadratureSolution(
        Theta=sol.Theta,
        Tau=Tau,
        J=float(J),
        branch_sign=branch_sign,
        theta0=theta0,
        t0=t0,
        solution=sol,
        rho=rho,
        rho_const=rho_const,
    )


def invert_theta_of_t(q: QuadratureSolution, t: float) -> float:
    """Angle reached at time t along the reconstructed trajectory."""
    return q.theta_at(t)


def reconstruct_orbit(q: QuadratureSolution, theta: float) -> float:
    """Orbit radius r(theta) = rho(t(theta)) / psi(theta).

    With a constant rho no time inversion is needed.
    """
    psi = q.solution.psi(theta)
    if not psi > 0.0:
        raise LinearizationError(f"psi({theta!r}) = {psi!r} is not positive")
    if q.rho_const is not None:
        return q.rho_const / psi
    t = q.t_at(theta)
    return evaluate(q.rho, {"t": t}) / psi


def reconstruct_radial(q: QuadratureSolution, t: float) -> float:
    """Radius as a function of time: rho(t) / psi(theta(t))."""
    theta = q.theta_at(t)
    psi = q.solution.psi(theta)
    if not psi > 0.0:
        raise LinearizationError(f"psi({theta!r}) = {psi!r} is not positive")
    rv = q.rho_const if q.rho_const is not None else evaluate(q.rho, {"t": t})
    return rv / psi


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


@dataclass
class ReconstructionPipeline:
    """Linearize, solve, and invert: the full route from a spec and initial state."""

    spec: LinearizableSpec
    state0: PolarState
    invariant: InvariantValue
    ode: LinearODE
    solution: LinearSolution
    quadrature: QuadratureSolution

    def theta_of_t(self, t: float) -> float:
        return self.quadrature.theta_at(t)

    def r_of_t(self, t: float) -> float:
        return reconstruct_radial(self.quadrature, t)

    def r_of_theta(self, theta: float) -> float:
        return reconstruct_orbit(self.quadrature, theta)


def build_pipeline(
    spec,
    state0: PolarState,
    *,
    theta_domain: tuple[float, float] | None = None,
    t_window: tuple[float, float] | None = None,
    J: float = 0.0,
) -> ReconstructionPipeline:
    """Assemble the linearized route for one trajectory.

    ``solve_from_state`` followed by the time quadrature.  Pipelines refuse
    to cross turning points: queries outside the covered window raise
    instead of switching branches.
    """
    sol = solve_from_state(spec, state0, theta_domain)
    ode = sol.ode
    quad = time_quadrature(
        sol, ode.spec.rho, state0.t, J=J, branch_sign=ode.branch_sign, t_window=t_window
    )
    return ReconstructionPipeline(
        spec=ode.spec,
        state0=state0,
        invariant=InvariantValue(ode.invariant),
        ode=ode,
        solution=sol,
        quadrature=quad,
    )
