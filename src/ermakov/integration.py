"""Adaptive Runge-Kutta integration with dense output and event detection.

The stepper is an embedded Dormand-Prince 5(4) pair with a
proportional-integral step-size controller and the pair's free quartic
interpolant.  It is the ground truth against which the linearization
pipeline is validated, so it favors robustness: domain failures inside a
trial step reject the step instead of aborting the run, and terminal
events truncate the trajectory with a labelled termination reason.
"""

from __future__ import annotations

import logging
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .expressions import EvaluationError, evaluate, free_variables, is_literal_zero
from .invariant import ForbiddenRegionError, TurningPointError, invariant_level
from .numerics import exact_sum
from .systems import (
    CartesianSpec,
    CartesianState,
    LinearizableSpec,
    PolarState,
    cartesian_rhs_function,
    polar_rhs_function,
)

__all__ = [
    "DriftStats",
    "Event",
    "EventSpec",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "integrate_cartesian",
    "integrate_polar",
    "monitor_invariant",
]

log = logging.getLogger(__name__)

# Errors that mean "this trial step wandered somewhere the model is not
# defined"; the controller backs off rather than giving up.
_RECOVERABLE = (EvaluationError, ForbiddenRegionError, TurningPointError, ZeroDivisionError)

# Dormand-Prince 5(4) tableau: nodes C, stage weights A, the fifth-order
# weights B, the error weights E = B - B* and the quartic dense-output map P
# (stage 2's weights are all zero and left out).  Row k of P holds stage k's
# interpolant weight b_k(x) = x (p1 + p2 x + p3 x^2 + p4 x^3); _DP, b_k'(x).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_DP = tuple((p1, 2.0 * p2, 3.0 * p3, 4.0 * p4) for p1, p2, p3, p4 in _P)

_MAX_STEPS = 500_000
_EPS16 = 16.0 * sys.float_info.epsilon  # smallest step, relative to max(|t|, 1)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI (Lund) stabilization exponents for an order-5 pair
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for one integration run."""

    t_span: tuple[float, float]
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    first_step: float | None = None
    event_time_tol: float = 1e-10

    def __post_init__(self):
        t0, tf = self.t_span
        if not (math.isfinite(t0) and math.isfinite(tf)) or t0 == tf:
            raise ValueError(f"t_span must be a nondegenerate finite interval, got {self.t_span}")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class EventSpec:
    """Scalar function of (t, y) whose sign changes are located and reported."""

    name: str
    fn: Callable[[float, Sequence[float]], float]
    terminal: bool = False
    direction: int = 0  # +1 upward crossings, -1 downward, 0 both


@dataclass(frozen=True)
class Event:
    name: str
    t: float
    y: list[float]


@dataclass(frozen=True)
class DriftStats:
    """Relative drift of a conserved quantity along a trajectory."""

    max_rel: float
    rms_rel: float
    reference: float
    series: list[float]


@dataclass
class Trajectory:
    """Accepted samples plus the per-step interpolant between them."""

    ts: list[float]  # m node times, strictly monotone
    ys: list[list[float]]  # m states of dim floats
    hs: list[float]  # m-1 signed step widths
    slopes: list[tuple]  # m-1 steps' seven stage slopes, each dim floats
    n_accepted: int
    n_rejected: int
    n_rhs: int
    termination: str  # completed | stopped | event:<name> | step_size_underflow | max_steps
    events: list[Event] = field(default_factory=list)
    drift: DriftStats | None = None

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    @property
    def dim(self) -> int:
        return len(self.ys[0])

    def _segment(self, t: float) -> int:
        ts = self.ts
        increasing = ts[-1] >= ts[0]
        span = abs(ts[-1] - ts[0])
        lo, hi = (ts[0], ts[-1]) if increasing else (ts[-1], ts[0])
        if t < lo - 1e-9 * (1.0 + span) or t > hi + 1e-9 * (1.0 + span):
            raise ValueError(f"time {t!r} outside the covered window [{lo!r}, {hi!r}]")
        idx = bisect_right(ts, t) if increasing else bisect_right(ts, -t, key=lambda s: -s)
        return min(max(idx - 1, 0), len(self.hs) - 1)  # -1: no accepted step

    def at(self, t: float) -> list[float]:
        """Dense-output state at an arbitrary time inside the covered window."""
        i = self._segment(t)
        if i < 0:
            return list(self.ys[0])
        return _dense(self.ts[i], self.ys[i], self.hs[i], self.slopes[i], float(t))

    def at_with_slope(self, t: float) -> tuple[list[float], list[float]]:
        """Dense-output state and its derivative in t, from the same step's interpolant.

        A run with no accepted step has no interpolant: its slope is NaN.
        """
        t = float(t)
        i = self._segment(t)
        if i < 0:
            return list(self.ys[0]), [math.nan] * self.dim
        t_i, h, slopes = self.ts[i], self.hs[i], self.slopes[i]
        return _dense(t_i, self.ys[i], h, slopes, t), _stage_sum(slopes, (t - t_i) / h, _DP)

    def sample(self, times: Sequence[float]) -> list[list[float]]:
        return [self.at(t) for t in times]


def _scaled_rms(v: Sequence[float], scale: Sequence[float]) -> float:
    """sqrt(mean((v/scale)**2)); an overflow gives inf or NaN, never an error."""
    total = 0.0
    for vi, si in zip(v, scale):
        q = vi / si
        total += q * q
    return math.sqrt(total / len(scale))


def _initial_step(rhs, t0, y0, f0, direction, rel_tol, abs_tol):
    """Curvature-based first-step heuristic."""
    scale = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _scaled_rms(y0, scale)
    d1 = _scaled_rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = rhs(t0 + h0 * direction, [v + h0 * direction * fv for v, fv in zip(y0, f0)])
        d2 = _scaled_rms([b - a for a, b in zip(f0, f1)], scale) / h0
    except _RECOVERABLE:
        return h0 * 1e-3
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _stage_sum(slopes, x: float, table) -> list[float]:
    """sum_k c_k(x) k_k per component; table row k: c_k's coefficients, lowest power first."""
    c1, c3, c4, c5, c6, c7 = [p1 + x * (p2 + x * (p3 + x * p4)) for p1, p2, p3, p4 in table]
    k1, _, k3, k4, k5, k6, k7 = slopes
    return [
        c1 * a + c3 * c + c4 * d + c5 * e + c6 * f + c7 * g
        for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)
    ]


def _dense(t_step: float, y: Sequence[float], h: float, slopes, t: float) -> list[float]:
    """One step's interpolant at t: y + (t - t_step) sum_k c_k(x) k_k, x = (t - t_step)/h."""
    dt = t - t_step
    return [v + dt * s for v, s in zip(y, _stage_sum(slopes, dt / h, _P))]


def _crossed(ev: EventSpec, g_old: float, g_new: float) -> bool:
    """Whether the event function changed sign between two values, in ev's direction."""
    crossed = (g_old < 0.0 < g_new) or (g_new < 0.0 < g_old) or (g_new == 0.0 and g_old != 0.0)
    return crossed and not (ev.direction and math.copysign(1.0, g_new - g_old) != ev.direction)


def _locate_crossing(traj_dense, ev, t_lo, t_hi, g_lo, tol):
    """Bisect a sign change of an event function on dense output.

    Stops at the time tolerance, or earlier where no float lies between
    the ends (far from t = 0 one ulp can exceed the tolerance).
    """
    a, b = t_lo, t_hi
    sign_lo = g_lo > 0.0
    while abs(b - a) > tol and a != (mid := 0.5 * (a + b)) != b:
        g_mid = ev.fn(mid, traj_dense(mid))
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == sign_lo:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def integrate(
    rhs: Callable[[float, list], Sequence[float]],
    y0: Sequence[float],
    cfg: IntegratorConfig,
    events: Sequence[EventSpec] = (),
    until: Callable[[float, list], bool] | None = None,
) -> Trajectory:
    """Integrate y' = rhs(t, y) over cfg.t_span.

    The stepper works on Python floats: ``rhs(t, y)`` receives the state as
    a list of floats, which it must not modify, and returns a sequence of
    floats of the same length; event functions and ``until`` receive the
    same list.  Local error per step is held to abs_tol + rel_tol*|y|
    componentwise by the embedded pair; dense output between accepted nodes
    comes from the pair's interpolant over the step's stage slopes.
    Terminal events truncate the run; a step size collapsing near a
    singularity, or an initial state where the slope is undefined, ends it
    with termination ``step_size_underflow``.  The first accepted node
    where ``until(t, y)`` holds ends the run whole, with termination
    ``stopped``.
    """
    t0, tf = map(float, cfg.t_span)
    direction = 1.0 if tf > t0 else -1.0
    rel_tol, abs_tol, max_step = float(cfg.rel_tol), float(cfg.abs_tol), float(cfg.max_step)
    y = [float(v) for v in y0]
    dim = len(y)
    if not dim:
        raise ValueError("the initial state is empty")
    try:
        f = rhs(t0, y)
    except _RECOVERABLE:  # no slope at the initial state: the run ends before its first step
        f = [math.nan] * dim
    n_rhs = 1

    if cfg.first_step is not None:
        h_abs = abs(float(cfg.first_step))
    else:
        h_abs = _initial_step(rhs, t0, y, f, direction, rel_tol, abs_tol)
        n_rhs += 1

    ts = [t0]
    ys = [y]
    hs: list[float] = []
    slopes: list[tuple] = []  # the seven stage slopes of each accepted step
    found_events: list[Event] = []
    n_accepted = 0
    n_rejected = 0
    err_old = 1e-4
    just_rejected = False
    termination = "max_steps"

    g_vals = [ev.fn(t0, y) for ev in events]

    t = t0
    for _ in range(_MAX_STEPS):
        if direction * (tf - t) <= 0.0:
            termination = "completed"
            break
        h_abs = min(h_abs, max_step)
        if not h_abs >= _EPS16 * max(abs(t), 1.0):  # NaN too, from a non-finite initial slope
            termination = "step_size_underflow"
            log.info("step size underflow at t=%g", t)
            break
        is_last = h_abs >= abs(tf - t)
        if is_last:
            h_abs = abs(tf - t)
        h = h_abs * direction

        try:
            k1 = f
            k2 = rhs(t + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
            k3 = rhs(t + _C3 * h, [v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)])
            y4 = [v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)]
            k4 = rhs(t + _C4 * h, y4)
            y5 = [
                v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
            k5 = rhs(t + _C5 * h, y5)
            y6 = [
                v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ]
            k6 = rhs(t + h, y6)
            y_new = [
                v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = rhs(t + h, y_new)
            n_rhs += 6
        except _RECOVERABLE:
            n_rejected += 1
            n_rhs += 6
            h_abs *= 0.25
            just_rejected = True
            continue

        # a step into overflow gives an inf or NaN norm, which rejects the step;
        # the scale keeps a NaN of y_new, as max() would not
        total = 0.0
        for v, w, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            v, w = abs(v), abs(w)
            q = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
            q /= abs_tol + rel_tol * (v if v > w else w)
            total += q * q
        err = math.sqrt(total / dim)

        if err > 1.0 or not math.isfinite(err):
            n_rejected += 1
            if not math.isfinite(err):
                factor = _MIN_FACTOR
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err**-_EXPO)
            h_abs *= factor
            just_rejected = True
            continue

        # accepted
        t_new = tf if is_last else t + h
        ts.append(t_new)
        ys.append(y_new)
        hs.append(h)
        slopes.append((k1, k2, k3, k4, k5, k6, k7))
        n_accepted += 1

        # events on this step
        terminal_hit = None
        if events:
            dense = None
            step_hits = []
            for ei, ev in enumerate(events):
                g_old = g_vals[ei]
                g_new = ev.fn(t_new, y_new)
                g_vals[ei] = g_new
                if not _crossed(ev, g_old, g_new):
                    continue
                if dense is None:
                    dense = partial(_dense, t, y, h, slopes[-1])
                t_star = _locate_crossing(dense, ev, t, t_new, g_old, cfg.event_time_tol)
                step_hits.append((direction * t_star, ev, t_star))
            for _, ev, t_star in sorted(step_hits, key=lambda item: item[0]):
                y_star = dense(t_star)
                found_events.append(Event(ev.name, t_star, y_star))
                if ev.terminal:
                    terminal_hit = (ev, t_star, y_star)
                    break

        if terminal_hit is not None:
            ev, t_star, y_star = terminal_hit
            ts[-1] = t_star
            ys[-1] = y_star
            termination = f"event:{ev.name}"
            break
        if until is not None and until(t_new, y_new):
            termination = "stopped"
            break

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err**-_EXPO * err_old**_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if just_rejected:
            factor = min(1.0, factor)
            just_rejected = False
        h_abs = h_abs * factor
        err_old = max(err, 1e-4)
        t, y, f = t_new, y_new, k7

    return Trajectory(
        ts=ts, ys=ys, hs=hs, slopes=slopes,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        termination=termination,
        events=found_events,
    )


# ---------------------------------------------------------------------------
# System-aware wrappers
# ---------------------------------------------------------------------------

_R_FLOOR = 1e-8


def _polar_events(spec) -> list[EventSpec]:
    out = [
        EventSpec("turning_point", lambda t, y: y[3]),
        EventSpec("radial_collapse", lambda t, y: y[0] - _R_FLOOR, terminal=True, direction=-1),
    ]
    if not is_literal_zero(spec.F):
        out.append(
            EventSpec("sector_boundary", lambda t, y: math.sin(y[1]) * math.cos(y[1]))
        )
    if isinstance(spec, LinearizableSpec) and free_variables(spec.rho):
        # a constant scale factor cannot cross zero; only track genuine rho(t)
        out.append(
            EventSpec(
                "rho_zero",
                lambda t, y, _rho=spec.rho: evaluate(_rho, {"t": t}),
                terminal=True,
            )
        )
    return out


def _cartesian_events(spec: CartesianSpec) -> list[EventSpec]:
    if is_literal_zero(spec.f) and is_literal_zero(spec.g):
        return []
    # axis crossings are genuine singularities of the couplings
    return [
        EventSpec("axis_crossing_x", lambda t, y: y[0], terminal=True),
        EventSpec("axis_crossing_y", lambda t, y: y[1], terminal=True),
    ]


def integrate_polar(
    spec,
    state0: PolarState,
    cfg: IntegratorConfig,
    monitor: bool = True,
) -> Trajectory:
    """Integrate a polar-family spec from ``state0`` over ``cfg.t_span``."""
    rhs = polar_rhs_function(spec)
    if abs(state0.t - cfg.t_span[0]) > 1e-12 * (1.0 + abs(state0.t)):
        raise ValueError("initial state time must match the start of t_span")
    y0 = [state0.r, state0.theta, state0.rdot, state0.thetadot]
    traj = integrate(rhs, y0, cfg, events=_polar_events(spec))
    if monitor:
        monitor_invariant(traj, spec.V)
    return traj


def integrate_cartesian(
    spec: CartesianSpec, state0: CartesianState, cfg: IntegratorConfig
) -> Trajectory:
    if abs(state0.t - cfg.t_span[0]) > 1e-12 * (1.0 + abs(state0.t)):
        raise ValueError("initial state time must match the start of t_span")
    rhs = cartesian_rhs_function(spec)
    y0 = [state0.x, state0.y, state0.xdot, state0.ydot]
    return integrate(rhs, y0, cfg, events=_cartesian_events(spec))


def monitor_invariant(traj: Trajectory, V) -> DriftStats:
    """Relative drift of the conserved level along a polar trajectory, stored as ``traj.drift``."""
    series = [invariant_level(r, th, thd, V) for r, th, _, thd in traj.ys]
    ref = series[0]
    rel = [abs(v - ref) / (1.0 + abs(ref)) for v in series]
    rms = math.sqrt(exact_sum(q * q for q in rel) / len(rel))  # NaN if any is: max() would skip it
    max_rel = math.nan if math.isnan(rms) else max(rel)
    traj.drift = DriftStats(max_rel=max_rel, rms_rel=rms, reference=ref, series=series)
    return traj.drift

