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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expressions import EvaluationError, evaluate, free_variables, is_literal_zero
from .invariant import ForbiddenRegionError, TurningPointError
from .systems import (
    CartesianSpec,
    CartesianState,
    LinearizableSpec,
    PolarSpec,
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
    "detect_events",
    "integrate",
    "integrate_cartesian",
    "integrate_polar",
    "monitor_invariant",
]

log = logging.getLogger(__name__)

# Errors that mean "this trial step wandered somewhere the model is not
# defined"; the controller backs off rather than giving up.
_RECOVERABLE = (EvaluationError, ForbiddenRegionError, TurningPointError, ZeroDivisionError)

# Dormand-Prince 5(4) tableau with the quartic dense-output map.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MAX_STEPS = 500_000
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
    fn: Callable[[float, np.ndarray], float]
    terminal: bool = False
    direction: int = 0  # +1 upward crossings, -1 downward, 0 both


@dataclass(frozen=True)
class Event:
    name: str
    t: float
    y: np.ndarray


@dataclass(frozen=True)
class DriftStats:
    """Relative drift of a conserved quantity along a trajectory."""

    max_rel: float
    rms_rel: float
    reference: float
    series: np.ndarray


@dataclass
class Trajectory:
    """Accepted samples plus the per-step interpolant between them."""

    ts: np.ndarray  # (m,) node times, strictly monotone
    ys: np.ndarray  # (m, dim)
    hs: np.ndarray  # (m-1,) interpolation step widths (signed)
    qs: np.ndarray  # (m-1, dim, 4) dense-output coefficients
    n_accepted: int
    n_rejected: int
    n_rhs: int
    termination: str  # "completed" | "event:<name>" | "step_size_underflow" | "max_steps"
    events: list[Event] = field(default_factory=list)
    coords: str = "generic"
    drift: DriftStats | None = None

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def _segment(self, t: float) -> int:
        ts = self.ts
        increasing = ts[-1] >= ts[0]
        span = abs(ts[-1] - ts[0])
        lo, hi = (ts[0], ts[-1]) if increasing else (ts[-1], ts[0])
        if t < lo - 1e-9 * (1.0 + span) or t > hi + 1e-9 * (1.0 + span):
            raise ValueError(f"time {t!r} outside the covered window [{lo!r}, {hi!r}]")
        if increasing:
            idx = int(np.searchsorted(ts, t, side="right")) - 1
        else:
            idx = int(np.searchsorted(-ts, -t, side="right")) - 1
        return min(max(idx, 0), len(self.hs) - 1)  # -1: no accepted step

    def at(self, t: float) -> np.ndarray:
        """Dense-output state at an arbitrary time inside the covered window."""
        i = self._segment(float(t))
        if i < 0:
            return self.ys[0].copy()
        x = (float(t) - self.ts[i]) / self.hs[i]
        p = np.array([x, x * x, x**3, x**4])
        return self.ys[i] + self.hs[i] * (self.qs[i] @ p)

    def at_with_slope(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dense-output state and its derivative in t, from the same step's interpolant.

        A run with no accepted step has no interpolant: its slope is NaN.
        """
        i = self._segment(float(t))
        if i < 0:
            return self.ys[0].copy(), np.full(self.dim, math.nan)
        x = (float(t) - self.ts[i]) / self.hs[i]
        q = self.qs[i]
        value = self.ys[i] + self.hs[i] * (q @ np.array([x, x * x, x**3, x**4]))
        return value, q @ np.array([1.0, 2.0 * x, 3.0 * x * x, 4.0 * x**3])

    def sample(self, times: Sequence[float]) -> np.ndarray:
        return np.array([self.at(t) for t in times])

    def polar_states(self) -> list[PolarState]:
        if self.coords != "polar":
            raise ValueError("trajectory does not hold polar states")
        return [
            PolarState(r=row[0], theta=row[1], rdot=row[2], thetadot=row[3], t=t)
            for t, row in zip(self.ts, self.ys)
        ]

    def cartesian_states(self) -> list[CartesianState]:
        if self.coords != "cartesian":
            raise ValueError("trajectory does not hold cartesian states")
        return [
            CartesianState(x=row[0], y=row[1], xdot=row[2], ydot=row[3], t=t)
            for t, row in zip(self.ts, self.ys)
        ]


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v))) if v.size else 0.0


@np.errstate(over="ignore", invalid="ignore")  # the step logic below handles inf and NaN norms
def _initial_step(rhs, t0, y0, f0, direction, rel_tol, abs_tol):
    """Curvature-based first-step heuristic."""
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = rhs(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = _rms((f1 - f0) / scale) / h0
    except _RECOVERABLE:
        return h0 * 1e-3
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _crossed(ev: EventSpec, g_old: float, g_new: float) -> bool:
    """Whether the event function changed sign between two values, in ev's direction."""
    crossed = (g_old < 0.0 < g_new) or (g_new < 0.0 < g_old) or (g_new == 0.0 and g_old != 0.0)
    return crossed and not (ev.direction and math.copysign(1.0, g_new - g_old) != ev.direction)


def _locate_crossing(traj_dense, ev, t_lo, t_hi, g_lo, tol):
    """Bisect a sign change of an event function on dense output."""
    a, b = t_lo, t_hi
    sign_lo = g_lo > 0.0
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        g_mid = ev.fn(mid, traj_dense(mid))
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == sign_lo:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    cfg: IntegratorConfig,
    events: Sequence[EventSpec] = (),
) -> Trajectory:
    """Integrate y' = rhs(t, y) over cfg.t_span.

    Local error per step is held to abs_tol + rel_tol*|y| componentwise by
    the embedded pair; dense output between accepted nodes comes from the
    pair's interpolant.  Terminal events truncate the run; a step size
    collapsing near a singularity ends it with termination
    ``step_size_underflow``.
    """
    t0, tf = cfg.t_span
    direction = 1.0 if tf > t0 else -1.0
    y = np.asarray(y0, dtype=float).copy()
    dim = y.size
    try:
        f = rhs(t0, y)  # other errors at the initial state propagate
    except ZeroDivisionError:  # an infinite slope: the run ends before its first step
        f = np.full(dim, math.nan)
    n_rhs = 1

    if cfg.first_step is not None:
        h_abs = abs(cfg.first_step)
    else:
        h_abs = _initial_step(rhs, t0, y, f, direction, cfg.rel_tol, cfg.abs_tol)
        n_rhs += 1
    h_abs = min(h_abs, cfg.max_step, abs(tf - t0))

    ts = [t0]
    ys = [y.copy()]
    hs: list[float] = []
    qs: list[np.ndarray] = []
    found_events: list[Event] = []
    n_accepted = 0
    n_rejected = 0
    err_old = 1e-4
    just_rejected = False
    termination = "max_steps"

    g_vals = [ev.fn(t0, y) for ev in events]

    t = t0
    K = np.empty((7, dim))
    for _ in range(_MAX_STEPS):
        if direction * (tf - t) <= 0.0:
            termination = "completed"
            break
        h_abs = min(h_abs, cfg.max_step)
        floor = 16.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if not h_abs >= floor:  # NaN too, from a non-finite initial slope
            termination = "step_size_underflow"
            log.info("step size underflow at t=%g", t)
            break
        is_last = h_abs >= abs(tf - t)
        if is_last:
            h_abs = abs(tf - t)
        h = h_abs * direction

        try:
            K[0] = f
            for i in range(1, 6):
                yi = y + h * (K[:i].T @ _A[i])
                K[i] = rhs(t + _C[i] * h, yi)
            y_new = y + h * (K[:6].T @ _B)
            f_new = rhs(t + h, y_new)
            K[6] = f_new
            n_rhs += 6
        except _RECOVERABLE:
            n_rejected += 1
            n_rhs += 6
            h_abs *= 0.25
            just_rejected = True
            continue

        # a step into overflow gives a non-finite norm, which rejects the step
        with np.errstate(over="ignore", invalid="ignore"):
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms((h * (K.T @ _E)) / scale)

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
        q = K.T @ _P  # (dim, 4)
        ts.append(t_new)
        ys.append(y_new.copy())
        hs.append(h)
        qs.append(q)
        n_accepted += 1

        # events on this step
        terminal_hit = None
        if events:
            def dense(tt, _y=y, _h=h, _q=q, _t=t):
                x = (tt - _t) / _h
                return _y + _h * (_q @ np.array([x, x * x, x**3, x**4]))

            step_hits = []
            for ei, ev in enumerate(events):
                g_old = g_vals[ei]
                g_new = ev.fn(t_new, y_new)
                g_vals[ei] = g_new
                if not _crossed(ev, g_old, g_new):
                    continue
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
        t, y, f = t_new, y_new, f_new

    return Trajectory(
        ts=np.array(ts),
        ys=np.array(ys),
        hs=np.array(hs) if hs else np.zeros(0),
        qs=np.array(qs) if qs else np.zeros((0, dim, 4)),
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
    if not isinstance(spec, (PolarSpec, LinearizableSpec)):
        raise TypeError(f"not a polar-family spec: {type(spec).__name__}")
    if abs(state0.t - cfg.t_span[0]) > 1e-12 * (1.0 + abs(state0.t)):
        raise ValueError("initial state time must match the start of t_span")
    rhs = polar_rhs_function(spec)
    y0 = [state0.r, state0.theta, state0.rdot, state0.thetadot]
    traj = integrate(rhs, y0, cfg, events=_polar_events(spec))
    traj.coords = "polar"
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
    traj = integrate(rhs, y0, cfg, events=_cartesian_events(spec))
    traj.coords = "cartesian"
    return traj


def monitor_invariant(traj: Trajectory, V, attach: bool = True) -> DriftStats:
    """Relative drift of the conserved level along a polar trajectory."""
    series = np.array(
        [
            0.5 * (row[0] * row[0] * row[3]) ** 2 + evaluate(V, {"theta": row[1]})
            for row in traj.ys
        ]
    )
    ref = series[0]
    rel = np.abs(series - ref) / (1.0 + abs(ref))
    stats = DriftStats(
        max_rel=float(np.max(rel)),
        rms_rel=float(np.sqrt(np.mean(rel * rel))),
        reference=float(ref),
        series=series,
    )
    if attach:
        traj.drift = stats
    return stats


def detect_events(traj: Trajectory, events: Sequence[EventSpec], time_tol: float = 1e-10) -> list[Event]:
    """Scan a finished trajectory for sign changes of the event functions.

    Crossings are located by bisection on the dense output to ``time_tol``
    and listed in the order the run reaches them.
    """
    direction = 1.0 if traj.t_end >= traj.t0 else -1.0
    found: list[Event] = []
    for ev in events:
        g_prev = ev.fn(traj.ts[0], traj.ys[0])
        for i in range(1, len(traj.ts)):
            g_new = ev.fn(traj.ts[i], traj.ys[i])
            if _crossed(ev, g_prev, g_new):
                t_star = _locate_crossing(
                    traj.at, ev, float(traj.ts[i - 1]), float(traj.ts[i]), g_prev, time_tol
                )
                found.append(Event(ev.name, t_star, traj.at(t_star)))
            g_prev = g_new
    found.sort(key=lambda e: direction * e.t)
    return found
