"""Adaptive Runge-Kutta integration with dense output and event detection.

The stepper is an embedded Dormand-Prince 5(4) pair with a
proportional-integral step-size controller and the pair's free quartic
interpolant.  It is the ground truth against which the linearization
pipeline is validated, so it favors robustness: domain failures inside a
trial step reject the step instead of aborting the run, and terminal
events truncate the trajectory with a labelled termination reason.  A
``Trajectory`` answers a grid of times (``sample``; ``at`` is a grid of one),
or inverts a monotone column at a grid of values (``invert``), in one ordered
pass over its steps, each point from the step and the float operations that
answer it alone, whatever the other points and their order.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from functools import cache, partial
from typing import Callable, Sequence

from .expressions import EvaluationError, _Frozen, evaluate, free_variables, is_literal_zero
from .invariant import TurningPointError, invariant_level
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


# Errors that mean "this trial step wandered somewhere the model is not
# defined"; the controller backs off rather than giving up.
_RECOVERABLE = (EvaluationError, TurningPointError, ZeroDivisionError)

# Dormand-Prince 5(4) tableau.  Row k of _A holds stage k + 2's node and its weights
# of stages 1, 2, ...; _B the fifth-order weights and _E the error weights E = B - B*
# of the stages each names (stage 2's are zero).  Row k of _P holds the interpolant
# weight b(x) = x (p1 + p2 x + p3 x^2 + p4 x^3) of stage _E[0][k]; _DP, b'(x).
_A = (
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
)
_B = ((1, 3, 4, 5, 6), (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = ((1, 3, 4, 5, 6, 7), (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))
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
_EVENT_TIME_TOL = 1e-10  # an event's time is bisected to within this


class IntegratorConfig(_Frozen):
    """Tolerances and limits for one integration run."""

    _fields = ("t_span", "rel_tol", "abs_tol", "max_step", "first_step")

    def __init__(
        self,
        t_span: tuple[float, float],
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-12,
        max_step: float = math.inf,
        first_step: float | None = None,
    ):
        t0, tf = t_span
        if not (math.isfinite(t0) and math.isfinite(tf)) or t0 == tf:
            raise ValueError(f"t_span must be a nondegenerate finite interval, got {t_span}")
        if not (rel_tol > 0.0 and abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not max_step > 0.0:
            raise ValueError("max_step must be positive")
        self.__dict__.update(t_span=t_span, rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step,
                             first_step=first_step)


class EventSpec:
    """Scalar function of (t, y) whose sign changes are located and reported.

    ``direction`` +1 takes upward crossings only, -1 downward ones, 0 both.
    """

    def __init__(self, name: str, fn: Callable[[float, Sequence[float]], float], terminal=False, direction=0):
        self.name, self.fn, self.terminal, self.direction = name, fn, terminal, direction


class Event:
    def __init__(self, name: str, t: float, y: list[float]):
        self.name, self.t, self.y = name, t, y


class DriftStats:
    """Relative drift of a conserved quantity along a trajectory."""

    def __init__(self, max_rel: float, rms_rel: float, reference: float):
        self.max_rel, self.rms_rel, self.reference = max_rel, rms_rel, reference


class Trajectory:
    """Accepted samples plus the per-step interpolant between them."""

    def __init__(self, ts, ys, hs, slopes, n_accepted: int, n_rejected: int, n_rhs: int, termination: str,
                 events: list[Event] | None = None):
        self.ts: list[float] = ts  # m node times, strictly monotone
        self.ys: list[list[float]] = ys  # m states of dim floats
        self.hs: list[float] = hs  # m-1 signed step widths
        self.slopes: list[tuple] = slopes  # m-1 steps' seven stage slopes, each dim floats
        self.n_accepted, self.n_rejected, self.n_rhs = n_accepted, n_rejected, n_rhs
        self.termination = termination  # completed | stopped | event:<name> | step_size_underflow | max_steps
        self.events = [] if events is None else events

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    def at(self, t: float) -> list[float]:
        """Dense-output state at an arbitrary time inside the covered window."""
        return self.sample((t,))[0]

    def sample(self, times: Sequence[float]) -> list[list[float]]:
        """Dense-output states at times of the window, in the caller's order, from one pass
        over the times sorted in the run's direction: the first one's step is found by
        bisection, each later one's by moving forward.  A time on a node takes the step that
        starts there, one past the last node the last step: no state depends on the others.
        Raises ValueError naming the first time outside the window."""
        times = list(times)  # any iterable, read twice
        ts, ys, hs, slopes = self.ts, self.ys, self.hs, self.slopes
        lo, hi, slack = min(ts[0], ts[-1]), max(ts[0], ts[-1]), 1e-9 * (1.0 + abs(ts[-1] - ts[0]))
        for t in times:
            if not lo - slack <= t <= hi + slack:  # NaN too
                raise ValueError(f"time {t!r} outside the covered window [{lo!r}, {hi!r}]")
        xs = [float(t) for t in times]
        if not (hs and xs):
            return [list(ys[0]) for _ in xs]
        sign, last = 1.0 if ts[-1] >= ts[0] else -1.0, len(hs) - 1
        keys = [sign * x for x in xs]
        order = sorted(range(len(xs)), key=keys.__getitem__)
        i = min(max(bisect_right(ts, keys[order[0]], key=lambda s: sign * s) - 1, 0), last)
        out = [None] * len(xs)
        for j in order:
            while i < last and not keys[j] < sign * ts[i + 1]:
                i += 1
            out[j] = _dense(ts[i], ys[i], hs[i], slopes[i], xs[j])
        return out

    def invert(self, column: int, values: Sequence[float]) -> list[list[float]]:
        """States where a column strictly monotone along the run reaches values, in the caller's
        order, from one pass over them sorted along the column, as ``sample``'s.  A value on a
        node is solved on the step ending there; the first node's is a copy of that node.
        Raises ValueError naming the first value outside the column's range."""
        xs, ys = [float(v) for v in values], self.ys
        first, end = ys[0][column], ys[-1][column]
        sign = 1.0 if end >= first else -1.0  # the column's direction along the nodes
        for v in xs:
            if not sign * first <= sign * v <= sign * end:  # NaN too
                raise ValueError(f"value {v!r} outside column {column}'s run from {first!r} to {end!r}")
        keys = [sign * v for v in xs]
        order = sorted(range(len(xs)), key=keys.__getitem__)
        i = bisect_left(ys, keys[order[0]], key=lambda y: sign * y[column]) if xs else 0
        out = [None] * len(xs)
        for j in order:
            while sign * ys[i][column] < keys[j]:
                i += 1
            out[j] = self._root(column, i, xs[j]) if i else list(ys[0])
        return out

    def _root(self, column: int, i: int, v: float) -> list[float]:
        """The state where the column reaches v between nodes i - 1 and i: Newton's method on the
        step's interpolant, or bisection.  An iterate on or past node i reads step i, if any."""
        ts, ys, hs, slopes = self.ts, self.ys, self.hs, self.slopes
        v_prev, v_next = ys[i - 1][column], ys[i][column]
        x_prev, x_next = ts[i - 1], ts[i]
        x = x_prev + (x_next - x_prev) * (v - v_prev) / (v_next - v_prev)
        a, b = min(x_prev, x_next), max(x_prev, x_next)
        forward, on_next = x_next > x_prev, i < len(hs)
        rise = 1.0 if (v_next > v_prev) == forward else -1.0  # the column's direction in the variable
        for _ in range(100):
            k = i if on_next and (x >= x_next if forward else x <= x_next) else i - 1
            t_k, h, stages = ts[k], hs[k], slopes[k]
            value = _dense(t_k, ys[k], h, stages, x)
            f, slope = rise * (value[column] - v), rise * _stage_sum(stages, (x - t_k) / h, _DP)[column]
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


def _scaled_rms(v: Sequence[float], scale: Sequence[float]) -> float:
    """sqrt(mean((v/scale)**2)); an overflow gives inf or NaN, never an error."""
    total = 0.0
    for vi, si in zip(v, scale):
        q = vi / si
        total += q * q
    return math.sqrt(total / len(scale))


def _check_slopes(dim: int, scope: dict) -> None:
    """Raise ValueError, naming both lengths, where a stage k1 ... k7 in scope is not dim long."""
    for k in (scope[f"k{s}"] for s in range(1, 8) if f"k{s}" in scope):
        if len(k) != dim:
            raise ValueError(f"rhs returned {len(k)} slopes for a state of {dim} components") from None


def _initial_step(rhs, t0, y0, f0, direction, rel_tol, abs_tol):
    """Curvature-based first-step heuristic."""
    scale = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _scaled_rms(y0, scale)
    d1 = _scaled_rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = rhs(t0 + h0 * direction, [v + h0 * direction * fv for v, fv in zip(y0, f0)])
        _check_slopes(len(y0), {"k2": f1})
        d2 = _scaled_rms([b - a for a, b in zip(f0, f1)], scale) / h0
    except _RECOVERABLE:
        return h0 * 1e-3
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


@cache
def _kernel(dim: int) -> Callable:
    """``step(rhs, t, h, y, k1, abs_tol, rel_tol)``: one trial step of ``dim`` floats from y, the
    slope there k1, as straight-line code.  Component i of stage k is the local ``k{k}_{i}``; each
    sum adds the tableau's products left to right, as a loop over components would."""

    def unpack(name: str) -> str:
        return "".join(f"{name}_{i}, " for i in range(dim)) + f"= {name}"

    def terms(stages, weights, i: int) -> str:  # w_1 * k_1 + w_2 * k_2 + ... at component i
        return " + ".join(f"{w!r} * k{k}_{i}" for k, w in zip(stages, weights))

    def sums(stages, weights) -> str:
        return "[" + ", ".join(f"y_{i} + h * ({terms(stages, weights, i)})" for i in range(dim)) + "]"

    body = [unpack("y"), unpack("k1")]
    for k, (c, weights) in enumerate(_A, 2):
        body += [f"k{k} = rhs(t + {c!r} * h, {sums(range(1, k), weights)})", unpack(f"k{k}")]
    body += [f"y_new = {sums(*_B)}", unpack("y_new"), "k7 = rhs(t + h, y_new)", unpack("k7"), "total = 0.0"]
    for i in range(dim):  # an inf or NaN norm rejects the step; the scale keeps a NaN of y_new
        body += [f"v, w = abs(y_{i}), abs(y_new_{i})",
                 f"q = h * ({terms(*_E, i)}) / (abs_tol + rel_tol * (v if v > w else w))",
                 "total += q * q"]
    body.append(f"return y_new, (k1, k2, k3, k4, k5, k6, k7), _sqrt(total / {dim})")
    lines = ["try:", *(f"    {line}" for line in body), "except ValueError:  # a stage's length, or rhs's own",
             f"    _check_slopes({dim}, locals())", "    raise"]
    source = "def step(rhs, t, h, y, k1, abs_tol, rel_tol):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"_check_slopes": _check_slopes, "_sqrt": math.sqrt}
    exec(compile(source, f"<DP5 step, dim {dim}>", "exec"), namespace)
    return namespace["step"]


def _stage_sum(slopes, x: float, table, y: Sequence[float] | None = None, dt: float = 0.0) -> list[float]:
    """sum_k c_k(x) k_k per component, or y + dt sum_k c_k(x) k_k given y; table row k: c_k's
    coefficients, lowest power first.  All dense output and its slope are computed here."""
    c1, c3, c4, c5, c6, c7 = [p1 + x * (p2 + x * (p3 + x * p4)) for p1, p2, p3, p4 in table]
    k1, _, k3, k4, k5, k6, k7 = slopes
    if y is None:
        return [
            c1 * a + c3 * c + c4 * d + c5 * e + c6 * f + c7 * g
            for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)
        ]
    return [
        v + dt * (c1 * a + c3 * c + c4 * d + c5 * e + c6 * f + c7 * g)
        for v, a, c, d, e, f, g in zip(y, k1, k3, k4, k5, k6, k7)
    ]


def _dense(t_step: float, y: Sequence[float], h: float, slopes, t: float) -> list[float]:
    """One step's interpolant at t: y + (t - t_step) sum_k c_k(x) k_k, x = (t - t_step)/h."""
    dt = t - t_step
    return _stage_sum(slopes, dt / h, _P, y, dt)


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

    The stepper works on Python floats: ``rhs(t, y)`` receives the state as a
    list of floats, which it must not modify, and returns a sequence of floats
    of the same length (another length raises ValueError); event functions and
    ``until`` receive the same list.  Local error per step is held to abs_tol +
    rel_tol*|y| componentwise by the embedded pair; dense output between accepted
    nodes comes from the pair's interpolant over the step's stage slopes.
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
    _check_slopes(dim, {"k1": f})
    n_rhs = 1
    step = _kernel(dim)

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
            break
        is_last = h_abs >= abs(tf - t)
        if is_last:
            h_abs = abs(tf - t)
        h = h_abs * direction

        n_rhs += 6
        try:
            y_new, stages, err = step(rhs, t, h, y, f, abs_tol, rel_tol)
        except _RECOVERABLE:
            n_rejected += 1
            h_abs *= 0.25
            just_rejected = True
            continue

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
        slopes.append(stages)
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
                    dense = partial(_dense, t, y, h, stages)
                t_star = _locate_crossing(dense, ev, t, t_new, g_old, _EVENT_TIME_TOL)
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
        t, y, f = t_new, y_new, stages[6]

    return Trajectory(ts, ys, hs, slopes, n_accepted, n_rejected, n_rhs, termination, found_events)


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
        out.append(EventSpec("sector_boundary", lambda t, y: math.sin(y[1]) * math.cos(y[1])))
    if isinstance(spec, LinearizableSpec) and free_variables(spec.rho):
        # a constant scale factor cannot cross zero; only track genuine rho(t)
        out.append(EventSpec("rho_zero", lambda t, y, _rho=spec.rho: evaluate(_rho, {"t": t}), terminal=True))
    return out


def _cartesian_events(spec: CartesianSpec) -> list[EventSpec]:
    if is_literal_zero(spec.f) and is_literal_zero(spec.g):
        return []
    # axis crossings are genuine singularities of the couplings
    return [
        EventSpec("axis_crossing_x", lambda t, y: y[0], terminal=True),
        EventSpec("axis_crossing_y", lambda t, y: y[1], terminal=True),
    ]


def integrate_polar(spec, state0: PolarState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a polar-family spec from ``state0`` over ``cfg.t_span``."""
    rhs = polar_rhs_function(spec)
    if abs(state0.t - cfg.t_span[0]) > 1e-12 * (1.0 + abs(state0.t)):
        raise ValueError("initial state time must match the start of t_span")
    y0 = [state0.r, state0.theta, state0.rdot, state0.thetadot]
    return integrate(rhs, y0, cfg, events=_polar_events(spec))


def integrate_cartesian(spec: CartesianSpec, state0: CartesianState, cfg: IntegratorConfig) -> Trajectory:
    if abs(state0.t - cfg.t_span[0]) > 1e-12 * (1.0 + abs(state0.t)):
        raise ValueError("initial state time must match the start of t_span")
    rhs = cartesian_rhs_function(spec)
    y0 = [state0.x, state0.y, state0.xdot, state0.ydot]
    return integrate(rhs, y0, cfg, events=_cartesian_events(spec))


def monitor_invariant(traj: Trajectory, V) -> DriftStats:
    """Relative drift of the conserved level over a polar trajectory's nodes.

    Raises the ValueError of the first node where ``V`` has no value.
    """
    series = [invariant_level(r, th, thd, V) for r, th, _, thd in traj.ys]
    ref = series[0]
    rel = [abs(v - ref) / (1.0 + abs(ref)) for v in series]
    rms = math.sqrt(exact_sum(q * q for q in rel) / len(rel))  # NaN if any is: max() would skip it
    return DriftStats(max_rel=math.nan if math.isnan(rms) else max(rel), rms_rel=rms, reference=ref)

