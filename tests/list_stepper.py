"""The DP5(4) stepper written as loops over components, kept as a reference.

This is ``ermakov.integration.integrate`` and its dense output as they were
before each step became a straight-line function generated per state
dimension: every stage state, the fifth-order update, the error norm and the
interpolant are list comprehensions over ``zip``.  The generated step
performs the same float operations in the same order, so the two agree bit
for bit; ``test_integration.TestKernelAgainstListStepper`` holds them to it,
and holds the package's dense output, sampled on a grid or read at one time,
to this copy's bisection per time, and its inversion of a monotone column to
this copy's bisection and Newton solve per value.
The controller constants, the event helpers and the interpolant tables are the package's.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Sequence

from ermakov.integration import (
    _BETA, _DP, _EPS16, _EVENT_TIME_TOL, _EXPO, _MAX_FACTOR, _MAX_STEPS, _MIN_FACTOR, _P, _RECOVERABLE,
    _SAFETY,
    Event,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    _crossed,
    _locate_crossing,
)

# Dormand-Prince 5(4) tableau: nodes C, stage weights A, the fifth-order
# weights B and the error weights E = B - B* (stage 2's are zero and left out)
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


def reference_integrate(
    rhs: Callable[[float, list], Sequence[float]],
    y0: Sequence[float],
    cfg: IntegratorConfig,
    events: Sequence[EventSpec] = (),
    until: Callable[[float, list], bool] | None = None,
) -> Trajectory:
    """The stepper as it was before its per-dimension kernel: one list per stage."""
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
        t, y, f = t_new, y_new, k7

    return Trajectory(
        ts=ts, ys=ys, hs=hs, slopes=slopes,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        termination=termination,
        events=found_events,
    )


def reference_segment(traj: Trajectory, t: float) -> int:
    """The step Trajectory.at used to read: a window check, then one bisection per time."""
    ts = traj.ts
    increasing = ts[-1] >= ts[0]
    span = abs(ts[-1] - ts[0])
    lo, hi = (ts[0], ts[-1]) if increasing else (ts[-1], ts[0])
    if t < lo - 1e-9 * (1.0 + span) or t > hi + 1e-9 * (1.0 + span):
        raise ValueError(f"time {t!r} outside the covered window [{lo!r}, {hi!r}]")
    idx = bisect_right(ts, t) if increasing else bisect_right(ts, -t, key=lambda s: -s)
    return min(max(idx - 1, 0), len(traj.hs) - 1)  # -1: no accepted step


def reference_at(traj: Trajectory, t: float) -> list[float]:
    """Trajectory.at as it was: the step's interpolant through _dense."""
    i = reference_segment(traj, t)
    if i < 0:
        return list(traj.ys[0])
    return _dense(traj.ts[i], traj.ys[i], traj.hs[i], traj.slopes[i], float(t))


def reference_at_with_slope(traj: Trajectory, t: float) -> tuple[list[float], list[float]]:
    """The dense output and its slope in t at one time: _dense and the _DP stage sum."""
    t = float(t)
    i = reference_segment(traj, t)
    if i < 0:
        return list(traj.ys[0]), [math.nan] * len(traj.ys[0])
    t_i, h, slopes = traj.ts[i], traj.hs[i], traj.slopes[i]
    return _dense(t_i, traj.ys[i], h, slopes, t), _stage_sum(slopes, (t - t_i) / h, _DP)


def reference_invert(traj: Trajectory, column: int, v: float) -> list[float]:
    """The state where a column strictly monotone along the run reaches v, one value at a time:
    a range check, the step ending at or past v by one keyed bisection of the column (a copy of
    the first node at its value), then Newton's method on reference_at_with_slope, with the
    interpolant's exact slope, or bisection."""
    v = float(v)
    ts, ys = traj.ts, traj.ys
    first, end = ys[0][column], ys[-1][column]
    sign = 1.0 if end >= first else -1.0
    if not sign * first <= sign * v <= sign * end:
        raise ValueError(f"value {v!r} outside column {column}'s run from {first!r} to {end!r}")
    i = bisect_left(ys, sign * v, key=lambda y: sign * y[column])
    if i == 0:
        return list(ys[0])
    v_prev, v_next = ys[i - 1][column], ys[i][column]
    x_prev, x_next = ts[i - 1], ts[i]
    rise = 1.0 if (v_next > v_prev) == (x_next > x_prev) else -1.0  # the column's direction in t
    x = x_prev + (x_next - x_prev) * (v - v_prev) / (v_next - v_prev)
    a, b = min(x_prev, x_next), max(x_prev, x_next)
    for _ in range(100):
        value, slope = reference_at_with_slope(traj, x)
        f, slope = rise * (value[column] - v), rise * slope[column]
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
