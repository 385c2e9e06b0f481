import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ermakov as ek
from ermakov import integration, linearize
from ermakov.integration import (
    _DP,
    _RECOVERABLE,
    Event,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    _crossed,
    _locate_crossing,
    _polar_events,
    _stage_sum,
    integrate,
    monitor_invariant,
)
from ermakov.systems import cartesian_rhs_function, polar_rhs_function
import list_stepper


OSCILLATOR = ek.CartesianSpec(f="0", g="0", omega_sq="1")
OSC_STATE = ek.CartesianState(1.0, 0.0, 0.0, 1.0)


def _oscillator_exact(t):
    return np.array([math.cos(t), math.sin(t), -math.sin(t), math.cos(t)])


class TestAccuracy:
    def test_oscillator_closed_form(self):
        cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi))
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        assert traj.termination == "completed"
        err = max(
            float(np.max(np.abs(traj.at(t) - _oscillator_exact(t))))
            for t in np.linspace(0.0, 2.0 * math.pi, 50)
        )
        assert err <= 1e-8

    def test_free_motion_is_exact(self):
        spec = ek.CartesianSpec(f="0", g="0", omega_sq="0")
        cfg = IntegratorConfig(t_span=(0.0, 3.0))
        traj = ek.integrate_cartesian(spec, ek.CartesianState(0.5, 1.0, 0.3, -0.2), cfg)
        for t in np.linspace(0.0, 3.0, 7):
            y = traj.at(t)
            assert y[0] == pytest.approx(0.5 + 0.3 * t, abs=1e-12)
            assert y[1] == pytest.approx(1.0 - 0.2 * t, abs=1e-12)

    def test_kepler_circular_orbit(self):
        spec = ek.kepler_ermakov_system(F="0", G="1", V="0")
        cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi))
        traj = ek.integrate_polar(spec, ek.PolarState(1.0, 0.0, 0.0, 1.0), cfg)
        rs = np.asarray(traj.ys)[:, 0]
        assert float(np.max(np.abs(rs - 1.0))) <= 1e-8

    def test_backward_integration(self):
        cfg = IntegratorConfig(t_span=(0.0, -math.pi))
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        assert traj.termination == "completed"
        end = traj.at(-math.pi)
        assert end[0] == pytest.approx(-1.0, abs=1e-9)
        assert end[1] == pytest.approx(0.0, abs=1e-9)

    def test_dense_output_within_ten_local_tolerances(self):
        rtol, atol = 1e-9, 1e-12
        cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi), rel_tol=rtol, abs_tol=atol)
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        for i in range(len(traj.hs)):
            t_mid = float(traj.ts[i]) + 0.5 * float(traj.hs[i])
            y_mid = traj.at(t_mid)
            exact_mid = _oscillator_exact(t_mid)
            node_err = max(
                float(np.max(np.abs(traj.ys[i] - _oscillator_exact(traj.ts[i])))),
                float(np.max(np.abs(traj.ys[i + 1] - _oscillator_exact(traj.ts[i + 1])))),
            )
            budget = node_err + 10.0 * (atol + rtol * float(np.max(np.abs(y_mid))))
            assert float(np.max(np.abs(y_mid - exact_mid))) <= budget

    def test_convergence_slope_at_least_three_point_five(self):
        T = 2.0 * math.pi
        ref = ek.integrate_cartesian(
            OSCILLATOR, OSC_STATE, IntegratorConfig(t_span=(0.0, T), rel_tol=1e-12, abs_tol=1e-14)
        ).ys[-1]
        ref = np.asarray(ref)
        logs_h, logs_e = [], []
        for k in range(11):
            rtol = 1e-5 * 2.0**-k
            traj = ek.integrate_cartesian(
                OSCILLATOR,
                OSC_STATE,
                IntegratorConfig(t_span=(0.0, T), rel_tol=rtol, abs_tol=rtol * 1e-3),
            )
            err = float(np.max(np.abs(traj.ys[-1] - ref)))
            if err > 1e-12:
                logs_h.append(math.log(T / traj.n_accepted))
                logs_e.append(math.log(err))
        assert len(logs_h) >= 5
        slope = float(np.polyfit(logs_h, logs_e, 1)[0])
        assert slope >= 3.5


def _with_states(traj: Trajectory, ys) -> Trajectory:
    """The same run with other node states."""
    return Trajectory(traj.ts, ys, traj.hs, traj.slopes, traj.n_accepted, traj.n_rejected, traj.n_rhs,
                      traj.termination, traj.events, traj.drift)


class TestDriftMonitor:
    def test_winternitz_default_drift(self, winternitz_trajectory):
        assert winternitz_trajectory.drift.max_rel <= 1e-6

    def test_near_zero_on_circular_orbit(self):
        spec = ek.PolarSpec(F="0", V="0", omega_sq="1")
        traj = ek.integrate_polar(
            spec, ek.PolarState(1.0, 0.0, 0.0, 1.0), IntegratorConfig(t_span=(0.0, 6.0))
        )
        assert traj.drift.max_rel <= 1e-12

    def test_detects_corrupted_sample(self, winternitz_spec, winternitz_trajectory):
        ys = [list(y) for y in winternitz_trajectory.ys]
        ys[len(ys) // 2][0] += 1e-3
        corrupted = _with_states(winternitz_trajectory, ys)
        stats = monitor_invariant(corrupted, winternitz_spec.V)
        assert stats.max_rel >= 1e-4

    def test_nan_level_mid_series_makes_the_drift_nan(self, winternitz_spec, winternitz_trajectory):
        # a NaN radius gives a NaN level; max() alone would skip it past the first node
        ys = [list(y) for y in winternitz_trajectory.ys]
        ys[len(ys) // 2][0] = math.nan
        corrupted = _with_states(winternitz_trajectory, ys)
        stats = monitor_invariant(corrupted, winternitz_spec.V)
        assert math.isnan(stats.series[len(ys) // 2])
        assert math.isnan(stats.max_rel) and math.isnan(stats.rms_rel)


class TestEvents:
    def test_circular_orbit_has_no_events(self):
        spec = ek.PolarSpec(F="0", V="0", omega_sq="1")
        traj = ek.integrate_polar(
            spec, ek.PolarState(1.0, 0.1, 0.0, 1.0), IntegratorConfig(t_span=(0.0, 6.0))
        )
        assert traj.events == []

    def test_turning_points_located_on_potential_level(self):
        # librating angle: thetadot flips sign where the level meets the potential
        params = ek.WinternitzParams(1.0, 1.0, 0.0, 0.2)
        spec = ek.winternitz_system(params)
        s0 = ek.PolarState(1.0, math.pi / 2, 0.0, 0.8)
        traj = ek.integrate_polar(spec, s0, IntegratorConfig(t_span=(0.0, 6.0)))
        level = traj.drift.reference
        turnings = [e for e in traj.events if e.name == "turning_point"]
        assert turnings
        for e in turnings:
            v = ek.evaluate(spec.V, {"theta": float(e.y[1])})
            assert abs(v - level) <= 1e-8 * (1.0 + abs(level))

    def test_radial_plunge_terminates(self):
        # purely radial fall toward the center ends the run near r = 0
        spec = ek.kepler_ermakov_system(F="0", G="1", V="0")
        traj = ek.integrate_polar(
            spec, ek.PolarState(1.0, 0.3, -0.5, 0.0), IntegratorConfig(t_span=(0.0, 10.0))
        )
        assert traj.termination in ("event:radial_collapse", "step_size_underflow")
        assert traj.t_end < 10.0

    def test_axis_crossing_aborts_cartesian(self):
        spec = ek.CartesianSpec(f="u", g="0", omega_sq="0")
        # y moves ballistically through zero; the run must stop at the axis
        traj = ek.integrate_cartesian(
            spec, ek.CartesianState(1.0, 1.0, 0.0, -1.0), IntegratorConfig(t_span=(0.0, 5.0))
        )
        assert traj.termination == "event:axis_crossing_y"
        assert traj.t_end == pytest.approx(1.0, abs=1e-6)

    def test_events_located_in_the_run(self):
        cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi))
        rhs = cartesian_rhs_function(OSCILLATOR)
        traj = integrate(rhs, [1.0, 0.0, 0.0, 1.0], cfg, [EventSpec("x_zero", lambda t, y: y[0])])
        hits = traj.events
        assert len(hits) == 2
        assert hits[0].t == pytest.approx(math.pi / 2, abs=1e-9)
        assert hits[1].t == pytest.approx(3.0 * math.pi / 2, abs=1e-9)

    def test_events_of_a_backward_run_in_run_order(self):
        band = EventSpec("y_band", lambda t, y: (y[0] + 0.5) * (y[0] + 2.5))
        cfg = IntegratorConfig(t_span=(0.0, -3.0))
        traj = integrate(lambda t, y: np.array([1.0]), [0.0], cfg, [band])
        assert [h.t for h in traj.events] == pytest.approx([-0.5, -2.5], abs=1e-9)

    def test_event_time_tolerance(self):
        cfg = IntegratorConfig(t_span=(0.0, 2.0), event_time_tol=1e-10)
        traj = integrate(
            lambda t, y: np.array([1.0]),
            [-1.0],
            cfg,
            events=[EventSpec("crossing", lambda t, y: y[0])],
        )
        assert traj.events[0].t == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("forward", [True, False])
    def test_crossing_located_where_one_ulp_exceeds_the_tolerance(self, forward):
        # near t = 1e6 adjacent floats are 1.2e-10 apart, wider than the 1e-10 tolerance:
        # the bisection ends where no float lies between the bracket's ends
        # the root 1e6 + 1/3 is no float, so no midpoint makes the event exactly zero
        ev = EventSpec("late", lambda t, y: 3.0 * (y[0] - 1e6) - 1.0)
        lo, hi = (1e6, 1e6 + 1.0) if forward else (1e6 + 1.0, 1e6)
        t_star = _locate_crossing(lambda t: [t], ev, lo, hi, ev.fn(lo, [lo]), 1e-10)
        assert abs(t_star - (1e6 + 1.0 / 3.0)) <= 2.0 * math.ulp(1e6)

    def test_until_ends_the_run_after_a_whole_step(self):
        # y' = y from 1: the run stops after the first node with y >= 2,
        # and every node and interpolant up to there is the full run's
        rhs = lambda t, y: y.copy()
        cfg = IntegratorConfig(t_span=(0.0, 3.0))
        full = integrate(rhs, [1.0], cfg)
        cut = integrate(rhs, [1.0], cfg, until=lambda t, y: y[0] >= 2.0)
        assert cut.termination == "stopped" and full.termination == "completed"
        n = len(cut.ts)
        assert cut.ys[-1][0] >= 2.0 > cut.ys[-2][0]
        assert cut.ts == full.ts[:n] and cut.ys == full.ys[:n]
        assert cut.slopes == full.slopes[: n - 1]
        assert cut.n_accepted == n - 1 and cut.n_rhs < full.n_rhs


class TestConfigValidation:
    def test_degenerate_span(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_span=(1.0, 1.0))

    def test_negative_tolerance(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_span=(0.0, 1.0), rel_tol=-1e-9)

    def test_outside_window_query(self):
        cfg = IntegratorConfig(t_span=(0.0, 1.0))
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        with pytest.raises(ValueError):
            traj.at(2.0)

    def test_run_without_accepted_step_is_its_initial_node(self):
        def undefined_after_start(t, y):
            if t > 0.0:
                raise ek.EvaluationError("undefined")
            return np.array([1.0])

        traj = integrate(undefined_after_start, [2.0], IntegratorConfig(t_span=(0.0, 1.0)))
        assert traj.termination == "step_size_underflow" and traj.n_accepted == 0
        assert traj.at(0.0) == [2.0]
        assert traj.sample([0.0, 0.0]) == [[2.0], [2.0]]
        assert traj.invert(0, [2.0, 2.0]) == [[2.0], [2.0]]
        with pytest.raises(ValueError):
            traj.at(0.5)

    def test_nan_initial_slope_ends_the_run(self):
        # a NaN first step compares false with every floor: the run must stop, not spin
        with np.errstate(invalid="ignore"):
            traj = integrate(
                lambda t, y: [v * math.nan for v in y], [1.0], IntegratorConfig(t_span=(0.0, 1.0))
            )
        assert traj.termination == "step_size_underflow"
        assert traj.n_rejected == 0

    def test_metadata_counts(self):
        cfg = IntegratorConfig(t_span=(0.0, 1.0))
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        assert traj.n_accepted == len(traj.ts) - 1
        assert traj.n_rejected >= 0
        assert traj.n_rhs > 6 * traj.n_accepted


# ---------------------------------------------------------------------------
# Reference: the numpy Dormand-Prince stepper the float kernel replaced, kept
# as it was apart from the adapter that hands its right-hand side a list.
# ---------------------------------------------------------------------------

_REF_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_REF_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_REF_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_REF_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_REF_P = np.array(
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
_REF_MAX_STEPS = 500_000
_REF_SAFETY, _REF_MIN_FACTOR, _REF_MAX_FACTOR = 0.9, 0.2, 10.0
_REF_BETA = 0.04
_REF_EXPO = 0.2 - 0.75 * _REF_BETA


def _ref_rms(v):
    return float(np.sqrt(np.mean(v * v))) if v.size else 0.0


@np.errstate(over="ignore", invalid="ignore")
def _ref_initial_step(rhs, t0, y0, f0, direction, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = _ref_rms(y0 / scale)
    d1 = _ref_rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = rhs(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = _ref_rms((f1 - f0) / scale) / h0
    except _RECOVERABLE:
        return h0 * 1e-3
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _reference_integrate(rhs_of_list, y0, cfg, events=(), until=None):
    def rhs(t, y):
        return np.asarray(rhs_of_list(float(t), y.tolist()), dtype=float)

    t0, tf = cfg.t_span
    direction = 1.0 if tf > t0 else -1.0
    y = np.asarray(y0, dtype=float).copy()
    dim = y.size
    try:
        f = rhs(t0, y)
    except ZeroDivisionError:
        f = np.full(dim, math.nan)
    n_rhs = 1

    if cfg.first_step is not None:
        h_abs = abs(cfg.first_step)
    else:
        h_abs = _ref_initial_step(rhs, t0, y, f, direction, cfg.rel_tol, cfg.abs_tol)
        n_rhs += 1
    h_abs = min(h_abs, cfg.max_step, abs(tf - t0))

    ts = [t0]
    ys = [y.tolist()]
    hs = []
    slopes = []
    found_events = []
    n_accepted = 0
    n_rejected = 0
    err_old = 1e-4
    just_rejected = False
    termination = "max_steps"

    g_vals = [ev.fn(t0, y) for ev in events]

    t = t0
    K = np.empty((7, dim))
    for _ in range(_REF_MAX_STEPS):
        if direction * (tf - t) <= 0.0:
            termination = "completed"
            break
        h_abs = min(h_abs, cfg.max_step)
        floor = 16.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if not h_abs >= floor:
            termination = "step_size_underflow"
            break
        is_last = h_abs >= abs(tf - t)
        if is_last:
            h_abs = abs(tf - t)
        h = h_abs * direction

        try:
            K[0] = f
            for i in range(1, 6):
                yi = y + h * (K[:i].T @ _REF_A[i])
                K[i] = rhs(t + _REF_C[i] * h, yi)
            y_new = y + h * (K[:6].T @ _REF_B)
            f_new = rhs(t + h, y_new)
            K[6] = f_new
            n_rhs += 6
        except _RECOVERABLE:
            n_rejected += 1
            n_rhs += 6
            h_abs *= 0.25
            just_rejected = True
            continue

        with np.errstate(over="ignore", invalid="ignore"):
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = _ref_rms((h * (K.T @ _REF_E)) / scale)

        if err > 1.0 or not math.isfinite(err):
            n_rejected += 1
            if not math.isfinite(err):
                factor = _REF_MIN_FACTOR
            else:
                factor = max(_REF_MIN_FACTOR, _REF_SAFETY * err**-_REF_EXPO)
            h_abs *= factor
            just_rejected = True
            continue

        t_new = tf if is_last else t + h
        q = K.T @ _REF_P
        ts.append(t_new)
        ys.append(y_new.tolist())
        hs.append(h)
        slopes.append(tuple(K.tolist()))
        n_accepted += 1

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
            ys[-1] = y_star.tolist()
            termination = f"event:{ev.name}"
            break
        if until is not None and until(t_new, y_new):
            termination = "stopped"
            break

        if err == 0.0:
            factor = _REF_MAX_FACTOR
        else:
            factor = _REF_SAFETY * err**-_REF_EXPO * err_old**_REF_BETA
            factor = min(_REF_MAX_FACTOR, max(_REF_MIN_FACTOR, factor))
        if just_rejected:
            factor = min(1.0, factor)
            just_rejected = False
        h_abs = h_abs * factor
        err_old = max(err, 1e-4)
        t, y, f = t_new, y_new, f_new

    return Trajectory(
        ts=ts,
        ys=ys,
        hs=hs,
        slopes=slopes,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        termination=termination,
        events=found_events,
    )


def _reference_dense(traj, t):
    """Value and slope at t of the numpy interpolant the float one replaced.

    Each step's coefficients are q = K^T P, from its stage slopes K; the
    value is y + h q [x, x^2, x^3, x^4] and the slope q [1, 2x, 3x^2, 4x^3].
    """
    sign = 1.0 if traj.ts[-1] >= traj.ts[0] else -1.0
    i = int(np.searchsorted(sign * np.asarray(traj.ts), sign * t, side="right")) - 1
    i = min(max(i, 0), len(traj.hs) - 1)
    h = traj.hs[i]
    x = (t - traj.ts[i]) / h
    q = np.asarray(traj.slopes[i]).T @ _REF_P
    value = np.asarray(traj.ys[i]) + h * (q @ np.array([x, x * x, x**3, x**4]))
    return value, q @ np.array([1.0, 2.0 * x, 3.0 * x * x, 4.0 * x**3])


def _linear_solve_runs(monkeypatch, solve):
    """The (rhs, y0, cfg, events, until) of every integrate call a linearize solve makes."""
    calls = []

    def record(rhs, y0, cfg, events=(), until=None):
        calls.append((rhs, y0, cfg, events, until))
        return integrate(rhs, y0, cfg, events, until)

    monkeypatch.setattr(linearize, "integrate", record)
    solve()
    return calls


_WINTERNITZ = ek.winternitz_system(ek.WinternitzParams(mu0=1.0, g1=1.0, g2=0.5, g3=1.0))
_WINTERNITZ_STATE = ek.PolarState(r=1.0, theta=math.pi / 2, rdot=0.0, thetadot=2.0, t=0.0)


def _case(name, monkeypatch):
    """One integrate call as (rhs, y0, cfg, events, until), named for what it exercises."""
    osc = cartesian_rhs_function(OSCILLATOR)
    if name == "oscillator":
        return osc, [1.0, 0.0, 0.0, 1.0], IntegratorConfig(t_span=(0.0, 2.0 * math.pi)), (), None
    if name == "oscillator-backward":
        return osc, [1.0, 0.0, 0.0, 1.0], IntegratorConfig(t_span=(0.0, -2.0 * math.pi)), (), None
    if name == "oscillator-rejected-steps":
        cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi), first_step=3.0)
        return osc, [1.0, 0.0, 0.0, 1.0], cfg, (), None
    if name == "winternitz-polar":
        y0 = [1.0, math.pi / 2, 0.0, 2.0]
        cfg = IntegratorConfig(t_span=(0.0, 10.0))
        return polar_rhs_function(_WINTERNITZ), y0, cfg, _polar_events(_WINTERNITZ), None
    # the linearized route: [theta, L, psi, psi_tau, t] for the pipeline, [L, psi, psi_tau] without
    if name == "linear-psi-floor":
        # a window the time never reaches: the run ends at the psi floor, t about 4e3
        return _time_run_case(monkeypatch, (0.0, 1e6))
    if name == "linear-backward":
        # a handed-in domain: the run goes to its end, with no event and no stop
        runs = _linear_solve_runs(
            monkeypatch, lambda: linearize.solve_from_state(_WINTERNITZ, _WINTERNITZ_STATE, (0.75, 2.69))
        )
        return runs[-1]
    if name == "linear-until":
        return _time_run_case(monkeypatch, (0.0, 2.0))
    raise KeyError(name)


def _time_run_case(monkeypatch, window):
    """The pipeline's run over ``window``, its endless tau span cut to twice the tau it took.

    The run ends as before, by its event or its ``until``; the finite span
    sizes the fixed-step check's steps.
    """
    rhs, y0, cfg, events, until = _linear_solve_runs(
        monkeypatch, lambda: linearize.build_pipeline(_WINTERNITZ, _WINTERNITZ_STATE, t_window=window)
    )[0]
    tau_end = integrate(rhs, y0, cfg, events, until).t_end
    return rhs, y0, IntegratorConfig((0.0, 2.0 * tau_end), cfg.rel_tol, cfg.abs_tol), events, until


# case -> how its adaptive run ends
_CASES = {
    "oscillator": "completed",
    "oscillator-backward": "completed",
    "oscillator-rejected-steps": "completed",
    "winternitz-polar": "completed",
    "linear-psi-floor": "event:psi_floor",
    "linear-backward": "completed",
    "linear-until": "stopped",
}


class TestAgainstReferenceStepper:
    """The float kernel against the numpy stepper it replaced.

    The two sum the same products in different orders (numpy's dot may fuse
    multiply-adds), so a stage differs by a few ulp.  Differences are
    measured against each component's largest magnitude over the run: near
    the psi floor, where t_tau = rho^2/psi^2, the rounding of psi is
    magnified many times over.  With the step sizes fixed, the nodes are
    equal, and states, stage slopes and the dense output inside each step
    (the float interpolant against the reference's numpy one) agree to
    1e-10 of that scale (2e-12 seen).  Adaptive runs take the same steps, but the
    controller reads an error estimate that cancels about eight digits, so
    their nodes drift apart in the low digits; there the dense output is
    compared at common times to 1e-9 of the scale (2e-10 seen, 6e-14 away
    from the psi floor), which is how far two interpolants on slightly
    different nodes may differ.
    """

    @staticmethod
    def _same_run(new, ref):
        assert (new.n_accepted, new.n_rejected, new.n_rhs, new.termination) == (
            ref.n_accepted, ref.n_rejected, ref.n_rhs, ref.termination
        )
        assert [e.name for e in new.events] == [e.name for e in ref.events]
        for a, b in zip(new.events, ref.events):
            assert abs(a.t - b.t) <= 2e-10

    @pytest.mark.parametrize("name", _CASES)
    def test_adaptive_run_matches(self, monkeypatch, name):
        rhs, y0, cfg, events, until = _case(name, monkeypatch)
        new = integrate(rhs, y0, cfg, events, until)
        ref = _reference_integrate(rhs, y0, cfg, events, until)
        self._same_run(new, ref)
        assert new.n_accepted > 50 and ref.termination == _CASES[name]
        if name.endswith("backward"):
            assert ref.t_end < ref.t0
        if name == "oscillator-rejected-steps":
            assert new.n_rejected > 0
        scale = 1.0 + np.max(np.abs(ref.ys), axis=0)
        end = min(new.t_end, ref.t_end, key=lambda v: abs(v - new.t0))
        for t in np.linspace(new.t0, end, 201):
            assert np.all(np.abs(new.at(t) - _reference_dense(ref, t)[0]) <= 1e-9 * scale), t

    @pytest.mark.parametrize("name", ["oscillator", "winternitz-polar", "linear-psi-floor", "linear-until"])
    def test_fixed_step_run_matches(self, monkeypatch, name):
        rhs, y0, cfg, events, until = _case(name, monkeypatch)
        # tolerances no step can miss, and the first and largest step equal: every step is h
        h = 1e-3 * abs(cfg.t_span[1] - cfg.t_span[0])
        cfg = IntegratorConfig(
            cfg.t_span, rel_tol=1e3, abs_tol=1e3, max_step=h, first_step=h, event_time_tol=cfg.event_time_tol
        )
        new = integrate(rhs, y0, cfg, events, until)
        ref = _reference_integrate(rhs, y0, cfg, events, until)
        self._same_run(new, ref)
        assert new.n_accepted > 50
        assert new.ts == ref.ts and new.hs == ref.hs
        scale = 1.0 + np.max(np.abs(ref.ys), axis=0)
        assert np.all(np.abs(np.subtract(new.ys, ref.ys)) <= 1e-10 * scale)
        k_scale = 1.0 + np.max(np.abs(ref.slopes), axis=(0, 1))
        assert np.all(np.abs(np.subtract(new.slopes, ref.slopes)) <= 1e-10 * k_scale)
        # the float interpolant against the numpy one, inside every step
        for t_i, h, stages in zip(new.ts, new.hs, new.slopes):
            t = t_i + 0.37 * h
            value, slope = new.at(t), _stage_sum(stages, (t - t_i) / h, _DP)
            ref_value, ref_slope = _reference_dense(ref, t)
            assert np.all(np.abs(value - ref_value) <= 1e-10 * scale)
            assert np.all(np.abs(slope - ref_slope) <= 1e-10 * k_scale)


# ---------------------------------------------------------------------------
# The generated per-dimension kernel against the list stepper it replaced
# ---------------------------------------------------------------------------


def _bits(value):
    """A value with every float replaced by its eight bytes; containers keep their type."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(v) for v in value)
    return value


def _decay(t, y):
    return (-y[0] * (1.0 + 0.5 * math.sin(t)),)


def _van_der_pol(t, y):
    return y[1], 2.0 * (1.0 - y[0] * y[0]) * y[1] - y[0]


def _fenced_oscillator(t, y):
    # undefined beyond |x| = 1.5: large trial steps leave the fence and are rejected
    if abs(y[0]) > 1.5:
        raise ek.EvaluationError("outside the fence")
    return y[1], -y[0]


# eleven components: a damped chain, two-digit component indices in the kernel
_CHAIN = [[0.3 * math.sin(1.0 + 7 * i + 3 * j) - (i == j) for j in range(11)] for i in range(11)]


def _chain(t, y):
    return tuple(
        sum(a * v for a, v in zip(row, y)) + 0.1 * math.cos(t + i) for i, row in enumerate(_CHAIN)
    )


def _kernel_case(name, monkeypatch):
    """(rhs, y0, cfg, events, until) of one run the kernel must reproduce bit for bit."""
    if name == "decay":
        return _decay, [1.0], IntegratorConfig(t_span=(0.0, 3.0)), (), None
    if name == "decay-backward":
        return _decay, [1.0], IntegratorConfig(t_span=(0.0, -3.0)), (), None
    if name == "van-der-pol-rejected":  # a first step far too large: err > 1
        cfg = IntegratorConfig(t_span=(0.0, 5.0), first_step=4.0)
        return _van_der_pol, [2.0, 0.0], cfg, (), None
    if name == "fenced-recoverable":
        cfg = IntegratorConfig(t_span=(0.0, 6.0), first_step=5.0)
        return _fenced_oscillator, [1.0, 0.0], cfg, (), None
    if name == "oscillator-terminal-event":
        events = [EventSpec("x_zero", lambda t, y: y[0], terminal=True)]
        osc = cartesian_rhs_function(OSCILLATOR)
        return osc, [1.0, 0.0, 0.0, 1.0], IntegratorConfig(t_span=(0.0, 5.0)), events, None
    if name == "chain-first-step":
        cfg = IntegratorConfig(t_span=(0.0, 4.0), first_step=0.01)
        return _chain, [math.cos(i) for i in range(11)], cfg, (), None
    if name == "chain-until":
        cfg = IntegratorConfig(t_span=(0.0, 4.0), rel_tol=1e-6, abs_tol=1e-9)
        return _chain, [1.0] * 11, cfg, (), lambda t, y: y[0] < 0.0
    return _case(name, monkeypatch)


# case -> (dimension, how the run ends)
_KERNEL_CASES = {
    "decay": (1, "completed"),
    "decay-backward": (1, "completed"),
    "van-der-pol-rejected": (2, "completed"),
    "fenced-recoverable": (2, "completed"),
    "oscillator-backward": (4, "completed"),
    "oscillator-terminal-event": (4, "event:x_zero"),
    "winternitz-polar": (4, "completed"),
    "linear-backward": (3, "completed"),
    "linear-psi-floor": (5, "event:psi_floor"),
    "linear-until": (5, "stopped"),
    "chain-first-step": (11, "completed"),
    "chain-until": (11, "stopped"),
}


def _slope(traj, t):
    """The package's _DP stage sum at t, on the step the list stepper's lookup reads."""
    i = list_stepper.reference_segment(traj, t)
    return _stage_sum(traj.slopes[i], (t - traj.ts[i]) / traj.hs[i], _DP)


class TestKernelAgainstListStepper:
    """The generated straight-line kernel against a copy of the list-comprehension stepper.

    The kernel adds the same products in the same order, so every node,
    stage slope, counter, event and dense-output value is equal bit for bit
    (a generated local that shadows another stage's would break this).
    """

    @pytest.mark.parametrize("name", _KERNEL_CASES)
    def test_same_bits(self, monkeypatch, name):
        rhs, y0, cfg, events, until = _kernel_case(name, monkeypatch)
        dim, termination = _KERNEL_CASES[name]
        failures = []

        def counted(t, y):  # the same function, with its recoverable failures counted
            try:
                return rhs(t, y)
            except _RECOVERABLE:
                failures.append(t)
                raise

        new = integrate(counted, y0, cfg, events, until)
        n_failures = len(failures)
        ref = list_stepper.reference_integrate(counted, y0, cfg, events, until)
        assert (new.dim, new.termination) == (dim, termination)
        for field in ("ts", "ys", "hs", "slopes", "n_rhs", "n_accepted", "n_rejected", "termination"):
            assert _bits(getattr(new, field)) == _bits(getattr(ref, field)), field
        assert [(e.name, _bits(e.t), _bits(e.y)) for e in new.events] == [
            (e.name, _bits(e.t), _bits(e.y)) for e in ref.events
        ]
        assert len(failures) == 2 * n_failures
        if name == "fenced-recoverable":
            assert n_failures > 0 and new.n_rejected > 0
        if name == "van-der-pol-rejected":
            assert n_failures == 0 and new.n_rejected > 0
        if name.endswith("backward"):
            assert new.t_end < new.t0
        if name.endswith("until"):
            assert new.t_end != cfg.t_span[1]
        for j in range(50):
            t = new.t0 + (new.t_end - new.t0) * (j + 0.5) / 50
            assert _bits(new.at(t)) == _bits(list_stepper.reference_at(new, t)), t
            assert _bits(_slope(new, t)) == _bits(list_stepper.reference_at_with_slope(new, t)[1]), t


class TestSampleSweep:
    """Trajectory.sample answers a grid in one ordered pass over the steps.

    Each state equals a bisection per time (the list stepper's reference
    lookup) bit for bit, whatever the order of the times, and the first time
    outside the window raises the text that lookup raises.
    """

    _CASES = ["decay", "decay-backward", "chain-until", "oscillator-terminal-event", "linear-psi-floor"]

    @staticmethod
    def _grid(traj):
        """Every node, a point inside each step, the last node three times and both
        ends of the window's tolerance, in a shuffled order."""
        ts = traj.ts
        lo, hi = min(ts[0], ts[-1]), max(ts[0], ts[-1])
        slack = 1e-10 * (1.0 + (hi - lo))
        times = [*ts, *(a + 0.37 * (b - a) for a, b in zip(ts, ts[1:])), ts[-1], ts[-1], lo - slack, hi + slack]
        random.Random(7).shuffle(times)
        return times

    @pytest.mark.parametrize("name", _CASES)
    def test_grid_equals_one_lookup_per_time(self, monkeypatch, name):
        rhs, y0, cfg, events, until = _kernel_case(name, monkeypatch)
        traj = integrate(rhs, y0, cfg, events, until)
        assert traj.termination == _KERNEL_CASES[name][1]
        times = self._grid(traj)
        for grid in (times, sorted(times), sorted(times, reverse=True)):
            expected = _bits([list_stepper.reference_at(traj, t) for t in grid])
            assert _bits(traj.sample(grid)) == expected
            assert _bits(traj.sample(np.array(grid))) == expected
            assert _bits(traj.sample(iter(grid))) == expected
            assert _bits([traj.at(t) for t in grid]) == expected
        for t in times:
            assert _bits(_slope(traj, t)) == _bits(list_stepper.reference_at_with_slope(traj, t)[1])

    @pytest.mark.parametrize("name", ["decay", "decay-backward"])
    def test_first_time_outside_the_window_is_named(self, monkeypatch, name):
        traj = integrate(*_kernel_case(name, monkeypatch))
        inside = traj.ts[len(traj.ts) // 2]
        lo, hi = min(traj.t0, traj.t_end), max(traj.t0, traj.t_end)
        for times in ([inside, hi + 1.0, lo - 1.0], [inside, lo - 1.0, hi + 1.0], [np.float64(lo - 1.0)]):
            with pytest.raises(ValueError) as reference:
                [list_stepper.reference_at(traj, t) for t in times]
            with pytest.raises(ValueError) as sweep:
                traj.sample(times)
            assert str(sweep.value) == str(reference.value)
        with pytest.raises(ValueError, match=r"^time nan outside the covered window"):
            traj.sample([inside, math.nan])

    def test_run_without_a_step_answers_fresh_copies_of_its_node(self):
        def undefined_after_start(t, y):
            if t > 0.0:
                raise ek.EvaluationError("undefined")
            return [1.0]

        traj = integrate(undefined_after_start, [2.0], IntegratorConfig(t_span=(0.0, 1.0)))
        assert traj.n_accepted == 0
        states = traj.sample([0.0, 1e-12, 0.0])
        assert states == [[2.0]] * 3
        states[0][0] = 5.0
        assert states[2] == traj.ys[0] == [2.0]
        with pytest.raises(ValueError, match=r"^time 0\.5 outside the covered window \[0\.0, 0\.0\]$"):
            traj.sample([0.0, 0.5])


class TestInvert:
    """Trajectory.invert solves a monotone column at a grid of values in one ordered pass.

    Each state equals the list stepper's bisection and Newton solve per value
    bit for bit, whatever the order of the values: a value on a node is solved
    on the step ending there, and an iterate on that step's end node reads the
    next step.  The first value outside the column's range raises the text
    that solve raises.
    """

    # run -> the column strictly monotone along it: the time of the runs in angular
    # time (forward; "linear-down" is the pipeline's backward run), and a decay's state
    _CASES = {"linear-psi-floor": 4, "linear-until": 4, "linear-down": 4, "decay": 0, "decay-backward": 0}

    @staticmethod
    def _run(name, monkeypatch):
        if name == "linear-down":
            pipe = linearize.build_pipeline(_WINTERNITZ, _WINTERNITZ_STATE, t_window=(-2.0, 0.0))
            assert pipe.up is None and pipe.down.t_end < pipe.down.t0
            return pipe.down
        traj = integrate(*_kernel_case(name, monkeypatch))
        assert traj.termination == _KERNEL_CASES[name][1]
        return traj

    @pytest.mark.parametrize("name", _CASES)
    def test_grid_equals_one_solve_per_value(self, monkeypatch, name):
        column, traj = self._CASES[name], self._run(name, monkeypatch)
        nodes = [y[column] for y in traj.ys]
        # every node's value, a value inside each step, the last node's three times
        values = [*nodes, *(a + 0.37 * (b - a) for a, b in zip(nodes, nodes[1:])), nodes[-1], nodes[-1]]
        random.Random(11).shuffle(values)
        for grid in (values, sorted(values), sorted(values, reverse=True)):
            expected = _bits([list_stepper.reference_invert(traj, column, v) for v in grid])
            assert _bits(traj.invert(column, grid)) == expected
            assert _bits(traj.invert(column, iter(grid))) == expected
            assert _bits([traj.invert(column, [v])[0] for v in grid]) == expected
        first = traj.invert(column, [nodes[0]])[0]
        first[0] += 1.0
        assert first != traj.ys[0] and traj.invert(column, [nodes[0]]) == [traj.ys[0]]  # a copy

    @pytest.mark.parametrize("name", ["decay", "decay-backward", "linear-down"])
    def test_first_value_outside_the_range_is_named(self, monkeypatch, name):
        column, traj = self._CASES[name], self._run(name, monkeypatch)
        first, end = traj.ys[0][column], traj.ys[-1][column]
        inside, lo, hi = traj.ys[len(traj.ys) // 2][column], min(first, end), max(first, end)
        below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        for grid in ([inside, above, below], [inside, below, above], [np.float64(below)], [inside, math.nan]):
            with pytest.raises(ValueError) as reference:
                [list_stepper.reference_invert(traj, column, v) for v in grid]
            with pytest.raises(ValueError) as found:
                traj.invert(column, grid)
            assert str(found.value) == str(reference.value)
        with pytest.raises(ValueError, match=rf"^value nan outside column {column}'s run from "):
            traj.invert(column, [inside, math.nan])
        assert traj.invert(column, []) == []


class TestKernelBuild:
    def test_import_builds_no_kernel(self):
        src = str(Path(ek.__file__).resolve().parents[1])
        code = "import ermakov.cli, ermakov.integration as i; print(i._kernel.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]

    def test_one_compile_per_dimension(self, monkeypatch):
        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(integration, "compile", counting, raising=False)
        integration._kernel.cache_clear()
        osc = cartesian_rhs_function(OSCILLATOR)
        for _ in range(2):
            integrate(osc, [1.0, 0.0, 0.0, 1.0], IntegratorConfig(t_span=(0.0, 1.0)))
        assert len(compiled) == 1
        linearize.solve_from_state(_WINTERNITZ, _WINTERNITZ_STATE)  # three-state runs
        linearize.build_pipeline(_WINTERNITZ, _WINTERNITZ_STATE, t_window=(0.0, 2.0))  # five
        assert len(compiled) == 3 and integration._kernel.cache_info().currsize == 3


class TestSlopeCount:
    """A right-hand side returning another number of slopes than the state has raises."""

    @staticmethod
    def _raises(rhs, cfg, found):
        message = f"rhs returned {found} slopes for a state of 2 components"
        with pytest.raises(ValueError, match=message) as info:
            integrate(rhs, [1.0, 0.0], cfg)
        assert not isinstance(info.value, _RECOVERABLE)

    @pytest.mark.parametrize("found", [1, 3])
    def test_initial_slope(self, found):
        rhs = lambda t, y: (-y[1], y[0], 0.0)[:found]  # noqa: E731
        self._raises(rhs, IntegratorConfig(t_span=(0.0, 1.0), first_step=0.1), found)

    @pytest.mark.parametrize("found", [1, 3])
    def test_initial_step_heuristic(self, found):
        rhs = lambda t, y: (-y[1], y[0], 0.0)[: 2 if t == 0.0 else found]  # noqa: E731
        self._raises(rhs, IntegratorConfig(t_span=(0.0, 1.0)), found)

    @pytest.mark.parametrize("stage", range(2, 8))
    @pytest.mark.parametrize("found", [1, 3])
    def test_trial_step(self, stage, found):
        calls = []

        def rhs(t, y):  # call 1 is the initial slope, calls 2-7 the first step's stages
            calls.append(t)
            return (-y[1], y[0], 0.0)[: found if len(calls) == stage else 2]

        self._raises(rhs, IntegratorConfig(t_span=(0.0, 1.0), first_step=0.1), found)
        assert len(calls) == stage

    def test_own_value_error_passes_through(self):
        def rhs(t, y):  # the stages' own error, not a count
            if t > 0.0:
                raise ValueError("math domain error")
            return -y[1], y[0]

        with pytest.raises(ValueError, match="^math domain error$"):
            integrate(rhs, [1.0, 0.0], IntegratorConfig(t_span=(0.0, 1.0), first_step=0.1))
