import dataclasses
import math

import numpy as np
import pytest

import ermakov as ek
from ermakov.integration import (
    EventSpec,
    IntegratorConfig,
    detect_events,
    integrate,
    monitor_invariant,
)


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
        rs = traj.ys[:, 0]
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
        ys = winternitz_trajectory.ys.copy()
        ys[len(ys) // 2, 0] += 1e-3
        corrupted = dataclasses.replace(winternitz_trajectory, ys=ys)
        stats = monitor_invariant(corrupted, winternitz_spec.V, attach=False)
        assert stats.max_rel >= 1e-4


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

    def test_detect_events_post_hoc(self):
        cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi))
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        hits = detect_events(traj, [EventSpec("x_zero", lambda t, y: y[0])])
        assert len(hits) == 2
        assert hits[0].t == pytest.approx(math.pi / 2, abs=1e-9)
        assert hits[1].t == pytest.approx(3.0 * math.pi / 2, abs=1e-9)

    def test_detect_events_backward_run_in_run_order(self):
        traj = integrate(lambda t, y: np.array([1.0]), [0.0], IntegratorConfig(t_span=(0.0, -3.0)))
        hits = detect_events(traj, [EventSpec("y_band", lambda t, y: (y[0] + 0.5) * (y[0] + 2.5))])
        assert [h.t for h in hits] == pytest.approx([-0.5, -2.5], abs=1e-9)

    def test_event_time_tolerance(self):
        cfg = IntegratorConfig(t_span=(0.0, 2.0), event_time_tol=1e-10)
        traj = integrate(
            lambda t, y: np.array([1.0]),
            [-1.0],
            cfg,
            events=[EventSpec("crossing", lambda t, y: y[0])],
        )
        assert traj.events[0].t == pytest.approx(1.0, abs=1e-10)

    def test_until_ends_the_run_after_a_whole_step(self):
        # y' = y from 1: the run stops after the first node with y >= 2,
        # and every node and interpolant up to there is the full run's
        rhs = lambda t, y: y.copy()
        cfg = IntegratorConfig(t_span=(0.0, 3.0))
        full = integrate(rhs, [1.0], cfg)
        cut = integrate(rhs, [1.0], cfg, until=lambda t, y: y[0] >= 2.0)
        assert cut.termination == "stopped" and full.termination == "completed"
        n = len(cut.ts)
        assert cut.ys[-1, 0] >= 2.0 > cut.ys[-2, 0]
        assert np.array_equal(cut.ts, full.ts[:n]) and np.array_equal(cut.ys, full.ys[:n])
        assert np.array_equal(cut.qs, full.qs[: n - 1])
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
        assert traj.at(0.0).tolist() == [2.0]
        assert traj.sample([0.0, 0.0]).tolist() == [[2.0], [2.0]]
        value, slope = traj.at_with_slope(0.0)
        assert value.tolist() == [2.0] and math.isnan(slope[0])
        with pytest.raises(ValueError):
            traj.at(0.5)

    def test_nan_initial_slope_ends_the_run(self):
        # a NaN first step compares false with every floor: the run must stop, not spin
        with np.errstate(invalid="ignore"):
            traj = integrate(lambda t, y: y * math.nan, [1.0], IntegratorConfig(t_span=(0.0, 1.0)))
        assert traj.termination == "step_size_underflow"
        assert traj.n_rejected == 0

    def test_metadata_counts(self):
        cfg = IntegratorConfig(t_span=(0.0, 1.0))
        traj = ek.integrate_cartesian(OSCILLATOR, OSC_STATE, cfg)
        assert traj.n_accepted == len(traj.ts) - 1
        assert traj.n_rejected >= 0
        assert traj.n_rhs > 6 * traj.n_accepted
