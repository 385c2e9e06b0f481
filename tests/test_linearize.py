import math

import numpy as np
import pytest

import ermakov as ek
from ermakov.expressions import evaluate
from ermakov.invariant import ForbiddenRegionError, TurningPointError
from ermakov.linearize import (
    LinearizationError,
    OutsideWindowError,
    angular_time,
    auto_theta_domain,
    build_linear_ode,
    build_pipeline,
    free_motion_solution,
    solve_linear,
    time_quadrature,
    verify_compatibility,
    winternitz_angular_time_closed,
    winternitz_dpsi_closed,
    winternitz_psi_closed,
)
from ermakov.numerics import quad_adaptive


def _uniform_rotation_pieces():
    """V = F = 0, A = B = 0, C = 1, rho = 1 at level 1/2: h = 1 and psi = 1.

    The driven equation psi'' + psi = 1 with initial data (1, 0) keeps psi
    pinned at 1, so the angle advances uniformly and the radius stays 1.
    """
    spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
    ode = build_linear_ode(spec, 0.5, (-6.0, 6.0))
    sol = solve_linear(ode, 0.0, 1.0, 0.0, [-6.0, 6.0])
    quad = time_quadrature(sol, 0.0)
    return spec, ode, sol, quad


class TestBuildLinearODE:
    def test_usual_ermakov_is_homogeneous(self):
        spec = ek.LinearizableSpec(rho="cos(t)", A="0", B="0", C="0", F="0", V="0.3*sin(theta)^2")
        ode = build_linear_ode(spec, 1.0, (0.2, 2.9))
        assert ode.rhs_is_zero
        assert all(ode.rhs(th) == 0.0 for th in np.linspace(0.3, 2.8, 9))
        # p1 = h dh/dtheta with a = 0
        th = 1.1
        assert ode.p1(th) == pytest.approx(-0.6 * math.sin(th) * math.cos(th), rel=1e-12)

    def test_kepler_is_driven(self, winternitz_spec):
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        for th in np.linspace(1.0, 2.2, 7):
            assert ode.rhs(float(th)) == pytest.approx(
                evaluate(winternitz_spec.C, {}), rel=1e-14
            )

    def test_constant_momentum_reduces_to_oscillator(self):
        # V = F = 0 at level 1/2: the equation collapses to psi'' + psi = 0
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-1.0, 1.0))
        assert ode.p2(0.3) == pytest.approx(1.0, rel=1e-15)
        assert ode.p1(0.3) == 0.0
        assert ode.p0(0.3) == pytest.approx(1.0, rel=1e-15)

    def test_forbidden_interval_rejected(self, winternitz_spec):
        with pytest.raises(ForbiddenRegionError) as err:
            build_linear_ode(winternitz_spec, 3.0, (0.1, 2.2))
        assert err.value.theta == pytest.approx(0.7416, abs=2e-3)

    def test_h_dh_identity(self, winternitz_spec):
        # h dh/dtheta = -dV/dtheta, checked by Richardson-extrapolated differences
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        dv = lambda th: evaluate(ode._dV, {"theta": th})
        for th in np.linspace(1.1, 2.1, 7):
            eps = 1e-3
            d1 = (ode.h(th + eps) - ode.h(th - eps)) / (2.0 * eps)
            d2 = (ode.h(th + eps / 2) - ode.h(th - eps / 2)) / eps
            dh = (4.0 * d2 - d1) / 3.0
            assert abs(ode.h(th) * dh + dv(th)) <= 1e-9 * (1.0 + abs(dv(th)))


class TestSolveLinear:
    def test_cosine_solution(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-0.2, math.pi - 0.1))
        sol = solve_linear(ode, 0.0, 1.0, 0.0, [0.0, math.pi - 0.1])
        errs = [abs(sol.psi(th) - math.cos(th)) for th in np.linspace(0.0, math.pi - 0.1, 40)]
        assert max(errs) <= 1e-9

    def test_superposition(self, winternitz_spec):
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        alpha, beta = 0.7, -0.4
        sol = solve_linear(ode, 1.5, alpha, beta, [1.0, 2.2])
        combo = solve_linear(ode, 1.5, 0.0, 0.0, [1.0, 2.2])
        for th in np.linspace(1.05, 2.15, 9):
            direct = sol.psi(float(th))
            assembled = (
                alpha * sol.psi1.row(float(th))[0]
                + beta * sol.psi2.row(float(th))[0]
                + combo.psi(float(th))
            )
            assert abs(direct - assembled) <= 1e-9 * (1.0 + abs(direct))

    def test_wronskian_consistent_with_abel(self, winternitz_spec):
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        sol = solve_linear(ode, 1.5, 1.0, 0.0, [1.0, 2.2])
        w0 = sol.wronskian(1.5)
        for th in np.linspace(1.1, 2.1, 7):
            factor = quad_adaptive(lambda lam: ode.p1(lam) / ode.p2(lam), 1.5, float(th))
            assert sol.wronskian(float(th)) * math.exp(factor) == pytest.approx(
                w0, abs=1e-7, rel=1e-7
            )


class TestAngularTime:
    def test_base_point(self, winternitz_spec):
        assert angular_time(math.pi / 2, 2.0, winternitz_spec.V, J=0.25) == 0.25

    def test_closed_form_special_case(self):
        # g1=1, g2=0, I=2: T = -asin(sqrt(2) cos(theta))/2 anchored at pi/2
        params = ek.WinternitzParams(1.0, 1.0, 0.0, 1.0)
        spec = ek.winternitz_system(params)
        for th in (math.pi / 3, 1.2, 2.0):
            expected = -0.5 * math.asin(math.sqrt(2.0) * math.cos(th))
            assert angular_time(th, 2.0, spec.V) == pytest.approx(expected, abs=1e-9)
            assert winternitz_angular_time_closed(params, 2.0, th) == pytest.approx(
                expected, abs=1e-14
            )

    def test_derivative_is_inverse_momentum(self, winternitz_spec):
        level = 3.0
        for th in (1.2, 1.8):
            eps = 1e-6
            fd = (
                angular_time(th + eps, level, winternitz_spec.V)
                - angular_time(th - eps, level, winternitz_spec.V)
            ) / (2.0 * eps)
            h = ek.on_shell_momentum(th, level, winternitz_spec.V)
            assert abs(fd - 1.0 / h) <= 1e-7 * (1.0 + 1.0 / h)

    def test_forbidden_path_rejected(self, winternitz_spec):
        with pytest.raises(ForbiddenRegionError):
            angular_time(0.2, 3.0, winternitz_spec.V)


class TestWinternitzClosedForm:
    def test_equilibrium_solution(self):
        # c1 = c2 = 0 leaves the steady state of the driven oscillator,
        # mu0/(2 (I + g3)); it also solves the angle-domain equation directly
        params = ek.WinternitzParams(1.0, 1.0, 0.0, 1.0)
        spec = ek.winternitz_system(params)
        level = 2.0
        psi_c = winternitz_psi_closed(params, level, 0.0, 0.0, 0.0, 1.3)
        assert psi_c == pytest.approx(1.0 / 6.0, rel=1e-12)
        ode = build_linear_ode(spec, level, (1.0, 2.0))
        for th in (1.1, 1.5, 1.9):
            assert ode.p0(th) * psi_c == pytest.approx(ode.rhs(th), rel=1e-12)

    def test_pure_trigonometric_when_undriven(self):
        params = ek.WinternitzParams(0.0, 1.0, 0.0, 1.0)
        level = 2.0
        k = math.sqrt(2.0 * (level + params.g3))
        for th in (1.2, 1.6):
            t_par = winternitz_angular_time_closed(params, level, th)
            expected = 0.3 * math.cos(k * t_par) + 0.9 * math.sin(k * t_par)
            assert winternitz_psi_closed(params, level, 0.3, 0.9, 0.0, th) == pytest.approx(
                expected, rel=1e-13
            )

    def test_matches_numeric_solve(self):
        params = ek.WinternitzParams(1.0, 0.2, 0.1, 1.0)
        spec = ek.winternitz_system(params)
        level, c1, c2, J = 3.0, 0.8, 0.3, 0.1
        th0 = math.pi / 2
        ode = build_linear_ode(spec, level, (math.pi / 6, 5 * math.pi / 6))
        sol = solve_linear(
            ode,
            th0,
            winternitz_psi_closed(params, level, c1, c2, J, th0),
            winternitz_dpsi_closed(params, level, c1, c2, J, th0),
            [math.pi / 6, 5 * math.pi / 6],
        )
        diff = max(
            abs(sol.psi(float(th)) - winternitz_psi_closed(params, level, c1, c2, J, float(th)))
            for th in np.linspace(math.pi / 6, 5 * math.pi / 6, 60)
        )
        assert diff <= 1e-8

    def test_closed_time_validity_guards(self):
        # negative discriminant is rejected for the closed-form time; for this
        # potential that happens exactly when the level sits below the
        # potential minimum (g1 + sqrt(g1^2 - g2^2))/2, so real motion always
        # has a positive discriminant and the numeric route is a safety net
        params = ek.WinternitzParams(1.0, 2.0, 0.1, 1.0)
        with pytest.raises(ValueError, match="discriminant"):
            winternitz_angular_time_closed(params, 1.0, 1.4)
        with pytest.raises(ValueError, match="positive invariant"):
            winternitz_angular_time_closed(params, -1.0, 1.4)
        # the argument guard trips when the angle crosses into the
        # classically forbidden band
        params2 = ek.WinternitzParams(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            winternitz_angular_time_closed(params2, 2.0, 0.3)

    def test_psi_closed_agrees_with_explicit_assembly(self):
        # the psi builder composes the (closed or numeric) time map with the
        # driven-oscillator solution; assemble the same thing by hand
        params = ek.WinternitzParams(1.0, 0.2, 0.1, 1.0)
        spec = ek.winternitz_system(params)
        level, c1, c2, J = 2.0, 0.4, -0.2, 0.05
        k = math.sqrt(2.0 * (level + params.g3))
        for th in (1.0, 1.7, 2.3):
            t_par = angular_time(th, level, spec.V, J)
            by_hand = c1 * math.cos(k * t_par) + c2 * math.sin(k * t_par) + params.mu0 / k**2
            assert winternitz_psi_closed(params, level, c1, c2, J, th) == pytest.approx(
                by_hand, rel=1e-9
            )


class TestTimeQuadrature:
    def test_uniform_rotation_is_linear_in_time(self):
        _, _, sol, quad = _uniform_rotation_pieces()
        for t in np.linspace(0.0, 4.0, 9):
            assert quad.theta_at(float(t)) == pytest.approx(t, abs=1e-12)

    def test_round_trip_inverse(self):
        _, _, sol, quad = _uniform_rotation_pieces()
        for th in (0.3, 1.7, 3.9):
            t = quad.t_at(th)
            assert quad.theta_at(t) == pytest.approx(th, abs=1e-10)

    def test_monotone_maps(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        thetas = [pipe.theta_at(t) for t in np.linspace(0.0, 2.0, 15)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        inner = np.linspace(*pipe.theta_window, 9)[1:-1]
        values = [pipe.solution.Theta.row(th)[2] for th in inner]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_branch(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
        s0 = ek.PolarState(1.0, 0.0, 0.0, -1.0)
        pipe = build_pipeline(spec, s0, t_window=(0.0, 3.0))
        for t in (0.5, 2.0):
            assert pipe.theta_at(t) == pytest.approx(-t, abs=1e-10)

    def test_outside_window_raises(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state)
        with pytest.raises(OutsideWindowError):
            pipe.t_at(10.0)  # outside the psi-positive angle window

    def test_nonpositive_psi_rejected(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-1.0, 1.0))
        sol = solve_linear(ode, 0.0, -1.0, 0.0, [-1.0, 1.0])
        with pytest.raises(LinearizationError):
            time_quadrature(sol, 0.0)


class TestReconstruction:
    def test_uniform_rotation_radius(self):
        _, _, sol, quad = _uniform_rotation_pieces()
        assert quad.r_of_theta(1.2) == pytest.approx(1.0, abs=1e-12)
        assert quad.r_of_t(2.5) == pytest.approx(1.0, abs=1e-12)

    def test_radial_equals_orbit_composition(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        for t in (0.2, 0.9, 1.7):
            theta = pipe.theta_at(t)
            assert pipe.r_of_t(t) == pytest.approx(pipe.r_of_theta(theta), rel=1e-12)

    def test_winternitz_round_trip(self, winternitz_spec, winternitz_state, winternitz_trajectory):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        for t in np.linspace(0.0, 2.0, 21):
            y = winternitz_trajectory.at(t)
            assert abs(pipe.theta_at(float(t)) - y[1]) <= 1e-5
            assert abs(pipe.r_of_t(float(t)) - y[0]) <= 1e-5

    def test_kepler_orbit_is_inverse_psi(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        th = 1.9
        assert pipe.r_of_theta(th) == pytest.approx(1.0 / pipe.solution.psi(th), rel=1e-13)


class TestFreeMotionSolution:
    def test_affine_form(self):
        assert free_motion_solution(1.0, 0.5, 2.0) == 2.0
        assert free_motion_solution(2.0, 0.0, 9.9) == 2.0

    def test_constant_solution_gives_circle(self):
        fm = ek.free_motion_system("u", "1")
        s0 = ek.PolarState(1.0, math.pi / 4, 0.0, 1.0)  # rdot = 0 so psi' = 0
        traj = ek.integrate_polar(
            fm.linearizable, s0, ek.IntegratorConfig(t_span=(0.0, 0.12)), monitor=False
        )
        assert float(np.max(np.abs(traj.ys[:, 0] - 1.0))) <= 1e-9

    def test_fit_recovers_affine_coefficients(self):
        fm = ek.free_motion_system("u", "1")
        s0 = ek.PolarState(1.0, math.pi / 4, -0.2, 1.0)
        traj = ek.integrate_polar(
            fm.linearizable, s0, ek.IntegratorConfig(t_span=(0.0, 1.0)), monitor=False
        )
        turnings = [e.t for e in traj.events if e.name == "turning_point"]
        t_hi = 0.95 * turnings[0] if turnings else traj.t_end
        ts = np.linspace(0.0, t_hi, 60)
        ys = traj.sample(ts)
        slope, intercept = np.polyfit(ys[:, 1], 1.0 / ys[:, 0], 1)
        resid = float(np.max(np.abs(np.polyval([slope, intercept], ys[:, 1]) - 1.0 / ys[:, 0])))
        assert resid <= 1e-8
        # psi' = -rdot/L at t=0 fixes the slope; the intercept follows
        assert slope == pytest.approx(0.2, abs=1e-9)
        assert intercept == pytest.approx(1.0 - 0.2 * math.pi / 4, abs=1e-9)

    def test_solver_returns_straight_lines(self):
        fm = ek.free_motion_system("u", "1")
        ode = build_linear_ode(fm.linearizable, 0.5, (0.3, 0.85))
        assert ode.rhs_is_zero
        sol = solve_linear(ode, 0.5, 1.5, 1.0, [0.3, 0.85])
        for th in np.linspace(0.3, 0.85, 23):
            assert abs(sol.psi(float(th)) - (1.0 + float(th))) <= 1e-9


class TestCompatibility:
    def test_harmonic_scale_zero_residual(self):
        spec = ek.LinearizableSpec(rho="cos(t)", A="0", B="0", C="0", F="0", V="0.2*sin(theta)^2")
        state = ek.PolarState(1.3, 0.8, 0.2, 0.9, t=0.7)
        assert verify_compatibility(spec, state) <= 1e-14

    def test_random_specs_and_states(self):
        rng = np.random.default_rng(5)
        specs = [
            ek.LinearizableSpec(
                rho="1 + t^2/10", A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
            ),
            ek.LinearizableSpec(
                rho="exp(t/5)", A="cos(theta)*L", B="L^2", C="theta", F="sin(theta)", V="0.1*theta^2"
            ),
            ek.LinearizableSpec(rho="2", A="0.3", B="1 + L", C="L^2", F="1", V="cos(theta)"),
        ]
        for spec in specs:
            for _ in range(34):
                state = ek.PolarState(
                    r=float(rng.uniform(0.5, 2.0)),
                    theta=float(rng.uniform(0.2, 2.8)),
                    rdot=float(rng.uniform(-1.0, 1.0)),
                    thetadot=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)),
                    t=float(rng.uniform(0.0, 2.0)),
                )
                assert verify_compatibility(spec, state) <= 1e-9

    def test_tampered_structure_function_detected(self):
        # shift A on the frequency side only: the residual must move away
        # from zero by roughly the size of the injected term
        spec = ek.LinearizableSpec(
            rho="1 + t^2/10", A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
        )
        tampered = ek.LinearizableSpec(
            rho="1 + t^2/10", A="sin(theta) + 1", B="L", C="1", F="0", V="0.3*sin(theta)^2"
        )
        state = ek.PolarState(1.2, 0.9, 0.3, 1.1, t=0.4)
        env = {"t": 0.4, "r": 1.2, "theta": 0.9, "rdot": 0.3, "thetadot": 1.1}
        w2_good = evaluate(ek.frequency_from_linearizable(spec), env)
        w2_bad = evaluate(ek.frequency_from_linearizable(tampered), env)
        rho_v = evaluate(spec.rho, {"t": 0.4})
        psi = rho_v / state.r
        injected = abs((w2_bad - w2_good) * rho_v**4 / psi**3)
        assert verify_compatibility(spec, state) <= 1e-12
        # residual with the mismatched frequency equals the injected term
        lhs_shift = abs(rho_v**3 * (w2_bad - w2_good) * rho_v / psi**3)
        assert lhs_shift == pytest.approx(injected, rel=1e-12)
        assert injected >= 1e-3


class TestPipelineGuards:
    def test_turning_point_start_rejected(self, winternitz_spec):
        s0 = ek.PolarState(1.0, math.pi / 2, 0.3, 0.0)
        with pytest.raises(LinearizationError):
            build_pipeline(winternitz_spec, s0)

    def test_auto_domain_brackets_turnings(self, winternitz_spec):
        lo, hi = auto_theta_domain(winternitz_spec.V, 3.0, math.pi / 2)
        assert 0.70 <= lo <= 0.80
        assert 2.65 <= hi <= 2.75

    def test_auto_domain_names_the_potential_at_the_initial_angle(self, winternitz_spec):
        # V(pi/2) = 1: a level below it is forbidden, a level at it a turning point
        with pytest.raises(ForbiddenRegionError, match="invariant 0.5 < potential 1.0") as err:
            auto_theta_domain(winternitz_spec.V, 0.5, math.pi / 2)
        assert err.value.potential == 1.0
        with pytest.raises(TurningPointError, match="invariant 1.0, potential 1.0"):
            auto_theta_domain(winternitz_spec.V, 1.0, math.pi / 2)


class TestAugmentedSolve:
    def test_theta_of_t_independent_of_query_order(self, winternitz_spec, winternitz_state):
        times = [float(t) for t in np.linspace(0.0, 2.0, 25)]
        first = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        second = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        ascending = [first.theta_at(t) for t in times]
        descending = [second.theta_at(t) for t in reversed(times)]
        assert ascending == descending[::-1]

    def test_theta_window_is_psi_floor_event(self):
        # psi'' + psi = 0 from (1, 0): psi = cos(theta) falls to 1e-4 psi0 at
        # +-acos(1e-4), and Theta = integral of 1/cos^2 = tan
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-2.0, 2.0))
        sol = solve_linear(ode, 0.0, 1.0, 0.0, [-2.0, 2.0])
        quad = time_quadrature(sol, 0.0)
        lo, hi = quad.theta_window
        edge = math.acos(1e-4)
        assert abs(hi - edge) <= 1e-9
        assert abs(lo + edge) <= 1e-9
        assert sol.Theta.row(1.0)[2] == pytest.approx(math.tan(1.0), rel=1e-10)
        # psi is still solved beyond the window, up to the end of the grid
        assert sol.psi(1.9) == pytest.approx(math.cos(1.9), abs=1e-9)
        assert sol.psi(-1.9) == pytest.approx(math.cos(1.9), abs=1e-9)

    def test_basis_integrated_only_on_request(self, monkeypatch):
        import ermakov.linearize as lz

        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
        state = ek.PolarState(1.0, 0.0, 0.0, 1.0)
        calls = []
        real = lz.integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lz, "integrate", counting)
        pipe = build_pipeline(spec, state, t_window=(0.0, 2.0))
        assert len(calls) == 2  # one augmented run per direction; psi = 1 never nears the floor
        pipe.solution.psi1.row(1.7)
        pipe.solution.psi2.row(1.7)
        assert len(calls) == 6

    def test_time_dependent_rho_needs_time_window(self):
        spec = ek.LinearizableSpec(rho="1 + 0.1*t", A="0", B="0", C="0", F="0", V="0")
        state = ek.PolarState(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(LinearizationError, match="time window"):
            build_pipeline(spec, state)
        pipe = build_pipeline(spec, state, t_window=(0.0, 1.0))
        pipe.theta_at(0.5)
        with pytest.raises(OutsideWindowError):
            pipe.theta_at(1.5)  # Tau is integrated over the time window only
