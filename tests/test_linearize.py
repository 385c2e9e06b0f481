import math
import random
import re
from functools import partial

import mpmath
import numpy as np
import pytest

import ermakov as ek
import ermakov.linearize as lz
import list_stepper
from ermakov import systems
from ermakov.config import build_spec, load_config
from ermakov.expressions import evaluate, is_literal_zero
from ermakov.invariant import (
    ForbiddenRegionError,
    TurningPointError,
    invariant_level,
    momentum_from_gap,
)
from ermakov.linearize import (
    LinearizationError,
    OutsideWindowError,
    build_linear_ode,
    build_pipeline,
    solve_from_state,
    solve_linear,
    verify_compatibility,
)
from ermakov.numerics import linspace, quad_adaptive
from oracles import winternitz_angular_time_closed, winternitz_dpsi_closed, winternitz_psi_closed
from test_acceptance import LIBRATING_CONFIG, angular_time


def _uniform_rotation_pipeline():
    """V = F = 0, A = B = 0, C = 1, rho = 1 from (r, theta, rdot, thetadot) = (1, 0, 0, 1).

    L = 1, and the driven equation psi_tau_tau + psi = 1 with initial data
    (1, 0) keeps psi pinned at 1, so the angle and the time both advance as
    tau, and the radius stays 1.
    """
    spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
    return build_pipeline(spec, ek.PolarState(1.0, 0.0, 0.0, 1.0), t_window=(-6.0, 6.0))


def _free_particle():
    """V = A = B = C = F = 0, rho = 1 from (1, 0, 0, 1): the straight line r = 1/cos(theta).

    psi = cos(tau) and theta = tau, so t = tan(tau): psi falls to 1e-4 psi0 at
    tau = +-acos(1e-4), near t = +-1e4.
    """
    spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
    return spec, ek.PolarState(1.0, 0.0, 0.0, 1.0)


def _coefficients(ode, theta):
    """(p2, p1, p0, rhs) at theta, with L = branch sqrt(2 (I - V)) from the potential evaluated there."""
    p2 = 2.0 * ode.gap(theta)
    ell = ode.branch_sign * math.sqrt(p2)
    A, B, C, F, dv = ode.spec.linear_terms(theta, ell)
    return p2, -dv + ell * A, p2 + F - B, C


# a time window no escaping run reaches the end of: each side ends at the psi
# floor (Winternitz's near |t| = 4e3, the free particle's near 1e4)
_UNCUT = (-1e6, 1e6)


class TestBuildLinearODE:
    def test_usual_ermakov_is_homogeneous(self):
        spec = ek.LinearizableSpec(rho="cos(t)", A="0", B="0", C="0", F="0", V="0.3*sin(theta)^2")
        ode = build_linear_ode(spec, 1.0, (0.2, 2.9))
        assert is_literal_zero(ode.spec.C)
        assert all(_coefficients(ode, th)[3] == 0.0 for th in np.linspace(0.3, 2.8, 9))
        # p1 = h dh/dtheta with a = 0
        th = 1.1
        assert _coefficients(ode, th)[1] == pytest.approx(-0.6 * math.sin(th) * math.cos(th), rel=1e-12)

    def test_kepler_is_driven(self, winternitz_spec):
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        for th in np.linspace(1.0, 2.2, 7):
            assert _coefficients(ode, float(th))[3] == pytest.approx(
                evaluate(winternitz_spec.C, {}), rel=1e-14
            )

    def test_constant_momentum_reduces_to_oscillator(self):
        # V = F = 0 at level 1/2: the equation collapses to psi'' + psi = 0
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-1.0, 1.0))
        p2, p1, p0, _ = _coefficients(ode, 0.3)
        assert p2 == pytest.approx(1.0, rel=1e-15)
        assert p1 == 0.0
        assert p0 == pytest.approx(1.0, rel=1e-15)

    def test_forbidden_interval_rejected(self, winternitz_spec):
        with pytest.raises(ForbiddenRegionError) as err:
            build_linear_ode(winternitz_spec, 3.0, (0.1, 2.2))
        assert err.value.theta == pytest.approx(0.7416, abs=2e-3)

    @pytest.mark.parametrize("theta_domain", [(0.1, 2.2), (0.7, 2.0), (0.05, 0.75)])
    def test_turning_angle_is_the_closed_form_root(
        self, winternitz_params, winternitz_spec, winternitz_state, theta_domain
    ):
        # V = (g1 + g2 cos)/sin^2 meets the level I where I c^2 + g2 c + g1 - I = 0, c = cos theta
        with pytest.raises(ForbiddenRegionError) as err:
            solve_from_state(winternitz_spec, winternitz_state, theta_domain=theta_domain)
        level, g1, g2 = err.value.invariant, winternitz_params.g1, winternitz_params.g2
        root = math.acos((-g2 + math.sqrt(g2 * g2 + 4.0 * level * (level - g1))) / (2.0 * level))
        assert abs(err.value.theta - root) <= 1e-12

    def test_h_dh_identity(self, winternitz_spec):
        # h dh/dtheta = -dV/dtheta, checked by Richardson-extrapolated differences
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        dv = lambda th: evaluate(ode.spec.dV, {"theta": th})
        h = lambda th: momentum_from_gap(th, ode.invariant, ode.gap(th))
        for th in np.linspace(1.1, 2.1, 7):
            eps = 1e-3
            d1 = (h(th + eps) - h(th - eps)) / (2.0 * eps)
            d2 = (h(th + eps / 2) - h(th - eps / 2)) / eps
            dh = (4.0 * d2 - d1) / 3.0
            assert abs(h(th) * dh + dv(th)) <= 1e-9 * (1.0 + abs(dv(th)))


class TestSolveLinear:
    def test_cosine_solution(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-0.2, math.pi - 0.1))
        sol = solve_linear(ode, 0.0, 1.0, 0.0)
        errs = [abs(sol.psi(th) - math.cos(th)) for th in np.linspace(0.0, math.pi - 0.1, 40)]
        assert max(errs) <= 1e-9

    @staticmethod
    def _basis(ode, theta0):
        """Homogeneous solutions u1, u2 with data (1, 0), (0, 1): differences of driven solves.

        A row (L, psi, psi_tau) gives (psi, psi') with psi' = psi_tau/L.
        """
        particular = solve_linear(ode, theta0, 0.0, 0.0)
        e1, e2 = solve_linear(ode, theta0, 1.0, 0.0), solve_linear(ode, theta0, 0.0, 1.0)

        def rows(theta):
            ell, psi, psi_tau = particular.row(theta)
            return [[e.row(theta)[1] - psi, (e.row(theta)[2] - psi_tau) / ell] for e in (e1, e2)]

        return particular, rows

    def test_superposition(self, winternitz_spec):
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        alpha, beta = 0.7, -0.4
        sol = solve_linear(ode, 1.5, alpha, beta)
        combo, basis = self._basis(ode, 1.5)
        for th in np.linspace(1.05, 2.15, 9):
            direct = sol.psi(float(th))
            u1, u2 = basis(float(th))
            assembled = alpha * u1[0] + beta * u2[0] + combo.psi(float(th))
            assert abs(direct - assembled) <= 1e-9 * (1.0 + abs(direct))

    def test_wronskian_consistent_with_abel(self, winternitz_spec):
        ode = build_linear_ode(winternitz_spec, 3.0, (1.0, 2.2))
        _, basis = self._basis(ode, 1.5)

        def wronskian(theta):
            u1, u2 = basis(theta)
            return u1[0] * u2[1] - u2[0] * u1[1]

        w0 = wronskian(1.5)
        for th in np.linspace(1.1, 2.1, 7):
            factor = quad_adaptive(
                lambda lam: _coefficients(ode, lam)[1] / _coefficients(ode, lam)[0], 1.5, float(th)
            )
            assert wronskian(float(th)) * math.exp(factor) == pytest.approx(
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
            h = momentum_from_gap(th, level, level - evaluate(winternitz_spec.V, {"theta": th}))
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
            _, _, p0, rhs = _coefficients(ode, th)
            assert p0 * psi_c == pytest.approx(rhs, rel=1e-12)

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
        pipe = _uniform_rotation_pipeline()
        for t in np.linspace(-4.0, 4.0, 17):
            assert pipe.at(float(t))[0] == pytest.approx(t, abs=1e-12)

    def test_round_trip_inverse(self):
        # the row found for the time a run holds at tau is the run's row at tau
        pipe = _uniform_rotation_pipeline()
        for tau in (0.3, 1.7, 3.9, -2.2):
            row = (pipe.up if tau > 0.0 else pipe.down).at(tau)
            assert pipe.row(row[4]) == pytest.approx(row, abs=1e-10)

    def test_monotone_maps(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        thetas = [pipe.at(t)[0] for t in np.linspace(0.0, 2.0, 15)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        times = [y[4] for y in pipe.up.ys]  # t_tau = rho^2/psi^2 > 0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_negative_branch(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
        s0 = ek.PolarState(1.0, 0.0, 0.0, -1.0)
        pipe = build_pipeline(spec, s0, t_window=(0.0, 3.0))
        for t in (0.5, 2.0):
            assert pipe.at(t)[0] == pytest.approx(-t, abs=1e-10)

    def test_outside_window_raises(self):
        # the free particle escapes: its run ends at the psi floor, near t = 1e4
        spec, state = _free_particle()
        pipe = build_pipeline(spec, state, t_window=_UNCUT)
        end = pipe.up.ys[-1][4]
        assert 9e3 < end < 1.1e4
        with pytest.raises(OutsideWindowError, match=r"psi fell to 1e-4 psi0 \(an escape\)"):
            pipe.at(2e4)

    def test_nonpositive_psi_rejected(self, monkeypatch):
        import ermakov.linearize as lz

        # rho = -1 at r = 1 gives psi0 = -1: no angle map
        spec = ek.LinearizableSpec(rho="-1", A="0", B="0", C="0", F="0", V="0")
        monkeypatch.setattr(lz, "integrate", None)  # a solve would fail with TypeError
        with pytest.raises(LinearizationError, match="not positive"):
            build_pipeline(spec, ek.PolarState(1.0, 0.0, 0.0, 1.0), t_window=(0.0, 1.0))


class TestReconstruction:
    def test_uniform_rotation_radius(self):
        pipe = _uniform_rotation_pipeline()
        for t in (1.2, 2.5, -3.0):
            assert pipe.at(t)[1] == pytest.approx(1.0, abs=1e-12)

    def test_winternitz_round_trip(self, winternitz_spec, winternitz_state, winternitz_trajectory):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        for t in np.linspace(0.0, 2.0, 21):
            y = winternitz_trajectory.at(t)
            theta, r = pipe.at(float(t))
            assert abs(theta - y[1]) <= 1e-5
            assert abs(r - y[0]) <= 1e-5

    def test_kepler_orbit_is_inverse_psi(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        th, r = pipe.at(1.0)
        assert r == 1.0 / pipe.row(1.0)[2]
        # the psi of the angle solve at the same angle
        assert r == pytest.approx(1.0 / solve_from_state(winternitz_spec, winternitz_state).psi(th), rel=1e-9)


class TestFreeMotionSolution:
    def test_constant_solution_gives_circle(self):
        fm = ek.free_motion_system("u", "1")
        s0 = ek.PolarState(1.0, math.pi / 4, 0.0, 1.0)  # rdot = 0 so psi' = 0
        traj = ek.integrate_polar(fm, s0, ek.IntegratorConfig(t_span=(0.0, 0.12)))
        assert max(abs(y[0] - 1.0) for y in traj.ys) <= 1e-9

    def test_fit_recovers_affine_coefficients(self):
        fm = ek.free_motion_system("u", "1")
        s0 = ek.PolarState(1.0, math.pi / 4, -0.2, 1.0)
        traj = ek.integrate_polar(fm, s0, ek.IntegratorConfig(t_span=(0.0, 1.0)))
        turnings = [e.t for e in traj.events if e.name == "turning_point"]
        t_hi = 0.95 * turnings[0] if turnings else traj.t_end
        ts = np.linspace(0.0, t_hi, 60)
        ys = np.asarray(traj.sample(ts))
        slope, intercept = np.polyfit(ys[:, 1], 1.0 / ys[:, 0], 1)
        resid = float(np.max(np.abs(np.polyval([slope, intercept], ys[:, 1]) - 1.0 / ys[:, 0])))
        assert resid <= 1e-8
        # psi' = -rdot/L at t=0 fixes the slope; the intercept follows
        assert slope == pytest.approx(0.2, abs=1e-9)
        assert intercept == pytest.approx(1.0 - 0.2 * math.pi / 4, abs=1e-9)

    def test_solver_returns_straight_lines(self):
        fm = ek.free_motion_system("u", "1")
        ode = build_linear_ode(fm, 0.5, (0.3, 0.85))
        assert is_literal_zero(ode.spec.C)
        sol = solve_linear(ode, 0.5, 1.5, 1.0)
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

    def test_reads_neither_F_nor_the_potential(self):
        # the residual needs rho, A, B, C and the frequency only: an F and a V
        # with no value at the state must not make it fail
        spec = ek.LinearizableSpec(
            rho="1", A="sin(theta)", B="L", C="1", F="log(theta - 2)", V="sqrt(theta - 2)"
        )
        assert verify_compatibility(spec, ek.PolarState(1.2, 0.9, 0.3, 1.1)) <= 1e-12

    @staticmethod
    def _residual_tree_by_tree(spec, state):
        """The residual from evaluating rho, its derivatives, A, B, C and the frequency one at a time."""
        rho_v, rho_dv, rho_ddv = (evaluate(e, {"t": state.t}) for e in (spec.rho, *spec.rho_derivatives))
        psi = rho_v / state.r
        dpsi = -(rho_v * state.rdot - rho_dv * state.r) / (state.r**2 * state.thetadot)
        ell = state.angular_momentum
        env = {"t": state.t, "r": state.r, "theta": state.theta, "rdot": state.rdot,
               "thetadot": state.thetadot, "L": ell}
        A, B, C, w2 = (evaluate(e, env) for e in (spec.A, spec.B, spec.C, spec.omega_sq))
        lhs = rho_v**3 * (rho_ddv + w2 * rho_v) / psi**3
        return abs(lhs - (-ell * A * dpsi + B * psi + C))

    @pytest.mark.parametrize("F, V", [("1/(theta - 1)", "0.3*sin(theta)^2"), ("0", "sqrt(theta - 1)")])
    def test_failing_F_or_slope_leaves_the_residual_bit_for_bit(self, F, V):
        # the spec's compiled tuples also hold F and dV/dtheta, which fail at theta = 1
        spec = ek.LinearizableSpec(rho="1 + 0.1*t^2", A="sin(theta)", B="L", C="0.8", F=F, V=V)
        state = ek.PolarState(1.05, 1.0, 0.1, 1.3, t=0.4)
        for terms in (partial(spec.linear_terms, 1.0, state.angular_momentum),
                      partial(spec.polar_terms, 0.4, 1.05, 1.0, 0.1, 1.3)):
            with pytest.raises(ek.EvaluationError, match="division by zero"):
                terms()
        expected = self._residual_tree_by_tree(spec, state).hex()
        assert verify_compatibility(spec, state).hex() == expected

    @pytest.mark.parametrize(
        "A, r, message",
        [("1/(theta - 1)", 1.05, "division by zero"), ("0", 1e100, "power domain error: 1e+100^4.0")],
        ids=["A", "frequency"],
    )
    def test_failing_structure_function_or_frequency_raises_its_error(self, A, r, message):
        spec = ek.LinearizableSpec(rho="1", A=A, B="L", C="1", F="0", V="0")
        with pytest.raises(ek.EvaluationError) as info:
            verify_compatibility(spec, ek.PolarState(r, 1.0, 0.1, 1.3))
        assert str(info.value) == message

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
    def test_turning_point_start_is_followed(self, winternitz_spec):
        # thetadot = 0 gives L = 0, an ordinary start in angular time; the angle solve has none
        s0 = ek.PolarState(1.0, math.pi / 2, 0.3, 0.0)
        with pytest.raises(LinearizationError, match="turning point"):
            solve_from_state(winternitz_spec, s0)
        _assert_follows_the_direct_run(winternitz_spec, s0, 1.0)

    def test_auto_domain_brackets_turnings(self, winternitz_params, winternitz_spec, winternitz_state):
        # without a span each run ends at the event where the gap I - V falls to the
        # margin m = 1e-3 (1 + |I|): the angles where V = I - m, in closed form
        librating = load_config(LIBRATING_CONFIG)  # V = 2 cos^2 theta, I = 0.5
        sol = solve_from_state(build_spec(librating), librating.initial_state)
        level = sol.ode.invariant
        assert level == 0.5
        edge = math.sqrt((level - 1e-3 * (1.0 + level)) / 2.0)
        assert abs(sol.window[0] - math.acos(edge)) <= 1e-10
        assert abs(sol.window[1] - math.acos(-edge)) <= 1e-10
        assert sol.up.termination == sol.down.termination == "event:turning_margin"
        # V = (g1 + g2 cos)/sin^2 equals J = I - m where J c^2 + g2 c + g1 - J = 0, c = cos theta
        sol = solve_from_state(winternitz_spec, winternitz_state)
        level, g1, g2 = sol.ode.invariant, winternitz_params.g1, winternitz_params.g2
        j = level - 1e-3 * (1.0 + level)
        roots = [math.acos((-g2 + s * math.sqrt(g2 * g2 + 4.0 * j * (j - g1))) / (2.0 * j)) for s in (1, -1)]
        assert np.allclose(sol.window, roots, rtol=0.0, atol=1e-10)
        # a run that meets neither ends 2 pi from theta0, exactly
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        sol = solve_from_state(spec, ek.PolarState(1.0, 0.5, 0.0, 1.0))
        assert sol.window == (0.5 - 2.0 * math.pi, 0.5 + 2.0 * math.pi)
        assert sol.up.termination == sol.down.termination == "completed"

    def test_auto_domain_names_the_potential_at_the_initial_angle(self, winternitz_spec):
        # V(pi/2) = 1, and the level clears it by 5e-7, within the margin 2e-3: the
        # first step would end the run, so the start is named a turning point
        state = ek.PolarState(1.0, math.pi / 2, 0.0, 1e-3)
        with pytest.raises(TurningPointError, match=r"^turning point at theta=1.5707963267948966 \(invariant "
                           r"1.0000005, potential 1.0; initial angle too close to a turning point\)$"):
            solve_from_state(winternitz_spec, state)

    def test_overflowing_level_is_not_a_turning_point(self, winternitz_spec):
        # (r^2 thetadot)^2 overflows to inf: no margin can tell it from V
        state = ek.PolarState(1e150, math.pi / 2, 0.0, 2.0)
        for build in (partial(build_pipeline, t_window=(0.0, 1.0)), solve_from_state):
            with pytest.raises(LinearizationError, match="invariant level inf .* is not finite"):
                build(winternitz_spec, state)

    @pytest.mark.parametrize("theta0, thetadot", [(math.pi / 4, 1.0), (1e-9, 1.0), (1e-9, -1.0)])
    def test_auto_domain_stops_short_of_a_singular_end(self, theta0, thetadot):
        # free motion f = u: V = U(tan theta) has a log singularity at theta = 0, which
        # the run towards it creeps into; it stops once its last 16 steps cover under 1e-4
        # of its travel, short of 0, and the run away from it ends at the turning margin
        fm = ek.free_motion_system("u", "1")
        sol = solve_from_state(fm, ek.PolarState(1.0, theta0, -0.2, thetadot))
        lo, hi = sol.window
        assert 0.0 < lo < min(1e-3, theta0) and theta0 < hi
        assert (sol.down.termination, sol.up.termination) == ("stopped", "event:turning_margin")
        ts = sol.down.ts
        assert abs(ts[-1] - ts[-17]) < 1e-4 * abs(ts[-1] - theta0)
        assert all(math.isfinite(psi) for *_, psi in sol.coefficients(linspace(lo, hi, 9)))

    def test_only_a_handed_in_domain_is_checked_on_the_grid(
        self, winternitz_spec, winternitz_state, monkeypatch
    ):
        import ermakov.linearize as lz

        checked = []
        real = lz.build_linear_ode
        monkeypatch.setattr(lz, "build_linear_ode", lambda *a: checked.append(a) or real(*a))
        build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        solve_from_state(winternitz_spec, winternitz_state)
        assert checked == []
        solve_from_state(winternitz_spec, winternitz_state, theta_domain=(1.0, 2.2))
        assert len(checked) == 1
        # the handed-in domain reaches past the turning angle near 0.7416
        with pytest.raises(ForbiddenRegionError) as err:
            solve_from_state(winternitz_spec, winternitz_state, theta_domain=(0.1, 2.2))
        assert err.value.theta == pytest.approx(0.7416, abs=2e-3)


def _assert_follows_the_direct_run(spec, state, t_end):
    """The pipeline over [t0, t_end] matches a direct run to the round-trip tolerance, 1e-5."""
    cfg = ek.IntegratorConfig(t_span=(state.t, t_end), rel_tol=1e-12, abs_tol=1e-14)
    direct = ek.integrate_polar(spec, state, cfg)
    assert direct.termination == "completed"
    pipe = build_pipeline(spec, state, t_window=(state.t, t_end))
    for t in np.linspace(state.t, t_end, 41):
        r, theta = direct.at(float(t))[:2]
        assert np.allclose(pipe.at(float(t)), (theta, r), rtol=0.0, atol=1e-5), t
    return direct


class TestPipelineScansReachedSides:
    """build_pipeline runs only the time sides of t0 that its window reaches, and scans no angle.

    The run in angular time needs no angle domain: no step evaluates V, only
    dV/dtheta among the spec's linear terms.  A config's initial time is the
    start of its t_span, so a command's pipeline makes one run, forward.
    """

    @staticmethod
    def _angles_of_v(spec):
        """Angles at which the spec's compiled V runs from now on."""
        seen = []
        evaluate(spec.V, {"theta": 1.0})
        real = spec.V._lowered
        object.__setattr__(spec.V, "_lowered", lambda env: seen.append(env["theta"]) or real(env))
        return seen

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_window_from_t0_scans_one_side(self, winternitz_params, sign):
        spec = ek.winternitz_system(winternitz_params)  # its own V, compiled here
        state = ek.PolarState(1.0, math.pi / 2, 0.0, 2.0 * sign)
        seen = self._angles_of_v(spec)
        pipe = build_pipeline(spec, state, t_window=(0.0, 2.0))
        assert seen == []
        assert pipe.down is None and pipe.up.termination == "stopped"
        # the angle leaves theta0 the way thetadot points; t passes 2 on the last step only
        assert all((y[0] - state.theta) * sign > 0.0 for y in pipe.up.ys[1:])
        times = [y[4] for y in pipe.up.ys]
        assert times[0] == 0.0 and times[-2] < 2.0 <= times[-1]

    def test_window_around_t0_scans_both_sides(self, winternitz_params, winternitz_state):
        spec = ek.winternitz_system(winternitz_params)
        seen = self._angles_of_v(spec)
        pipe = build_pipeline(spec, winternitz_state, t_window=(-1.0, 2.0))
        assert seen == []
        assert pipe.up.ys[-2][4] < 2.0 <= pipe.up.ys[-1][4]
        assert pipe.down.ys[-2][4] > -1.0 >= pipe.down.ys[-1][4]
        assert pipe.down.t_end < 0.0 < pipe.up.t_end  # tau runs each way with the time

    @pytest.mark.parametrize("thetadot", [1.0, -1.0])
    def test_both_sides_blocked_within_one_step(self, thetadot):
        # free motion f = u: one step below 1e-9 leaves the domain of U(tan theta),
        # one step above it the potential exceeds the level; the angle falls into the
        # log singularity at theta = 0 at once, and the run stops where the direct run stops
        fm = ek.free_motion_system("u", "1")
        state = ek.PolarState(1.0, 1e-9, -0.2, thetadot)
        with pytest.raises(LinearizationError, match=r"t=(\S+) \(step_size_underflow\)$") as err:
            build_pipeline(fm, state, t_window=(0.0, 1.0))
        direct = ek.integrate_polar(fm, state, ek.IntegratorConfig(t_span=(0.0, 1.0)))
        assert direct.termination == "step_size_underflow"
        t_stop = float(re.search(r"t=(\S+) \(", str(err.value)).group(1))
        assert t_stop == pytest.approx(direct.t_end, rel=1e-3)

    @pytest.mark.parametrize(
        "theta0, thetadot, domain",
        [
            (2.6, 0.24039413188285202, (0.890175423670, 2.604112223747)),
            (0.8, -0.23359902542046712, (0.795946808573, 2.665358850177)),
        ],
    )
    def test_only_the_reached_side_blocked(self, winternitz_spec, theta0, thetadot, domain):
        # the level meets V within pi/720 on the side the angle would take: the angle
        # turns back at once, into the angle solve's domain, and the run follows it
        state = ek.PolarState(1.0, theta0, 0.0, thetadot)
        level = invariant_level(1.0, theta0, thetadot, winternitz_spec.V)
        window = solve_from_state(winternitz_spec, state).window
        assert np.allclose(window, domain, rtol=0.0, atol=1e-10)
        assert min(abs(end - theta0) for end in window) < math.pi / 720
        direct = _assert_follows_the_direct_run(winternitz_spec, state, 1.0)
        assert [e.name for e in direct.events][:1] == ["turning_point"]
        # the level clears V wherever the run goes
        pipe = build_pipeline(winternitz_spec, state, t_window=(0.0, 1.0))
        assert all(evaluate(winternitz_spec.V, {"theta": y[0]}) < level for y in pipe.up.ys)


class TestAugmentedSolve:
    def test_theta_of_t_independent_of_query_order(self, winternitz_spec, winternitz_state):
        times = [float(t) for t in np.linspace(0.0, 2.0, 25)]
        first = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        second = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        ascending = [first.row(t) for t in times]
        descending = [second.row(t) for t in reversed(times)]
        assert ascending == descending[::-1]

    def test_theta_window_is_psi_floor_event(self):
        # psi_tau_tau + psi = 0 from (1, 0): psi = cos(tau) falls to 1e-4 psi0 at
        # tau = +-acos(1e-4); theta = tau, and the time t = integral of 1/cos^2 = tan
        spec, state = _free_particle()
        pipe = build_pipeline(spec, state, t_window=_UNCUT)
        assert pipe.up.termination == pipe.down.termination == "event:psi_floor"
        edge = math.acos(1e-4)
        assert abs(pipe.up.t_end - edge) <= 1e-9
        assert abs(pipe.down.t_end + edge) <= 1e-9
        theta, _, psi, _, t = pipe.up.at(1.0)
        assert t == pytest.approx(math.tan(1.0), rel=1e-10)
        assert (theta, psi) == pytest.approx((1.0, math.cos(1.0)), abs=1e-12)

    def test_plain_solve_runs_past_the_psi_floor(self):
        # without the angle map psi is solved up to the ends of the domain
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        ode = build_linear_ode(spec, 0.5, (-2.0, 2.0))
        sol = solve_linear(ode, 0.0, 1.0, 0.0)
        assert sol.window == (-2.0, 2.0)
        assert sol.psi(1.9) == pytest.approx(math.cos(1.9), abs=1e-9)
        assert sol.psi(-1.9) == pytest.approx(math.cos(1.9), abs=1e-9)

    def test_linearize_solves_one_plain_run_per_side(self, monkeypatch, tmp_path):
        import ermakov.linearize as lz
        from ermakov.cli import main

        calls = []
        real = lz.integrate

        def recording(rhs, y0, cfg, events=(), until=None):
            calls.append((len(y0), list(events), until))
            return real(rhs, y0, cfg, events, until)

        monkeypatch.setattr(lz, "integrate", recording)
        assert main(["linearize", "--preset", "winternitz-default", "--out", str(tmp_path)]) == 0
        # (L, psi, psi_tau) each way: no angle map, no psi floor; each run ends at its
        # turning margin, or where it stalls
        assert [(dim, [e.name for e in events], until is not None) for dim, events, until in calls] == [
            (3, ["turning_margin"], True), (3, ["turning_margin"], True)
        ]

    @pytest.mark.parametrize("thetadot", [2.0, -2.0])
    def test_angle_solve_and_time_run_agree_on_psi(self, winternitz_spec, thetadot):
        # the equation in theta and in tau give one (L, psi, psi_tau) at each angle
        state = ek.PolarState(1.0, math.pi / 2, 0.1, thetadot)
        pipe = build_pipeline(winternitz_spec, state, t_window=(0.0, 2.0))
        sol = solve_from_state(winternitz_spec, state)
        for t in np.linspace(0.0, 2.0, 9):
            theta, *shared, _ = pipe.row(float(t))
            assert sol.row(theta) == pytest.approx(shared, rel=1e-10)

    def test_time_dependent_rho_needs_time_window(self):
        spec = ek.LinearizableSpec(rho="1 + 0.1*t", A="0", B="0", C="0", F="0", V="0")
        state = ek.PolarState(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(TypeError, match="t_window"):
            build_pipeline(spec, state)  # every pipeline needs one
        pipe = build_pipeline(spec, state, t_window=(0.0, 1.0))
        pipe.at(0.5)
        with pytest.raises(OutsideWindowError):
            pipe.at(1.5)  # the time is solved over the time window only


def _reference_angle_row(sol, theta):
    """LinearSolution.row as it was: the initial data itself at theta0, else a window
    check and one bisection of the side's run per angle."""
    x = float(theta)
    if x == sol.theta0:
        return sol.y0
    run = sol.up if x > sol.theta0 else sol.down
    lo, hi = sol.window
    if not (run and lo - 1e-12 <= x <= hi + 1e-12):
        raise OutsideWindowError(f"theta={x!r} outside the window [{lo}, {hi}]")
    return list_stepper.reference_at(run, x)


def _reference_time_row(pipe, t):
    """AngularTimeRun.row as it was: the initial data itself at t0, else the step holding
    t by one keyed bisection of its run's t column, then a Newton solve, one time at a time."""
    t = float(t)
    lo, hi = pipe.window
    if not lo <= t <= hi:
        raise OutsideWindowError(f"t={t!r} outside the time window [{lo}, {hi}]")
    if t == pipe.y0[4]:
        return pipe.y0
    sign = 1.0 if t > pipe.y0[4] else -1.0
    run = pipe.up if sign > 0.0 else pipe.down
    end = run.ys[-1][4]
    if sign * (t - end) > 0.0:
        raise OutsideWindowError(f"t={t!r} lies past t={end!r}, where psi fell to 1e-4 psi0 (an escape)")
    return list_stepper.reference_invert(run, 4, t)


def _same_error(reference, *calls):
    """Each call raises the OutsideWindowError text that the reference raises."""
    with pytest.raises(OutsideWindowError) as expected:
        reference()
    for call in calls:
        with pytest.raises(OutsideWindowError) as found:
            call()
        assert str(found.value) == str(expected.value)


class TestGridAnswers:
    """The grid forms answer in one ordered sweep per run, bit for bit as one
    lookup per point, in the caller's order, and name the same first bad point."""

    def test_angle_grids(self, winternitz_spec, winternitz_state):
        sol = solve_from_state(winternitz_spec, winternitz_state, (1.0, 2.0))
        theta0 = winternitz_state.theta
        lo, hi = sol.window
        node_angles = sol.up.ts[::7] + sol.down.ts[::5]
        grids = {
            "holds theta0": linspace(lo, hi, 101) + [theta0],
            "ends at theta0": linspace(lo, theta0, 40),
            "starts at theta0": linspace(theta0, hi, 40),
            "shuffled, with nodes and repeats": [*node_angles, theta0, hi, hi, lo, theta0],
        }
        random.Random(3).shuffle(grids["shuffled, with nodes and repeats"])
        for name, grid in grids.items():
            expected = [_reference_angle_row(sol, th) for th in grid]
            assert sol.rows(grid) == expected, name
            assert [sol.row(th) for th in grid] == expected, name
            assert [sol.psi(th) for th in grid] == [row[1] for row in expected], name
            terms = [winternitz_spec.linear_terms(th, row[0]) for th, row in zip(grid, expected)]
            assert sol.coefficients(grid) == sol.coefficients(iter(grid)) == [
                (ell * ell, -dv + ell * A, ell * ell + F - B, C, psi)
                for (ell, psi, _), (A, B, C, F, dv) in zip(expected, terms)
            ], name

    def test_angle_grid_leaving_the_window(self, winternitz_spec, winternitz_state):
        sol = solve_from_state(winternitz_spec, winternitz_state, (1.0, 2.0))
        for grid in ([1.5, 2.5, 0.5], [1.5, 0.5, 2.5], [sol.theta0, math.nan]):
            _same_error(
                lambda: [_reference_angle_row(sol, th) for th in grid],
                lambda: sol.rows(grid),
                lambda: sol.coefficients(grid),
            )

    def test_time_grids_both_ways(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(-2.0, 2.0))
        assert pipe.up and pipe.down
        node_times = [y[4] for y in pipe.up.ys[:-1:3] + pipe.down.ys[:-1:4]]  # the last ones pass the window
        times = [*linspace(-2.0, 2.0, 41), *node_times, 0.0, 2.0, -2.0, 2.0]
        random.Random(5).shuffle(times)
        for grid in (times, sorted(times), sorted(times, reverse=True)):
            expected = [_reference_time_row(pipe, t) for t in grid]
            assert pipe.rows(grid) == expected
            assert [pipe.row(t) for t in grid] == expected
            radii = [evaluate(winternitz_spec.rho, {"t": t}) / row[2] for t, row in zip(grid, expected)]
            assert pipe.sample(grid) == pipe.sample(iter(grid)) == [(row[0], r) for row, r in zip(expected, radii)]
        _same_error(
            lambda: [_reference_time_row(pipe, t) for t in (1.0, -2.5, 2.5)],
            lambda: pipe.rows([1.0, -2.5, 2.5]),
            lambda: pipe.sample([1.0, -2.5, 2.5]),
        )

    def test_time_past_the_psi_floor(self):
        spec, state = _free_particle()
        pipe = build_pipeline(spec, state, t_window=_UNCUT)
        floor = pipe.up.ys[-1][4]
        times = [0.5 * floor, -0.5 * floor, floor]
        assert pipe.rows(times) == [_reference_time_row(pipe, t) for t in times]
        for grid in ([0.5 * floor, 2.0 * floor, -1e7], [-2.0 * floor, 0.0]):
            _same_error(
                lambda: [_reference_time_row(pipe, t) for t in grid],
                lambda: pipe.rows(grid),
                lambda: pipe.sample(grid),
            )


class TestRowsAreFresh:
    """A row handed out is the caller's own list, even at the initial data."""

    def test_angle_row_at_theta0(self, winternitz_spec, winternitz_state):
        sol = solve_from_state(winternitz_spec, winternitz_state)
        theta0 = winternitz_state.theta
        psi0 = sol.psi(theta0)
        sol.row(theta0)[1] = 99.0
        assert sol.psi(theta0) == psi0
        first, second = sol.rows([theta0, theta0])
        first[1] = 99.0
        assert second[1] == sol.y0[1] == psi0

    def test_time_row_at_t0(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        start = pipe.at(0.0)
        pipe.row(0.0)[0] = -5.0
        assert pipe.at(0.0) == start == (winternitz_state.theta, winternitz_state.r)
        first, second = pipe.rows([0.0, 0.0])
        first[0] = -5.0
        assert second == pipe.y0 and second[0] == winternitz_state.theta


def _kepler_case():
    spec = ek.kepler_ermakov_system("0.4 + 0.1*cos(theta)^2", "1", "0.2*cos(theta)^2")
    return spec, ek.PolarState(1.0, 1.0, 0.05, 1.3), (0.0, 1.5)


def _rho_quadratic_case():
    spec = ek.LinearizableSpec(
        rho="1 + 0.1*t^2", A="sin(theta)", B="L", C="0.8", F="0", V="0.3*sin(theta)^2"
    )
    return spec, ek.PolarState(1.05, 1.0, 0.1, 1.3), (0.0, 1.2)


def _free_motion_case():
    spec = ek.free_motion_system("0.5*u", "1 + 0.1*t")
    return spec, ek.PolarState(1.0, 0.77, -0.2, 1.0), (0.0, 0.12)


class TestWindowedSolve:
    """build_pipeline runs in angular time only as far as its time window reaches."""

    @pytest.fixture(
        params=["winternitz", "kepler", "rho = 1 + a t^2", "free motion, rho = 1 + b t"]
    )
    def case(self, request, winternitz_spec, winternitz_state):
        return {
            "winternitz": lambda: (winternitz_spec, winternitz_state, (0.0, 2.0)),
            "kepler": _kepler_case,
            "rho = 1 + a t^2": _rho_quadratic_case,
            "free motion, rho = 1 + b t": _free_motion_case,
        }[request.param]()

    def test_matches_the_whole_domain_solve_bit_for_bit(self, case):
        # the reference runs over ten times the window
        spec, state, window = case
        windowed = build_pipeline(spec, state, t_window=window)
        reference = build_pipeline(spec, state, t_window=(window[0], 10.0 * window[1]))
        times = [float(t) for t in np.linspace(*window, 17)]
        assert [windowed.at(t) for t in times] == [reference.at(t) for t in times]
        assert [windowed.row(t) for t in times] == [reference.row(t) for t in times]
        # the cut run is the first part of the whole one: same nodes, same steps
        cut, full = windowed.up, reference.up
        assert len(cut.ts) < len(full.ts)
        assert cut.ts == full.ts[: len(cut.ts)]
        assert cut.slopes == full.slopes[: len(cut.slopes)]

    @pytest.fixture
    def spans(self, monkeypatch):
        """The tau span of every integrate call the pipeline makes."""
        import ermakov.linearize as lz

        spans = []
        real = lz.integrate

        def recording(rhs, y0, cfg, *args, **kwargs):
            spans.append(cfg.t_span)
            return real(rhs, y0, cfg, *args, **kwargs)

        monkeypatch.setattr(lz, "integrate", recording)
        return spans

    def test_backward_side_not_integrated_when_window_starts_at_t0(self, case, spans):
        spec, state, window = case
        pipe = build_pipeline(spec, state, t_window=window)
        assert pipe.down is None
        # one run, forward in tau and in time, which carries the time for every rho
        assert len(spans) == 1 and spans[0][0] == 0.0 < spans[0][1]
        assert pipe.window[0] == state.t

    def test_one_run_per_side_answers_both_maps(self, case, spans):
        spec, state, window = case
        straddling = (-0.25 * window[1], window[1])
        pipe = build_pipeline(spec, state, t_window=straddling)
        assert sorted(span[1] > span[0] == 0.0 for span in spans) == [False, True]
        for t in straddling:
            row = pipe.row(t)
            assert row[4] == pytest.approx(t, abs=1e-12)  # the time column, inverted
            # one row answers the angle and the radius
            assert pipe.at(t) == (row[0], evaluate(spec.rho, {"t": t}) / row[2])

    def test_rho_without_a_value_past_the_window_end(self):
        # rho = 1 + sqrt(1.2 - t) ends at the window end, where the last step
        # of the run reads it past the end.  Tau(t) = G(u(0)) - G(u(t)) with
        # u = sqrt(1.2 - t), G(u) = 2 (ln(1 + u) + 1/(1 + u)), and the angle
        # integral of 1/(h psi^2) up to theta(t) equals it
        spec = ek.LinearizableSpec(
            rho="1 + sqrt(1.2 - t)", A="sin(theta)", B="L", C="0.8", F="0", V="0.3*sin(theta)^2"
        )
        state = ek.PolarState(1.05, 1.0, 0.1, 1.3)
        pipe = build_pipeline(spec, state, t_window=(0.0, 1.2))
        plain = solve_from_state(spec, state)
        ode = plain.ode

        def slope(th):
            return 1.0 / (momentum_from_gap(th, ode.invariant, ode.gap(th)) * plain.psi(th) ** 2)

        def big_g(t):
            u = math.sqrt(1.2 - t)
            return 2.0 * (math.log1p(u) + 1.0 / (1.0 + u))

        for t in np.linspace(0.0, 1.2, 13):
            theta = pipe.at(float(t))[0]
            tau = big_g(0.0) - big_g(float(t))
            assert quad_adaptive(slope, state.theta, theta) == pytest.approx(tau, abs=1e-9)
        assert pipe.at(1.2)[1] == 1.0 / pipe.row(1.2)[2]  # rho(1.2) = 1

    @pytest.mark.parametrize(
        "thetadot, window, solved",
        [
            (2.0, (0.0, 2.0), "up"),  # branch +1
            (-2.0, (0.0, 2.0), "down"),  # branch -1
            (2.0, (0.0, -2.0), "down"),  # reversed t_span
            (-2.0, (0.0, -2.0), "up"),
            (2.0, (-1.0, 1.5), "both"),  # a library window straddling t0
        ],
    )
    def test_window_edges(self, winternitz_spec, thetadot, window, solved):
        # ``solved``: the way the angle leaves theta0 over the window
        state = ek.PolarState(r=1.0, theta=math.pi / 2, rdot=0.0, thetadot=thetadot)
        pipe = build_pipeline(winternitz_spec, state, t_window=window)
        whole = build_pipeline(winternitz_spec, state, t_window=_UNCUT)
        for t in window:
            assert pipe.at(t) == whole.at(t)
        assert (pipe.up is not None, pipe.down is not None) == (max(window) > 0.0, min(window) < 0.0)
        angles = [y[0] for run in (pipe.up, pipe.down) if run for y in run.ys]
        assert (max(angles) > state.theta, min(angles) < state.theta) == {
            "up": (True, False), "down": (False, True), "both": (True, True)
        }[solved]

    def test_constant_rho_query_past_the_window_names_it(self, winternitz_spec, winternitz_state):
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(0.0, 2.0))
        for t in (2.0 + 1e-9, -1e-9, 5.0):
            with pytest.raises(OutsideWindowError, match=r"outside the time window \[0.0, 2.0\]"):
                pipe.at(t)


class TestCarriedGap:
    """The angle runs carry L, with L^2/2 the gap I - V(theta), so no step evaluates V.

    For free motion V = U(tan theta) is a quadrature, memoized per angle; a
    solve, and a whole ``linearize``, evaluate V at theta0 alone, one
    quadrature.  The run in angular time needs no V at all.
    """

    _STATE = ek.PolarState(1.0, math.pi / 4, -0.2, 1.0)  # free-motion-demo's

    @staticmethod
    def _quadratures(monkeypatch):
        """The arguments of every U quadrature from now on (each spec's memo starts cold)."""
        quadratures = []
        real = systems.quad_adaptive
        monkeypatch.setattr(systems, "quad_adaptive", lambda *a, **k: quadratures.append(a) or real(*a, **k))
        return quadratures

    def test_solve_linear(self, monkeypatch):
        quadratures = self._quadratures(monkeypatch)
        sol = solve_from_state(ek.free_motion_system("u", "1"), self._STATE)
        sol.coefficients([0.5])
        assert len(quadratures) <= 1

    def test_build_pipeline(self, monkeypatch):
        quadratures = self._quadratures(monkeypatch)
        spec = ek.free_motion_system("u", "1")
        pipe = build_pipeline(spec, self._STATE, t_window=(0.0, 0.15))
        for t in np.linspace(0.0, 0.15, 7):
            pipe.at(float(t))
        assert quadratures == []

    def test_linearize_rows(self, monkeypatch, tmp_path):
        from ermakov.cli import main

        quadratures = self._quadratures(monkeypatch)
        assert main(["linearize", "--preset", "free-motion-demo", "--out", str(tmp_path)]) == 0
        assert len(quadratures) <= 1


class TestAngleRunSetUp:
    """The runs' right-hand sides do no per-run work at each stage."""

    def test_constant_rho_is_read_once_per_run(self, monkeypatch, winternitz_spec, winternitz_state):
        import ermakov.linearize as lz

        reads = []
        real = lz.evaluate

        def counting(expr, env=None):
            reads.append(expr is winternitz_spec.rho)
            return real(expr, env)

        monkeypatch.setattr(lz, "evaluate", counting)
        pipe = build_pipeline(winternitz_spec, winternitz_state, t_window=(-1.0, 2.0))
        assert pipe.up and pipe.down
        assert sum(reads) == 3  # the initial data, then once for each side's run

    def test_failing_constant_rho_fails_each_stage(self):
        # read once or not, a constant rho with no value rejects every step, as it always has
        # (build_pipeline fails earlier, at the initial data: the run is called by hand)
        import ermakov.linearize as lz

        spec = ek.LinearizableSpec(rho="sqrt(0 - 1)", A="0", B="0", C="1", F="0", V="0.1*sin(theta)^2")
        with pytest.raises(LinearizationError, match=r"theta=1\.5, t=0\.0 \(step_size_underflow\)"):
            lz._time_run(spec, [1.5, 2.0, 1.0, 0.0, 0.0], 1.0)


class TestWinternitzQuadraturesAgainstMpmath:
    """T(theta) = integral of 1/sqrt(2 (I - V)) from pi/2, by mpmath.quad at 40 digits.

    The tolerances come from each function's own accuracy target, not from
    the observed errors: ``angular_time`` asks ``quad_adaptive`` for 1e-11
    relative (1e-13 absolute); the closed forms are a few roundings of at
    most one ulp each, fed through asin, whose slope 1/sqrt(1 - arg^2)
    amplifies them.
    """

    EPS = 2.0**-52
    CASES = [
        # (mu0, g1, g2, g3), invariant level, angles inside the allowed band
        ((1.0, 1.0, 0.5, 1.0), 3.0, (0.9, 1.3, 2.0, 2.5)),
        ((1.0, 0.2, 0.1, 1.0), 2.0, (0.6, 1.0, 1.7, 2.3)),
        ((1.1, 0.9, 0.4, 0.9), 2.5, (1.0, 1.45, 2.2)),
    ]

    @staticmethod
    def _reference(params, level, theta):
        with mpmath.workdps(40):
            g1, g2, lv = mpmath.mpf(params.g1), mpmath.mpf(params.g2), mpmath.mpf(level)

            def inverse_momentum(lam):
                v = (g1 + g2 * mpmath.cos(lam)) / mpmath.sin(lam) ** 2
                return 1 / mpmath.sqrt(2 * (lv - v))

            return mpmath.quad(inverse_momentum, [mpmath.pi / 2, mpmath.mpf(theta)])

    def _closed_tolerance(self, params, level, theta):
        """Rounding of the arcsine antiderivative at theta and at the base."""
        d = math.sqrt(params.g2**2 + 4.0 * level * (level - params.g1))
        slopes = [
            1.0 + 1.0 / math.sqrt(1.0 - ((2.0 * level * math.cos(th) + params.g2) / d) ** 2)
            for th in (theta, math.pi / 2)
        ]
        return 16.0 * self.EPS * sum(slopes) / math.sqrt(2.0 * level)

    @pytest.mark.parametrize("raw, level, thetas", CASES)
    def test_angular_time(self, raw, level, thetas):
        params = ek.WinternitzParams(*raw)
        V = ek.winternitz_system(params).V
        for th in thetas:
            ref = float(self._reference(params, level, th))
            assert abs(angular_time(th, level, V) - ref) <= max(1e-13, 1e-11 * abs(ref))

    @pytest.mark.parametrize("raw, level, thetas", CASES)
    def test_closed_angular_time(self, raw, level, thetas):
        params = ek.WinternitzParams(*raw)
        for th in thetas:
            ref = float(self._reference(params, level, th))
            tol = self._closed_tolerance(params, level, th)
            assert abs(winternitz_angular_time_closed(params, level, th) - ref) <= tol
            shifted = winternitz_angular_time_closed(params, level, th, J=0.25)
            assert abs(shifted - (ref + 0.25)) <= tol + self.EPS * abs(ref + 0.25)

    @pytest.mark.parametrize("raw, level, thetas", CASES)
    def test_closed_psi(self, raw, level, thetas):
        params = ek.WinternitzParams(*raw)
        c1, c2, J = 0.4, -0.3, 0.05
        k = math.sqrt(2.0 * (level + params.g3))
        for th in thetas:
            with mpmath.workdps(40):
                kk = mpmath.sqrt(2 * (mpmath.mpf(level) + mpmath.mpf(params.g3)))
                t_par = self._reference(params, level, th) + mpmath.mpf(J)
                ref = float(
                    c1 * mpmath.cos(kk * t_par) + c2 * mpmath.sin(kk * t_par) + params.mu0 / kk**2
                )
            # the time's error moves psi by at most k (|c1| + |c2|) per unit of T,
            # and assembling psi adds a few roundings
            tol = (
                k * (abs(c1) + abs(c2)) * (self._closed_tolerance(params, level, th) + self.EPS)
                + 8.0 * self.EPS * (abs(c1) + abs(c2) + params.mu0 / k**2)
            )
            assert abs(winternitz_psi_closed(params, level, c1, c2, J, th) - ref) <= tol
