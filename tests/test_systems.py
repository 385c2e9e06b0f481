import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ermakov as ek
from ermakov.expressions import Num, evaluate, free_variables, is_literal_zero, parse
from ermakov.systems import _coupling_potential, cartesian_rhs_function, polar_rhs_function
from oracles import winternitz_hamiltonian


class TestStateMaps:
    def test_cartesian_to_polar_values(self):
        s = ek.polar_state_from_cartesian(ek.CartesianState(1.0, 1.0, 0.0, 1.0))
        assert s.r == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert s.theta == pytest.approx(math.pi / 4, rel=1e-15)
        assert s.rdot == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert s.thetadot == pytest.approx(0.5, rel=1e-15)

    def test_round_trip(self):
        s0 = ek.CartesianState(0.8, -1.3, 0.4, 0.2, t=2.0)
        s1 = ek.cartesian_state_from_polar(ek.polar_state_from_cartesian(s0))
        for name in ("x", "y", "xdot", "ydot", "t"):
            assert getattr(s1, name) == pytest.approx(getattr(s0, name), abs=1e-14)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            ek.polar_state_from_cartesian(ek.CartesianState(0.0, 0.0, 1.0, 1.0))

    def test_polar_radius_positive(self):
        with pytest.raises(ValueError):
            ek.PolarState(r=-1.0, theta=0.0, rdot=0.0, thetadot=0.0)


class TestRadialCoupling:
    def test_zero_couplings_give_zero(self):
        assert ek.radial_coupling_from_fg("0", "0") == Num(0.0)

    def test_f_identity(self):
        F = ek.radial_coupling_from_fg("u", "0")
        # tan/(sin cos) = 1/cos^2: value 2 at pi/4
        assert evaluate(F, {"theta": math.pi / 4}) == pytest.approx(2.0, rel=1e-12)
        assert evaluate(F, {"theta": 1.0}) == pytest.approx(1.0 / math.cos(1.0) ** 2, rel=1e-12)

    def test_g_identity(self):
        F = ek.radial_coupling_from_fg("0", "v")
        # cot/(sin cos) = 1/sin^2: value 2 at pi/4
        assert evaluate(F, {"theta": math.pi / 4}) == pytest.approx(2.0, rel=1e-12)
        assert evaluate(F, {"theta": 1.0}) == pytest.approx(1.0 / math.sin(1.0) ** 2, rel=1e-12)


def _potential(f: str, g: str, w: float) -> float:
    """U(w) of the coupling pair (f, g): the callable behind the node V = U(tan theta)."""
    return _coupling_potential(parse(f), parse(g))[1](w)


class TestPotential:
    def test_zero_couplings(self):
        assert _potential("0", "0", 3.7) == 0.0

    def test_linear_f(self):
        assert _potential("u", "0", 2.0) == pytest.approx(1.5, rel=1e-12)

    def test_linear_f_and_g(self):
        assert _potential("u", "v", 2.0) == pytest.approx(1.125, rel=1e-12)

    def test_base_point_convention(self):
        assert _potential("u", "v", 1.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ek.EvaluationError):
            _potential("u", "0", -1.0)

    def test_potential_node_decides_setup_once(self, monkeypatch):
        import ermakov.systems as systems

        fm = ek.free_motion_system("u", "1")
        angles = (0.3141, 0.4271, 0.5393)  # angles the node has not seen: each integrates
        # the pair (f, g) that free_motion_system builds: g(v) = -f(1/v)
        expected = [_potential("u", "-(1/u)", math.tan(th)) for th in angles]
        calls = []
        real = systems.is_literal_zero
        monkeypatch.setattr(systems, "is_literal_zero", lambda e: calls.append(e) or real(e))
        assert [evaluate(fm.V, {"theta": th}) for th in angles] == expected
        assert calls == []

    def test_potential_expression_derivative(self):
        # dV/dtheta = f(tan)/cos^2 - g(cot)/sin^2, by the chain rule
        from ermakov.systems import potential_expression
        from ermakov.expressions import differentiate, simplify

        V = potential_expression(parse("u"), parse("0.5*v^2"))
        dV = simplify(differentiate(V, "theta"))
        th = 0.9
        expected = math.tan(th) / math.cos(th) ** 2 - 0.5 * (
            1.0 / math.tan(th)
        ) ** 2 / math.sin(th) ** 2
        assert evaluate(dV, {"theta": th}) == pytest.approx(expected, rel=1e-12)

    W_BOTH_SIDES = (0.01, 0.1, 0.37, 0.8, 1.3, 2.0, 7.5, 20.0)

    @pytest.mark.parametrize("w", W_BOTH_SIDES)
    def test_free_motion_pair_closed_form(self, w):
        # f = c u, g = -c/v: U' = c (w + 1/w)
        c = 0.6
        expected = c * (0.5 * (w * w - 1.0) + math.log(w))
        assert _potential(f"{c}*u", f"-{c}/v", w) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("w", W_BOTH_SIDES)
    def test_polynomial_g_closed_form(self, w):
        # f = u, g = v^2/2: U' = w - w^-4/2
        expected = (w * w - 1.0) / 2.0 + (w**-3 - 1.0) / 6.0
        assert _potential("u", "0.5*v^2", w) == pytest.approx(expected, rel=1e-12)

    def test_one_quadrature_of_the_slope_per_new_argument(self, monkeypatch):
        import ermakov.systems as systems
        from ermakov.expressions import DERIV_VAR

        V = ek.free_motion_system("0.45*u", "1").V
        calls = []
        real = systems.quad_adaptive

        def counting(fn, a, b, **kw):
            calls.append((fn, a, b))
            return real(fn, a, b, **kw)

        monkeypatch.setattr(systems, "quad_adaptive", counting)
        angles = (0.2718, 0.6931, 1.1412)
        values = [evaluate(V, {"theta": th}) for th in angles]
        # U(w) is integrated in s = ln lam, from 0 to ln w
        assert [(a, b) for _, a, b in calls] == [(0.0, math.log(math.tan(th))) for th in angles]
        # the integrand is the node's own derivative tree, U' = f(w) - g(1/w)/w^2,
        # times the Jacobian e^s
        for fn, _, _ in calls:
            for s in (-1.3, 0.4):
                assert fn(s) == evaluate(V.deriv, {DERIV_VAR: math.exp(s)}) * math.exp(s)
        assert [evaluate(V, {"theta": th}) for th in angles] == values
        assert len(calls) == len(angles)


class TestLoweredSlope:
    """The U integrand runs the slope tree lowered once, positionally, on the first quadrature."""

    def test_integrand_is_the_evaluated_slope_bit_for_bit(self, monkeypatch):
        import struct

        import ermakov.systems as systems
        from ermakov.expressions import DERIV_VAR, EvaluationError

        integrands = []
        real = systems.quad_adaptive
        monkeypatch.setattr(systems, "quad_adaptive", lambda fn, a, b: integrands.append(fn) or real(fn, a, b))
        # sqrt(u - 0.5) has no value below lam = 0.5: the same error either way
        slope, u = _coupling_potential(parse("0.45*u + sqrt(u - 0.5)"), parse("-(1/v)^2 + exp(v)"))
        u(1.7)
        (integrand,) = integrands
        for s in np.linspace(-3.0, 3.0, 241):
            lam = math.exp(float(s))
            try:
                expected = struct.pack("<d", evaluate(slope, {DERIV_VAR: lam}) * lam)
            except EvaluationError as exc:
                with pytest.raises(EvaluationError) as info:
                    integrand(float(s))
                assert str(info.value) == str(exc)
            else:
                assert struct.pack("<d", integrand(float(s))) == expected, s
        for w in (0.0, -1.0):
            with pytest.raises(EvaluationError, match=f"potential argument must be positive, got {w!r}"):
                u(w)

    def test_slope_is_lowered_on_the_first_quadrature_only(self, monkeypatch):
        import ermakov.systems as systems

        lowered = []
        real = systems.lower
        monkeypatch.setattr(systems, "lower", lambda *a: lowered.append(a) or real(*a))
        slope, u = _coupling_potential(parse("u"), parse("0.5*v^2"))
        with pytest.raises(ek.EvaluationError):
            u(-1.0)
        assert lowered == []
        u(2.0), u(3.0), u(2.0)
        assert len(lowered) == 1 and lowered[0][0] == (slope,)


class TestPolarFromCartesian:
    def test_trivial_system(self):
        spec = ek.polar_from_cartesian(ek.CartesianSpec(f="0", g="0", omega_sq="1"))
        assert spec.F == Num(0.0)
        assert spec.V == Num(0.0)
        assert evaluate(spec.omega_sq, {}) == 1.0

    def test_linear_coupling_dual_integration(self):
        # the cot(theta) argument of g makes the polar form match the
        # cartesian system it came from; integrate both and compare
        spec_c = ek.CartesianSpec(f="u", g="0", omega_sq="0")
        spec_p = ek.polar_from_cartesian(spec_c)
        assert evaluate(spec_p.F, {"theta": math.pi / 4}) == pytest.approx(2.0, rel=1e-12)
        s0c = ek.CartesianState(1.0, 1.0, 0.1, 0.3)
        cfg = ek.IntegratorConfig(t_span=(0.0, 2.0))
        traj_c = ek.integrate_cartesian(spec_c, s0c, cfg)
        traj_p = ek.integrate_polar(
            spec_p, ek.polar_state_from_cartesian(s0c), cfg, monitor=False
        )
        assert traj_c.termination == "completed" and traj_p.termination == "completed"
        sup = 0.0
        for t in np.linspace(0.0, 2.0, 21):
            yp = traj_p.at(t)
            cs = ek.cartesian_state_from_polar(
                ek.PolarState(yp[0], yp[1], yp[2], yp[3], t=float(t))
            )
            yc = traj_c.at(t)
            sup = max(sup, abs(cs.x - yc[0]), abs(cs.y - yc[1]))
        assert sup <= 1e-6


class TestAbsorbCoupling:
    def test_preserves_trajectories(self):
        # the radial coupling F/r^3 moves the radius as the frequency shift -F/r^4 does
        spec = ek.PolarSpec(F="1", V="0.1*sin(theta)^2", omega_sq="0")
        absorbed = ek.PolarSpec(F="0", V="0.1*sin(theta)^2", omega_sq="-1/r^4")
        s0 = ek.PolarState(1.0, 0.7, 0.1, 1.0)
        cfg = ek.IntegratorConfig(t_span=(0.0, 1.0))
        t1 = ek.integrate_polar(spec, s0, cfg, monitor=False)
        t2 = ek.integrate_polar(absorbed, s0, cfg, monitor=False)
        diff = max(
            float(np.max(np.abs(np.subtract(t1.at(t), t2.at(t))))) for t in np.linspace(0.0, 1.0, 21)
        )
        assert diff <= 1e-8


class TestFrequency:
    def test_trivial_zero(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="0", F="0", V="0")
        w2 = ek.frequency_from_linearizable(spec)
        assert evaluate(w2, {"t": 0.3, "r": 1.2, "theta": 0.5, "rdot": 0.1, "thetadot": 0.7}) == 0.0

    def test_kepler_form(self):
        # A=B=0, C=G, rho=1 gives w2 = G/r^3
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="2 + cos(theta)", F="0", V="0")
        w2 = ek.frequency_from_linearizable(spec)
        env = {"t": 0.0, "r": 1.7, "theta": 0.9, "rdot": 0.2, "thetadot": 0.4}
        expect = (2.0 + math.cos(0.9)) / 1.7**3
        assert evaluate(w2, env) == pytest.approx(expect, rel=1e-14)

    def test_harmonic_scale_factor(self):
        # rho = cos t solves rhoddot + rho = 0, so the induced frequency is 1
        spec = ek.LinearizableSpec(rho="cos(t)", A="0", B="0", C="0", F="0", V="0")
        w2 = ek.frequency_from_linearizable(spec)
        for t in (0.0, 0.4, 1.2):
            assert evaluate(
                w2, {"t": t, "r": 1.0, "theta": 0.0, "rdot": 0.0, "thetadot": 1.0}
            ) == pytest.approx(1.0, rel=1e-14)

    def test_kepler_rhs_reproduced(self, winternitz_spec):
        # a polar spec with the induced frequency and the linearizable form agree pointwise
        direct = polar_rhs_function(winternitz_spec)
        spec = winternitz_spec
        view = polar_rhs_function(ek.PolarSpec(F=spec.F, V=spec.V, omega_sq=spec.omega_sq))
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = ek.PolarState(
                r=float(rng.uniform(0.5, 3.0)),
                theta=float(rng.uniform(0.4, math.pi - 0.4)),
                rdot=float(rng.uniform(-1.0, 1.0)),
                thetadot=float(rng.uniform(0.2, 2.0)),
                t=float(rng.uniform(0.0, 5.0)),
            )
            y = (s.r, s.theta, s.rdot, s.thetadot)
            a = direct(s.t, y)
            b = view(s.t, y)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


class TestKeplerErmakov:
    def test_is_the_linearizable_member_with_unit_scale(self):
        spec = ek.kepler_ermakov_system(F="0.5", G="1 + cos(theta)", V="sin(theta)^2")
        assert isinstance(spec, ek.LinearizableSpec)
        assert (spec.rho, spec.A, spec.B) == (Num(1.0), Num(0.0), Num(0.0))
        assert spec.C == parse("1 + cos(theta)")

    @pytest.mark.parametrize("name", ["F", "G", "V"])
    def test_functions_of_theta_only(self, name):
        functions = {"F": "0", "G": "1", "V": "0", name: "L*theta"}
        with pytest.raises(ValueError, match="may only use"):
            ek.kepler_ermakov_system(**functions)

    def test_vanishing_terms_do_not_turn_an_overflow_into_nan(self, winternitz_spec):
        # rdot/r^2 overflows here; an A = 0 term multiplied out would give 0*inf = NaN
        with np.errstate(over="ignore"):
            _, _, rdd, _ = polar_rhs_function(winternitz_spec)(0.0, (1e-20, 1.4, 1e300, 2.0))
        assert not math.isnan(rdd)

    def test_specs_outside_the_polar_family_rejected(self):
        spec = ek.CartesianSpec(f="u", g="0", omega_sq="1")
        with pytest.raises(TypeError):
            ek.integrate_polar(spec, ek.PolarState(1.0, 0.5, 0.0, 1.0), ek.IntegratorConfig((0.0, 1.0)))
        with pytest.raises(TypeError):
            ek.build_linear_ode(ek.polar_from_cartesian(spec), 1.0, (0.3, 0.6))


def _fm_slope(th):
    # free motion with f = 0.5 u: U'(w) = f(w) - g(1/w)/w^2 = 0.5 (w + 1/w), V = U(tan theta)
    w = math.tan(th)
    return 0.5 * (w + 1.0 / w) / math.cos(th) ** 2


# Each case: the spec, and float transcriptions of (rho, rho', rho''), A, B, C (at theta
# and L), F and dV/dtheta written out by hand, sharing no code with the package.
_SIX_FUNCTION_CASES = {
    "winternitz": (
        ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.5, 1.0)),
        lambda t: (1.0, 0.0, 0.0),
        lambda th, L: 0.0,
        lambda th, L: 0.0,
        lambda th, L: 1.0,
        lambda th: 2.0 * ((1.0 + 0.5 * math.cos(th)) / math.sin(th) ** 2 + 1.0),
        lambda th: -0.5 / math.sin(th) - 2.0 * (1.0 + 0.5 * math.cos(th)) * math.cos(th) / math.sin(th) ** 3,
    ),
    "kepler": (
        ek.kepler_ermakov_system(F="0.3 + 0.1*cos(theta)", G="1 + 0.2*sin(theta)", V="0.2*sin(theta)^2"),
        lambda t: (1.0, 0.0, 0.0),
        lambda th, L: 0.0,
        lambda th, L: 0.0,
        lambda th, L: 1.0 + 0.2 * math.sin(th),
        lambda th: 0.3 + 0.1 * math.cos(th),
        lambda th: 0.4 * math.sin(th) * math.cos(th),
    ),
    "rho-quadratic": (
        ek.LinearizableSpec(
            rho="1 + 0.1*t^2", A="sin(theta)", B="L", C="0.8", F="0", V="0.3*sin(theta)^2"
        ),
        lambda t: (1.0 + 0.1 * t * t, 0.2 * t, 0.2),
        lambda th, L: math.sin(th),
        lambda th, L: L,
        lambda th, L: 0.8,
        lambda th: 0.0,
        lambda th: 0.6 * math.sin(th) * math.cos(th),
    ),
    "free-motion-rho-linear": (
        ek.free_motion_system("0.5*u", "1 + 0.1*t"),
        lambda t: (1.0 + 0.1 * t, 0.1, 0.0),
        lambda th, L: _fm_slope(th) / L,
        lambda th, L: L * L,
        lambda th, L: 0.0,
        lambda th: 0.0,
        _fm_slope,
    ),
}


class TestPolarRhs:
    def test_circular_orbit_balance(self):
        spec = ek.PolarSpec(F="0", V="0", omega_sq="1")
        out = polar_rhs_function(spec)(0.0, (1.0, 0.0, 0.0, 1.0))
        assert out == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-15)

    def test_kepler_radial_equation(self):
        spec = ek.kepler_ermakov_system(F="0", G="1", V="0")
        rd, thd, rdd, thdd = polar_rhs_function(spec)(0.0, (2.0, 0.3, 0.1, 0.4))
        assert rdd == pytest.approx(2.0 * 0.4**2 - 1.0 / 4.0, rel=1e-14)
        assert thdd == pytest.approx(-2.0 * 0.1 * 0.4 / 2.0, rel=1e-14)

    def test_matches_cartesian_under_state_map(self):
        spec_c = ek.CartesianSpec(f="0.3*u", g="-0.2*v^2", omega_sq="1 + 0.1*t")
        rhs_c = cartesian_rhs_function(spec_c)
        rhs_p = polar_rhs_function(ek.polar_from_cartesian(spec_c))
        rng = np.random.default_rng(3)
        for _ in range(25):
            sc = ek.CartesianState(
                x=float(rng.uniform(0.5, 1.5)),
                y=float(rng.uniform(0.5, 1.5)),
                xdot=float(rng.uniform(-0.5, 0.5)),
                ydot=float(rng.uniform(-0.5, 0.5)),
                t=float(rng.uniform(0.0, 2.0)),
            )
            sp = ek.polar_state_from_cartesian(sc)
            _, _, xdd, ydd = rhs_c(sc.t, (sc.x, sc.y, sc.xdot, sc.ydot))
            _, _, rdd, thdd = rhs_p(sp.t, (sp.r, sp.theta, sp.rdot, sp.thetadot))
            # acceleration map: rddot and thetaddot from cartesian accelerations
            r = sp.r
            rdd_c = (sc.xdot**2 + sc.ydot**2 + sc.x * xdd + sc.y * ydd - sp.rdot**2) / r
            thdd_c = (sc.x * ydd - sc.y * xdd) / r**2 - 2.0 * sp.rdot * sp.thetadot / r
            assert rdd == pytest.approx(rdd_c, rel=1e-9, abs=1e-11)
            assert thdd == pytest.approx(thdd_c, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("case", sorted(_SIX_FUNCTION_CASES))
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        r=st.floats(0.5, 2.0),
        th=st.floats(0.3, 1.3),
        rd=st.floats(-1.0, 1.0),
        thd=st.floats(0.2, 2.0),
        t=st.floats(0.0, 2.0),
    )
    def test_six_function_equations_of_motion(self, case, r, th, rd, thd, t):
        # rddot = r thd^2 + F/r^3 + (rhoddot/rho) r - (rho rdot - rhodot r)/(rho r^2) A
        #         - B/r^3 - C/(rho r^2), thddot = -V'/r^4 - 2 rdot thd/r, with L = r^2 thd
        spec, rho, A, B, C, F, dV = _SIX_FUNCTION_CASES[case]
        rho_v, rho_d, rho_dd = rho(t)
        L = r * r * thd
        terms = [
            r * thd * thd,
            F(th) / r**3,
            rho_dd / rho_v * r,
            -(rho_v * rd - rho_d * r) / (rho_v * r * r) * A(th, L),
            -B(th, L) / r**3,
            -C(th, L) / (rho_v * r * r),
        ]
        out = polar_rhs_function(spec)(t, (r, th, rd, thd))
        assert out[:2] == (rd, thd)
        assert abs(out[2] - math.fsum(terms)) <= 1e-14 * math.fsum(map(abs, terms))
        angular = [-dV(th) / r**4, -2.0 * rd * thd / r]
        assert abs(out[3] - math.fsum(angular)) <= 1e-14 * math.fsum(map(abs, angular))

    def test_literally_zero_coupling_is_not_evaluated(self):
        # 0*log(theta) simplifies to 0: the log is never taken, even where it has no value
        spec = ek.PolarSpec(F="0*log(theta)", V="0", omega_sq="1")
        assert polar_rhs_function(spec)(0.0, (1.0, -1.0, 0.0, 1.0)) == (0.0, 1.0, 0.0, 0.0)

    def test_each_spec_lowers_its_tuples_once(self, monkeypatch):
        import ermakov.expressions as expressions

        real = expressions._lower
        tuples = []
        monkeypatch.setattr(
            expressions, "_lower", lambda trees, *rest: tuples.append(trees) or real(trees, *rest)
        )
        spec = ek.winternitz_system(ek.WinternitzParams(mu0=1.0, g1=1.0, g2=0.5, g3=1.0))
        for _ in range(2):
            polar_rhs_function(spec)(0.0, (1.0, 1.5, 0.0, 2.0))
            ek.LinearODE(spec, 5.0, (0.5, 2.5), 1).terms(1.5, 3.0)
        assert [len(t) for t in tuples if len(t) > 1] == [3, 5]

    def test_cached_derivatives_are_not_simplified_again(self, monkeypatch):
        import ermakov.expressions as expressions
        import ermakov.systems as systems

        spec = ek.LinearizableSpec(rho="1 + t^2", A="0", B="0", C="1", F="0", V="sin(theta)^2")
        polar = ek.PolarSpec(F="0", V=spec.V, omega_sq="1")
        derived = (spec.dV, spec.rho_derivatives[1], polar.dV)
        seen = []
        real = expressions.simplify

        def recording(expr):
            seen.append(expr)
            return real(expr)

        monkeypatch.setattr(expressions, "simplify", recording)
        monkeypatch.setattr(systems, "simplify", recording)
        systems.polar_rhs_function(spec)
        systems.polar_rhs_function(polar)
        assert seen  # F, A, B and C are still checked
        assert not any(e is d for e in seen for d in derived)

    def test_axis_crossing_domain_error(self):
        spec = ek.CartesianSpec(f="u", g="0", omega_sq="0")
        with pytest.raises(ek.EvaluationError):
            cartesian_rhs_function(spec)(0.0, (0.0, 1.0, 0.0, 0.0))


def _evaluated_cartesian_rhs(spec):
    """The cartesian vector field from evaluating each tree on a bindings dict, as it was."""
    f_zero, g_zero = is_literal_zero(spec.f), is_literal_zero(spec.g)
    (f_var,), (g_var,) = (free_variables(e) or {"u"} for e in (spec.f, spec.g))

    def rhs(t, y):
        xv, yv, xd, yd = y
        w2 = evaluate(spec.omega_sq, {"t": t, "x": xv, "y": yv, "xdot": xd, "ydot": yd})
        if f_zero:
            f_term = 0.0
        else:
            if xv == 0.0 or yv == 0.0:
                raise ek.EvaluationError("coupling f is singular on the axes")
            f_term = evaluate(spec.f, {f_var: yv / xv}) / (yv * xv * xv)
        if g_zero:
            g_term = 0.0
        else:
            if xv == 0.0 or yv == 0.0:
                raise ek.EvaluationError("coupling g is singular on the axes")
            g_term = evaluate(spec.g, {g_var: xv / yv}) / (xv * yv * yv)
        return xd, yd, -w2 * xv + f_term, -w2 * yv + g_term

    return rhs


_CARTESIAN_SPECS = {
    "both": ("0.3*u", "-0.2*v^2", "1 + 0.1*t*x - ydot"),
    "f-only": ("sqrt(u)", "0", "sqrt(x - 0.25)"),
    "g-only": ("0", "log(w - 0.5)", "1"),
    "constant-couplings": ("0.5", "2", "xdot^2"),
    "free": ("0", "0", "0.7"),
}


class TestCartesianRhs:
    """The lowered vector field against evaluating each tree in turn, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_CARTESIAN_SPECS))
    def test_same_values_and_errors(self, case):
        f, g, w2 = _CARTESIAN_SPECS[case]
        spec = ek.CartesianSpec(f=f, g=g, omega_sq=w2)
        rhs, ref = cartesian_rhs_function(spec), _evaluated_cartesian_rhs(spec)
        rng = np.random.default_rng(7)
        # random states, with axes and the failing branches of sqrt and ln among them
        states = [tuple(float(v) for v in rng.uniform(-1.5, 1.5, 4)) for _ in range(200)]
        states += [(0.0, 1.0, 0.2, 0.1), (1.0, 0.0, 0.2, 0.1), (0.0, 0.0, 0.0, 0.0)]
        for t, state in zip(rng.uniform(-1.0, 2.0, len(states)), states):
            try:
                expected = [v.hex() for v in ref(float(t), state)]
            except ek.EvaluationError as exc:
                with pytest.raises(ek.EvaluationError) as info:
                    rhs(float(t), state)
                assert str(info.value) == str(exc)
            else:
                assert [v.hex() for v in rhs(float(t), state)] == expected

    @pytest.mark.parametrize("case, compiles", [("both", 3), ("f-only", 2), ("free", 1)])
    def test_each_spec_compiles_each_tree_once(self, monkeypatch, case, compiles):
        # as many as evaluating omega_sq and each nonzero coupling compiled before
        import ermakov.expressions as expressions

        real = expressions._lower
        calls = []
        monkeypatch.setattr(
            expressions, "_lower", lambda trees, *rest: calls.append(trees) or real(trees, *rest)
        )
        f, g, w2 = _CARTESIAN_SPECS[case]
        spec = ek.CartesianSpec(f=f, g=g, omega_sq=w2)
        for _ in range(3):
            cartesian_rhs_function(spec)(0.5, (1.0, 0.8, 0.1, 0.2))
        assert len(calls) == compiles


class TestWinternitz:
    def test_values(self):
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.0, 1.0))
        th = math.pi / 2
        assert evaluate(spec.V, {"theta": th}) == pytest.approx(1.0, abs=1e-12)
        assert evaluate(spec.F, {"theta": th}) == pytest.approx(4.0, abs=1e-12)
        assert evaluate(spec.C, {}) == 1.0

    def test_barrier_at_zero(self):
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.0, 1.0))
        with pytest.raises(ek.EvaluationError):
            evaluate(spec.V, {"theta": 0.0})
        assert evaluate(spec.V, {"theta": 1e-4}) > 1e7

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            ek.WinternitzParams(1.0, -1.0, 0.5, 1.0)

    def test_hamiltonian_conserved(self, winternitz_params, winternitz_trajectory):
        energies = [winternitz_hamiltonian(winternitz_params, *y) for y in winternitz_trajectory.ys]
        drift = max(abs(e - energies[0]) for e in energies)
        assert drift <= 1e-6


class TestFreeMotion:
    def test_zero_coupling_structure(self):
        lin = ek.free_motion_system("0", "1")
        assert lin.A == Num(0.0)
        assert lin.C == Num(0.0)
        assert lin.V == Num(0.0)
        assert lin.B == parse("L^2")

    def test_linear_coupling_structure(self):
        lin = ek.free_motion_system("u", "1")
        # the partner coupling cancels the radial coupling exactly
        assert lin.F == Num(0.0)
        # A = (dV/dtheta)/L with dV/dtheta = (w + 1/w)/cos(theta)^2 at w = tan(theta)
        th = 0.8
        ell = 1.3
        w = math.tan(th)
        dv = (w + 1.0 / w) / math.cos(th) ** 2
        assert evaluate(lin.A, {"theta": th, "L": ell}) == pytest.approx(dv / ell, rel=1e-10)


class TestQuasiInvariance:
    def test_identity_for_unit_scale(self):
        s = ek.PolarState(2.0, 0.5, 0.1, 0.3, t=1.5)
        out = ek.quasi_invariance_map("1", s, 0.5)
        assert out.r == s.r
        assert out.theta == s.theta
        assert out.rdot == s.rdot
        assert out.thetadot == s.thetadot
        assert out.t == pytest.approx(1.0, abs=1e-14)

    def test_exponential_scale_time(self):
        out = ek.quasi_invariance_map("exp(t)", ek.PolarState(1.0, 0.0, 0.0, 1.0, t=1.0), 0.0)
        assert out.t == pytest.approx(0.43233235838, abs=1e-11)

    def test_zero_crossing_detected(self):
        with pytest.raises(ek.EvaluationError):
            ek.quasi_invariance_map("cos(t)", ek.PolarState(1.0, 0.0, 0.0, 1.0, t=2.0), 0.0)

    def test_maps_onto_autonomous_system(self):
        rho = "1 + t^2/10"
        spec = ek.LinearizableSpec(
            rho=rho, A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
        )
        barred = ek.LinearizableSpec(
            rho="1", A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
        )
        s0 = ek.PolarState(1.0, 1.0, 0.1, 1.3)
        traj = ek.integrate_polar(spec, s0, ek.IntegratorConfig(t_span=(0.0, 2.0)))
        s_bar0 = ek.quasi_invariance_map(rho, s0, 0.0)
        t_bar_end = ek.quasi_invariance_map(
            rho, ek.PolarState(*traj.at(2.0), t=2.0), 0.0
        ).t
        traj_bar = ek.integrate_polar(
            barred, s_bar0, ek.IntegratorConfig(t_span=(0.0, t_bar_end))
        )
        errs = []
        for t in np.linspace(0.0, 2.0, 21):
            y = traj.at(t)
            mapped = ek.quasi_invariance_map(rho, ek.PolarState(y[0], y[1], y[2], y[3], t=float(t)), 0.0)
            yb = traj_bar.at(mapped.t)
            errs.append(
                max(
                    abs(yb[0] - mapped.r),
                    abs(yb[1] - mapped.theta),
                    abs(yb[2] - mapped.rdot),
                    abs(yb[3] - mapped.thetadot),
                )
            )
        assert max(errs) <= 1e-6


class TestSpecValidation:
    def test_rho_must_use_t_only(self):
        with pytest.raises(ValueError, match="rho"):
            ek.LinearizableSpec(rho="theta", A="0", B="0", C="0", F="0", V="0")

    @pytest.mark.parametrize("rho", ["0", "0*t", "1 - 1"])
    def test_rho_must_not_vanish_identically(self, rho):
        # with A = C = 0 no term of the induced frequency divides by rho
        with pytest.raises(ValueError, match="rho vanishes identically"):
            ek.LinearizableSpec(rho=rho, A="0", B="L^2", C="0", F="0", V="0")

    def test_structure_functions_variables(self):
        with pytest.raises(ValueError, match="may only use"):
            ek.LinearizableSpec(rho="1", A="r", B="0", C="0", F="0", V="0")

    def test_coupling_single_argument(self):
        with pytest.raises(ValueError, match="one argument"):
            ek.CartesianSpec(f="u + w", g="0", omega_sq="0")
