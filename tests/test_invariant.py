import math

import numpy as np
import pytest

import ermakov as ek
from ermakov.invariant import (
    ForbiddenRegionError,
    TurningPointError,
    invariant_level,
    momentum_from_gap,
)
from ermakov.systems import _coupling_potential


def _cartesian_level(s, f, g):
    """I = 0.5*(x ydot - y xdot)^2 + U(y/x), with U anchored at argument 1."""
    cross = s.x * s.ydot - s.y * s.xdot
    return 0.5 * cross * cross + _coupling_potential(ek.parse(f), ek.parse(g))[1](s.y / s.x)


def _momentum(theta, level, V):
    """h(theta) on the level's shell, from the gap I - V(theta)."""
    return momentum_from_gap(theta, level, level - ek.evaluate(V, {"theta": theta}))


class TestPolarInvariant:
    def test_free_potential(self):
        s = ek.PolarState(1.0, math.pi / 2, 0.0, 2.0)
        assert invariant_level(s.r, s.theta, s.thetadot, ek.parse("0")) == 2.0

    def test_winternitz_potential(self):
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.0, 1.0))
        s = ek.PolarState(1.0, math.pi / 2, 0.0, 2.0)
        assert invariant_level(s.r, s.theta, s.thetadot, spec.V) == pytest.approx(3.0, abs=1e-12)

    def test_constant_along_trajectory(self, winternitz_spec, winternitz_trajectory):
        assert ek.monitor_invariant(winternitz_trajectory, winternitz_spec.V).max_rel <= 1e-6


class TestCartesianInvariant:
    def test_pure_cross_term(self):
        s = ek.CartesianState(1.0, 1.0, 0.0, 1.0)
        assert _cartesian_level(s, "0", "0") == 0.5

    def test_with_linear_coupling(self):
        s = ek.CartesianState(1.0, 2.0, 0.0, 0.0)
        assert _cartesian_level(s, "u", "0") == pytest.approx(1.5, rel=1e-12)

    def test_agrees_with_polar_under_state_map(self):
        f, g = "0.4*u", "0.1*v^2"
        from ermakov.systems import potential_expression

        V = potential_expression(ek.parse(f), ek.parse(g))
        rng = np.random.default_rng(11)
        for _ in range(20):
            sc = ek.CartesianState(
                x=float(rng.uniform(0.4, 1.6)),
                y=float(rng.uniform(0.4, 1.6)),
                xdot=float(rng.uniform(-0.7, 0.7)),
                ydot=float(rng.uniform(-0.7, 0.7)),
            )
            sp = ek.polar_state_from_cartesian(sc)
            a = _cartesian_level(sc, f, g)
            b = invariant_level(sp.r, sp.theta, sp.thetadot, V)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_axis_state_rejected(self):
        # y = 0 puts the potential's argument y/x at 0, outside its domain w > 0
        with pytest.raises(ValueError):
            _cartesian_level(ek.CartesianState(1.0, 0.0, 0.0, 1.0), "0", "0")


class TestOnShellMomentum:
    def test_free_potential(self):
        assert momentum_from_gap(0.3, 2.0, 2.0) == 2.0

    def test_winternitz_value(self):
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.0, 1.0))
        assert _momentum(math.pi / 2, 3.0, spec.V) == pytest.approx(2.0, abs=1e-12)

    def test_turning_point_flagged(self):
        with pytest.raises(TurningPointError):
            momentum_from_gap(0.5, 1.0, 0.0)  # level meets the potential exactly

    def test_forbidden_region(self):
        with pytest.raises(ForbiddenRegionError):
            momentum_from_gap(0.5, 0.5, -0.5)

    def test_identity_h_squared(self):
        # h^2 + 2V = 2I wherever h is defined
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.5, 1.0))
        level = 3.0
        for th in np.linspace(0.85, 2.6, 17):
            h = _momentum(float(th), level, spec.V)
            v = ek.evaluate(spec.V, {"theta": float(th)})
            assert h * h + 2.0 * v == pytest.approx(2.0 * level, rel=1e-12)

    def test_accepts_invariant_value(self):
        inv = invariant_level(1.0, math.pi / 2, 2.0, ek.parse("0"))
        assert _momentum(0.1, inv, ek.parse("0")) == 2.0


class TestThetaDot:
    def test_branch_sign(self):
        # the linear problem takes its angular branch from the sign of thetadot
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
        for thetadot, branch in ((2.0, 1), (-2.0, -1)):
            state = ek.PolarState(1.0, 0.0, 0.0, thetadot)
            assert ek.solve_from_state(spec, state, (-1.0, 1.0)).ode.branch_sign == branch

    def test_invalid_branch(self):
        spec = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
        with pytest.raises(ValueError, match="branch_sign"):
            ek.build_linear_ode(spec, 2.0, (-1.0, 1.0), branch_sign=2)

    def test_reconstructs_direct_trajectory(self, winternitz_spec, winternitz_trajectory):
        # thetadot = h(theta)/r^2 along the direct run, on the level of its first node
        level = ek.monitor_invariant(winternitz_trajectory, winternitz_spec.V).reference
        for t in np.linspace(0.1, 4.0, 9):
            r, theta, _, thetadot = winternitz_trajectory.at(t)
            rebuilt = _momentum(float(theta), level, winternitz_spec.V) / (r * r)
            assert abs(rebuilt - thetadot) <= 1e-7 * (1.0 + abs(thetadot))
