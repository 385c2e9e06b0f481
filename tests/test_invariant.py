import math

import numpy as np
import pytest

import ermakov as ek
from ermakov.invariant import (
    ForbiddenRegionError,
    TurningPointError,
    lewis_ray_reid_cartesian,
    lewis_ray_reid_polar,
    on_shell_momentum,
    theta_dot_from_invariant,
)


class TestPolarInvariant:
    def test_free_potential(self):
        s = ek.PolarState(1.0, math.pi / 2, 0.0, 2.0)
        assert lewis_ray_reid_polar(s, "0") == 2.0

    def test_winternitz_potential(self):
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.0, 1.0))
        s = ek.PolarState(1.0, math.pi / 2, 0.0, 2.0)
        assert lewis_ray_reid_polar(s, spec.V) == pytest.approx(3.0, abs=1e-12)

    def test_constant_along_trajectory(self, winternitz_trajectory):
        assert winternitz_trajectory.drift.max_rel <= 1e-6


class TestCartesianInvariant:
    def test_pure_cross_term(self):
        s = ek.CartesianState(1.0, 1.0, 0.0, 1.0)
        assert lewis_ray_reid_cartesian(s, "0", "0") == 0.5

    def test_with_linear_coupling(self):
        s = ek.CartesianState(1.0, 2.0, 0.0, 0.0)
        assert lewis_ray_reid_cartesian(s, "u", "0") == pytest.approx(1.5, rel=1e-12)

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
            a = lewis_ray_reid_cartesian(sc, f, g)
            b = lewis_ray_reid_polar(sp, V)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_axis_state_rejected(self):
        with pytest.raises(ValueError):
            lewis_ray_reid_cartesian(ek.CartesianState(1.0, 0.0, 0.0, 1.0), "0", "0")


class TestOnShellMomentum:
    def test_free_potential(self):
        assert on_shell_momentum(0.3, 2.0, "0") == 2.0

    def test_winternitz_value(self):
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.0, 1.0))
        assert on_shell_momentum(math.pi / 2, 3.0, spec.V) == pytest.approx(2.0, abs=1e-12)

    def test_turning_point_flagged(self):
        with pytest.raises(TurningPointError):
            on_shell_momentum(0.5, 1.0, "1")  # level meets a constant potential exactly

    def test_forbidden_region(self):
        with pytest.raises(ForbiddenRegionError):
            on_shell_momentum(0.5, 0.5, "1")

    def test_identity_h_squared(self):
        # h^2 + 2V = 2I wherever h is defined
        spec = ek.winternitz_system(ek.WinternitzParams(1.0, 1.0, 0.5, 1.0))
        level = 3.0
        for th in np.linspace(0.85, 2.6, 17):
            h = on_shell_momentum(float(th), level, spec.V)
            v = ek.evaluate(spec.V, {"theta": float(th)})
            assert h * h + 2.0 * v == pytest.approx(2.0 * level, rel=1e-12)

    def test_accepts_invariant_value(self):
        inv = lewis_ray_reid_polar(ek.PolarState(1.0, math.pi / 2, 0.0, 2.0), "0")
        assert on_shell_momentum(0.1, inv, "0") == 2.0


class TestThetaDot:
    def test_unit_radius(self):
        assert theta_dot_from_invariant(1.0, 0.0, 2.0, "0", 1) == 2.0

    def test_radius_scaling(self):
        assert theta_dot_from_invariant(2.0, 0.0, 2.0, "0", 1) == 0.5

    def test_branch_sign(self):
        assert theta_dot_from_invariant(1.0, 0.0, 2.0, "0", -1) == -2.0

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            theta_dot_from_invariant(1.0, 0.0, 2.0, "0", 2)

    def test_reconstructs_direct_trajectory(self, winternitz_spec, winternitz_trajectory):
        level = winternitz_trajectory.drift.reference
        for t in np.linspace(0.1, 4.0, 9):
            r, theta, _, thetadot = winternitz_trajectory.at(t)
            rebuilt = theta_dot_from_invariant(float(r), float(theta), level, winternitz_spec.V, 1)
            assert abs(rebuilt - thetadot) <= 1e-7 * (1.0 + abs(thetadot))
