"""The conserved angular structure shared by every system family.

Both coordinate forms carry the same first integral, built from the
squared angular momentum and an angular potential.  Its value fixes the
on-shell momentum h(theta) that drives the linearization and the
quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expressions import as_expression, evaluate
from .systems import CartesianState, PolarState, potential_value_from_fg

__all__ = [
    "ForbiddenRegionError",
    "InvariantValue",
    "TurningPointError",
    "lewis_ray_reid_cartesian",
    "lewis_ray_reid_polar",
    "momentum_from_gap",
    "on_shell_momentum",
    "theta_dot_from_invariant",
    "turning_tolerance",
]

U_CONVENTION = "potential anchored at argument 1 (V(pi/4) = 0)"
V_CONVENTION = "potential as supplied"


class ForbiddenRegionError(ValueError):
    """The invariant level lies below the potential at the requested angle."""

    def __init__(self, theta: float, invariant: float, potential: float, detail: str = ""):
        msg = (
            f"forbidden region at theta={theta!r}: invariant {invariant!r} "
            f"< potential {potential!r}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.theta = theta
        self.invariant = invariant
        self.potential = potential


class TurningPointError(ValueError):
    """The invariant level meets the potential: the angular speed vanishes."""

    def __init__(self, theta: float, invariant: float, detail: str = ""):
        suffix = f", {detail}" if detail else ""
        super().__init__(f"turning point at theta={theta!r} (invariant {invariant!r}{suffix})")
        self.theta = theta
        self.invariant = invariant


@dataclass(frozen=True)
class InvariantValue:
    """A conserved-level value together with the potential convention in force."""

    value: float
    convention_note: str = V_CONVENTION

    def __float__(self) -> float:
        return self.value


def _as_level(invariant) -> float:
    return float(invariant)


def lewis_ray_reid_polar(state: PolarState, V) -> InvariantValue:
    """I = 0.5*(r^2 thetadot)^2 + V(theta)."""
    V = as_expression(V)
    ell = state.angular_momentum
    return InvariantValue(0.5 * ell * ell + evaluate(V, {"theta": state.theta}))


def lewis_ray_reid_cartesian(state: CartesianState, f, g) -> InvariantValue:
    """I = 0.5*(x ydot - y xdot)^2 + U(y/x), with U anchored at argument 1."""
    if state.x == 0.0 or state.y == 0.0:
        raise ValueError("invariant evaluation requires a state off both axes")
    cross = state.x * state.ydot - state.y * state.xdot
    u = potential_value_from_fg(f, g, state.y / state.x)
    return InvariantValue(0.5 * cross * cross + u, convention_note=U_CONVENTION)


def turning_tolerance(invariant) -> float:
    """Gap below which h is numerically indistinguishable from zero."""
    return 1e-12 * (1.0 + abs(_as_level(invariant)))


def momentum_from_gap(theta: float, level: float, gap: float) -> float:
    """h = sqrt(2*gap) for the gap I - V(theta) the caller has computed.

    Raises TurningPointError when the gap is zero within tolerance and
    ForbiddenRegionError when it is negative.
    """
    tol = turning_tolerance(level)
    if gap < -tol:
        raise ForbiddenRegionError(theta, level, level - gap)
    if abs(gap) <= tol:
        raise TurningPointError(theta, level)
    return math.sqrt(2.0 * gap)


def on_shell_momentum(theta: float, invariant, V) -> float:
    """h(theta) = sqrt(2*(I - V(theta))): the angular momentum on the invariant shell.

    Raises TurningPointError when I meets V within tolerance and
    ForbiddenRegionError when I lies below V.
    """
    level = _as_level(invariant)
    return momentum_from_gap(theta, level, level - evaluate(as_expression(V), {"theta": theta}))


def theta_dot_from_invariant(r: float, theta: float, invariant, V, branch_sign: int) -> float:
    """Angular velocity thetadot = branch_sign * h(theta) / r^2."""
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r!r}")
    if branch_sign not in (-1, 1):
        raise ValueError(f"branch_sign must be +1 or -1, got {branch_sign!r}")
    return branch_sign * on_shell_momentum(theta, invariant, V) / (r * r)
