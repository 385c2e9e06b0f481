"""The conserved angular structure shared by every system family.

Both coordinate forms carry the same first integral, built from the
squared angular momentum and an angular potential.  Its value fixes the
on-shell momentum h(theta) that drives the linearization and the
quadratures.
"""

from __future__ import annotations

import math

from .expressions import Expression, evaluate

__all__ = [
    "ForbiddenRegionError",
    "TurningPointError",
    "invariant_level",
    "momentum_from_gap",
    "turning_tolerance",
]


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


def invariant_level(r: float, theta: float, thetadot: float, V: Expression) -> float:
    """I = 0.5*(r^2 thetadot)^2 + V(theta), in Python floats: overflow gives inf, not a warning."""
    ell = float(r) * float(r) * float(thetadot)
    try:
        square = ell**2
    except OverflowError:
        square = math.inf
    return 0.5 * square + evaluate(V, {"theta": float(theta)})


def turning_tolerance(invariant) -> float:
    """Gap below which h is numerically indistinguishable from zero."""
    return 1e-12 * (1.0 + abs(float(invariant)))


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

