"""Closed forms of the Winternitz example, written without the package.

Winternitz's non-central force problem is a Kepler-Ermakov system with
V(theta) = (g1 + g2 cos theta)/sin^2 theta.  In the reparametrized time
T(theta) = J + integral of 1/h from pi/2, with h = sqrt(2 (I - V)), its
linearized equation is the driven oscillator psi_TT + 2 (I + g3) psi = mu0.

Only ``math`` and ``mpmath`` are imported, so a defect in the package
cannot sit on both sides of a check.  ``params`` is any object with the
attributes mu0, g1, g2 and g3.
"""

import math

import mpmath

BASE = math.pi / 2.0


def _potential(params, theta: float) -> float:
    return (params.g1 + params.g2 * math.cos(theta)) / math.sin(theta) ** 2


def _momentum(params, level: float, theta: float) -> float:
    """h = sqrt(2 (I - V(theta))); ValueError where the level lies below V."""
    return math.sqrt(2.0 * (level - _potential(params, theta)))


def winternitz_angular_time_closed(
    params, invariant, theta: float, J: float = 0.0, base: float = BASE
) -> float:
    """Arcsine antiderivative of 1/h for the Winternitz potential, anchored at the base.

    Valid when the discriminant g2^2 + 4 I (I - g1) is positive and the
    arcsine argument stays inside [-1, 1] between the base and theta;
    raises ValueError otherwise.
    """
    level = float(invariant)
    if level <= 0.0:
        raise ValueError(f"closed form requires a positive invariant, got {level!r}")
    disc = params.g2**2 + 4.0 * level * (level - params.g1)
    if disc <= 0.0:
        raise ValueError(f"closed form requires a positive discriminant, got {disc!r}")
    d = math.sqrt(disc)

    def antiderivative(th: float) -> float:
        arg = (2.0 * level * math.cos(th) + params.g2) / d
        if abs(arg) > 1.0:
            raise ValueError(f"arcsine argument {arg!r} outside [-1, 1] at theta={th!r}")
        return -math.asin(arg) / math.sqrt(2.0 * level)

    return antiderivative(theta) - antiderivative(base) + J


def _time(params, level: float, theta: float, J: float) -> float:
    """T(theta): the arcsine form, or mpmath's quadrature of 1/h where that form is invalid."""
    try:
        return winternitz_angular_time_closed(params, level, theta, J)
    except ValueError:
        pass

    def inverse_momentum(lam):
        return 1.0 / _momentum(params, level, float(lam))

    return float(mpmath.quad(inverse_momentum, [BASE, theta])) + J


def winternitz_psi_closed(params, invariant, c1: float, c2: float, J: float, theta: float) -> float:
    """psi(theta) = c1 cos(k T) + c2 sin(k T) + mu0/k^2 with k = sqrt(2 (I + g3))."""
    level = float(invariant)
    ksq = 2.0 * (level + params.g3)
    if ksq <= 0.0:
        raise ValueError(f"requires I + g3 > 0, got {level + params.g3!r}")
    k = math.sqrt(ksq)
    t_par = _time(params, level, theta, J)
    return c1 * math.cos(k * t_par) + c2 * math.sin(k * t_par) + params.mu0 / ksq


def winternitz_dpsi_closed(params, invariant, c1: float, c2: float, J: float, theta: float) -> float:
    """d psi / d theta of the closed form (chain rule through dT/dtheta = 1/h)."""
    level = float(invariant)
    k = math.sqrt(2.0 * (level + params.g3))
    t_par = _time(params, level, theta, J)
    h = _momentum(params, level, theta)
    return (-c1 * k * math.sin(k * t_par) + c2 * k * math.cos(k * t_par)) / h


def winternitz_hamiltonian(params, r: float, theta: float, rdot: float, thetadot: float) -> float:
    """Conserved energy 0.5*(rdot^2 + r^2 thetadot^2) - mu0/r + (V + g3)/r^2."""
    kinetic = 0.5 * (rdot**2 + (r * thetadot) ** 2)
    return kinetic - params.mu0 / r + (_potential(params, theta) + params.g3) / r**2
