"""Shared numerical primitive: adaptive quadrature."""

from __future__ import annotations

from typing import Callable

from scipy.integrate import quad as _scipy_quad

__all__ = ["QuadratureError", "quad_adaptive"]


class QuadratureError(ValueError):
    """Adaptive quadrature failed to reach its accuracy target."""


def quad_adaptive(
    fn: Callable[[float], float],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-13,
    rel_tol: float = 1e-11,
) -> float:
    """Adaptive Gauss-Kronrod integral of ``fn`` over [a, b].

    Exceptions raised by the integrand propagate; an unreliable result
    (estimated error far beyond the target) raises QuadratureError.
    """
    if a == b:
        return 0.0
    out = _scipy_quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        # quadpack flagged trouble; accept only if the error estimate is
        # still within a modest multiple of the requested accuracy
        if abserr > 100.0 * max(abs_tol, rel_tol * abs(value)):
            raise QuadratureError(
                f"quadrature on [{a!r}, {b!r}] unreliable: {out[3]!s} (abserr={abserr:.3e})"
            )
    return value

