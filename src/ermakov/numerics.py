"""Shared numerical primitives: adaptive quadrature and bracketed root finding."""

from __future__ import annotations

from typing import Callable

from scipy.integrate import quad as _scipy_quad

__all__ = [
    "BracketError",
    "QuadratureError",
    "quad_adaptive",
    "solve_bracketed",
]


class QuadratureError(ValueError):
    """Adaptive quadrature failed to reach its accuracy target."""


class BracketError(ValueError):
    """A root bracket could not be established or maintained."""


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


def solve_bracketed(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_tol: float,
    max_iter: int = 200,
) -> float:
    """Root of ``fn`` inside [lo, hi] by bisection with secant acceleration.

    Stops when |fn(x)| <= f_tol.  The bracket endpoints must straddle the
    root (opposite signs, or an exact zero at an endpoint).
    """
    a, b = float(lo), float(hi)
    fa, fb = fn(a), fn(b)
    if abs(fa) <= f_tol:
        return a
    if abs(fb) <= f_tol:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: f={fa!r}, {fb!r}")
    x_best, f_best = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    for _ in range(max_iter):
        # secant candidate; fall back to the midpoint when it degenerates
        # or leaves the bracket
        denom = fb - fa
        if denom != 0.0:
            x = b - fb * (b - a) / denom
        else:
            x = 0.5 * (a + b)
        width = abs(b - a)
        if not (min(a, b) < x < max(a, b)) or abs(x - a) < 0.01 * width or abs(x - b) < 0.01 * width:
            x = 0.5 * (a + b)
        fx = fn(x)
        if abs(fx) <= f_tol:
            return x
        if abs(fx) < abs(f_best):
            x_best, f_best = x, fx
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if abs(b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    if abs(f_best) <= 100.0 * f_tol:
        return x_best
    raise BracketError(f"root solve stalled near {x_best!r} with residual {f_best!r}")
