"""Shared numerical primitives: adaptive quadrature and evenly spaced grids.

A globally adaptive Gauss-Kronrod rule on Python floats: QUADPACK's
G10K21 pair (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, 1983, routines QK21 and QAGE).  Each pass bisects the
subinterval with the largest error estimate until the summed estimate
meets the target.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

__all__ = ["QuadratureError", "exact_sum", "linspace", "quad_adaptive"]

# 21-point Kronrod abscissae on [-1, 1], outermost first; every second one
# (0.9739..., 0.8650..., ...) is a 10-point Gauss abscissa.  The centre is a
# Kronrod node only.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980478605,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
# 10-point Gauss weights, paired with _XGK[1], _XGK[3], ..., _XGK[9]
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GAUSS = tuple(zip(_XGK[1::2], _WGK[1::2], _WG))
_KRONROD = tuple(zip(_XGK[0::2], _WGK[0::2]))

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_LIMIT = 300  # subintervals
_ROUNDOFF = "roundoff error prevents the requested accuracy"


class QuadratureError(ValueError):
    """Adaptive quadrature failed to reach its accuracy target."""


def _qk21(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """QUADPACK's QK21 on [a, b]: (Kronrod value, error estimate, int |f|, int |f - mean|)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = fn(centr)
    resg = 0.0
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    pairs = []
    for x, wk, wg in _GAUSS:
        absc = hlgth * x
        f1 = fn(centr - absc)
        f2 = fn(centr + absc)
        pairs.append((wk, f1, f2))
        fsum = f1 + f2
        resg += wg * fsum
        resk += wk * fsum
        resabs += wk * (abs(f1) + abs(f2))
    for x, wk in _KRONROD:
        absc = hlgth * x
        f1 = fn(centr - absc)
        f2 = fn(centr + absc)
        pairs.append((wk, f1, f2))
        resk += wk * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for wk, f1, f2 in pairs:
        resasc += wk * (abs(f1 - reskh) + abs(f2 - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * hlgth, err, resabs, resasc


def quad_adaptive(
    fn: Callable[[float], float],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-13,
    rel_tol: float = 1e-11,
) -> float:
    """Adaptive Gauss-Kronrod integral of ``fn`` over [a, b].

    The target is max(abs_tol, rel_tol*|I|) with at most 300 subintervals.
    Exceptions raised by the integrand propagate; an unreliable result
    (estimated error far beyond the target, or not finite) raises
    QuadratureError.
    """
    if a == b:
        return 0.0
    area, errsum, defabs, resasc = _qk21(fn, a, b)
    errbnd = max(abs_tol, rel_tol * abs(area))
    if (errsum <= errbnd and errsum != resasc) or errsum == 0.0:
        return _checked(area, errsum, a, b, abs_tol, rel_tol, None)
    trouble = _ROUNDOFF if errsum <= 50.0 * _EPS * defabs else None
    # slot k holds one subinterval's value; the heap orders slots by error
    areas = [area]
    heap = [(-errsum, 0, a, b)]
    iroff1 = iroff2 = 0
    while trouble is None:
        neg_err, k, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        area1, error1, _, defab1 = _qk21(fn, lo, mid)
        area2, error2, _, defab2 = _qk21(fn, mid, hi)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum += erro12 + neg_err
        area += area12 - areas[k]
        if defab1 != error1 and defab2 != error2:
            if abs(areas[k] - area12) <= 1e-5 * abs(area12) and erro12 >= -0.99 * neg_err:
                iroff1 += 1
            if len(areas) >= 10 and erro12 > -neg_err:
                iroff2 += 1
        areas[k] = area1
        areas.append(area2)
        heapq.heappush(heap, (-error1, k, lo, mid))
        heapq.heappush(heap, (-error2, len(areas) - 1, mid, hi))
        errbnd = max(abs_tol, rel_tol * abs(area))
        if errsum <= errbnd:
            break
        if not errsum < math.inf:
            trouble = "the error estimate is not finite"
        elif iroff1 >= 6 or iroff2 >= 20:
            trouble = _ROUNDOFF
        elif len(areas) == _LIMIT:
            trouble = f"maximum number of subintervals ({_LIMIT}) reached"
        elif max(abs(lo), abs(hi)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            trouble = "subinterval too small: the integrand is singular or discontinuous"
    return _checked(exact_sum(areas), errsum, a, b, abs_tol, rel_tol, trouble)


def _checked(value, abserr, a, b, abs_tol, rel_tol, trouble) -> float:
    """Accept a flagged result only if its error is within 100x the target."""
    if not math.isfinite(value):
        trouble = "the value is not finite"
    elif trouble is None or abserr <= 100.0 * max(abs_tol, rel_tol * abs(value)):
        return value
    raise QuadratureError(f"quadrature on [{a!r}, {b!r}] unreliable: {trouble} (abserr={abserr:.3e})")


def exact_sum(values) -> float:
    """The correctly rounded sum of ``values`` (``math.fsum``).

    Unlike ``sum``, whose float rounding Python 3.12 changed, it is the same
    on every Python version.  Where fsum raises, the result is non-finite:
    inf where a partial sum passes the float range (unsigned: the callers
    add squares, or reject any non-finite total), NaN for inf + -inf.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def linspace(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from start to stop, bit for bit as numpy.linspace.

    Value i is i*step + start, or (i/(n - 1))*(stop - start) + start where
    step = (stop - start)/(n - 1) underflows to zero; the last is stop.
    """
    try:
        grid = [start] * n  # one request: a count beyond memory fails at once
    except (MemoryError, OverflowError):  # OverflowError: beyond the address space
        raise MemoryError(f"{n} grid values do not fit in memory") from None
    div = n - 1
    step = (stop - start) / div
    for i in range(div):
        grid[i] = i * step + start if step != 0.0 else i / div * (stop - start) + start
    grid[div] = stop
    return grid
