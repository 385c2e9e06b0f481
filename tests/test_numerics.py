"""quad_adaptive: differential tests against mpmath at 30 digits, and its contract;
linspace: bit-for-bit parity with numpy.linspace.

Each generated integral must agree with mpmath.quad within ten times the
accuracy target max(abs_tol, rel_tol*|I|) that quad_adaptive is asked for.
The families are the integrands the program hands it: coupling slopes
U'(w) = f(w) - g(1/w)/w^2, the quasi-invariance integrand 1/rho(t)^2 and
the angular-time integrand 1/sqrt(2 (I - V(theta))).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ermakov.expressions import EvaluationError
from ermakov.numerics import QuadratureError, exact_sum, linspace, quad_adaptive
from ermakov.expressions import parse
from ermakov.systems import _coupling_potential

ABS_TOL = 1e-13
REL_TOL = 1e-11

coefficients = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)
positive = st.floats(0.1, 3.0)


def _poly(cs, x):
    return sum(c * x**k for k, c in enumerate(cs))


def _lib(x):
    """The math module for x: mpmath for the reference, math for quad_adaptive."""
    return mpmath if isinstance(x, mpmath.mpf) else math


def _reference(fn, a, b) -> float:
    with mpmath.workdps(30):
        return float(mpmath.quad(fn, [mpmath.mpf(a), mpmath.mpf(b)]))


def _assert_within_target(value, ref):
    assert abs(value - ref) <= 10.0 * max(ABS_TOL, REL_TOL * abs(ref))


def _assert_matches_reference(fn, a, b):
    value = quad_adaptive(fn, a, b, abs_tol=ABS_TOL, rel_tol=REL_TOL)
    _assert_within_target(value, _reference(fn, a, b))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    f_num=coefficients,
    g_num=coefficients,
    f_den=positive,
    g_den=positive,
    rational=st.booleans(),
    w=st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 10.0)),
)
def test_coupling_slopes(f_num, g_num, f_den, g_den, rational, w):
    # f(u) = p(u) or p(u)/(1 + d u^2), likewise g: poles stay off (0, inf)
    def f(u):
        return _poly(f_num, u) / (1 + f_den * u * u) if rational else _poly(f_num, u)

    def g(v):
        return _poly(g_num, v) / (1 + g_den * v * v) if rational else _poly(g_num, v)

    def slope(lam):
        return f(lam) - g(1 / lam) / lam**2

    ref = _reference(slope, 1.0, w)
    _assert_within_target(quad_adaptive(slope, 1.0, w), ref)
    # the form systems._coupling_potential integrates: s = ln lam
    in_log = quad_adaptive(lambda s: slope(math.exp(s)) * math.exp(s), 0.0, math.log(w))
    _assert_within_target(in_log, ref)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    mean=st.floats(1.0, 3.0),
    amplitude=st.floats(0.0, 0.9),
    freq=st.floats(0.2, 4.0),
    t0=st.floats(-2.0, 2.0),
    length=st.floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-3),
)
def test_inverse_square_rho(mean, amplitude, freq, t0, length):
    # rho(t) = mean (1 + amplitude cos(freq t)) never vanishes
    def integrand(t):
        return 1 / (mean * (1 + amplitude * _lib(t).cos(freq * t))) ** 2

    _assert_matches_reference(integrand, t0, t0 + length)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    g1=st.floats(0.1, 2.0),
    g2=st.floats(-1.0, 1.0),
    lo=st.floats(0.3, 1.5),
    width=st.floats(0.05, 1.3),
    margin=st.floats(1e-3, 2.0),
)
def test_inverse_momentum(g1, g2, lo, width, margin):
    # Winternitz V = (g1 + g2 cos)/sin^2 with the level above V on [lo, hi]
    def potential(th):
        return (g1 + g2 * _lib(th).cos(th)) / _lib(th).sin(th) ** 2

    def integrand(th):
        return 1 / _lib(th).sqrt(2 * (level - potential(th)))

    top = max(potential(lo + width * k / 200) for k in range(201))
    level = top + margin * (1.0 + abs(top))
    _assert_matches_reference(integrand, lo, lo + width)


class TestContract:
    def test_empty_interval_is_zero_without_evaluating(self):
        def never(x):
            raise AssertionError("integrand evaluated")

        assert quad_adaptive(never, 0.7, 0.7) == 0.0

    def test_integrand_errors_propagate(self):
        def partial(x):
            if x > 0.5:
                raise EvaluationError(f"no value at {x!r}")
            return x

        with pytest.raises(EvaluationError, match="no value"):
            quad_adaptive(partial, 0.0, 1.0)

    def test_divergent_integral_is_unreliable(self):
        with pytest.raises(QuadratureError, match=r"quadrature on \[0.0, 1.0\] unreliable"):
            quad_adaptive(lambda x: 1.0 / x, 0.0, 1.0)

    def test_non_finite_values_are_unreliable(self):
        with pytest.raises(QuadratureError, match="not finite"):
            quad_adaptive(lambda x: math.nan, 0.0, 1.0)

    def test_reversed_limits_change_sign(self):
        fn = lambda x: math.exp(-x * x)
        assert quad_adaptive(fn, 2.0, -1.0) == -quad_adaptive(fn, -1.0, 2.0)

    def test_inf_minus_inf_between_subintervals_is_unreliable(self):
        # the first 21 points miss both poles; the halves' centres hit one each,
        # and their values, inf and -inf, add to no number
        def poles(x):
            return {-0.5: math.inf, 0.5: -math.inf}.get(x, abs(x - 0.123))

        with pytest.raises(QuadratureError, match="the value is not finite"):
            quad_adaptive(poles, -1.0, 1.0)

    def test_sum_is_the_same_on_every_python(self):
        # free motion f = u near the sector edge: a plain sum() of the
        # subinterval values reads ...078p+5 before Python 3.12 and ...079p+5
        # from 3.12 on, where sum() became compensated
        # the pair (f, g) of free_motion_system("u", "1"): g(v) = -f(1/v)
        w = math.tan(2.6003504904892338e-15)
        value = _coupling_potential(parse("u"), parse("-(1/u)"))[1](w)
        assert value.hex() == "-0x1.10aa402486079p+5"

    def test_exact_sum_where_fsum_raises(self):
        assert exact_sum([0.1] * 10) == 1.0  # correctly rounded; left to right gives 0.9999999999999999
        assert exact_sum([1e308, 1e308, -1e308]) == math.inf  # a partial sum overflows
        assert exact_sum(q * q for q in [1e300, 1e300]) == math.inf
        assert math.isnan(exact_sum([math.inf, 1.0, -math.inf]))

    def test_endpoint_singularity_within_target(self):
        # int_0^1 x^-1/2 = 2 needs many bisections toward 0 but converges
        assert quad_adaptive(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0) == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# linspace: the CLI's sample times and the angle grids of linearize
# ---------------------------------------------------------------------------

def _bits(values):
    """Each float's exact bits, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    start=st.floats(-1e3, 1e3),
    width=st.floats(-300.0, 3.0).map(lambda e: 10.0**e),  # spans from 1e-300 to 1e3
    reversed_span=st.booleans(),
    n=st.integers(2, 500),
)
@example(start=0.0, width=1.0, reversed_span=False, n=2)
@example(start=0.5, width=1.0, reversed_span=True, n=2)
def test_linspace_matches_numpy_bit_for_bit(start, width, reversed_span, n):
    stop = start - width if reversed_span else start + width
    assert _bits(linspace(start, stop, n)) == _bits(np.linspace(start, stop, n).tolist())


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    start=st.sampled_from([0.0, -0.0, 1e-310, -3e-320]),
    ulps=st.integers(1, 4),
    reversed_span=st.booleans(),
    extra=st.integers(0, 60),
)
@example(start=0.0, ulps=1, reversed_span=False, extra=0)
def test_linspace_matches_numpy_where_the_step_underflows(start, ulps, reversed_span, extra):
    # a span of a few subnormals over n - 1 > 2 ulps intervals: the step rounds to zero
    stop = start + (-ulps if reversed_span else ulps) * 5e-324
    n = 2 * ulps + 2 + extra
    assert stop != start and (stop - start) / (n - 1) == 0.0
    assert _bits(linspace(start, stop, n)) == _bits(np.linspace(start, stop, n).tolist())
