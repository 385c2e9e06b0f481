import math

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ermakov.expressions import (
    BinOp,
    Call,
    EvaluationError,
    Neg,
    Num,
    ParseError,
    Var,
    differentiate,
    evaluate,
    free_variables,
    parse,
    simplify,
    substitute,
    unparse,
)


class TestParse:
    def test_precedence_mul_over_add(self):
        assert parse("2*theta + 1") == BinOp(
            "+", BinOp("*", Num(2.0), Var("theta")), Num(1.0)
        )

    def test_power_of_call(self):
        assert parse("sin(theta)^2") == BinOp("^", Call("sin", Var("theta")), Num(2.0))

    def test_compound_fraction(self):
        e = parse("(g1 + g2*cos(theta))/sin(theta)^2")
        v = evaluate(e, {"theta": math.pi / 2, "g1": 1.0, "g2": 0.0})
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_power_right_associative(self):
        assert parse("2^3^2") == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
        assert evaluate(parse("2^3^2")) == 512.0

    def test_unary_minus_binds_tighter_than_power_base(self):
        # -x^2 means (-x)^2 under this grammar
        assert evaluate(parse("-2^2")) == 4.0
        assert parse("-x^2") == BinOp("^", Neg(Var("x")), Num(2.0))

    def test_negative_exponent(self):
        assert evaluate(parse("2^-2")) == 0.25

    def test_pi_constant(self):
        assert parse("pi") == Num(math.pi)

    def test_scientific_notation(self):
        assert parse("1.5e-3") == Num(0.0015)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'sinn'"):
            parse("sinn(x)")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("2 + * 3")
        assert err.value.position == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse("2 theta")

    def test_non_ascii_letter_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unexpected character 'À'") as err:
            parse("1 + À")
        assert err.value.position == 4


class TestEvaluate:
    def test_pi_over_two(self):
        assert evaluate(parse("pi/2")) == 1.5707963267948966

    def test_sqrt_negative_is_domain_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(-1)"))

    def test_tan_at_pi_over_four(self):
        assert evaluate(parse("tan(theta)"), {"theta": math.pi / 4}) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError, match="unbound variable 'q'"):
            evaluate(parse("q + 1"))

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_log_nonpositive(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("log(0)"))

    def test_deterministic(self):
        e = parse("sin(x)*exp(x/3) + x^3")
        env = {"x": 0.8375}
        assert evaluate(e, env) == evaluate(e, env)


def _central_difference(e, var, env, h=1e-6):
    lo = dict(env)
    hi = dict(env)
    lo[var] = env[var] - h
    hi[var] = env[var] + h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)


class TestDifferentiate:
    def test_constant(self):
        assert simplify(differentiate(parse("c"), "theta")) == Num(0.0)

    def test_sin_squared_against_finite_difference(self):
        e = parse("sin(theta)^2")
        env = {"theta": 0.7}
        d = evaluate(differentiate(e, "theta"), env)
        fd = _central_difference(e, "theta", env)
        assert abs(d - fd) <= 1e-8 * (1.0 + abs(d))

    def test_cos_derivative_value(self):
        d = evaluate(differentiate(parse("cos(t)"), "t"), {"t": 0.3})
        assert d == -math.sin(0.3)
        assert d == pytest.approx(-0.29552020666, abs=1e-10)

    def test_chain_rule_through_quotient(self):
        e = parse("exp(x)/(1 + x^2)")
        env = {"x": 0.4}
        d = evaluate(differentiate(e, "x"), env)
        assert d == pytest.approx(_central_difference(e, "x", env), rel=1e-8)

    def test_derivative_of_other_variable_vanishes(self):
        assert evaluate(differentiate(parse("sin(x)"), "y"), {"x": 1.0}) == 0.0


class TestSimplify:
    def test_add_zero(self):
        assert simplify(BinOp("+", Var("x"), Num(0.0))) == Var("x")

    def test_mul_zero(self):
        assert simplify(BinOp("*", Num(0.0), Call("sin", Var("t")))) == Num(0.0)

    def test_pow_one(self):
        assert simplify(BinOp("^", Var("x"), Num(1.0))) == Var("x")

    def test_pow_zero(self):
        assert simplify(BinOp("^", Var("x"), Num(0.0))) == Num(1.0)

    def test_constant_fold(self):
        assert simplify(parse("2*3 + 4")) == Num(10.0)

    def test_does_not_fold_domain_errors(self):
        e = parse("sqrt(-1)")
        assert simplify(e) == e


class TestSubstitute:
    def test_replaces_variable(self):
        e = substitute(parse("u^2 + 1"), {"u": parse("tan(theta)")})
        assert e == parse("tan(theta)^2 + 1")

    def test_free_variables(self):
        assert free_variables(parse("a*sin(theta) + b")) == {"a", "theta", "b"}


# --- property tests -------------------------------------------------------

_names = st.sampled_from(["x", "y", "theta", "t", "u"])
_numbers = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def _expr_strategy(depth=3, funcs=("sin", "cos", "tan", "asin", "acos", "atan", "sqrt", "exp", "log")):
    leaves = st.one_of(_numbers.map(Num), _names.map(Var))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(st.sampled_from(funcs), children).map(lambda t: Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_smooth_exprs = _expr_strategy(funcs=("sin", "cos", "atan", "exp"))


def _mp_eval(e, env):
    """Value of a tree of the smooth strategy in mpmath arithmetic."""
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_mp_eval(e.operand, env)
    if isinstance(e, Call):
        return getattr(mpmath, e.func)(_mp_eval(e.arg, env))
    a, b = _mp_eval(e.lhs, env), _mp_eval(e.rhs, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return a / b
    return a**b


@settings(max_examples=100, deadline=None)
@given(
    e=_smooth_exprs,
    env_vals=st.lists(
        st.floats(min_value=-1.5, max_value=1.5, allow_nan=False), min_size=5, max_size=5
    ),
)
# inputs on which earlier versions of the oracle failed
@example(e=BinOp("^", Var("y"), Var("y")), env_vals=[0.0, 6.1e-5, 0.0, 0.0, 0.0])
@example(e=BinOp("^", Var("theta"), Var("theta")), env_vals=[0.0, 0.0, 1e-5, 0.0, 0.0])
@example(
    e=Neg(Call("sin", BinOp("/", Var("x"), Num(1.03e-4)))), env_vals=[0.0, 0.0, 0.0, 0.0, 0.0]
)
@example(
    e=Neg(BinOp("^", Var("u"), Call("cos", Num(1e-12)))), env_vals=[0.0, 0.0, 0.0, 0.0, 5.7e-201]
)
def test_property_derivative_matches_central_difference(e, env_vals):
    env = dict(zip(["x", "y", "theta", "t", "u"], env_vals))
    names = free_variables(e)
    assume(names)
    var = sorted(names)[0]
    h = 1e-6
    try:
        probes = [
            evaluate(e, {**env, var: env[var] + s}) for s in (-4 * h, -h, 0.0, h, 4 * h)
        ]
        d = evaluate(differentiate(e, var), env)
    except EvaluationError:
        assume(False)
    assume(all(abs(p) < 1e3 for p in probes))
    assume(abs(d) < 1e6)
    # Richardson extrapolation (16 D(h) - D(4h))/15 of central differences,
    # taken at 50 digits with a step small enough that neither truncation
    # nor rounding reaches the tolerance, even next to a singularity
    with mpmath.workdps(50):
        env_mp = {k: mpmath.mpf(v) for k, v in env.items()}

        def f(s):
            return _mp_eval(e, {**env_mp, var: env_mp[var] + s})

        def central(s):
            return (f(s) - f(-s)) / (2 * s)

        step = mpmath.mpf("1e-15")
        fd = (16 * central(step) - central(4 * step)) / 15
    # complex means the expression leaves the reals within the step, where
    # floats rounded it back (u^cos(1e-12) near u = 0): no two-sided derivative
    assume(not isinstance(fd, mpmath.mpc))
    assert abs(d - float(fd)) <= 1e-6 * (1.0 + max(abs(d), abs(probes[2])))


@settings(max_examples=100, deadline=None)
@given(
    e=_expr_strategy(),
    env_vals=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=5, max_size=5
    ),
)
def test_property_simplify_preserves_evaluation(e, env_vals):
    env = dict(zip(["x", "y", "theta", "t", "u"], env_vals))
    s = simplify(e)
    try:
        before = evaluate(e, env)
    except EvaluationError:
        assume(False)
    after = evaluate(s, env)
    assert before == after or abs(before - after) <= 1e-15 * max(abs(before), abs(after))


@settings(max_examples=150, deadline=None)
@given(e=_expr_strategy())
def test_property_unparse_round_trip(e):
    s = simplify(e)
    assert parse(unparse(s)) == s
