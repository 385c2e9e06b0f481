import math
import pickle

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ermakov import expressions
from ermakov.expressions import (
    BinOp,
    Call,
    EvaluationError,
    Neg,
    Num,
    ParseError,
    Ufunc,
    Var,
    differentiate,
    evaluate,
    free_variables,
    lower,
    parse,
    simplify,
    substitute,
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

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "(" * n + "0" + ")" * n,
            lambda n: "sin(" * n + "x" + ")" * n,
            lambda n: "-" * n + "x",
            lambda n: "x^" * n + "x",
            lambda n: "+".join(["x"] * n),
        ],
        ids=["parentheses", "calls", "negations", "powers", "sum"],
    )
    def test_nesting_too_deep_is_a_parse_error(self, nest):
        # the recursive tree walks (simplify, differentiate, ...) rely on this bound
        parse(nest(90))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(nest(3000))


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

    def test_tree_is_lowered_once(self, monkeypatch):
        lowered = []
        real = expressions._lower
        monkeypatch.setattr(
            expressions, "_lower", lambda *args: lowered.append(args) or real(*args)
        )
        e = parse("sin(x)*exp(x/3) + x^3")
        values = [evaluate(e, {"x": x / 7.0}) for x in range(5)]
        assert lowered == [((e,),)]
        assert values == [_reference(e, {"x": x / 7.0}) for x in range(5)]

    def test_evaluated_tree_pickles(self):
        e = parse("sin(x)*exp(x/3) + x^3")
        value = evaluate(e, {"x": 0.8375})
        copy = pickle.loads(pickle.dumps(e))
        assert "_lowered" in vars(e) and "_lowered" not in vars(copy)  # the function stays behind
        assert copy == e and evaluate(copy, {"x": 0.8375}) == value

    def test_earlier_error_wins_over_later_unbound_variable(self):
        with pytest.raises(EvaluationError, match="sqrt domain error at -1.0"):
            evaluate(parse("sqrt(-1) + q"))
        with pytest.raises(EvaluationError, match="unbound variable 'q'"):
            evaluate(parse("q + sqrt(-1)"))

    def test_literal_is_not_compiled(self, monkeypatch):
        monkeypatch.setattr(expressions, "_lower", lambda *args: pytest.fail(f"lowered {args}"))
        zero = Num(-0.0)
        assert math.copysign(1.0, evaluate(zero, {"x": 1.0})) == -1.0
        assert callable(vars(zero)["_lowered"])  # kept on the node, as a compiled tree's is
        nan = Num(math.nan)
        for _ in range(2):  # the first evaluation, then the function kept on the node
            with pytest.raises(EvaluationError, match="expression evaluated to NaN"):
                evaluate(nan)

    def test_tree_deeper_than_the_recursion_limit_evaluates(self):
        e = Var("x")
        for _ in range(20_000):
            e = BinOp("+", e, Num(1.0))
        assert evaluate(e, {"x": 0.5}) == 20_000.5


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


def _mp_eval(e, env, ctx=mpmath):
    """Value of a tree of the smooth strategy, or of its derivative, in mpmath arithmetic.

    ``ctx=mpmath.iv`` gives an interval enclosure instead (iv has no atan).
    """
    if isinstance(e, Num):
        return ctx.mpf(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_mp_eval(e.operand, env, ctx)
    if isinstance(e, Call):
        u = _mp_eval(e.arg, env, ctx)
        return ctx.atan2(u, ctx.mpf(1)) if e.func == "atan" else getattr(ctx, e.func)(u)
    a, b = _mp_eval(e.lhs, env, ctx), _mp_eval(e.rhs, env, ctx)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return a / b
    return a**b


def _resolved(e, env):
    """Value of ``e`` at ``env`` to 30 digits, or None where 1,600 digits do not give them.

    The working precision starts at 50 digits and doubles until an interval
    enclosure is that narrow: a fixed precision can lose a whole term to
    cancellation (log(cos t) is 0 to 235 digits at t = 3e-118).
    """
    saved = mpmath.iv.dps
    try:
        for dps in (50, 100, 200, 400, 800, 1600):
            mpmath.iv.dps = dps
            try:
                v = _mp_eval(e, {k: mpmath.iv.mpf(x) for k, x in env.items()}, mpmath.iv)
            except (ValueError, ZeroDivisionError):  # complex, or no value at all
                return None
            if not isinstance(v, type(mpmath.iv.mpf(0))):
                return None
            with mpmath.workdps(dps):
                lo, hi = mpmath.mpf(v.a), mpmath.mpf(v.b)
                if mpmath.isfinite(lo) and mpmath.isfinite(hi) and hi - lo <= 1e-30 * (1 + abs(lo)):
                    return (lo + hi) / 2
        return None
    finally:
        mpmath.iv.dps = saved


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
@example(
    e=Neg(Call("atan", BinOp("/", Num(1.0), Var("x")))),
    env_vals=[1.1686389137272825e-60, 0.0, 0.0, 0.0, 0.0],
)
# cos(t) rounds to 1 in floats and at 50 digits, so ln(cos t)/t^2 reads 0, not -1/2
@example(e=parse("--(cos(t)^(1/t))"), env_vals=[0.0, 0.0, 0.0, 3.0354617016064005e-118, 0.0])
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
        de = differentiate(e, var)
        d = evaluate(de, env)
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

        def richardson(step):
            return (16 * central(step) - central(4 * step)) / 15

        fd, fd_fine = richardson(mpmath.mpf("1e-15")), richardson(mpmath.mpf("1e-18"))
    # complex means the expression leaves the reals within the step, where
    # floats rounded it back (u^cos(1e-12) near u = 0): no two-sided derivative
    assume(not isinstance(fd, mpmath.mpc) and not isinstance(fd_fine, mpmath.mpc))
    # the two steps disagree where the stencil straddles a jump or kink, as
    # atan(1/x) jumps at x = 0: no derivative to compare with there
    assume(abs(fd - fd_fine) <= 1e-9 * (1 + abs(fd)))
    exact = _resolved(de, env)
    assume(exact is not None)
    tol = 1e-6 * (1.0 + max(abs(float(exact)), abs(probes[2])))
    # the derivative tree is right
    assert abs(exact - fd) <= tol
    # and so is its float value, where floats keep the terms the tree needs
    if abs(d - exact) <= 1e-12 * (1 + abs(exact)):
        assert abs(d - float(fd)) <= tol


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


def _walk(node, env):
    """Recursive tree walk: the reference for the compiled evaluator."""
    tp = type(node)
    if tp is Num:
        return node.value
    if tp is Var:
        try:
            return env[node.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {node.name!r}") from None
    if tp is Neg:
        return -_walk(node.operand, env)
    if tp is BinOp:
        a = _walk(node.lhs, env)
        b = _walk(node.rhs, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise EvaluationError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"power domain error: {a!r}^{b!r}") from exc
    u = _walk(node.arg, env)
    if tp is Call:
        try:
            return getattr(math, node.func)(u)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{node.func} domain error at {u!r}") from exc
    try:
        return float(node.fn(u))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvaluationError(f"{node.name} domain error at {u!r}") from exc


def _reference(e, env):
    value = _walk(e, env)
    if math.isnan(value):
        raise EvaluationError("expression evaluated to NaN")
    return value


def _outcome(evaluator, e, env):
    """The value's bits, or the exception's class and message."""
    try:
        return float.hex(evaluator(e, env))
    except Exception as exc:
        return type(exc), str(exc)


# raise ZeroDivisionError, ValueError and OverflowError at some arguments
_UFUNCS = [("R", lambda w: 1.0 / w), ("S", math.sqrt), ("E", math.exp)]
_edge_numbers = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e200, -1e200, math.inf, -math.inf])


def _evaluator_trees():
    leaves = st.one_of(
        st.one_of(_numbers, _edge_numbers, st.just(math.nan)).map(Num),
        st.sampled_from(["x", "y", "theta", "q"]).map(Var),  # q is never bound
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(st.sampled_from(sorted(expressions.FUNCTIONS)), children).map(
                lambda t: Call(t[0], t[1])
            ),
            st.tuples(st.sampled_from(_UFUNCS), children).map(
                lambda t: Ufunc(t[0][0], t[1], t[0][1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    e=_evaluator_trees(),
    env_vals=st.lists(st.one_of(_numbers, _edge_numbers), min_size=3, max_size=3),
)
@example(e=parse("1/x"), env_vals=[0.0, 0.0, 0.0])
@example(e=parse("sqrt(x) + log(y) + asin(theta)"), env_vals=[-1.0, 1.0, 0.0])
@example(e=parse("log(y)"), env_vals=[0.0, 0.0, 0.0])
@example(e=parse("asin(theta)"), env_vals=[0.0, 0.0, 2.0])
@example(e=parse("x^y"), env_vals=[1e200, 2.0, 0.0])
@example(e=parse("x^y"), env_vals=[-1.0, 0.5, 0.0])
@example(e=parse("x - x"), env_vals=[math.inf, 0.0, 0.0])
@example(e=parse("exp(x)"), env_vals=[1e200, 0.0, 0.0])
@example(e=Ufunc("E", Var("x"), math.exp), env_vals=[1e200, 0.0, 0.0])
def test_property_compiled_evaluator_matches_tree_walk(e, env_vals):
    env = dict(zip(["x", "y", "theta"], env_vals))
    assert _outcome(evaluate, e, env) == _outcome(_reference, e, env)


# --- one function for a tuple of trees --------------------------------------


def _hexes(values):
    return tuple(map(float.hex, values))


class TestLower:
    def test_signed_zeros_keep_their_own_values(self):
        # Num(0.0) == Num(-0.0): merging equal nodes would give x*0.0 the value of x*-0.0
        x = Var("x")
        neg, pos = BinOp("*", x, Num(-0.0)), BinOp("*", x, Num(0.0))
        assert _hexes(lower((neg, pos), ("x",))(1.0)) == _hexes((-0.0, 0.0))
        assert math.copysign(1.0, evaluate(BinOp("-", neg, pos), {"x": 1.0})) == -1.0

    def test_ufuncs_with_different_callables_keep_their_own_values(self):
        # Ufunc equality ignores the callable: these two nodes compare equal
        double = Ufunc("U", Var("x"), lambda w: 2 * w)
        triple = Ufunc("U", Var("x"), lambda w: 3 * w)
        assert double == triple
        assert lower((double, triple), ("x",))(1.5) == (3.0, 4.5)
        assert evaluate(BinOp("-", double, triple), {"x": 1.5}) == -1.5

    def test_ufunc_shared_by_two_outputs_is_called_once(self):
        calls = []
        u = Ufunc("U", Call("tan", Var("theta")), lambda w: calls.append(w) or w * w)
        fn = lower((BinOp("+", u, Num(1.0)), BinOp("*", Num(2.0), u)), ("theta",))
        for theta in (0.3, 0.4):
            calls.clear()
            assert fn(theta) == (math.tan(theta) ** 2 + 1.0, 2.0 * math.tan(theta) ** 2)
            assert calls == [math.tan(theta)]

    def test_first_failing_tree_wins(self):
        fn = lower((parse("sqrt(x)"), parse("log(x)"), parse("q")), ("x",))
        with pytest.raises(EvaluationError, match="sqrt domain error at -1.0"):
            fn(-1.0)
        with pytest.raises(EvaluationError, match="log domain error at 0.0"):
            fn(0.0)
        with pytest.raises(EvaluationError, match="unbound variable 'q'"):
            fn(1.0)
        # a NaN value is an error of its own tree, before the later trees run
        with pytest.raises(EvaluationError, match="evaluated to NaN"):
            lower((parse("x - x"), parse("log(-x)")), ("x",))(math.inf)


def _subtrees(e):
    yield e
    for child in (getattr(e, name, None) for name in ("operand", "lhs", "rhs", "arg")):
        if child is not None:
            yield from _subtrees(child)


@st.composite
def _tree_tuples(draw):
    """Trees built from generated parts, each later one over an earlier tree or a subtree of one."""
    trees = [draw(_expr_strategy())]
    for _ in range(draw(st.integers(0, 3))):
        shared = draw(st.sampled_from([s for t in trees for s in _subtrees(t)]))
        fresh = draw(_expr_strategy())
        name, fn = draw(st.sampled_from(_UFUNCS))
        trees.append(
            draw(
                st.sampled_from(
                    [
                        shared,
                        Neg(shared),
                        Ufunc(name, shared, fn),
                        *(BinOp(op, shared, fresh) for op in "+-*/^"),
                        *(BinOp(op, fresh, shared) for op in "+-*/^"),
                    ]
                )
            )
        )
    return trees


def _missing_key(w):
    return {}[w]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    trees=_tree_tuples(),
    params=st.permutations(["x", "y", "theta", "t", "u"]).flatmap(
        lambda p: st.integers(4, 5).map(lambda n: p[:n])
    ),
    values=st.lists(st.one_of(_numbers, _edge_numbers), min_size=5, max_size=5),
)
@example(trees=[parse("x*-0.0"), parse("x*0.0")], params=["x"], values=[1.0] * 5)
@example(trees=[parse("sqrt(x)"), parse("sqrt(x) + q")], params=["x"], values=[4.0] * 5)
# the unchecked body of a lowered function leaves each of these to its checked walk
@example(trees=[parse("x + 1"), parse("y / x")], params=["x", "theta", "t", "u"], values=[2.0] * 5)
@example(trees=[parse("x - x"), parse("sqrt(-x)")], params=["x"], values=[math.inf] * 5)
@example(trees=[parse("x / -0.0")], params=["x"], values=[1.0] * 5)
@example(trees=[parse("x / y"), parse("x")], params=["x", "y"], values=[1.0, -0.0, 0.0, 0.0, 0.0])
@example(trees=[parse("x + 1"), parse("exp(x)")], params=["x"], values=[1e200] * 5)
@example(trees=[Ufunc("R", Var("x"), _UFUNCS[0][1])], params=["x"], values=[0.0] * 5)
@example(trees=[parse("x"), Ufunc("K", Var("x"), _missing_key)], params=["x"], values=[0.5] * 5)
def test_property_lowered_tuple_matches_evaluating_each_tree(trees, params, values):
    env = dict(zip(params, values))

    def one_by_one():
        return tuple(evaluate(t, env) for t in trees)

    def walked():
        return tuple(_reference(t, env) for t in trees)

    outcomes = []
    for run in (lambda: lower(trees, params)(*values[: len(params)]), one_by_one, walked):
        try:
            outcomes.append(_hexes(run()))
        except Exception as exc:  # a Ufunc's KeyError propagates as it is
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# --- differential tests against sympy ---------------------------------------

_NAMES = ["x", "y", "theta", "t", "u"]


def _to_sympy(e, sympy):
    """The same tree in sympy, every constant exact (40 digits hold a double)."""
    if isinstance(e, Num):
        return sympy.Integer(int(e.value)) if e.value.is_integer() else sympy.Float(e.value, 40)
    if isinstance(e, Var):
        return sympy.Symbol(e.name, real=True)
    if isinstance(e, Neg):
        return -_to_sympy(e.operand, sympy)
    if isinstance(e, Call):
        return getattr(sympy, e.func)(_to_sympy(e.arg, sympy))
    a, b = _to_sympy(e.lhs, sympy), _to_sympy(e.rhs, sympy)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return a / b
    return a**b


def _sympy_value(expr, env, sympy):
    """Value of a sympy expression at 40 digits, or None off the finite reals."""
    if expr.has(sympy.zoo, sympy.nan, sympy.oo, -sympy.oo):
        return None
    fn = sympy.lambdify([sympy.Symbol(n, real=True) for n in _NAMES], expr, "mpmath")
    with mpmath.workdps(40):
        try:
            value = mpmath.mpmathify(fn(*(mpmath.mpf(env[n]) for n in _NAMES)))
        except (ZeroDivisionError, ValueError, OverflowError):
            return None
        if isinstance(value, mpmath.mpc) or not mpmath.isfinite(value):
            return None
        return value


def _float_value(e, env):
    try:
        return evaluate(e, env)
    except EvaluationError:
        return None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    e=_smooth_exprs,
    env_vals=st.lists(
        st.floats(min_value=-1.5, max_value=1.5, allow_nan=False), min_size=5, max_size=5
    ),
)
# u^v at u = 0, and a folded 1/3 that 1/x^2 amplifies near 0 (the
# derivative is compared before simplify for that reason)
@example(
    e=Neg(BinOp("^", Num(0.0), BinOp("-", Var("x"), Var("x")))), env_vals=[0.0] * 5
)
@example(e=BinOp("+", Var("x"), BinOp("^", Num(0.0), Num(0.0))), env_vals=[0.0] * 5)
@example(e=BinOp("/", Var("x"), BinOp("/", Var("x"), Num(3.0))), env_vals=[1.2e-38] + [0.0] * 4)
def test_differentiate_agrees_with_sympy(e, env_vals):
    # Both derivatives are evaluated at 40 digits, so only the rules are
    # compared; the one rounding on our side is the exponent v - 1 of the
    # power rule, a relative 1e-16 in the exponent.
    sympy = pytest.importorskip("sympy")
    env = dict(zip(_NAMES, env_vals))
    names = free_variables(e)
    assume(names and _float_value(e, env) is not None)  # a derivative needs a value
    var = sorted(names)[0]
    exact = sympy.diff(_to_sympy(e, sympy), sympy.Symbol(var, real=True))
    expected = _sympy_value(exact, env, sympy)
    assume(expected is not None and abs(expected) < 1e6)
    derivative = differentiate(e, var)
    got = _sympy_value(_to_sympy(derivative, sympy), env, sympy)
    if got is None:
        # off a rule's domain, as u^v at u = 0 where sympy folds 0^(x - x)
        # to a constant: the program must refuse, not answer
        with pytest.raises(EvaluationError):
            evaluate(derivative, env)
        return
    assert abs(got - expected) <= 1e-9 * (1 + abs(expected))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    e=_expr_strategy(),
    env_vals=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=5, max_size=5
    ),
)
# the mirror images of the identity rules, which must not be eliminated
@example(e=BinOp("-", Num(0.0), Var("x")), env_vals=[0.5, 0.0, 0.0, 0.0, 0.0])
@example(e=BinOp("/", Num(1.0), Var("x")), env_vals=[0.5, 0.0, 0.0, 0.0, 0.0])
@example(e=BinOp("^", Num(1.0), Var("x")), env_vals=[0.5, 0.0, 0.0, 0.0, 0.0])
@example(e=BinOp("^", Num(0.0), Var("x")), env_vals=[0.5, 0.0, 0.0, 0.0, 0.0])
def test_simplify_agrees_with_sympy(e, env_vals):
    # simplify folds constants in floats.  Where the tree's own float value
    # is accurate, that rounding is not amplified either, and the simplified
    # tree must keep the exact value of the original.
    sympy = pytest.importorskip("sympy")
    env = dict(zip(_NAMES, env_vals))
    expected = _sympy_value(_to_sympy(e, sympy), env, sympy)
    value = _float_value(e, env)
    assume(expected is not None and value is not None)
    assume(abs(value - expected) <= 1e-12 * (1 + abs(expected)))
    got = _sympy_value(_to_sympy(simplify(e), sympy), env, sympy)
    assert got is not None
    assert abs(got - expected) <= 1e-9 * (1 + abs(expected))
