"""Expression engine for user-supplied scalar functions.

Every coupling, potential, frequency, and scale function in a system
definition is an immutable expression tree over real literals, named
variables, unary negation, the binary operators ``+ - * / ^``, and a fixed
set of elementary functions.  Trees support evaluation against variable
bindings, exact symbolic differentiation, and light simplification.

Precedence follows the usual convention: ``^`` binds tighter than ``*``
and ``/``, which bind tighter than ``+`` and ``-``; ``^`` is
right-associative, and a unary minus binds tighter than the base of a
power (``-x^2`` is ``(-x)^2``).
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Mapping, Sequence, Union

__all__ = [
    "BinOp",
    "Call",
    "EvaluationError",
    "Expression",
    "Neg",
    "Num",
    "ParseError",
    "Ufunc",
    "Var",
    "as_expression",
    "differentiate",
    "evaluate",
    "free_variables",
    "is_literal_zero",
    "lower",
    "parse",
    "simplify",
    "substitute",
]


class ParseError(ValueError):
    """Malformed source text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    """An expression could not be reduced to a finite real number."""


class _Frozen:
    """An immutable record.  Each subclass's ``__init__`` fills the instance
    ``__dict__``; two instances of one class compare and hash by their ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class _Node(_Frozen):
    """Base of the tree nodes; evaluate keeps a compiled function on a root."""

    def __getstate__(self):
        # the compiled function cannot be pickled; a copy compiles its own
        return {k: v for k, v in self.__dict__.items() if k != "_lowered"}


class Num(_Node):
    _fields = ("value",)

    def __init__(self, value: float):
        self.__dict__["value"] = float(value)


class Var(_Node):
    _fields = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class Neg(_Node):
    _fields = ("operand",)

    def __init__(self, operand: Expression):
        self.__dict__["operand"] = operand


class BinOp(_Node):
    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expression, rhs: Expression):  # op: one of + - * / ^
        self.__dict__.update(op=op, lhs=lhs, rhs=rhs)


class Call(_Node):
    _fields = ("func", "arg")

    def __init__(self, func: str, arg: Expression):
        self.__dict__.update(func=func, arg=arg)


# Placeholder variable used inside Ufunc.deriv; the lexer cannot produce a
# leading underscore, so user expressions can never collide with it.
DERIV_VAR = "_w"


class Ufunc(_Node):
    """Opaque numeric function of one argument with a known derivative.

    ``fn`` computes the value (typically by quadrature); ``deriv`` is an
    ordinary expression in the placeholder variable ``DERIV_VAR`` giving the
    exact derivative with respect to the argument, so differentiation stays
    symbolic even when the value itself is not elementary.  Equality ignores ``fn``.
    """

    _fields = ("name", "arg", "deriv")

    def __init__(self, name: str, arg: Expression, fn: Callable[[float], float], deriv=Num(0.0)):
        self.__dict__.update(name=name, arg=arg, fn=fn, deriv=deriv)


Expression = Union[Num, Var, Neg, BinOp, Call, Ufunc]

Bindings = Mapping[str, float]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Deepest nesting parse accepts: the recursive tree walks below stay far
# inside the interpreter's recursion limit, derivatives of such trees too.
_MAX_DEPTH = 100

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


_Token = tuple[str, str, int]  # kind ("num" | "name" | "op" | "end"), text, position


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUM_RE.match(src, i)
            if m is None:
                raise ParseError("malformed number", i)
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        if ch.isascii() and ch.isalpha():
            m = _NAME_RE.match(src, i)
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0
        self._nesting = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _next(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _descend(self, pos: int) -> None:
        """Enter one more level of parser recursion, which tree depth may not show."""
        self._nesting += 1
        if self._nesting > _MAX_DEPTH:
            raise ParseError("nested too deeply", pos)

    def _expect_op(self, op: str) -> None:
        kind, text, pos = self._next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expression:
        node = self._expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                node = BinOp(text, node, self._term())
            else:
                return node

    def _term(self) -> Expression:
        node = self._power()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                node = BinOp(text, node, self._power())
            else:
                return node

    def _power(self) -> Expression:
        base = self._signed()
        kind, text, pos = self._peek()
        if kind == "op" and text == "^":
            self._next()
            self._descend(pos)
            exponent = self._power()
            self._nesting -= 1
            return BinOp("^", base, exponent)
        return base

    def _signed(self) -> Expression:
        kind, text, pos = self._peek()
        if kind == "op" and text == "-":
            self._next()
            # sign attaches directly to a numeric literal
            nxt_kind, nxt_text, _ = self._peek()
            if nxt_kind == "num":
                self._next()
                return Num(-float(nxt_text))
            self._descend(pos)
            operand = self._signed()
            self._nesting -= 1
            return Neg(operand)
        return self._atom()

    def _atom(self) -> Expression:
        kind, text, pos = self._next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nxt_kind, nxt_text, nxt_pos = self._peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self._next()
                self._descend(nxt_pos)
                arg = self._expr()
                self._expect_op(")")
                self._nesting -= 1
                return Call(text, arg)
            if text == "pi":
                return Num(math.pi)
            return Var(text)
        if kind == "op" and text == "(":
            self._descend(pos)
            node = self._expr()
            self._expect_op(")")
            self._nesting -= 1
            return node
        raise ParseError(
            f"expected a value, found {text!r}" if text else "unexpected end of input",
            pos,
        )


def _depth(expr: Expression) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest = 0
    pending = [(expr, 1)]
    while pending:
        node, depth = pending.pop()
        deepest = max(deepest, depth)
        tp = type(node)
        if tp is BinOp:
            pending += [(node.lhs, depth + 1), (node.rhs, depth + 1)]
        elif tp is Neg:
            pending.append((node.operand, depth + 1))
        elif tp is Call:
            pending.append((node.arg, depth + 1))
    return deepest


def parse(src: str) -> Expression:
    """Parse source text into an expression tree.

    Raises ParseError (with position) on malformed input, an unknown
    function name, or nesting deeper than ``_MAX_DEPTH`` levels.
    """
    if not isinstance(src, str) or src.strip() == "":
        raise ParseError("empty expression", 0)
    tree = _Parser(_tokenize(src)).parse()
    if _depth(tree) > _MAX_DEPTH:
        raise ParseError("nested too deeply", 0)
    return tree


def as_expression(obj) -> Expression:
    """Coerce a string, number, or expression into an expression tree."""
    if isinstance(obj, (Num, Var, Neg, BinOp, Call, Ufunc)):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float)):
        return Num(float(obj))
    raise TypeError(f"cannot convert {type(obj).__name__} to an expression")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _postorder(expr: Expression):
    """The nodes of a tree, operands before operators, left to right, walked without recursion."""
    pending = [(expr, False)]
    while pending:
        node, operands_done = pending.pop()
        tp = type(node)
        if operands_done or tp is Num or tp is Var:
            yield node
        elif tp is BinOp:
            pending += [(node, True), (node.rhs, False), (node.lhs, False)]
        elif tp is Neg or tp is Call or tp is Ufunc:
            pending += [(node, True), (node.operand if tp is Neg else node.arg, False)]
        else:
            raise TypeError(f"not an expression node: {node!r}")


_FAILURES = (ValueError, OverflowError, ZeroDivisionError)  # of a math call, a power or a Ufunc
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _checked(trees: tuple[Expression, ...], env: Bindings) -> list[float]:
    """Evaluate the trees one after another, checking each operation.

    Raises the EvaluationError of the first operation that fails, or of the
    first tree whose value is NaN.
    """
    values = []
    for expr in trees:
        stack: list[float] = []
        for node in _postorder(expr):
            tp = type(node)
            if tp is Num:
                value = node.value
            elif tp is Var:
                try:
                    value = env[node.name]
                except KeyError:
                    raise EvaluationError(f"unbound variable {node.name!r}") from None
            elif tp is Neg:
                value = -stack.pop()
            elif tp is BinOp:
                u, a = stack.pop(), stack.pop()
                if node.op == "/" and u == 0.0:
                    raise EvaluationError("division by zero")
                if node.op != "^":
                    value = _ARITHMETIC[node.op](a, u)
                else:
                    try:
                        value = math.pow(a, u)
                    except _FAILURES as exc:
                        raise EvaluationError(f"power domain error: {a!r}^{u!r}") from exc
            else:
                u = stack.pop()
                name, fn = (node.func, FUNCTIONS[node.func]) if tp is Call else (node.name, node.fn)
                try:
                    value = float(fn(u))
                except _FAILURES as exc:
                    raise EvaluationError(f"{name} domain error at {u!r}") from exc
            stack.append(value)
        value = stack.pop()
        if value != value:
            raise EvaluationError("expression evaluated to NaN")
        values.append(value)
    return values


# What lowered code refers to besides its Ufunc callables and its checked walk.
_NAMESPACE = {"_pow": math.pow, **{f"_{name}": fn for name, fn in FUNCTIONS.items()}}


def _lower(trees: tuple[Expression, ...], params: tuple[str, ...] | None = None) -> Callable:
    """Compile trees to one straight-line Python function.

    With ``params`` the function takes their values positionally and
    returns the tuple of the trees' values; without, it takes a bindings
    mapping, reads each variable at its first use, and returns the value of
    the one tree.  Operator nodes run in the order of a depth-first,
    left-to-right walk of each tree in turn, and one that applies the same
    operation to the same operand text as an earlier node reuses its
    temporary (operand text, not node equality: Num(-0.0) == Num(0.0), and
    Ufunc equality ignores the callable, which is named by its identity
    here; a non-finite constant is spelled ``float('inf')``).  The body
    checks nothing.  Where it raises ValueError, OverflowError,
    ZeroDivisionError (float division by a zero of either sign) or KeyError
    (an unbound variable), or a value comes out NaN, the function returns
    what the checked walk of the same trees returns: so it raises the
    EvaluationError that evaluating the trees one after another raises first.
    """
    if params is None:
        walk = lambda env: _checked(trees, env)[0]
    else:
        walk = lambda *values: tuple(_checked(trees, dict(zip(params, values))))
    namespace = {**_NAMESPACE, "_walk": walk}
    body: list[str] = []
    local_of = {name: f"v{i}" for i, name in enumerate(params or ())}
    temp_of: dict[str, str] = {}  # operation as source text -> temporary
    results: list[str] = []
    for expr in trees:
        operands: list[str] = []  # the value of each finished subtree, as source text
        for node in _postorder(expr):
            tp = type(node)
            if tp is Num:
                text = repr(node.value)
                operands.append(text if math.isfinite(node.value) else f"float({text!r})")
                continue
            if tp is Var:
                local = local_of.get(node.name)
                if local is None:  # not a parameter: read at first use; positionally it is unbound
                    local = local_of[node.name] = f"v{len(local_of)}"
                    body.append(f"{local} = {'env' if params is None else '{}'}[{node.name!r}]")
                operands.append(local)
                continue
            u = operands.pop()
            if tp is BinOp:
                a = operands.pop()
                op = f"_pow({a}, {u})" if node.op == "^" else f"{a} {node.op} {u}"
            elif tp is Neg:
                op = f"-{u}"
            elif tp is Call:
                op = f"_{node.func}({u})"
            else:
                namespace[f"_u{id(node.fn)}"] = node.fn
                op = f"float(_u{id(node.fn)}({u}))"
            out = temp_of.get(op)
            if out is None:
                out = temp_of[op] = f"t{len(temp_of)}"
                body.append(f"{out} = {op}")
            operands.append(out)
        results.append(operands.pop())
    head = "env" if params is None else ", ".join(local_of[p] for p in params)
    nan = " or ".join(f"{r} != {r}" for r in dict.fromkeys(results))
    value = results[0] if params is None else f"({', '.join(results)},)"
    source = "".join([
        f"def lowered({head}):\n    try:\n",
        *(f"        {line}\n" for line in body or ["pass"]),
        "    except (ValueError, OverflowError, ZeroDivisionError, KeyError):\n",
        f"        return _walk({head})\n",
        f"    return _walk({head}) if {nan} else {value}\n",
    ])
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["lowered"]


def lower(trees: Sequence[Expression], params: Sequence[str]) -> Callable[..., tuple[float, ...]]:
    """One compiled function from the values of ``params`` to the values of ``trees``.

    ``lower(trees, params)(*values)`` returns what evaluating each tree in
    turn at ``dict(zip(params, values))`` returns, bit for bit, or raises
    the EvaluationError the first failing evaluation raises; a subtree the
    trees share is computed once.
    """
    return _lower(tuple(trees), tuple(params))


def evaluate(expr: Expression, env: Bindings | None = None) -> float:
    """Evaluate an expression to an IEEE double.

    Domain failures (square root of a negative, log of a non-positive,
    division by zero, unbound variables) raise EvaluationError rather than
    returning NaN.  The tree is compiled on its first evaluation and the
    function kept on the root; later calls run it.  A literal is not
    compiled: its function returns the value, or the walk's error for NaN.
    """
    try:
        fn = expr._lowered
    except AttributeError:
        if type(expr) is not Num:
            fn = _lower((expr,))
        elif expr.value == expr.value:
            fn = lambda env, value=expr.value: value
        else:
            fn = lambda env: _checked((expr,), env)[0]
        object.__setattr__(expr, "_lowered", fn)
    return fn(env if env is not None else {})


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(expr: Expression, var: str) -> Expression:
    """Exact symbolic derivative with respect to ``var``.

    The result is left unsimplified; callers apply :func:`simplify`.
    """
    tp = type(expr)
    if tp is Num:
        return Num(0.0)
    if tp is Var:
        return Num(1.0 if expr.name == var else 0.0)
    if tp is Neg:
        return Neg(differentiate(expr.operand, var))
    if tp is BinOp:
        u, v = expr.lhs, expr.rhs
        du = differentiate(u, var)
        dv = differentiate(v, var)
        op = expr.op
        if op in "+-":
            return BinOp(op, du, dv)
        if op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if op == "/":
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, Num(2.0)))
        # power: use the plain power rule for literal exponents so the
        # derivative stays defined for non-positive bases
        if type(v) is Num:
            return BinOp(
                "*",
                BinOp("*", v, BinOp("^", u, Num(v.value - 1.0))),
                du,
            )
        inner = BinOp(
            "+",
            BinOp("*", dv, Call("log", u)),
            BinOp("/", BinOp("*", v, du), u),
        )
        return BinOp("*", BinOp("^", u, v), inner)
    if tp is Call:
        u = expr.arg
        du = differentiate(u, var)
        f = expr.func
        if f == "sin":
            return BinOp("*", Call("cos", u), du)
        if f == "cos":
            return BinOp("*", Neg(Call("sin", u)), du)
        if f == "tan":
            return BinOp("/", du, BinOp("^", Call("cos", u), Num(2.0)))
        if f == "asin":
            return BinOp("/", du, Call("sqrt", BinOp("-", Num(1.0), BinOp("^", u, Num(2.0)))))
        if f == "acos":
            return Neg(BinOp("/", du, Call("sqrt", BinOp("-", Num(1.0), BinOp("^", u, Num(2.0))))))
        if f == "atan":
            return BinOp("/", du, BinOp("+", Num(1.0), BinOp("^", u, Num(2.0))))
        if f == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", u)))
        if f == "exp":
            return BinOp("*", Call("exp", u), du)
        if f == "log":
            return BinOp("/", du, u)
        raise TypeError(f"no derivative rule for function {f!r}")
    if tp is Ufunc:
        outer = substitute(expr.deriv, {DERIV_VAR: expr.arg})
        return BinOp("*", outer, differentiate(expr.arg, var))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Simplification, substitution, utilities
# ---------------------------------------------------------------------------

def _is_num(e: Expression, value: float) -> bool:
    return type(e) is Num and e.value == value


def simplify(expr: Expression) -> Expression:
    """Constant folding plus the identity eliminations x+0, x*1, x*0, x^1, x^0.

    Semantics are preserved at every binding where the original expression
    evaluates; x*0 -> 0 drops domain failures of the discarded factor, as
    usual for this rule set.
    """
    tp = type(expr)
    if tp is Num or tp is Var:
        return expr
    if tp is Neg:
        c = simplify(expr.operand)
        if type(c) is Num:
            return Num(-c.value)
        return Neg(c)
    if tp is Call:
        c = simplify(expr.arg)
        if type(c) is Num:
            try:
                v = FUNCTIONS[expr.func](c.value)
            except (ValueError, OverflowError):
                return Call(expr.func, c)
            if math.isfinite(v):
                return Num(v)
        return Call(expr.func, c)
    if tp is Ufunc:
        return Ufunc(expr.name, simplify(expr.arg), expr.fn, expr.deriv)

    a = simplify(expr.lhs)
    b = simplify(expr.rhs)
    op = expr.op
    if type(a) is Num and type(b) is Num:
        try:
            v = _ARITHMETIC.get(op, math.pow)(a.value, b.value)
        except _FAILURES:
            return BinOp(op, a, b)
        if math.isfinite(v):
            return Num(v)
        return BinOp(op, a, b)
    if op == "+":
        if _is_num(a, 0.0):
            return b
        if _is_num(b, 0.0):
            return a
    elif op == "-":
        if _is_num(b, 0.0):
            return a
    elif op == "*":
        if _is_num(a, 0.0) or _is_num(b, 0.0):
            return Num(0.0)
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
    elif op == "/":
        if _is_num(b, 1.0):
            return a
    elif op == "^":
        if _is_num(b, 1.0):
            return a
        if _is_num(b, 0.0):
            return Num(1.0)
    return BinOp(op, a, b)


def substitute(expr: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace named variables by expressions, leaving everything else intact."""
    tp = type(expr)
    if tp is Num:
        return expr
    if tp is Var:
        return mapping.get(expr.name, expr)
    if tp is Neg:
        return Neg(substitute(expr.operand, mapping))
    if tp is BinOp:
        return BinOp(expr.op, substitute(expr.lhs, mapping), substitute(expr.rhs, mapping))
    if tp is Call:
        return Call(expr.func, substitute(expr.arg, mapping))
    if tp is Ufunc:
        return Ufunc(expr.name, substitute(expr.arg, mapping), expr.fn, expr.deriv)
    raise TypeError(f"not an expression node: {expr!r}")


def free_variables(expr: Expression) -> frozenset[str]:
    tp = type(expr)
    if tp is Num:
        return frozenset()
    if tp is Var:
        return frozenset((expr.name,))
    if tp is Neg:
        return free_variables(expr.operand)
    if tp is BinOp:
        return free_variables(expr.lhs) | free_variables(expr.rhs)
    if tp is Call:
        return free_variables(expr.arg)
    if tp is Ufunc:
        return free_variables(expr.arg) | (free_variables(expr.deriv) - {DERIV_VAR})
    raise TypeError(f"not an expression node: {expr!r}")


def is_literal_zero(expr: Expression) -> bool:
    """True when the expression simplifies to the literal 0."""
    return _is_num(simplify(expr), 0.0)
