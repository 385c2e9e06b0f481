"""Expression engine for user-supplied scalar functions.

Every coupling, potential, frequency, and scale function in a system
definition is an immutable expression tree over real literals, named
variables, unary negation, the binary operators ``+ - * / ^``, and a fixed
set of elementary functions.  Trees support evaluation against variable
bindings, exact symbolic differentiation, light simplification, and
structural round-tripping through text.

Precedence follows the usual convention: ``^`` binds tighter than ``*``
and ``/``, which bind tighter than ``+`` and ``-``; ``^`` is
right-associative, and a unary minus binds tighter than the base of a
power (``-x^2`` is ``(-x)^2``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

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
    "parse",
    "simplify",
    "substitute",
    "unparse",
]


class ParseError(ValueError):
    """Malformed source text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    """An expression could not be reduced to a finite real number."""


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


# Placeholder variable used inside Ufunc.deriv; the lexer cannot produce a
# leading underscore, so user expressions can never collide with it.
DERIV_VAR = "_w"


@dataclass(frozen=True)
class Ufunc:
    """Opaque numeric function of one argument with a known derivative.

    ``fn`` computes the value (typically by quadrature); ``deriv`` is an
    ordinary expression in the placeholder variable ``DERIV_VAR`` giving the
    exact derivative with respect to the argument, so differentiation stays
    symbolic even when the value itself is not elementary.
    """

    name: str
    arg: "Expression"
    fn: Callable[[float], float] = field(compare=False)
    deriv: "Expression" = Num(0.0)


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

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


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
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if ch.isascii() and ch.isalpha():
            m = _NAME_RE.match(src, i)
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _next(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect_op(self, text: str) -> None:
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)

    def parse(self) -> Expression:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in "+-":
                self._next()
                node = BinOp(tok.text, node, self._term())
            else:
                return node

    def _term(self) -> Expression:
        node = self._power()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in "*/":
                self._next()
                node = BinOp(tok.text, node, self._power())
            else:
                return node

    def _power(self) -> Expression:
        base = self._signed()
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            self._next()
            return BinOp("^", base, self._power())
        return base

    def _signed(self) -> Expression:
        tok = self._peek()
        if tok.kind == "op" and tok.text == "-":
            self._next()
            # sign attaches directly to a numeric literal
            nxt = self._peek()
            if nxt.kind == "num":
                self._next()
                return Num(-float(nxt.text))
            return Neg(self._signed())
        return self._atom()

    def _atom(self) -> Expression:
        tok = self._next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos)
                self._next()
                arg = self._expr()
                self._expect_op(")")
                return Call(tok.text, arg)
            if tok.text == "pi":
                return Num(math.pi)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        raise ParseError(
            f"expected a value, found {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
        )


def parse(src: str) -> Expression:
    """Parse source text into an expression tree.

    Raises ParseError (with position) on malformed input or an unknown
    function name.
    """
    if not isinstance(src, str) or src.strip() == "":
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(src)).parse()


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

def _eval(node: Expression, env: Bindings) -> float:
    tp = type(node)
    if tp is Num:
        return node.value
    if tp is Var:
        try:
            return env[node.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {node.name!r}") from None
    if tp is BinOp:
        a = _eval(node.lhs, env)
        b = _eval(node.rhs, env)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise EvaluationError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"power domain error: {a!r}^{b!r}") from exc
    if tp is Call:
        u = _eval(node.arg, env)
        try:
            return FUNCTIONS[node.func](u)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{node.func} domain error at {u!r}") from exc
    if tp is Neg:
        return -_eval(node.operand, env)
    if tp is Ufunc:
        u = _eval(node.arg, env)
        try:
            return float(node.fn(u))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationError(f"{node.name} domain error at {u!r}") from exc
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(expr: Expression, env: Bindings | None = None) -> float:
    """Evaluate an expression to an IEEE double.

    Domain failures (square root of a negative, log of a non-positive,
    division by zero, unbound variables) raise EvaluationError rather than
    returning NaN.
    """
    value = _eval(expr, env if env is not None else {})
    if math.isnan(value):
        raise EvaluationError("expression evaluated to NaN")
    return value


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
            if op == "+":
                v = a.value + b.value
            elif op == "-":
                v = a.value - b.value
            elif op == "*":
                v = a.value * b.value
            elif op == "/":
                v = a.value / b.value
            else:
                v = math.pow(a.value, b.value)
        except (ValueError, OverflowError, ZeroDivisionError):
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


# ---------------------------------------------------------------------------
# Unparsing
# ---------------------------------------------------------------------------

_ADD_LEVEL = 10
_MUL_LEVEL = 20
_NEG_LEVEL = 25
_POW_LEVEL = 30
_ATOM_LEVEL = 100

_OP_LEVEL = {"+": _ADD_LEVEL, "-": _ADD_LEVEL, "*": _MUL_LEVEL, "/": _MUL_LEVEL, "^": _POW_LEVEL}


def _level(expr: Expression) -> int:
    tp = type(expr)
    if tp is BinOp:
        return _OP_LEVEL[expr.op]
    if tp is Neg:
        return _NEG_LEVEL
    return _ATOM_LEVEL


def unparse(expr: Expression) -> str:
    """Render a tree as text that parses back to the identical structure.

    Ufunc nodes render as ``name(arg)`` for display only; they are built in
    code, not parsed.
    """
    tp = type(expr)
    if tp is Num:
        return repr(expr.value)
    if tp is Var:
        return expr.name
    if tp is Call:
        return f"{expr.func}({unparse(expr.arg)})"
    if tp is Ufunc:
        return f"{expr.name}({unparse(expr.arg)})"
    if tp is Neg:
        c = expr.operand
        inner = unparse(c)
        if type(c) in (Var, Call, Ufunc):
            return f"-{inner}"
        return f"-({inner})"
    lvl = _OP_LEVEL[expr.op]
    lt = unparse(expr.lhs)
    rt = unparse(expr.rhs)
    if expr.op == "^":
        # right-associative
        if _level(expr.lhs) <= lvl:
            lt = f"({lt})"
        if _level(expr.rhs) < lvl:
            rt = f"({rt})"
    else:
        # left-associative
        if _level(expr.lhs) < lvl:
            lt = f"({lt})"
        if _level(expr.rhs) <= lvl:
            rt = f"({rt})"
    return f"{lt}{expr.op}{rt}"
