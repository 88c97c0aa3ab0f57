"""Scalar expression trees: parsing, evaluation, symbolic differentiation.

The grammar covers everything needed for integrands f(t, y, v), outer maps
H(u1, ..., un) and coefficient functions of t:

    sum     :=  term (("+" | "-") term)*          # left associative
    term    :=  unary (("*" | "/") unary)*        # left associative
    unary   :=  "-" unary | power
    power   :=  atom ("^" ["-"] INTEGER)*         # integer literal exponents
    atom    :=  NUMBER | NAME | NAME "(" sum ")" | "(" sum ")"

Numbers are decimal literals (scientific notation allowed).  The function
set is fixed to sin, cos, exp, log, sqrt.  Exponents must be integer
literals; a negative exponent is rewritten as a division, so stored trees
only ever carry non-negative integer powers.

Trees are immutable and evaluation is pure; bindings may hold floats or
numpy arrays, in which case evaluation broadcasts elementwise.  Each node
compiles on first use into a closure over its children's closures, cached
on the node; ``evaluate`` also takes a tuple of trees, one call per stage.
Differentiation is exact on the whole grammar and applies constant folding
plus the 0/1 identities, nothing more.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "parse",
    "evaluate",
    "differentiate",
    "to_text",
    "expr_variables",
    "check_varset",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariable",
    "UnknownFunction",
    "NonIntegerExponent",
    "DivisionByZero",
    "DomainError",
    "NestingTooDeep",
]


class ExprError(Exception):
    """Base class for expression parsing and evaluation errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ExprError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown variable {name!r}")
        self.name = name
        self.position = position


class UnknownFunction(ExprError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown function {name!r}")
        self.name = name
        self.position = position


class NonIntegerExponent(ExprError):
    def __init__(self, detail: str, position: int = -1):
        super().__init__(f"exponent must be an integer literal: {detail}")
        self.position = position


class DivisionByZero(ExprError):
    def __init__(self, node: "Expr"):
        super().__init__(f"division by zero in {to_text(node)!r}")
        self.node = node


class DomainError(ExprError):
    def __init__(self, node: "Expr", detail: str):
        super().__init__(f"domain error in {to_text(node)!r}: {detail}")
        self.node = node


class NestingTooDeep(ExprError):
    """A tree too deep to differentiate, evaluate or print (one call per level)."""

    def __init__(self, action: str, node: "Expr | None" = None):
        super().__init__(f"expression nested too deeply to {action}")
        self.node = node


class Expr:
    """Base node; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)

    @cached_property
    def _closure(self) -> Callable:
        # Not a dataclass field, so ==, hash, repr and pickling ignore it.  Descendants
        # compile first, children before parents, so deep trees do not recurse.
        for node in reversed(_nodes(self)[1:]):
            node._closure
        return _compile(self)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_closure"}


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int  # always >= 2 after folding


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_MATH_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


# -- folding constructors ---------------------------------------------------
#
# Used by both the parser and the differentiator so that printed and
# re-parsed trees stay structurally identical.


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_int(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent < 0:
        return div(Const(1.0), pow_int(base, -exponent))
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        return Const(_power(base.value, exponent))
    return Pow(base, exponent)


def _power(x, exponent: int):
    """x**exponent; a float power that overflows is the IEEE inf, as numpy's is."""
    try:
        return x**exponent
    except OverflowError:
        return math.copysign(math.inf, x) if exponent % 2 else math.inf


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise UnknownFunction(func)
    if _is_const(arg):
        try:
            return Const(_MATH_FUNCTIONS[func](arg.value))
        except (ValueError, OverflowError):
            pass  # keep the node so evaluation reports the error in context
    return Call(func, arg)


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

_INT_RE = re.compile(r"\d+$")


def check_varset(vars: Iterable[str]) -> tuple[str, ...]:
    """Validate and normalize a variable set (ordered, unique, nonempty)."""
    names = tuple(vars)
    if not names:
        raise ValueError("variable set must not be empty")
    if len(set(names)) != len(names):
        raise ValueError(f"variable names must be unique, got {names}")
    for name in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ValueError(f"invalid variable name {name!r}")
    return names


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[where]!r}", where)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, vars: tuple[str, ...]):
        self.text = text
        self.vars = vars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok is None:
            raise ExprSyntaxError(f"expected {op!r}, found end of input", len(self.text))
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> Expr:
        e = self.sum_()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return e

    def sum_(self) -> Expr:
        e = self.term()
        while (tok := self.peek()) is not None and tok[0] == "op" and tok[1] in "+-":
            self.next()
            rhs = self.term()
            e = add(e, rhs) if tok[1] == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (tok := self.peek()) is not None and tok[0] == "op" and tok[1] in "*/":
            self.next()
            rhs = self.unary()
            e = mul(e, rhs) if tok[1] == "*" else div(e, rhs)
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while (tok := self.peek()) is not None and tok[0] == "op" and tok[1] == "^":
            self.next()
            e = pow_int(e, self.exponent())
        return e

    def exponent(self) -> int:
        sign = 1
        tok = self.next()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            sign = -1
            tok = self.next()
        if tok is None:
            raise ExprSyntaxError("expected an exponent, found end of input", len(self.text))
        kind, text, pos = tok
        if kind != "num" or not _INT_RE.fullmatch(text):
            raise NonIntegerExponent(f"got {text!r}", pos)
        return sign * int(text)

    def atom(self) -> Expr:
        tok = self.next()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        kind, text, pos = tok
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunction(text, pos)
                self.next()
                arg = self.sum_()
                self.expect_op(")")
                return call(text, arg)
            if text not in self.vars:
                raise UnknownVariable(text, pos)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.sum_()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected {text!r}", pos)


def parse(text: str, vars: Iterable[str]) -> Expr:
    """Parse ``text`` over the declared variable set into a folded tree."""
    parser = _Parser(text, check_varset(vars))
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise ExprSyntaxError("nested too deeply", tok[2] if tok else len(text)) from None


# -- evaluation ---------------------------------------------------------------


def evaluate(e: Expr | tuple[Expr, ...], bindings: Mapping[str, float | np.ndarray]):
    """Evaluate a tree, or a tuple of trees, under bindings (scalars or arrays).

    A tuple is evaluated in order under one ``np.errstate`` block and gives a
    tuple of values, so the first failing tree raises the error.  A division
    by an exact zero raises :class:`DivisionByZero`; any other denominator,
    however small, divides.  log of a non-positive value and sqrt of a
    negative value raise :class:`DomainError` naming the node; a tree too
    deep for one call per level raises :class:`NestingTooDeep`.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            if isinstance(e, tuple):
                return tuple([node._closure(bindings) for node in e])
            return e._closure(bindings)
        except RecursionError:
            raise NestingTooDeep("evaluate") from None


def _compile(node: Expr) -> Callable:
    """The closure ``bindings -> value`` of one node."""
    if isinstance(node, Const):
        value = node.value
        return lambda b: value
    if isinstance(node, Var):
        name = node.name

        def var(b):
            try:
                return b[name]
            except KeyError:
                raise UnknownVariable(name) from None

        return var
    if isinstance(node, Neg):
        arg = node.arg._closure
        return lambda b: -arg(b)
    if isinstance(node, Pow):
        base, exponent = node.base._closure, node.exponent
        return lambda b: _power(base(b), exponent)
    if isinstance(node, Call):
        arg, func, fn = node.arg._closure, node.func, FUNCTIONS[node.func]

        def call_(b):
            val = arg(b)
            # np.count_nonzero, not np.any: a seventh of its cost on a short array.
            if func == "log" and np.count_nonzero(val <= 0.0):
                raise DomainError(node, "log of a non-positive value")
            if func == "sqrt" and np.count_nonzero(val < 0.0):
                raise DomainError(node, "sqrt of a negative value")
            return fn(val)

        return call_
    if type(node) in _BINARY:
        op, lhs, rhs = _BINARY[type(node)], node.lhs._closure, node.rhs._closure
        return lambda b: op(lhs(b), rhs(b))
    if not isinstance(node, Div):
        raise TypeError(f"not an expression node: {node!r}")
    lhs, rhs = node.lhs._closure, node.rhs._closure

    def divide(b):
        num, den = lhs(b), rhs(b)
        # One count: it takes nan as nonzero and -0.0 as zero, as == does.
        if np.count_nonzero(den) < np.size(den):
            raise DivisionByZero(node)
        return num / den

    return divide


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


# -- differentiation ----------------------------------------------------------


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to ``var``, folded.

    Raises :class:`NestingTooDeep`, naming ``e``, when the tree is too deep.
    """

    def d(node: Expr) -> Expr:
        if isinstance(node, Const):
            return Const(0.0)
        if isinstance(node, Var):
            return Const(1.0) if node.name == var else Const(0.0)
        if isinstance(node, Neg):
            return neg(d(node.arg))
        if isinstance(node, Add):
            return add(d(node.lhs), d(node.rhs))
        if isinstance(node, Sub):
            return sub(d(node.lhs), d(node.rhs))
        if isinstance(node, Mul):
            return add(mul(d(node.lhs), node.rhs), mul(node.lhs, d(node.rhs)))
        if isinstance(node, Div):
            du = d(node.lhs)
            dv = d(node.rhs)
            if _is_const(dv, 0.0):
                return div(du, node.rhs)
            return div(
                sub(mul(du, node.rhs), mul(node.lhs, dv)),
                pow_int(node.rhs, 2),
            )
        if isinstance(node, Pow):
            inner = d(node.base)
            return mul(
                mul(Const(float(node.exponent)), pow_int(node.base, node.exponent - 1)),
                inner,
            )
        if isinstance(node, Call):
            inner = d(node.arg)
            if node.func == "sin":
                outer = call("cos", node.arg)
            elif node.func == "cos":
                outer = neg(call("sin", node.arg))
            elif node.func == "exp":
                outer = call("exp", node.arg)
            elif node.func == "log":
                return div(inner, node.arg)
            elif node.func == "sqrt":
                return div(inner, mul(Const(2.0), call("sqrt", node.arg)))
            else:  # pragma: no cover - the grammar admits no other names
                raise UnknownFunction(node.func)
            return mul(outer, inner)
        raise TypeError(f"not an expression node: {node!r}")

    try:
        return d(e)
    except RecursionError:
        raise NestingTooDeep("differentiate", e) from None


# -- printing -----------------------------------------------------------------

# Precedence levels used for parenthesization, mirroring the grammar:
# atoms 5, power 4, unary minus 3, mul/div 2, add/sub 1.


def _precedence(e: Expr) -> int:
    if isinstance(e, (Var, Call)):
        return 5
    if isinstance(e, Const):
        return 5 if e.value >= 0 else 3
    if isinstance(e, Pow):
        return 4
    if isinstance(e, Neg):
        return 3
    if isinstance(e, (Mul, Div)):
        return 2
    return 1


def _wrap(e: Expr, min_prec: int) -> str:
    text = _text(e)
    return f"({text})" if _precedence(e) < min_prec else text


def to_text(e: Expr) -> str:
    """Render a tree as parseable text; parse(to_text(e)) == e for folded e.

    Raises :class:`NestingTooDeep`, naming ``e``, when the tree is too deep.
    """
    try:
        return _text(e)
    except RecursionError:
        raise NestingTooDeep("to_text", e) from None


def _text(e: Expr) -> str:
    if isinstance(e, Const):
        return f"{e.value:.17g}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, 4)
    if isinstance(e, Add):
        return f"{_wrap(e.lhs, 1)} + {_wrap(e.rhs, 2)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.lhs, 1)} - {_wrap(e.rhs, 2)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.lhs, 2)}*{_wrap(e.rhs, 3)}"
    if isinstance(e, Div):
        return f"{_wrap(e.lhs, 2)}/{_wrap(e.rhs, 3)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 5)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _nodes(e: Expr) -> list[Expr]:
    """Every node of a tree, each before its children, without recursion."""
    stack, out = [e], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [getattr(node, a) for a in ("arg", "base", "lhs", "rhs") if hasattr(node, a)]
    return out


def expr_variables(e: Expr) -> frozenset[str]:
    """The set of variable names referenced by a tree."""
    return frozenset(node.name for node in _nodes(e) if isinstance(node, Var))
