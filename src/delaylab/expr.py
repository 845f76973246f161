"""Arithmetic expressions in the variables x, z, eps.

Grammar, loosest binding first::

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | NAME | NAME '(' sum ')' | '(' sum ')'

'^' binds tighter than unary minus, so ``-x^2`` is ``-(x^2)`` while
``x^-2`` is ``x^(-2)``.  Function application is an atom, so
``exp(x)^2`` squares the exponential.  There is no implicit
multiplication: ``2x`` is a syntax error.  The only variables are
``x``, ``z`` and ``eps``; the only functions are ``exp``, ``log``,
``sin``, ``cos``, ``sqrt`` and ``abs``.

Parsing and evaluation are total: malformed text raises a located
error (byte offset into the source) and evaluation at finite inputs
either returns a finite float or raises ``DomainFaultError`` naming
the offending subexpression.  Parsed trees are immutable.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import DelayLabError

VARIABLES = ("x", "z", "eps")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")


class ExpressionError(DelayLabError):
    """Located expression problem; ``offset`` is a byte offset."""

    def __init__(self, message: str, source: str, pos: int):
        self.source = source
        self.offset = len(source[:pos].encode("utf-8"))
        super().__init__(f"{message} (offset {self.offset})")


class ExprSyntaxError(ExpressionError):
    pass


class UnknownNameError(ExpressionError):
    pass


class DomainFaultError(ExpressionError):
    """Evaluation left the real domain (log of a non-positive value, ...)."""

    def __init__(self, message: str, source: str, span: tuple[int, int]):
        self.span = span
        snippet = source[span[0]:span[1]]
        super().__init__(f"{message} in '{snippet}'", source, span[0])


class Const(NamedTuple):
    span: tuple[int, int]
    value: float


class Var(NamedTuple):
    span: tuple[int, int]
    name: str


class Neg(NamedTuple):
    span: tuple[int, int]
    arg: _Node


class BinOp(NamedTuple):
    span: tuple[int, int]
    op: str
    left: _Node
    right: _Node


class Call(NamedTuple):
    span: tuple[int, int]
    func: str
    arg: _Node


_Node = Const | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class Expr:
    """An immutable parsed expression; callable as ``e(x, z, eps)``.

    ``fn`` is the tree compiled once into nested closures, the only
    evaluator.
    """

    source: str
    root: _Node
    fn: Callable[[float, float, float], float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fn", _compile(self.root, self.source))

    def __call__(self, x: float, z: float, eps: float) -> float:
        return self.fn(x, z, eps)


_TOKEN_RE = re.compile(
    r"""(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<ws>\s+)""",
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", source, pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, tokens: list[tuple[str, str, int]]):
        self.source = source
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> _Node:
        node = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            if text == ")":
                raise ExprSyntaxError("unbalanced ')'", self.source, pos)
            raise ExprSyntaxError(f"unexpected {text!r}", self.source, pos)
        return node

    def sum(self) -> _Node:
        node = self.product()
        while self.peek()[1] in ("+", "-"):
            _, op, _ = self.advance()
            rhs = self.product()
            node = BinOp((node.span[0], rhs.span[1]), op, node, rhs)
        return node

    def product(self) -> _Node:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op, _ = self.advance()
            rhs = self.unary()
            node = BinOp((node.span[0], rhs.span[1]), op, node, rhs)
        return node

    def unary(self) -> _Node:
        kind, text, pos = self.peek()
        if text == "-" and kind == "op":
            self.advance()
            arg = self.unary()
            return Neg((pos, arg.span[1]), arg)
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            exponent = self.unary()
            return BinOp((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def atom(self) -> _Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const((pos, pos + len(text)), float(text))
        if kind == "name":
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownNameError(
                        f"unknown function '{text}'; functions are "
                        + ", ".join(FUNCTIONS),
                        self.source, pos,
                    )
                _, _, lpos = self.advance()
                arg = self.sum()
                k2, t2, p2 = self.advance()
                if t2 != ")":
                    raise ExprSyntaxError("unbalanced '('", self.source, lpos)
                return Call((pos, p2 + 1), text, arg)
            if text not in VARIABLES:
                raise UnknownNameError(
                    f"unknown identifier '{text}'; variables are x, z, eps",
                    self.source, pos,
                )
            return Var((pos, pos + len(text)), text)
        if text == "(":
            node = self.sum()
            k2, t2, p2 = self.advance()
            if t2 != ")":
                raise ExprSyntaxError("unbalanced '('", self.source, pos)
            return node
        if text == ")":
            raise ExprSyntaxError("unbalanced ')'", self.source, pos)
        if kind == "end":
            raise ExprSyntaxError("unexpected end of expression", self.source, pos)
        raise ExprSyntaxError(f"unexpected {text!r}", self.source, pos)


def parse(source: str) -> Expr:
    """Parse ``source`` into an immutable expression tree."""
    if source is None or source.strip() == "":
        raise ExprSyntaxError("empty expression", source or "", 0)
    tokens = _tokenize(source)
    if tokens[0][0] == "end":
        raise ExprSyntaxError("empty expression", source, 0)
    return Expr(source, _Parser(source, tokens).parse())


def _fault(message: str, source: str, node: _Node) -> DomainFaultError:
    return DomainFaultError(message, source, node.span)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_MATH = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt,
         "sin": math.sin, "cos": math.cos, "abs": abs}
# functions with a restricted domain: (argument is outside, fault message)
_DOMAINS = {"log": (lambda v: v <= 0.0, "log of a non-positive value"),
            "sqrt": (lambda v: v < 0.0, "sqrt of a negative value")}


def _compile(node: _Node, src: str):
    """Closure ``(x, z, eps) -> float`` evaluating ``node``: finite
    result or a ``DomainFaultError`` located at the faulting node."""
    isfinite = math.isfinite
    if isinstance(node, Const):
        value = node.value
        return lambda x, z, eps: value
    if isinstance(node, Var):
        return {"x": lambda x, z, eps: x,
                "z": lambda x, z, eps: z,
                "eps": lambda x, z, eps: eps}[node.name]
    if isinstance(node, Neg):
        arg = _compile(node.arg, src)
        return lambda x, z, eps: -arg(x, z, eps)
    if isinstance(node, Call):
        arg = _compile(node.arg, src)
        func = node.func
        fn = _MATH[func]
        outside = _DOMAINS.get(func)

        def call(x, z, eps):
            v = arg(x, z, eps)
            if outside is not None and outside[0](v):
                raise _fault(outside[1], src, node)
            try:
                r = fn(v)
            except OverflowError:
                raise _fault(f"overflow in {func}", src, node) from None
            if not isfinite(r):
                raise _fault("non-finite result", src, node)
            return r
        return call
    if not isinstance(node, BinOp):
        raise AssertionError(f"unhandled node {node!r}")

    left = _compile(node.left, src)
    right = _compile(node.right, src)
    if node.op in _ARITHMETIC:
        apply = _ARITHMETIC[node.op]

        def binop(x, z, eps):
            r = apply(left(x, z, eps), right(x, z, eps))
            if not isfinite(r):
                raise _fault("non-finite result", src, node)
            return r
    elif node.op == "/":
        def binop(x, z, eps):
            a = left(x, z, eps)
            b = right(x, z, eps)
            if b == 0.0:
                raise _fault("division by zero", src, node)
            r = a / b
            if not isfinite(r):
                raise _fault("non-finite result", src, node)
            return r
    else:  # '^'
        def binop(x, z, eps):
            a = left(x, z, eps)
            b = right(x, z, eps)
            if a == 0.0 and b < 0.0:
                raise _fault("zero raised to a negative power", src, node)
            if a < 0.0 and b != math.floor(b):
                raise _fault("negative base with non-integer exponent", src, node)
            try:
                r = math.pow(a, b)
            except (OverflowError, ValueError):
                raise _fault("overflow in power", src, node) from None
            if not isfinite(r):
                raise _fault("non-finite result", src, node)
            return r
    return binop


def evaluate(expr: Expr, x: float, z: float, eps: float) -> float:
    """Evaluate ``expr`` at finite inputs; finite result or located fault."""
    return expr.fn(x, z, eps)
