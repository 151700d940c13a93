"""Small arithmetic expression language for payoff definitions.

Scenario files declare payoffs as plain text, e.g. ``(x*theta - y^2)/sqrt(theta)``.
This module provides the tokenizer, a recursive-descent parser, and two
evaluators: a scalar one with precise error reporting and a compiler to
numpy-vectorized closures for the solvers.

Grammar, lowest to highest precedence::

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right associative
    atom   := NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Functions: sqrt, exp, log, abs (one argument); min, max (exactly two).
Variable names match ``[a-z][a-z0-9_]*``. Whitespace is insignificant.
An expression nests at most :data:`MAX_DEPTH` levels: each operator,
unary minus, function call and parenthesized group is one level, counted
along the deepest path, so ``1+1+1`` has three and ``(x)`` two. Past
that the parser raises :class:`ParseError`, which keeps every recursive
walk of a parsed tree well inside Python's recursion limit.
Numbers are decimal literals with an optional exponent that fit a finite
double (``1e999`` is a :class:`ParseError`). There are no
conditionals; piecewise payoffs belong in tabulated scenario payoffs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ParseError",
    "EvalError",
    "parse",
    "as_expr",
    "evaluate",
    "free_vars",
    "smooth_in",
    "to_source",
    "compile_fn",
]

_FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "abs": 1, "min": 2, "max": 2}
# the parser spends up to eight Python frames per level, a tree walk two
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation failure naming the offending variable or subexpression."""


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Num | Var | Neg | Bin | Call


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[a-z][a-z0-9_]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))  # type: ignore[arg-type]
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.open = 0  # unary() calls on the stack: a lower bound of the depth

    def level(self, node: Expr, depth: int, offset: int) -> tuple[Expr, int]:
        """``node`` with its depth, if within :data:`MAX_DEPTH`."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
        return node, depth

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        kind, value, offset = self.peek()
        if kind == "op" and value == text:
            self.i += 1
            return
        raise ParseError(f"expected {text!r}, found {value or 'end of input'!r}", offset)

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    # each method returns (node, depth)

    def chain(self, ops: str, operand: Callable[[], tuple[Expr, int]]) -> tuple[Expr, int]:
        """``operand (op operand)*`` for the operators in ``ops``, left associative."""
        left, d = operand()
        while True:
            kind, value, offset = self.peek()
            if kind != "op" or value not in ops:
                return left, d
            self.i += 1
            right, dr = operand()
            left, d = self.level(Bin(value, left, right), max(d, dr) + 1, offset)

    def expr(self) -> tuple[Expr, int]:
        return self.chain("+-", lambda: self.chain("*/", self.unary))

    def unary(self) -> tuple[Expr, int]:
        kind, value, offset = self.peek()
        self.open += 1
        if self.open > MAX_DEPTH:  # before recursing further
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
        if kind == "op" and value == "-":
            self.i += 1
            arg, d = self.unary()
            out = self.level(Neg(arg), d + 1, offset)
        else:
            out = self.power()
        self.open -= 1
        return out

    def power(self) -> tuple[Expr, int]:
        base, d = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.i += 1
            exponent, de = self.unary()  # right associative
            return self.level(Bin("^", base, exponent), max(d, de) + 1, offset)
        return base, d

    def atom(self) -> tuple[Expr, int]:
        kind, value, offset = self.next()
        if kind == "number":
            if not math.isfinite(float(value)):
                raise ParseError(f"number {value} is not a finite double", offset)
            return Num(float(value)), 1
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                return self.call(value, offset)
            return Var(value), 1
        if kind == "op" and value == "(":
            inner, d = self.expr()
            self.expect(")")
            return self.level(inner, d + 1, offset)
        raise ParseError(f"expected a value, found {value or 'end of input'!r}", offset)

    def call(self, name: str, offset: int) -> tuple[Expr, int]:
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", offset)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[:2] == ("op", ","):
            self.i += 1
            args.append(self.expr())
        self.expect(")")
        arity = _FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                f"{name} takes exactly {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                offset,
            )
        return self.level(Call(name, tuple(a for a, _ in args)), max(d for _, d in args) + 1, offset)


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST or raise :class:`ParseError` with an offset."""
    return _Parser(source).parse()


def as_expr(source: "str | Expr") -> Expr:
    """An expression given as text (parsed) or as a parsed :data:`Expr`."""
    return parse(source) if isinstance(source, str) else source


def free_vars(expr: Expr) -> frozenset[str]:
    """Exact set of variable names occurring in ``expr``."""
    match expr:
        case Num():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Neg(arg):
            return free_vars(arg)
        case Bin(_, left, right):
            return free_vars(left) | free_vars(right)
        case Call(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
    raise TypeError(f"not an expression node: {expr!r}")


def smooth_in(expr: Expr, var: str) -> bool:
    """Whether ``var`` reaches ``expr`` only through ``+``, ``-``, ``*``,
    ``exp``, division by a ``var``-free subexpression and ``^`` with a
    constant non-negative integer exponent, so that ``expr`` is analytic
    in ``var``; ``abs``, ``min``, ``max``, ``sqrt`` and ``log`` are not."""
    if var not in free_vars(expr):
        return True
    match expr:
        case Var():
            return True
        case Neg(arg) | Call("exp", (arg,)):
            return smooth_in(arg, var)
        case Bin("/", left, right):
            return var not in free_vars(right) and smooth_in(left, var)
        case Bin("^", left, Num(p)):
            return p >= 0.0 and p.is_integer() and smooth_in(left, var)
        case Bin(op, left, right):
            return op in "+-*" and smooth_in(left, var) and smooth_in(right, var)
    return False


def to_source(expr: Expr) -> str:
    """Render ``expr`` as text, fully parenthesized: parseable while its
    groups keep it within :data:`MAX_DEPTH`."""
    match expr:
        case Num(value):
            if value == int(value) and abs(value) < 1e16:
                return repr(int(value))
            return repr(value)
        case Var(name):
            return name
        case Neg(arg):
            return f"(-{to_source(arg)})"
        case Bin(op, left, right):
            return f"({to_source(left)}{op}{to_source(right)})"
        case Call(fn, args):
            return f"{fn}({', '.join(to_source(a) for a in args)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _apply_bin(op: str, a: float, b: float, node: Bin) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvalError(f"division by zero in {to_source(node)}")
        return a / b
    # power; a non-finite exponent is not an integer
    if a < 0.0 and not float(b).is_integer():
        raise EvalError(f"negative base with non-integer exponent in {to_source(node)}")
    if a == 0.0 and b < 0.0:
        raise EvalError(f"zero base with negative exponent in {to_source(node)}")
    try:
        return float(a**b)
    except OverflowError:
        return math.inf


def evaluate(expr: Expr, ctx: Mapping[str, float]) -> float:
    """Evaluate ``expr`` with IEEE-double arithmetic.

    Raises :class:`EvalError` for unbound variables and domain errors
    (sqrt of a negative, log of a nonpositive, division by zero), naming
    the offending variable or subexpression.
    """
    match expr:
        case Num(value):
            return value
        case Var(name):
            try:
                return float(ctx[name])
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        case Neg(arg):
            return -evaluate(arg, ctx)
        case Bin(op, left, right):
            return _apply_bin(op, evaluate(left, ctx), evaluate(right, ctx), expr)
        case Call(fn, args):
            vals = [evaluate(a, ctx) for a in args]
            if fn == "sqrt":
                if vals[0] < 0.0:
                    raise EvalError(f"sqrt of negative value in {to_source(expr)}")
                return math.sqrt(vals[0])
            if fn == "log":
                if vals[0] <= 0.0:
                    raise EvalError(f"log of nonpositive value in {to_source(expr)}")
                return math.log(vals[0])
            if fn == "exp":
                try:
                    return math.exp(vals[0])
                except OverflowError:
                    return math.inf
            if fn == "abs":
                return abs(vals[0])
            if fn == "min":
                return min(vals)
            return max(vals)
    raise TypeError(f"not an expression node: {expr!r}")


_NP_FUNCS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
}


def compile_fn(expr: Expr, var_names: Sequence[str]) -> Callable[..., np.ndarray | float]:
    """Compile ``expr`` into a closure over numpy arrays.

    The returned callable takes positional arguments matching ``var_names``
    (scalars or broadcastable arrays) and evaluates without Python-level
    dispatch per node. Domain violations produce nan/inf silently; callers
    are expected to audit their domains first (the scalar :func:`evaluate`
    is the strict path).
    """
    missing = free_vars(expr) - set(var_names)
    if missing:
        raise EvalError(f"unbound variable {sorted(missing)[0]!r}")
    index = {name: i for i, name in enumerate(var_names)}

    def build(e: Expr) -> Callable:
        match e:
            case Num(value):
                return lambda args: value
            case Var(name):
                i = index[name]
                return lambda args: args[i]
            case Neg(arg):
                f = build(arg)
                return lambda args: -f(args)
            case Bin(op, left, right):
                fl, fr = build(left), build(right)
                if op == "+":
                    return lambda args: fl(args) + fr(args)
                if op == "-":
                    return lambda args: fl(args) - fr(args)
                if op == "*":
                    return lambda args: fl(args) * fr(args)
                if op == "/":
                    return lambda args: fl(args) / fr(args)
                return lambda args: np.power(fl(args), fr(args))
            case Call(fn, cargs):
                fs = [build(a) for a in cargs]
                if fn in _NP_FUNCS:
                    g = _NP_FUNCS[fn]
                    f0 = fs[0]
                    return lambda args: g(f0(args))
                f0, f1 = fs
                if fn == "min":
                    return lambda args: np.minimum(f0(args), f1(args))
                return lambda args: np.maximum(f0(args), f1(args))
        raise TypeError(f"not an expression node: {e!r}")

    inner = build(expr)

    def fn(*args):
        with np.errstate(all="ignore"):
            return inner(args)

    return fn
