"""Scalar expression language for tensor component functions on a chart.

Grammar (whitespace-insensitive, standard precedence):

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ['^' unary]
    atom  := number | coordinate | 'pi' | 'e' | func '(' expr ')' | '(' expr ')'

with func one of sin, cos, tan, exp, log, sqrt.  '^' is right-associative and
binds tighter than unary minus, so -x^2 parses as -(x^2) and x^-2 is allowed.
A literal integral exponent uses integer-power semantics (any base); every
other exponent requires a positive base.  log/sqrt/division domain violations
raise DomainError rather than producing NaN.  A literal that overflows a
float (1e400) is a ParseError, and a constant folded by the `make_*`
constructors must be finite, so no expression holds an infinite constant.
Parentheses, unary minus, function calls and powers may nest at most
MAX_NESTING levels deep; deeper input is a ParseError, not a recursion error.
A chain of + and - (or of * and /) is not nesting: it compiles to one closure
that folds its terms left to right and prints by a loop, so it may be of any
length.  An expression whose AST holds no coordinate is `passive`: its
derivatives are zero, so field jets evaluate it once as a float, without
dual numbers, and the text of a failed finiteness check is built only on
failure.

AST nodes support `+`, `-`, `*` and unary `-` through the folding `make_*`
constructors, so a numpy object array of nodes is an expression matrix:
`A @ v` folds each row as ((a0*v0 + a1*v1) + a2*v2), broadcasting forms
outer products, and `make_num(c) * A` scales.  `node_array` and
`expr_array` convert between arrays of expressions and arrays of nodes.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .errors import DomainError, ParseError, UnknownSymbolError

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}
RESERVED_NAMES = set(FUNCTIONS) | set(CONSTANTS)

_FUNC_IMPL = {
    "sin": dm.sin,
    "cos": dm.cos,
    "tan": dm.tan,
    "exp": dm.exp,
    "log": dm.log,
    "sqrt": dm.sqrt,
}


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class Node:
    """Base of the AST node classes.

    `+`, `-`, `*` and unary `-` build a node by `make_add`, `make_sub`,
    `make_mul` and `make_neg`, so numpy object arrays of nodes do matrix
    algebra (`@`, broadcasting) on expressions.  An operand that is not a
    node, a float included, is refused; constants come from `make_num`.
    """

    def __add__(self, other):
        return make_add(self, other) if isinstance(other, Node) else NotImplemented

    def __sub__(self, other):
        return make_sub(self, other) if isinstance(other, Node) else NotImplemented

    def __mul__(self, other):
        return make_mul(self, other) if isinstance(other, Node) else NotImplemented

    def __neg__(self):
        return make_neg(self)


@dataclass(frozen=True)
class Num(Node):
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Coord(Node):
    name: str
    index: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Const(Node):
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Unary(Node):
    arg: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Bin(Node):
    op: str
    left: object
    right: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: object
    pos: int = field(default=-1, compare=False)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(source: str) -> list[tuple]:
    """(kind, text, position) of each token; kind is 'num', 'ident', 'op' or 'end'."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

MAX_NESTING = 100  # levels of parentheses, unary minus, calls and powers


class _Parser:
    def __init__(self, tokens: list[tuple], coords: dict[str, int]):
        self.tokens = tokens
        self.coords = coords
        self.i = 0
        self.depth = 0

    def nested(self, parse, pos: int):
        """Run `parse` one nesting level deeper, refusing more than MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, ops: str) -> bool:
        """Whether the next token is an operator among the characters `ops`."""
        kind, text, _ = self.tokens[self.i]
        return kind == "op" and text in ops

    def expect_op(self, op: str):
        if self.at_op(op):
            return self.advance()
        raise ParseError(f"expected '{op}'", self.peek()[2])

    def parse_expr(self):
        node = self.parse_term()
        while self.at_op("+-"):
            _, op, pos = self.advance()
            rhs = self.parse_term()
            node = Bin(op, node, rhs, pos)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.at_op("*/"):
            _, op, pos = self.advance()
            rhs = self.parse_unary()
            node = Bin(op, node, rhs, pos)
        return node

    def parse_unary(self):
        if self.at_op("-"):
            pos = self.advance()[2]
            arg = self.nested(self.parse_unary, pos)
            if isinstance(arg, Num):  # fold literal negation
                return Num(-arg.value, pos)
            return Unary(arg, pos)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.at_op("^"):
            pos = self.advance()[2]
            exponent = self.nested(self.parse_unary, pos)
            return Bin("^", base, exponent, pos)
        return base

    def parse_atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} is too large for a float", pos)
            return Num(value, pos)
        if kind == "ident":
            if text in FUNCTIONS:
                if not self.at_op("("):
                    raise ParseError(f"function '{text}' needs an argument list", pos)
                self.advance()
                arg = self.nested(self.parse_expr, pos)
                self.expect_op(")")
                return Call(text, arg, pos)
            if text in self.coords:
                return Coord(text, self.coords[text], pos)
            if text in CONSTANTS:
                return Const(text, pos)
            raise UnknownSymbolError(text, pos)
        if kind == "op" and text == "(":
            node = self.nested(self.parse_expr, pos)
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of expression", pos)
        raise ParseError(f"unexpected token '{text}'", pos)


# --------------------------------------------------------------------------
# Compilation to closures (single evaluation path for floats and duals)
# --------------------------------------------------------------------------

_FOLD_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _chain(node: Bin):
    """First term and operator links, left to right, of the chain of `node`'s class.

    The parser builds `a + b - c` (and `a * b / c`) as a left-leaning spine by
    a loop, so a chain may be far longer than any nesting; it is walked here
    without recursion.
    """
    ops = ("+", "-") if node.op in ("+", "-") else ("*", "/")
    links = []
    while isinstance(node, Bin) and node.op in ops:
        links.append(node)
        node = node.left
    links.reverse()
    return node, links


def _divisor(f, pos: int):
    message = f"division by zero at position {pos}"

    def divisor(env):
        value = f(env)
        dm.check(dm.real_part(value) == 0.0, message)
        return value
    return divisor


def _fold(first, steps, divisors):
    """Closure folding `first` and each (operator, closure) step left to right.

    A divisor step has no closure: its value comes from `divisors`, checked
    closures listed last first.  A quotient evaluates and checks its divisor
    before its dividend, so every divisor of a chain runs, last first, before
    the chain's first term, as in the nested quotients the chain stands for.
    """
    if not divisors and len(steps) == 1:
        (op, f), = steps
        return lambda env: op(first(env), f(env))

    def fold(env):
        quotients = [d(env) for d in divisors]
        acc = first(env)
        for op, f in steps:
            acc = op(acc, quotients.pop() if f is None else f(env))
        return acc
    return fold


def _compile(node):
    """(closure, whether the node mentions a coordinate)."""
    if isinstance(node, Num):
        v = node.value
        return (lambda env: v), False
    if isinstance(node, Coord):
        i = node.index
        return (lambda env: env[i]), True
    if isinstance(node, Const):
        v = CONSTANTS[node.name]
        return (lambda env: v), False
    if isinstance(node, Unary):
        f, active = _compile(node.arg)
        return (lambda env: -f(env)), active
    if isinstance(node, Call):
        f, active = _compile(node.arg)
        fn = _FUNC_IMPL[node.fn]
        name, pos = node.fn, node.pos
        def call(env):
            try:
                return fn(f(env))
            except DomainError as err:
                raise DomainError(f"{err} in '{name}' at position {pos}",
                                  err.index) from None
        return call, active
    if node.op == "^":
        lf, active = _compile(node.left)
        if isinstance(node.right, Num) and float(node.right.value).is_integer():
            n = int(node.right.value)
            return (lambda env: dm.ipow(lf(env), n)), active
        rf, right_active = _compile(node.right)
        pos = node.pos
        def power(env):
            try:
                return dm.rpow(lf(env), rf(env))
            except DomainError as err:
                raise DomainError(f"{err} at position {pos}", err.index) from None
        return power, active or right_active
    if node.op not in _FOLD_OPS:
        raise AssertionError(f"unreachable operator {node.op!r}")
    first, links = _chain(node)
    f0, active = _compile(first)
    steps, divisors = [], []
    for link in links:
        f, right_active = _compile(link.right)
        active = active or right_active
        if link.op == "/":
            divisors.append(_divisor(f, link.pos))
            f = None
        steps.append((_FOLD_OPS[link.op], f))
    return _fold(f0, steps, divisors[::-1]), active


# --------------------------------------------------------------------------
# Canonical printer
# --------------------------------------------------------------------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PREC = 25
_ATOM_PREC = 100


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) <= 1e15:
        return str(int(v))
    return repr(v)


def _fmt(node) -> tuple[str, int]:
    if isinstance(node, Num):
        text = _format_number(node.value)
        return text, (_UNARY_PREC if text.startswith("-") else _ATOM_PREC)
    if isinstance(node, Coord):
        return node.name, _ATOM_PREC
    if isinstance(node, Const):
        return node.name, _ATOM_PREC
    if isinstance(node, Call):
        inner, _ = _fmt(node.arg)
        return f"{node.fn}({inner})", _ATOM_PREC
    if isinstance(node, Unary):
        text, prec = _fmt(node.arg)
        if prec < _UNARY_PREC:
            text = f"({text})"
        return f"-{text}", _UNARY_PREC
    my = _PREC[node.op]
    if node.op != "^":
        first, links = _chain(node)
        text, prec = _fmt(first)
        parts = [f"({text})" if prec < my else text]
        for link in links:
            # left-associative: parenthesize an equal-precedence right side
            rt, rp = _fmt(link.right)
            if rp <= my or rt.startswith("-"):
                rt = f"({rt})"
            parts.append(link.op + rt)
        return "".join(parts), my
    lt, lp = _fmt(node.left)
    rt, rp = _fmt(node.right)
    if lp <= my:  # right-associative: parenthesize equal-precedence left side
        lt = f"({lt})"
    if rp < my or rt.startswith("-"):
        rt = f"({rt})"
    return f"{lt}^{rt}", my


# --------------------------------------------------------------------------
# Public expression object
# --------------------------------------------------------------------------

class ScalarExpr:
    """Parsed component function over a fixed tuple of chart coordinates.

    Immutable after construction; evaluation is pure and deterministic (same
    point gives a bit-identical result).
    """

    __slots__ = ("node", "coords", "passive", "_fn", "_src")

    def __init__(self, node, coords):
        self.node = node
        self.coords = tuple(coords)
        self._fn, active = _compile(node)
        self.passive = not active  # no Coord in the AST: every derivative is zero
        self._src = None

    # -- evaluation ---------------------------------------------------------
    #
    # The jet methods take one point, shape (dim,), or a block of points,
    # shape (P, dim); block results carry the point axis first.  Domain
    # violations and non-finite results raise DomainError naming the first
    # offending point of the block.

    def _points(self, points) -> np.ndarray:
        return as_points(points, len(self.coords))

    def _run(self, env):
        with np.errstate(all="ignore"):  # overflow is caught by the finiteness checks
            return self._fn(env)

    def evaluate(self, point) -> float:
        """Value at a point given as a sequence of floats."""
        if len(point) != len(self.coords):
            raise ValueError(
                f"point has {len(point)} entries, chart has {len(self.coords)}")
        value = float(self._run([float(x) for x in point]))
        if not math.isfinite(value):
            raise DomainError(f"non-finite value {value!r} in '{self}'")
        return value

    def eval_dual(self, points) -> dm.Dual:
        """Value together with all first partial derivatives (slot axis first)."""
        pts = self._points(points)
        dim = len(self.coords)
        shape = pts.shape[:-1]
        out = self._run([dm.Dual(pts[..., i], _unit(dim, i, shape)) for i in range(dim)])
        if not isinstance(out, dm.Dual):
            out = dm.Dual(np.full(shape, float(out))[()], np.zeros((dim,) + shape))
        bad = ~(np.isfinite(out.val) & np.isfinite(out.d).all(axis=0))
        if np.any(bad):
            dm.check(bad, f"non-finite derivative in '{self}'")
        return out

    def passive_value(self, block: bool, order: int = 1) -> float:
        """Value of an expression without coordinates, from its own closure.

        A non-finite value raises the DomainError that `jet1` (order 1) or
        `jet2` (order 2) raises for it, naming the first point of a block.
        """
        value = float(self._run(()))
        if not math.isfinite(value):
            what = "derivative" if order == 1 else "second derivative"
            raise DomainError(f"non-finite {what} in '{self}'", 0 if block else None)
        return value

    def jet1(self, points):
        """(value, gradient) with the derivative axis last."""
        d = self.eval_dual(points)
        return d.val, np.moveaxis(d.d, 0, -1)

    def jet2(self, points):
        """(value, gradient, hessian) via nested dual evaluation."""
        pts = self._points(points)
        dim = len(self.coords)
        shape = pts.shape[:-1]
        zero = np.zeros((dim,) + shape)
        env = []
        for i in range(dim):
            inner = dm.Dual(pts[..., i], _unit(dim, i, shape))
            seed = np.empty(dim, dtype=object)
            seed[:] = [dm.Dual(1.0 if j == i else 0.0, zero) for j in range(dim)]
            env.append(dm.Dual(inner, seed))
        out = self._run(env)

        def level1(x):
            if isinstance(x, dm.Dual):
                return np.broadcast_to(x.val, shape), np.broadcast_to(x.d, (dim,) + shape)
            return np.full(shape, float(x)), zero

        if not isinstance(out, dm.Dual):
            value, grad = level1(out)
            rows = [zero] * dim
        else:
            value, grad = level1(out.val)
            rows = [level1(out.d[j])[1] for j in range(dim)]
        grad = np.moveaxis(grad, 0, -1)
        hess = np.moveaxis(np.stack(rows), (0, 1), (-2, -1))
        bad = ~(np.isfinite(value) & np.isfinite(grad).all(axis=-1)
                & np.isfinite(hess).all(axis=(-2, -1)))
        if np.any(bad):
            dm.check(bad, f"non-finite second derivative in '{self}'")
        return value[()], grad, hess

    # -- printing / identity --------------------------------------------------

    def to_source(self) -> str:
        if self._src is None:
            self._src = _fmt(self.node)[0]
        return self._src

    def __str__(self):
        return self.to_source()

    def __repr__(self):
        return f"ScalarExpr({self.to_source()!r}, coords={self.coords!r})"

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.coords == other.coords and self.to_source() == other.to_source()

    def __hash__(self):
        return hash((self.coords, self.to_source()))


def as_points(points, dim: int) -> np.ndarray:
    """One point, shape (dim,), or a block of points, shape (P, dim), as floats."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
        raise ValueError(
            f"point has {pts.shape[-1] if pts.ndim else 0} entries, chart has {dim}")
    return pts


def _unit(dim: int, i: int, shape) -> np.ndarray:
    """Derivative seed of coordinate i: slot i is one at every point."""
    d = np.zeros((dim,) + shape)
    d[i] = 1.0
    return d


def parse(source: str, coords) -> ScalarExpr:
    """Parse an expression over the given coordinate names.

    Rejects unknown identifiers and malformed syntax with position info.
    """
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    names = list(coords)
    if len(set(names)) != len(names):
        raise ValueError(f"coordinate names are not pairwise distinct: {names}")
    index = {name: i for i, name in enumerate(names)}
    parser = _Parser(_tokenize(source), index)
    node = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input '{text}'", pos)
    return ScalarExpr(node, names)


def node_array(exprs: np.ndarray) -> np.ndarray:
    """Object array of the AST nodes of an object array of expressions."""
    return np.frompyfunc(lambda e: e.node, 1, 1)(exprs)


def expr_array(nodes: np.ndarray, coords) -> np.ndarray:
    """Object array of expressions over `coords` wrapping an array of nodes."""
    return np.frompyfunc(lambda node: ScalarExpr(node, coords), 1, 1)(nodes)


# --------------------------------------------------------------------------
# AST constructors with constant folding (used by the constructive procedures)
# --------------------------------------------------------------------------

def make_num(value: float) -> Num:
    """Constant node; a constant that is not finite is a ValueError."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expression constant {value!r} is not finite")
    return Num(value)


def _num_value(node):
    return node.value if isinstance(node, Num) else None


def make_neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Unary):
        return a.arg
    return Unary(a)


def make_add(a, b):
    av, bv = _num_value(a), _num_value(b)
    if av is not None and bv is not None:
        return make_num(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Bin("+", a, b)


def make_sub(a, b):
    av, bv = _num_value(a), _num_value(b)
    if av is not None and bv is not None:
        return make_num(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return make_neg(b)
    return Bin("-", a, b)


def make_mul(a, b):
    av, bv = _num_value(a), _num_value(b)
    if av is not None and bv is not None:
        return make_num(av * bv)
    if av == 0.0 or bv == 0.0:
        return Num(0.0)
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    if av == -1.0:
        return make_neg(b)
    if bv == -1.0:
        return make_neg(a)
    return Bin("*", a, b)


def make_div(a, b):
    """Quotient node; the denominator must be a nonzero constant to fold."""
    av, bv = _num_value(a), _num_value(b)
    if bv == 0.0:
        raise ZeroDivisionError("division by literal zero while building an expression")
    if av is not None and bv is not None:
        return make_num(av / bv)
    if av == 0.0:
        return Num(0.0)
    if bv == 1.0:
        return a
    return Bin("/", a, b)
