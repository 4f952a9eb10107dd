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
raise DomainError rather than producing NaN.
"""

from __future__ import annotations

import math
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

@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Coord:
    name: str
    index: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Unary:
    arg: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    pos: int = field(default=-1, compare=False)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], coords: dict[str, int]):
        self.tokens = tokens
        self.coords = coords
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        raise ParseError(f"expected '{op}'", tok.pos)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            rhs = self.parse_term()
            node = Bin(tok.text, node, rhs, tok.pos)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            rhs = self.parse_unary()
            node = Bin(tok.text, node, rhs, tok.pos)
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            arg = self.parse_unary()
            if isinstance(arg, Num):  # fold literal negation
                return Num(-arg.value, tok.pos)
            return Unary(arg, tok.pos)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.parse_unary()
            return Bin("^", base, exponent, tok.pos)
        return base

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text), tok.pos)
        if tok.kind == "ident":
            name = tok.text
            follows_paren = (self.peek().kind == "op" and self.peek().text == "(")
            if name in FUNCTIONS:
                if not follows_paren:
                    raise ParseError(f"function '{name}' needs an argument list", tok.pos)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(name, arg, tok.pos)
            if name in self.coords:
                return Coord(name, self.coords[name], tok.pos)
            if name in CONSTANTS:
                return Const(name, tok.pos)
            raise UnknownSymbolError(name, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "end":
            raise ParseError("unexpected end of expression", tok.pos)
        raise ParseError(f"unexpected token '{tok.text}'", tok.pos)


# --------------------------------------------------------------------------
# Compilation to closures (single evaluation path for floats and duals)
# --------------------------------------------------------------------------

def _compile(node):
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Coord):
        i = node.index
        return lambda env: env[i]
    if isinstance(node, Const):
        v = CONSTANTS[node.name]
        return lambda env: v
    if isinstance(node, Unary):
        f = _compile(node.arg)
        return lambda env: -f(env)
    if isinstance(node, Call):
        f = _compile(node.arg)
        fn = _FUNC_IMPL[node.fn]
        name, pos = node.fn, node.pos
        def call(env):
            try:
                return fn(f(env))
            except DomainError as err:
                raise DomainError(f"{err} in '{name}' at position {pos}",
                                  err.index) from None
        return call
    # binary
    lf = _compile(node.left)
    rf = _compile(node.right)
    op, pos = node.op, node.pos
    if op == "+":
        return lambda env: lf(env) + rf(env)
    if op == "-":
        return lambda env: lf(env) - rf(env)
    if op == "*":
        return lambda env: lf(env) * rf(env)
    if op == "/":
        def div(env):
            denominator = rf(env)
            dm.check(dm.real_part(denominator) == 0.0,
                     f"division by zero at position {pos}")
            return lf(env) / denominator
        return div
    if op == "^":
        if isinstance(node.right, Num) and float(node.right.value).is_integer():
            n = int(node.right.value)
            return lambda env: dm.ipow(lf(env), n)
        def power(env):
            try:
                return dm.rpow(lf(env), rf(env))
            except DomainError as err:
                raise DomainError(f"{err} at position {pos}", err.index) from None
        return power
    raise AssertionError(f"unreachable operator {op!r}")


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
    # binary
    my = _PREC[node.op]
    lt, lp = _fmt(node.left)
    rt, rp = _fmt(node.right)
    if node.op == "^":
        if lp <= my:  # right-associative: parenthesize equal-precedence left side
            lt = f"({lt})"
        if rp < my:
            rt = f"({rt})"
    else:
        if lp < my:
            lt = f"({lt})"
        if rp <= my:  # left-associative: parenthesize equal-precedence right side
            rt = f"({rt})"
    if rt.startswith("-"):
        rt = f"({rt})"
    return f"{lt}{node.op}{rt}", my


# --------------------------------------------------------------------------
# Public expression object
# --------------------------------------------------------------------------

class ScalarExpr:
    """Parsed component function over a fixed tuple of chart coordinates.

    Immutable after construction; evaluation is pure and deterministic (same
    point gives a bit-identical result).
    """

    __slots__ = ("node", "coords", "_fn", "_src")

    def __init__(self, node, coords):
        self.node = node
        self.coords = tuple(coords)
        self._fn = _compile(node)
        self._src = None

    # -- evaluation ---------------------------------------------------------
    #
    # The jet methods take one point, shape (dim,), or a block of points,
    # shape (P, dim); block results carry the point axis first.  Domain
    # violations and non-finite results raise DomainError naming the first
    # offending point of the block.

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        dim = len(self.coords)
        if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
            raise ValueError(
                f"point has {pts.shape[-1] if pts.ndim else 0} entries, chart has {dim}")
        return pts

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
        dm.check(bad, f"non-finite derivative in '{self}'")
        return out

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
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input '{trailing.text}'", trailing.pos)
    return ScalarExpr(node, names)


def from_node(node, coords) -> ScalarExpr:
    """Wrap an already-built AST node as an expression."""
    return ScalarExpr(node, coords)


# --------------------------------------------------------------------------
# AST constructors with constant folding (used by the constructive procedures)
# --------------------------------------------------------------------------

def make_num(value: float) -> Num:
    return Num(float(value))


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
        return Num(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Bin("+", a, b)


def make_sub(a, b):
    av, bv = _num_value(a), _num_value(b)
    if av is not None and bv is not None:
        return Num(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return make_neg(b)
    return Bin("-", a, b)


def make_mul(a, b):
    av, bv = _num_value(a), _num_value(b)
    if av is not None and bv is not None:
        return Num(av * bv)
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
        return Num(av / bv)
    if av == 0.0:
        return Num(0.0)
    if bv == 1.0:
        return a
    return Bin("/", a, b)
