"""Scalar expressions over phase-space coordinates and time.

Expression trees are immutable and support parsing, IEEE-754 double
evaluation, exact symbolic differentiation and light simplification
(constant folding plus the 0/1 identities).  The function set is fixed to
{sin, cos, exp, log, sqrt, tanh}; the goal is numerical agreement, not
canonical form, so no general rewriting is attempted.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

``^`` binds tighter than unary minus and is right-associative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

TIME_NAME = "t"
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class ExprError(Exception):
    """Base class for expression-language failures."""


class ExprSyntaxError(ExprError):
    """Malformed input text.  ``offset`` is the 1-based byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    """Identifier outside the chart, ``t`` and the function set."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class DomainError(ExprError):
    """Evaluation hit a domain violation (log of non-positive, x/0, ...)."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in '{to_string(node)}'")
        self.node = node


class UnboundVariableError(ExprError):
    """Evaluation environment is missing a variable."""


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


class Expr:
    """Immutable expression-tree node."""

    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, _coerce(other))

    def __radd__(self, other):
        return BinOp("+", _coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _coerce(other))

    def __rsub__(self, other):
        return BinOp("-", _coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _coerce(other))

    def __rmul__(self, other):
        return BinOp("*", _coerce(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return BinOp("/", _coerce(other), self)

    def __pow__(self, other):
        return BinOp("^", self, _coerce(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


ZERO = Num(0.0)
ONE = Num(1.0)


@dataclass(frozen=True)
class CoordinateChart:
    """Ordered coordinate names of a 2n-dimensional phase space.

    The first n names are positions, the last n momenta; the default chart
    is q1..qn, p1..pn.  ``t`` is reserved for time and never a coordinate.
    """

    n: int
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        names = tuple(self.names) or tuple(
            [f"q{i}" for i in range(1, self.n + 1)]
            + [f"p{i}" for i in range(1, self.n + 1)]
        )
        if len(names) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} coordinate names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        for name in names:
            if name == TIME_NAME:
                raise ValueError("'t' is reserved for time")
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid coordinate name '{name}'")
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def position_names(self) -> tuple[str, ...]:
        return self.names[: self.n]

    @property
    def momentum_names(self) -> tuple[str, ...]:
        return self.names[self.n :]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"'{name}' is not a coordinate of this chart") from None

    def env(self, coords: Sequence[float], time: float = 0.0) -> dict[str, float]:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        env = {name: float(coords[i]) for i, name in enumerate(self.names)}
        env[TIME_NAME] = float(time)
        return env


class _Parser:
    def __init__(self, text: str, chart: CoordinateChart):
        self.text = text
        self.chart = chart
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        offset = (self.pos if pos is None else pos) + 1
        raise ExprSyntaxError(message, offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, chars: str) -> str | None:
        self.skip_ws()
        if self.peek() in chars and self.peek():
            ch = self.peek()
            self.pos += 1
            return ch
        return None

    def parse(self) -> Expr:
        self.skip_ws()
        if self.pos == len(self.text):
            self.fail("empty expression")
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected '{self.peek()}'")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.accept("+-")) is not None:
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.accept("*/")) is not None:
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.accept("-"):
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.accept("^"):
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if not ch:
            self.fail("expected expression")
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(self.text, self.pos)
            if m is None:
                self.fail("malformed number")
            self.pos = m.end()
            return Num(float(m.group()))
        if ch == "(":
            self.pos += 1
            e = self.expr()
            if not self.accept(")"):
                self.fail("expected ')'")
            return e
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            self.fail(f"unexpected '{ch}'")
        name = m.group()
        start = self.pos
        self.pos = m.end()
        self.skip_ws()
        if self.peek() == "(":
            if name not in FUNCTIONS:
                raise UnknownIdentifierError(name, start + 1)
            self.pos += 1
            arg = self.expr()
            if not self.accept(")"):
                self.fail("expected ')'")
            return Call(name, arg)
        if name == TIME_NAME or name in self.chart.names:
            return Var(name)
        raise UnknownIdentifierError(name, start + 1)


def parse(text: str, chart: CoordinateChart) -> Expr:
    """Parse ``text`` into an expression tree over ``chart`` plus ``t``."""
    return _Parser(text, chart).parse()


def as_expr(value, chart: CoordinateChart) -> Expr:
    """Coerce a string, number or Expr into an Expr under ``chart``."""
    if isinstance(value, str):
        return parse(value, chart)
    return _coerce(value)


def _pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf


def _binop_value(e: BinOp, a: float, b: float) -> float:
    """The value of the operator node ``e`` from its operands' values."""
    op = e.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise DomainError("division by zero", e)
        return a / b
    if op == "^":
        try:
            return _pow(a, b)
        except ValueError:
            raise DomainError("invalid power", e) from None
    raise ExprError(f"unknown operator '{op}'")


def _call_value(e: Call, v: float) -> float:
    """The value of the function node ``e`` from its argument's value."""
    f = e.func
    if f in ("sin", "cos"):
        if math.isinf(v):
            raise DomainError(f"{f} of infinite value", e)
        return math.sin(v) if f == "sin" else math.cos(v)
    if f == "tanh":
        return math.tanh(v)
    if f == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    if f == "log":
        if v <= 0.0:
            raise DomainError("log of non-positive value", e)
        return math.log(v)
    if f == "sqrt":
        if v < 0.0:
            raise DomainError("sqrt of negative value", e)
        return math.sqrt(v)
    raise ExprError(f"unknown function '{f}'")


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate ``e`` with IEEE-754 doubles under the given bindings.

    Domain violations raise :class:`DomainError` naming the offending node
    instead of silently producing NaN.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(f"no binding for '{e.name}'") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, BinOp):
        return _binop_value(e, evaluate(e.lhs, env), evaluate(e.rhs, env))
    if isinstance(e, Call):
        return _call_value(e, evaluate(e.arg, env))
    raise ExprError(f"unknown node {e!r}")


class _Exact(float):
    """A partial derivative that :func:`differentiate` folds to this constant."""

    __slots__ = ()


# The partials of a node form a tuple with one slot per coordinate: None
# where differentiate simplifies the partial to the constant 0, an _Exact
# where it folds it to another constant, a DomainError where evaluating the
# simplified partial would raise it, the float value otherwise.  The helpers
# apply simplify's folding and 0/1 rules to one slot: a zero factor drops a
# failing partial, as simplify drops its subtree; any other operation keeps
# the failure.


def _p_add(p, q):
    if p is None:
        return q
    if q is None:
        return p
    if type(p) is _Exact and type(q) is _Exact:
        return _Exact(p + q) if p + q != 0.0 else None
    if type(p) is DomainError:
        return p
    if type(q) is DomainError:
        return q
    return p + q


def _p_neg(p):
    if p is None or type(p) is DomainError:
        return p
    return _Exact(-p) if type(p) is _Exact else -p


def _p_sub(p, q):
    if q is None:
        return p
    if p is None:
        return _p_neg(q)
    if type(p) is _Exact and type(q) is _Exact:
        return _Exact(p - q) if p - q != 0.0 else None
    if type(p) is DomainError:
        return p
    if type(q) is DomainError:
        return q
    return p - q


def _p_mul(p, c: float, c_is_num: bool):
    """The partial p times a factor with value c, a Num node iff c_is_num."""
    if p is None or (c_is_num and c == 0.0):
        return None
    if type(p) is DomainError:
        return p
    if type(p) is _Exact and c_is_num:
        return _Exact(p * c) if p * c != 0.0 else None
    return p * c


def _p_div(p, c: float, c_is_num: bool):
    """The partial p divided by a nonzero factor with value c."""
    if p is None or type(p) is DomainError:
        return p
    if type(p) is _Exact and c_is_num:
        return _Exact(p / c) if p / c != 0.0 else None
    return p / c


def _p_fail(partials, error: DomainError) -> tuple:
    """``error`` in every slot whose partial is not exactly 0."""
    return tuple(None if p is None else error for p in partials)


@lru_cache(maxsize=None)
def _partials_basis(d: int) -> tuple[tuple, tuple[tuple, ...]]:
    """The all-zero partials (one shared object) and each coordinate's own."""
    zeros = (None,) * d
    return zeros, tuple(zeros[:k] + (_Exact(1.0),) + zeros[k + 1 :] for k in range(d))


def evaluate_grad(
    e: Expr,
    env: Mapping[str, float],
    names: Sequence[str],
    known: Mapping[int, tuple[float, tuple]] | None = None,
) -> tuple[float, tuple]:
    """Value and coordinate gradient of ``e`` in one forward-mode pass.

    The value takes exactly the floating-point operations of
    :func:`evaluate`.  Partial k follows the rules of :func:`differentiate`
    with respect to ``names[k]`` and is None where that derivative
    simplifies to 0; such a partial is never evaluated, so it cannot hit a
    domain error (d sqrt(p1)/dq1 is exactly 0, also at p1 = 0).  ``e`` is
    expected to be simplified, as every series power is.  A domain
    violation of the value, or of a partial that evaluate(differentiate(e,
    name)) would meet, raises :class:`DomainError` naming the node;
    overflow gives inf.  ``known`` maps ``id(node)`` to an earlier result
    for that node, which is reused instead of walked.
    """
    index = {name: k for k, name in enumerate(names)}
    zeros, units = _partials_basis(len(names))
    known = known or {}

    def walk(e: Expr):
        hit = known.get(id(e))
        if hit is not None:
            return hit
        if isinstance(e, Num):
            return e.value, zeros
        if isinstance(e, Var):
            try:
                value = env[e.name]
            except KeyError:
                raise UnboundVariableError(f"no binding for '{e.name}'") from None
            k = index.get(e.name)
            return value, zeros if k is None else units[k]
        if isinstance(e, Neg):
            a, ga = walk(e.arg)
            return -a, ga if ga is zeros else tuple(map(_p_neg, ga))
        if isinstance(e, BinOp):
            return binop(e)
        if isinstance(e, Call):
            return call(e)
        raise ExprError(f"unknown node {e!r}")

    def binop(e: BinOp):
        a, ga = walk(e.lhs)
        b, gb = walk(e.rhs)
        value = _binop_value(e, a, b)
        op = e.op
        an, bn = isinstance(e.lhs, Num), isinstance(e.rhs, Num)
        if op == "^" and an and not bn and a == 0.0:
            # differentiate leaves du/u = 0/0 unfolded for a base of the number 0
            return value, (DomainError("division by zero in the derivative", e),) * len(zeros)
        if ga is zeros and gb is zeros:
            return value, zeros
        if op == "+":
            return value, tuple(map(_p_add, ga, gb))
        if op == "-":
            return value, tuple(map(_p_sub, ga, gb))
        if op == "*":
            return value, tuple(_p_add(_p_mul(p, b, bn), _p_mul(q, a, an)) for p, q in zip(ga, gb))
        if op == "/":
            if bn:
                return value, tuple(_p_div(p, b, True) for p in ga)
            nums = [_p_sub(_p_mul(p, b, False), _p_mul(q, a, an)) for p, q in zip(ga, gb)]
            square = _pow(b, 2.0)
            if square == 0.0:
                return value, _p_fail(nums, DomainError("division by zero in the derivative", e))
            return value, tuple(_p_div(n, square, False) for n in nums)
        if bn:  # u^c: c u^(c-1) du
            if b == 0.0:
                return value, zeros
            if b == 1.0 or all(p is None for p in ga):
                return value, ga
            try:
                c = b * _pow(a, b - 1.0)
            except ValueError:
                return value, _p_fail(ga, DomainError("invalid power in the derivative", e))
            return value, tuple(_p_mul(p, c, False) for p in ga)
        # u^v: u^v (dv log u + v du/u)
        if a > 0.0:
            dlog = [_p_mul(q, math.log(a), an) for q in gb]
        else:
            dlog = _p_fail(gb, DomainError("log of non-positive value in the derivative", e))
        if a != 0.0:
            ddiv = [_p_mul(_p_div(p, a, False), b, False) for p in ga]
        else:
            ddiv = _p_fail(ga, DomainError("division by zero in the derivative", e))
        return value, tuple(_p_mul(_p_add(q, p), value, False) for q, p in zip(dlog, ddiv))

    def call(e: Call):
        a, ga = walk(e.arg)
        value = _call_value(e, a)
        if ga is zeros:
            return value, zeros
        f = e.func
        if f == "log":
            return value, tuple(_p_div(p, a, False) for p in ga)
        if f == "sqrt":
            if value == 0.0:
                return value, _p_fail(ga, DomainError("division by zero in the derivative", e))
            return value, tuple(_p_div(p, 2.0 * value, False) for p in ga)
        if f == "sin":
            slope = math.cos(a)
        elif f == "cos":
            slope = -math.sin(a)
        elif f == "tanh":
            slope = 1.0 - _pow(value, 2.0)
        else:  # exp
            slope = value
        return value, tuple(_p_mul(p, slope, False) for p in ga)

    value, grad = walk(e)
    for p in grad:
        if type(p) is DomainError:
            raise p
    return value, grad


def evaluate_at(e: Expr, chart: CoordinateChart, coords: Sequence[float], time: float = 0.0) -> float:
    return evaluate(e, chart.env(coords, time))


def _fold(e: Expr) -> Expr:
    """Fold an all-constant node, keeping it unfolded on domain trouble."""
    try:
        return Num(evaluate(e, {}))
    except (DomainError, UnboundVariableError):
        return e


def _is_num(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def simplify(e: Expr) -> Expr:
    """Bottom-up constant folding plus 0/1 identities; nothing fancier.

    A node that no rule changes is returned itself, not copied.
    """
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Neg):
        a = simplify(e.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return e if a is e.arg else Neg(a)
    if isinstance(e, Call):
        a = simplify(e.arg)
        if isinstance(a, Num):
            return _fold(Call(e.func, a))
        return e if a is e.arg else Call(e.func, a)
    if isinstance(e, BinOp):
        a = simplify(e.lhs)
        b = simplify(e.rhs)
        op = e.op
        # a zero factor wins before folding, also over an inf or NaN constant
        if op == "*" and (_is_num(a, 0.0) or _is_num(b, 0.0)):
            return ZERO
        if isinstance(a, Num) and isinstance(b, Num):
            return _fold(BinOp(op, a, b))
        if op == "+":
            if _is_num(a, 0.0):
                return b
            if _is_num(b, 0.0):
                return a
        elif op == "-":
            if _is_num(b, 0.0):
                return a
            if _is_num(a, 0.0):
                return simplify(Neg(b))
        elif op == "*":
            if _is_num(a, 1.0):
                return b
            if _is_num(b, 1.0):
                return a
            if isinstance(b, Num):
                a, b = b, a
            if isinstance(a, Num):
                if a.value == -1.0:
                    return Neg(b)
                if isinstance(b, BinOp) and b.op == "*" and isinstance(b.lhs, Num):
                    return simplify(BinOp("*", Num(a.value * b.lhs.value), b.rhs))
        elif op == "/":
            if _is_num(a, 0.0):
                return ZERO
            if _is_num(b, 1.0):
                return a
            if isinstance(b, Num) and b.value != 0.0:
                if isinstance(a, BinOp) and a.op == "*" and isinstance(a.lhs, Num):
                    return simplify(BinOp("*", Num(a.lhs.value / b.value), a.rhs))
                if isinstance(a, Neg):
                    return simplify(Neg(BinOp("/", a.arg, b)))
        elif op == "^":
            if _is_num(b, 1.0):
                return a
            if _is_num(b, 0.0):
                return ONE
        # an unchanged node is returned as is, so simplified subtrees stay shared
        return e if a is e.lhs and b is e.rhs else BinOp(op, a, b)
    raise ExprError(f"unknown node {e!r}")


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``var``.

    The result is simplified by constant folding and the 0/1 identities
    only; agreement with central finite differences is the contract.
    """
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, BinOp):
        u, v = e.lhs, e.rhs
        du = _diff(u, var)
        dv = _diff(v, var)
        if e.op == "+":
            return BinOp("+", du, dv)
        if e.op == "-":
            return BinOp("-", du, dv)
        if e.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if e.op == "/":
            if isinstance(v, Num):
                return BinOp("/", du, v)
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, Num(2.0)))
        if e.op == "^":
            if isinstance(v, Num):
                power = BinOp("^", u, Num(v.value - 1.0))
                return BinOp("*", BinOp("*", v, power), du)
            # general u^v via exp(v log u)
            term = BinOp("+", BinOp("*", dv, Call("log", u)), BinOp("*", v, BinOp("/", du, u)))
            return BinOp("*", e, term)
        raise ExprError(f"unknown operator '{e.op}'")
    if isinstance(e, Call):
        u = e.arg
        du = _diff(u, var)
        if e.func == "sin":
            outer = Call("cos", u)
        elif e.func == "cos":
            outer = Neg(Call("sin", u))
        elif e.func == "exp":
            outer = Call("exp", u)
        elif e.func == "log":
            return BinOp("/", du, u)
        elif e.func == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", u)))
        elif e.func == "tanh":
            outer = BinOp("-", ONE, BinOp("^", Call("tanh", u), Num(2.0)))
        else:
            raise ExprError(f"unknown function '{e.func}'")
        return BinOp("*", outer, du)
    raise ExprError(f"unknown node {e!r}")


_PREC_BIN = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Num):
        return 3 if e.value < 0 else 5
    if isinstance(e, (Var, Call)):
        return 5
    if isinstance(e, Neg):
        # "-x*y" reads as (-x)*y, so a negated product binds like a product
        return 2 if _prec(e.arg) == 2 else 3
    if isinstance(e, BinOp):
        return _PREC_BIN[e.op]
    raise ExprError(f"unknown node {e!r}")


def _format_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expr) -> str:
    """Render ``e`` so that ``parse`` recovers an equal-valued tree."""
    if isinstance(e, Num):
        return _format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    if isinstance(e, Neg):
        inner = to_string(e.arg)
        if _prec(e.arg) <= 1:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        p = _PREC_BIN[e.op]
        ls, rs = to_string(e.lhs), to_string(e.rhs)
        if e.op == "^":
            if _prec(e.lhs) < 5:
                ls = f"({ls})"
            if _prec(e.rhs) < 3:
                rs = f"({rs})"
        else:
            if _prec(e.lhs) < p:
                ls = f"({ls})"
            if _prec(e.rhs) <= p:
                rs = f"({rs})"
        return f"{ls}{e.op}{rs}"
    raise ExprError(f"unknown node {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    """Names of all variables appearing in ``e`` (including ``t``)."""
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, BinOp):
        return free_vars(e.lhs) | free_vars(e.rhs)
    raise ExprError(f"unknown node {e!r}")


def count_nodes(e: Expr) -> int:
    if isinstance(e, (Num, Var)):
        return 1
    if isinstance(e, (Neg, Call)):
        return 1 + count_nodes(e.arg)
    if isinstance(e, BinOp):
        return 1 + count_nodes(e.lhs) + count_nodes(e.rhs)
    raise ExprError(f"unknown node {e!r}")


def is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


# ---------------------------------------------------------------------------
# Compilation to plain Python callables.  Used on integration hot paths; the
# reference semantics (incl. DomainError reporting) live in `evaluate`.

_COMPILE_GLOBALS = {
    "__builtins__": {},
    # constants folded to inf or NaN print as these names
    "inf": math.inf,
    "nan": math.nan,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_tanh": math.tanh,
    "_pow": math.pow,
}


def _codegen(e: Expr, chart: CoordinateChart) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        if e.name == TIME_NAME:
            return "t"
        return f"x[{chart.index(e.name)}]"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.arg, chart)})"
    if isinstance(e, BinOp):
        a = _codegen(e.lhs, chart)
        b = _codegen(e.rhs, chart)
        if e.op == "^":
            return f"_pow({a}, {b})"
        return f"({a}{e.op}{b})"
    if isinstance(e, Call):
        return f"_{e.func}({_codegen(e.arg, chart)})"
    raise ExprError(f"unknown node {e!r}")


def compile_scalar(e: Expr, chart: CoordinateChart) -> Callable[[Sequence[float], float], float]:
    src = f"lambda x, t: {_codegen(e, chart)}"
    return eval(src, dict(_COMPILE_GLOBALS))


def compile_vector(exprs: Iterable[Expr], chart: CoordinateChart):
    body = ", ".join(_codegen(e, chart) for e in exprs)
    src = f"lambda x, t: [{body}]"
    return eval(src, dict(_COMPILE_GLOBALS))


def evaluate_entries(exprs: Sequence[Expr], chart: CoordinateChart, coords, time: float, values=None) -> np.ndarray:
    """``exprs`` at the point with :func:`evaluate`'s semantics.

    Where compiled code raises a bare ValueError, ZeroDivisionError or
    OverflowError, or returns inf or NaN, the interpreter raises a
    DomainError naming the offending node, or gives inf on overflow.  Only
    the entries of ``values`` (the compiled results) that are not finite
    are evaluated again; without ``values`` every entry is.
    """
    out = np.full(len(exprs), np.nan) if values is None else values
    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        env = chart.env(coords, time)
        for i in bad:
            out[i] = evaluate(exprs[i], env)
    return out


def evaluate_compiled(compiled, chart: CoordinateChart, coords, time: float) -> np.ndarray:
    """``compiled`` = (exprs, compile_vector(exprs)) at the point, with
    :func:`evaluate`'s semantics.

    An entry the compiled code fails on or returns as inf or NaN is
    evaluated again by the interpreter (:func:`evaluate_entries`).
    """
    exprs, fn = compiled
    with np.errstate(all="ignore"):
        try:
            values = np.array(fn(coords, time), dtype=float)
        except (ArithmeticError, ValueError):
            values = None
    return evaluate_entries(exprs, chart, coords, time, values)
