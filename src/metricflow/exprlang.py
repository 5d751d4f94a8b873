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

import itertools
import math
import operator
import re
import types
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

TIME_NAME = "t"
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a number, a name or any other non-blank character; blanks (str.isspace)
# separate tokens, and a digit outside 0-9, such as '²', is a character
_TOKEN_RE = re.compile(
    rf"(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)|(?P<name>{_IDENT_RE.pattern})|(?P<char>\S)"
)


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
    """Recursive descent over (offset, kind, text) tokens; errors are reported at token offset + 1."""

    def __init__(self, text: str, chart: CoordinateChart):
        self.tokens = [(m.start(), m.lastgroup, m.group()) for m in _TOKEN_RE.finditer(text)]
        self.tokens.append((len(text), "end", ""))
        self.i = 0
        self.names = {TIME_NAME, *chart.names}

    def fail(self, message: str):
        raise ExprSyntaxError(message, self.tokens[self.i][0] + 1)

    def accept(self, *ops: str) -> str | None:
        text = self.tokens[self.i][2]
        if text in ops:
            self.i += 1
            return text
        return None

    def parse(self) -> Expr:
        if self.tokens[0][1] == "end":
            self.fail("empty expression")
        e = self.expr()
        if self.tokens[self.i][1] != "end":
            self.fail(f"unexpected '{self.tokens[self.i][2][0]}'")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.accept("+", "-")) is not None:
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.accept("*", "/")) is not None:
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
        offset, kind, text = self.tokens[self.i]
        if kind == "number":
            self.i += 1
            return Num(float(text))
        if kind == "name":
            self.i += 1
            if self.accept("("):
                if text in FUNCTIONS:
                    return Call(text, self.closed())
            elif text in self.names:
                return Var(text)
            raise UnknownIdentifierError(text, offset + 1)
        if self.accept("("):
            return self.closed()
        if kind == "end":
            self.fail("expected expression")
        self.fail("malformed number" if text.isdigit() or text == "." else f"unexpected '{text}'")

    def closed(self) -> Expr:  # the rest of "(" expr ")"
        e = self.expr()
        if not self.accept(")"):
            self.fail("expected ')'")
        return e


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
    instead of silently producing NaN; overflow gives inf.  The Taylor
    series (:func:`taylor_series`) takes its coefficient 0 from the same
    operations, so it fails on the same nodes, and also where a varying
    argument has no expansion.
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


# ---------------------------------------------------------------------------
# Truncated Taylor series in one variable s, as lists of coefficients, by the recursive Taylor
# method (Jorba & Zou, *Exp. Math.* 14(1), 2005; Griewank & Walther, *Evaluating Derivatives*, ch. 13).


def _conv(a, b, k: int) -> float:
    """sum_{i=0}^{k} a_i b_{k-i}: coefficient k of a b."""
    return sum(map(operator.mul, a[: k + 1], b[k::-1]))


def _rate(a, c, k: int) -> float:
    """sum_{i=1}^{k} i a_i c_{k-i} / k: coefficient k of the integral of a' c.
    The terms past a's end are left out, so a of length k leaves out i = k."""
    return sum(map(operator.mul, map(operator.mul, range(1, k + 1), a[1 : k + 1]), c[k - 1 :: -1])) / k


def _extend(c: list, k: int, rule) -> list:
    """``c`` grown to coefficient k, coefficient m by rule(m)."""
    while len(c) <= k:
        c.append(rule(len(c)))
    return c


def _power_products(a: list, n: int):
    """The rule of a^n, n an integer >= 0, by squarings, and products with a,
    along the bits of n after its leading one: each partial power is a
    series grown in order (exact for polynomials, also at a = 0)."""
    levels = [([], [] if bit == "1" else None) for bit in bin(n)[3:]]

    def rule(k: int) -> float:
        power = a
        for square, times_a in levels:
            _extend(square, k, lambda m: _conv(power, power, m))
            power = square if times_a is None else _extend(times_a, k, lambda m: _conv(square, a, m))
        return power[k] if n else 0.0

    return rule


def _power_step(e: Expr, c: list, a: list, b: list):
    """The rule of c = a^b by c' = (b log|a|)' c."""
    log_a, exponent = [], []

    def step(k: int) -> float:
        if any(b[1 : k + 1]) and not a[0] > 0.0:
            raise DomainError("no Taylor expansion at a non-positive base", e)
        if a[0] == 0.0:
            if any(a[1 : k + 1]):
                raise DomainError("no Taylor expansion at 0", e)
            return 0.0
        _extend(log_a, k, lambda m: (a[m] - _rate(log_a, a, m)) / a[0] if m else math.log(abs(a[0])))
        return _rate(_extend(exponent, k, lambda m: _conv(b, log_a, m)), c, k)

    return step


def _series_step(e: Expr, c: list, a: list | None = None, b: list | None = None):
    """The rule that gives coefficient k of the node ``e``, whose coefficients
    are ``c``, from those of its operands ``a`` and ``b``; coefficient 0 is
    :func:`evaluate`'s value from theirs."""
    if isinstance(e, Num):
        return lambda k: 0.0 if k else e.value
    if isinstance(e, Var):  # a is the leaf
        return lambda k: a[k] if k < len(a) else 0.0
    if isinstance(e, Neg):
        return lambda k: -a[k]
    rule = _series_rule(e, c, a, b)
    if isinstance(e, Call):
        return lambda k: rule(k) if k else _call_value(e, a[0])
    return lambda k: rule(k) if k else _binop_value(e, a[0], b[0])


def _series_rule(e: Expr, c: list, a: list, b: list | None):
    """:func:`_series_step` for k >= 1 of an operator or function node."""
    op = e.op if isinstance(e, BinOp) else e.func
    if op in ("+", "-"):
        return (lambda k: a[k] + b[k]) if op == "+" else (lambda k: a[k] - b[k])
    if op == "*":
        return lambda k: _conv(a, b, k)
    if op == "/":
        return lambda k: (a[k] - _conv(b[1:], c, k - 1)) / b[0]
    if op == "exp":
        return lambda k: _rate(a, c, k)
    if op == "log":
        return lambda k: (a[k] - _rate(c, a, k)) / a[0]
    if op in ("sin", "cos"):  # each carries the other: sin' = a' cos, cos' = -a' sin
        sign, other = (1.0 if op == "sin" else -1.0), []
        first = math.cos if op == "sin" else math.sin
        partner = lambda m: -sign * _rate(a, c, m) if m else first(a[0])  # noqa: E731
        return lambda k: sign * _rate(a, _extend(other, k - 1, partner), k)
    if op == "tanh":  # tanh' = a' (1 - tanh^2)
        w = []
        return lambda k: _rate(a, _extend(w, k - 1, lambda m: float(m == 0) - _conv(c, c, m)), k)
    if op == "^" and isinstance(e.rhs, Num) and e.rhs.value >= 0.0 and e.rhs.value.is_integer():
        return _power_products(a, int(e.rhs.value))
    if op in ("^", "sqrt"):
        return _power_step(e, c, a, b if op == "^" else [0.5])
    raise ExprError(f"unknown node {e!r}")


def taylor_series(exprs: Sequence[Expr], leaves: Mapping[str, list]):
    """The Taylor coefficients in one variable s of ``exprs``, whose variables
    are the series ``leaves``: each next() gives coefficient k = 0, 1, ...
    of every expression.

    A leaf is the list of its coefficients, which the caller may extend
    between calls: coefficient k is read when coefficient k is asked for,
    and one past the list's end is 0.  Coefficient 0 is :func:`evaluate`'s
    value bit for bit, with its domain semantics; coefficient k of a node
    follows from its operands' up to k and its own below k, ``/ exp log sin
    cos tanh sqrt ^`` by the recurrences of their differential equations,
    u^v as exp(v log|u|) but u^n, n a number node that is an integer >= 0,
    by products.  An argument whose coefficients past 0 are zero needs no
    expansion, so sqrt(q1 - q1) is 0; sqrt(u), and u^v but u^n, at u = 0
    where u varies, and u^v with a varying v at u <= 0 raise DomainError.
    """
    nodes, memo = [], {}

    def visit(e: Expr) -> list:
        if id(e) not in memo:
            if isinstance(e, Var):
                if e.name not in leaves:
                    raise UnboundVariableError(f"no binding for '{e.name}'")
                args = [leaves[e.name]]
            elif isinstance(e, BinOp):
                args = [visit(e.lhs), visit(e.rhs)]
            else:
                args = [visit(e.arg)] if isinstance(e, (Neg, Call)) else []
            memo[id(e)] = c = []
            nodes.append((c, _series_step(e, c, *args)))
        return memo[id(e)]

    outputs = [visit(e) for e in exprs]
    for k in itertools.count():
        for c, step in nodes:
            c.append(step(k))
        yield [c[k] for c in outputs]


def probe_points(count: int, low: Sequence[float], high: Sequence[float]) -> np.ndarray:
    """``count`` fixed points of the box [low, high], for checking an identity
    numerically: coordinate j of point i is read off cos(i * len(low) + j + 1),
    which is never 0 or +-1, so no coordinate sits at the middle or an end of
    its range."""
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    c = np.cos(np.arange(1, count * low.size + 1)).reshape(count, low.size)
    return low + 0.5 * (high - low) * (1.0 + c)


def _fold(e: Expr) -> Expr:
    """Fold an all-constant node, keeping it unfolded on domain trouble."""
    try:
        return Num(evaluate(e, {}))
    except (DomainError, UnboundVariableError):
        return e


def _is_num(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


# Per-node memos keyed by id; an entry holds its node, so the id is not reused.  A full memo is emptied.
_FREE, _INACTIVE, _PARTIALS, _SIMPLE = {}, {}, {}, {}


def _remember(memo: dict, e: Expr, value):
    if len(memo) >= 1 << 15:
        memo.clear()
    memo[id(e)] = (e, value)
    return value


def simplify(e: Expr) -> Expr:
    """Bottom-up constant folding plus 0/1 identities; nothing fancier.

    A node that no rule changes is returned itself, not copied.  Results
    are memoized per node: the chain rule simplifies shared operands again.
    """
    if isinstance(e, (Num, Var)):
        return e
    hit = _SIMPLE.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, (Neg, Call)):
        return _remember(_SIMPLE, e, _simplified(e, simplify(e.arg)))
    if isinstance(e, BinOp):
        a = simplify(e.lhs)
        # a zero factor wins whatever the other factor simplifies to
        return _remember(_SIMPLE, e, ZERO if e.op == "*" and _is_num(a, 0.0) else _simplified(e, a, simplify(e.rhs)))
    raise ExprError(f"unknown node {e!r}")


def _simplified(e: Expr, a: Expr, b: Expr | None = None) -> Expr:
    """``e`` simplified, given its operands ``a`` (and ``b``) simplified."""
    if isinstance(e, Neg):
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return e if a is e.arg else Neg(a)
    if isinstance(e, Call):
        if isinstance(a, Num):
            return _fold(Call(e.func, a))
        return e if a is e.arg else Call(e.func, a)
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


def _op(op: str, a: Expr, b: Expr | None = None) -> Expr:
    """BinOp(op, a, b), or Call(op, a), simplified from simplified operands."""
    return _simplified(Call(op, a), a) if b is None else _simplified(BinOp(op, a, b), a, b)


def _chain_rule(e: Expr, du: Expr, dv: Expr | None = None) -> Expr:
    """The simplified partial of ``e`` from the simplified partials ``du`` (and ``dv``) of its
    operands: the rule's nodes are simplified one by one, so ``du`` is not simplified twice."""
    if isinstance(e, Neg):
        return _simplified(Neg(du), du)
    if isinstance(e, Call):
        u, f = simplify(e.arg), e.func
        if f in ("log", "sqrt"):
            return _op("/", du, u if f == "log" else _op("*", Num(2.0), _op("sqrt", u)))
        if f == "cos":
            sin = _op("sin", u)
            outer = _simplified(Neg(sin), sin)
        elif f == "tanh":
            outer = _op("-", ONE, _op("^", _op("tanh", u), Num(2.0)))
        elif f in ("sin", "exp"):
            outer = _op("cos" if f == "sin" else "exp", u)
        else:
            raise ExprError(f"unknown function '{f}'")
        return _op("*", outer, du)
    if e.op in "+-":
        return _op(e.op, du, dv)
    u, v = simplify(e.lhs), simplify(e.rhs)
    if e.op == "*":
        return _op("+", _op("*", du, v), _op("*", u, dv))
    if e.op == "/" and isinstance(e.rhs, Num):
        return _op("/", du, v)
    if e.op == "/":
        return _op("/", _op("-", _op("*", du, v), _op("*", u, dv)), _op("^", v, Num(2.0)))
    if e.op == "^" and isinstance(e.rhs, Num):
        return _op("*", _op("*", v, _op("^", u, Num(e.rhs.value - 1.0))), du)
    if e.op == "^":  # u^v as exp(v log u)
        return _op("*", simplify(e), _op("+", _op("*", dv, _op("log", u)), _op("*", v, _op("/", du, u))))
    raise ExprError(f"unknown operator '{e.op}'")


def _inactive(e: Expr) -> Expr:
    """The partial of ``e`` by any variable it does not contain.  It is not
    always 0: -(p2) gives -0.0, and 0^t keeps an unfolded 0/0."""
    if isinstance(e, (Num, Var)):
        return ZERO
    hit = _INACTIVE.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, BinOp):
        return _remember(_INACTIVE, e, _chain_rule(e, _inactive(e.lhs), _inactive(e.rhs)))
    return _remember(_INACTIVE, e, _chain_rule(e, _inactive(e.arg)))


def gradient(e: Expr, names: Sequence[str]) -> list[Expr]:
    """``[differentiate(e, name) for name in names]``, memoized per ``e``: one walk
    forms each node's partials only for the names it contains, and a subtree
    without the name is not walked but gives its inactive partial."""
    known = _PARTIALS.get(id(e), (e, {}))[1]
    wanted, memo = free_vars(e).intersection(names).difference(known), {}

    def walk(e: Expr) -> dict[str, Expr]:
        if id(e) in memo:
            return memo[id(e)]
        out = {}
        if isinstance(e, Var) and e.name in wanted:
            out = {e.name: ONE}
        elif isinstance(e, BinOp) and not wanted.isdisjoint(free_vars(e)):
            a, b, da, db = walk(e.lhs), walk(e.rhs), _inactive(e.lhs), _inactive(e.rhs)
            todo = a.keys() | b.keys()
            if e.op in "+-" and is_zero(da) and is_zero(db):
                # x + 0, 0 + x and x - 0 are x unless x is a number, so a
                # long sum costs only the names its operands share
                out = {**b, **a} if e.op == "+" else dict(a)
                todo = (a.keys() & b.keys()) | (b.keys() if e.op == "-" else set())
                todo |= {name for name, d in out.items() if isinstance(d, Num)}
            for name in todo:
                out[name] = _chain_rule(e, a.get(name, da), b.get(name, db))
        elif isinstance(e, (Neg, Call)) and not wanted.isdisjoint(free_vars(e)):
            out = {name: _chain_rule(e, d) for name, d in walk(e.arg).items()}
        memo[id(e)] = out
        return out

    partials = _remember(_PARTIALS, e, {**known, **walk(e)}) if wanted else known
    return [partials[name] if name in partials else _inactive(e) for name in names]


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``var``.

    The result is simplified by constant folding and the 0/1 identities
    only; agreement with central finite differences is the contract.
    """
    return gradient(e, (var,))[0]


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
    if isinstance(e, (Num, Var)):
        return frozenset((e.name,)) if isinstance(e, Var) else frozenset()
    hit = _FREE.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, (Neg, Call)):
        return _remember(_FREE, e, free_vars(e.arg))
    if isinstance(e, BinOp):
        return _remember(_FREE, e, free_vars(e.lhs) | free_vars(e.rhs))
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


def _codegen(e: Expr, chart: CoordinateChart, parent: int = 0) -> str:
    """Python source for ``e``; ``parent`` is the precedence of the operator
    whose left operand ``e`` is, 0 otherwise.  Python reads a+b+c as
    (a+b)+c, so a left operand that binds at least as tightly as its parent
    needs no parentheses, and a long sum does not nest them once per term."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        if e.name == TIME_NAME:
            return "t"
        return f"x[{chart.index(e.name)}]"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.arg, chart)})"
    if isinstance(e, BinOp):
        if e.op == "^":
            return f"_pow({_codegen(e.lhs, chart)}, {_codegen(e.rhs, chart)})"
        p = _PREC_BIN[e.op]
        text = f"{_codegen(e.lhs, chart, p)}{e.op}{_codegen(e.rhs, chart)}"
        return text if p >= parent > 0 else f"({text})"
    if isinstance(e, Call):
        return f"_{e.func}({_codegen(e.arg, chart)})"
    raise ExprError(f"unknown node {e!r}")


def _lanewise(f, nin: int):
    ufunc = np.frompyfunc(f, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


# evaluate_batch runs the compiled code over lanes; ^ and the functions take
# math.* of each lane, because numpy's versions differ in the last bit
_LANE_GLOBALS = {**_COMPILE_GLOBALS, **{
    name: _lanewise(f, 2 if name == "_pow" else 1) for name, f in _COMPILE_GLOBALS.items() if callable(f)}}


def compile_vector(exprs: Iterable[Expr], chart: CoordinateChart):
    body = ", ".join(_codegen(e, chart) for e in exprs)
    try:
        return eval(f"lambda x, t: [{body}]", dict(_COMPILE_GLOBALS))
    except SyntaxError:  # Python's parser nests at most 200 parentheses
        raise ExprError("an expression is nested too deeply to process") from None


def evaluate_compiled(compiled, chart: CoordinateChart, coords, time: float, entries=slice(None)) -> np.ndarray:
    """The entries ``entries`` (a slice or index array, in its order) of
    ``compiled`` = (exprs, compile_vector(exprs)) at the point, with
    :func:`evaluate`'s semantics.

    The compiled code runs on Python floats, so it raises wherever
    :func:`evaluate` raises a DomainError, and on overflow, where evaluate
    gives inf.  The interpreter then evaluates the picked entries alone, in
    order, and raises the DomainError naming the node, or gives inf.
    """
    exprs, fn = compiled
    try:
        return np.array(fn(np.asarray(coords, dtype=float).tolist(), float(time)))[entries]
    except (ArithmeticError, ValueError):
        env = chart.env(coords, time)
        return np.array([evaluate(exprs[k], env) for k in np.arange(len(exprs))[entries]])


def evaluate_batch(compiled, chart: CoordinateChart, X, time=0.0, entries=slice(None)) -> np.ndarray:
    """:func:`evaluate_compiled` at each row of X (B, d), with its bits: the
    compiled code runs once with x[i] the column X[:, i], t the time or the
    times (B,) of the rows, and a constant entry broadcast.  On any error
    (errstate all="raise") each row is evaluated alone, so the first failing
    row raises its DomainError."""
    exprs, fn = compiled
    X = np.asarray(X, dtype=float)
    T = time if isinstance(time, float) else np.broadcast_to(np.asarray(time, dtype=float), len(X))
    if len(X) == 1:  # on floats, without numpy's cost per operation
        return evaluate_compiled(compiled, chart, X[0], T if T is time else T[0], entries)[None]
    try:
        with np.errstate(all="raise"):
            values = types.FunctionType(fn.__code__, _LANE_GLOBALS)(list(X.T), T)
    except (ArithmeticError, ValueError):
        rows = zip(X, np.broadcast_to(T, len(X)))
        return np.array([evaluate_compiled(compiled, chart, x, t, entries) for x, t in rows]).reshape(len(X), -1)
    out = np.empty((len(X), len(values)))
    for k, v in enumerate(values):
        out[:, k] = v
    return out[:, entries]
