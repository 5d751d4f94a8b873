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
    expansion (:func:`taylor_expand`) takes its values from the same
    operations, so it fails on the same nodes.  It also fails, naming the
    node, where a varying argument has no expansion: sqrt(u), or u^b with
    b not a non-negative integer, at u = 0, and u^v with a varying v at
    u <= 0.
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
# Truncated multivariate Taylor series (Griewank & Walther, *Evaluating
# Derivatives*, 2nd ed., ch. 13).  A series about a point is a float array
# whose last axis holds its coefficients on the graded monomials of a
# :class:`Monomials` basis: those of degree <= k are a prefix, so an array of
# length sizes[k] has degree k.  Results are trimmed to their highest nonzero
# degree, so a polynomial stays as short as it is.


class Monomials:
    """The monomials in d variables in graded order, grown on demand.

    Monomial 0 is 1 and monomials 1..d are x_1..x_d; exps[i] holds the
    exponents of monomial i, and sizes[k] counts those of degree <= k.
    Below the top degree, succ[i, k] is monomial i times x_k; above 0,
    monomial i is parent[i] times x_var[i].
    """

    def __init__(self, d: int):
        self.d = d
        self.sizes = [1]
        self.exps = np.zeros((1, d), dtype=np.intp)
        self.parent = self.var = np.zeros(1, dtype=np.intp)
        self.succ = np.zeros((0, d), dtype=np.intp)

    def grow(self, degree: int) -> None:
        """Extend the basis to every monomial of degree <= ``degree``."""
        while len(self.sizes) <= degree:
            lo, hi = self.sizes[-2] if len(self.sizes) > 1 else 0, self.sizes[-1]
            products = (self.exps[lo:hi, None] + np.eye(self.d, dtype=np.intp)).reshape(-1, self.d)
            # descending order puts x_1..x_d first
            _, first, inverse = np.unique(-products, axis=0, return_index=True, return_inverse=True)
            self.exps = np.concatenate([self.exps, products[first]])
            self.parent = np.concatenate([self.parent, lo + first // self.d])
            self.var = np.concatenate([self.var, first % self.d])
            self.succ = np.concatenate([self.succ, hi + inverse.reshape(hi - lo, self.d)])
            self.sizes.append(hi + len(first))

    def degree(self, a: np.ndarray) -> int:
        return self.sizes.index(a.shape[-1])

    def trim(self, a: np.ndarray) -> np.ndarray:
        """``a`` cut after its highest nonzero degree over all leading axes."""
        nonzero = np.flatnonzero(np.any(a.reshape(-1, a.shape[-1]) != 0.0, axis=0))
        top = int(np.searchsorted(self.sizes, nonzero[-1], side="right")) if len(nonzero) else 0
        return a[..., : self.sizes[top]]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (max(a.shape[-1], b.shape[-1]),))
        out[..., : a.shape[-1]] += a
        out[..., : b.shape[-1]] += b
        return self.trim(out)

    def mul(self, a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
        """The product of two series truncated at ``degree``; leading axes broadcast."""
        if a.shape[-1] < b.shape[-1]:
            a, b = b, a
        top = min(self.degree(a) + self.degree(b), degree)
        self.grow(top)
        out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (self.sizes[top],))
        # table[r, j] is monomial lo + r of the shorter factor times monomial j,
        # built for one degree of that factor at a time from the one below
        lo, table = 0, np.arange(min(a.shape[-1], out.shape[-1]))[None]
        for s in range(min(self.degree(b), top) + 1):
            if s:
                prev, lo, hi = lo, self.sizes[s - 1], self.sizes[s]
                cols = min(a.shape[-1], self.sizes[top - s])
                table = self.succ[table[self.parent[lo:hi] - prev, :cols], self.var[lo:hi, None]]
            for r, row in enumerate(table):
                if b[..., lo + r].any():
                    out[..., row] += b[..., lo + r, None] * a[..., : len(row)]
        return self.trim(out)

    def gradient(self, a: np.ndarray) -> np.ndarray:
        """The partial derivatives (d, ...) of the series ``a``, one degree lower."""
        top = self.degree(a)
        if top == 0:
            return np.zeros((self.d,) + a.shape)
        n = self.sizes[top - 1]
        return np.moveaxis(a[..., self.succ[:n]] * (self.exps[:n] + 1), -1, 0)

    def compose(self, coeffs: list[float], u: np.ndarray, degree: int) -> np.ndarray:
        """f(u) truncated at ``degree``, from f's Taylor coefficients
        coeffs[n] = f^(n)(u0)/n! at u0 = u[0]: Horner's rule in u - u0."""
        du = u.copy()
        du[0] = 0.0
        du = self.trim(du)
        top = len(coeffs) - 1
        while top and coeffs[top] == 0.0:
            top -= 1
        out = np.array(coeffs[top : top + 1])
        for c in reversed(coeffs[:top]):
            out = self.mul(out, du, degree)
            out[0] += c
        return out


def _binomial(e: Expr, b: float, u0: float, degree: int) -> list[float]:
    """Taylor coefficients of u^b at u0: binomial(b, n) u0^(b - n), up to
    the first that is exactly zero (for an integer b >= 0, all after it are)."""
    if u0 == 0.0:
        if not (b >= 0.0 and float(b).is_integer()):
            raise DomainError("no Taylor expansion at 0", e)
        return [float(n == b) for n in range(int(min(degree, b)) + 1)]
    out, c = [], 1.0
    for n in range(degree + 1):
        if not c:
            break
        out.append(c * _pow(u0, b - n))
        c *= (b - n) / (n + 1)
    return out


def _function_coeffs(f: str, u0: float, value: float, degree: int) -> list[float]:
    """Taylor coefficients of exp, log, sin, cos or tanh at u0, where it is ``value``."""
    out = [value]
    if f == "log":
        return out + [(-1.0) ** (n + 1) / n * _pow(1.0 / u0, n) for n in range(1, degree + 1)]
    if f == "tanh":
        # y' = 1 - y^2, coefficient by coefficient
        for n in range(degree):
            out.append((float(n == 0) - sum(out[i] * out[n - i] for i in range(n + 1))) / (n + 1))
        return out
    if f == "exp":
        cycle = (value,)
    else:
        s, c = math.sin(u0), math.cos(u0)
        cycle = (s, c, -s, -c) if f == "sin" else (c, -s, -c, s)
    scale = 1.0
    for n in range(1, degree + 1):
        scale /= n
        out.append(cycle[n % len(cycle)] * scale)
    return out


def taylor_expand(
    exprs: Sequence[Expr], chart: CoordinateChart, coords, time: float, degree: int, basis: Monomials
) -> np.ndarray:
    """Taylor coefficients of ``exprs`` in the chart coordinates about
    ``coords``, truncated at ``degree``, with ``t`` held at ``time``.

    Returns an array (len(exprs), basis.sizes[k]) trimmed to the highest
    nonzero degree k.  Degree 0 is :func:`evaluate`'s value bit for bit,
    with its domain semantics.  ``+ - *`` and ``/`` act on the
    coefficients; ``exp sin cos tanh log sqrt ^`` compose the function's
    Taylor coefficients at u0 with u - u0, u^v for a varying v as
    exp(v log u).  An argument that does not vary with the coordinates
    needs no expansion, so sqrt(q1 - q1) has zero partials.
    """
    env = chart.env(coords, time)
    index = {name: k for k, name in enumerate(chart.names)}
    memo: dict[int, np.ndarray] = {}

    def walk(e: Expr) -> np.ndarray:
        if id(e) not in memo:
            memo[id(e)] = node(e)
        return memo[id(e)]

    def node(e: Expr) -> np.ndarray:
        if isinstance(e, (Num, Var)):
            out = np.array([evaluate(e, env)])
            if isinstance(e, Var) and e.name in index and degree > 0:
                basis.grow(1)
                out = np.append(out, np.arange(basis.d) == index[e.name])
            return out
        if isinstance(e, Neg):
            return -walk(e.arg)
        if isinstance(e, Call):
            args = [walk(e.arg)]
            value = _call_value(e, float(args[0][0]))
        elif isinstance(e, BinOp):
            args = [walk(e.lhs), walk(e.rhs)]
            value = _binop_value(e, float(args[0][0]), float(args[1][0]))
        else:
            raise ExprError(f"unknown node {e!r}")
        if all(len(a) == 1 for a in args):  # nothing varies
            return np.array([value])
        out = call(e, *args, value) if isinstance(e, Call) else binop(e, *args, value)
        out[0] = value
        return out

    def call(e: Call, a: np.ndarray, value: float) -> np.ndarray:
        if e.func == "sqrt":
            return basis.compose(_binomial(e, 0.5, float(a[0]), degree), a, degree)
        return basis.compose(_function_coeffs(e.func, float(a[0]), value, degree), a, degree)

    def binop(e: BinOp, a: np.ndarray, b: np.ndarray, value: float) -> np.ndarray:
        if e.op in "+-":
            return basis.add(a, b if e.op == "+" else -b)
        if e.op == "*":
            return basis.mul(a, b, degree)
        if e.op == "/":
            if len(b) == 1:
                return a / b[0]
            return basis.mul(a, basis.compose(_binomial(e, -1.0, float(b[0]), degree), b, degree), degree)
        if len(b) == 1:  # a constant exponent
            return basis.compose(_binomial(e, float(b[0]), float(a[0]), degree), a, degree)
        if a[0] <= 0.0:
            raise DomainError("no Taylor expansion at a non-positive base", e)
        log_a = basis.compose(_function_coeffs("log", float(a[0]), math.log(a[0]), degree), a, degree)
        v_log_a = basis.mul(b, log_a, degree)
        return basis.compose(_function_coeffs("exp", float(v_log_a[0]), value, degree), v_log_a, degree)

    with np.errstate(all="ignore"):
        series = [walk(e) for e in exprs]
    n = max(len(s) for s in series)
    return np.array([np.pad(s, (0, n - len(s))) for s in series])


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
_FREE, _INACTIVE, _PARTIALS = {}, {}, {}


def _remember(memo: dict, e: Expr, value):
    if len(memo) >= 1 << 15:
        memo.clear()
    memo[id(e)] = (e, value)
    return value


def simplify(e: Expr) -> Expr:
    """Bottom-up constant folding plus 0/1 identities; nothing fancier.

    A node that no rule changes is returned itself, not copied.
    """
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, (Neg, Call)):
        return _simplified(e, simplify(e.arg))
    if isinstance(e, BinOp):
        a = simplify(e.lhs)
        # a zero factor wins whatever the other factor simplifies to
        return ZERO if e.op == "*" and _is_num(a, 0.0) else _simplified(e, a, simplify(e.rhs))
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
