"""Metric evolution: keep the 2-form an integral of motion.

Three independent routes evolve an initial metric so that its total time
derivative along the flow vanishes.  Where a route works numerically it
transports the metric by one primitive, the congruence W = M^T w0 M by a
tangent map M (:func:`congruence`):

* an exponential series exp(tJ) built from repeated applications of the
  generating operator J; for a linear field dx/dt = A x it is the
  congruence by expm(-tA) (Kronecker-sum identity),
* Strang splitting of that exponential over the Hamiltonian/friction parts
  X = X1 + X2.  exp(hJ_X) is the pullback along the sub-flow of X (Lie
  series), so each step follows the backward sub-flows of X2 for dt/2, X1
  for dt and X2 for dt/2 and M is the product of their tangent maps: exact
  matrix exponentials for affine parts, DOPRI5 otherwise,
* pullback transport: M is the Jacobian of the backward flow (invariant by
  construction; this route is the reference oracle).

The invariance residual dw_kl/dt - d_k(w_lm X^m) + d_l(w_km X^m) measures
how far a given field is from being conserved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dynamics import TRANSPORT_OPTIONS, IntegratorOptions, VectorFieldSpec, integrate_flow
from .exprlang import (
    DomainError,
    Expr,
    Num,
    count_nodes,
    differentiate,
    evaluate,
    evaluate_grad,
    is_zero,
    simplify,
)
from .helmholtz import helmholtz_residual
from .phasespace import MetricField, PhasePoint, SKEW_TOL, _check_point, metric_eval

MAX_EXPR_NODES = 1_000_000
SERIES_STOP_NORM = 1e-14
DEFAULT_SERIES_ORDER = 20


class EvolutionError(Exception):
    """Metric evolution failed."""


class ExpressionSizeError(EvolutionError):
    """Symbolic series outgrew the node budget."""


class SeriesDivergenceWarning(UserWarning):
    """Truncated series shows no sign of converging at the final order."""


@dataclass(frozen=True)
class SplittingConfig:
    total_time: float
    steps: int
    scheme: str = "strang"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.scheme != "strang":
            raise ValueError(f"unsupported splitting scheme '{self.scheme}'")


@dataclass(frozen=True)
class SeriesInfo:
    path: str  # "linear-exact" | "series"
    terms: int
    last_term_norm: float
    diverging: bool


def congruence(M: np.ndarray, W0: np.ndarray) -> np.ndarray:
    """Transport the metric ``W0`` by the tangent map ``M``.

    Returns the skew part of M^T W0 M, which is M^T W0 M itself up to
    rounding when W0 is skew-symmetric.
    """
    R = M.T @ W0 @ M
    return 0.5 * (R - R.T)


def _entries_of(W) -> list[list[Expr]]:
    if isinstance(W, MetricField):
        entries = W.entry_exprs()
        if entries is None:
            raise EvolutionError("metric representation has no expression entries")
        return entries
    if isinstance(W, np.ndarray) or (
        isinstance(W, (list, tuple)) and W and not isinstance(W[0][0], Expr)
    ):
        arr = np.array(W, dtype=float)
        return [[Num(float(v)) for v in row] for row in arr]
    return [list(row) for row in W]


def _zip_sum(terms: list[Expr]) -> Expr:
    acc: Expr = Num(0.0)
    for term in terms:
        acc = acc + term
    return simplify(acc)


def _apply_J(V: VectorFieldSpec, entries: list[list[Expr]]) -> list[list[Expr]]:
    comps = V.components
    d = V.chart.dim
    names = V.chart.names
    # P[l] = sum_m w_lm X^m  (w's first index fixed)
    P = [
        _zip_sum([entries[l][m] * comps[m] for m in range(d) if not is_zero(entries[l][m])])
        for l in range(d)
    ]
    out: list[list[Expr]] = [[Num(0.0)] * d for _ in range(d)]
    dP = [[differentiate(P[l], names[k]) for k in range(d)] for l in range(d)]
    for k in range(d):
        for l in range(k + 1, d):
            u = simplify(dP[l][k] - dP[k][l])
            out[k][l] = u
            out[l][k] = simplify(-u)
    return out


def apply_J(V: VectorFieldSpec, W) -> list[list[Expr]]:
    """One application of the metric evolution operator, symbolically.

    Returns the matrix d_k(w_lm X^m) - d_l(w_km X^m), which assumes w is
    skew-symmetric; w_kl + w_lk is checked to vanish at probe points.
    """
    chart = V.chart
    d = chart.dim
    entries = _entries_of(W)
    rng = np.random.default_rng(2718)
    for _ in range(5):
        xs = rng.uniform(-1.0, 1.0, d)
        env = chart.env(xs, rng.uniform(0.0, 1.0))
        for k in range(d):
            for l in range(k, d):
                w = evaluate(entries[k][l], env)
                if abs(w + evaluate(entries[l][k], env)) > 1e-10 * max(1.0, abs(w)):
                    raise EvolutionError("the input matrix is not skew-symmetric")
    return _apply_J(V, entries)


def _check_constant_skew(W0) -> np.ndarray:
    W = np.array(W0, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("initial metric must be a square matrix")
    if np.max(np.abs(W + W.T)) > SKEW_TOL:
        raise ValueError("initial metric must be skew-symmetric")
    return W


class SeriesPropagator:
    """Exponential-series propagator for one (field, initial metric) pair.

    Symbolic operator powers are computed once and shared across point
    evaluations; linear fields take the exact congruence by expm(-tA).  At
    a point, each power's entries are walked once, in forward mode, for
    their values and coordinate gradients together; the arrays are kept
    for the most recent point only.
    """

    def __init__(self, V: VectorFieldSpec, W0):
        self.V = V
        self.W0 = _check_constant_skew(W0)
        if self.W0.shape[0] != V.chart.dim:
            raise ValueError("initial metric does not match the chart dimension")
        self.affine_jacobian = V.constant_jacobian
        self._powers: list[list[list[Expr]]] = [_entries_of(self.W0)]
        self._point: bytes | None = None
        self._env: dict[str, float] = {}
        self._terms: list[tuple[np.ndarray, np.ndarray | DomainError]] = []
        self._known: dict[int, tuple[float, tuple]] = {}

    def _power(self, j: int) -> list[list[Expr]]:
        while len(self._powers) <= j:
            prev = self._powers[-1]
            # W0 passed _check_constant_skew and every power is skew by construction
            nxt = _apply_J(self.V, prev)
            nodes = sum(count_nodes(e) for row in nxt for e in row)
            if nodes > MAX_EXPR_NODES:
                raise ExpressionSizeError(
                    f"series power {len(self._powers)} has {nodes} nodes "
                    f"(cap {MAX_EXPR_NODES})"
                )
            self._powers.append(nxt)
        return self._powers[j]

    def _at_point(self, coords, time: float, j: int) -> tuple[np.ndarray, np.ndarray | DomainError]:
        """Power j at the point: (P, dP) with dP[k, l, m] = d_k P[l, m].

        dP is the DomainError of the gradient walk instead when a partial
        failed where the value did not.
        """
        # the field is autonomous and W0 constant, so the powers do not involve t
        key = np.asarray(coords, dtype=float).tobytes()
        if key != self._point:
            self._point = key
            self._env = self.V.chart.env(coords, time)
            self._terms = []
            self._known = {}
        while len(self._terms) <= j:
            self._terms.append(self._walk(self._power(len(self._terms))))
        return self._terms[j]

    def _walk(self, entries: list[list[Expr]]) -> tuple[np.ndarray, np.ndarray | DomainError]:
        d = self.V.chart.dim
        names = self.V.chart.names
        env, known = self._env, self._known
        P = np.empty((d, d))
        dP: np.ndarray | DomainError = np.zeros((d, d, d))
        for l in range(d):
            for m in range(d):
                e = entries[l][m]
                try:
                    value, grad = evaluate_grad(e, env, names, known)
                except DomainError as exc:
                    P[l, m] = evaluate(e, env)  # raises if the value itself fails
                    dP = exc
                    continue
                P[l, m] = value
                # power j + 1 refers to these entries through w_lm X^m
                known[id(e)] = (value, grad)
                if not isinstance(dP, DomainError):
                    dP[:, l, m] = [0.0 if g is None else g for g in grad]
        return P, dP

    def propagate(
        self,
        t: float,
        x: PhasePoint | None = None,
        order: int = DEFAULT_SERIES_ORDER,
        mode: str = "auto",
        stop_norm: float = SERIES_STOP_NORM,
    ) -> tuple[np.ndarray, SeriesInfo]:
        if order < 1:
            raise ValueError("order must be >= 1")
        if mode not in ("auto", "linear", "generic"):
            raise ValueError(f"mode must be auto|linear|generic, got '{mode}'")
        if mode == "linear" and self.affine_jacobian is None:
            raise EvolutionError("vector field is not linear; cannot force the linear path")
        if mode in ("auto", "linear") and self.affine_jacobian is not None:
            W = congruence(expm(-t * self.affine_jacobian), self.W0)
            return W, SeriesInfo("linear-exact", 0, 0.0, False)
        if x is None:
            raise ValueError("the generic series path needs an evaluation point")
        total = self._at_point(x.coords, x.time, 0)[0]
        coeff = 1.0
        last_norm = 0.0
        terms = 0
        for j in range(1, order + 1):
            coeff *= t / j
            term = coeff * self._at_point(x.coords, x.time, j)[0]
            total = total + term
            terms = j
            last_norm = float(np.max(np.abs(term)))
            if last_norm < stop_norm * max(1.0, float(np.max(np.abs(total)))):
                break
        diverging = last_norm > max(1.0, float(np.max(np.abs(total))))
        if diverging:
            warnings.warn(
                f"series term {terms} has norm {last_norm:.3e}, exceeding the running sum; "
                "the truncated series is not converging",
                SeriesDivergenceWarning,
            )
        return total, SeriesInfo("series", terms, last_norm, diverging)


def series_propagate(
    V: VectorFieldSpec,
    W0,
    t: float,
    order: int = DEFAULT_SERIES_ORDER,
    x: PhasePoint | None = None,
    mode: str = "auto",
) -> np.ndarray:
    """Evaluate exp(t J) applied to the constant initial metric ``W0``."""
    W, _ = SeriesPropagator(V, W0).propagate(t, x=x, order=order, mode=mode)
    return W


@dataclass(frozen=True)
class SplitInfo:
    # "linear-exact": both parts affine, congruence by the Strang product P^N;
    # "split-pullback": congruence by the tangent map of the backward
    # trajectory of sub-flows from the evaluation point
    path: str


def split_propagate(
    V: VectorFieldSpec,
    W0,
    cfg: SplittingConfig,
    x: PhasePoint | None = None,
) -> np.ndarray:
    """Strang splitting over the declared field split X = X1 + X2.

    Each step applies exp(dt/2 J2) exp(dt J1) exp(dt/2 J2), where exp(h J_i)
    is the pullback along the sub-flow of X_i for time h.
    """
    W, _ = split_propagate_info(V, W0, cfg, x=x)
    return W


def _backward_subflow(X: VectorFieldSpec, h: float):
    """y -> (Phi(y), D Phi(y)) for the time-(-h) flow Phi of the part field X."""
    A = X.constant_jacobian
    if A is None:

        def step(y):
            seg = integrate_flow(X, PhasePoint(y, 0.0), -h, TRANSPORT_OPTIONS)
            return seg.end.coords, seg.tangent

        return step
    # affine X(y) = A y + b: exponentiate the augmented generator [[A, b], [0, 0]]
    d = A.shape[0]
    G = np.zeros((d + 1, d + 1))
    G[:d, :d] = A
    G[:d, d] = X.eval(np.zeros(d))
    E = expm(-h * G)
    D, c = E[:d, :d], E[:d, d]
    return lambda y: (D @ y + c, D)


def split_propagate_info(
    V: VectorFieldSpec,
    W0,
    cfg: SplittingConfig,
    x: PhasePoint | None = None,
) -> tuple[np.ndarray, SplitInfo]:
    """As :func:`split_propagate`, also reporting the path taken."""
    if V.parts is None:
        raise EvolutionError("split propagation requires declared split parts")
    W = _check_constant_skew(W0)
    dt = cfg.total_time / cfg.steps
    X1, X2 = V.parts
    A1, A2 = X1.constant_jacobian, X2.constant_jacobian
    if A1 is not None and A2 is not None:
        half = expm(-0.5 * dt * A2)
        P = half @ expm(-dt * A1) @ half
        return congruence(np.linalg.matrix_power(P, cfg.steps), W), SplitInfo("linear-exact")
    if x is None:
        raise ValueError("nonlinear split propagation needs an evaluation point")
    half = _backward_subflow(X2, 0.5 * dt)
    strang = (half, _backward_subflow(X1, dt), half)
    y = np.array(x.coords, dtype=float)
    M = np.eye(V.chart.dim)
    for _ in range(cfg.steps):
        for sub_flow in strang:
            y, D = sub_flow(y)
            M = D @ M
    return congruence(M, W), SplitInfo("split-pullback")


def pullback_metric(
    V: VectorFieldSpec,
    M0: MetricField,
    x: PhasePoint,
    t: float | None = None,
    opts: IntegratorOptions | None = None,
) -> np.ndarray:
    """Transport the time-0 metric to ``x`` at time ``t`` along the flow.

    Computes the backward-flow preimage x0 and its Jacobian M, then returns
    M^T w(x0, 0) M.  Enforces conservation of the 2-form by construction.
    """
    _check_point(V.chart, x)
    time = x.time if t is None else float(t)
    if time == 0.0:
        return metric_eval(M0, PhasePoint(x.coords, 0.0))
    seg = integrate_flow(V.negated, PhasePoint(x.coords, 0.0), time, opts)
    return congruence(seg.tangent, M0.value(seg.end.coords, 0.0))


def invariance_residual(V: VectorFieldSpec, M: MetricField, x: PhasePoint) -> np.ndarray:
    """Residual of the conservation law for the metric field at ``x``.

    Entries dw_kl/dt - d_k(w_lm X^m) + d_l(w_km X^m); the metric is an
    integral of motion at ``x`` exactly when this vanishes.
    """
    _check_point(V.chart, x)
    return M.d_dt(x.coords, x.time) - helmholtz_residual(V, M, x)


# ---------------------------------------------------------------------------
# Finite-difference derivatives for transported metrics.  The 2d perturbed
# backward flows are integrated jointly as one stacked state (one step
# sequence), so difference quotients are not dominated by independent
# integration noise.  Each right-hand side evaluates the field at all copies
# in one batch and multiplies their Jacobians into the tangent blocks with
# one stacked matmul.


def _stacked_rhs(V: VectorFieldSpec, copies: int):
    d = V.chart.dim

    def f(tau, s):
        S = s.reshape(copies, d + d * d)
        X = S[:, :d].T
        out = np.empty_like(S)
        out[:, :d] = V.eval_batch(X).T
        tangents = S[:, d:].reshape(copies, d, d)
        out[:, d:] = np.matmul(V.jacobian_batch(X), tangents).reshape(copies, d * d)
        return out.reshape(-1)

    return f


def transported_d_dx(
    V: VectorFieldSpec,
    M0: MetricField,
    coords,
    time: float,
    opts: IntegratorOptions | None = None,
    h_scale: float = 1e-5,
) -> np.ndarray:
    """Spatial derivatives of the transported metric by central differences."""
    from .dynamics import _integrate

    coords = np.asarray(coords, dtype=float)
    d = V.chart.dim
    if time == 0.0:
        return M0.d_dx(coords, time)
    opts = opts or TRANSPORT_OPTIONS
    hs = h_scale * np.maximum(1.0, np.abs(coords))
    starts = []
    for k in range(d):
        for sign in (+1.0, -1.0):
            xp = coords.copy()
            xp[k] += sign * hs[k]
            starts.append(xp)
    copies = len(starts)
    I = np.eye(d).reshape(-1)
    y0 = np.concatenate([np.concatenate([xp, I]) for xp in starts])
    back = V.negated if time > 0 else V
    y_end, _, _ = _integrate(_stacked_rhs(back, copies), y0, abs(time), opts)
    block = d + d * d
    values = []
    for c in range(copies):
        seg = y_end[c * block : (c + 1) * block]
        x0 = seg[:d]
        M = seg[d:].reshape(d, d)
        values.append(congruence(M, M0.value(x0, 0.0)))
    D = np.empty((d, d, d))
    for k in range(d):
        D[k] = (values[2 * k] - values[2 * k + 1]) / (2.0 * hs[k])
    return D


def transported_d_dt(
    V: VectorFieldSpec,
    M0: MetricField,
    coords,
    time: float,
    opts: IntegratorOptions | None = None,
    h_scale: float = 1e-5,
) -> np.ndarray:
    """Time derivative of the transported metric by differences along one
    backward trajectory (dense samples share the step sequence)."""
    coords = np.asarray(coords, dtype=float)
    opts = opts or TRANSPORT_OPTIONS
    sgn = -1.0 if time < 0 else 1.0
    s = abs(time)  # backward duration; W(t) below means the metric at sgn*s
    back = V.negated if sgn > 0 else V
    dt = h_scale * max(1.0, s)
    start = PhasePoint(coords, 0.0)

    def value_at(seg, i) -> np.ndarray:
        return congruence(seg.tangents[i], M0.value(seg.samples[i][1], 0.0))

    if s > dt:
        seg = integrate_flow(back, start, s + dt, opts, [s - dt])
        return sgn * (value_at(seg, 2) - value_at(seg, 1)) / (2.0 * dt)
    # near t = 0 use a one-sided second-order stencil on [s, s+2dt]
    if s == 0.0:
        seg = integrate_flow(back, start, 2.0 * dt, opts, [dt])
        W0v = metric_eval(M0, PhasePoint(coords, 0.0))
        W1, W2 = value_at(seg, 1), value_at(seg, 2)
    else:
        seg = integrate_flow(back, start, s + 2.0 * dt, opts, [s, s + dt])
        W0v, W1, W2 = (value_at(seg, i) for i in (1, 2, 3))
    return sgn * (-3.0 * W0v + 4.0 * W1 - W2) / (2.0 * dt)


# ---------------------------------------------------------------------------
# Metric-field wrappers around the evolution routes (used by audits and the
# command-line reports).


class SeriesMetric(MetricField):
    """The series-propagated metric as a field with exact derivatives.

    value, d_dt and d_dx sum the same per-point arrays of the propagator:
    each operator power's values P_j and coordinate gradients dP_j come
    from one forward-mode pass over its entries (:func:`evaluate_grad`),
    so d_dx differentiates the truncated series termwise without building
    derivative trees.  The loops keep their truncation rules: the relative
    stop of ``propagate`` for the value, an absolute SERIES_STOP_NORM stop
    on the last term for d_dt and d_dx.  A partial that leaves its domain
    where the value does not (d sqrt(u)/dx at u = 0) fails d_dx only.
    """

    def __init__(self, V: VectorFieldSpec, W0, order: int = DEFAULT_SERIES_ORDER, mode: str = "auto"):
        self.chart = V.chart
        self.V = V
        self.order = order
        self.mode = mode
        self.prop = SeriesPropagator(V, W0)

    def value(self, coords, time):
        W, _ = self.prop.propagate(time, x=PhasePoint(coords, time), order=self.order, mode=self.mode)
        return W

    def d_dt(self, coords, time):
        if self.prop.affine_jacobian is not None and self.mode in ("auto", "linear"):
            # dW/dt = J W(t), one exact operator application
            A = self.prop.affine_jacobian
            W = self.value(coords, time)
            return -(A.T @ W + W @ A)
        # termwise derivative of the truncated series: the index-shifted sum
        total = self.prop._at_point(coords, time, 1)[0]
        coeff = 1.0
        for j in range(2, self.order + 1):
            coeff *= time / (j - 1)
            term = coeff * self.prop._at_point(coords, time, j)[0]
            total = total + term
            if float(np.max(np.abs(term))) < SERIES_STOP_NORM:
                break
        return total

    def d_dx(self, coords, time):
        d = self.chart.dim
        if self.prop.affine_jacobian is not None and self.mode in ("auto", "linear"):
            return np.zeros((d, d, d))
        # the truncated series differentiated termwise, from the powers' gradients
        D = np.zeros((d, d, d))
        coeff = 1.0
        for j in range(0, self.order + 1):
            if j > 0:
                coeff *= time / j
            dP = self.prop._at_point(coords, time, j)[1]
            if isinstance(dP, DomainError):
                raise dP
            term = coeff * dP
            D = D + term
            if j > 0 and float(np.max(np.abs(term))) < SERIES_STOP_NORM:
                break
        return D


class FiniteDifferenceMetric(MetricField):
    """Wrap a value callable as a metric field with FD derivatives."""

    def __init__(self, chart, value_fn, h_scale: float = 1e-5):
        self.chart = chart
        self._fn = value_fn
        self.h = h_scale

    def value(self, coords, time):
        return self._fn(np.asarray(coords, dtype=float), float(time))

    def d_dx(self, coords, time):
        coords = np.asarray(coords, dtype=float)
        d = self.chart.dim
        D = np.empty((d, d, d))
        for k in range(d):
            h = self.h * max(1.0, abs(coords[k]))
            xp = coords.copy()
            xm = coords.copy()
            xp[k] += h
            xm[k] -= h
            D[k] = (self._fn(xp, time) - self._fn(xm, time)) / (2.0 * h)
        return D

    def d_dt(self, coords, time):
        coords = np.asarray(coords, dtype=float)
        h = self.h * max(1.0, abs(time))
        return (self._fn(coords, time + h) - self._fn(coords, time - h)) / (2.0 * h)
