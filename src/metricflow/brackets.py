"""Generalized Poisson brackets with a (possibly time-dependent) metric.

The bracket contracts the raised metric tensor with observable gradients;
the sign convention is fixed so that {q^i, p^j} = +delta_ij for the
canonical metric, which makes the raised tensor the negated matrix inverse
of the stored lower-index matrix.  The time-differentiation defect
d/dt{A,B} - {dA/dt, B} - {A, dB/dt} is available both as a closed-form
contraction (the Lie derivative of the raised tensor, plus its explicit
time dependence) and as a finite-difference measurement along the flow;
both vanish when the metric is an integral of motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import IntegratorOptions, VectorFieldSpec, flow_lanes
from .exprlang import (
    CoordinateChart,
    Expr,
    TIME_NAME,
    as_expr,
    compile_vector,
    evaluate_batch,
    gradient,
)
from .phasespace import MetricField, PhasePoint, _check_point, invert_metrics


@dataclass(frozen=True)
class Observable:
    """A scalar phase-space function, optionally time dependent.

    Its gradient entries, their gradients (the Hessian) and their time
    derivatives are differentiated and compiled once per chart, on first
    use, and evaluated at a stack of points at once.
    """

    expr: Expr
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def parse(cls, text: str, chart: CoordinateChart) -> "Observable":
        return cls(as_expr(text, chart))

    def _compiled(self, kind: str, chart: CoordinateChart):
        compiled = self._memo.get((kind, chart))
        if compiled is None:
            if kind == "grad":
                flat = gradient(self.expr, chart.names)
            else:  # the Hessian or the time derivatives, from the gradient's entries
                names = chart.names if kind == "hess" else (TIME_NAME,)
                flat = [h for g in self._compiled("grad", chart)[0] for h in gradient(g, names)]
            compiled = self._memo[(kind, chart)] = (flat, compile_vector(flat, chart))
        return compiled

    def gradient(self, chart: CoordinateChart, X: np.ndarray, T) -> np.ndarray:
        """The gradients (B, d) at the B points (X[b], T[b])."""
        return evaluate_batch(self._compiled("grad", chart), chart, X, T)

    def hessian(self, chart: CoordinateChart, X: np.ndarray, T) -> np.ndarray:
        """The Hessians (B, d, d) at the B points (X[b], T[b])."""
        d = chart.dim
        return evaluate_batch(self._compiled("hess", chart), chart, X, T).reshape(len(X), d, d)

    def gradient_dt(self, chart: CoordinateChart, X: np.ndarray, T) -> np.ndarray:
        """The time derivatives (B, d) of the gradient at the B points (X[b], T[b]);
        zero where the observable does not read t."""
        return evaluate_batch(self._compiled("grad_t", chart), chart, X, T)


@dataclass(frozen=True)
class LeibnizDefect:
    """Floats at one point; arrays over the points of a :class:`BracketFrame`."""

    formula: float | np.ndarray
    numerical: float | np.ndarray


# the time step of the central difference that measures d/dt{A, B} along the flow
LEIBNIZ_DELTA = 1e-4


def _as_observable(A, chart) -> Observable:
    if isinstance(A, Observable):
        return A
    return Observable(as_expr(A, chart))


def _contract(a: np.ndarray, T: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ T[i] @ b[i] for each i, as stacked matrix products."""
    return (a[:, None] @ T @ b[:, :, None])[:, 0, 0]


class BracketFrame:
    """The raised tensor P of a metric at the B points (X[b], T[b]), X (B, d)
    and T (B,), shared by every bracket of :class:`Observable` s taken
    there: the metric's jets are read in one ``jet_batch`` and inverted as
    one stack, the derivatives of P are formed on first use, and each
    observable's gradients and Hessians are evaluated once, at all points
    together.  Values come as arrays over the points."""

    def __init__(self, M: MetricField, X: np.ndarray, T: np.ndarray):
        self.M = M
        self.X = np.ascontiguousarray(X, dtype=float)
        self.T = np.asarray(T, dtype=float)
        W, self._dW_dx, self._dW_dt = M.jet_batch(self.X, self.T)
        self.P = -invert_metrics(W)
        self._memo = {}

    def _at_points(self, A: Observable, kind: str) -> np.ndarray:
        """A.gradient or A.hessian (``kind``) at the points, once per frame."""
        hit = self._memo.get((id(A), kind))
        if hit is None:  # A is kept with its values, so its id stays its own
            hit = self._memo[(id(A), kind)] = (A, getattr(A, kind)(self.M.chart, self.X, self.T))
        return hit[1]

    @cached_property
    def d_dx(self) -> np.ndarray:
        """d_k of P = -W^{-1}: d_k P = W^{-1} (d_k W) W^{-1} = P (d_k W) P."""
        P = self.P[:, None]
        return P @ self._dW_dx @ P

    @cached_property
    def d_dt(self) -> np.ndarray:
        return self.P @ self._dW_dt @ self.P

    def bracket(self, A: Observable, B: Observable) -> np.ndarray:
        """{A, B} at the frame's points."""
        return _contract(self._at_points(A, "gradient"), self.P, self._at_points(B, "gradient"))

    def jacobi_residual(self, A: Observable, B: Observable, C: Observable) -> np.ndarray:
        """{A,{B,C}} + {B,{C,A}} + {C,{A,B}} at the frame's points.

        Inner-bracket gradients use the exact derivative of the raised
        tensor, from the metric representation's spatial derivative.
        """
        P, dP = self.P, self.d_dx
        obs = (A, B, C)
        grads = [self._at_points(o, "gradient") for o in obs]
        hessians = [self._at_points(o, "hessian") for o in obs]

        def nested(i, j, k):
            # {obs_i, {obs_j, obs_k}}
            gj, gk = grads[j], grads[k]
            hj, hk = hessians[j], hessians[k]
            # d_m {obs_j, obs_k}
            inner_grad = (
                np.einsum("bmkl,bk,bl->bm", dP, gj, gk)
                + np.einsum("bkl,bmk,bl->bm", P, hj, gk)
                + np.einsum("bkl,bk,bml->bm", P, gj, hk)
            )
            return _contract(grads[i], P, inner_grad)

        return nested(0, 1, 2) + nested(1, 2, 0) + nested(2, 0, 1)

    def leibniz_defect(
        self, A: Observable, B: Observable, V: VectorFieldSpec, opts: IntegratorOptions | None = None
    ) -> LeibnizDefect:
        """:func:`leibniz_defect` at the frame's points.  The +LEIBNIZ_DELTA and
        -LEIBNIZ_DELTA flows of all points are the lanes of one :func:`flow_lanes`,
        and their end points one frame; the first failing point raises."""
        P = self.P
        Xv, J = V.eval_jacobian(self.X, self.T)  # J[b, k, m] = d X^k / d x^m
        D = self.d_dt + np.einsum("bm,bmkl->bkl", Xv, self.d_dx) - J @ P - P @ np.swapaxes(J, 1, 2)
        gA, gB = self._at_points(A, "gradient"), self._at_points(B, "gradient")
        formula = _contract(gA, D, gB)

        def rate_gradient(O: Observable) -> np.ndarray:
            # the gradient of dO/dt = d_t O + X^k d_k O: d_t grad O + (Hess O) X + (DX)^T grad O
            g, H, dt = (self._at_points(O, kind) for kind in ("gradient", "hessian", "gradient_dt"))
            return dt + (H @ Xv[:, :, None] + np.swapaxes(J, 1, 2) @ g[:, :, None])[:, :, 0]

        T0 = np.repeat(self.T, 2)
        T1 = T0 + np.tile([LEIBNIZ_DELTA, -LEIBNIZ_DELTA], len(self.T))
        Y, _ = flow_lanes(V, np.repeat(self.X, 2, axis=0), T1 - T0, opts, T0=T0)
        c = BracketFrame(self.M, Y[:, : V.chart.dim], T1).bracket(A, B)
        numerical = ((c[::2] - c[1::2]) / (2.0 * LEIBNIZ_DELTA) - _contract(rate_gradient(A), P, gB)
                     - _contract(gA, P, rate_gradient(B)))
        return LeibnizDefect(formula, numerical)


def _point_frame(M: MetricField, x: PhasePoint) -> BracketFrame:
    _check_point(M.chart, x)
    return BracketFrame(M, x.coords[None], [x.time])


def poisson_bracket(A, B, M: MetricField, x: PhasePoint) -> float:
    """{A, B} at ``x`` with the metric raised through its inverse."""
    A, B = (_as_observable(o, M.chart) for o in (A, B))
    return float(_point_frame(M, x).bracket(A, B)[0])


def bracket_jacobi_residual(A, B, C, M: MetricField, x: PhasePoint) -> float:
    """{A,{B,C}} + {B,{C,A}} + {C,{A,B}} at ``x`` (:meth:`BracketFrame.jacobi_residual`)."""
    A, B, C = (_as_observable(o, M.chart) for o in (A, B, C))
    return float(_point_frame(M, x).jacobi_residual(A, B, C)[0])


def leibniz_defect(
    A,
    B,
    V: VectorFieldSpec,
    M: MetricField,
    x: PhasePoint,
    opts: IntegratorOptions | None = None,
) -> LeibnizDefect:
    """Defect of term-by-term time differentiation of {A, B} at ``x``.

    ``formula`` contracts d_t P + L_X P (P the raised tensor) with the
    observable gradients; ``numerical`` measures d/dt{A,B} - {dA,B} -
    {A,dB} along the trajectory through ``x``: d/dt{A,B} by central
    differences of step ``LEIBNIZ_DELTA``, and the gradient of dA/dt =
    d_t A + X^k d_k A as d_t grad A + (Hess A) X + (DX)^T grad A, from the
    observable's compiled derivatives and the field's Jacobian.  The two
    agree for closed-form metrics and both vanish when the metric is an
    integral of motion.
    """
    A, B = (_as_observable(o, M.chart) for o in (A, B))
    defect = _point_frame(M, x).leibniz_defect(A, B, V, opts)
    return LeibnizDefect(float(defect.formula[0]), float(defect.numerical[0]))
