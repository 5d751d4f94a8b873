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
    evaluate_compiled,
    gradient,
    simplify,
)
from .phasespace import MetricField, PhasePoint, _check_point, invert_metric, invert_metrics, inverse_metric


@dataclass(frozen=True)
class Observable:
    """A scalar phase-space function, optionally time dependent.

    Its gradient and Hessian entries are differentiated and compiled once
    per chart, on first use.
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
            else:  # the Hessian, from the gradient's entries
                flat = [h for g in self._compiled("grad", chart)[0] for h in gradient(g, chart.names)]
            compiled = self._memo[(kind, chart)] = (flat, compile_vector(flat, chart))
        return compiled

    def gradient(self, chart: CoordinateChart, x: PhasePoint) -> np.ndarray:
        return evaluate_compiled(self._compiled("grad", chart), chart, x.coords, x.time)

    def hessian(self, chart: CoordinateChart, x: PhasePoint) -> np.ndarray:
        d = chart.dim
        return evaluate_compiled(self._compiled("hess", chart), chart, x.coords, x.time).reshape(d, d)


@dataclass(frozen=True)
class LeibnizDefect:
    formula: float
    numerical: float


def _as_observable(A, chart) -> Observable:
    if isinstance(A, Observable):
        return A
    return Observable(as_expr(A, chart))


def bracket_tensor(M: MetricField, x: PhasePoint) -> np.ndarray:
    """Raised tensor B with {A,B} = B^{kl} d_k A d_l B and {q,p} = +1."""
    return -inverse_metric(M, x)


class BracketFrame:
    """The raised tensor P of a metric at one point, shared by every bracket
    of :class:`Observable` s taken there: the metric's jet is read and
    inverted once, and the derivatives of P are formed on first use."""

    def __init__(self, M: MetricField, x: PhasePoint, state=None):
        """``state`` is (P, dW/dx, dW/dt) at x, as :meth:`at_points` forms it."""
        _check_point(M.chart, x)
        self.M = M
        self.x = x
        if state is None:
            W, dW_dx, dW_dt = M.jet(x.coords, x.time)
            state = (-invert_metric(W), dW_dx, dW_dt)
        self.P, self._dW_dx, self._dW_dt = state

    @classmethod
    def at_points(cls, M: MetricField, points) -> list["BracketFrame"]:
        """The frames at ``points``, from one ``jet_batch`` of M and one
        stacked inversion; each has the bits of the frame built alone."""
        X = np.array([x.coords for x in points]).reshape(len(points), M.chart.dim)
        W, D, Wt = M.jet_batch(X, np.array([x.time for x in points]))
        return [cls(M, x, state) for x, *state in zip(points, -invert_metrics(W), D, Wt)]

    @cached_property
    def d_dx(self) -> np.ndarray:
        """d_k of P = -W^{-1}: d_k P = W^{-1} (d_k W) W^{-1} = P (d_k W) P."""
        return self.P @ self._dW_dx @ self.P

    @cached_property
    def d_dt(self) -> np.ndarray:
        return self.P @ self._dW_dt @ self.P

    def bracket(self, A: Observable, B: Observable) -> float:
        """{A, B} at the frame's point."""
        chart = self.M.chart
        return float(A.gradient(chart, self.x) @ self.P @ B.gradient(chart, self.x))

    def jacobi_residual(self, A: Observable, B: Observable, C: Observable) -> float:
        """{A,{B,C}} + {B,{C,A}} + {C,{A,B}} at the frame's point.

        Inner-bracket gradients use the exact derivative of the raised
        tensor, from the metric representation's spatial derivative.
        """
        chart = self.M.chart
        P, dP = self.P, self.d_dx
        obs = (A, B, C)
        grads = [o.gradient(chart, self.x) for o in obs]
        hessians = [o.hessian(chart, self.x) for o in obs]

        def nested(i, j, k):
            # {obs_i, {obs_j, obs_k}}
            gj, gk = grads[j], grads[k]
            hj, hk = hessians[j], hessians[k]
            # d_m {obs_j, obs_k}
            inner_grad = (
                np.einsum("mkl,k,l->m", dP, gj, gk)
                + np.einsum("kl,mk,l->m", P, hj, gk)
                + np.einsum("kl,k,ml->m", P, gj, hk)
            )
            return float(grads[i] @ P @ inner_grad)

        return nested(0, 1, 2) + nested(1, 2, 0) + nested(2, 0, 1)

    def leibniz_defect(
        self,
        A: Observable,
        B: Observable,
        V: VectorFieldSpec,
        delta: float = 1e-4,
        opts: IntegratorOptions | None = None,
    ) -> LeibnizDefect:
        """:func:`leibniz_defect` at the frame's point."""
        return leibniz_defects([self], A, B, V, delta, opts)[0]


def leibniz_defects(frames: list[BracketFrame], A: Observable, B: Observable, V: VectorFieldSpec,
                    delta: float = 1e-4, opts: IntegratorOptions | None = None) -> list[LeibnizDefect]:
    """:func:`leibniz_defect` at each of ``frames``, frames of one metric.
    The +delta and -delta flows of all frames are the lanes of one
    :func:`flow_lanes`, and one :meth:`BracketFrame.at_points` gives their
    end-point frames; the first failing frame raises."""
    formulas = []
    for f in frames:
        chart, x, P = f.M.chart, f.x, f.P
        Xv = V.eval(x.coords, x.time)
        J = V.jacobian(x.coords, x.time)  # J[k, m] = d X^k / d x^m
        D = f.d_dt + np.einsum("m,mkl->kl", Xv, f.d_dx) - J @ P - P @ J.T
        formulas.append(float(A.gradient(chart, x) @ D @ B.gradient(chart, x)))

    Adot = observable_time_derivative(A, V)
    Bdot = observable_time_derivative(B, V)
    starts = [f.x for f in frames for _ in (0, 1)]
    ends, _, _ = flow_lanes(V, starts, [f.x.time + dt for f in frames for dt in (delta, -delta)], opts)
    c = [e.bracket(A, B) for e in BracketFrame.at_points(frames[0].M, ends)] if frames else []
    return [
        LeibnizDefect(formula, float((c_p - c_m) / (2.0 * delta) - f.bracket(Adot, B) - f.bracket(A, Bdot)))
        for f, formula, c_p, c_m in zip(frames, formulas, c[::2], c[1::2])
    ]


def poisson_bracket(A, B, M: MetricField, x: PhasePoint) -> float:
    """{A, B} at ``x`` with the metric raised through its inverse."""
    A, B = (_as_observable(o, M.chart) for o in (A, B))
    return BracketFrame(M, x).bracket(A, B)


def bracket_jacobi_residual(A, B, C, M: MetricField, x: PhasePoint) -> float:
    """{A,{B,C}} + {B,{C,A}} + {C,{A,B}} at ``x`` (:meth:`BracketFrame.jacobi_residual`)."""
    A, B, C = (_as_observable(o, M.chart) for o in (A, B, C))
    return BracketFrame(M, x).jacobi_residual(A, B, C)


def observable_time_derivative(A, V: VectorFieldSpec) -> Observable:
    """dA/dt along the flow: explicit time dependence plus X^k d_k A.

    Formed once per (observable, field) and kept on the observable.
    """
    A = _as_observable(A, V.chart)
    cached = A._memo.get(("time-derivative", id(V)))
    if cached is not None and cached[0] is V:
        return cached[1]
    dt, *grad = gradient(A.expr, (TIME_NAME,) + V.chart.names)
    Adot = Observable(simplify(sum((c * g for c, g in zip(V.components, grad)), dt)))
    A._memo[("time-derivative", id(V))] = (V, Adot)
    return Adot


def leibniz_defect(
    A,
    B,
    V: VectorFieldSpec,
    M: MetricField,
    x: PhasePoint,
    delta: float = 1e-4,
    opts: IntegratorOptions | None = None,
) -> LeibnizDefect:
    """Defect of term-by-term time differentiation of {A, B} at ``x``.

    ``formula`` contracts d_t P + L_X P (P the raised tensor) with the
    observable gradients; ``numerical`` measures d/dt{A,B} - {dA,B} -
    {A,dB} along the trajectory through ``x`` by central differences.  The
    two agree for closed-form metrics and both vanish when the metric is an
    integral of motion.
    """
    A, B = (_as_observable(o, M.chart) for o in (A, B))
    return BracketFrame(M, x).leibniz_defect(A, B, V, delta, opts)
