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

from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorOptions, VectorFieldSpec, integrate_flow
from .exprlang import (
    CoordinateChart,
    Expr,
    TIME_NAME,
    as_expr,
    differentiate,
    evaluate,
    simplify,
)
from .phasespace import MetricField, PhasePoint, _check_point, inverse_metric


@dataclass(frozen=True)
class Observable:
    """A scalar phase-space function, optionally time dependent."""

    expr: Expr

    @classmethod
    def parse(cls, text: str, chart: CoordinateChart) -> "Observable":
        return cls(as_expr(text, chart))


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


def _tensor_d_dx(M: MetricField, x: PhasePoint, P: np.ndarray) -> np.ndarray:
    """d_k of the raised tensor P = -W^{-1}: d_k P = W^{-1} (d_k W) W^{-1} = P (d_k W) P."""
    D = M.d_dx(x.coords, x.time)
    return np.array([P @ D[k] @ P for k in range(P.shape[0])])


def _tensor_d_dt(M: MetricField, x: PhasePoint, P: np.ndarray) -> np.ndarray:
    return P @ M.d_dt(x.coords, x.time) @ P


def _grad(e: Expr, chart: CoordinateChart, env) -> np.ndarray:
    return np.array([evaluate(differentiate(e, name), env) for name in chart.names])


def _hessian(e: Expr, chart: CoordinateChart, env) -> np.ndarray:
    d = chart.dim
    firsts = [differentiate(e, name) for name in chart.names]
    return np.array(
        [[evaluate(differentiate(firsts[k], chart.names[l]), env) for l in range(d)] for k in range(d)]
    )


def poisson_bracket(A, B, M: MetricField, x: PhasePoint) -> float:
    """{A, B} at ``x`` with the metric raised through its inverse."""
    A = _as_observable(A, M.chart)
    B = _as_observable(B, M.chart)
    _check_point(M.chart, x)
    env = M.chart.env(x.coords, x.time)
    P = bracket_tensor(M, x)
    return float(_grad(A.expr, M.chart, env) @ P @ _grad(B.expr, M.chart, env))


def bracket_jacobi_residual(A, B, C, M: MetricField, x: PhasePoint) -> float:
    """{A,{B,C}} + {B,{C,A}} + {C,{A,B}} at ``x``.

    Inner-bracket gradients use the exact derivative of the raised tensor,
    from the metric representation's spatial derivative.
    """
    chart = M.chart
    _check_point(chart, x)
    env = chart.env(x.coords, x.time)
    P = bracket_tensor(M, x)
    dP = _tensor_d_dx(M, x, P)
    obs = [_as_observable(o, chart) for o in (A, B, C)]
    grads = [_grad(o.expr, chart, env) for o in obs]
    hessians = [_hessian(o.expr, chart, env) for o in obs]

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


def observable_time_derivative(A, V: VectorFieldSpec) -> Observable:
    """dA/dt along the flow: explicit time dependence plus X^k d_k A."""
    A = _as_observable(A, V.chart)
    acc: Expr = differentiate(A.expr, TIME_NAME)
    for k, name in enumerate(V.chart.names):
        acc = acc + V.components[k] * differentiate(A.expr, name)
    return Observable(simplify(acc))


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
    chart = M.chart
    _check_point(chart, x)
    A = _as_observable(A, chart)
    B = _as_observable(B, chart)
    env = chart.env(x.coords, x.time)

    P = bracket_tensor(M, x)
    dPdt = _tensor_d_dt(M, x, P)
    dPdx = _tensor_d_dx(M, x, P)
    Xv = V.eval(x.coords, x.time)
    J = V.jacobian(x.coords, x.time)  # J[k, m] = d X^k / d x^m
    D = dPdt + np.einsum("m,mkl->kl", Xv, dPdx) - J @ P - P @ J.T
    gA = _grad(A.expr, chart, env)
    gB = _grad(B.expr, chart, env)
    formula = float(gA @ D @ gB)

    Adot = observable_time_derivative(A, V)
    Bdot = observable_time_derivative(B, V)
    seg_p = integrate_flow(V, x, x.time + delta, opts)
    seg_m = integrate_flow(V, x, x.time - delta, opts)
    c_p = poisson_bracket(A, B, M, seg_p.end)
    c_m = poisson_bracket(A, B, M, seg_m.end)
    numerical = (
        (c_p - c_m) / (2.0 * delta)
        - poisson_bracket(Adot, B, M, x)
        - poisson_bracket(A, Bdot, M, x)
    )
    return LeibnizDefect(formula=formula, numerical=float(numerical))
