"""Hamiltonian vs non-Hamiltonian classification.

A system is Hamiltonian with respect to a metric exactly when the 1-form
obtained by contracting the metric with the vector field is closed; the
residual matrix J_kl = d_k(w_lm X^m) - d_l(w_km X^m) measures the failure.
In canonical coordinates with the canonical metric this reduces to the
three classical Helmholtz condition blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import VectorFieldSpec
from .exprlang import CoordinateChart, Expr, as_expr, differentiate, evaluate
from .phasespace import (
    DEGENERACY_TOL,
    MetricField,
    PhasePoint,
    _check_point,
    canonical_metric,
    degeneracy_ratio,
)


@dataclass(frozen=True)
class HelmholtzReport:
    """Sampled closedness residuals and the resulting verdict."""

    verdict: str  # "hamiltonian" | "non-hamiltonian"
    max_abs: float
    tol: float
    points: tuple[PhasePoint, ...]
    residuals: tuple[np.ndarray, ...]
    per_point_max: tuple[float, ...]
    canonical_blocks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def helmholtz_residual(V: VectorFieldSpec, M: MetricField, x: PhasePoint) -> np.ndarray:
    """Residual matrix J_kl = d_k(w_lm X^m) - d_l(w_km X^m) at ``x``.

    All derivatives are exact (symbolic for the field, closed-form for the
    metric representation); the assembly is numeric.
    """
    _check_point(V.chart, x)
    W = M.value(x.coords, x.time)
    D = M.d_dx(x.coords, x.time)
    Xv = V.eval(x.coords, x.time)
    A = V.jacobian(x.coords, x.time)  # A[m, k] = d X^m / d x^k
    # E[k, l] = d_k w_lm X^m, F[k, l] = w_lm d_k X^m
    E = np.einsum("klm,m->kl", D, Xv)
    F = (W @ A).T
    G = E + F
    return G - G.T


def canonical_helmholtz(G, F, chart: CoordinateChart, x: PhasePoint):
    """The three canonical condition blocks for dq/dt = G, dp/dt = F.

    R1_ij = dG^i/dp^j - dG^j/dp^i, R2_ij = dG^j/dq^i + dF^i/dp^j,
    R3_ij = dF^i/dq^j - dF^j/dq^i, evaluated at ``x``.
    """
    _check_point(chart, x)
    n = chart.n
    Gx = [as_expr(g, chart) for g in G]
    Fx = [as_expr(f, chart) for f in F]
    if len(Gx) != n or len(Fx) != n:
        raise ValueError(f"expected {n} components in each of G and F")
    env = chart.env(x.coords, x.time)
    qn, pn = chart.position_names, chart.momentum_names

    def d(e: Expr, name: str) -> float:
        return evaluate(differentiate(e, name), env)

    R1 = np.array([[d(Gx[i], pn[j]) - d(Gx[j], pn[i]) for j in range(n)] for i in range(n)])
    R2 = np.array([[d(Gx[j], qn[i]) + d(Fx[i], pn[j]) for j in range(n)] for i in range(n)])
    R3 = np.array([[d(Fx[i], qn[j]) - d(Fx[j], qn[i]) for j in range(n)] for i in range(n)])
    return R1, R2, R3


def sample_points(
    chart: CoordinateChart,
    count: int = 50,
    seed: int = 0,
    box: float = 1.0,
    time: float = 0.0,
) -> tuple[PhasePoint, ...]:
    """The origin plus ``count`` uniform draws from [-box, box]^{2n}."""
    rng = np.random.default_rng(seed)
    pts = [PhasePoint(np.zeros(chart.dim), time)]
    pts += [
        PhasePoint(rng.uniform(-box, box, chart.dim), time) for _ in range(count)
    ]
    return tuple(pts)


def _is_canonical(M: MetricField) -> bool:
    from .phasespace import ConstantMetric

    if not isinstance(M, ConstantMetric):
        return False
    return np.array_equal(M.matrix, canonical_metric(M.chart).matrix)


def classify(
    V: VectorFieldSpec,
    M: MetricField,
    points: tuple[PhasePoint, ...] | None = None,
    tol: float = 1e-8,
    count: int = 50,
    seed: int = 0,
    box: float = 1.0,
    time: float = 0.0,
) -> HelmholtzReport:
    """Aggregate residuals over sample points and render the verdict."""
    if points is None:
        points = sample_points(V.chart, count=count, seed=seed, box=box, time=time)
    if not points:
        raise ValueError("at least one sample point is required")
    for x in points:
        W = M.value(x.coords, x.time)
        if degeneracy_ratio(W) < DEGENERACY_TOL:
            import warnings

            from .phasespace import DegenerateMetricWarning

            warnings.warn(
                f"metric is degenerate at sampled point {x.coords}", DegenerateMetricWarning
            )
    residuals = tuple(helmholtz_residual(V, M, x) for x in points)
    per_point = tuple(float(np.max(np.abs(r))) for r in residuals)
    max_abs = max(per_point)
    verdict = "hamiltonian" if max_abs < tol else "non-hamiltonian"
    blocks = None
    if _is_canonical(M):
        worst = points[per_point.index(max_abs)]
        n = V.chart.n
        G = V.components[:n]
        F = V.components[n:]
        blocks = canonical_helmholtz(G, F, V.chart, worst)
    return HelmholtzReport(
        verdict=verdict,
        max_abs=max_abs,
        tol=tol,
        points=tuple(points),
        residuals=residuals,
        per_point_max=per_point,
        canonical_blocks=blocks,
    )
