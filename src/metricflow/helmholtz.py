"""Hamiltonian vs non-Hamiltonian classification.

A system is Hamiltonian with respect to a metric exactly when the 1-form
obtained by contracting the metric with the vector field is closed; the
residual matrix J_kl = d_k(w_lm X^m) - d_l(w_km X^m) measures the failure.
In canonical coordinates with the canonical metric this reduces to the
three classical Helmholtz condition blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import VectorFieldSpec
from .exprlang import CoordinateChart
from .phasespace import (
    DEGENERACY_TOL,
    ConstantMetric,
    DegenerateMetricWarning,
    MetricField,
    PhasePoint,
    _check_point,
    canonical_metric,
    degeneracy_ratios,
)


@dataclass(frozen=True)
class HelmholtzReport:
    """Sampled closedness residuals and the resulting verdict."""

    verdict: str  # "hamiltonian" | "non-hamiltonian"
    max_abs: float
    tol: float
    coords: np.ndarray  # (B, d), the sample points
    times: np.ndarray  # (B,)
    residuals: np.ndarray  # (B, d, d)
    per_point_max: tuple[float, ...]
    canonical_blocks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def helmholtz_residuals(
    V: VectorFieldSpec, X: np.ndarray, T: np.ndarray, W: np.ndarray, D: np.ndarray
) -> np.ndarray:
    """Residual matrices J (B, d, d) at the B points (X[b], T[b]).

    W (B, d, d) and D (B, d, d, d) are the metric's values and spatial
    derivatives there (:meth:`MetricField.jet_batch`).  The field and its
    Jacobian are evaluated at all points at once, and the assembly is
    stacked.
    """
    Xv, A = V.eval_jacobian(X, T)  # A[b, m, k] = d X^m / d x^k
    # E[k, l] = d_k w_lm X^m, F[k, l] = w_lm d_k X^m
    G = np.einsum("bklm,bm->bkl", D, Xv)
    G += np.swapaxes(W @ A, 1, 2)
    return G - np.swapaxes(G, 1, 2)


def helmholtz_residual(V: VectorFieldSpec, M: MetricField, x: PhasePoint) -> np.ndarray:
    """Residual matrix J_kl = d_k(w_lm X^m) - d_l(w_km X^m) at ``x``.

    All derivatives are exact (symbolic for the field, closed-form for the
    metric representation); the assembly is numeric.
    """
    _check_point(V.chart, x)
    W, D, _ = M.jet(x.coords, x.time)
    return helmholtz_residuals(V, x.coords[None], [x.time], W[None], D[None])[0]


def _canonical_blocks(A: np.ndarray, n: int):
    """R1, R2, R3 from the Jacobian A[m, k] = d X^m / d x^k of (G, F)."""
    qq, qp, pq, pp = A[:n, :n], A[:n, n:], A[n:, :n], A[n:, n:]
    return qp - qp.T, qq.T + pp, pq - pq.T


def canonical_helmholtz(G, F, chart: CoordinateChart, x: PhasePoint):
    """The three canonical condition blocks for dq/dt = G, dp/dt = F.

    R1_ij = dG^i/dp^j - dG^j/dp^i, R2_ij = dG^j/dq^i + dF^i/dp^j,
    R3_ij = dF^i/dq^j - dF^j/dq^i, evaluated at ``x``: slices of the
    Jacobian of the field (G, F).
    """
    _check_point(chart, x)
    n = chart.n
    if len(G) != n or len(F) != n:
        raise ValueError(f"expected {n} components in each of G and F")
    V = VectorFieldSpec.from_components(chart, list(G) + list(F))
    return _canonical_blocks(V.jacobian(x.coords, x.time), n)


def sample_points(
    chart: CoordinateChart,
    count: int = 50,
    seed: int = 0,
    box: float = 1.0,
    time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The origin plus ``count`` uniform draws from [-box, box]^{2n}, as
    coordinates (count + 1, 2n) and times (count + 1,).  One draw of
    count x 2n numbers takes the stream of ``count`` draws of one point."""
    X = np.zeros((count + 1, chart.dim))
    X[1:] = np.random.default_rng(seed).uniform(-box, box, (count, chart.dim))
    return X, np.full(count + 1, float(time))


def _is_canonical(M: MetricField) -> bool:
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
        X, T = sample_points(V.chart, count=count, seed=seed, box=box, time=time)
    elif not points:
        raise ValueError("at least one sample point is required")
    else:
        for x in points:
            _check_point(V.chart, x)
        X, T = np.array([x.coords for x in points]), np.array([x.time for x in points])
    W, D, _ = M.jet_batch(X, T)
    for b in np.flatnonzero(degeneracy_ratios(W) < DEGENERACY_TOL):
        warnings.warn(f"metric is degenerate at sampled point {X[b]}", DegenerateMetricWarning)
    residuals = helmholtz_residuals(V, X, T, W, D)
    per_point = tuple(np.abs(residuals).max(axis=(1, 2)).tolist())
    max_abs = max(per_point)
    verdict = "hamiltonian" if max_abs < tol else "non-hamiltonian"
    blocks = None
    if _is_canonical(M):
        worst = per_point.index(max_abs)
        blocks = _canonical_blocks(V.jacobian(X[worst], T[worst]), V.chart.n)
    return HelmholtzReport(
        verdict=verdict,
        max_abs=max_abs,
        tol=tol,
        coords=X,
        times=T,
        residuals=residuals,
        per_point_max=per_point,
        canonical_blocks=blocks,
    )
