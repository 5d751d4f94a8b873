"""Skew-symmetric phase-space metric fields and their structural tests.

A metric field assigns a skew-symmetric 2n x 2n matrix to every phase-space
point and time.  Four representations are supported: constant matrices,
matrices of symbolic expressions, the analytic linear-friction form (see
:mod:`metricflow.friction`) and flow-transported fields (see
:mod:`metricflow.evolution`).  Each computes the jet (W, dW/dx, dW/dt) in
one place (:class:`MetricField`).  This module holds that protocol, the
first two representations and the structural tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .exprlang import (
    CoordinateChart,
    as_expr,
    compile_vector,
    evaluate_compiled,
    gradient,
    TIME_NAME,
)

SKEW_TOL = 1e-12
# bound on degeneracy_ratios, which does not depend on the scale of the metric
DEGENERACY_TOL = 1e-12
_ZERO = bytes(8)
_FLOAT_MAX = np.finfo(float).max


class MetricError(Exception):
    """Structural failure of a metric field (shape, skewness, ...)."""


class SingularMetricError(MetricError):
    """Metric is numerically degenerate where an inverse was required."""


class DegenerateMetricWarning(UserWarning):
    """Determinant magnitude fell below the degeneracy threshold."""


@dataclass(frozen=True)
class PhasePoint:
    """A position in 2n-dimensional phase space with a time stamp."""

    coords: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        arr = np.array(self.coords, dtype=float).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def _check_point(chart: CoordinateChart, point: PhasePoint):
    if point.dim != chart.dim:
        raise ValueError(f"point has {point.dim} coordinates, chart needs {chart.dim}")


def not_skew(W: np.ndarray):
    """max|W + W^T| > SKEW_TOL max|W| over the last two axes; NaN passes, an infinite sum fails."""
    scale = np.minimum(np.abs(W).max(axis=(-2, -1)), _FLOAT_MAX)
    return np.abs(W + np.swapaxes(W, -2, -1)).max(axis=(-2, -1)) > SKEW_TOL * scale


def zeros_view(*shape: int) -> np.ndarray:
    """A read-only array of zeros whose entries all share one 8-byte zero:
    the derivatives of a field that does not vary, at any number of points."""
    return np.ndarray(shape, float, _ZERO, 0, (0,) * len(shape))


class MetricField:
    """Interface for skew matrix-valued fields omega_kl(x, t).

    A representation computes the jet (W, dW/dx, dW/dt) of the field, the
    value with its derivatives in space and time, which the invariance test
    d_t w + L_X w = 0 reads together.  It implements exactly one of
    ``jet`` (one point) and ``jet_batch`` (a stack of points); each defaults
    to the other.  ``value``, ``d_dx`` and ``d_dt`` read the jet.
    """

    chart: CoordinateChart

    def jet(self, coords: Sequence[float], time: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W, D, dW/dt) at one point, with D[k, l, m] = d omega_lm / d x_k.
        The arrays may be read-only."""
        W, D, Wt = self.jet_batch(np.asarray(coords, dtype=float)[None], np.array([float(time)]))
        return W[0], D[0], Wt[0]

    def jet_batch(self, X: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The jets at the B points (X[b], T[b]), stacked along a leading
        axis: shapes (B, d, d), (B, d, d, d) and (B, d, d).  The arrays may
        be read-only broadcasts."""
        jets = [self.jet(x, t) for x, t in zip(X, T)]
        return tuple(np.array(part) for part in zip(*jets))

    def value(self, coords: Sequence[float], time: float) -> np.ndarray:
        return self.jet(coords, time)[0]

    def d_dx(self, coords: Sequence[float], time: float) -> np.ndarray:
        """Array D with D[k, l, m] = d omega_lm / d x_k."""
        return self.jet(coords, time)[1]

    def d_dt(self, coords: Sequence[float], time: float) -> np.ndarray:
        return self.jet(coords, time)[2]


class ConstantMetric(MetricField):
    """Representation (a): a fixed skew matrix, independent of x and t."""

    def __init__(self, chart: CoordinateChart, matrix):
        self.chart = chart
        W = np.array(matrix, dtype=float)
        if W.shape != (chart.dim, chart.dim):
            raise MetricError(f"expected {chart.dim}x{chart.dim} matrix, got {W.shape}")
        if not_skew(W):
            raise MetricError("constant metric is not skew-symmetric")
        W.setflags(write=False)
        self.matrix = W

    def jet_batch(self, X, T):
        B, d = len(X), self.chart.dim
        return np.broadcast_to(self.matrix, (B, d, d)), zeros_view(B, d, d, d), zeros_view(B, d, d)


def canonical_metric(chart: CoordinateChart) -> ConstantMetric:
    """The constant block metric [[0, I], [-I, 0]] in (q, p) ordering."""
    n = chart.n
    I = np.eye(n)
    Z = np.zeros((n, n))
    return ConstantMetric(chart, np.block([[Z, I], [-I, Z]]))


class ExprMetric(MetricField):
    """Representation (b): a matrix of expressions in (x, t).

    The entries and their derivatives in every coordinate and in t are
    compiled into one vector of (d + 2) d^2 entries, evaluated together, so
    the value fails with the DomainError naming the node wherever a
    derivative entry does: sqrt(q1) at q1 = 0, say.
    """

    def __init__(self, chart: CoordinateChart, entries):
        self.chart = chart
        d = chart.dim
        if len(entries) != d or any(len(row) != d for row in entries):
            raise MetricError(f"expected {d}x{d} entries")
        self.entries = [[as_expr(v, chart) for v in row] for row in entries]

    @cached_property
    def _jet_fn(self):
        W = [e for row in self.entries for e in row]
        grads = [gradient(e, self.chart.names + (TIME_NAME,)) for e in W]
        flat = W + [g[k] for k in range(self.chart.dim + 1) for g in grads]
        return flat, compile_vector(flat, self.chart)

    def jet(self, coords, time):
        d = self.chart.dim
        v = evaluate_compiled(self._jet_fn, self.chart, coords, time).reshape(d + 2, d, d)
        if not_skew(v[0]):
            raise MetricError("metric entries are not skew-symmetric at the evaluated point")
        return v[0], v[1 : d + 1], v[d + 1]


class MetricDeterminant(NamedTuple):
    g: float
    sqrt_g: float
    degenerate: bool


def _checked_skew(W: np.ndarray) -> np.ndarray:
    if not_skew(W):
        raise MetricError("metric evaluation lost skew-symmetry")
    return W


def metric_eval(M: MetricField, x: PhasePoint) -> np.ndarray:
    """Evaluate the metric at ``x``; the result is skew-symmetric."""
    _check_point(M.chart, x)
    return _checked_skew(M.value(x.coords, x.time))


def jacobi_residuals(D: np.ndarray) -> np.ndarray:
    """Per point, max over index triples of |d_k w_lm + d_l w_mk + d_m w_kl|,
    from the stacked spatial derivatives D of shape (B, d, d, d).  The
    cyclic sum is assembled in one buffer."""
    R = np.add(D, np.transpose(D, (0, 2, 3, 1)))
    R += np.transpose(D, (0, 3, 1, 2))
    np.abs(R, out=R)
    return R.max(axis=(1, 2, 3))


def jacobi_residual(M: MetricField, x: PhasePoint) -> float:
    """Max over index triples of |d_k w_lm + d_l w_mk + d_m w_kl| at ``x``."""
    _check_point(M.chart, x)
    return float(jacobi_residuals(M.d_dx(x.coords, x.time)[None])[0])


def degeneracy_ratios(W: np.ndarray) -> np.ndarray:
    """|det W| relative to Hadamard's bound, the product of the column norms,
    for each matrix of the stack W (B, d, d).

    The ratio lies in [0, 1]: 1 when the columns are orthogonal, 0 when W
    is singular.  Scaling W, or any of its columns, leaves it unchanged, so
    one threshold (DEGENERACY_TOL) serves every scale and dimension.
    """
    norms = np.linalg.norm(W, axis=1)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(np.linalg.det(W / norms))
    return np.where(np.all(norms > 0.0, axis=(1, 2)), ratios, 0.0)


def metric_determinant(M: MetricField, x: PhasePoint) -> MetricDeterminant:
    """Determinant g and density sqrt(|g|) at ``x`` (:func:`value_determinant`)."""
    return value_determinant(metric_eval(M, x))


def value_determinant(W: np.ndarray) -> MetricDeterminant:
    """Determinant g and density sqrt(|g|) of a metric value W, flagging near-degeneracy."""
    g = float(np.linalg.det(W))
    degenerate = bool(degeneracy_ratios(W[None])[0] < DEGENERACY_TOL)
    if degenerate:
        warnings.warn(
            f"metric determinant {g:.3e} is degenerate relative to the metric's scale",
            DegenerateMetricWarning,
        )
    return MetricDeterminant(g, float(np.sqrt(abs(g))), degenerate)


def inverse_metric(M: MetricField, x: PhasePoint) -> np.ndarray:
    """Matrix inverse of the metric at ``x`` (:func:`invert_metrics`)."""
    _check_point(M.chart, x)
    return invert_metrics(M.value(x.coords, x.time)[None])[0]


def invert_metrics(W: np.ndarray) -> np.ndarray:
    """The matrix inverse of each metric value of the stack W (B, d, d),
    skew-symmetric; the first matrix that is not skew-symmetric or is
    singular raises."""
    for k in np.flatnonzero(not_skew(W) | (degeneracy_ratios(W) < DEGENERACY_TOL))[:1]:
        _checked_skew(W[k])
        g = float(np.linalg.det(W[k]))
        raise SingularMetricError(f"metric is singular at the query point (det={g:.3e})")
    inv = np.linalg.inv(W)
    I = np.eye(W.shape[-1])
    # up to two Newton refinement steps where conditioning ate into the residual
    for _ in range(2):
        rough = ~(np.max(np.abs(W @ inv - I), axis=(1, 2)) <= 1e-10)
        if not rough.any():
            break
        inv[rough] = inv[rough] @ (2.0 * I - W[rough] @ inv[rough])
    return 0.5 * (inv - np.swapaxes(inv, 1, 2))
