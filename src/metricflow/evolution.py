"""Metric evolution: keep the 2-form an integral of motion.

Three routes evolve an initial metric so that its total time derivative
along the flow vanishes.  Each is evaluated as a metric field
(:class:`SeriesMetric`, :class:`SplitMetric`, :class:`TransportedMetric`).
Where a route works numerically it transports the metric by one primitive,
the congruence W = M^T w0 M by a tangent map M (:func:`congruence`):

* an exponential series exp(tJ) built from repeated applications of the
  generating operator J, at a point on truncated Taylor series of the
  field (:class:`SeriesPropagator`); for a linear field dx/dt = A x it is
  the congruence by expm(-tA) (Kronecker-sum identity),
* Strang splitting of that exponential over the Hamiltonian/friction parts
  X = X1 + X2.  exp(hJ_X) is the pullback along the sub-flow of X (Lie
  series), so each step follows the backward sub-flows of X2 for dt/2, X1
  for dt and X2 for dt/2,
* pullback along the backward flow of the whole field, one sub-flow
  (invariant by construction; this route is the reference oracle).

Split and pullback are one walk over backward sub-flows
(:func:`_transport_jet`): M is the product of their tangent maps, exact
matrix exponentials for affine autonomous fields, DOPRI5 otherwise.  The walk also
gives the exact derivatives of W in space and time (:func:`congruence_jet`),
carrying those of each tangent map, from the second-order variational
equation (Hairer, Norsett & Wanner, *Solving ODEs I*, I.14), by the chain rule.

The invariance residual dw_kl/dt - d_k(w_lm X^m) + d_l(w_km X^m) measures
how far a given field is from being conserved.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import TRANSPORT_OPTIONS, IntegratorOptions, VectorFieldSpec, expm, flow_jet
from .exprlang import Monomials, taylor_expand
from .helmholtz import helmholtz_residuals
from .phasespace import ConstantMetric, MetricField, PhasePoint, _check_point

MAX_SERIES_COEFFS = 250_000
SERIES_STOP_NORM = 1e-14
DEFAULT_SERIES_ORDER = 20


class EvolutionError(Exception):
    """Metric evolution failed."""


class ExpressionSizeError(EvolutionError):
    """The series coefficients outgrew MAX_SERIES_COEFFS."""


class SeriesDivergenceWarning(UserWarning):
    """Truncated series shows no sign of converging at the final order."""


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


class _SeriesBasis(Monomials):
    """Monomials that stop growing at ``cap``, the first degree at which a
    d x d array of series, one operator power, would hold more than
    MAX_SERIES_COEFFS coefficients."""

    def __init__(self, d: int):
        super().__init__(d)
        self.cap = next(k for k in itertools.count() if d**2 * math.comb(k + d, d) > MAX_SERIES_COEFFS)

    def grow(self, degree: int) -> None:
        if degree >= max(len(self.sizes), self.cap):
            size = self.d**2 * math.comb(degree + self.d, self.d)
            raise ExpressionSizeError(
                f"series terms of degree {degree} need {size} coefficients (cap {MAX_SERIES_COEFFS})"
            )
        super().grow(degree)


class SeriesPropagator:
    """Exponential-series propagator for one (field, initial metric) pair.

    Linear fields take the exact congruence by expm(-tA).  Otherwise the
    powers P_j = J^j W0 come from truncated Taylor series at the point: the
    field is expanded there to degree order + 1, at most cap + 1 (:func:`taylor_expand`),
    and each application of J, (J W)_kl = d_k(w_lm X^m) - d_l(w_km X^m),
    multiplies and differentiates coefficient arrays and so drops one
    degree.  P_j and its coordinate gradient are the degree-0 and degree-1
    coefficients of power j.  They are kept for the most recent point and
    order only, and the higher coefficients for the latest power only.
    """

    def __init__(self, V: VectorFieldSpec, W0):
        if not V.autonomous:
            raise EvolutionError("series propagation needs an autonomous vector field; this one reads t")
        self.V = V
        self.W0 = ConstantMetric(V.chart, W0).matrix
        self.basis = _SeriesBasis(V.chart.dim)
        self._point: tuple[bytes, int] | None = None
        self._X: np.ndarray | None = None
        self._W: np.ndarray | None = None
        self._terms: list[tuple[np.ndarray, np.ndarray]] = []

    def _at_point(self, coords, j: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Power j at the point: (P, dP) with dP[k, l, m] = d_k P[l, m]."""
        # the field is autonomous and W0 constant, so the powers do not involve t
        key = (np.asarray(coords, dtype=float).tobytes(), order)
        if key != self._point:
            # an expansion whose terms reach the cap raises; the Taylor coefficients
            # of exp, sin, cos, tanh, log and u^b are never zero twice in a row
            # before they end, so one at degree cap + 1 does too
            degree = min(order + 1, self.basis.cap + 1)
            self._X = taylor_expand(self.V.components, self.V.chart, coords, 0.0, degree, self.basis)
            self._W = self.W0[:, :, None]
            self._terms = []
            self._point = key
        basis, d = self.basis, self.W0.shape[0]
        while len(self._terms) <= j:
            if self._terms:
                # power n is needed to degree order + 1 - n, so w_lm X^m to one more
                with np.errstate(all="ignore"):
                    Q = basis.mul(self._W, self._X, order + 2 - len(self._terms)).sum(axis=1)
                    G = basis.gradient(Q)
                    self._W = basis.trim(G - G.swapaxes(0, 1))
            S = self._W
            dP = np.moveaxis(S[:, :, 1 : d + 1], 2, 0).copy() if S.shape[-1] > 1 else np.zeros((d, d, d))
            self._terms.append((S[:, :, 0].copy(), dP))
        return self._terms[j]

    def _sum(self, coords, t: float, order: int, first=0, part=0, relative=False):
        """sum_i t^i/i! times part (0: P, 1: dP) of power first + i, up to
        the first term whose norm is below SERIES_STOP_NORM (times the
        running sum's, if relative).  Returns (sum, terms, norm of the last
        term)."""
        total = self._at_point(coords, first, order)[part].copy()
        coeff, i, last_norm = 1.0, 0, 0.0
        for i in range(1, order + 1 - first):
            coeff *= t / i
            term = coeff * self._at_point(coords, first + i, order)[part]
            total = total + term
            last_norm = float(np.max(np.abs(term)))
            if last_norm < SERIES_STOP_NORM * (max(1.0, float(np.max(np.abs(total)))) if relative else 1.0):
                break
        return total, i, last_norm

    def propagate(
        self,
        t: float,
        coords=None,
        order: int = DEFAULT_SERIES_ORDER,
        mode: str = "auto",
    ) -> tuple[np.ndarray, SeriesInfo]:
        if order < 1:
            raise ValueError("order must be >= 1")
        if mode not in ("auto", "linear", "generic"):
            raise ValueError(f"mode must be auto|linear|generic, got '{mode}'")
        A = self.V.constant_jacobian if mode in ("auto", "linear") else None
        if mode == "linear" and A is None:
            raise EvolutionError("vector field is not linear; cannot force the linear path")
        if A is not None:
            W = congruence(expm(-t * A), self.W0)
            return W, SeriesInfo("linear-exact", 0, 0.0, False)
        if coords is None:
            raise ValueError("the generic series path needs an evaluation point")
        total, terms, last_norm = self._sum(coords, t, order, relative=True)
        diverging = last_norm > max(1.0, float(np.max(np.abs(total))))
        if diverging:
            warnings.warn(
                f"series term {terms} has norm {last_norm:.3e}, exceeding the running sum; "
                "the truncated series is not converging",
                SeriesDivergenceWarning,
            )
        return total, SeriesInfo("series", terms, last_norm, diverging)


def congruence_jet(W0: np.ndarray, dW0: np.ndarray, J: np.ndarray,
                   dM: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`congruence` with its derivatives along the columns of ``J``.

    ``W0`` = w(x0) is the metric at the preimage x0 and dW0[a] = d_a w(x0).
    Column k of ``J`` is the derivative of x0 along direction k: the d
    coordinates, whose columns make up the tangent map M = dx0/dx, then
    time.  dM[k] is the derivative of M along direction k.  The derivative
    of W along it is the skew part of dM[k]^T W0 M + M^T W0 dM[k] +
    M^T (sum_a dW0[a] J[a, k]) M.  Returns (W, dW/dx, dW/dt).
    """
    d = W0.shape[0]
    M = J[:, :d]
    S = 0.5 * (W0 - W0.T)
    A = dM.transpose(0, 2, 1) @ (S @ M)
    D = A - A.transpose(0, 2, 1)
    if dW0.any():
        C = M.T @ np.tensordot(J, dW0, axes=(0, 0)) @ M
        D += 0.5 * (C - C.transpose(0, 2, 1))
    return congruence(M, W0), D[:d], D[d]


def _backward_subflow(X: VectorFieldSpec, h: float, rate: float, opts: IntegratorOptions):
    """The flow Phi of the field X from time h back to time 0, in
    homogeneous coordinates, as y -> (E, G, D^2 Phi(y), start).

    E = [[D Phi(y), Phi(y) - D Phi(y) y], [0, 1]] maps [M | y] to the end
    point and the tangent map there.  G = rate [[DX, X - DX y], [0, 0]] at
    the end point, or where X reads t at the start (y, h) (``start``), maps
    them to their change with t when the sub-flow lasts h = rate * t.  For
    affine autonomous X, E and G are the same at every y, E is the exact
    exponential of the augmented generator and the second derivative is
    None; otherwise DOPRI5 integrates the flow at ``opts``.
    """
    d, start = X.chart.dim, not X.autonomous
    A = X.constant_jacobian
    if A is None or start:

        def step(y):
            end, D, D2 = flow_jet(X, y, -h, opts, h)
            at = y if start else end
            Xe, DX = (v[0] for v in X.eval_jacobian(at[None], h))
            E = np.block([[D, (end - D @ y)[:, None]], [np.zeros(d), 1.0]])
            G = np.block([[DX, (Xe - DX @ at)[:, None]], [np.zeros(d), 0.0]])
            return E, rate * G, D2, start

        return step
    # affine X(y) = A y + b: exponentiate the augmented generator [[A, b], [0, 0]]
    G = np.block([[A, X.eval(np.zeros(d))[:, None]], [np.zeros(d), 0.0]])
    E = expm(-h * G)
    return lambda y: (E, rate * G, None, False)


def _transport_jet(sub_flows, M0: MetricField, coords) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The metric ``M0`` at time 0 carried to ``coords`` backward through
    ``sub_flows`` (:func:`_backward_subflow`), with its exact derivatives.

    The walk carries the point y, its tangent map M, the derivatives d_k M,
    dM/dt and dy/dt by the chain rule.  In homogeneous coordinates all of
    them move under a sub-flow's E; its second derivative adds D^2 Phi [v, M]
    to the derivative of M along each direction v, and its duration adds
    -G [M | y] to (dM/dt, dy/dt), after E, or before E for G at the start
    point, where E and D^2 Phi carry it.  The walk ends at the preimage y,
    where M0's jet is read.  Returns (W, dW/dx, dW/dt).
    """
    d = M0.chart.dim
    K = d + 1
    # columns [M | y | d_1 M | ... | d_d M | dM/dt | dy/dt]; the last row is
    # 1 under y and 0 elsewhere
    Q = np.zeros((K, K + K * d + 1))
    Q[:, :K] = np.eye(K)
    Q[:d, d] = coords
    for sub_flow in sub_flows:
        E, G, D2, start = sub_flow(Q[:d, d])
        if start:
            Q[:, -K:] -= G @ Q[:, :K]
        Q_next = E @ Q
        if D2 is not None:
            directions = np.column_stack((Q[:d, :d], Q[:d, -1]))  # e_k through M, then t
            Q_next[:d, K:-1] += ((D2 @ directions).transpose(0, 2, 1) @ Q[:d, :d]).reshape(d, -1)
        if not start:
            Q_next[:, -K:] -= G @ Q_next[:, :K]
        Q = Q_next
    J = np.column_stack((Q[:d, :d], Q[:d, -1]))
    W0, dW0, _ = M0.jet(Q[:d, d], 0.0)
    return congruence_jet(W0, dW0, J, Q[:d, K:-1].reshape(d, K, d).transpose(1, 0, 2))


def split_jet(V: VectorFieldSpec, M0: MetricField, steps: int, coords,
              time: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split-propagated metric at (coords, time) with its exact
    derivatives: the transport walk (:func:`_transport_jet`) over the 3N
    Strang sub-flows, X2 for dt/2, X1 for dt and X2 for dt/2 per step."""
    dt = time / steps
    X1, X2 = V.parts
    half = _backward_subflow(X2, 0.5 * dt, 0.5 / steps, TRANSPORT_OPTIONS)
    strang = (half, _backward_subflow(X1, dt, 1.0 / steps, TRANSPORT_OPTIONS), half)
    return _transport_jet(strang * steps, M0, coords)


def pullback_jet(V: VectorFieldSpec, M0: MetricField, coords, time: float,
                 opts: IntegratorOptions | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The time-0 metric pulled back to (coords, time), with its exact
    derivatives: the transport walk (:func:`_transport_jet`) over one
    backward sub-flow of the whole field, integrated at ``opts`` or
    TRANSPORT_OPTIONS unless the field is affine and autonomous."""
    return _transport_jet([_backward_subflow(V, time, 1.0, opts or TRANSPORT_OPTIONS)], M0, coords)


class TransportedMetric(MetricField):
    """Representation (d): an initial metric transported along a flow.

    Each jet pulls the time-0 metric back along the trajectory through the
    queried point (:func:`pullback_jet`): one matrix exponential for an
    affine autonomous field, otherwise one backward integration at ``opts``.
    """

    def __init__(self, initial: MetricField, field: VectorFieldSpec, opts: IntegratorOptions | None = None):
        self.chart = initial.chart
        self.initial = initial
        self.field = field
        self.opts = opts

    def jet(self, coords, time):
        return pullback_jet(self.field, self.initial, np.asarray(coords, dtype=float), float(time), self.opts)


def pullback_metric(V: VectorFieldSpec, M0: MetricField, x: PhasePoint, t: float | None = None,
                    opts: IntegratorOptions | None = None) -> np.ndarray:
    """Transport the time-0 metric to ``x`` at time ``t`` along the flow:
    M^T w(x0, 0) M for the backward-flow preimage x0 and its Jacobian M
    (:func:`pullback_jet`), conserved by construction.
    """
    _check_point(V.chart, x)
    return pullback_jet(V, M0, x.coords, x.time if t is None else float(t), opts)[0]


def transported_d_dx(V: VectorFieldSpec, M0: MetricField, coords, time: float, opts=None) -> np.ndarray:
    """Exact spatial derivatives of the transported metric (:func:`pullback_jet`)."""
    return pullback_jet(V, M0, coords, time, opts)[1]


def transported_d_dt(V: VectorFieldSpec, M0: MetricField, coords, time: float, opts=None) -> np.ndarray:
    """Exact time derivative of the transported metric (:func:`pullback_jet`)."""
    return pullback_jet(V, M0, coords, time, opts)[2]


def invariance_residuals(
    V: VectorFieldSpec, X: np.ndarray, T: np.ndarray, W: np.ndarray, D: np.ndarray, Wt: np.ndarray
) -> np.ndarray:
    """Invariance residuals (B, d, d) at the B points (X[b], T[b]), from the
    metric's values, spatial and time derivatives there
    (:meth:`MetricField.jet_batch`)."""
    return Wt - helmholtz_residuals(V, X, T, W, D)


def invariance_residual(V: VectorFieldSpec, M: MetricField, x: PhasePoint) -> np.ndarray:
    """Residual of the conservation law for the metric field at ``x``.

    Entries dw_kl/dt - d_k(w_lm X^m) + d_l(w_km X^m); the metric is an
    integral of motion at ``x`` exactly when this vanishes.
    """
    _check_point(V.chart, x)
    W, D, Wt = M.jet(x.coords, x.time)
    return invariance_residuals(V, x.coords[None], [x.time], W[None], D[None], Wt[None])[0]


# ---------------------------------------------------------------------------
# The series and split routes as metric fields, the one way to evaluate them.


class SeriesMetric(MetricField):
    """The series-propagated metric as a field with exact derivatives.

    The jet sums the same per-point powers of the propagator, whose values
    P_j and coordinate gradients dP_j are the degree-0 and degree-1 Taylor
    coefficients of J^j W0 there, so dW/dt and dW/dx differentiate the
    truncated series termwise.  The sums keep their truncation rules: the
    relative stop of ``propagate`` for the value, an absolute
    SERIES_STOP_NORM stop on the last term for the derivatives.  A field
    with no Taylor expansion at the point (sqrt(u) at u = 0) fails the jet
    with the DomainError naming the node.
    """

    def __init__(self, V: VectorFieldSpec, W0, order: int = DEFAULT_SERIES_ORDER, mode: str = "auto"):
        self.chart = V.chart
        self.V = V
        self.order = order
        self.mode = mode
        self.prop = SeriesPropagator(V, W0)

    def jet(self, coords, time):
        W, info = self.prop.propagate(time, coords, order=self.order, mode=self.mode)
        if info.path == "linear-exact":
            # dW/dt = J W(t), one exact operator application
            A = self.V.constant_jacobian
            d = self.chart.dim
            return W, np.zeros((d, d, d)), -(A.T @ W + W @ A)
        # the termwise derivatives; dW/dt is the index-shifted sum
        dx = self.prop._sum(coords, time, self.order, part=1)[0]
        return W, dx, self.prop._sum(coords, time, self.order, first=1)[0]


class SplitMetric(MetricField):
    """The metric transported by the Strang-split backward flow, as a field
    with exact derivatives: value and derivatives come from one split walk
    per point (:func:`split_jet`).
    """

    def __init__(self, V: VectorFieldSpec, W0, steps: int):
        if V.parts is None or not V.autonomous:
            raise EvolutionError("split propagation requires an autonomous field with declared split parts")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self.chart = V.chart
        self.V = V
        self.initial = ConstantMetric(V.chart, W0)
        self.steps = steps

    def jet(self, coords, time):
        return split_jet(self.V, self.initial, self.steps, np.asarray(coords, dtype=float), float(time))
