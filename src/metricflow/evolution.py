"""Metric evolution: keep the 2-form an integral of motion.

Three routes evolve an initial metric so that its total time derivative
along the flow vanishes.  Each is evaluated as a metric field
(:class:`SeriesMetric`, :class:`SplitMetric`, :class:`TransportedMetric`).
Where a route works numerically it transports the metric by one primitive,
the congruence W = M^T w0 M by a tangent map M (:func:`congruence`):

* an exponential series exp(tJ) W0 of the generating operator J, the Taylor
  series in t of the pullback, from the backward flow's state at a point in
  truncated series in t (:class:`SeriesPropagator`); for an affine field the
  series sums to the pullback itself, which the transport walk gives exactly,
* Strang splitting of that exponential over the Hamiltonian/friction parts
  X = X1 + X2.  exp(hJ_X) is the pullback along the sub-flow of X (Lie
  series), so each step follows the backward sub-flows of X2 for dt/2, X1
  for dt and X2 for dt/2,
* pullback along the backward flow of the whole field, one sub-flow
  (invariant by construction; this route is the reference oracle).

Split and pullback are one walk over backward sub-flows
(:func:`_transport_jet`): M is the product of their tangent maps, exact
matrix exponentials for affine autonomous fields, DOPRI5 otherwise, where
each nonlinear Strang sub-flow after its field's first starts from the step
the controller held at the end of the one before.  The walk also gives the
exact derivatives of W in space and time (:func:`congruence_jet`), carrying
those of each tangent map, from the second-order variational equation
(Hairer, Norsett & Wanner, *Solving ODEs I*, I.14), by the chain rule.

The invariance residual dw_kl/dt - d_k(w_lm X^m) + d_l(w_km X^m) measures
how far a given field is from being conserved.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import TRANSPORT_OPTIONS, IntegratorOptions, VectorFieldSpec, expm, flow_jet
from .exprlang import taylor_series
from .helmholtz import helmholtz_residuals
from .phasespace import ConstantMetric, MetricField, PhasePoint, _check_point

MAX_SERIES_PRODUCTS = 4_000_000
SERIES_STOP_NORM = 1e-14
DEFAULT_SERIES_ORDER = 20


class EvolutionError(Exception):
    """Metric evolution failed."""


class ExpressionSizeError(EvolutionError):
    """A series would sum more than MAX_SERIES_PRODUCTS products of coefficients."""


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


def _taylor_transport(V: VectorFieldSpec, W0: np.ndarray, coords):
    """The Taylor coefficients in t, at t = 0, of the pullback W = M^T W0 M
    and of its gradient, (w_n, dw_n) with dw_n[k, l, m] = d_k w_n[l, m], for
    n = 0, 1, ...: the recursive Taylor method on the backward flow from
    ``coords``, y' = -X(y) and G' = -(DX(y) G + [0 | D^2X(y)[M e_k, M]]) for
    the columns G = [M | d_1 M | ... | d_d M].  Coefficient n of the state
    follows from coefficient n - 1 of X, DX and D^2X along y, which
    :func:`taylor_series` walks from y's coefficients up to n - 1.  As W0 is
    skew, d_k W = R_k - R_k^T with R_k = d_k M^T W0 M.
    """
    d, names = len(W0), V.chart.names
    y = {name: [float(x)] for name, x in zip(names, coords)}
    walk = taylor_series([*V.components, *(e for row in V.jacobian_exprs for e in row), *V.hessian_exprs], y)
    # the coefficients of DX(y) (A), D^2X(y) (T), D^2X(y)[., M] (Z), G
    # (G[i, j, 0] = M_ij, G[i, j, k + 1] = d_k M_ij) and N = W0 M
    A, T, Z, G, N = [], [], [], [np.eye(d)[:, :, None] * np.eye(1, d + 1)], [W0]
    for n in itertools.count(1):
        R = np.einsum("aijk,aim->kjm", np.array(G), np.array(N[::-1]))  # R[0] = M^T W0 M
        yield 0.5 * (R[0] - R[0].T), R[1:] - R[1:].transpose(0, 2, 1)
        flat = np.array(next(walk))
        for name, x in zip(names, flat[:d] / -n):
            y[name].append(float(x))
        A.append(flat[d : d + d * d].reshape(d, d))
        T.append(flat[d + d * d :].reshape(d, d, d))
        past = np.array(G[::-1])  # G_{n-1}, ..., G_0
        Z.append(np.einsum("piab,pbj->iaj", np.array(T), past[..., 0]))
        S = np.einsum("pim,pmjk->ijk", np.array(A), past)
        S[..., 1:] += np.einsum("qaj,qiak->ijk", past[::-1, ..., 0], np.array(Z[::-1]))
        G.append(S / -n)
        N.append(W0 @ G[-1][..., 0])


class SeriesPropagator:
    """Exponential-series propagator for one (field, initial metric) pair.

    The series sum_j t^j/j! P_j, P_j = J^j W0, is the Taylor series of the
    pullback (Grobner's Lie series).  On an affine field, in mode auto or
    linear, it sums to the pullback, read off the exact transport walk
    (:func:`pullback_jet`).  Otherwise P_j = j! w_j and its gradient j! dw_j
    for the coefficients of :func:`_taylor_transport`, grown on demand and
    kept for the most recent point.
    """

    def __init__(self, V: VectorFieldSpec, W0):
        if not V.autonomous:
            raise EvolutionError("series propagation needs an autonomous vector field; this one reads t")
        self.V = V
        self.initial = ConstantMetric(V.chart, W0)
        self._point: bytes | None = None

    def _exact_jet(self, t: float, coords, order: int, mode: str):
        """The pullback walk's jet at (coords, t) on an affine field in mode auto or linear, else None."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if mode not in ("auto", "linear", "generic"):
            raise ValueError(f"mode must be auto|linear|generic, got '{mode}'")
        affine = mode != "generic" and self.V.constant_jacobian is not None
        if mode == "linear" and not affine:
            raise EvolutionError("vector field is not linear; cannot force the linear path")
        return pullback_jet(self.V, self.initial, coords, t) if affine else None

    def _coefficients(self, coords, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient j in t of W and of its gradient at the point: (w_j, dw_j)."""
        # the field is autonomous and W0 constant, so the coefficients do not involve t
        key = np.asarray(coords, dtype=float).tobytes()
        if key != self._point or self._walk.gi_frame is None:  # a walk that raised has stopped
            self._point, self._walk, self._terms = key, _taylor_transport(self.V, self.initial.matrix, coords), []
        with np.errstate(all="ignore"):
            while len(self._terms) <= j:
                self._terms.append(next(self._walk))
        return self._terms[j]

    def _sum(self, coords, t: float, order: int, first=0, part=0, relative=False):
        """sum_i t^i/i! times part (0: P, 1: dP) of power first + i, first 0 or
        1, up to the first term whose norm is below SERIES_STOP_NORM (times the
        running sum's, if relative).  Returns (sum, terms, last term's norm)."""
        total = self._coefficients(coords, first)[part].copy()
        scale, i, last_norm = 1.0, 0, 0.0
        for i in range(1, order + 1 - first):
            # t^i/i! P_{first+i} = t^i (first+i)!/i! w_{first+i}
            scale *= t
            term = (i + 1) ** first * scale * self._coefficients(coords, first + i)[part]
            total = total + term
            last_norm = float(np.max(np.abs(term)))
            if last_norm < SERIES_STOP_NORM * (max(1.0, float(np.max(np.abs(total)))) if relative else 1.0):
                break
        return total, i, last_norm

    def propagate(self, t: float, coords=None, order: int = DEFAULT_SERIES_ORDER,
                  mode: str = "auto") -> tuple[np.ndarray, SeriesInfo]:
        # on an affine field W does not depend on the point, so no coords read it at the origin
        if jet := self._exact_jet(t, np.zeros(self.V.chart.dim) if coords is None else coords, order, mode):
            return jet[0], SeriesInfo("linear-exact", 0, 0.0, False)
        if coords is None:
            raise ValueError("the generic series path needs an evaluation point")
        size = (order + 1) ** 2 * self.V.chart.dim ** 3
        if size > MAX_SERIES_PRODUCTS:
            raise ExpressionSizeError(
                f"a series of order {order} in {self.V.chart.dim} coordinates sums (order + 1)^2 d^3 = {size} "
                f"products of d_k M coefficients (cap {MAX_SERIES_PRODUCTS})"
            )
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
    None; otherwise DOPRI5 integrates the flow at ``opts``, each run from the
    step the previous run of this sub-flow ended with.
    """
    d, start = X.chart.dim, not X.autonomous
    A = X.constant_jacobian
    if A is None or start:
        carried, E, G = [None], np.eye(d + 1), np.zeros((d + 1, d + 1))  # the step, and E and G filled per run

        def step(y):
            end, D, D2 = flow_jet(X, y, -h, opts, h, carried)
            at = y if start else end
            Xe, DX = (v[0] for v in X.eval_jacobian(at[None], h))
            E[:d, :d], E[:d, d], G[:d, :d], G[:d, d] = D, end - D @ y, DX, Xe - DX @ at
            return E, rate * G, D2, start

        return step
    # affine X(y) = A y + b: exponentiate the augmented generator [[A, b], [0, 0]]
    G = np.block([[A, X.eval(np.zeros(d))[:, None]], [np.zeros(d), 0.0]])
    E, G = expm(-h * G), rate * G
    return lambda y: (E, G, None, False)


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
    return _transport_jet(itertools.chain.from_iterable(itertools.repeat(strang, steps)), M0, coords)


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

    An affine field's jet is one pullback walk's (:func:`pullback_jet`).
    Otherwise the jet sums the propagator's coefficients at the point, those
    in t of the pullback and of its gradient, so dW/dt and dW/dx
    differentiate the truncated series termwise.  The sums keep their
    truncation rules: the relative stop of ``propagate`` for the value, an
    absolute SERIES_STOP_NORM stop on the last term for the derivatives.  A
    field with no Taylor expansion at the point (sqrt(u) at u = 0) fails the
    jet with the DomainError naming a node.
    """

    def __init__(self, V: VectorFieldSpec, W0, order: int = DEFAULT_SERIES_ORDER, mode: str = "auto"):
        self.chart = V.chart
        self.order = order
        self.mode = mode
        self.prop = SeriesPropagator(V, W0)

    def jet(self, coords, time):
        if jet := self.prop._exact_jet(time, coords, self.order, self.mode):
            return jet
        W, _ = self.prop.propagate(time, coords, order=self.order, mode=self.mode)
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
