"""Closed-form invariant metrics for linear-friction systems.

For dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i - K_ij p_j with H = T(p) + U(q),
the block metric [[0, G(t)], [-G(t)^T, 0]] with G solving dG/dt = G K is an
integral of motion, G(t0) = identity.  K is held as one n x n matrix of
numbers and, on the diagonal only, expressions in t; ``read_friction`` reads
every friction input.  For constant K this is a plain matrix exponential;
for a diagonal time-dependent K the diagonal entries are exp of the
integrated coefficients.

The closed form silently assumes that unequal damping rates never couple
through the potential (or kinetic) Hessian; ``applicability_check`` guards
that gap and predicts the residual term when it is violated.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import VectorFieldSpec, expm, finite_number
from .exprlang import (
    CoordinateChart,
    Expr,
    TIME_NAME,
    as_expr,
    evaluate,
    free_vars,
    is_zero,
    probe_points,
    simplify,
    to_string,
)
from .phasespace import MetricField, zeros_view


class FrictionError(Exception):
    """Unsupported friction configuration."""


def _finite(value, key: str) -> float:
    """``value`` as a float, if it is a finite number and not a boolean."""
    if not finite_number(value):
        raise FrictionError(f"'{key}' must be a finite number")
    return float(value)


def read_friction(friction):
    """The friction input checked, numbers as floats: None, a number, rows of one length of
    numbers (K), or numbers and expression strings (the diagonal of K).  A number must be
    finite and not a boolean; the error names its key, such as ``'friction[0][1]'``."""
    if friction is None:
        return None
    if isinstance(friction, np.ndarray):
        friction = friction.tolist()
    if not isinstance(friction, (list, tuple)):
        return _finite(friction, "friction")
    if len({len(row) if isinstance(row, (list, tuple)) else None for row in friction}) > 1:
        raise FrictionError("'friction' must be rows of one length, or numbers and expression strings")
    return [
        [_finite(v, f"friction[{i}][{j}]") for j, v in enumerate(row)] if isinstance(row, (list, tuple))
        else row if isinstance(row, (str, Expr))
        else _finite(row, f"friction[{i}]")
        for i, row in enumerate(friction)
    ]


class ApplicabilityError(FrictionError):
    """Closed form requested for a system outside its proven scope."""


class ApplicabilityWarning(UserWarning):
    """Closed form constructed despite a failed applicability check."""


@dataclass(frozen=True)
class ApplicabilityResult:
    ok: bool
    detail: str | None = None
    pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class FrictionSystem:
    """H = T(p) + U(q) with a linear friction term -K p.

    ``friction`` is K, one n x n matrix: floats, or where K varies an
    object array whose diagonal holds floats and expressions in ``t``.  A
    time-dependent non-diagonal K(t) would need a time-ordered product where
    the closed form writes a plain exponential, so it has no input form.
    """

    chart: CoordinateChart
    hamiltonian: Expr
    friction: np.ndarray

    def __post_init__(self):
        n = self.chart.n
        if TIME_NAME in free_vars(self.hamiltonian):
            raise FrictionError("hamiltonian must be time independent")
        if self.friction.shape != (n, n):
            raise FrictionError(f"friction needs {n} diagonal entries or {n}x{n} matrix entries")
        extra = set().union(*(free_vars(e) for e in self.rates if isinstance(e, Expr))) - {TIME_NAME}
        if extra:
            raise FrictionError(f"diagonal friction entries may depend on t only, found {sorted(extra)}")
        J = self.vector_field.jacobian_exprs  # J[i][j] = d^2 H / dp_i dq_j, which K does not enter
        for j, qname in enumerate(self.chart.position_names):
            for i, pname in enumerate(self.chart.momentum_names):
                if not is_zero(J[i][j]):
                    raise FrictionError(
                        f"hamiltonian couples {qname} and {pname}: "
                        "expected the additive form T(p) + U(q)"
                    )

    @classmethod
    def build(cls, chart: CoordinateChart, hamiltonian, friction) -> "FrictionSystem":
        """The system of ``hamiltonian`` and the friction input that :func:`read_friction` reads."""
        H = as_expr(hamiltonian, chart)
        n = chart.n
        friction = read_friction(friction)
        if friction is None or isinstance(friction, float):
            return cls(chart, H, np.zeros((n, n)) if friction is None else friction * np.eye(n))
        if friction and isinstance(friction[0], list):
            return cls(chart, H, np.array(friction, dtype=float))
        rates = [as_expr(r, chart) if isinstance(r, str) else r for r in friction]
        rates = [  # an expression without free names is read as its value
            _finite(evaluate(r, {}), f"friction[{i}]") if isinstance(r, Expr) and not free_vars(r) else r
            for i, r in enumerate(rates)
        ]
        return cls(chart, H, np.diag(rates))  # an object array if an expression is left

    @cached_property
    def rates(self) -> list:
        """The diagonal of K: floats, and expressions in t where K varies."""
        return self.friction.diagonal().tolist()

    @property
    def time_dependent(self) -> bool:
        return self.friction.dtype == object

    @property
    def k_matrix(self) -> np.ndarray | None:
        """K where it is constant, otherwise None."""
        return None if self.time_dependent else self.friction

    def friction_at(self, time: float) -> np.ndarray:
        if self.k_matrix is not None:
            return self.k_matrix
        return np.diag([_rate_at(r, time) for r in self.rates])

    @cached_property
    def vector_field(self) -> VectorFieldSpec:
        """The phase-space field; where K varies it reads t."""
        return VectorFieldSpec.from_hamiltonian(self.chart, self.hamiltonian, self.friction)

    def friction_integral(self, t0: float, t: float) -> np.ndarray:
        """Matrix of integrated friction coefficients over [t0, t]."""
        if self.k_matrix is not None:
            return (t - t0) * self.k_matrix
        out = np.zeros((self.chart.n, self.chart.n))
        for j, e in enumerate(self.rates):
            if not isinstance(e, Expr):
                out[j, j] = (t - t0) * e
                continue
            val, err = _quadrature(lambda tau: evaluate(e, {TIME_NAME: tau}), t0, t)
            if not err <= 1e-9 * max(1.0, abs(val)):
                raise FrictionError(
                    f"quadrature of friction entry {j + 1} did not converge (err={err:.2e})"
                )
            out[j, j] = val
        return out

    def growth_matrix(self, t0: float, t: float) -> np.ndarray:
        """G(t) with dG/dt = G K and G(t0) = identity: the exponential of
        the friction integral, which commutes with K at every time (K is
        constant or diagonal)."""
        return expm(self.friction_integral(t0, t))

    def growth_matrices(self, t0: float, times) -> np.ndarray:
        """G at each of the ``times``, stacked to (len(times), n, n).

        A constant diagonal K gives the diagonal exp((t - t0) k) for all
        times at once, which is what ``expm`` returns for a diagonal
        argument, bit for bit; any other K takes one growth_matrix per
        distinct time.
        """
        times = np.asarray(times, dtype=float)
        K = self.k_matrix
        if K is None or np.any(K != np.diag(np.diag(K))):
            distinct, where = np.unique(times, return_inverse=True)
            return np.array([self.growth_matrix(t0, float(t)) for t in distinct])[where]
        n = len(K)
        G = np.zeros((len(times), n, n))
        G[:, np.arange(n), np.arange(n)] = np.exp((times - t0)[:, None] * np.diag(K))
        return G


class FrictionAnalyticMetric(MetricField):
    """Representation (c): the invariant block metric [[0, G], [-G^T, 0]]."""

    def __init__(self, system: FrictionSystem, t0: float = 0.0):
        self.chart = system.chart
        self.system = system
        self.t0 = float(t0)

    @staticmethod
    def _blocks(G: np.ndarray) -> np.ndarray:
        """[[0, G], [-G^T, 0]] for each matrix of a stack G (..., n, n)."""
        n = G.shape[-1]
        W = np.zeros(G.shape[:-2] + (2 * n, 2 * n))
        W[..., :n, n:] = G
        W[..., n:, :n] = -np.swapaxes(G, -1, -2)
        return W

    def jet_batch(self, X, T):
        """G (:meth:`FrictionSystem.growth_matrices`) and K at each point's
        time; the metric does not depend on the coordinates."""
        T = np.asarray(T, dtype=float)
        G = self.system.growth_matrices(self.t0, T)
        K = self.system.k_matrix
        if K is None:
            K = np.array([self.system.friction_at(float(t)) for t in T])
        d = self.chart.dim
        return self._blocks(G), zeros_view(len(T), d, d, d), self._blocks(G @ K)


def applicability_check(sys: FrictionSystem) -> ApplicabilityResult:
    """Guard for the closed form's unstated separability assumption.

    Passes when all damping rates coincide (scalar K), or when every pair
    of degrees of freedom with distinct rates is uncoupled in both the
    potential and the kinetic Hessians.  A non-diagonal K has no proven
    pair criterion and is reported conservatively.
    """
    n = sys.chart.n
    K = sys.k_matrix
    if K is not None:
        off = np.abs(K - np.diag(np.diag(K)))
        if off.max() > 0.0:
            i, j = np.unravel_index(np.argmax(off), off.shape)
            return ApplicabilityResult(
                False,
                detail=(
                    f"friction matrix couples degrees of freedom ({i + 1},{j + 1}); "
                    "the closed form is only proven for diagonal damping - verify "
                    "with the invariance residual"
                ),
                pair=(int(i) + 1, int(j) + 1),
            )
    rates = sys.rates
    unequal = [(i, j) for i in range(n) for j in range(i + 1, n) if not _rates_equal(rates[i], rates[j])]
    if not unequal:
        return ApplicabilityResult(True)
    # rows i and n + i of the field's Jacobian are d/dx of dH/dp_i and of
    # -dH/dq_i - (K p)_i; the q columns of row n + i do not read K
    J = sys.vector_field.jacobian_exprs
    for i, j in unequal:
        u_mixed, t_mixed = simplify(-J[n + i][j]), J[i][n + j]
        if not is_zero(u_mixed) or not is_zero(t_mixed):
            coupling = u_mixed if not is_zero(u_mixed) else t_mixed
            return ApplicabilityResult(
                False,
                detail=(
                    f"degrees of freedom ({i + 1},{j + 1}) have unequal damping but are "
                    f"coupled through '{to_string(coupling)}'; the metric picks up a "
                    f"residual proportional to (exp of rate {i + 1} integral - exp of "
                    f"rate {j + 1} integral) times that mixed derivative"
                ),
                pair=(i + 1, j + 1),
            )
    return ApplicabilityResult(True)


def _quadrature(f, a: float, b: float) -> tuple[float, float]:
    """The integral of f from a to b and its error estimate, by adaptive
    Gauss-Legendre quadrature: an interval's estimate is the difference of
    its 10- and 20-node rules, and the worst interval is bisected until the
    estimates sum to 1e-12 * max(1, |integral|) or there are 100 intervals."""
    from numpy.polynomial.legendre import leggauss  # only time-dependent friction needs it

    rules = [(x.tolist(), w.tolist()) for x, w in (leggauss(10), leggauss(20))]

    def interval(lo, hi):  # (-error, lo, hi, value): a heap pops the largest error first
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coarse, fine = (half * sum(w * f(mid + half * x) for x, w in zip(*rule)) for rule in rules)
        return -abs(fine - coarse), lo, hi, fine

    parts = [interval(a, b)]
    while True:
        value, err = sum(p[3] for p in parts), sum(-p[0] for p in parts)
        if err <= 1e-12 * max(1.0, abs(value)) or len(parts) >= 100:
            return value, err
        _, lo, hi, _ = heapq.heappop(parts)
        heapq.heappush(parts, interval(lo, 0.5 * (lo + hi)))
        heapq.heappush(parts, interval(0.5 * (lo + hi), hi))


def _rate_at(rate, time: float) -> float:
    """A diagonal entry of K at ``time``: a float, or an expression in t."""
    return evaluate(rate, {TIME_NAME: time}) if isinstance(rate, Expr) else rate


def _rates_equal(a, b) -> bool:
    """Two numeric rates compare exactly; where one is an expression in t,
    they are equal if they agree to 1e-12 at 16 probe times in [0, 3]."""
    if a == b or not (isinstance(a, Expr) or isinstance(b, Expr)):
        return a == b
    return not any(abs(_rate_at(a, t) - _rate_at(b, t)) > 1e-12 for t in probe_points(16, [0.0], [3.0])[:, 0].tolist())


def analytic_metric(
    sys: FrictionSystem, t0: float = 0.0, *, allow_inapplicable: bool = False
) -> FrictionAnalyticMetric:
    """The invariant block metric anchored at G(t0) = identity.

    Refuses systems that fail the applicability check unless the caller
    acknowledges with ``allow_inapplicable=True`` (a warning is emitted and
    the returned metric will show a nonzero invariance residual).
    """
    result = applicability_check(sys)
    if not result.ok:
        if not allow_inapplicable:
            raise ApplicabilityError(result.detail)
        warnings.warn(result.detail, ApplicabilityWarning)
    return FrictionAnalyticMetric(sys, t0)


def determinant_factor(sys: FrictionSystem, t0: float, t: float) -> float:
    """The volume density sqrt(g)(t) = exp integral of trace K.

    Cross-checked against the determinant of the assembled metric and, for
    constant K, against the compressibility of the actual vector field.
    """
    trace_integral = float(np.trace(sys.friction_integral(t0, t)))
    value = float(np.exp(trace_integral))
    metric = FrictionAnalyticMetric(sys, t0)
    W = metric.value(np.zeros(sys.chart.dim), t)
    sqrt_g = float(np.sqrt(abs(np.linalg.det(W))))
    if abs(sqrt_g - value) > 1e-10 * max(1.0, abs(value)):
        raise FrictionError(
            f"determinant factor {value} disagrees with the metric determinant {sqrt_g}"
        )
    if sys.k_matrix is not None:
        kappa = sys.vector_field.divergence(np.zeros(sys.chart.dim))
        via_kappa = float(np.exp(-kappa * (t - t0)))
        if abs(via_kappa - value) > 1e-8 * max(1.0, abs(value)):
            raise FrictionError(
                f"determinant factor {value} disagrees with exp(-kappa dt) = {via_kappa}"
            )
    return value
