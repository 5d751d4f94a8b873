"""Closed-form invariant metrics for linear-friction systems.

For dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i - K_ij p_j with H = T(p) + U(q),
the block metric [[0, G(t)], [-G(t)^T, 0]] with G solving dG/dt = G K is an
integral of motion, G(t0) = identity.  For constant K this is a plain
matrix exponential; for a diagonal time-dependent K the diagonal entries
are exp of the integrated coefficients.

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

from .dynamics import VectorFieldSpec, expm
from .exprlang import (
    CoordinateChart,
    Expr,
    TIME_NAME,
    as_expr,
    differentiate,
    evaluate,
    free_vars,
    gradient,
    is_zero,
    probe_points,
    to_string,
)
from .phasespace import MetricField, zeros_view


class FrictionError(Exception):
    """Unsupported friction configuration."""


def check_friction_rows(friction: list) -> None:
    """Raise a FrictionError unless ``friction`` is rows of one length, or numbers and expression strings."""
    if len({len(row) if isinstance(row, (list, tuple)) else None for row in friction}) > 1:
        raise FrictionError("'friction' must be rows of one length, or numbers and expression strings")


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

    ``friction`` may be a constant n x n matrix or a sequence of n
    expressions in ``t`` (a diagonal time-dependent matrix).  Any other
    shape is rejected; a general time-dependent non-diagonal K(t) would
    need a time-ordered product where the closed form writes a plain
    exponential, so it is refused rather than silently substituted.
    """

    chart: CoordinateChart
    hamiltonian: Expr
    k_matrix: np.ndarray | None
    k_diagonal: tuple[Expr, ...] | None

    def __post_init__(self):
        n = self.chart.n
        H = self.hamiltonian
        for qname, dq in zip(self.chart.position_names, gradient(H, self.chart.position_names)):
            for pname, mixed in zip(self.chart.momentum_names, gradient(dq, self.chart.momentum_names)):
                if not is_zero(mixed):
                    raise FrictionError(
                        f"hamiltonian couples {qname} and {pname}: "
                        "expected the additive form T(p) + U(q)"
                    )
        if TIME_NAME in free_vars(H):
            raise FrictionError("hamiltonian must be time independent")
        if (self.k_matrix is None) == (self.k_diagonal is None):
            raise FrictionError("exactly one friction representation is required")
        if self.k_matrix is not None:
            if self.k_matrix.shape != (n, n):
                raise FrictionError(f"friction matrix must be {n}x{n}")
        else:
            if len(self.k_diagonal) != n:
                raise FrictionError(f"expected {n} diagonal friction entries")
            for e in self.k_diagonal:
                extra = free_vars(e) - {TIME_NAME}
                if extra:
                    raise FrictionError(
                        f"diagonal friction entries may depend on t only, found {sorted(extra)}"
                    )

    @classmethod
    def build(cls, chart: CoordinateChart, hamiltonian, friction) -> "FrictionSystem":
        H = as_expr(hamiltonian, chart)
        n = chart.n
        if friction is None:
            return cls(chart, H, np.zeros((n, n)), None)
        if np.isscalar(friction) and not isinstance(friction, str):
            return cls(chart, H, float(friction) * np.eye(n), None)
        friction = list(friction) if not isinstance(friction, np.ndarray) else friction
        check_friction_rows(friction)
        if isinstance(friction, np.ndarray) or (friction and not any(isinstance(e, (str, Expr)) for e in friction)):
            arr = np.array(friction, dtype=float)
            if arr.ndim == 1:
                arr = np.diag(arr)
            return cls(chart, H, arr, None)
        system = cls(chart, H, None, tuple(as_expr(e, chart) for e in friction))
        if system.time_dependent:  # the checked entries depend on t alone
            return system
        return cls(chart, H, np.diag([evaluate(e, {}) for e in system.k_diagonal]), None)

    @property
    def time_dependent(self) -> bool:
        return self.k_diagonal is not None and any(
            TIME_NAME in free_vars(e) for e in self.k_diagonal
        )

    def friction_at(self, time: float) -> np.ndarray:
        if self.k_matrix is not None:
            return self.k_matrix
        return np.diag([evaluate(e, {TIME_NAME: time}) for e in self.k_diagonal])

    @cached_property
    def vector_field(self) -> VectorFieldSpec:
        """The phase-space field; requires a constant friction matrix."""
        if self.k_matrix is None:
            raise FrictionError(
                "time-dependent friction has no autonomous vector field; "
                "only the analytic metric path supports it"
            )
        return VectorFieldSpec.from_hamiltonian(self.chart, self.hamiltonian, self.k_matrix)

    def friction_integral(self, t0: float, t: float) -> np.ndarray:
        """Matrix of integrated friction coefficients over [t0, t]."""
        if self.k_matrix is not None:
            return (t - t0) * self.k_matrix
        out = np.zeros((self.chart.n, self.chart.n))
        for j, e in enumerate(self.k_diagonal):
            if TIME_NAME not in free_vars(e):
                out[j, j] = (t - t0) * evaluate(e, {})
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

    @cached_property
    def _diagonal_rates(self) -> np.ndarray | None:
        """The diagonal of a constant diagonal K, otherwise None."""
        K = self.k_matrix
        if K is None or np.any(K != np.diag(np.diag(K))):
            return None
        return np.diag(K).copy()

    def growth_matrices(self, t0: float, times) -> np.ndarray:
        """G at each of the ``times``, stacked to (len(times), n, n).

        A constant diagonal K gives the diagonal exp((t - t0) k) for all
        times at once, which is what ``expm`` returns for a diagonal
        argument, bit for bit; any other K takes one growth_matrix per
        distinct time.
        """
        times = np.asarray(times, dtype=float)
        k = self._diagonal_rates
        if k is None:
            distinct, where = np.unique(times, return_inverse=True)
            return np.array([self.growth_matrix(t0, float(t)) for t in distinct])[where]
        n = len(k)
        G = np.zeros((len(times), n, n))
        G[:, np.arange(n), np.arange(n)] = np.exp((times - t0)[:, None] * k)
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
        if self.system.k_matrix is not None:
            K = self.system.k_matrix
        else:
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
    if sys.k_matrix is not None:
        K = sys.k_matrix
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
        rates = np.diag(K)
        unequal = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rates[i] != rates[j]
        ]
    else:
        unequal = []
        for i in range(n):
            for j in range(i + 1, n):
                if not _exprs_probably_equal(sys.k_diagonal[i], sys.k_diagonal[j]):
                    unequal.append((i, j))
    if not unequal:
        return ApplicabilityResult(True)
    H = sys.hamiltonian
    qn, pn = sys.chart.position_names, sys.chart.momentum_names
    dq, dp = gradient(H, qn), gradient(H, pn)
    for i, j in unequal:
        u_mixed, t_mixed = differentiate(dq[i], qn[j]), differentiate(dp[i], pn[j])
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


def _exprs_probably_equal(a: Expr, b: Expr) -> bool:
    if a == b:
        return True
    for tval in probe_points(16, [0.0], [3.0])[:, 0].tolist():
        if abs(evaluate(a, {TIME_NAME: tval}) - evaluate(b, {TIME_NAME: tval})) > 1e-12:
            return False
    return True


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
