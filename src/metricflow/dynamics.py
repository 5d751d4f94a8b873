"""Dynamical systems dx/dt = X(x): fields, flows, tangent maps.

The vector field is autonomous (components may not reference ``t``); flows
are integrated with an embedded Dormand-Prince 5(4) pair with adaptive
steps, cubic Hermite dense output and jointly integrated variational
equations for the tangent map.  Backward flow integrates the field forward
with its sign reversed.  :func:`flow_jet` also integrates the
second-order variational equation, for the derivatives of the tangent map.
:func:`expm` is the matrix exponential of the linear and closed-form routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exprlang import (
    CoordinateChart,
    Expr,
    Num,
    TIME_NAME,
    Var,
    DomainError,
    as_expr,
    compile_vector,
    evaluate,
    evaluate_batch,
    evaluate_compiled,
    free_vars,
    gradient,
    probe_points,
    simplify,
)
from .phasespace import PhasePoint, _check_point


class IntegrationError(Exception):
    """Flow integration failed."""


class StepSizeUnderflowError(IntegrationError):
    """Step control collapsed (stiffness); carries the last good state."""

    def __init__(self, message: str, t_last: float, y_last: np.ndarray):
        super().__init__(message)
        self.t_last = t_last
        self.y_last = y_last


@dataclass(frozen=True)
class IntegratorOptions:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


DEFAULT_OPTIONS = IntegratorOptions()
# tangent maps that transport a metric are integrated at this fixed tolerance
TRANSPORT_OPTIONS = IntegratorOptions(abs_tol=1e-12, rel_tol=1e-12)


@dataclass(frozen=True)
class IntegrationStats:
    n_steps: int
    n_rejected: int
    max_error_estimate: float


@dataclass(frozen=True)
class FlowSegment:
    """A numerically integrated trajectory with its tangent map."""

    start: PhasePoint
    end: PhasePoint
    samples: tuple[tuple[float, np.ndarray], ...]
    tangent: np.ndarray
    stats: IntegrationStats


@dataclass(frozen=True)
class VectorFieldSpec:
    """The dynamics X, optionally split into a Hamiltonian part and a
    friction part with X = X1 + X2."""

    chart: CoordinateChart
    components: tuple[Expr, ...]
    part1: tuple[Expr, ...] | None = None
    part2: tuple[Expr, ...] | None = None

    def __post_init__(self):
        d = self.chart.dim
        if len(self.components) != d:
            raise ValueError(f"expected {d} components, got {len(self.components)}")
        for c in self.components:
            if TIME_NAME in free_vars(c):
                raise ValueError("vector field components must be time independent")
        if (self.part1 is None) != (self.part2 is None):
            raise ValueError("either both split parts or neither")
        if self.part1 is not None:
            if len(self.part1) != d or len(self.part2) != d:
                raise ValueError("split parts must have the full component count")
            for x in probe_points(5, -np.ones(d), np.ones(d)):
                env = self.chart.env(x, 0.0)
                for c, c1, c2 in zip(self.components, self.part1, self.part2):
                    total = evaluate(c, env)
                    parts = evaluate(c1, env) + evaluate(c2, env)
                    if abs(total - parts) > 1e-9 * max(1.0, abs(total)):
                        raise ValueError("split parts do not sum to the field")

    @classmethod
    def from_components(cls, chart: CoordinateChart, components) -> "VectorFieldSpec":
        comps = tuple(as_expr(c, chart) for c in components)
        return cls(chart, comps)

    @classmethod
    def from_hamiltonian(cls, chart: CoordinateChart, hamiltonian, friction=None) -> "VectorFieldSpec":
        """Build dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i - sum_j K_ij p_j.

        ``friction`` is an n x n constant matrix (or None for K = 0); the
        split parts are the Hamiltonian field and the -K p friction term.
        """
        H = as_expr(hamiltonian, chart)
        n = chart.n
        K = np.zeros((n, n)) if friction is None else np.array(friction, dtype=float)
        if K.shape != (n, n):
            raise ValueError(f"friction matrix must be {n}x{n}, got {K.shape}")
        grad = gradient(H, chart.momentum_names + chart.position_names)
        part1 = grad[:n] + [simplify(-g) for g in grad[n:]]
        part2: list[Expr] = [Num(0.0)] * n
        for i in range(n):
            acc: Expr = Num(0.0)
            for j in range(n):
                if K[i, j] != 0.0:
                    acc = acc + Num(K[i, j]) * Var(chart.momentum_names[j])
            part2.append(simplify(-acc))
        components = tuple(simplify(a + b) for a, b in zip(part1, part2))
        return cls(chart, components, tuple(part1), tuple(part2))

    @cached_property
    def jacobian_exprs(self) -> tuple[tuple[Expr, ...], ...]:
        return tuple(tuple(gradient(c, self.chart.names)) for c in self.components)

    @cached_property
    def constant_jacobian(self) -> np.ndarray | None:
        """The Jacobian as a read-only array when every entry is constant
        (affine fields), otherwise None."""
        if any(free_vars(e) for row in self.jacobian_exprs for e in row):
            return None
        A = np.array([[evaluate(e, {}) for e in row] for row in self.jacobian_exprs])
        A.setflags(write=False)
        return A

    @cached_property
    def parts(self) -> tuple["VectorFieldSpec", "VectorFieldSpec"] | None:
        """The split parts X1 and X2 as fields of their own, or None."""
        if self.part1 is None:
            return None
        return VectorFieldSpec(self.chart, self.part1), VectorFieldSpec(self.chart, self.part2)

    @cached_property
    def divergence_expr(self) -> Expr:
        """The simplified trace of :attr:`jacobian_exprs`."""
        acc: Expr = Num(0.0)
        for k, row in enumerate(self.jacobian_exprs):
            acc = acc + row[k]
        return simplify(acc)

    @cached_property
    def _field_fn(self):
        return self.components, compile_vector(self.components, self.chart)

    @cached_property
    def _jac_fn(self):
        flat = [e for row in self.jacobian_exprs for e in row]
        return flat, compile_vector(flat, self.chart)

    @cached_property
    def _hess_fn(self):
        """Flat indices and compiled entries of the second derivatives but Num(+0.0); -0.0 is a value."""
        flat = [h for row in self.jacobian_exprs for e in row for h in gradient(e, self.chart.names)]
        index = [k for k, h in enumerate(flat) if not (h == Num(0.0) and math.copysign(1.0, h.value) > 0)]
        return index, ([flat[k] for k in index], compile_vector([flat[k] for k in index], self.chart))

    @cached_property
    def _div_fn(self):
        return (self.divergence_expr,), compile_vector([self.divergence_expr], self.chart)

    def eval(self, coords, time: float = 0.0) -> np.ndarray:
        return evaluate_compiled(self._field_fn, self.chart, coords, time)

    def jacobian(self, coords, time: float = 0.0) -> np.ndarray:
        if self.constant_jacobian is not None:
            return self.constant_jacobian
        d = self.chart.dim
        return evaluate_compiled(self._jac_fn, self.chart, coords, time).reshape(d, d)

    def hessian(self, coords, time: float = 0.0) -> np.ndarray:
        """Second derivatives T[i, a, b] = d^2 X^i / dx_a dx_b, compiled on
        first use."""
        d = self.chart.dim
        index, compiled = self._hess_fn
        out = np.zeros(d**3)
        out[index] = evaluate_compiled(compiled, self.chart, coords, time)
        return out.reshape(d, d, d)

    def divergence(self, coords, time: float = 0.0) -> float:
        return evaluate_compiled(self._div_fn, self.chart, coords, time)[0]

    # the same at each row of X (B, d), with the bits of one call per row

    def eval_batch(self, X) -> np.ndarray:
        return evaluate_batch(self._field_fn, self.chart, X)

    def jacobian_batch(self, X) -> np.ndarray:
        d = self.chart.dim
        if self.constant_jacobian is not None:
            return np.broadcast_to(self.constant_jacobian, (len(X), d, d))
        return evaluate_batch(self._jac_fn, self.chart, X).reshape(len(X), d, d)

    def divergence_batch(self, X) -> np.ndarray:
        return evaluate_batch(self._div_fn, self.chart, X)[:, 0]


def eval_field(V: VectorFieldSpec, x: PhasePoint) -> np.ndarray:
    _check_point(V.chart, x)
    return V.eval(x.coords, x.time)


def compressibility(V: VectorFieldSpec, x: PhasePoint) -> float:
    """Phase-space compressibility kappa = sum_k d X^k / d x^k."""
    _check_point(V.chart, x)
    return V.divergence(x.coords, x.time)


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with [m/m] Pade approximants
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).

# (m, theta_m): the largest 1-norm at which the degree-m approximant is
# accurate to double precision (Higham 2005, Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 5.371920351148152e0))
# the numerator's coefficients b_j = (2m - j)! / (j! (m - j)!)
_PADE_B = {m: [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j)) for j in range(m + 1)]
           for m, _ in _PADE_THETA}


def expm(A) -> np.ndarray:
    """exp(A) of a real square matrix.

    The degree m is the lowest whose theta_m bounds the 1-norm of A.  Past
    theta_13, A is scaled by 2^-s for degree 13 and the result squared s
    times.  A diagonal A gives diag(exp(diag A)), a non-finite one NaN.
    """
    A = np.asarray(A, dtype=float)
    diag = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(A.shape, np.nan)
    m, theta = next((m, theta) for m, theta in _PADE_THETA if norm <= theta or m == 13)
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    A = np.ldexp(A, -s)
    b, eye, A2 = _PADE_B[m], np.eye(len(A)), A @ A
    if m < 13:
        powers = [eye, A2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with FSAL and cubic Hermite dense output.

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4

_EPS = np.finfo(float).eps
# a stage whose state leaves the field's domain raises one of these
_STAGE_ERRORS = (OverflowError, ValueError, ZeroDivisionError, DomainError)


def _hermite(tau, t0, y0, f0, t1, y1, f1):
    h = t1 - t0
    s = (tau - t0) / h
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _initial_step(f, y0, f0, duration, atol, rtol):
    sc = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / sc) ** 2))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, duration)
    try:
        y1 = y0 + h0 * f0
        f1 = f(h0, y1)
        d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
    except _STAGE_ERRORS:
        return min(h0 * 1e-3, duration)
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, duration)


def _integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    duration: float,
    opts: IntegratorOptions,
    sample_times: Sequence[float] = (),
):
    """Integrate y' = f(tau, y) over [0, duration], duration > 0.

    Returns (y_end, samples, stats) where samples holds interpolated states
    at the requested interior times (cubic Hermite on the accepted steps).
    """
    atol, rtol = opts.abs_tol, opts.rel_tol
    t = 0.0
    y = np.array(y0, dtype=float)
    try:
        fy = np.asarray(f(t, y), dtype=float)
    except _STAGE_ERRORS as exc:
        raise IntegrationError(f"cannot evaluate the field at the start state: {exc}") from exc
    h = _initial_step(f, y, fy, duration, atol, rtol)
    pending = sorted(tau for tau in sample_times if 0.0 < tau < duration)
    samples: list[tuple[float, np.ndarray]] = []
    n_accept = n_reject = 0
    max_err = 0.0
    K = [fy] + [np.empty_like(y) for _ in range(6)]
    while t < duration:
        h = min(h, duration - t)
        if h <= 16 * _EPS * max(abs(t), 1.0):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g}", t, y.copy()
            )
        try:
            K[0] = fy
            for i in range(1, 6):
                yi = y + h * sum(a * K[j] for j, a in enumerate(_DP_A[i]))
                K[i] = np.asarray(f(t + _DP_C[i] * h, yi), dtype=float)
            y5 = y + h * sum(b * K[i] for i, b in enumerate(_DP_B5[:6]))
            K[6] = np.asarray(f(t + h, y5), dtype=float)
        except _STAGE_ERRORS:
            # stage left the field's domain; retry with a smaller step
            n_reject += 1
            h *= 0.2
            if n_accept + n_reject > opts.max_steps:
                raise IntegrationError(f"exceeded {opts.max_steps} steps") from None
            continue
        err_vec = h * sum(e * K[i] for i, e in enumerate(_DP_E))
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        with np.errstate(invalid="ignore", over="ignore"):
            err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if not np.isfinite(err):
            err = 2.0  # force rejection on overflow/NaN
        if err <= 1.0:
            t_new = t + h
            while pending and pending[0] <= t_new:
                tau = pending.pop(0)
                samples.append((tau, _hermite(tau, t, y, K[0], t_new, y5, K[6])))
            t, y, fy = t_new, y5, K[6]
            n_accept += 1
            max_err = max(max_err, float(np.max(np.abs(err_vec))))
            factor = 5.0 if err == 0.0 else 0.9 * err**-0.2
        else:
            n_reject += 1
            factor = max(0.2, 0.9 * err**-0.2)
        h *= min(5.0, max(0.2, factor))
        if n_accept + n_reject > opts.max_steps:
            raise IntegrationError(f"exceeded {opts.max_steps} steps")
    stats = IntegrationStats(n_accept, n_reject, max_err)
    return y, samples, stats


def _eval_lanes(F, lanes: np.ndarray, Y: np.ndarray):
    """F at the rows Y of ``lanes`` and, by row, the error of each lane whose
    evaluation raised; after a failed call each lane is evaluated alone."""
    try:
        return F(lanes, Y), {}
    except _STAGE_ERRORS:
        out, failed = np.zeros_like(Y), {}
        for r in range(len(Y)):
            try:
                out[r] = F(lanes[r : r + 1], Y[r : r + 1])[0]
            except _STAGE_ERRORS as exc:
                failed[r] = exc
        return out, failed


def _integrate_lanes(F, Y0: np.ndarray, durations, opts: IntegratorOptions):
    """:func:`_integrate` of the problems y' = F in the rows of Y0 (B, n),
    row b over [0, durations[b]], advanced together as lanes of one array.

    ``F(lanes, Y)`` gives the derivatives at the rows Y of the lanes
    ``lanes``.  Each lane takes the steps, and ends with the bits, of its
    own run; a stage that raises rejects only its lane's step.  A failed
    lane stops, and at the end the lowest-index one raises its error.
    Returns (Y_end, stats per lane).
    """
    atol, rtol = opts.abs_tol, opts.rel_tol
    Y, dur = np.array(Y0, dtype=float), [float(s) for s in durations]
    t, h, counts = [0.0] * len(Y), [0.0] * len(Y), [[0, 0, 0.0] for _ in Y]
    failed: dict[int, IntegrationError] = {}
    live = np.flatnonzero(np.array(dur) > 0.0)  # a lane of zero duration keeps its start
    FY = np.zeros_like(Y)
    FY[live], bad = _eval_lanes(F, live, Y[live])
    for r, exc in bad.items():
        failed[live[r]] = IntegrationError(f"cannot evaluate the field at the start state: {exc}")
    live = np.delete(live, list(bad))
    # _initial_step's arithmetic, with its comparisons and powers on each lane's scalars
    y0, f0 = Y[live], FY[live]
    sc = atol + rtol * np.abs(y0)
    d0, d1 = (np.sqrt(np.mean((v / sc) ** 2, axis=1)) for v in (y0, f0))
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, dur[lane]) for a, b, lane in zip(d0, d1, live)]
    f1, bad = _eval_lanes(F, live, y0 + np.array(h0)[:, None] * f0)
    d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2, axis=1)) / h0
    for r, b in enumerate(live):
        dmax = max(d1[r], d2[r])
        h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0[r] * 1e-3)
        h[b] = min(h0[r] * 1e-3, dur[b]) if r in bad else min(100 * h0[r], h1, dur[b])
    while len(live):
        for b in live:
            h[b] = min(h[b], dur[b] - t[b])
            if h[b] <= 16 * _EPS * max(abs(t[b]), 1.0):
                failed[b] = StepSizeUnderflowError(f"step size underflow at t={t[b]:.6g}", t[b], Y[b].copy())
        lanes = np.array([b for b in live if b not in failed], dtype=int)
        y, hs, K, retry = Y[lanes], np.array([h[b] for b in lanes])[:, None], [FY[lanes]], []
        for coeffs in _DP_A[1:] + (_DP_B5[:6],):
            yi = y + hs * sum(a * K[j] for j, a in enumerate(coeffs))
            k_i, bad = _eval_lanes(F, lanes, yi)
            if bad:  # these stages left the field's domain; their lanes retry
                keep = np.array([r not in bad for r in range(len(lanes))], dtype=bool)
                retry += [lanes[r] for r in bad]
                lanes, y, hs, yi, k_i, K = lanes[keep], y[keep], hs[keep], yi[keep], k_i[keep], [k[keep] for k in K]
            K.append(k_i)
        err_vec = hs * sum(e * K[i] for i, e in enumerate(_DP_E))
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
        with np.errstate(invalid="ignore", over="ignore"):
            errs = np.sqrt(np.mean((err_vec / sc) ** 2, axis=1))
        err_max = np.max(np.abs(err_vec), axis=1)
        # a non-finite estimate forces a rejection; a retry is one at h * 0.2
        errs = np.where(np.isfinite(errs), errs, 2.0).tolist() + [math.inf] * len(retry)
        for r, b in enumerate([*lanes, *retry]):
            err, c = errs[r], counts[b]
            if err <= 1.0:
                t[b] += h[b]
                Y[b], FY[b] = yi[r], K[6][r]
                c[0], c[2] = c[0] + 1, max(c[2], float(err_max[r]))
                factor = 5.0 if err == 0.0 else 0.9 * err**-0.2
            else:
                c[1] += 1
                factor = max(0.2, 0.9 * err**-0.2)
            h[b] *= min(5.0, max(0.2, factor))
            if c[0] + c[1] > opts.max_steps:
                failed[b] = IntegrationError(f"exceeded {opts.max_steps} steps")
        live = np.array([b for b in live if b not in failed and t[b] < dur[b]], dtype=int)
    if failed:
        raise failed[min(failed)]
    return Y, [IntegrationStats(*c) for c in counts]


def _joint_rhs(V: VectorFieldSpec, sign: float, second_order: bool = False):
    """The flow, its tangent map M and, with ``second_order``, the
    derivatives H[i, j, k] = d_k M_ij, which obey
    H_k' = D^2X(y)[M e_k, M] + DX(y) H_k."""
    d = V.chart.dim
    dd = d * d

    def f(tau, s):
        x = s[:d]
        M = s[d : d + dd].reshape(d, d)
        A = V.jacobian(x)
        parts = [V.eval(x), (A @ M).reshape(-1)]
        if second_order:
            H = s[d + dd :].reshape(d, dd)
            parts.append((M.T @ (V.hessian(x) @ M)).reshape(-1) + (A @ H).reshape(-1))
        return sign * np.concatenate(parts)

    return f


def integrate_flow(
    V: VectorFieldSpec,
    x0: PhasePoint,
    t1: float,
    opts: IntegratorOptions | None = None,
    sample_times: Sequence[float] | None = None,
) -> FlowSegment:
    """Integrate the flow (and tangent map) from ``x0`` to time ``t1``.

    ``t1`` may precede ``x0.time``; backward segments integrate the field
    with its sign reversed.  Requested ``sample_times`` are filled by dense
    interpolation of the accepted steps.
    """
    _check_point(V.chart, x0)
    opts = opts or DEFAULT_OPTIONS
    d = V.chart.dim
    t0 = x0.time
    T = float(t1) - t0
    if T == 0.0:
        samples = ((t0, x0.coords),)
        return FlowSegment(x0, x0, samples, np.eye(d), IntegrationStats(0, 0, 0.0))
    direction = 1.0 if T > 0 else -1.0
    duration = abs(T)
    taus = []
    if sample_times is not None:
        for ts in sample_times:
            tau = (float(ts) - t0) * direction
            if not 0.0 <= tau <= duration:
                raise ValueError(f"sample time {ts} outside the segment")
            taus.append(tau)
    y0 = np.concatenate([x0.coords, np.eye(d).reshape(-1)])
    f = _joint_rhs(V, direction)
    y_end, raw_samples, stats = _integrate(f, y0, duration, opts, taus)
    end = PhasePoint(y_end[:d], t1)
    samples = [(t0, x0.coords)]
    samples += [(t0 + direction * tau, y[:d].copy()) for tau, y in raw_samples]
    samples.append((t1, end.coords))
    return FlowSegment(x0, end, tuple(samples), y_end[d:].reshape(d, d), stats)


def flow_jet(
    V: VectorFieldSpec, coords, t: float, opts: IntegratorOptions | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The time-``t`` flow of ``coords`` with its first two derivatives.

    Returns (y, M, H): the end point, the tangent map M = dy/dx and
    H[i, j, k] = d_k M_ij, from the first- and second-order variational
    equations integrated in one run beside the flow (Hairer, Norsett &
    Wanner, *Solving ODEs I*, I.14).  ``t`` may be negative.  For affine
    fields H is zero and is not integrated.
    """
    opts = opts or DEFAULT_OPTIONS
    d = V.chart.dim
    second_order = V.constant_jacobian is None
    state = np.concatenate([coords, np.eye(d).reshape(-1), np.zeros(d**3 if second_order else 0)])
    if t != 0.0:
        state, _, _ = _integrate(_joint_rhs(V, np.sign(t), second_order), state, abs(t), opts)
    H = state[d + d * d :].reshape(d, d, d) if second_order else np.zeros((d, d, d))
    return state[:d], state[d : d + d * d].reshape(d, d), H


def tangent_map(
    V: VectorFieldSpec, x0: PhasePoint, t1: float, opts: IntegratorOptions | None = None
) -> np.ndarray:
    """Jacobian of the time-t1 flow map with respect to ``x0``."""
    return integrate_flow(V, x0, t1, opts).tangent


def flow_lanes(V: VectorFieldSpec, starts: Sequence[PhasePoint], t1s: Sequence[float],
               opts: IntegratorOptions | None = None, tangent: bool = True
               ) -> tuple[list[PhasePoint], np.ndarray, list[IntegrationStats]]:
    """The trajectories from ``starts`` to the times ``t1s``, integrated as
    the lanes of one :func:`_integrate_lanes`.  Each carries the tangent map,
    as :func:`integrate_flow` does, or without ``tangent`` the integral of
    the compressibility.  Returns the end points (a start point itself where
    t1 is its time), the end states, (B, d + d^2) or (B, d + 1), and the
    :class:`IntegrationStats` of each lane."""
    opts, d = opts or DEFAULT_OPTIONS, V.chart.dim
    for x in starts:
        _check_point(V.chart, x)
    T = np.array([float(t1) - x.time for x, t1 in zip(starts, t1s)])
    sign = np.where(T > 0, 1.0, -1.0)  # backward lanes integrate -X forward

    def F(lanes, Y):
        X = Y[:, :d]
        if tangent:
            rest = (V.jacobian_batch(X) @ Y[:, d:].reshape(len(Y), d, d)).reshape(len(Y), -1)
        else:
            rest = V.divergence_batch(X)[:, None]
        return sign[lanes, None] * np.concatenate([V.eval_batch(X), rest], axis=1)

    tail = np.tile(np.eye(d).reshape(-1), (len(T), 1)) if tangent else np.zeros((len(T), 1))
    X0 = np.array([x.coords for x in starts]).reshape(len(T), d)
    Y, stats = _integrate_lanes(F, np.concatenate([X0, tail], axis=1), np.abs(T), opts)
    return [x if T[b] == 0.0 else PhasePoint(Y[b, :d], t1) for b, (x, t1) in enumerate(zip(starts, t1s))], Y, stats


def compressibility_flow(
    V: VectorFieldSpec, x0: PhasePoint, t1: float, opts: IntegratorOptions | None = None
) -> tuple[PhasePoint, float]:
    """The end point of the trajectory from x0 to t1 and the integral of the
    compressibility along it, from one integration of (y, integral)."""
    (end,), Y, _ = flow_lanes(V, [x0], [t1], opts, tangent=False)
    return end, float(Y[0, -1])


def compressibility_integral(
    V: VectorFieldSpec, x0: PhasePoint, t1: float, opts: IntegratorOptions | None = None
) -> float:
    """Integral of the compressibility along the trajectory from x0 to t1."""
    return compressibility_flow(V, x0, t1, opts)[1]
