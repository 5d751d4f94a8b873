"""Dynamical systems dx/dt = X(x, t): fields, flows, tangent maps.

One adaptive Dormand-Prince 5(4) stepper integrates every flow.  Its callers
are lanes, trajectories advanced as the rows of one array, each with its own
step control (:func:`flow_lanes`); a trajectory to one end time is one lane,
and states at several times are a lane each.  Beside its trajectory a lane
carries the tangent map from the variational equations, also its
derivatives (:func:`flow_jet`), or the integral of the compressibility; a
lane of a field that reads ``t`` also carries its time.  Backward flow
integrates the field forward with its sign reversed.
:func:`expm` is the matrix exponential of the linear and closed-form routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        if not (self.abs_tol > 0) or not (self.rel_tol > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if not (self.max_steps >= 1):
            raise ValueError("max_steps must be positive")


def finite_number(value) -> bool:
    """Whether ``value``, read from input, is a finite number and not a boolean."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the floats
        return False


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
    """The end of a numerically integrated trajectory with its tangent map."""

    end: PhasePoint
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
        if (self.part1 is None) != (self.part2 is None):
            raise ValueError("either both split parts or neither")
        if self.part1 is not None:
            if len(self.part1) != d or len(self.part2) != d:
                raise ValueError("split parts must have the full component count")
            for x in probe_points(5, -np.ones(d), np.ones(d)):
                env = self.chart.env(x, 0.0)
                try:
                    values = [(evaluate(c, env), evaluate(c1, env) + evaluate(c2, env))
                              for c, c1, c2 in zip(self.components, self.part1, self.part2)]
                except DomainError:  # a point outside the field's domain checks nothing
                    continue
                if any(abs(total - parts) > 1e-9 * max(1.0, abs(total)) for total, parts in values):
                    raise ValueError("split parts do not sum to the field")

    @classmethod
    def from_components(cls, chart: CoordinateChart, components) -> "VectorFieldSpec":
        comps = tuple(as_expr(c, chart) for c in components)
        return cls(chart, comps)

    @classmethod
    def from_hamiltonian(cls, chart: CoordinateChart, hamiltonian, friction=None) -> "VectorFieldSpec":
        """Build dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i - sum_j K_ij p_j.

        ``friction`` is an n x n matrix of finite numbers and expressions (or
        None for K = 0); the split parts are the Hamiltonian field and -K p.
        """
        H = as_expr(hamiltonian, chart)
        n = chart.n
        K = np.zeros((n, n), dtype=object) if friction is None else np.array(friction, dtype=object)
        if K.shape != (n, n):
            raise ValueError(f"friction matrix must be {n}x{n}, got {K.shape}")
        for (i, j), v in np.ndenumerate(K):
            if not (isinstance(v, Expr) or finite_number(v)):
                raise ValueError(f"friction matrix entry [{i}][{j}] must be a finite number, got {v!r}")
        grad = gradient(H, chart.momentum_names + chart.position_names)
        part1 = grad[:n] + [simplify(-g) for g in grad[n:]]
        part2: list[Expr] = [Num(0.0)] * n
        for i in range(n):
            acc: Expr = Num(0.0)
            for j in range(n):
                if K[i, j] != 0.0:
                    acc = acc + (K[i, j] if isinstance(K[i, j], Expr) else Num(K[i, j])) * Var(chart.momentum_names[j])
            part2.append(simplify(-acc))
        components = tuple(simplify(a + b) for a, b in zip(part1, part2))
        return cls(chart, components, tuple(part1), tuple(part2))

    @cached_property
    def autonomous(self) -> bool:
        """Whether no component reads ``t``; the lanes of a field that does carry their time."""
        return not any(TIME_NAME in free_vars(c) for c in self.components)

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
    def _hess_fn(self):
        """Flat indices and compiled entries of the second derivatives but Num(+0.0); -0.0 is a value."""
        flat = [h for row in self.jacobian_exprs for e in row for h in gradient(e, self.chart.names)]
        index = [k for k, h in enumerate(flat) if not (h == Num(0.0) and math.copysign(1.0, h.value) > 0)]
        return np.array(index, dtype=int), ([flat[k] for k in index], compile_vector([flat[k] for k in index], self.chart))

    # the two kernels of the field: the lanes' right-hand sides, of which eval,
    # jacobian and divergence read their slices.  _tangent_fn is the Jacobian's
    # entries, when it varies, then the field's; _volume_fn the divergence, then
    # the field's.
    @cached_property
    def _tangent_fn(self):
        flat = [] if self.constant_jacobian is not None else [e for row in self.jacobian_exprs for e in row]
        flat += self.components
        return flat, compile_vector(flat, self.chart)

    @cached_property
    def _volume_fn(self):
        flat = [self.divergence_expr, *self.components]
        return flat, compile_vector(flat, self.chart)

    def eval(self, coords, time: float = 0.0) -> np.ndarray:
        return evaluate_compiled(self._tangent_fn, self.chart, coords, time, slice(-self.chart.dim, None))

    def jacobian(self, coords, time: float = 0.0) -> np.ndarray:
        if self.constant_jacobian is not None:
            return self.constant_jacobian
        d = self.chart.dim
        return evaluate_compiled(self._tangent_fn, self.chart, coords, time, slice(0, d * d)).reshape(d, d)

    def hessian(self, coords, time: float = 0.0) -> np.ndarray:
        """Second derivatives T[i, a, b] = d^2 X^i / dx_a dx_b, compiled on
        first use."""
        d = self.chart.dim
        index, compiled = self._hess_fn
        out = np.zeros(d**3)
        out[index] = evaluate_compiled(compiled, self.chart, coords, time)
        return out.reshape(d, d, d)

    def divergence(self, coords, time: float = 0.0) -> float:
        return evaluate_compiled(self._volume_fn, self.chart, coords, time, slice(0, 1))[0]

    def eval_jacobian(self, X, T=0.0) -> tuple[np.ndarray, np.ndarray]:
        """The field (B, d) and its Jacobian (B, d, d) at each row b of X (B, d)
        and time T or T[b], with the bits of eval and jacobian, from one read
        of the tangent kernel.  Where entries of both fail, the field's node is named."""
        B, d = len(X), self.chart.dim
        if self.constant_jacobian is not None:
            return evaluate_batch(self._tangent_fn, self.chart, X, T), np.broadcast_to(self.constant_jacobian, (B, d, d))
        E = evaluate_batch(self._tangent_fn, self.chart, X, T, entries=np.arange(-d, d * d))  # the field's first
        return np.ascontiguousarray(E[:, :d]), np.ascontiguousarray(E[:, d:]).reshape(B, d, d)


def compressibility(V: VectorFieldSpec, x: PhasePoint) -> float:
    """Phase-space compressibility kappa = sum_k d X^k / d x^k."""
    _check_point(V.chart, x)
    return V.divergence(x.coords, x.time)


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with [m/m] Pade approximants
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), and past theta_13 the
# squarings of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31(3), 2009).

# (m, theta_m): the largest 1-norm at which the degree-m approximant is
# accurate to double precision (Higham 2005, Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 5.371920351148152e0))
# the numerator's coefficients b_j = (2m - j)! / (j! (m - j)!)
_PADE_B = {m: [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j)) for j in range(m + 1)]
           for m, _ in _PADE_THETA}
# log2 |c_27|, the leading coefficient of the degree-13 approximant's backward error
_LOG2_C27 = math.log2(math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27)))


def _squarings(A: np.ndarray, norm: float, theta: float) -> int:
    """The squarings s of the degree-13 approximant for A with 1-norm
    ``norm`` past theta = theta_13 (Al-Mohy & Higham 2009, Algorithm 5.1).

    s scales eta = min(max(d6, d8), max(d8, d10)), d_k = ||A^k||_1^(1/k), to
    theta, with the powers formed from A / ||A||_1, which cannot
    overflow.  The ell correction adds squarings while the backward error
    bound |c_27| || |2^-s A|^27 ||_1 / ||2^-s A||_1 exceeds 2^-53.
    """
    B = A / norm
    B2 = B @ B
    B4 = B2 @ B2
    B6 = B4 @ B2
    d6, d8, d10 = (norm * float(np.abs(P).sum(axis=0).max()) ** (1 / k)
                   for P, k in ((B6, 6), (B4 @ B4, 8), (B4 @ B6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / theta)), 0) if eta > 0 else 0
    v, abs_B = np.ones(len(A)), np.abs(B)
    for _ in range(27):  # the column sums of |B|^27
        v = v @ abs_B
    if v.max() > 0:
        log2_bound = _LOG2_C27 + 26 * (math.log2(norm) - s) + math.log2(v.max())
        s += max(math.ceil((log2_bound + 53) / 26), 0)
    return s


def expm(A) -> np.ndarray:
    """exp(A) of a real square matrix.

    The degree m is the lowest whose theta_m bounds the 1-norm of A.  Past
    theta_13, A is scaled by 2^-s for degree 13 (:func:`_squarings`) and
    the result squared s times.  A diagonal A gives diag(exp(diag A)), a
    non-finite one NaN, and one with A^2 = 0 I + A.
    """
    A = np.asarray(A, dtype=float)
    diag = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(A.shape, np.nan)
    if not (A @ A).any():  # nilpotent of index 2: the series ends at I + A
        return np.eye(len(A)) + A
    m, theta = next((m, theta) for m, theta in _PADE_THETA if norm <= theta or m == 13)
    s = _squarings(A, norm, theta) if norm > theta else 0
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
# Dormand-Prince 5(4) with FSAL, its problems advanced as the lanes of one array.

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
# stages 2-7 (the last is the fifth-order end state) and the error, as weights of K (7, B, n)
_DP_STAGES = [np.array(a)[:, None, None] for a in _DP_A[1:] + (_DP_B5[:6],)]
_DP_E = (_DP_B5 - _DP_B4)[:, None, None]

_EPS = np.finfo(float).eps
# a stage whose state leaves the field's domain raises one of these; the
# evaluators turn math's ValueErrors into DomainErrors, so a ValueError is a
# fault of the right-hand side and propagates
_STAGE_ERRORS = (ArithmeticError, DomainError)


def _eval_lanes(F, lanes: np.ndarray, Y: np.ndarray):
    """F at the rows Y of ``lanes`` and, by row, the error of each lane whose
    evaluation raised; after a failed call of several lanes each is
    evaluated alone."""
    try:
        return F(lanes, Y), {}
    except _STAGE_ERRORS as exc:
        if len(Y) == 1:
            return np.zeros_like(Y), {0: exc}
        out, failed = np.zeros_like(Y), {}
        for r in range(len(Y)):
            try:
                out[r] = F(lanes[r : r + 1], Y[r : r + 1])[0]
            except _STAGE_ERRORS as exc:
                failed[r] = exc
        return out, failed


def _integrate_lanes(F, Y0: np.ndarray, durations, opts: IntegratorOptions):
    """Integrate y' = F in the rows of Y0 (B, n), row b over [0, durations[b]],
    as the lanes of one array.

    ``F(lanes, Y)`` gives the derivatives at the rows Y of the lanes
    ``lanes``.  Each lane has its own t, step size and step control, with
    the comparisons and powers on its own scalars, so it takes the steps,
    and ends with the bits, of a run of its own.  A stage that raises
    rejects only its lane's step, at h * 0.2.  A lane whose remaining time
    is at most 16 eps max(|t|, 1) has finished, with its last accepted
    state.  A lane that underflows or exceeds ``max_steps`` stops; at the
    end the lowest-index failed lane raises.  Returns (Y_end, stats per
    lane).
    """
    atol, rtol = opts.abs_tol, opts.rel_tol
    Y, dur = np.array(Y0, dtype=float), [float(s) for s in durations]
    B, n = Y.shape
    lanes = np.array([b for b in range(B) if dur[b] > 0.0], dtype=int)  # a lane of zero duration keeps its start
    if not len(lanes):
        return Y, [IntegrationStats(0, 0, 0.0)] * B
    t, h, counts = [0.0] * B, [0.0] * B, [[0, 0, 0.0] for _ in range(B)]
    failed: dict[int, IntegrationError] = {}
    y = Y[lanes]
    fy, bad = _eval_lanes(F, lanes, y)
    if bad:
        for r, exc in bad.items():
            failed[int(lanes[r])] = IntegrationError(f"cannot evaluate the field at the start state: {exc}")
        keep = [r not in bad for r in range(len(lanes))]
        lanes, y, fy = lanes[keep], y[keep], fy[keep]
    ids = lanes.tolist()
    # the initial step (Hairer, Norsett & Wanner, II.4) from the RMS norms d0, d1, d2
    sc = atol + rtol * np.abs(y)
    d0, d1 = ([math.sqrt(s / n) for s in np.add.reduce((v / sc) ** 2, axis=1).tolist()] for v in (y, fy))
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, dur[lane]) for a, b, lane in zip(d0, d1, ids)]
    hs = np.array(h0)[:, None]
    f1, bad = _eval_lanes(F, lanes, y + hs * fy)
    d2 = (np.sqrt(np.add.reduce(((f1 - fy) / sc) ** 2, axis=1) / n) / hs[:, 0]).tolist()
    for r, b in enumerate(ids):
        dmax = max(d1[r], d2[r])
        h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0[r] * 1e-3)
        h[b] = min(h0[r] * 1e-3, dur[b]) if r in bad else min(100 * h0[r], h1, dur[b])
    # lanes, y, fy and the column hs of step sizes hold the running lanes;
    # they are rebuilt only when one stops
    while True:
        stop = []
        for r, b in enumerate(ids):
            if counts[b][0] + counts[b][1] > opts.max_steps:
                failed[b] = IntegrationError(f"exceeded {opts.max_steps} steps")
            elif dur[b] - t[b] <= 16 * _EPS * max(abs(t[b]), 1.0):
                # done, or one rounding of t + h short of the end
                Y[b] = y[r]
            else:
                h[b] = hs[r, 0] = min(h[b], dur[b] - t[b])
                if h[b] > 16 * _EPS * max(abs(t[b]), 1.0):
                    continue
                failed[b] = StepSizeUnderflowError(f"step size underflow at t={t[b]:.6g}", t[b], y[r].copy())
            stop.append(r)
        if stop:
            keep = np.ones(len(ids), dtype=bool)
            keep[stop] = False
            lanes, y, fy, hs = lanes[keep], y[keep], fy[keep], hs[keep]
            ids = lanes.tolist()
        if not ids:
            break
        # the sums over stages add left to right from +0.0, as Python's sum does;
        # a lane whose stage raised takes its later stages at its state y, where
        # F does not raise, and its step is rejected
        K, raised = np.empty((7, *y.shape)), []
        K[0] = fy
        for i, coeffs in enumerate(_DP_STAGES, 1):
            yi = y + hs * np.add.reduce(K[:i] * coeffs, axis=0, initial=0.0)
            if raised:
                yi[raised] = y[raised]
            K[i], bad = _eval_lanes(F, lanes, yi)
            raised.extend(bad)
        err_vec = hs * np.add.reduce(K * _DP_E, axis=0, initial=0.0)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
        with np.errstate(invalid="ignore", over="ignore"):
            errs = [math.sqrt(s / n) for s in np.add.reduce((err_vec / sc) ** 2, axis=1).tolist()]
        err_max = np.abs(err_vec).max(axis=1).tolist()
        # a non-finite estimate forces a rejection; a raised stage one at h * 0.2
        errs = [e if math.isfinite(e) else 2.0 for e in errs]
        for r in raised:
            errs[r] = math.inf
        acc = [e <= 1.0 for e in errs]
        for r, b in enumerate(ids):
            err, c = errs[r], counts[b]
            if acc[r]:
                t[b] += h[b]
                c[0], c[2] = c[0] + 1, max(c[2], err_max[r])
                factor = 5.0 if err == 0.0 else 0.9 * err**-0.2
            else:
                c[1] += 1
                factor = max(0.2, 0.9 * err**-0.2)
            h[b] *= min(5.0, max(0.2, factor))
        if all(acc):
            y, fy = yi, K[6]
        elif any(acc):
            y[acc], fy[acc] = yi[acc], K[6][acc]
    if failed:
        raise failed[min(failed)]
    return Y, [IntegrationStats(*c) for c in counts]


def flow_lanes(V: VectorFieldSpec, X0: np.ndarray, durations, opts: IntegratorOptions | None = None,
               tangent: int = 1, T0=0.0) -> tuple[np.ndarray, list[IntegrationStats]]:
    """The trajectories from the rows of X0 (B, d) at the start times T0 (a
    number or (B,)), row b for the time durations[b] (negative: backward),
    integrated as the lanes of one :func:`_integrate_lanes`.

    ``tangent`` is the order of the variational equations that each lane
    carries beside the flow: 1 (True) the tangent map M, 2 also
    H[i, j, k] = d_k M_ij, which obeys H_k' = D^2X(y)[M e_k, M] + DX(y) H_k
    (Hairer, Norsett & Wanner, *Solving ODEs I*, I.14), and 0 (False) none,
    but the integral of the compressibility.  A lane of a field that reads t
    carries its time in a last column of derivative 1, dropped at the end.
    Returns the end states, (B, d + d^2), (B, d + d^2 + d^3) or (B, d + 1),
    with the end point first (the start itself for a zero duration), and
    the :class:`IntegrationStats` of each lane."""
    opts, d = opts or DEFAULT_OPTIONS, V.chart.dim
    T = [float(s) for s in durations]
    sign = np.array([1.0 if s > 0 else -1.0 for s in T])  # backward lanes integrate -X forward

    dd, jac, last = d * d, V.constant_jacobian, [None, None]  # last: F's last lane array, its signs
    compiled = V._tangent_fn if tangent else V._volume_fn
    n = d + (dd + (d**3 if tangent == 2 else 0) if tangent else 1)  # the state's width, without time
    timed = not V.autonomous

    def F(lanes, Y):
        X, B, out = Y[:, :d], len(Y), np.empty_like(Y)
        t = Y[:, n] if timed else 0.0
        E = evaluate_batch(compiled, V.chart, X, t)  # the divergence or a varying DX, then X
        if not tangent:
            out[:, d] = E[:, 0]
        elif tangent == 1:
            A = E[:, :dd].reshape(B, d, d) if jac is None else jac
            out[:, d:n] = (A @ Y[:, d:n].reshape(B, d, d)).reshape(B, dd)
        else:  # row by row, the products of one lane's run
            A = E[:, :dd].reshape(B, d, d) if jac is None else [jac] * B
            for r in range(B):
                x, a, y, o, s = X[r], A[r], Y[r], out[r], t[r] if timed else 0.0
                M, H = y[d : d + dd].reshape(d, d), y[d + dd : n].reshape(d, dd)
                np.matmul(a, M, out=o[d : d + dd].reshape(d, d))
                np.add((M.T @ (V.hessian(x, s) @ M)).reshape(d, dd), a @ H, out=o[d + dd : n].reshape(d, dd))
        out[:, :d] = E[:, -d:]
        if timed:
            out[:, n] = 1.0
        if last[0] is not lanes:
            last[:] = lanes, sign[lanes, None]
        out *= last[1]
        return out

    Y0 = np.zeros((len(T), n + timed))
    Y0[:, :d] = X0
    if tangent:
        Y0[:, d : d + dd : d + 1] = 1.0  # M = I
    if timed:
        Y0[:, n] = T0
    Y, stats = _integrate_lanes(F, Y0, [abs(s) for s in T], opts)
    return Y[:, :n], stats


def _integrate(V: VectorFieldSpec, x0, duration: float, opts: IntegratorOptions | None, tangent: int, t0=0.0):
    """One lane of :func:`flow_lanes` from the coordinates x0 at time t0: (end point, end state, stats)."""
    Y, stats = flow_lanes(V, [x0], [duration], opts, tangent, t0)
    return Y[0, : V.chart.dim], Y[0], stats[0]


def integrate_flow(
    V: VectorFieldSpec, x0: PhasePoint, t1: float, opts: IntegratorOptions | None = None
) -> FlowSegment:
    """Integrate the flow and its tangent map from ``x0`` to time ``t1``, as
    one lane of :func:`flow_lanes`.

    ``t1`` may precede ``x0.time``; backward segments integrate the field
    with its sign reversed.
    """
    _check_point(V.chart, x0)
    d, t1 = V.chart.dim, float(t1)
    end, y, stats = _integrate(V, x0.coords, t1 - x0.time, opts, True, x0.time)
    return FlowSegment(PhasePoint(end, t1) if t1 != x0.time else x0, y[d:].reshape(d, d), stats)


def flow_jet(
    V: VectorFieldSpec, coords, t: float, opts: IntegratorOptions | None = None, t0: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flow of ``coords`` from time ``t0`` for the time ``t``, with its first two derivatives.

    Returns (y, M, H): the end point, the tangent map M = dy/dx and
    H[i, j, k] = d_k M_ij, from the first- and second-order variational
    equations integrated in one run beside the flow (:func:`flow_lanes`).
    ``t`` may be negative.  For affine fields H is zero and is not
    integrated.
    """
    d, order = V.chart.dim, 1 if V.constant_jacobian is not None else 2
    _, y, _ = _integrate(V, coords, t, opts, order, t0)
    H = y[d + d * d :].reshape(d, d, d) if order == 2 else np.zeros((d, d, d))
    return y[:d], y[d : d + d * d].reshape(d, d), H


def compressibility_flow(
    V: VectorFieldSpec, x0: PhasePoint, t1: float, opts: IntegratorOptions | None = None
) -> tuple[PhasePoint, float]:
    """The end point of the trajectory from x0 to t1 and the integral of the
    compressibility along it, from one integration of (y, integral)."""
    _check_point(V.chart, x0)
    t1 = float(t1)
    end, y, _ = _integrate(V, x0.coords, t1 - x0.time, opts, False, x0.time)
    return (PhasePoint(end, t1) if t1 != x0.time else x0), float(y[-1])

