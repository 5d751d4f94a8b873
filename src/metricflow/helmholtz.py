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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# shifts and masks as uint64 scalars, so that the arithmetic stays uint64 under every numpy casting rule
_U11, _U32, _U58, _U63, _U64, _U_M32 = map(np.uint64, (11, 32, 58, 63, 64, _M32))


def _mulhi(x: np.ndarray, a: np.uint64) -> np.ndarray:
    """The high words of the 128-bit products of the uint64 array ``x`` and ``a``."""
    x1, x0, a1, a0 = x >> _U32, x & _U_M32, a >> _U32, a & _U_M32
    p00, p01, p10 = x0 * a0, x0 * a1, x1 * a0
    carry = ((p00 >> _U32) + (p01 & _U_M32) + (p10 & _U_M32)) >> _U32
    return x1 * a1 + (p01 >> _U32) + (p10 >> _U32) + carry


class UniformStream:
    """numpy's ``default_rng(seed).uniform`` stream, bit for bit, held here so
    that sampling neither imports ``numpy.random`` nor depends on its release.

    SeedSequence hashes the seed into PCG64's 128-bit state and increment; a
    draw of N numbers forms the N next states of the LCG by jump-ahead
    doubling, in (hi, lo) uint64 arrays, and maps each through XSL-RR to
    ``low + (high - low) * ((u64 >> 11) * 2**-53)``.  Successive draws continue one stream.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"a seed must be a non-negative integer, not {seed!r}")
        seed = int(seed)
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]  # 32-bit words, low first
        h = [0x43B0D7E5]  # SeedSequence's running hash constant

        def hashmix(v: int, mult: int = 0x931E8875) -> int:
            v, h[0] = v ^ h[0], h[0] * mult & _M32
            v = v * h[0] & _M32
            return v ^ v >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for v, dst in [(v, d) for v in entropy[4:] for d in range(4)]:
            pool[dst] = mix(pool[dst], hashmix(v))
        h[0] = 0x8B51F9DD  # generate_state(4, np.uint64): 8 words of 32 bits, low word first
        words = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        w = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
        self._inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _M128  # srandom: two steps from 0

    def uniform(self, low, high, shape: tuple[int, ...]) -> np.ndarray:
        """The next ``prod(shape)`` draws, in C order, from [low, high) broadcast to ``shape``."""
        low, high = np.broadcast_to(low, shape).astype(float), np.broadcast_to(high, shape).astype(float)
        with np.errstate(over="ignore"):
            span = high - low
        if not np.isfinite(span).all():
            raise OverflowError("the sampling range high - low overflows a float")
        n = span.size
        hi, lo = np.array([self._state >> 64], np.uint64), np.array([self._state & _M64], np.uint64)
        mult, add = _PCG_MULT, self._inc  # the LCG map of len(hi) steps
        while len(hi) <= n:
            m_hi, m_lo, a_hi, a_lo = (np.uint64(v) for v in (mult >> 64, mult & _M64, add >> 64, add & _M64))
            s_hi, s_lo = hi[: n + 1 - len(hi)], lo[: n + 1 - len(hi)]  # no more than the draw needs
            new_lo = s_lo * m_lo + a_lo
            new_hi = _mulhi(s_lo, m_lo) + s_hi * m_lo + s_lo * m_hi + a_hi + (new_lo < a_lo)
            hi, lo = np.concatenate([hi, new_hi]), np.concatenate([lo, new_lo])
            mult, add = mult * mult & _M128, (mult * add + add) & _M128
        self._state = int(hi[n]) << 64 | int(lo[n])
        hi, lo = hi[1 : n + 1], lo[1 : n + 1]
        x, rot = hi ^ lo, hi >> _U58  # XSL-RR
        out = x >> rot | x << ((_U64 - rot) & _U63)
        return low + span * ((out >> _U11) * 2.0**-53).reshape(shape)


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
    X[1:] = UniformStream(seed).uniform(-box, box, (count, chart.dim))
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
    degenerate = np.flatnonzero(degeneracy_ratios(W) < DEGENERACY_TOL)
    if len(degenerate):  # one warning per call, however many points
        warnings.warn(f"metric is degenerate at sampled point {X[degenerate[0]]}, the first of "
                      f"{len(degenerate)} of the {len(X)} sampled points where it is", DegenerateMetricWarning)
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
