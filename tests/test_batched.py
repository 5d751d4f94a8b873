"""The sampled-points engine against per-point references.

The references are the per-point loop bodies the batched code replaced:
``ref_helmholtz``, ``ref_invariance`` and ``ref_jacobi`` assemble one point
at a time, and ``ref_friction_value``/``ref_friction_d_dt`` build the
friction-analytic metric from ``metricflow.dynamics.expm`` and ``np.block``
(``test_properties`` checks that ``expm`` against ``scipy.linalg.expm``).
Every comparison is bitwise (``np.array_equal``).
"""

import numpy as np
import pytest
from scipy.linalg import expm

import metricflow.brackets as brackets_mod
import metricflow.dynamics as dynamics_mod
import metricflow.evolution as evolution_mod
import metricflow.exprlang as exprlang_mod
import metricflow.friction as friction_mod
import metricflow.helmholtz as helmholtz_mod
import metricflow.phasespace as phasespace_mod
from metricflow import (
    ConstantMetric,
    CoordinateChart,
    ExprMetric,
    FrictionAnalyticMetric,
    FrictionSystem,
    MetricField,
    Observable,
    PhasePoint,
    TransportedMetric,
    VectorFieldSpec,
    canonical_helmholtz,
    canonical_metric,
    classify,
    compressibility,
    helmholtz_residual,
    integrate_flow,
    invariance_residual,
    inverse_metric,
    jacobi_residual,
)
from metricflow.brackets import BracketFrame
from metricflow.cli import cmd_audit, cmd_bracket, cmd_classify, load_config
from metricflow.dynamics import compressibility_flow
from metricflow.evolution import invariance_residuals
from metricflow.exprlang import Num, differentiate, evaluate, simplify
from metricflow.helmholtz import helmholtz_residuals
from metricflow.phasespace import jacobi_residuals

QUARTIC = "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2"
FRICTIONS = {
    "scalar": 0.7,
    "diagonal": [0.3, 1.1],
    "coupled": [[1.0, 0.2], [0.1, 0.5]],
}


# ---------------------------------------------------------------------------
# Per-point references.


def ref_helmholtz(V, M, x):
    W = M.value(x.coords, x.time)
    D = M.d_dx(x.coords, x.time)
    Xv = V.eval(x.coords, x.time)
    A = V.jacobian(x.coords, x.time)
    E = np.einsum("klm,m->kl", D, Xv)
    F = (W @ A).T
    G = E + F
    return G - G.T


def ref_invariance(V, M, x):
    return M.d_dt(x.coords, x.time) - ref_helmholtz(V, M, x)


def ref_jacobi(M, x):
    D = M.d_dx(x.coords, x.time)
    R = D + np.transpose(D, (1, 2, 0)) + np.transpose(D, (2, 0, 1))
    return float(np.max(np.abs(R)))


def ref_friction_value(system, t0, t):
    if system.k_matrix is not None:
        G = dynamics_mod.expm((t - t0) * system.k_matrix)
    else:
        G = np.diag(np.exp(np.diag(system.friction_integral(t0, t))))
    Z = np.zeros_like(G)
    return np.block([[Z, G], [-G.T, Z]]), G


def ref_friction_d_dt(system, t0, t):
    _, G = ref_friction_value(system, t0, t)
    GK = G @ system.friction_at(t)
    Z = np.zeros_like(GK)
    return np.block([[Z, GK], [-GK.T, Z]])


class JetMemo(MetricField):
    """A field that computes each (point, time) jet once, read-only.  The
    per-point references read one point several times, and a transported
    field integrates the flow for each read."""

    def __init__(self, inner: MetricField):
        self.chart = inner.chart
        self.inner = inner
        self._jets = {}

    def jet(self, coords, time):
        key = (np.asarray(coords, dtype=float).tobytes(), float(time))
        if key not in self._jets:
            jet = self.inner.jet(coords, time)
            for arr in jet:
                arr.setflags(write=False)
            self._jets[key] = jet
        return self._jets[key]


# ---------------------------------------------------------------------------
# Metric cases: (field, metric, points) with repeated times among the points.


def _points(dim, count, seed, tmax):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (count, dim))
    T = rng.uniform(0.0, tmax, count) if tmax > 0 else np.zeros(count)
    T[: count // 4] = T[0]
    return X, T


def _case(name):
    chart = CoordinateChart(2)
    if name == "constant-canonical":
        V = VectorFieldSpec.from_hamiltonian(chart, QUARTIC, np.eye(2))
        return V, canonical_metric(chart), _points(4, 24, 1, 0.0)
    if name == "constant-generic":
        V = VectorFieldSpec.from_components(chart, ["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p2/2"])
        rng = np.random.default_rng(2)
        S = rng.uniform(-1.0, 1.0, (4, 4))
        return V, ConstantMetric(chart, S - S.T), _points(4, 24, 2, 0.0)
    if name == "expr":
        V = VectorFieldSpec.from_components(chart, ["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p2/2"])
        M = ExprMetric(
            chart,
            [
                ["0", "q1*t", "1+q2^2", "0"],
                ["-q1*t", "0", "sin(p2)", "1"],
                ["-(1+q2^2)", "-sin(p2)", "0", "p1*exp(-t)"],
                ["0", "-1", "-p1*exp(-t)", "0"],
            ],
        )
        return V, M, _points(4, 24, 3, 2.0)
    if name == "transported":
        chart1 = CoordinateChart(1)
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1 - q1^3 - 0.3*p1"])
        return V, JetMemo(TransportedMetric(canonical_metric(chart1), V)), _points(2, 6, 4, 1.0)
    kind = name.split("-", 1)[1]
    system = FrictionSystem.build(chart, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", FRICTIONS[kind])
    return system.vector_field, FrictionAnalyticMetric(system, t0=0.25), _points(4, 40, 5, 3.0)


CASES = [
    "constant-canonical",
    "constant-generic",
    "expr",
    "transported",
    "friction-scalar",
    "friction-diagonal",
    "friction-coupled",
]


class TestResidualsMatchPerPointReference:
    @pytest.mark.parametrize("name", CASES)
    def test_batched_and_single_point(self, name):
        V, M, (X, T) = _case(name)
        points = [PhasePoint(x, t) for x, t in zip(X, T)]
        W, D, Wt = M.jet_batch(X, T)
        B, d = len(X), V.chart.dim
        assert (W.shape, D.shape, Wt.shape) == ((B, d, d), (B, d, d, d), (B, d, d))
        ref_h = np.array([ref_helmholtz(V, M, x) for x in points])
        ref_i = np.array([ref_invariance(V, M, x) for x in points])
        ref_j = np.array([ref_jacobi(M, x) for x in points])
        assert np.array_equal(helmholtz_residuals(V, X, T, W, D), ref_h)
        assert np.array_equal(invariance_residuals(V, X, T, W, D, Wt), ref_i)
        assert np.array_equal(jacobi_residuals(D), ref_j)
        for b, x in enumerate(points):
            assert np.array_equal(helmholtz_residual(V, M, x), ref_h[b])
            assert np.array_equal(invariance_residual(V, M, x), ref_i[b])
            assert jacobi_residual(M, x) == ref_j[b]

    @pytest.mark.parametrize("name", CASES)
    def test_classify_matches_per_point_loop(self, name):
        V, M, (X, T) = _case(name)
        points = tuple(PhasePoint(x, t) for x, t in zip(X, T))
        report = classify(V, M, points=points)
        ref = [ref_helmholtz(V, M, x) for x in points]
        assert all(np.array_equal(r, s) for r, s in zip(report.residuals, ref))
        assert report.per_point_max == tuple(float(np.max(np.abs(r))) for r in ref)


class TestFrictionGrowth:
    @pytest.mark.parametrize("kind", sorted(FRICTIONS) + ["time-dependent"])
    def test_metric_matches_expm_and_block(self, kind):
        chart = CoordinateChart(2)
        friction = ["1 + t/2", "exp(-t)"] if kind == "time-dependent" else FRICTIONS[kind]
        system = FrictionSystem.build(chart, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", friction)
        M = FrictionAnalyticMetric(system, t0=0.25)
        X, T = _points(4, 8, 6, 3.0)
        W, D, Wt = M.jet_batch(X, T)
        assert not np.any(D)
        for b, t in enumerate(T):
            ref_W, _ = ref_friction_value(system, 0.25, float(t))
            ref_Wt = ref_friction_d_dt(system, 0.25, float(t))
            assert np.array_equal(W[b], ref_W)
            assert np.array_equal(Wt[b], ref_Wt)
            assert np.array_equal(M.value(X[b], t), ref_W)
            assert np.array_equal(M.d_dt(X[b], t), ref_Wt)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_diagonal_growth_is_expm_bit_for_bit(self, n):
        rng = np.random.default_rng(40 + n)
        chart = CoordinateChart(n)
        H = " + ".join(f"(p{i}^2 + q{i}^2)/2" for i in range(1, n + 1))
        for _ in range(5):
            k = rng.uniform(-3.0, 3.0, n)
            system = FrictionSystem.build(chart, H, list(k))
            t0 = float(rng.uniform(-1.0, 1.0))
            times = np.concatenate([rng.uniform(-20.0, 20.0, 40), [t0]])
            G = system.growth_matrices(t0, times)
            for b, t in enumerate(times):
                assert np.array_equal(G[b], expm((float(t) - t0) * system.k_matrix))


# ---------------------------------------------------------------------------
# Work counters.


def _count_calls(monkeypatch, target, attr):
    calls = []
    original = getattr(target, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, attr, counted)
    return calls


def _sampled_config(count, queries, friction=1.0):
    rng = np.random.default_rng(11)
    return load_config(
        {
            "n": 2,
            "hamiltonian": QUARTIC,
            "friction": friction,
            "metric": "friction-analytic",
            "samples": {"count": count, "seed": 3},
            "t_max": 3.0,
            "queries": [
                {"point": list(rng.uniform(-1.0, 1.0, 4)), "time": float(rng.uniform(0.0, 2.0))}
                for _ in range(queries)
            ],
        }
    )


def test_bracket_differentiates_independently_of_query_count(monkeypatch):
    modules = (exprlang_mod, phasespace_mod, dynamics_mod, friction_mod, helmholtz_mod, evolution_mod, brackets_mod)
    calls = []
    for mod in modules:
        for name in ("differentiate", "gradient"):
            if hasattr(mod, name):
                original = getattr(mod, name)

                def counted(e, var, _original=original):
                    calls.append(var)
                    return _original(e, var)

                monkeypatch.setattr(mod, name, counted)
    counts = []
    for queries in (10, 20):
        calls.clear()
        payload, _ = cmd_bracket(_sampled_config(5, queries), "q1*q2", "p1^2/2 + p2", "q1*p1")
        assert len(payload["queries"]["time"]) == queries
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_coupled_friction_growth_once_per_distinct_time(monkeypatch):
    cfg = _sampled_config(30, 0, friction=[[1.0, 0.2], [0.2, 0.5]])
    times = _count_calls(monkeypatch, FrictionSystem, "growth_matrix")
    expms = _count_calls(monkeypatch, friction_mod, "expm")
    cmd_classify(cfg)
    assert [args[2] for args in times] == [0.0]  # every sampled point has t = 0
    assert len(expms) == 1
    times.clear()
    expms.clear()
    cmd_audit(cfg)
    seen = [args[2] for args in times]
    assert len(seen) == len(set(seen)) == len(expms)
    assert len(seen) == 30 + 20  # the drawn times and the trajectory end times


def test_diagonal_friction_growth_without_expm(monkeypatch):
    cfg = _sampled_config(30, 0, friction=1.0)
    times = _count_calls(monkeypatch, FrictionSystem, "growth_matrix")
    expms = _count_calls(monkeypatch, friction_mod, "expm")
    cmd_classify(cfg)
    cmd_audit(cfg)
    assert times == [] and expms == []


# ---------------------------------------------------------------------------
# Differentiate once: divergence, canonical blocks, observables.


def _old_divergence_expr(V):
    acc = Num(0.0)
    for k, name in enumerate(V.chart.names):
        acc = acc + differentiate(V.components[k], name)
    return simplify(acc)


@pytest.mark.parametrize(
    "components",
    [["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p2/2"], ["p1*q2", "sin(q1)*p2", "-q1^3 - p1/3", "exp(-q2)*p2"]],
)
def test_divergence_is_trace_of_jacobian(components):
    V = VectorFieldSpec.from_components(CoordinateChart(2), components)
    assert V.divergence_expr == _old_divergence_expr(V)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = PhasePoint(rng.uniform(-1.0, 1.0, 4))
        assert compressibility(V, x) == evaluate(_old_divergence_expr(V), V.chart.env(x.coords, 0.0))


def _old_canonical_helmholtz(G, F, chart, x):
    n = chart.n
    env = chart.env(x.coords, x.time)
    qn, pn = chart.position_names, chart.momentum_names

    def d(e, name):
        return evaluate(differentiate(e, name), env)

    R1 = np.array([[d(G[i], pn[j]) - d(G[j], pn[i]) for j in range(n)] for i in range(n)])
    R2 = np.array([[d(G[j], qn[i]) + d(F[i], pn[j]) for j in range(n)] for i in range(n)])
    R3 = np.array([[d(F[i], qn[j]) - d(F[j], qn[i]) for j in range(n)] for i in range(n)])
    return R1, R2, R3


def test_canonical_blocks_are_jacobian_slices():
    chart = CoordinateChart(2)
    rng = np.random.default_rng(9)
    V = VectorFieldSpec.from_components(
        chart, ["p1 + 0.3*p2 + q1*q2", "p2 - p1^2 + q1", "-q1 + q2^2 - p1", "-sin(q2) + q1*p2 - p2"]
    )
    G, F = V.components[:2], V.components[2:]
    for _ in range(5):
        x = PhasePoint(rng.uniform(-1.0, 1.0, 4))
        for got, ref in zip(canonical_helmholtz(G, F, chart, x), _old_canonical_helmholtz(G, F, chart, x)):
            assert np.array_equal(got, ref)
    report = classify(V, canonical_metric(chart), count=10, seed=2)
    b = report.per_point_max.index(report.max_abs)
    worst = PhasePoint(report.coords[b], report.times[b])
    for got, ref in zip(report.canonical_blocks, _old_canonical_helmholtz(G, F, chart, worst)):
        assert np.array_equal(got, ref)


def _old_grad(e, chart, env):
    return np.array([evaluate(differentiate(e, name), env) for name in chart.names])


def test_brackets_match_interpreted_derivatives():
    """One frame per point gives the values of the per-call formulas."""
    chart = CoordinateChart(2)
    V = VectorFieldSpec.from_components(chart, ["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p2/2"])
    M = _case("expr")[1]
    A, B, C = (Observable.parse(s, chart) for s in ("q1*p2 + sin(q2)", "exp(p1/3) - q1^2", "q2*p1*p2"))
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = PhasePoint(rng.uniform(-1.0, 1.0, 4), float(rng.uniform(0.0, 1.0)))
        env = chart.env(x.coords, x.time)
        frame = BracketFrame(M, x.coords[None], [x.time])  # a frame of one point
        P = -inverse_metric(M, x)
        assert np.array_equal(frame.P, P[None])
        assert frame.bracket(A, B)[0] == float(_old_grad(A.expr, chart, env) @ P @ _old_grad(B.expr, chart, env))
        D = M.d_dx(x.coords, x.time)
        assert np.array_equal(frame.d_dx[0], np.array([P @ D[k] @ P for k in range(4)]))
        hess = np.array(
            [[evaluate(differentiate(differentiate(C.expr, a), b), env) for b in chart.names] for a in chart.names]
        )
        assert np.array_equal(C.hessian(chart, x.coords[None], x.time), hess[None])
        assert np.array_equal(C.gradient(chart, x.coords[None], x.time), _old_grad(C.expr, chart, env)[None])
        assert np.isfinite(frame.jacobi_residual(A, B, C)).all()
        defect = frame.leibniz_defect(A, B, V)
        assert defect.formula == pytest.approx(defect.numerical, abs=1e-6)


# ---------------------------------------------------------------------------
# One integration for the audit's trajectory end and its compressibility.


def test_compressibility_flow_end_and_integral(damped):
    rng = np.random.default_rng(12)
    for _ in range(3):
        x0 = PhasePoint(rng.uniform(-1.0, 1.0, 2))
        t = float(rng.uniform(0.2, 3.0))
        end, kap = compressibility_flow(damped, x0, t)
        assert kap == compressibility_flow(damped, x0, t)[1]  # the same bits on a second call
        assert kap == pytest.approx(-t, abs=1e-9)  # kappa = -1 for unit friction
        assert end.time == t
        assert np.allclose(end.coords, integrate_flow(damped, x0, t).end.coords, atol=1e-8)
    x0 = PhasePoint([0.3, 0.2], 1.0)
    assert compressibility_flow(damped, x0, 1.0) == (x0, 0.0)
