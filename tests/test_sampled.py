"""The sampled commands on arrays: seeded draws, stacked bracket frames and
the JSON writer, each against a test-local copy of the per-point code it
replaced.

* ``classify`` and ``audit`` take each sample set in one draw; the
  references are the per-row draw loops, compared bit for bit.  The draws
  come from ``UniformStream``, which is numpy's ``default_rng(seed).uniform``
  stream bit for bit.
* A :class:`BracketFrame` of B points gives the bits of the per-point
  frame formulas (copied here) and of B frames of one point.
* ``cli._dumps`` is ``json.dumps(value, indent=2, sort_keys=True)``, where
  an array stands for its ``tolist()`` and a ``Rows`` table for its list of
  records; ``classify`` and ``bracket`` print the records that their
  per-record dicts, copied here, gave.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import metricflow.brackets as brackets_mod
import metricflow.cli as cli_mod
import metricflow.dynamics as dynamics_mod
import metricflow.exprlang as exprlang_mod
from metricflow import (
    CoordinateChart,
    ExprMetric,
    FrictionAnalyticMetric,
    FrictionSystem,
    Observable,
    PhasePoint,
    VectorFieldSpec,
    canonical_metric,
    classify,
    leibniz_defect,
)
from metricflow.brackets import LEIBNIZ_DELTA, BracketFrame
from metricflow.cli import cmd_audit, cmd_bracket, cmd_classify, load_config, main
from metricflow.dynamics import flow_jet, flow_lanes
from metricflow.evolution import pullback_jet
from metricflow.exprlang import TIME_NAME, evaluate_compiled, gradient, simplify
from metricflow.helmholtz import UniformStream, sample_points
from metricflow.phasespace import invert_metrics

QUARTIC = "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2"


def _quartic_config(count: int, queries: int, seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "n": 2,
        "hamiltonian": QUARTIC,
        "friction": 1.0,
        "metric": "friction-analytic",
        "samples": {"count": count, "seed": seed, "box": 1.0},
        "t_max": 3.0,
        "queries": [
            {"point": rng.uniform(-1.0, 1.0, 4).tolist(), "time": float(rng.uniform(0.0, 2.0))}
            for _ in range(queries)
        ],
    }


# ---------------------------------------------------------------------------
# One draw per sample set: the streams of the per-row loops, bit for bit.


def _loop_sample_points(chart, count, seed, box, time):
    rng = np.random.default_rng(seed)
    pts = [PhasePoint(np.zeros(chart.dim), time)]
    pts += [PhasePoint(rng.uniform(-box, box, chart.dim), time) for _ in range(count)]
    return tuple(pts)


def _loop_audit_draws(seed, count, d, box, t_max):
    rng = np.random.default_rng(seed)
    X = np.empty((count, d))
    T = np.empty(count)
    for b in range(count):
        X[b] = rng.uniform(-box, box, d)
        T[b] = rng.uniform(0.0, t_max)
    draws = [(rng.uniform(-box, box, d), rng.uniform(0.2, t_max)) for _ in range(min(20, count))]
    return X, T, draws


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed, count, box, time", [(0, 1, 1.0, 0.0), (7, 50, 0.3, 1.5), (12345, 9, 2.5, -0.25)])
def test_classify_samples_are_the_loop_stream(n, seed, count, box, time):
    chart = CoordinateChart(n)
    ref = _loop_sample_points(chart, count, seed, box, time)
    X, T = sample_points(chart, count=count, seed=seed, box=box, time=time)
    assert np.array_equal(X, np.array([x.coords for x in ref]))
    assert np.array_equal(T, np.array([x.time for x in ref]))
    V = VectorFieldSpec.from_components(chart, [f"p{i + 1}" for i in range(n)] + [f"-q{i + 1}" for i in range(n)])
    report = classify(V, canonical_metric(chart), count=count, seed=seed, box=box, time=time)
    assert np.array_equal(report.coords, X) and np.array_equal(report.times, T)


@pytest.mark.parametrize(
    "n, seed, count, box, t_max",
    [(1, 0, 30, 1.0, 3.0), (2, 5, 7, 0.4, 1.5), (1, 123, 25, 2.5, 0.5), (3, 9, 21, 1.0, 6.0)],
)
def test_audit_samples_and_trajectories_are_the_loop_stream(monkeypatch, n, seed, count, box, t_max):
    seen = {}
    residuals, lanes = cli_mod.invariance_residuals, cli_mod.flow_lanes

    def record_residuals(V, X, T, *rest):
        seen["X"], seen["T"] = np.array(X), np.array(T)
        return residuals(V, X, T, *rest)

    def record_lanes(V, X0, durations, *rest, **kwargs):
        seen["X0"], seen["durations"] = np.array(X0), np.array(durations)
        return lanes(V, X0, durations, *rest, **kwargs)

    monkeypatch.setattr(cli_mod, "invariance_residuals", record_residuals)
    monkeypatch.setattr(cli_mod, "flow_lanes", record_lanes)
    H = " + ".join(f"(p{i}^2 + q{i}^2)/2" for i in range(1, n + 1))
    cfg = load_config({
        "n": n, "hamiltonian": H, "friction": 0.5, "metric": "friction-analytic",
        "samples": {"count": count, "seed": seed, "box": box}, "t_max": t_max,
    })
    payload, _ = cmd_audit(cfg)
    X, T, draws = _loop_audit_draws(seed, count, 2 * n, box, t_max)
    assert np.array_equal(seen["X"], X) and np.array_equal(seen["T"], T)
    # the trajectory draws follow, so the stream position after the samples is pinned
    assert payload["samples"]["trajectories"] == len(draws) == len(seen["X0"])
    assert np.array_equal(seen["X0"], [x0 for x0, _ in draws])
    assert seen["durations"].tolist() == [t for _, t in draws]


_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128 + 5]), st.integers(0, 2**200))
_BOUND = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.lists(st.integers(0, 9), max_size=2), st.integers(1, 4), st.booleans(), st.data())
def test_uniform_stream_is_numpys_default_rng(seed, lead, cols, per_column, data):
    # two successive draws, each of scalar or per-column bounds, against numpy's generator
    rng, stream = np.random.default_rng(seed), UniformStream(seed)
    for shape in ((*lead, cols), (data.draw(st.integers(0, 30)), cols)):
        ends = data.draw(st.lists(st.tuples(_BOUND, _BOUND), min_size=cols, max_size=cols))
        low, high = np.array([min(e) for e in ends]), np.array([max(e) for e in ends])
        if not per_column:
            low, high = low[0], high[0]
        assert np.array_equal(stream.uniform(low, high, shape), rng.uniform(low, high, shape))


def test_uniform_stream_seeds_are_non_negative_integers():
    assert np.array_equal(UniformStream(np.uint64(2**63)).uniform(0.0, 1.0, (3,)),
                          np.random.default_rng(2**63).uniform(0.0, 1.0, (3,)))
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValueError, match="non-negative integer"):
            UniformStream(seed)


# ---------------------------------------------------------------------------
# Stacked bracket frames against the per-point frame formulas.


def _time_derivative(A, V):
    """dA/dt = d_t A + X^k d_k A along the flow of V, as the symbolic observable
    that the bracket frame once formed per field."""
    dt, *grad = gradient(A.expr, (TIME_NAME,) + V.chart.names)
    return Observable(simplify(sum((c * g for c, g in zip(V.components, grad)), dt)))


def _point_frame_values(M, V, A, B, C, x):
    """The per-point BracketFrame's bracket, Jacobi residual and Leibniz
    formula at ``x``, as it computed them."""
    chart, d = M.chart, M.chart.dim
    W, dW_dx, dW_dt = M.jet(x.coords, x.time)
    P = -invert_metrics(W[None])[0]
    dP, dPt = P @ dW_dx @ P, P @ dW_dt @ P

    def grad(o):
        return evaluate_compiled(o._compiled("grad", chart), chart, x.coords, x.time)

    def hess(o):
        return evaluate_compiled(o._compiled("hess", chart), chart, x.coords, x.time).reshape(d, d)

    obs = (A, B, C)
    grads, hessians = [grad(o) for o in obs], [hess(o) for o in obs]

    def nested(i, j, k):
        gj, gk, hj, hk = grads[j], grads[k], hessians[j], hessians[k]
        inner_grad = (
            np.einsum("mkl,k,l->m", dP, gj, gk)
            + np.einsum("kl,mk,l->m", P, hj, gk)
            + np.einsum("kl,k,ml->m", P, gj, hk)
        )
        return float(grads[i] @ P @ inner_grad)

    Xv, J = V.eval(x.coords, x.time), V.jacobian(x.coords, x.time)
    D = dPt + np.einsum("m,mkl->kl", Xv, dP) - J @ P - P @ J.T
    return (
        float(grads[0] @ P @ grads[1]),
        nested(0, 1, 2) + nested(1, 2, 0) + nested(2, 0, 1),
        float(grads[0] @ D @ grads[1]),
        float(grad(_time_derivative(A, V)) @ P @ grads[1]),
    )


def _bracket_cases():
    chart = CoordinateChart(2)
    V = VectorFieldSpec.from_components(chart, ["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p2/2"])
    expr = ExprMetric(
        chart,
        [
            ["0", "q1*t", "1+q2^2", "0"],
            ["-q1*t", "0", "sin(p2)", "1"],
            ["-(1+q2^2)", "-sin(p2)", "0", "p1*exp(-t)"],
            ["0", "-1", "-p1*exp(-t)", "0"],
        ],
    )
    system = FrictionSystem.build(chart, QUARTIC, [[1.0, 0.2], [0.1, 0.5]])
    return [(V, expr, 2.0), (system.vector_field, FrictionAnalyticMetric(system, t0=0.25), 3.0)]


def _frame_points(case: int, t_max: float) -> list:
    rng = np.random.default_rng(31 + case)
    return [PhasePoint(rng.uniform(-1.0, 1.0, 4), float(rng.uniform(0.0, t_max))) for _ in range(24)]


@pytest.mark.parametrize("case", [0, 1])
def test_stacked_frame_has_the_bits_of_the_point_formulas(case):
    V, M, t_max = _bracket_cases()[case]
    chart = M.chart
    A, B, C = (Observable.parse(s, chart) for s in ("q1*p2*t + sin(q2)", "exp(p1/3) - q1^2*t", "q2*p1*p2"))
    points = _frame_points(case, t_max)
    frame = BracketFrame(M, np.array([x.coords for x in points]), [x.time for x in points])
    brackets, jacobi = frame.bracket(A, B), frame.jacobi_residual(A, B, C)
    defect = frame.leibniz_defect(A, B, V)
    adot = frame.bracket(_time_derivative(A, V), B)
    assert frame.P.shape == (24, 4, 4) and brackets.shape == jacobi.shape == defect.formula.shape == (24,)
    for b, x in enumerate(points):
        ref = _point_frame_values(M, V, A, B, C, x)
        assert (brackets[b], jacobi[b], defect.formula[b], adot[b]) == ref
        one = leibniz_defect(A, B, V, M, x)
        assert (one.formula, one.numerical) == (defect.formula[b], defect.numerical[b])


@pytest.mark.parametrize("case", [0, 1])
def test_leibniz_numerical_matches_the_symbolic_time_derivatives(case):
    # the frame forms grad dA/dt from the Hessian of A and the field's Jacobian;
    # the reference differentiates the symbolic dA/dt, from the same +-delta flows
    V, M, t_max = _bracket_cases()[case]
    chart = M.chart
    A, B = (Observable.parse(s, chart) for s in ("q1*p2*t + sin(q2)", "exp(p1/3) - q1^2*t"))
    points = _frame_points(case, t_max)
    X, T = np.array([x.coords for x in points]), np.array([x.time for x in points])
    frame = BracketFrame(M, X, T)
    numerical = frame.leibniz_defect(A, B, V).numerical
    T1 = np.repeat(T, 2) + np.tile([LEIBNIZ_DELTA, -LEIBNIZ_DELTA], 24)
    Y, _ = flow_lanes(V, np.repeat(X, 2, axis=0), T1 - np.repeat(T, 2))
    c = BracketFrame(M, Y[:, :4], T1).bracket(A, B)
    ref = ((c[::2] - c[1::2]) / (2.0 * LEIBNIZ_DELTA) - frame.bracket(_time_derivative(A, V), B)
           - frame.bracket(A, _time_derivative(B, V)))
    assert np.max(np.abs(numerical - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# Work counters.


def _count_points(monkeypatch) -> list:
    built = []
    original = PhasePoint.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PhasePoint, "__post_init__", counted)
    return built


def test_classify_builds_no_point_per_sample(monkeypatch):
    built = _count_points(monkeypatch)
    payload, _ = cmd_classify(load_config(_quartic_config(4000, 0)))
    assert len(payload["per_point"]["time"]) == 4001
    assert built == []


def test_bracket_and_one_lane_jets_build_no_point(monkeypatch):
    built = _count_points(monkeypatch)
    payload, _ = cmd_bracket(load_config(_quartic_config(10, 50)), "q1*q2", "p1^2/2 + p2", "q1*p1")
    assert len(payload["queries"]["time"]) == 50 and "leibniz" in payload["queries"]
    V = VectorFieldSpec.from_components(CoordinateChart(1), ["p1", "-q1 - q1^2*p1"])
    flow_jet(V, np.array([0.3, -0.2]), -0.5)
    pullback_jet(V, canonical_metric(V.chart), np.array([0.3, -0.2]), 0.5)
    assert built == []


def test_field_and_jacobian_are_compiled_once(monkeypatch):
    compiled = []
    compile_vector = dynamics_mod.compile_vector

    def counted(exprs, chart):
        compiled.extend(exprs)
        return compile_vector(exprs, chart)

    monkeypatch.setattr(dynamics_mod, "compile_vector", counted)
    V = VectorFieldSpec.from_components(CoordinateChart(2), ["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p1*p2/2"])
    X = np.array([[0.3, -0.2, 0.1, 0.4], [-0.1, 0.5, 0.2, -0.3]])
    V.eval(X[0])
    V.jacobian(X[1])
    V.eval_jacobian(X)
    flow_lanes(V, X, [0.5, -0.5])
    assert V.constant_jacobian is None
    assert compiled == [e for row in V.jacobian_exprs for e in row] + list(V.components)


def test_bracket_evaluates_each_observable_once_per_frame(monkeypatch):
    batches, singles = [], []
    batch, single = brackets_mod.evaluate_batch, exprlang_mod.evaluate_compiled

    def counted_batch(compiled, chart, X, time):
        batches.append((id(compiled), len(X)))
        return batch(compiled, chart, X, time)

    def counted_single(compiled, *args):
        singles.append(id(compiled))
        return single(compiled, *args)

    monkeypatch.setattr(brackets_mod, "evaluate_batch", counted_batch)
    monkeypatch.setattr(exprlang_mod, "evaluate_compiled", counted_single)
    Q = 12
    payload, _ = cmd_bracket(load_config(_quartic_config(10, Q)), "q1*q2", "p1^2/2 + p2", "q1*p1")
    assert len(payload["queries"]["time"]) == Q
    # the query frame: gradients of A, B, C, dA/dt, dB/dt and Hessians of
    # A, B, C; the frame of the 2Q Leibniz end points: gradients of A and B
    assert Counter(rows for _, rows in batches) == {Q: 8, 2 * Q: 2}
    assert len(set(batches)) == len(batches)
    assert not {key for key, _ in batches} & set(singles)


# ---------------------------------------------------------------------------
# The JSON writer.

_leaves = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats().map(np.float64)
    | st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1e-300, 2.0**1023])
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.booleans()
    | st.none()
    | st.text(max_size=6)
    | st.sampled_from(["\x00", "a\x00b", "\n\t\x1f\x7f", "é \U0001f600", '"\\', ""])
)
_keys = st.text(max_size=4) | st.sampled_from(["\x00", "a\x00", "é"])
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_writer_is_indented_sorted_json_dumps(value):
    assert cli_mod._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_on_nested_empty_containers():
    for value in ({}, [], (), [[]], {"a": {}}, {"b": [[], {}], "a": ()}, [{}, [[]]]):
        assert cli_mod._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# Tables and arrays: laid out from their columns and shapes.

_column_leaves = {
    np.float64: st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-300, 2.0**1023]),
    np.int64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    np.bool_: st.booleans(),
}
_column_keys = st.text(max_size=3) | st.sampled_from(["%", "%s", "a%%b", "\x00", '"\\', "é\U0001f600"])


def _column(rows: int):
    """An array over ``rows`` records: a leaf, a row of 0-2 or a matrix per record."""
    return st.tuples(st.sampled_from(list(_column_leaves)), st.lists(st.integers(0, 2), max_size=2)).flatmap(
        lambda spec: hnp.arrays(spec[0], (rows, *spec[1]), elements=_column_leaves[spec[0]])
    )


def _column_dict(rows: int, depth: int = 1):
    """A dict of columns over ``rows`` records, with dicts of columns ``depth`` levels deep."""
    inner = _column(rows) | _column_dict(rows, depth - 1) if depth else _column(rows)
    return st.dictionaries(_column_keys, inner, max_size=3)


def _records(columns: dict, rows: int) -> list:
    """The list of dicts a table stands for; a table with no array has no rows."""

    def record(cols: dict, i: int) -> dict:
        return {k: record(c, i) if isinstance(c, dict) else c[i].tolist() for k, c in cols.items()}

    def arrays(cols: dict) -> bool:
        return any(arrays(c) if isinstance(c, dict) else True for c in cols.values())

    return [record(columns, i) for i in range(rows if arrays(columns) else 0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3).flatmap(lambda rows: st.tuples(st.just(rows), _column_dict(rows), _column(rows))))
def test_writer_lays_out_tables_and_arrays_as_json_dumps(drawn):
    rows, columns, array = drawn
    arrays = [array, *map(np.asarray, array[:1]), np.array(-0.0)]  # with its first row, and a 0-d array
    value = {"table": cli_mod.Rows(columns), "arrays": arrays, "%s": 1}
    reference = {"table": _records(columns, rows), "arrays": [a.tolist() for a in arrays], "%s": 1}
    assert cli_mod._dumps(value) == json.dumps(reference, indent=2, sort_keys=True)
    assert cli_mod._dumps(cli_mod.Rows(columns)) == json.dumps(_records(columns, rows), indent=2, sort_keys=True)
    assert cli_mod._dumps(array) == json.dumps(array.tolist(), indent=2, sort_keys=True)


@pytest.mark.parametrize("metric", ["friction-analytic", "canonical"])
def test_classify_and_bracket_print_their_records(tmp_path, capsys, metric):
    data = {**_quartic_config(200, 12), "metric": metric}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    cfg = load_config(data)
    fsys = FrictionSystem.build(cfg.chart, QUARTIC, 1.0)
    M = canonical_metric(cfg.chart) if metric == "canonical" else FrictionAnalyticMetric(fsys)
    report = classify(fsys.vector_field, M, count=cfg.samples_count, seed=cfg.samples_seed, box=cfg.samples_box)
    # the per-record dicts that classify and bracket once built
    ref = {
        "verdict": report.verdict,
        "max_abs": report.max_abs,
        "tolerance": report.tol,
        "per_point": [
            {"point": x, "time": t, "max_abs": m}
            for x, t, m in zip(report.coords.tolist(), report.times.tolist(), report.per_point_max)
        ],
    }
    if metric == "canonical":
        R1, R2, R3 = report.canonical_blocks
        ref["canonical_blocks"] = {
            "positions_antisymmetry": R3.tolist(),
            "cross_symmetry": R2.tolist(),
            "momenta_antisymmetry": R1.tolist(),
        }
    assert main(["classify", "--config", str(path)]) == cli_mod.EXIT_NON_HAMILTONIAN
    assert capsys.readouterr().out == json.dumps(ref, indent=2, sort_keys=True) + "\n"

    frame = BracketFrame(M, cfg.query_coords, cfg.query_times)
    A, B, C = (Observable.parse(text, cfg.chart) for text in ("q1*q2", "p1^2/2 + p2", "q1*p1"))
    defect = frame.leibniz_defect(A, B, fsys.vector_field, opts=cfg.integrator)
    columns = {
        "point": frame.X.tolist(),
        "time": frame.T.tolist(),
        "bracket": frame.bracket(A, B).tolist(),
        "jacobi_residual": frame.jacobi_residual(A, B, C).tolist(),
        "leibniz": [{"formula": f, "numerical": n} for f, n in zip(defect.formula.tolist(), defect.numerical.tolist())],
    }
    ref = {"queries": [dict(zip(columns, row)) for row in zip(*columns.values())]}
    assert main(["bracket", "--config", str(path), "--A", "q1*q2", "--B", "p1^2/2 + p2", "--C", "q1*p1"]) == 0
    assert capsys.readouterr().out == json.dumps(ref, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Every JSON output is indented, sorted json.dumps.


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify"], cli_mod.EXIT_NON_HAMILTONIAN),
        (["audit"], cli_mod.EXIT_OK),
        (["bracket", "--A", "q1*q2", "--B", "p1^2/2 + p2", "--C", "q1*p1"], cli_mod.EXIT_OK),
        (["bracket", "--A", "sqrt(q1 - 5)", "--B", "p1"], cli_mod.EXIT_CONFIG),  # a domain error
    ],
)
def test_cli_output_is_indented_sorted_json(tmp_path, capsys, argv, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_quartic_config(40, 5)))
    assert main([argv[0], "--config", str(path), *argv[1:]]) == expected
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
