"""The metric-field protocol: one jet (W, dW/dx, dW/dt) per representation.

Every representation implements exactly one of ``jet`` and ``jet_batch``
and inherits ``value``, ``d_dx`` and ``d_dt``, which read the jet.  The two
jet methods agree bit for bit, and the consumers read one jet per point.
"""

import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import metricflow
from metricflow import (
    ConstantMetric,
    CoordinateChart,
    ExprMetric,
    FrictionAnalyticMetric,
    FrictionSystem,
    MetricField,
    Observable,
    SeriesPropagator,
    TransportedMetric,
    canonical_metric,
)
from metricflow.brackets import BracketFrame
from metricflow.cli import cmd_bracket, load_config, main
from metricflow.evolution import SeriesMetric, SplitMetric
from metricflow.exprlang import DomainError, differentiate, evaluate, parse

QUARTIC = "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2"
READERS = ("value", "d_dx", "d_dt")


def representations():
    classes = set()
    for info in pkgutil.iter_modules(metricflow.__path__):
        module = importlib.import_module(f"metricflow.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, MetricField) and cls is not MetricField and cls.__module__.startswith("metricflow"):
                classes.add(cls)
    return sorted(classes, key=lambda cls: cls.__qualname__)


def test_every_representation_implements_one_jet_method():
    classes = representations()
    assert {c.__name__ for c in classes} >= {
        "ConstantMetric",
        "ExprMetric",
        "FrictionAnalyticMetric",
        "TransportedMetric",
        "SeriesMetric",
        "SplitMetric",
    }
    for cls in classes:
        implemented = [name for name in ("jet", "jet_batch") if getattr(cls, name) is not getattr(MetricField, name)]
        assert len(implemented) == 1, (cls, implemented)
        for name in READERS:
            assert getattr(cls, name) is getattr(MetricField, name), (cls, name)


# ---------------------------------------------------------------------------
# jet_batch against the stacked one-point jets, bit for bit.


def _points(dim, count, seed, tmax):
    """Half the points share one time, the rest have distinct times."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.8, 0.8, (count, dim))
    T = rng.uniform(0.05, tmax, count)
    T[: count // 2] = T[0]
    return X, T


def _field(name):
    chart = CoordinateChart(2)
    quartic = FrictionSystem.build(chart, QUARTIC, 1.0).vector_field
    if name == "constant":
        rng = np.random.default_rng(1)
        S = rng.uniform(-1.0, 1.0, (4, 4))
        return ConstantMetric(chart, S - S.T)
    if name == "expr":
        return ExprMetric(
            chart,
            [
                ["0", "q1*t", "1+q2^2", "0"],
                ["-q1*t", "0", "sin(p2)", "1"],
                ["-(1+q2^2)", "-sin(p2)", "0", "p1*exp(-t)"],
                ["0", "-1", "-p1*exp(-t)", "0"],
            ],
        )
    if name.startswith("friction-"):
        friction = {
            "friction-diagonal": [0.3, 1.1],
            "friction-coupled": [[1.0, 0.2], [0.1, 0.5]],
            "friction-time-dependent": ["1 + t/2", "exp(-t)"],
        }[name]
        return FrictionAnalyticMetric(FrictionSystem.build(chart, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", friction), t0=0.25)
    if name == "transported":
        return TransportedMetric(canonical_metric(chart), quartic)
    if name == "split":
        return SplitMetric(quartic, canonical_metric(chart).matrix, 3)
    if name == "series-generic":
        return SeriesMetric(quartic, _field("constant").matrix, order=5)
    if name == "series-linear":
        damped = FrictionSystem.build(chart, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", [0.3, 1.1]).vector_field
        return SeriesMetric(damped, _field("constant").matrix)
    raise KeyError(name)


FIELDS = [
    "constant",
    "expr",
    "friction-diagonal",
    "friction-coupled",
    "friction-time-dependent",
    "transported",
    "split",
    "series-generic",
    "series-linear",
]


@pytest.mark.parametrize("name", FIELDS)
def test_jet_batch_is_the_stacked_jets(name):
    M = _field(name)
    X, T = _points(4, 6, 7, 1.0)
    batch = M.jet_batch(X, T)
    jets = [_field(name).jet(x, t) for x, t in zip(X, T)]  # a fresh field: no memo is shared
    for part, stacked in zip(batch, zip(*jets)):
        assert part.shape[0] == len(X)
        assert np.array_equal(part, np.array(stacked))
    for b, (x, t) in enumerate(zip(X, T)):
        assert np.array_equal(M.value(x, t), batch[0][b])
        assert np.array_equal(M.d_dx(x, t), batch[1][b])
        assert np.array_equal(M.d_dt(x, t), batch[2][b])


def test_coupled_friction_expm_once_per_distinct_time(monkeypatch):
    M = _field("friction-coupled")
    seen = []
    original = FrictionSystem.growth_matrix

    def counted(self, t0, t):
        seen.append(t)
        return original(self, t0, t)

    monkeypatch.setattr(FrictionSystem, "growth_matrix", counted)
    X, T = _points(4, 8, 8, 2.0)
    M.jet_batch(X, T)
    assert sorted(seen) == sorted(set(T.tolist()))


# ---------------------------------------------------------------------------
# Consumers read one jet per point.


def _count_jets(monkeypatch):
    """Record every jet call as (field, time); covers inherited jets."""
    calls = []
    for cls in [MetricField] + representations():
        if "jet" in vars(cls):
            def counted(self, coords, time, _original=vars(cls)["jet"]):
                calls.append((self, float(time)))
                return _original(self, coords, time)

            monkeypatch.setattr(cls, "jet", counted)
    return calls


def test_evolve_metric_reads_one_jet_per_row(tmp_path, monkeypatch, capsys):
    calls = _count_jets(monkeypatch)
    propagations = []
    original = SeriesPropagator.propagate

    def propagate(self, t, *args, **kwargs):
        propagations.append(t)
        return original(self, t, *args, **kwargs)

    monkeypatch.setattr(SeriesPropagator, "propagate", propagate)
    grid = [0.0, 0.25, 0.5]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "n": 2,
        "hamiltonian": QUARTIC,
        "friction": 1.0,
        "metric": "canonical",
        "t_grid": grid,
        "series": {"order": 6},
        "splitting": {"steps": 3},
        "queries": [{"point": [0.3, -0.2, 0.1, 0.4], "time": 0.0}],
    }))
    assert main(["evolve-metric", "--config", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * len(grid)
    # the initial metric is read by the pullback's congruence; every route's
    # field is read once per row
    rows = {}
    for field, t in calls:
        if not isinstance(field, ConstantMetric):
            rows.setdefault(field, []).append(t)
    assert sorted(type(f).__name__ for f in rows) == [
        "FrictionAnalyticMetric", "SeriesMetric", "SplitMetric", "TransportedMetric"
    ]
    assert all(times == grid for times in rows.values())
    assert propagations == grid


def test_bracket_frame_reads_one_jet(monkeypatch):
    calls = _count_jets(monkeypatch)
    frames, batches = [], []
    original = BracketFrame.__init__
    original_batch = FrictionAnalyticMetric.jet_batch

    def init(self, M, X, T):
        frames.append(list(T))
        original(self, M, X, T)

    def jet_batch(self, X, T):
        batches.append(list(T))
        return original_batch(self, X, T)

    monkeypatch.setattr(BracketFrame, "__init__", init)
    monkeypatch.setattr(FrictionAnalyticMetric, "jet_batch", jet_batch)
    chart = CoordinateChart(2)
    M = _field("friction-diagonal")
    A, B, C = (Observable.parse(s, chart) for s in ("q1*q2", "p1^2/2 + p2", "q1*p1"))
    frame = BracketFrame(M, np.array([[0.1, -0.3, 0.2, 0.4]]), [0.7])
    frame.bracket(A, B)
    frame.jacobi_residual(A, B, C)
    frame.d_dt
    # a frame of one point reads its one jet in one jet_batch
    assert len(frames) == 1 and batches == [[0.7]] and not calls
    cfg = load_config({
        "n": 2,
        "hamiltonian": QUARTIC,
        "friction": 1.0,
        "metric": "friction-analytic",
        "queries": [{"point": [0.2 * i, -0.1, 0.3, 0.1 * i], "time": 0.1 * i} for i in range(4)],
    })
    calls.clear()
    frames.clear()
    batches.clear()
    payload, _ = cmd_bracket(cfg, "q1*q2", "p1^2/2 + p2", "q1*p1")
    # one frame of the 4 query points and one of the 8 Leibniz difference
    # points, each point read once: one batch per frame, no single jet
    assert len(payload["queries"]["time"]) == 4
    assert [len(times) for times in frames] == [4, 8] and not calls
    assert batches == frames


# ---------------------------------------------------------------------------
# ExprMetric evaluates its value and derivatives together.


def test_expr_metric_value_fails_where_a_derivative_entry_fails():
    chart = CoordinateChart(1)
    M = ExprMetric(chart, [["0", "sqrt(q1)"], ["-sqrt(q1)", "0"]])
    env = chart.env([0.0, 0.5], 0.0)
    assert evaluate(parse("sqrt(q1)", chart), env) == 0.0
    with pytest.raises(DomainError) as ref:
        evaluate(differentiate(parse("sqrt(q1)", chart), "q1"), env)
    for read in (M.value, M.d_dx, M.d_dt, M.jet):
        with pytest.raises(DomainError) as exc:
            read([0.0, 0.5], 0.0)
        assert exc.value.node == ref.value.node
        assert str(exc.value) == str(ref.value)
    # away from 0 every entry has a value
    W, D, Wt = M.jet([0.25, 0.5], 0.0)
    assert W[0, 1] == 0.5 and D[0, 0, 1] == 1.0 and not Wt.any()
