"""The benchmark's traced mode runs against the package.

``perfbench/tracing.py`` looks functions up in the package by name and
rebinds the names one module imports from another, so a renamed or deleted
function, or a new import between modules, can break every traced benchmark
pass; these tests show it first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUARTIC = {
    "n": 2,
    "hamiltonian": "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2",
    "friction": 1.0,
    "queries": [{"point": [0.3, -0.2, 0.1, 0.4]}],
}


def run_traced(tmp_path, config, argv):
    """One traced ``perfbench/driver.py`` run: (process, result, spans)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # no bytecode cache next to the benchmark's sources
    env = {**os.environ, "PYTHONPATH": python_path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "driver.py"), str(result), str(spans), "--",
         argv[0], "--config", str(path), *argv[1:]],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(result.read_text()), json.loads(spans.read_text())


def test_traced_benchmark_command_counts_the_series_route(tmp_path):
    config = {
        **QUARTIC,
        "methods": ["series", "split", "pullback"],
        "series": {"order": 6},
        "splitting": {"steps": 4},
        "t_grid": [0.5],
    }
    proc, result, spans = run_traced(tmp_path, config, ["evolve-metric"])
    assert [line.split(",")[1] for line in proc.stdout.splitlines()[1:]] == ["series", "split", "pullback"]
    assert result["trace"]["evolution.propagate.series.calls"] > 0
    # the split and pullback integrations pass through the name the benchmark counts
    assert result["trace"]["dynamics._integrate.steps"] > 0
    assert spans["spans"]


@pytest.mark.parametrize(
    "argv", [["audit"], ["bracket", "--A", "q1*q2", "--B", "p1^2/2 + p2", "--C", "q1*p1"]], ids=["audit", "bracket"]
)
def test_traced_benchmark_runs_the_lane_commands(tmp_path, argv):
    config = {**QUARTIC, "metric": "friction-analytic", "samples": {"count": 20}, "t_max": 1.0}
    _, result, spans = run_traced(tmp_path, config, argv)
    assert result["trace"][f"cli.cmd_{argv[0]}.calls"] == 1
    assert spans["spans"]


def test_benchmark_names_resolve():
    # the tracer skips a listed method that its class does not define, so
    # that layer's metric would vanish without an error
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAZY.items():
        module = importlib.import_module(f"metricflow.{layer}")
        assert all(hasattr(module, name) for name in names), (layer, names)
    cli = importlib.import_module("metricflow.cli")
    assert all(hasattr(cli, name) for name in tracing.CLI_STEPS)
    for owner, methods in tracing.METHODS.items():
        layer, cls_name = owner.split(".")
        cls = getattr(importlib.import_module(f"metricflow.{layer}"), cls_name)
        assert all(name in vars(cls) for name in methods), (owner, methods)
