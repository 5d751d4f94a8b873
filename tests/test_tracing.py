"""The benchmark's traced mode runs against the package.

``perfbench/tracing.py`` looks functions up in the package by name, so a
renamed or deleted one breaks every traced benchmark pass; this test shows
it first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_command_counts_the_series_route(tmp_path):
    config = tmp_path / "quartic.json"
    config.write_text(json.dumps({
        "n": 2,
        "hamiltonian": "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2",
        "friction": 1.0,
        "methods": ["series", "split", "pullback"],
        "series": {"order": 6},
        "splitting": {"steps": 4},
        "t_grid": [0.5],
        "queries": [{"point": [0.3, -0.2, 0.1, 0.4]}],
    }))
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # no bytecode cache next to the benchmark's sources
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "driver.py"), str(result), str(spans), "--",
         "evolve-metric", "--config", str(config)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split(",")[1] for line in proc.stdout.splitlines()[1:]] == ["series", "split", "pullback"]
    trace = json.loads(result.read_text())["trace"]
    assert trace["evolution.propagate.series.calls"] > 0
    assert json.loads(spans.read_text())["spans"]
