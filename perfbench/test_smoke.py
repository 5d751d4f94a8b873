"""Smoke test of the benchmark: one short pass per workload, traced and not.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It is not part of the tier-1 suite, whose ``testpaths`` name ``tests`` only.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric_without_failures():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0  # failed_ops = 0 on every workload
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) >= {w["name"] for w in spec["workloads"]}
    for workload, metrics in result["metrics"].items():
        assert names <= set(metrics), (workload, sorted(names - set(metrics)))
        for name in names:
            assert metrics[name]["unit"], (workload, name)
