"""The demos are the README's library usage: each must run to completion,
and each demo config must run through every command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metricflow.cli import EXIT_NON_HAMILTONIAN, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))
COMMANDS = {"classify": [], "evolve-metric": [], "audit": [], "bracket": ["--A", "q1", "--B", "p1", "--C", "q1*p1"]}


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_demo_config_runs(config, command, capsys):
    damped = bool(json.loads(config.read_text()).get("friction"))
    expected = EXIT_NON_HAMILTONIAN if command == "classify" and damped else EXIT_OK
    assert main([command, "--config", str(config), *COMMANDS[command]]) == expected
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
    assert "error" not in captured.out
