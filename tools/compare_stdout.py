"""Compare two checkouts' command-line output on a fixed command set.

Usage::

    python3 tools/compare_stdout.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The set has 37 commands:

* the 21 ``metricflow`` invocations of the perfbench workloads at seed 1,
  whose configs ``perfbench/workloads.build`` writes once, from CHANGE's
  checkout, into a temporary directory that both sides read;
* the 4 demos, each checkout running its own files;
* ``classify``, ``evolve-metric``, ``audit`` and ``bracket`` on each of the
  3 demo configs, each checkout reading its own.

Each command runs in a fresh Python process per checkout, from its root and
with its ``src`` first on ``PYTHONPATH``.  For each command the script
prints ``same`` or each cell whose text moved, with the absolute difference
where both sides are numbers: a CSV cell by row and column, a JSON leaf by
its path, a demo's output by line and word.  It exits 1 if an exit code or
stderr differs, and 0 otherwise.  A run takes under a minute.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BRACKET = ["--A", "q1", "--B", "p1", "--C", "q1*p1"]
TIMEOUT_S = 300


def commands(change: Path, workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments of the Python interpreter) for each command."""
    sys.path.insert(0, str(change / "perfbench"))
    import workloads

    cli = ["-m", "metricflow.cli"]
    out = [(f"{name}: {inv.label}", cli + inv.argv)
           for name in workloads.WORKLOADS for inv in workloads.build(name, 1, workdir / name, change)]
    out += [(f"demo {demo.name}", [str(demo.relative_to(change))]) for demo in sorted(change.glob("demos/*.py"))]
    for config in sorted(change.glob("demos/configs/*.json")):
        path = str(config.relative_to(change))
        for command, extra in (("classify", []), ("evolve-metric", []), ("audit", []), ("bracket", BRACKET)):
            out.append((f"{command} {config.stem}", cli + [command, "--config", path, *extra]))
    return out


def run(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=tree, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def _leaves(value, path: str):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path or ".", json.dumps(value)


def cells(text: str) -> dict[str, str]:
    """The cells of one command's stdout, by name."""
    if text.startswith("t,method,"):  # evolve-metric's CSV
        header, *rows = csv.reader(io.StringIO(text))
        return {f"row {i} (t={row[0]}, {row[1]}) {column}": cell
                for i, row in enumerate(rows, 1) for column, cell in zip(header, row)}
    try:
        return dict(_leaves(json.loads(text), ""))
    except ValueError:
        return {f"line {i} word {j}": word
                for i, line in enumerate(text.splitlines(), 1) for j, word in enumerate(line.split(), 1)}


def moves(a: str, b: str) -> list[str]:
    """One line per cell of stdout ``a`` that moved in ``b``."""
    before, after = cells(a), cells(b)
    lines = []
    for name in [*before, *(k for k in after if k not in before)]:
        x, y = before.get(name, "(missing)"), after.get(name, "(missing)")
        if x != y:
            try:
                size = f"  |diff| {abs(float(x) - float(y)):.3g}"
            except ValueError:
                size = ""
            lines.append(f"    {name}: {x} -> {y}{size}")
    return lines or ["    the text moved outside the cells"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_stdout.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    same, moved, broken = 0, [], []
    with tempfile.TemporaryDirectory(prefix="compare_stdout_") as work:
        for label, args in commands(change, Path(work)):
            a, b = run(parent, args), run(change, args)
            if (a.returncode, a.stderr) != (b.returncode, b.stderr):
                broken.append(label)
                print(f"{label}: exit {a.returncode} -> {b.returncode}, stderr "
                      f"{'same' if a.stderr == b.stderr else f'{a.stderr[-300:]!r} -> {b.stderr[-300:]!r}'}")
            if a.stdout == b.stdout:
                same += 1
                print(f"{label}: same")
            else:
                moved.append(label)
                print(f"{label}: moved", *moves(a.stdout, b.stdout), sep="\n")
    print(f"summary: {same + len(moved)} commands, {same} same, {len(moved)} moved "
          f"({', '.join(moved) or 'none'}), {len(broken)} with another exit code or stderr")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
