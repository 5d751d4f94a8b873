"""Layered benchmark of the ``metricflow`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The workload's configs are written from
the seed under ``.perfbench_work/``.  Each pass runs the workload's
invocation list in a closed loop with one client: one fresh Python process
per ``metricflow`` command, each started after the previous one exits.
Passes repeat while the next one is expected to end within ``--seconds``
(at least one pass; with ``--trace 1`` at least one untraced and one traced).
A run reports the median over its passes; ``setup_s`` and ``cmd_s.p50`` pool
the processes of all passes.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics: calls, busy and self time per module boundary, counters,
layer shares of ``compute_s`` and the tracing overhead.  Every output is
checked (see ``workloads.py``); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` makes one short pass per workload at reduced sizes, traced and
untraced, and checks that every metric is emitted and nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER = HERE / "driver.py"
WORK = ROOT / ".perfbench_work"
INVOCATION_TIMEOUT_S = 150
IMPORTS = {"metricflow.cli": "import.metricflow_s", "scipy.linalg": "import.scipy_linalg_s",
           "scipy.integrate": "import.scipy_integrate_s"}
IMPORT_RE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| *(\S+)\s*$", re.M)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("METRICFLOW_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def provenance() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a checkout without git history reports none
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in thread_vars},
        "metricflow_threads": "unset" if "METRICFLOW_THREADS" not in os.environ
        else f"unset for the commands (was {os.environ['METRICFLOW_THREADS']!r})",
    }


class Runner:
    def __init__(self, workload: str, seed: int, small: bool = False):
        self.workdir = WORK / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.invocations = workloads.build(workload, seed, self.workdir, ROOT, small=small)
        self.env = child_env()
        self.errors: list[str] = []
        self.attempted = 0

    def warm_up(self) -> None:
        """Compile the package's bytecode and fill the file cache, untimed."""
        proc = subprocess.run([sys.executable, "-c", "import metricflow.cli"], env=self.env,
                              capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"cannot import metricflow.cli from {ROOT / 'src'}:\n{proc.stderr}")

    def run_pass(self, traced: bool) -> dict:
        """One closed-loop pass over the invocation list; per-pass metrics."""
        procs = []
        start = time.perf_counter()
        for i, inv in enumerate(self.invocations):
            result = self.workdir / f"result-{i}.json"
            result.unlink(missing_ok=True)
            spans = str(self.workdir / f"spans-{i}.json") if traced else "-"
            cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(DRIVER),
                   str(result), spans, "--", *inv.argv]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                      timeout=INVOCATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            procs.append((inv, proc, time.perf_counter() - t0, result))
        wall = time.perf_counter() - start

        records, cmd_s = [], []
        for inv, proc, elapsed, result in procs:
            self.attempted += 1
            error = "timed out" if proc is None else None
            if error is None and not result.exists():
                error = f"exit {proc.returncode} without a result:\n{proc.stderr[-2000:]}"
            if error is None:
                record = json.loads(result.read_text())
                error = inv.check(proc.stdout, proc.returncode)
                if traced:
                    for m in IMPORT_RE.finditer(proc.stderr):
                        if m.group(2) in IMPORTS:
                            record.setdefault("imports", {})[IMPORTS[m.group(2)]] = int(m.group(1)) / 1e6
                records.append(record)
                cmd_s.append(elapsed)
            if error is not None:
                self.errors.append(f"{inv.label}: {error}")
        if not records:
            fail("no invocation produced a result:\n" + "\n".join(self.errors[-5:]))
        out = {
            "wall_s": wall,
            "compute_s": sum(r["compute_s"] for r in records),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in records) / 1024.0,
            "setup_s": [r["setup_s"] for r in records],
            "cmd_s.p50": cmd_s,
        }
        if traced:
            out["layers"] = layer_metrics(records)
        return out


def layer_metrics(records: list[dict]) -> dict:
    """Sum the traced counters of one pass; imports are per-process medians."""
    total: dict[str, float] = {}
    for r in records:
        for k, v in r["trace"].items():
            total[k] = total.get(k, 0.0) + v
    for name in IMPORTS.values():
        total[name] = statistics.median(r.get("imports", {}).get(name, 0.0) for r in records)
    compute = total.get("trace.compute_s", 0.0)
    for layer in LAYERS:
        total[f"{layer}.share"] = total.get(f"{layer}.self_s", 0.0) / compute if compute else 0.0

    def ratio(num, den):
        return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

    total["phasespace.TransportedMetric.value.hit_ratio"] = ratio(
        "phasespace.TransportedMetric.value.hits", "phasespace.TransportedMetric.value.calls")
    steps = total.get("dynamics.integrate_flow.steps", 0.0)
    rejected = total.get("dynamics.integrate_flow.rejected", 0.0)
    total["dynamics.integrate_flow.accept_ratio"] = steps / (steps + rejected) if steps + rejected else 0.0
    return total


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Passes while the next is expected to end within ``seconds``: (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        do_trace = trace and len(traced) < len(plain)
        p = runner.run_pass(traced=do_trace)
        (traced if do_trace else plain).append(p)
        elapsed = time.perf_counter() - start
        print(f"  {'traced' if do_trace else 'untraced'} pass: wall {p['wall_s']:.3f} s, "
              f"compute {p['compute_s']:.3f} s")
        done = len(plain) + len(traced)
        if elapsed + elapsed / done > seconds and (traced or not trace):
            return plain, traced


def report_e2e(spec: dict, plain: list[dict], metrics: dict) -> None:
    """Medians over passes; per-process metrics pool the processes of all passes."""
    for m in spec["end_to_end"]:
        samples = [p[m["name"]] for p in plain]
        what = "passes"
        if isinstance(samples[0], list):
            samples = [v for per_pass in samples for v in per_pass]
            what = "processes"
        value = statistics.median(samples)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<14} {value:12.6g} {m['unit']:<6} median over {len(samples)} {what}")


def report_layers(spec: dict, plain: list[dict], traced: list[dict], metrics: dict) -> None:
    untraced = statistics.median(p["compute_s"] for p in plain)
    layers = [p["layers"] for p in traced]
    for lay in layers:
        lay["trace.untraced_compute_s"] = untraced
        lay["trace.overhead_s"] = lay["trace.compute_s"] - untraced
        lay["trace.overhead_ratio"] = lay["trace.overhead_s"] / untraced
    for m in spec["per_layer"]:
        value = statistics.median(lay.get(m["name"], 0.0) for lay in layers)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<52} {value:14.6g} {m['unit']}")
    shares = {k[:-6]: statistics.median(lay[k] for lay in layers) for k in layers[0] if k.endswith(".share")}
    print("  layer shares of traced compute_s: "
          + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))


def smoke() -> int:
    spec = load_spec()
    attempted = failed = 0
    emitted = {}
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, seed=0, small=True)
        runner.warm_up()
        plain = [runner.run_pass(traced=False)]
        traced = [runner.run_pass(traced=True)]
        metrics: dict = {}
        print(f"{workload}:")
        report_e2e(spec, plain, metrics)
        report_layers(spec, plain, traced, metrics)
        for e in runner.errors:
            print(f"  FAILED {e}", file=sys.stderr)
        print(f"  failed_ops {len(runner.errors) / runner.attempted:.3g} ratio")
        attempted += runner.attempted
        failed += len(runner.errors)
        emitted[workload] = metrics
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": emitted}))
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "metricflow" / "cli.py").is_file() or not (ROOT / "demos" / "configs").is_dir():
        fail(f"{ROOT} is not a metricflow checkout (src/metricflow and demos/configs are needed)")
    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = load_spec()
    runner = Runner(args.workload, abs(args.seed))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("closed loop, one client; invocations per pass:")
    for inv in runner.invocations:
        print(f"  metricflow {' '.join(inv.argv)}")
    runner.warm_up()
    plain, traced = measure(runner, args.seconds, bool(args.trace))
    print(f"{len(plain)} untraced and {len(traced)} traced passes of {len(runner.invocations)} invocations")
    metrics: dict = {}
    if args.trace:
        report_layers(spec, plain, traced, metrics)
    else:
        report_e2e(spec, plain, metrics)
    for e in runner.errors:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"  failed_ops {len(runner.errors) / runner.attempted:.3g} ratio "
          f"({len(runner.errors)} of {runner.attempted} invocations)")
    print(json.dumps({"correct": not runner.errors, "attempted": runner.attempted,
                      "failed": len(runner.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
