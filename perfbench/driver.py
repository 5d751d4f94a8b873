"""Run one ``metricflow`` command in this process, as the console script does.

Usage::

    python3 perfbench/driver.py RESULT_JSON SPANS_JSON|- -- COMMAND [ARGS...]

The driver times ``import metricflow.cli`` from its own start, then calls
``cli.main(argv)`` and times that.  The command's output goes to stdout
unchanged and the exit code is the command's.  RESULT_JSON receives the
timings and the peak RSS.  When SPANS_JSON is not ``-``, the package is
traced (see ``tracing.py``), the spans are written to SPANS_JSON and their
summary is added to RESULT_JSON.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import metricflow.cli as cli  # noqa: E402

_IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: driver.py RESULT_JSON SPANS_JSON|- -- COMMAND [ARGS...]")
    tracer = None
    entry = cli.main
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, "cli.main")
    start = time.perf_counter()
    try:
        code = entry(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    compute = time.perf_counter() - start
    record = {
        "setup_s": _IMPORTED - _START,
        "compute_s": compute,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_spans(spans_path, invocation=" ".join(argv))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
