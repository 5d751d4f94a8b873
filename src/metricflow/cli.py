"""Batch commands over declarative system definitions.

Systems are described in a JSON config (expressions as strings under the
chart), and four subcommands emit machine-readable reports:

* ``classify``      -- Hamiltonian verdict as JSON (exit 0 / 10)
* ``evolve-metric`` -- metric evolution on a time grid as CSV
* ``audit``         -- invariance / Jacobi / volume-law residuals as JSON
* ``bracket``       -- bracket values, Jacobi residual, Leibniz defect

Exit codes: 0 success, 10 non-Hamiltonian verdict, 20 audit failure,
64 usage errors, 65 config or expression errors, 70 runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import locale  # noqa: F401  argparse's gettext imports it on first use; not inside a command
import math
import sys
from dataclasses import dataclass

import numpy as np

from .brackets import BracketFrame, Observable
from .dynamics import IntegrationError, IntegratorOptions, VectorFieldSpec, finite_number, flow_lanes
from .evolution import (
    EvolutionError,
    SeriesMetric,
    SplitMetric,
    TransportedMetric,
    invariance_residuals,
)
from .exprlang import TIME_NAME, CoordinateChart, DomainError, ExprError, free_vars
from .friction import FrictionAnalyticMetric, FrictionError, FrictionSystem, applicability_check, read_friction
from .helmholtz import UniformStream, classify
from .phasespace import (
    ExprMetric,
    MetricError,
    MetricField,
    canonical_metric,
    jacobi_residuals,
    value_determinant,
)

EXIT_OK = 0
EXIT_NON_HAMILTONIAN = 10
EXIT_AUDIT_FAILED = 20
EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_RUNTIME = 70
# audit's bound on the volume-law gap |ln sqrt_g + integral of the compressibility|
VOLUME_LAW_TOL = 1e-6
NEEDS_AUTONOMOUS = "needs an autonomous vector field, one that does not read t"
# the largest 'n': the dense symbolic Jacobian of a field holds (2n)^2 entries
MAX_DOF = 1000


class ConfigError(Exception):
    """Invalid configuration file."""


@dataclass
class SystemConfig:
    chart: CoordinateChart
    hamiltonian: str | None
    friction: object
    components: list[str] | None
    metric: object  # "canonical" | "friction-analytic" | matrix of strings
    integrator: IntegratorOptions
    series_order: int
    series_mode: str
    splitting_steps: int
    samples_count: int
    samples_seed: int
    samples_box: float
    query_coords: np.ndarray  # (Q, d), the query points
    query_times: np.ndarray  # (Q,)
    t_grid: list[float]
    t_max: float
    methods: list[str] | None


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _number(value, key: str, integer: bool = False, positive: bool = False):
    """The config number at ``key``: a finite JSON number, not a boolean;
    integral, and returned as an int, if ``integer``; > 0 if ``positive``."""
    ok = finite_number(value) and (not integer or float(value).is_integer())
    kind = "integer" if integer else "number"
    _require(ok and (not positive or value > 0), f"'{key}' must be {'a positive' if positive else 'a finite'} {kind}")
    return int(value) if integer else float(value)


def _section(data: dict, key: str) -> dict:
    section = data.get(key, {})
    _require(isinstance(section, dict), f"'{key}' must be an object")
    return section


def load_config(data: dict) -> SystemConfig:
    _require(isinstance(data, dict), "config must be a JSON object")
    known = {
        "n", "names", "hamiltonian", "friction", "components", "metric",
        "integrator", "series", "splitting", "samples", "queries", "t_grid",
        "t_max", "methods",
    }
    unknown = set(data) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("n" in data, "config needs 'n' (degrees of freedom)")
    n = _number(data["n"], "n", integer=True, positive=True)
    _require(n <= MAX_DOF, f"'n' must be at most {MAX_DOF}")
    names = data.get("names")
    if names is not None:
        _require(
            isinstance(names, list) and all(isinstance(s, str) for s in names),
            "'names' must be a list of strings",
        )
    try:
        chart = CoordinateChart(n, tuple(names or ()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    has_h = "hamiltonian" in data
    has_c = "components" in data
    _require(has_h != has_c, "config needs exactly one of 'hamiltonian' or 'components'")
    hamiltonian = data.get("hamiltonian")
    if has_h:
        _require(isinstance(hamiltonian, str), "'hamiltonian' must be a string expression")
    components = data.get("components")
    if has_c:
        _require(
            isinstance(components, list)
            and len(components) == 2 * n
            and all(isinstance(s, str) for s in components),
            f"'components' must be a list of {2 * n} string expressions",
        )
        _require("friction" not in data, "'friction' requires the 'hamiltonian' form")
    friction = read_friction(data.get("friction"))
    integ = _section(data, "integrator")
    integrator = IntegratorOptions(
        abs_tol=_number(integ.get("abs_tol", 1e-10), "integrator.abs_tol", positive=True),
        rel_tol=_number(integ.get("rel_tol", 1e-10), "integrator.rel_tol", positive=True),
        max_steps=_number(integ.get("max_steps", 1_000_000), "integrator.max_steps", integer=True, positive=True),
    )
    series = _section(data, "series")
    series_order = _number(series.get("order", 20), "series.order", integer=True, positive=True)
    series_mode = series.get("mode", "auto")
    _require(series_mode in ("auto", "linear", "generic"), "series mode must be auto|linear|generic")
    splitting_steps = _number(_section(data, "splitting").get("steps", 100), "splitting.steps", integer=True,
                              positive=True)
    samples = _section(data, "samples")
    samples_count = _number(samples.get("count", 50), "samples.count", integer=True, positive=True)
    samples_seed = _number(samples.get("seed", 0), "samples.seed", integer=True)
    _require(samples_seed >= 0, "'samples.seed' must be a non-negative integer")
    samples_box = _number(samples.get("box", 1.0), "samples.box", positive=True)
    queries = data.get("queries", [])
    _require(isinstance(queries, list), "'queries' must be a list")
    for q in queries:
        _require(
            isinstance(q, dict) and "point" in q and isinstance(q["point"], list),
            "each query needs a 'point' list",
        )
        _require(len(q["point"]) == 2 * n, f"query points need {2 * n} coordinates")
    X = np.array([[_number(v, f"queries[{i}].point") for v in q["point"]] for i, q in enumerate(queries)])
    T = np.array([_number(q.get("time", 0.0), f"queries[{i}].time") for i, q in enumerate(queries)])
    t_grid = data.get("t_grid", [1.0])
    _require(isinstance(t_grid, list), "'t_grid' must be a list")
    t_grid = [_number(t, f"t_grid[{i}]") for i, t in enumerate(t_grid)]
    methods = data.get("methods")
    if methods is not None:
        _require(
            isinstance(methods, list) and methods
            and all(m in ("analytic", "series", "split", "pullback") for m in methods),
            "methods must be a non-empty list drawn from analytic|series|split|pullback",
        )
    return SystemConfig(
        chart=chart,
        hamiltonian=hamiltonian,
        friction=friction,
        components=components,
        metric=data.get("metric", "canonical"),
        integrator=integrator,
        series_order=series_order,
        series_mode=series_mode,
        splitting_steps=splitting_steps,
        samples_count=samples_count,
        samples_seed=samples_seed,
        samples_box=samples_box,
        query_coords=X.reshape(len(queries), 2 * n),
        query_times=T,
        t_grid=t_grid,
        t_max=_number(data.get("t_max", max([3.0] + t_grid)), "t_max"),
        methods=methods,
    )


def _build_system(cfg: SystemConfig):
    """Returns (vector field, friction system or None)."""
    chart = cfg.chart
    try:
        if cfg.components is not None:
            return VectorFieldSpec.from_components(chart, cfg.components), None
        fsys = FrictionSystem.build(chart, cfg.hamiltonian, cfg.friction)
        return fsys.vector_field, fsys
    except (ExprError, FrictionError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _build_metric(cfg: SystemConfig, fsys: FrictionSystem | None) -> MetricField:
    chart = cfg.chart
    spec = cfg.metric
    if spec == "canonical":
        return canonical_metric(chart)
    if spec == "friction-analytic":
        _require(fsys is not None, "'friction-analytic' metric needs the hamiltonian form")
        return FrictionAnalyticMetric(fsys)
    if isinstance(spec, list):
        try:
            return ExprMetric(chart, spec)
        except Exception as exc:
            raise ConfigError(f"invalid metric entries: {exc}") from None
    raise ConfigError("metric must be 'canonical', 'friction-analytic' or a matrix of strings")


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (payload, exit_code); payload is a dict for the
# JSON commands and a CSV string for evolve-metric.


def cmd_classify(cfg: SystemConfig, tol: float = 1e-8, seed: int | None = None):
    V, fsys = _build_system(cfg)
    M = _build_metric(cfg, fsys)
    report = classify(
        V,
        M,
        tol=tol,
        count=cfg.samples_count,
        seed=cfg.samples_seed if seed is None else seed,
        box=cfg.samples_box,
    )
    payload = {
        "verdict": report.verdict,
        "max_abs": report.max_abs,
        "tolerance": report.tol,
        "per_point": Rows({"point": report.coords, "time": report.times, "max_abs": report.per_point_max}),
    }
    if report.canonical_blocks is not None:
        R1, R2, R3 = report.canonical_blocks
        payload["canonical_blocks"] = {
            "positions_antisymmetry": R3,
            "cross_symmetry": R2,
            "momenta_antisymmetry": R1,
        }
    code = EXIT_OK if report.verdict == "hamiltonian" else EXIT_NON_HAMILTONIAN
    return payload, code


def _route_table(cfg: SystemConfig, V: VectorFieldSpec, fsys, M0: MetricField) -> dict[str, MetricField | str]:
    """Each evolve-metric route, in the default order, mapped to its metric
    field, or to the reason (a string) that it does not apply."""
    W0 = None  # the initial metric's value, where it is constant in the coordinates
    if not (isinstance(M0, ExprMetric) and any(free_vars(e) - {TIME_NAME} for row in M0.entries for e in row)):
        W0 = M0.value(np.zeros(cfg.chart.dim), 0.0)  # its t = 0 value, as pullback reads it
    field = (V.autonomous, NEEDS_AUTONOMOUS)
    constant = (W0 is not None, "needs a constant initial metric")
    canonical = W0 is not None and np.array_equal(W0, canonical_metric(cfg.chart).matrix)
    linear = (cfg.series_mode != "linear" or V.constant_jacobian is not None, "needs a linear field in mode 'linear'")
    routes = {  # route: its requirements, each (met, reason if not), and its field
        "analytic": ([(fsys is not None, "needs the hamiltonian+friction form"),
                      (canonical, "starts from the canonical metric")],
                     lambda: FrictionAnalyticMetric(fsys)),
        "series": ([field, linear, constant], lambda: SeriesMetric(V, W0, cfg.series_order, cfg.series_mode)),
        "split": ([field, (V.part1 is not None, "needs a declared Hamiltonian/friction split"), constant],
                  lambda: SplitMetric(V, W0, cfg.splitting_steps)),
        "pullback": ([], lambda: TransportedMetric(M0, V, opts=cfg.integrator)),
    }
    table = {}
    for route, (needs, build) in routes.items():
        unmet = [reason for met, reason in needs if not met]
        table[route] = f"the {route} route {unmet[0]}" if unmet else build()
    return table


def _evolve_cells(V: VectorFieldSpec, M: MetricField, x: np.ndarray, t: float, pairs, method: str) -> list[str]:
    """The upper entries of W, sqrt_g and the Jacobi and invariance residuals
    of one evolve-metric row, from one jet of M at (x, t); a row with a cell
    that is not finite is an EvolutionError."""
    with np.errstate(all="ignore"):
        W, D, Wt = M.jet(x, t)
        sqrt_g = float(np.sqrt(abs(np.linalg.det(W))))
        jac = float(jacobi_residuals(D[None])[0])
        inv = float(np.max(np.abs(invariance_residuals(V, x[None], [t], W[None], D[None], Wt[None]))))
    cells = [W[k, l] for k, l in pairs] + [sqrt_g, jac, inv]
    if not all(map(math.isfinite, cells)):
        raise EvolutionError(f"the {method} route gives a non-finite row at t={t:.17g}")
    return [f"{c:.17g}" for c in cells]


def cmd_evolve_metric(cfg: SystemConfig):
    V, fsys = _build_system(cfg)
    fields = _route_table(cfg, V, fsys, _build_metric(cfg, fsys))
    methods = cfg.methods
    if methods is None:
        methods = [m for m, field in fields.items() if not isinstance(field, str)]
    for m in methods:
        _require(not isinstance(fields[m], str), fields[m])
    d = cfg.chart.dim
    x_eval = cfg.query_coords[0] if len(cfg.query_coords) else np.zeros(d)
    warning_text = (applicability_check(fsys).detail or "") if "analytic" in methods else ""

    pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
    header = ["t", "method"] + [f"w{k + 1}_{l + 1}" for k, l in pairs] + [
        "sqrt_g",
        "jacobi_residual",
        "invariance_residual",
        "warning",
    ]
    rows = [header]
    for t in cfg.t_grid:
        for method in methods:
            warn_cell = warning_text if method == "analytic" else ""
            rows.append([f"{t:.17g}", method, *_evolve_cells(V, fields[method], x_eval, t, pairs, method), warn_cell])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue(), EXIT_OK


def cmd_audit(cfg: SystemConfig, tol: float = 1e-8, seed: int | None = None):
    _require(cfg.t_max >= 0.2, "'t_max' must be at least 0.2, the start of the audited trajectories")
    V, fsys = _build_system(cfg)
    M = _build_metric(cfg, fsys)
    stream = UniformStream(cfg.samples_seed if seed is None else seed)
    count, d, box = cfg.samples_count, cfg.chart.dim, cfg.samples_box

    def draw(rows: int, t_min: float):
        # rows of (x in [-box, box]^d, then t in [t_min, t_max]) in one call,
        # which takes the stream of one draw of x and one of t per row
        S = stream.uniform([-box] * d + [t_min], [box] * d + [cfg.t_max], (rows, d + 1))
        return S[:, :d], S[:, d]

    X, T = draw(count, 0.0)
    W, D, Wt = M.jet_batch(X, T)
    max_inv = float(np.max(np.abs(invariance_residuals(V, X, T, W, D, Wt))))
    max_jac = float(np.max(jacobi_residuals(D)))

    # volume law along trajectories: |ln sqrt_g + integral kappa| at endpoints
    n_traj = min(20, count)
    X0, T1 = draw(n_traj, 0.2)
    Y, _ = flow_lanes(V, X0, T1, cfg.integrator, tangent=False)
    gaps = []
    for W_end, kap in zip(M.jet_batch(Y[:, :d], T1)[0], Y[:, -1].tolist()):
        sqrt_g = value_determinant(W_end).sqrt_g
        gaps.append(float("inf") if sqrt_g <= 0 else abs(float(np.log(sqrt_g)) + kap))
    max_gap = max(gaps)

    ok = max_inv < tol and max_jac < tol and max_gap < VOLUME_LAW_TOL
    payload = {
        "max_invariance_residual": max_inv,
        "max_jacobi_residual": max_jac,
        "max_volume_law_gap": max_gap,
        "tolerances": {"residual": tol, "volume_law": VOLUME_LAW_TOL},
        "samples": {"count": count, "trajectories": n_traj, "t_max": cfg.t_max},
        "pass": bool(ok),
    }
    return payload, (EXIT_OK if ok else EXIT_AUDIT_FAILED)


def cmd_bracket(cfg: SystemConfig, a_text: str, b_text: str, c_text: str | None = None):
    V, fsys = _build_system(cfg)
    M = _build_metric(cfg, fsys)
    chart = cfg.chart
    try:
        A = Observable.parse(a_text, chart)
        B = Observable.parse(b_text, chart)
        C = Observable.parse(c_text, chart) if c_text else None
    except ExprError as exc:
        raise ConfigError(str(exc)) from None
    X, T = (cfg.query_coords, cfg.query_times) if len(cfg.query_times) else (np.zeros((1, chart.dim)), np.zeros(1))
    frame = BracketFrame(M, X, T)
    columns = {"point": frame.X, "time": frame.T, "bracket": frame.bracket(A, B)}
    if C is not None:
        columns["jacobi_residual"] = frame.jacobi_residual(A, B, C)
    defect = frame.leibniz_defect(A, B, V, opts=cfg.integrator)
    columns["leibniz"] = {"formula": defect.formula, "numerical": defect.numerical}
    return {"queries": Rows(columns)}, EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.


def _flag(need: str, parse, ok):
    """The argparse type of a flag that must be ``need``: what ``parse`` reads, if that is ``ok``."""

    def value(text: str):
        try:
            if ok(v := parse(text)):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {need}: {text!r}")

    return value


_seed = _flag("a non-negative integer", int, lambda v: v >= 0)
_tol = _flag("a finite number > 0", float, lambda v: math.isfinite(v) and v > 0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.stdout.write(_dumps({"error": {"kind": "usage", "message": message}}) + "\n")
        raise SystemExit(EXIT_USAGE)


# json.dumps with indent runs the pure-Python encoder.  Without indent the C
# encoder runs, and it escapes "\x00" inside strings, so as its item separator
# "\x00" splits one encoding of a list of leaves into the leaves' encodings.
_LEAVES = json.JSONEncoder(separators=("\x00", ":"))


class Rows(dict):
    """A JSON list of records given by columns, for :func:`_dumps`: each key
    maps to an array whose first axis runs over the records, or to a dict of such columns."""


def _arrays(columns: dict) -> list:
    """The arrays of a column dict by sorted key, nested dicts in place."""
    return [a for k, c in sorted(columns.items()) for a in (_arrays(c) if isinstance(c, dict) else [np.asarray(c)])]


def _template(shape: tuple, pad: str, columns: dict | None = None) -> str:
    """The %-template at indent ``pad`` of nested lists of ``shape`` of leaves, or of ``columns``' records."""
    inner = pad + "  "
    if shape:
        items, ends = [_template(shape[1:], inner, columns)] * shape[0], "[]"
    elif columns is None:
        return "%s"
    else:  # a record: its keys are encoded here, with "%" escaped
        items, ends = [_LEAVES.encode(k).replace("%", "%%") + ": "
                       + (_template((), inner, c) if isinstance(c, dict) else _template(np.shape(c)[1:], inner))
                       for k, c in sorted(columns.items())], "{}"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}" if items else ends


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of a value whose dicts have str keys, byte for byte,
    an array standing for its ``tolist()`` and a :class:`Rows` for its records: one %-template, arrays and
    tables laid out from their shapes, filled by one format with one C-encoder call's keys and leaves."""
    parts, leaves = [], []  # each "%s" in parts is the next encoded leaf

    def walk(v, pad: str):
        if isinstance(v, np.ndarray):
            parts.append(_template(v.shape, pad))
            leaves.extend(v.ravel().tolist())
            return
        if isinstance(v, Rows):  # the leaves in row order, each column keeping its type
            flat = [a.reshape(len(a), math.prod(a.shape[1:])).astype(object) for a in _arrays(v)]
            table = np.concatenate(flat or [np.empty((0, 0), object)], axis=1)
            parts.append(_template(table.shape[:1], pad, v))
            leaves.extend(table.ravel().tolist())
            return
        if not (isinstance(v, (dict, list, tuple)) and v):
            parts.append("%s")
            leaves.append(v)
            return
        is_dict, sep, inner = isinstance(v, dict), "\n", pad + "  "
        parts.append("{" if is_dict else "[")
        for item in sorted(v) if is_dict else v:
            parts.append(sep + inner)
            if is_dict:
                parts.append("%s: ")
                leaves.append(item)
                item = v[item]
            walk(item, inner)
            sep = ",\n"
        parts.append("\n" + pad + ("}" if is_dict else "]"))

    walk(value, "")
    return "".join(parts) % tuple(_LEAVES.encode(leaves)[1:-1].split("\x00") if leaves else ())


def _write_output(text: str, out):
    out.write(text)
    if out is not sys.stdout:  # the --out file, opened by argparse
        out.close()


def main(argv=None) -> int:
    parser = _Parser(prog="metricflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "evolve-metric", "audit", "bracket"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON system definition")
        p.add_argument("--out", type=argparse.FileType("w", encoding="utf-8"), default=sys.stdout,
                       help="output file (default: stdout; '-' is stdout too)")
        if name in ("classify", "audit"):
            p.add_argument("--tol", type=_tol, default=1e-8, help="verdict tolerance")
            p.add_argument("--seed", type=_seed, default=None, help="override the sampling seed")
        if name == "bracket":
            p.add_argument("--A", required=True, help="first observable")
            p.add_argument("--B", required=True, help="second observable")
            p.add_argument("--C", default=None, help="third observable (Jacobi test)")
    args = parser.parse_args(argv)

    def emit_error(code: int, kind: str, message: str) -> int:
        _write_output(_dumps({"error": {"kind": kind, "message": message}}) + "\n", args.out)
        return code

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        return emit_error(EXIT_CONFIG, "io", f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        return emit_error(EXIT_CONFIG, "json", f"config is not valid JSON: {exc}")

    try:
        cfg = load_config(raw)
        if args.command == "classify":
            payload, code = cmd_classify(cfg, tol=args.tol, seed=args.seed)
        elif args.command == "evolve-metric":
            payload, code = cmd_evolve_metric(cfg)  # CSV text
        elif args.command == "audit":
            payload, code = cmd_audit(cfg, tol=args.tol, seed=args.seed)
        else:
            payload, code = cmd_bracket(cfg, args.A, args.B, args.C)
    except DomainError as exc:
        return emit_error(EXIT_CONFIG, "domain", str(exc))
    except (ConfigError, ExprError, FrictionError) as exc:
        return emit_error(EXIT_CONFIG, "config", str(exc))
    except RecursionError:
        # the expression walks recurse once per level of a tree
        return emit_error(EXIT_CONFIG, "config", "an expression is nested too deeply to process")
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return emit_error(EXIT_CONFIG, "domain", str(exc))
    except IntegrationError as exc:
        return emit_error(EXIT_RUNTIME, "integration", str(exc))
    except MetricError as exc:
        return emit_error(EXIT_RUNTIME, "metric", str(exc))
    except EvolutionError as exc:
        return emit_error(EXIT_RUNTIME, "evolution", str(exc))
    _write_output(payload if isinstance(payload, str) else _dumps(payload) + "\n", args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
