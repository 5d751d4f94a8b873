import csv
import io
import json
import math
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from metricflow.cli import (
    ConfigError,
    EXIT_AUDIT_FAILED,
    EXIT_CONFIG,
    EXIT_NON_HAMILTONIAN,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MAX_DOF,
    _build_system,
    cmd_audit,
    cmd_bracket,
    cmd_classify,
    cmd_evolve_metric,
    load_config,
    main,
)
from metricflow.evolution import TransportedMetric, invariance_residuals
from metricflow.exprlang import CoordinateChart
from metricflow.friction import FrictionError, FrictionSystem
from metricflow.phasespace import ExprMetric

HARMONIC = {
    "n": 1,
    "hamiltonian": "p1^2/2 + q1^2/2",
    "metric": "canonical",
    "samples": {"count": 20, "seed": 0},
}

DAMPED_CANONICAL = {
    "n": 1,
    "hamiltonian": "p1^2/2 + q1^2/2",
    "friction": 1.0,
    "metric": "canonical",
    "samples": {"count": 20, "seed": 0},
}

DAMPED_ANALYTIC = {
    "n": 1,
    "hamiltonian": "p1^2/2 + q1^2/2",
    "friction": 1.0,
    "metric": "friction-analytic",
    "samples": {"count": 10, "seed": 0},
    "t_grid": [0.0, 1.0],
    "queries": [{"point": [0.3, 0.7], "time": 0.0}],
}

COUPLED = {
    "n": 2,
    "hamiltonian": "(p1^2+p2^2)/2 + q1*q2",
    "friction": [1.0, 2.0],
    "metric": "friction-analytic",
    "t_grid": [1.0],
    "methods": ["analytic"],
}


VARYING = [["0", "1+q1^2"], ["-1-q1^2", "0"]]
IN_T_ONLY = [["0", "exp(t)"], ["-exp(t)", "0"]]
NON_CANONICAL = [["0", "2"], ["-2", "0"]]
ROUTE_SYSTEM = {
    "n": 1,
    "hamiltonian": "p1^2/2 + q1^2/2",
    "friction": 0.5,
    "t_grid": [0.5],
    "splitting": {"steps": 10},
    "queries": [{"point": [0.3, -0.2], "time": 0.0}],
}
ALL_ROUTES = ["analytic", "series", "split", "pullback"]
NO_FIELD = "needs an autonomous vector field, one that does not read t"
# metric kind: (metric, default routes, config patch, a route that then
# does not apply, and its reason)
ROUTE_CASES = {
    "canonical": ("canonical", ALL_ROUTES, {"friction": ["1/(1+t)"]}, "series", NO_FIELD),
    "friction-analytic": ("friction-analytic", ALL_ROUTES, {"friction": ["1/(1+t)"]}, "split", NO_FIELD),
    "non-canonical": (NON_CANONICAL, ALL_ROUTES[1:], {}, "analytic", "starts from the canonical metric"),
    "varying": (VARYING, ["pullback"], {}, "series", "needs a constant initial metric"),
    "varying-in-t-only": (IN_T_ONLY, ALL_ROUTES, {"friction": ["1/(1+t)"]}, "series", NO_FIELD),
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


def metric_cells(row):
    """The w and sqrt_g cells of an evolve-metric row as floats."""
    return np.array([float(v) for k, v in row.items() if re.fullmatch(r"w\d+_\d+|sqrt_g", k)])


def assert_rows_agree(rows, tol):
    """Each analytic row and the pullback row after it agree to ``tol`` relative."""
    assert [r["method"] for r in rows] == ["analytic", "pullback"] * (len(rows) // 2)
    for analytic, pullback in zip(rows[::2], rows[1::2]):
        a, p = metric_cells(analytic), metric_cells(pullback)
        assert np.max(np.abs(a - p)) <= tol * np.max(np.abs(a))


def test_cli_import_skips_scipy(tmp_path):
    # neither the import nor a whole command loads scipy or numpy.random,
    # also where classify and audit draw their seeded samples
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "two_rate_system.json"
    code = (
        "import sys, metricflow.cli\n"
        f"codes = [metricflow.cli.main([cmd, '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path)!r} + '/' + cmd]) for cmd in ('evolve-metric', 'classify', 'audit')]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy') "
        "or m.startswith('numpy.random')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 10, 0] []"
    assert (tmp_path / "evolve-metric").read_text(encoding="utf-8").startswith("t,method,")
    assert "verdict" in json.loads((tmp_path / "classify").read_text(encoding="utf-8"))
    assert json.loads((tmp_path / "audit").read_text(encoding="utf-8"))["pass"] is True


def test_an_overflowing_sampling_range_is_one_domain_error(tmp_path):
    # 2 * box overflows a float: no warning on stderr, and one message for both commands
    path = write_config(tmp_path, {**DAMPED_ANALYTIC, "samples": {"count": 3, "box": 1e308}})
    code = (
        "import metricflow.cli\n"
        f"print([metricflow.cli.main([cmd, '--config', {path!r}, '--out', {str(tmp_path)!r} + '/' + cmd]) "
        "for cmd in ('classify', 'audit')])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[65, 65]" and out.stderr == ""
    message = "the sampling range high - low overflows a float"
    for cmd in ("classify", "audit"):
        error = json.loads((tmp_path / cmd).read_text(encoding="utf-8"))["error"]
        assert error == {"kind": "domain", "message": message}


class TestConfig:
    def test_minimal(self):
        cfg = load_config({"n": 1, "hamiltonian": "p1^2/2"})
        assert cfg.chart.names == ("q1", "p1")

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            load_config({"n": 1, "hamiltonian": "p1", "mystery": 1})

    def test_requires_one_dynamics_form(self):
        with pytest.raises(ConfigError):
            load_config({"n": 1})
        with pytest.raises(ConfigError):
            load_config({"n": 1, "hamiltonian": "p1", "components": ["p1", "-q1"]})

    def test_component_count(self):
        with pytest.raises(ConfigError):
            load_config({"n": 1, "components": ["p1"]})


NAN = float("nan")


@pytest.mark.parametrize(
    "command, patch, key",
    [
        ("evolve-metric", {"queries": [{"point": [0.3, 0.7], "time": None}]}, "queries[0].time"),
        ("evolve-metric", {"queries": [{"point": [0.3, None]}]}, "queries[0].point"),
        ("evolve-metric", {"queries": [{"point": [NAN, 0.7]}]}, "queries[0].point"),
        ("evolve-metric", {"t_grid": [None]}, "t_grid[0]"),
        ("evolve-metric", {"t_grid": [0.5, NAN]}, "t_grid[1]"),
        ("evolve-metric", {"t_grid": 1.0}, "t_grid"),
        ("audit", {"t_max": None}, "t_max"),
        ("classify", {"samples": {"count": None}}, "samples.count"),
        ("audit", {"samples": {"box": -1}}, "samples.box"),
        ("evolve-metric", {"series": {"order": None}}, "series.order"),
        ("evolve-metric", {"splitting": {"steps": 1.5}}, "splitting.steps"),
        ("evolve-metric", {"integrator": {"abs_tol": None}}, "integrator.abs_tol"),
        ("evolve-metric", {"integrator": {"abs_tol": NAN}}, "integrator.abs_tol"),
        ("evolve-metric", {"integrator": {"max_steps": True}}, "integrator.max_steps"),
        ("classify", {"samples": {"seed": -1}}, "samples.seed"),
        ("audit", {"samples": {"seed": -1}}, "samples.seed"),
        ("audit", {"t_max": 0.1}, "t_max"),
        ("audit", {"t_max": -1.0}, "t_max"),
    ],
)
def test_config_numbers_are_checked(tmp_path, capsys, command, patch, key):
    # each of these once gave a traceback, a runtime error, NaN rows or a
    # silently truncated number
    assert main([command, "--config", write_config(tmp_path, {**DAMPED_ANALYTIC, **patch})]) == EXIT_CONFIG
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "config" and f"'{key}'" in error["message"]
    assert captured.err == ""


@pytest.mark.parametrize("command", ["classify", "audit"])
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_config(tmp_path, DAMPED_ANALYTIC), "--seed", "-1"])
    assert exc.value.code == EXIT_USAGE
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
@pytest.mark.parametrize("command", ["classify", "audit"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    # nan, -1 and 0 once failed every system and inf passed every one; abc
    # once named the flag's private type function
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_config(tmp_path, HARMONIC), f"--tol={tol}"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    message = f"argument --tol: must be a finite number > 0: '{tol}'"
    assert json.loads(captured.out) == {"error": {"kind": "usage", "message": message}}
    assert captured.err.startswith("usage: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--config", "config.json", "--seed", "-1"], "argument --seed: must be a non-negative integer: '-1'"),
        (["classify"], "the following arguments are required: --config"),
        (["classify", "--config", "config.json", "--seed", "abc"], "argument --seed: must be a non-negative integer: 'abc'"),
        (["audit", "--config", "config.json", "--seed", "1.5"], "argument --seed: must be a non-negative integer: '1.5'"),
        (["audit", "--config", "config.json", "--tol", "abc"], "argument --tol: must be a finite number > 0: 'abc'"),
    ],
)
def test_usage_error_writes_json(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": {"kind": "usage", "message": message}}
    assert captured.err.startswith("usage: ") and f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "friction, key",
    [
        (True, "friction"),
        (NAN, "friction"),
        ("12", "friction"),
        ("0.5", "friction"),
        ([1.0, float("inf")], "friction[1]"),
        ([1.0, None], "friction[1]"),
        ([[1.0, 0.0], [0.0, True]], "friction[1][1]"),
        ([[1.0, NAN], [0.0, 1.0]], "friction[0][1]"),
        ([[1.0, "0"], [0.0, 1.0]], "friction[0][1]"),
    ],
)
def test_friction_numbers_are_checked(tmp_path, capsys, friction, key):
    # a boolean once ran as 1, a string was split into its characters, and a
    # non-finite number reached the integrator
    data = {"n": 2, "hamiltonian": "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", "friction": friction, "t_grid": [0.5]}
    assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {"kind": "config", "message": f"'{key}' must be a finite number"}
    assert captured.err == ""


@pytest.mark.parametrize(
    "friction", [[1.0, [1.0, 0.0]], [[1.0, 0.0], 2.0], ["t", [1.0, 2.0]], [[1.0, 0.0], [0.0]]]
)
def test_friction_list_shape_is_checked(tmp_path, capsys, friction):
    # these once ended in numpy messages that did not name the key, or in a traceback
    data = {"n": 2, "hamiltonian": "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", "friction": friction, "t_grid": [0.5]}
    assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    message = "'friction' must be rows of one length, or numbers and expression strings"
    assert json.loads(captured.out)["error"] == {"kind": "config", "message": message}
    assert captured.err == ""


def test_friction_number_among_expression_strings(tmp_path, capsys):
    # K(t) has a pullback row beside the analytic one; the two agree
    outputs = []
    for friction in ([1, "t"], ["1", "t"]):
        data = {"n": 2, "hamiltonian": "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", "friction": friction, "t_grid": [0.5]}
        assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert_rows_agree(parse_csv(outputs[0])[1], 1e-9)


def test_friction_expression_strings_stay_expressions():
    cfg = load_config({"n": 2, "hamiltonian": "(p1^2+p2^2)/2", "friction": ["1/(1+t)", 2]})
    assert cfg.friction == ["1/(1+t)", 2.0]


HAMILTONIANS = {1: "p1^2/2 + q1^2/2", 2: "(p1^2+p2^2)/2 + (q1^2+q2^2)/2"}


@pytest.mark.parametrize(
    "n, friction",
    [
        (1, 1.0), (2, [1.0, 2.0]), (1, 0.5), (1, ["1/(1+t)"]), (1, ["cos(1000*t)"]),
        (2, True), (2, NAN), (2, "12"), (2, "0.5"), (2, float("inf")),
        (2, [1.0, float("inf")]), (2, [1.0, None]), (2, [NAN, 1.0]),
        (2, [[1.0, 0.0], [0.0, True]]), (2, [[1.0, NAN], [0.0, 1.0]]), (2, [[1.0, "0"], [0.0, 1.0]]),
        (2, [["t", 0], [0, 1]]), (2, [[1.0, 0.3], [0.0, 2.0]]),
        (2, [1.0, [1.0, 0.0]]), (2, [[1.0, 0.0], 2.0]), (2, ["t", [1.0, 2.0]]), (2, [[1.0, 0.0], [0.0]]),
        (2, [1, "t"]), (2, ["1", "t"]), (2, ["1/(1+t)", 2]), (2, [0.5, 1.0]), (2, ["0.5", "1.0"]),
        (2, [1.0, 2.0, 3.0]), (2, ["q1", "1"]), (2, ["exp(1000)", "t"]),
    ],
)
def test_cli_and_library_read_friction_alike(n, friction):
    # load_config and _build_system give the library's K, or its FrictionError message
    def read(build):
        try:
            return build()
        except (ConfigError, FrictionError) as exc:
            return str(exc)

    data = {"n": n, "hamiltonian": HAMILTONIANS[n], "friction": friction}
    via_cli = read(lambda: _build_system(load_config(data))[1])
    try:
        via_library = FrictionSystem.build(CoordinateChart(n), HAMILTONIANS[n], friction)
    except FrictionError as exc:
        via_library = str(exc)
    if isinstance(via_library, str):
        assert via_cli == via_library
    else:
        assert via_cli.friction.dtype == via_library.friction.dtype
        assert via_cli.friction.tolist() == via_library.friction.tolist()


@pytest.mark.parametrize(
    "names, message",
    [
        (["q"], "expected 2 coordinate names, got 1"),
        (["t", "p"], "'t' is reserved for time"),
        (["x", "x"], "coordinate names must be distinct"),
        (["x", "1p"], "invalid coordinate name '1p'"),
    ],
)
def test_bad_names_are_a_config_error(tmp_path, capsys, names, message):
    data = {"n": 1, "names": names, "hamiltonian": "p1^2/2", "t_grid": [0.5]}
    assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["error"] == {"kind": "config", "message": message}


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", write_config(tmp_path, DAMPED_ANALYTIC), "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "usage" and error["message"].startswith(f"argument --out: can't open '{out}'")
    assert captured.err.startswith("usage: ") and "Traceback" not in captured.err
    assert not out.parent.exists()


def test_out_dash_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["evolve-metric", "--config", write_config(tmp_path, DAMPED_ANALYTIC), "--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("t,method,")
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--tol", "1e-3"]])
@pytest.mark.parametrize("command", ["evolve-metric", "bracket"])
def test_seed_and_tol_belong_to_classify_and_audit(tmp_path, capsys, command, flag):
    argv = ["--A", "q1", "--B", "p1"] if command == "bracket" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_config(tmp_path, DAMPED_ANALYTIC), *argv, *flag])
    assert exc.value.code == EXIT_USAGE
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message == f"unrecognized arguments: {' '.join(flag)}"


@pytest.mark.parametrize("command", ["classify", "evolve-metric", "audit", "bracket"])
def test_help_lists_the_readme_synopsis_options(capsys, command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = [line for line in readme.splitlines() if line.startswith(f"metricflow {command} ")]
    assert len(synopsis) == 1
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
    assert set(flags.findall(capsys.readouterr().out)) - {"--help"} == set(flags.findall(synopsis[0]))


SCALED_SKEW = {
    "n": 1,
    "hamiltonian": "p1^2/2 + q1^2/2",
    "friction": 0.5,
    "samples": {"count": 10},
    "queries": [{"point": [0.7, 0.3]}],
}


@pytest.mark.parametrize(
    "command, code",
    [(["audit"], EXIT_AUDIT_FAILED), (["bracket", "--A", "q1", "--B", "p1"], EXIT_OK)],
    ids=["audit", "bracket"],
)
def test_skewness_does_not_depend_on_the_metric_scale(tmp_path, capsys, command, code):
    # the two entries are the same sum, rounded 1.1e-10 apart at a scale of 2e6
    metric = [["0", "1e6*((q1 + 0.1) + 0.2) + 1e6"], ["-1e6*(q1 + (0.1 + 0.2)) - 1e6", "0"]]
    path = write_config(tmp_path, {**SCALED_SKEW, "metric": metric})
    assert main([command[0], "--config", path, *command[1:]]) == code
    assert "error" not in json.loads(capsys.readouterr().out)


def test_relative_skew_defect_still_fails(tmp_path, capsys):
    metric = [["0", "1e6*(1 + q1)"], ["-1.000000001e6*(1 + q1)", "0"]]
    path = write_config(tmp_path, {**SCALED_SKEW, "metric": metric})
    assert main(["bracket", "--config", path, "--A", "q1", "--B", "p1"]) == EXIT_RUNTIME
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "metric", "message": "metric entries are not skew-symmetric at the evaluated point"}


@pytest.mark.parametrize("command", ["classify", "evolve-metric", "bracket"])
def test_only_audit_bounds_t_max(tmp_path, capsys, command):
    path = write_config(tmp_path, {**DAMPED_ANALYTIC, "t_max": -1.0})
    argv = ["--A", "q1", "--B", "p1"] if command == "bracket" else []
    assert main([command, "--config", path, *argv]) in (EXIT_OK, EXIT_NON_HAMILTONIAN)
    assert "error" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["evolve-metric"], ["audit"], ["bracket", "--A", "q1*q2", "--B", "p1", "--C", "q2*p2"]],
    ids=["classify", "evolve-metric", "audit", "bracket"],
)
def test_constant_friction_expressions_read_as_numbers(tmp_path, capsys, argv):
    data = {
        "n": 2,
        "hamiltonian": "(p1^2+p2^2)/2 + (q1^2+q2^2)/2",
        "metric": "friction-analytic",
        "samples": {"count": 10, "seed": 1},
        "t_grid": [0.5],
        "splitting": {"steps": 10},
        "queries": [{"point": [0.4, -0.3, 0.2, 0.6], "time": 0.5}],
    }
    outputs = []
    for friction in ([0.5, 1.0], ["0.5", "1.0"]):
        path = write_config(tmp_path, {**data, "friction": friction})
        code = main([argv[0], "--config", path, *argv[1:]])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (EXIT_OK, EXIT_NON_HAMILTONIAN)


class TestClassify:
    def test_harmonic(self):
        payload, code = cmd_classify(load_config(HARMONIC))
        assert code == EXIT_OK
        assert payload["verdict"] == "hamiltonian"
        assert payload["max_abs"] < 1e-12

    def test_damped(self):
        payload, code = cmd_classify(load_config(DAMPED_CANONICAL))
        assert code == EXIT_NON_HAMILTONIAN
        assert payload["verdict"] == "non-hamiltonian"
        assert payload["max_abs"] == pytest.approx(1.0, abs=1e-10)

    def test_malformed_expression_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {"n": 1, "hamiltonian": "p1^2/2 + (q1"})
        code = main(["classify", "--config", path])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert "error" in err


class TestEvolveMetric:
    def test_four_methods_at_e(self):
        text, code = cmd_evolve_metric(load_config(DAMPED_ANALYTIC))
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header[:2] == ["t", "method"]
        at_one = {r["method"]: r for r in rows if float(r["t"]) == 1.0}
        assert set(at_one) == {"analytic", "series", "split", "pullback"}
        tol = {"analytic": 1e-12, "series": 1e-10, "split": 1e-5, "pullback": 1e-7}
        for method, row in at_one.items():
            assert abs(float(row["w1_2"]) - np.e) < tol[method]

    def test_a_flow_one_rounding_short_of_its_end_finishes(self, tmp_path, capsys):
        # the backward flow to t = 0.013 lands one ulp short of its end
        config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "damped_oscillator.json"
        data = {**json.loads(config.read_text()), "queries": [{"point": [0.3, -0.2]}], "t_grid": [0.013]}
        assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_OK
        _, rows = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in rows] == ["analytic", "series", "split", "pullback"]
        for row in rows:
            assert abs(float(row["w1_2"]) - np.exp(0.013)) < 1e-12

    def test_t_zero_exact_one(self):
        text, _ = cmd_evolve_metric(load_config(DAMPED_ANALYTIC))
        _, rows = parse_csv(text)
        for row in rows:
            if float(row["t"]) == 0.0:
                assert row["w1_2"] == "1"

    def test_numbers_round_trip(self):
        text, _ = cmd_evolve_metric(load_config(DAMPED_ANALYTIC))
        _, rows = parse_csv(text)
        for row in rows:
            v = float(row["w1_2"])
            assert float(f"{v:.17g}") == v

    def test_coupled_warning_populated(self):
        text, code = cmd_evolve_metric(load_config(COUPLED))
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert len(rows) == 1
        assert "coupled" in rows[0]["warning"]
        assert float(rows[0]["invariance_residual"]) > 1.0

    def test_split_of_coupled_quartic_generic_metric(self, tmp_path, capsys):
        # the split route transports a generic W0 along sub-flows; a symbolic
        # split of this problem outgrew the expression budget
        rng = np.random.default_rng(3)
        B = rng.uniform(-0.5, 0.5, (4, 4))
        W0 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]) + B - B.T
        path = write_config(tmp_path, {
            "n": 2,
            "hamiltonian": "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2",
            "friction": 1.0,
            "metric": [[f"{v:.17g}" for v in row] for row in W0],
            "t_grid": [0.5],
            "splitting": {"steps": 20},
            "methods": ["split", "pullback"],
            "queries": [{"point": [0.3, -0.2, 0.1, 0.4], "time": 0.0}],
        })
        start = time.perf_counter()
        code = main(["evolve-metric", "--config", path])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert elapsed < 2.0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in rows] == ["split", "pullback"]
        split, pullback = ({k: float(r[k]) for k in r if k[0] == "w" and k != "warning"} for r in rows)
        # Strang error at 20 steps, O(dt^2)
        assert max(abs(split[k] - pullback[k]) for k in split) < 1e-3

    def test_requires_constant_initial_metric(self):
        # the series and split routes start from a constant W0; pullback
        # transports any initial metric field
        data = {"n": 1, "hamiltonian": "p1^2/2", "friction": 1.0, "metric": VARYING}
        for method in ("series", "split"):
            with pytest.raises(ConfigError, match=f"the {method} route needs a constant initial metric"):
                cmd_evolve_metric(load_config({**data, "methods": [method]}))
        _, rows = parse_csv(cmd_evolve_metric(load_config(data))[0])
        assert [r["method"] for r in rows] == ["pullback"]

    @pytest.mark.parametrize("methods", ["default", "explicit", "inapplicable"])
    @pytest.mark.parametrize("kind", ROUTE_CASES)
    def test_route_table(self, tmp_path, capsys, kind, methods):
        metric, default, patch, bad, reason = ROUTE_CASES[kind]
        data = {**ROUTE_SYSTEM, "metric": metric}
        if methods == "explicit":
            data["methods"] = expected = default[::-1]
        elif methods == "inapplicable":
            data.update(patch, methods=[default[0], bad])
        else:
            expected = default
        code = main(["evolve-metric", "--config", write_config(tmp_path, data)])
        out = capsys.readouterr().out
        if methods == "inapplicable":
            assert code == EXIT_CONFIG
            assert json.loads(out)["error"] == {"kind": "config", "message": f"the {bad} route {reason}"}
        else:
            assert code == EXIT_OK
            assert [r["method"] for r in parse_csv(out)[1]] == expected

    def test_metric_varying_only_in_t_starts_from_its_t0_value(self, tmp_path, capsys):
        # series, split and analytic transport the t = 0 value, as pullback does
        config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "damped_oscillator.json"
        data = {**json.loads(config.read_text()), "metric": IN_T_ONLY, "t_grid": [0.5]}
        assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_OK
        w = {r["method"]: float(r["w1_2"]) for r in parse_csv(capsys.readouterr().out)[1]}
        assert list(w) == ALL_ROUTES
        assert abs(w["series"] - np.exp(0.5)) < 1e-12 and abs(w["series"] - w["pullback"]) < 1e-9

    def test_forced_linear_series_of_a_nonlinear_field_is_a_route_reason(self, tmp_path, capsys):
        # the series route once passed the table and failed mid-command with exit 70
        data = {"n": 1, "components": ["p1", "-q1 - p1 + q1^2"], "series": {"mode": "linear"}}
        assert main(["evolve-metric", "--config", write_config(tmp_path, {**data, "methods": ["series"]})]) == EXIT_CONFIG
        message = "the series route needs a linear field in mode 'linear'"
        assert json.loads(capsys.readouterr().out)["error"] == {"kind": "config", "message": message}
        assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_OK
        assert [r["method"] for r in parse_csv(capsys.readouterr().out)[1]] == ["pullback"]

    def test_empty_methods_is_a_config_error(self, tmp_path, capsys):
        # [] once printed a header without rows and exited 0
        assert main(["evolve-metric", "--config", write_config(tmp_path, {**DAMPED_ANALYTIC, "methods": []})]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "config" and error["message"].startswith("methods must be a non-empty list")

    def test_no_route_applies(self, tmp_path, capsys):
        # once exit 65, "no evolution route is applicable to this configuration":
        # pullback now applies to every field, here one that reads t
        data = {**ROUTE_SYSTEM, "metric": VARYING, "friction": ["1/(1+t)"], "t_grid": [0.5, 1.0]}
        assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)[1]
        assert [r["method"] for r in rows] == ["pullback"] * 2
        assert all(float(r["invariance_residual"]) <= 1e-9 for r in rows)

    def test_varying_metric_pullback_row_is_the_library_jet(self):
        cfg = load_config({**ROUTE_SYSTEM, "metric": VARYING})
        _, rows = parse_csv(cmd_evolve_metric(cfg)[0])
        V = FrictionSystem.build(cfg.chart, cfg.hamiltonian, cfg.friction).vector_field
        W, D, Wt = TransportedMetric(ExprMetric(cfg.chart, VARYING), V, cfg.integrator).jet(cfg.query_coords[0], 0.5)
        inv = np.max(np.abs(invariance_residuals(V, cfg.query_coords, [0.5], W[None], D[None], Wt[None])))
        expected = [f"{W[0, 1]:.17g}", f"{np.sqrt(abs(np.linalg.det(W))):.17g}", "0", f"{inv:.17g}", ""]
        assert [list(r.values())[2:] for r in rows] == [expected]
        assert inv < 1e-12

    def test_generic_w0_rows_agree_with_pullback(self):
        # the closed form evolves the canonical metric only, so it gives no row
        # here; the other routes transport W0 = 2 J to w1_2 = 2 e^{Kt}
        _, rows = parse_csv(cmd_evolve_metric(load_config({**ROUTE_SYSTEM, "metric": NON_CANONICAL}))[0])
        assert [r["method"] for r in rows] == ["series", "split", "pullback"]
        w = {r["method"]: float(r["w1_2"]) for r in rows}
        tol = {"series": 1e-10, "split": 1e-3, "pullback": 1e-7}
        assert all(abs(w[m] - 2 * np.exp(0.5 * 0.5)) < tol[m] for m in w), w


DAMPED = {"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "metric": "friction-analytic",
          "t_grid": [0.25, 0.5, 1.0], "queries": [{"point": [0.3, 0.7], "time": 0.0}]}
# dq/dt = 1e300 p, dp/dt = q: the exponential of its generator overflows
HUGE_RATE = {"n": 1, "t_grid": [0.5], "queries": [{"point": [0.3, -0.2]}]}


@pytest.mark.parametrize("data, method", [
    ({**DAMPED, "friction": 1000.0}, "analytic"),
    ({**DAMPED, "friction": 1000.0}, "pullback"),
    ({**DAMPED, "friction": 1e20}, "analytic"),
    ({**DAMPED, "friction": 1e20}, "pullback"),
    ({**HUGE_RATE, "components": ["1e300*p1", "q1"]}, "series"),
    ({**HUGE_RATE, "hamiltonian": "1e300*p1^2/2 - q1^2/2"}, "split"),
    ({**HUGE_RATE, "components": ["1e300*p1", "q1"]}, "pullback"),
])
def test_a_non_finite_row_is_an_evolution_error(tmp_path, capsys, data, method):
    path = write_config(tmp_path, {**data, "methods": [method]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve-metric", "--config", path]) == EXIT_RUNTIME
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]  # one JSON object
    assert error["kind"] == "evolution" and error["message"].startswith(f"the {method} route gives a non-finite row at t=")
    assert err == "" and caught == []


def test_a_generator_whose_square_is_zero_transports_exactly(tmp_path, capsys):
    # X = (1e300, 0) keeps every metric; its augmented generator's exponential
    # was NaN, a non-finite row with exit 70
    data = {**HUGE_RATE, "components": ["1e300", "0"], "methods": ["pullback"]}
    assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert [r["w1_2"] for r in parse_csv(out)[1]] == ["1"] and err == ""


QUARTIC_KT = {
    "n": 2,
    "hamiltonian": "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2",
    "t_grid": [0.5, 1.0, 1.5],
    "samples": {"count": 10},
    "queries": [{"point": [0.3, -0.2, 0.1, 0.4], "time": 0.0}],
}
EQUAL_RATES = ["0.5 + 0.1*t", "0.5 + 0.1*t"]
UNEQUAL_RATES = ["0.5 + 0.1*t", "1"]


class TestTimeDependentFriction:
    """A friction matrix K(t) has the field -K(t) p, evaluated at each point's time."""

    def run(self, tmp_path, capsys, friction, argv, **patch):
        path = write_config(tmp_path, {**QUARTIC_KT, "friction": friction, **patch})
        code = main([argv[0], "--config", path, *argv[1:]])
        return code, capsys.readouterr().out

    def test_equal_rates_closed_form_is_invariant(self, tmp_path, capsys):
        # the invariance residual once read nan; the pullback row checks the closed form
        code, out = self.run(tmp_path, capsys, EQUAL_RATES, ["evolve-metric"], metric="friction-analytic")
        rows = parse_csv(out)[1]
        assert code == EXIT_OK and len(rows) == 6
        assert_rows_agree(rows, 1e-9)
        assert all(float(r["invariance_residual"]) <= 1e-9 and r["warning"] == "" for r in rows)
        assert all(float(r["invariance_residual"]) <= 1e-12 for r in rows[::2])

    def test_unequal_rates_residual_shows_the_defect(self, tmp_path, capsys):
        # the analytic rows keep their warning and residual; the pullback rows are invariant
        code, out = self.run(tmp_path, capsys, UNEQUAL_RATES, ["evolve-metric"], metric="friction-analytic")
        rows = parse_csv(out)[1]
        analytic, pullback = rows[::2], rows[1::2]
        assert code == EXIT_OK and [r["method"] for r in pullback] == ["pullback"] * 3
        assert all("unequal damping" in r["warning"] and float(r["invariance_residual"]) > 1e-3 for r in analytic)
        assert [round(float(r["invariance_residual"]), 3) for r in analytic[:2]] == [0.174, 0.493]
        assert all(float(r["invariance_residual"]) <= 1e-9 and r["warning"] == "" for r in pullback)
        assert all(np.max(np.abs(metric_cells(a) - metric_cells(p))) > 1e-3 for a, p in zip(analytic, pullback))

    def test_classify_gives_a_verdict(self, tmp_path, capsys):
        # once exit 65: "classification needs an autonomous vector field"
        code, out = self.run(tmp_path, capsys, UNEQUAL_RATES, ["classify"])
        assert code == EXIT_NON_HAMILTONIAN and json.loads(out)["verdict"] == "non-hamiltonian"

    def test_audit_checks_the_flows(self, tmp_path, capsys):
        # once exit 65, "audit needs an autonomous vector field"; the
        # trajectories of the volume law start at t = 0
        code, out = self.run(tmp_path, capsys, EQUAL_RATES, ["audit"], metric="friction-analytic")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["pass"] is True
        assert payload["max_invariance_residual"] <= 1e-9 and payload["max_volume_law_gap"] <= 1e-9
        code, out = self.run(tmp_path, capsys, UNEQUAL_RATES, ["audit"], metric="friction-analytic")
        assert code == EXIT_AUDIT_FAILED and json.loads(out)["max_volume_law_gap"] <= 1e-9

    def test_bracket_has_leibniz_flows(self, tmp_path, capsys):
        # once without a 'leibniz' key.  {q1^2, p1 p2} reads the flow's
        # position, so the +-delta flows must start at the query times: the
        # canonical metric's defect is 2 q1 p2 k(t), k(t) = 0.5 + 0.1 t, there
        queries = [{"point": [0.3, -0.2, 0.1, 0.4], "time": t} for t in (0.0, 0.7)]
        for metric in ("canonical", "friction-analytic"):
            code, out = self.run(tmp_path, capsys, EQUAL_RATES, ["bracket", "--A", "q1^2", "--B", "p1*p2"],
                                 metric=metric, queries=queries)
            assert code == EXIT_OK
            for q in json.loads(out)["queries"]:
                leibniz, rate = q["leibniz"], 0.5 + 0.1 * q["time"]
                expected = 2 * 0.3 * 0.4 * rate if metric == "canonical" else 0.0
                assert abs(leibniz["formula"] - expected) <= 1e-12 and abs(leibniz["numerical"] - expected) <= 1e-8


# K(t) = log(t) leaves its domain at t = 0, where the field's split parts are
# probed; its integral t ln t - t is finite
LOG_FRICTION = {
    "n": 1,
    "hamiltonian": "p1^2/2 + q1^2/2",
    "friction": ["log(t)"],
    "t_grid": [0.5, 1.0],
    "queries": [{"point": [0.3, 0.2], "time": 1.0}],
}


class TestFrictionSingularAtZero:
    """Each command once exited 65 with "log of non-positive value in 'log(t)'"
    while building the field."""

    def run(self, tmp_path, capsys, argv):
        code = main([argv[0], "--config", write_config(tmp_path, LOG_FRICTION), *argv[1:]])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    def test_evolve_metric_has_the_closed_form(self, tmp_path, capsys):
        # the pullback rows integrate back to t = 0, where no stage reads log(0)
        code, out = self.run(tmp_path, capsys, ["evolve-metric"])
        rows = parse_csv(out)[1]
        assert code == EXIT_OK and [r["method"] for r in rows] == ["analytic", "pullback"] * 2
        assert [r["w1_2"] for r in rows[::2]] == ["0.42888194248050343", "0.36787944117157101"]
        for t, analytic, pullback in zip((0.5, 1.0), rows[::2], rows[1::2]):
            assert float(analytic["w1_2"]) == pytest.approx(math.exp(t * math.log(t) - t), rel=1e-14)
            assert float(analytic["invariance_residual"]) == 0.0
            assert float(pullback["w1_2"]) == pytest.approx(math.exp(t * math.log(t) - t), rel=1e-8)
            assert float(pullback["invariance_residual"]) <= 1e-12

    def test_audit_cannot_start_at_t_zero(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, ["audit"])
        error = json.loads(out)["error"]
        assert code == EXIT_RUNTIME and set(json.loads(out)) == {"error"} and error["kind"] == "integration"
        assert error["message"] == "cannot evaluate the field at the start state: log of non-positive value in 'log(t)'"

    def test_classify_samples_at_t_zero(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, ["classify"])
        error = json.loads(out)["error"]
        assert code == EXIT_CONFIG and error == {"kind": "domain", "message": "log of non-positive value in 'log(t)'"}

    def test_bracket_answers_at_t_one(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, ["bracket", "--A", "q1", "--B", "p1"])
        columns = json.loads(out)["queries"][0]
        assert code == EXIT_OK and columns["time"] == 1.0 and columns["bracket"] == 1.0


@pytest.mark.parametrize("n", [1e308, MAX_DOF + 1], ids=["huge", "one-past"])
def test_n_past_the_bound_is_a_config_error(tmp_path, capsys, n):
    # a huge n once ran out of memory with a traceback, or kept allocating
    path = write_config(tmp_path, {"n": n, "hamiltonian": "p1^2/2"})
    start = time.perf_counter()
    assert main(["classify", "--config", path]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {"kind": "config", "message": f"'n' must be at most {MAX_DOF}"}
    assert captured.err == ""


def test_n_at_the_bound_loads():
    assert MAX_DOF == 1000 and load_config({"n": MAX_DOF, "hamiltonian": "p1^2/2"}).chart.dim == 2000


class TestAudit:
    def test_components_that_read_t_get_the_same_reason(self):
        # a components config has no friction; its field reads t.  Both once
        # exited 65 with one reason; both are audited now, to the same report
        payload, code = cmd_audit(load_config({"n": 1, "components": ["p1", "-q1 - t*p1"]}))
        same = cmd_audit(load_config({"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "friction": ["t"]}))
        assert (payload, code) == same and code == EXIT_AUDIT_FAILED
        # the canonical metric keeps ln sqrt_g = 0 while the integral of the
        # compressibility -t is -T^2/2 at the end time T in [0.2, t_max = 3]
        assert 0.2**2 / 2 <= payload["max_volume_law_gap"] <= 3.0**2 / 2

    def test_invariant_metric_passes(self):
        payload, code = cmd_audit(load_config(DAMPED_ANALYTIC))
        assert code == EXIT_OK
        assert payload["pass"] is True
        assert payload["max_invariance_residual"] < 1e-8
        assert payload["max_jacobi_residual"] < 1e-8
        assert payload["max_volume_law_gap"] < 1e-6

    def test_static_metric_fails(self):
        payload, code = cmd_audit(load_config(DAMPED_CANONICAL))
        assert code == EXIT_AUDIT_FAILED
        assert payload["max_invariance_residual"] == pytest.approx(1.0, abs=1e-8)

    def test_hamiltonian_passes(self):
        payload, code = cmd_audit(load_config(HARMONIC))
        assert code == EXIT_OK


class TestBracket:
    def test_canonical_value(self):
        cfg = load_config({**HARMONIC, "queries": [{"point": [0.0, 0.0]}]})
        payload, code = cmd_bracket(cfg, "q1", "p1")
        assert code == EXIT_OK
        assert payload["queries"]["bracket"][0] == 1.0

    def test_friction_metric_value(self):
        cfg = load_config({**DAMPED_ANALYTIC, "queries": [{"point": [0.3, 0.7], "time": 1.0}]})
        payload, _ = cmd_bracket(cfg, "q1", "p1")
        assert payload["queries"]["bracket"][0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_same_observable_zero(self):
        cfg = load_config({**HARMONIC, "queries": [{"point": [0.5, 0.5]}]})
        payload, _ = cmd_bracket(cfg, "q1", "q1")
        assert payload["queries"]["bracket"][0] == 0.0

    def test_jacobi_and_leibniz_fields(self):
        cfg = load_config({**DAMPED_ANALYTIC, "queries": [{"point": [0.3, 0.7], "time": 0.5}]})
        payload, _ = cmd_bracket(cfg, "q1", "p1", "q1*p1")
        columns = payload["queries"]
        assert abs(columns["jacobi_residual"][0]) < 1e-8
        assert abs(columns["leibniz"]["numerical"][0]) < 1e-6


class TestMainEntry:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_missing_config(self, capsys):
        code = main(["classify", "--config", "/nonexistent.json"])
        assert code == EXIT_CONFIG

    def test_classify_to_file(self, tmp_path):
        path = write_config(tmp_path, HARMONIC)
        out = tmp_path / "report.json"
        code = main(["classify", "--config", path, "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "hamiltonian"

    def test_deterministic_output(self, tmp_path):
        path = write_config(tmp_path, DAMPED_ANALYTIC)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["evolve-metric", "--config", path, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "command",
        [["audit"], ["bracket", "--A", "q1", "--B", "p1", "--C", "q1*p1"]],
        ids=["audit", "bracket"],
    )
    def test_threads_variable_is_ignored(self, tmp_path, monkeypatch, command):
        # METRICFLOW_THREADS is no longer read; output stays deterministic
        data = {**DAMPED_CANONICAL, "queries": [{"point": [0.3, 0.7], "time": 0.5}, {"point": [-0.2, 0.1]}]}
        path = write_config(tmp_path, data)
        monkeypatch.delenv("METRICFLOW_THREADS", raising=False)
        out1 = tmp_path / "unset.json"
        main([command[0], "--config", path, "--out", str(out1), *command[1:]])
        monkeypatch.setenv("METRICFLOW_THREADS", "4")
        out2 = tmp_path / "four.json"
        main([command[0], "--config", path, "--out", str(out2), *command[1:]])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "data, argv, code",
        [
            (
                {"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "metric": [["0", "0"], ["0", "0"]],
                 "queries": [{"point": [0.1, 0.2]}]},
                ["bracket", "--A", "q1", "--B", "p1"],
                EXIT_RUNTIME,
            ),
            (
                {"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "metric": [["0", "1/q1"], ["-1/q1", "0"]],
                 "samples": {"count": 3}},
                ["classify"],
                EXIT_CONFIG,
            ),
            ({"n": 1, "hamiltonian": "q1*p1", "friction": 1.0}, ["classify"], EXIT_CONFIG),
            (
                {"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "friction": ["cos(1000*t)"],
                 "metric": "friction-analytic", "queries": [{"point": [0.1, 0.2], "time": 10.0}],
                 "t_grid": [10.0]},
                ["evolve-metric"],
                EXIT_CONFIG,
            ),
        ],
        ids=["singular-metric", "metric-domain", "friction", "friction-quadrature"],
    )
    def test_failures_exit_with_json_error(self, tmp_path, data, argv, code):
        path = write_config(tmp_path, data)
        proc = subprocess.run(
            [sys.executable, "-m", "metricflow.cli", argv[0], "--config", path, *argv[1:]],
            capture_output=True, text=True,
        )
        assert proc.returncode == code
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] and error["message"]
        assert "Traceback" not in proc.stderr

    def test_metric_domain_error_names_the_entry(self, tmp_path):
        # the sampled origin puts q1 = 0 into the compiled entry 1/q1
        data = {"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "friction": 0.5,
                "metric": [["0", "1/q1"], ["-1/q1", "0"]],
                "samples": {"count": 20, "box": 1.0, "seed": 3}}
        path = write_config(tmp_path, data)
        proc = subprocess.run(
            [sys.executable, "-m", "metricflow.cli", "classify", "--config", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "domain"
        assert "'1/q1'" in error["message"]
        assert proc.stderr == ""

    def test_field_domain_error_names_the_node(self, tmp_path, capsys):
        # the sampled points put q1 < 0 into the compiled component log(q1)
        data = {"n": 1, "components": ["p1", "-log(q1)"], "metric": "canonical",
                "samples": {"count": 20, "box": 1.0, "seed": 3}}
        assert main(["classify", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "domain"
        assert error["message"] == "log of non-positive value in 'log(q1)'"

    def test_series_beyond_the_coefficient_cap_exits_70(self, tmp_path, capsys):
        # 1/(2 - q1) expands to degree order + 1 = 401: 4 * C(403, 2)
        # coefficients per power exceed MAX_SERIES_COEFFS, which stops the
        # basis growing
        data = {"n": 1, "components": ["p1", "-q1 - p1/(2 - q1)"], "metric": "canonical",
                "series": {"order": 400, "mode": "generic"}, "methods": ["series"], "t_grid": [0.5],
                "queries": [{"point": [0.3, -0.2], "time": 0.0}]}
        assert main(["evolve-metric", "--config", write_config(tmp_path, data)]) == EXIT_RUNTIME
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "evolution"
        assert "cap 250000" in error["message"]

    def test_a_huge_series_order_ends_at_the_cap(self, tmp_path, capsys):
        # the expansion stops two degrees past the cap, so the powers reach it at once
        W0 = [["0", "0.3", "1", "-0.2"], ["-0.3", "0", "0.1", "1"], ["-1", "-0.1", "0", "0.4"], ["0.2", "-1", "-0.4", "0"]]
        data = {"n": 2, "hamiltonian": "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2", "friction": 1.0, "metric": W0,
                "series": {"order": 10**9, "mode": "generic"}, "methods": ["series"], "t_grid": [0.5],
                "queries": [{"point": [0.3, -0.2, 0.1, 0.4], "time": 0.0}]}
        path = write_config(tmp_path, data)
        start = time.perf_counter()
        assert main(["evolve-metric", "--config", path]) == EXIT_RUNTIME
        assert time.perf_counter() - start < 0.2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "evolution" and "cap 250000" in error["message"]

    @pytest.mark.parametrize("entry", ["sin(exp(1000))", "cos(-exp(1000*q1))"])
    def test_trig_of_overflow_names_the_entry(self, tmp_path, entry):
        # exp overflows to inf, where sin and cos are undefined
        data = {"n": 1, "hamiltonian": "p1^2/2 + q1^2/2", "friction": 0.5,
                "metric": [["0", entry], [f"-{entry}", "0"]],
                "samples": {"count": 20, "box": 1.0, "seed": 3}}
        path = write_config(tmp_path, data)
        proc = subprocess.run(
            [sys.executable, "-m", "metricflow.cli", "classify", "--config", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "domain"
        assert error["message"] == f"{entry[:3]} of infinite value in '{entry}'"
        assert "Traceback" not in proc.stderr

    def test_long_sum_compiles(self, tmp_path, capsys):
        # compiled code of a 250-term sum nests no parentheses per term
        terms = " + ".join(f"{k + 1}e-3*q1^{k % 7 + 1}" for k in range(250))
        data = {"n": 1, "components": ["p1", f"-q1 - ({terms})*p1"], "samples": {"count": 5},
                "t_grid": [0.3], "queries": [{"point": [0.2, -0.1]}]}
        path = write_config(tmp_path, data)
        assert main(["classify", "--config", path]) == EXIT_NON_HAMILTONIAN
        capsys.readouterr()
        assert main(["evolve-metric", "--config", path]) == EXIT_OK
        _, rows = parse_csv(capsys.readouterr().out)
        series, pullback = (float(row["w1_2"]) for row in rows)
        assert abs(series - pullback) < 1e-7

    @pytest.mark.parametrize("command", ["classify", "evolve-metric"])
    def test_long_product_exits_65(self, tmp_path, capsys, command):
        # the product rule nests each partial sum of the Jacobian entry one
        # level deeper under a *: past 200 levels Python cannot parse the
        # compiled code
        product = "*".join(["q1"] * 250)
        data = {"n": 1, "components": ["p1", f"-q1 - {product}*p1"], "samples": {"count": 5},
                "t_grid": [0.3], "queries": [{"point": [0.2, -0.1]}]}
        assert main([command, "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error == {"kind": "config", "message": "an expression is nested too deeply to process"}
        assert captured.err == ""

    def test_deeply_nested_expression_exits_65(self, tmp_path):
        # parse nests a sum one level per term; the recursive tree walks stop
        # near 1,000 levels
        H = "p1^2/2 + " + " + ".join(f"q1^2/{k + 2}" for k in range(1199))
        path = write_config(tmp_path, {"n": 1, "hamiltonian": H, "friction": 0.5})
        proc = subprocess.run(
            [sys.executable, "-m", "metricflow.cli", "classify", "--config", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        error = json.loads(proc.stdout)["error"]
        assert error == {"kind": "config", "message": "an expression is nested too deeply to process"}
        assert proc.stderr == ""

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_config(tmp_path, DAMPED_CANONICAL)
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        main(["classify", "--config", path, "--seed", "1", "--out", str(out1)])
        main(["classify", "--config", path, "--seed", "2", "--out", str(out2)])
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        assert d1["per_point"] != d2["per_point"]
        assert d1["verdict"] == d2["verdict"] == "non-hamiltonian"
