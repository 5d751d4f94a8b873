"""Seeded workload generator and output checks.

Each workload is a list of ``metricflow`` invocations over config files that
this module writes from a seed.  Every invocation carries a check that
compares the command's exit code and output with a reference computed here,
independently of the route under test:

* linear systems against the congruence ``expm(-tA)^T W0 expm(-tA)`` and the
  friction closed form ``[[0, G], [-G^T, 0]]`` with ``G = expm(tK)``;
* nonlinear rows against the closed form where one exists, otherwise against
  the pullback route of the same run;
* brackets against ``{A, B} = grad A . (-W^-1) . grad B`` written out by hand.

Tolerances follow ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

# route tolerances of tests/test_acceptance.py, relative to max(1, |reference|)
ROUTE_TOL = {"analytic": 1e-12, "series": 1e-10, "pullback": 1e-7, "split": 1e-5}
EVAL_TIME = 0.5
QUARTIC = "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2"
VAN_DER_POL = ["p1", "(1 - q1^2)*p1 - q1"]
# Truncation bounds of the generic series rows against pullback, fixed once
# from ten times the largest error at this order and time over seeds 0..39
# (quartic, 1.43e-2) and 0..199 (Van der Pol, 3.03e-3).
SERIES_TRUNCATION = {"quartic_generic_w0": 0.15, "van_der_pol": 0.03}
WORKLOADS = ("demo_cli", "nonlinear_routes", "linear_chain", "sampled_points")


@dataclass
class Invocation:
    label: str
    argv: list[str]
    check: Callable[[str, int], str | None]  # (stdout, exit code) -> error or None


# ---------------------------------------------------------------------------
# References computed without metricflow.


def canonical(n: int) -> np.ndarray:
    Z, I = np.zeros((n, n)), np.eye(n)
    return np.block([[Z, I], [-I, Z]])


def friction_blocks(G: np.ndarray) -> np.ndarray:
    Z = np.zeros_like(G)
    return np.block([[Z, G], [-G.T, Z]])


def quadratic_hessian(hamiltonian: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Hessian of a quadratic Hamiltonian string, by exact second differences.

    Raises ValueError when the Hamiltonian is not quadratic.
    """
    names = [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    code = compile(hamiltonian.replace("^", "**"), "<hamiltonian>", "eval")

    def H(x):
        return eval(code, {"__builtins__": {}}, dict(zip(names, map(float, x))))

    d = 2 * n
    E = np.eye(d)
    S = np.array(
        [[(H(E[k] + E[l]) - H(E[k]) - H(E[l]) + H(0 * E[k])) for l in range(d)] for k in range(d)]
    )
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, d)
        if abs(H(x) - H(0 * x) - 0.5 * x @ S @ x) > 1e-9 * max(1.0, abs(H(x))):
            raise ValueError(f"hamiltonian is not quadratic: {hamiltonian}")
    return S


def friction_matrix(spec, n: int) -> np.ndarray:
    if spec is None:
        return np.zeros((n, n))
    if np.isscalar(spec):
        return float(spec) * np.eye(n)
    arr = np.array(spec, dtype=float)
    return np.diag(arr) if arr.ndim == 1 else arr


@dataclass
class LinearSystem:
    """dq/dt = dH/dp, dp/dt = -dH/dq - K p for H = x^T S x / 2 (T(p) + U(q))."""

    n: int
    S: np.ndarray
    K: np.ndarray

    @property
    def A(self) -> np.ndarray:
        n = self.n
        A = np.zeros((2 * n, 2 * n))
        A[:n] = self.S[n:]  # dq/dt = S_pq q + S_pp p
        A[n:] = -self.S[:n]
        A[n:, n:] -= self.K
        return A

    def congruence(self, W0: np.ndarray, t: float) -> np.ndarray:
        E = expm(-t * self.A)
        return E.T @ W0 @ E

    def strang(self, W0: np.ndarray, t: float, steps: int) -> np.ndarray:
        """Strang splitting over the Hamiltonian part A1 and friction part A2.

        exp(h J) for a linear part is the congruence by expm(-h A_i), so the
        scheme's result is the congruence by P^steps.
        """
        n, h = self.n, t / steps
        A2 = np.zeros((2 * n, 2 * n))
        A2[n:, n:] = -self.K
        half = expm(-0.5 * h * A2)
        P = np.linalg.matrix_power(half @ expm(-h * (self.A - A2)) @ half, steps)
        return P.T @ W0 @ P

    def static_residual(self, W: np.ndarray) -> float:
        """max |(W A)^T - W A|, the Helmholtz residual of the constant metric W."""
        F = W @ self.A
        return float(np.max(np.abs(F.T - F)))

    def closed_form(self, t: float) -> np.ndarray:
        return friction_blocks(expm(t * self.K))

    def closed_form_applies(self) -> bool:
        rates = np.diag(self.K)
        if np.any(self.K != np.diag(rates)):
            return False
        n = self.n
        return all(
            rates[i] == rates[j] or (self.S[i, j] == 0.0 and self.S[n + i, n + j] == 0.0)
            for i in range(n)
            for j in range(i + 1, n)
        )


def quartic_field_jacobian(x: np.ndarray) -> np.ndarray:
    """Jacobian of the unit-friction QUARTIC field at x = (q1, q2, p1, p2)."""
    q1, q2 = x[0], x[1]
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-3.0 * q1 * q1, -0.5, -1.0, 0.0],
            [-0.5, -3.0 * q2 * q2, 0.0, -1.0],
        ]
    )


# ---------------------------------------------------------------------------
# Output checks.


def _expect_code(code: int, expected: int) -> str | None:
    return None if code == expected else f"exit code {code}, expected {expected}"


def _parse_rows(text: str, d: int):
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        W = np.zeros((d, d))
        for k in range(d):
            for l in range(k + 1, d):
                W[k, l] = float(row[f"w{k + 1}_{l + 1}"])
                W[l, k] = -W[k, l]
        out.append((float(row["t"]), row["method"], W, float(row["sqrt_g"]), row["warning"]))
    return out


def _close(got, ref, tol: float) -> bool:
    scale = max(1.0, float(np.max(np.abs(ref))))
    return bool(np.max(np.abs(np.asarray(got) - ref)) <= tol * scale)


def check_evolve(
    d: int,
    methods: list[str],
    t_grid: list[float],
    reference: Callable[[float, str, dict], np.ndarray],
    tol: dict[str, float],
    expect_warning: bool = False,
):
    """Check an evolve-metric CSV row by row against ``reference(t, method, rows_at_t)``."""

    def check(text: str, code: int) -> str | None:
        err = _expect_code(code, 0)
        if err:
            return err
        rows = _parse_rows(text, d)
        want = [(t, m) for t in t_grid for m in methods]
        if [(t, m) for t, m, *_ in rows] != want:
            return f"rows {[(t, m) for t, m, *_ in rows]}, expected {want}"
        by_t: dict[float, dict] = {}
        for t, m, W, sqrt_g, warning in rows:
            by_t.setdefault(t, {})[m] = W
        for t, m, W, sqrt_g, warning in rows:
            ref = reference(t, m, by_t[t])
            if not _close(W, ref, tol[m]):
                return f"{m} at t={t}: max error {np.max(np.abs(W - ref)):.3e} (tol {tol[m]:g})"
            ref_g = math.sqrt(abs(np.linalg.det(ref)))
            if not _close(sqrt_g, ref_g, max(tol[m], 1e-10)):
                return f"{m} at t={t}: sqrt_g {sqrt_g!r}, expected {ref_g!r}"
            if m == "analytic" and bool(warning) != expect_warning:
                return f"analytic at t={t}: applicability warning {warning!r}"
        return None

    return check


def linear_reference(system: LinearSystem, W0: np.ndarray, split_steps: int):
    def reference(t, method, _rows):
        if method == "analytic":
            return system.closed_form(t)
        if method == "split":
            return system.strang(W0, t, split_steps)
        return system.congruence(W0, t)

    return reference


def check_classify(expected_code: int, per_point_ref: Callable[[np.ndarray], float], count: int):
    def check(text: str, code: int) -> str | None:
        err = _expect_code(code, expected_code)
        if err:
            return err
        rep = json.loads(text)
        verdict = "hamiltonian" if expected_code == 0 else "non-hamiltonian"
        if rep["verdict"] != verdict:
            return f"verdict {rep['verdict']}"
        if len(rep["per_point"]) != count + 1:
            return f"{len(rep['per_point'])} points, expected {count + 1}"
        for entry in rep["per_point"]:
            ref = per_point_ref(np.array(entry["point"]))
            if abs(entry["max_abs"] - ref) > 1e-10 * max(1.0, ref):
                return f"residual {entry['max_abs']!r} at {entry['point']}, expected {ref!r}"
        return None

    return check


def check_audit(text: str, code: int) -> str | None:
    err = _expect_code(code, 0)
    if err:
        return err
    rep = json.loads(text)
    tols = rep["tolerances"]
    if not (
        rep["pass"]
        and rep["max_invariance_residual"] < tols["residual"]
        and rep["max_jacobi_residual"] < tols["residual"]
        and rep["max_volume_law_gap"] < tols["volume_law"]
    ):
        return f"audit failed: {rep}"
    return None


def check_bracket(expected: Callable[[np.ndarray, float], float], queries: list[dict]):
    def check(text: str, code: int) -> str | None:
        err = _expect_code(code, 0)
        if err:
            return err
        got = json.loads(text)["queries"]
        if len(got) != len(queries):
            return f"{len(got)} queries answered, expected {len(queries)}"
        for entry, q in zip(got, queries):
            ref = expected(np.array(q["point"]), q["time"])
            if abs(entry["bracket"] - ref) > 1e-12 * max(1.0, abs(ref)):
                return f"bracket {entry['bracket']!r} at {q}, expected {ref!r}"
            if abs(entry["jacobi_residual"]) > 1e-8:
                return f"jacobi residual {entry['jacobi_residual']!r} at {q}"
            leib = entry["leibniz"]
            if max(abs(leib["formula"]), abs(leib["numerical"])) > 1e-6:
                return f"leibniz defect {leib} at {q}"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads.


class Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def config(self, name: str, data: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True))
        return str(path)


def _point(rng, d: int, box: float) -> list[float]:
    return [float(v) for v in rng.uniform(-box, box, d)]


def demo_cli(rng, out: Writer, repo: Path, small: bool) -> list[Invocation]:
    paths = sorted((repo / "demos" / "configs").glob("*.json"))
    if not paths:
        raise FileNotFoundError("no demos/configs/*.json in the checkout")
    invs = []
    for path in paths:
        data = json.loads(path.read_text())
        n = data["n"]
        d = 2 * n
        system = LinearSystem(n, quadratic_hessian(data["hamiltonian"], n, rng), friction_matrix(data.get("friction"), n))
        samples = dict(data.get("samples", {}))
        samples["seed"] = int(rng.integers(2**31))
        data["samples"] = samples
        queries = [{"point": _point(rng, d, 1.0), "time": 0.0}]
        data["queries"] = queries
        cfg = out.config(f"demo_{path.stem}", data)
        W0 = canonical(n)
        residual = system.static_residual(W0)
        t_grid = [float(t) for t in data.get("t_grid", [1.0])]
        split_steps = data.get("splitting", {}).get("steps", 100)
        methods = ["analytic", "series", "split", "pullback"]
        invs += [
            Invocation(
                f"classify {path.stem}",
                ["classify", "--config", cfg],
                check_classify(10 if system.K.any() else 0, lambda x, r=residual: r, samples.get("count", 50)),
            ),
            Invocation(
                f"evolve-metric {path.stem}",
                ["evolve-metric", "--config", cfg],
                check_evolve(d, methods, t_grid, linear_reference(system, W0, split_steps), ROUTE_TOL,
                             expect_warning=not system.closed_form_applies()),
            ),
            Invocation(f"audit {path.stem}", ["audit", "--config", cfg], check_audit),
            Invocation(
                f"bracket {path.stem}",
                ["bracket", "--config", cfg, "--A", "q1", "--B", "p1", "--C", "q1*p1"],
                check_bracket(lambda x, t: 1.0, queries),  # canonical metric at t = 0
            ),
        ]
    return invs


def _skew(rng, d: int) -> np.ndarray:
    B = rng.uniform(-0.5, 0.5, (d, d))
    return canonical(d // 2) + B - B.T


def nonlinear_routes(rng, out: Writer, repo: Path, small: bool) -> list[Invocation]:
    t = EVAL_TIME
    # (a) coupled quartic, K = 1, canonical W0: the closed form e^{t} blocks applies
    x_a = _point(rng, 4, 0.5)
    cfg_a = out.config("quartic_canonical", {
        "n": 2, "hamiltonian": QUARTIC, "friction": 1.0, "metric": "canonical",
        "t_grid": [t], "splitting": {"steps": 20},
        "queries": [{"point": x_a, "time": 0.0}],
    })
    closed = friction_blocks(math.exp(t) * np.eye(2))
    all_routes = ["analytic", "series", "split", "pullback"]

    # (b) same field, generic constant skew W0: series against pullback
    W0_b = _skew(rng, 4)
    cfg_b = out.config("quartic_generic_w0", {
        "n": 2, "hamiltonian": QUARTIC, "friction": 1.0,
        "metric": [[f"{v:.17g}" for v in row] for row in W0_b],
        "t_grid": [t], "series": {"order": 5, "mode": "generic"},
        "methods": ["series", "pullback"],
        "queries": [{"point": _point(rng, 4, 0.5), "time": 0.0}],
    })
    # det W(t) = det(W0) det(M)^2 with det M = exp(t tr K) for the backward flow
    sqrt_g_b = math.sqrt(abs(np.linalg.det(W0_b))) * math.exp(2.0 * t)

    # (c) Van der Pol in components form, canonical W0
    cfg_c = out.config("van_der_pol", {
        "n": 1, "components": VAN_DER_POL, "metric": "canonical",
        "t_grid": [t], "series": {"order": 6, "mode": "generic"},
        "methods": ["series", "pullback"],
        "queries": [{"point": _point(rng, 2, 1.0), "time": 0.0}],
    })

    def pullback_row(_t, _method, rows):
        return rows["pullback"]

    def series_tol(name):
        return {"series": SERIES_TRUNCATION[name] + ROUTE_TOL["pullback"], "pullback": 0.0}

    check_b_rows = check_evolve(4, ["series", "pullback"], [t], pullback_row, series_tol("quartic_generic_w0"))

    def check_b(text: str, code: int) -> str | None:
        err = check_b_rows(text, code)
        if err:
            return err
        for _, m, _, sqrt_g, _ in _parse_rows(text, 4):
            if m == "pullback" and not _close(sqrt_g, sqrt_g_b, ROUTE_TOL["pullback"]):
                return f"pullback sqrt_g {sqrt_g!r}, expected {sqrt_g_b!r}"
        return None

    return [
        Invocation("evolve-metric quartic_canonical", ["evolve-metric", "--config", cfg_a],
                   check_evolve(4, all_routes, [t], lambda *_: closed, ROUTE_TOL)),
        Invocation("evolve-metric quartic_generic_w0", ["evolve-metric", "--config", cfg_b], check_b),
        Invocation("evolve-metric van_der_pol", ["evolve-metric", "--config", cfg_c],
                   check_evolve(2, ["series", "pullback"], [t], pullback_row, series_tol("van_der_pol"))),
    ]


def chain_hamiltonian(n: int) -> str:
    kinetic = " + ".join(f"p{i}^2/2" for i in range(1, n + 1))
    onsite = " + ".join(f"q{i}^2/2" for i in range(1, n + 1))
    springs = " + ".join(f"(q{i} - q{i + 1})^2/2" for i in range(1, n))
    return f"{kinetic} + {onsite} + {springs}"


def chain_system(n: int, rng) -> tuple[str, list[float], LinearSystem]:
    H = chain_hamiltonian(n)
    rates = [(0.5, 1.0, 1.5)[i % 3] for i in range(n)]
    return H, rates, LinearSystem(n, quadratic_hessian(H, n, rng), np.diag(rates))


def linear_chain(rng, out: Writer, repo: Path, small: bool) -> list[Invocation]:
    t = EVAL_TIME
    big, mid = (6, 4) if small else (24, 8)
    invs = []
    H, rates, system = chain_system(big, rng)
    d = 2 * big
    W0 = canonical(big)
    cfg = out.config(f"chain_{big}", {
        "n": big, "hamiltonian": H, "friction": rates, "metric": "canonical", "t_grid": [t],
        "methods": ["analytic", "series", "pullback"],
        "queries": [{"point": _point(rng, d, 1.0), "time": 0.0}],
        "samples": {"count": 50, "seed": int(rng.integers(2**31)), "box": 1.0},
    })
    invs.append(Invocation(
        f"evolve-metric chain_{big}", ["evolve-metric", "--config", cfg],
        check_evolve(d, ["analytic", "series", "pullback"], [t], linear_reference(system, W0, 1), ROUTE_TOL,
                     expect_warning=True),
    ))
    H8, rates8, system8 = chain_system(mid, rng)
    cfg8 = out.config(f"chain_{mid}", {
        "n": mid, "hamiltonian": H8, "friction": rates8, "metric": "canonical", "t_grid": [t],
        "splitting": {"steps": 10},
        "queries": [{"point": _point(rng, 2 * mid, 1.0), "time": 0.0}],
    })
    invs.append(Invocation(
        f"evolve-metric chain_{mid}", ["evolve-metric", "--config", cfg8],
        check_evolve(2 * mid, ["analytic", "series", "split", "pullback"], [t],
                     linear_reference(system8, canonical(mid), 10), ROUTE_TOL, expect_warning=True),
    ))
    residual = system.static_residual(W0)
    invs.append(Invocation(
        f"classify chain_{big}", ["classify", "--config", cfg],
        check_classify(10, lambda x: residual, 50),
    ))
    return invs


def sampled_points(rng, out: Writer, repo: Path, small: bool) -> list[Invocation]:
    count = 200 if small else 4000
    n_queries = 20 if small else 200
    queries = [
        {"point": _point(rng, 4, 1.0), "time": float(rng.uniform(0.0, 2.0))} for _ in range(n_queries)
    ]
    cfg = out.config("quartic_sampled", {
        "n": 2, "hamiltonian": QUARTIC, "friction": 1.0, "metric": "friction-analytic",
        "samples": {"count": count, "seed": int(rng.integers(2**31)), "box": 1.0},
        "t_max": 6.0, "queries": queries,
    })
    W_at_0 = canonical(2)  # the friction-analytic metric at t = 0

    def residual(x):
        F = W_at_0 @ quartic_field_jacobian(x)
        return float(np.max(np.abs(F.T - F)))

    def bracket(x, time):
        # W = blocks(g I), g = e^t, so {A, B} = (dA/dq . dB/dp - dA/dp . dB/dq) / g
        q1, q2, p1, _ = x
        dA_dq = np.array([q2, q1])  # A = q1*q2
        dB_dp = np.array([p1, 1.0])  # B = p1^2/2 + p2
        return float(dA_dq @ dB_dp) / math.exp(time)

    return [
        Invocation("classify quartic_sampled", ["classify", "--config", cfg],
                   check_classify(10, residual, count)),
        Invocation("audit quartic_sampled", ["audit", "--config", cfg], check_audit),
        Invocation(
            "bracket quartic_sampled",
            ["bracket", "--config", cfg, "--A", "q1*q2", "--B", "p1^2/2 + p2", "--C", "q1*p1"],
            check_bracket(bracket, queries),
        ),
    ]


BUILDERS = {
    "demo_cli": demo_cli,
    "nonlinear_routes": nonlinear_routes,
    "linear_chain": linear_chain,
    "sampled_points": sampled_points,
}


def build(workload: str, seed: int, workdir: Path, repo: Path, small: bool = False) -> list[Invocation]:
    """Write the workload's configs for ``seed`` and return its invocation list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, Writer(workdir), repo, small)
