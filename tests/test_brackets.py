import numpy as np
import pytest

from metricflow import (
    ConstantMetric,
    ExprMetric,
    Observable,
    PhasePoint,
    SingularMetricError,
    bracket_jacobi_residual,
    integrate_flow,
    inverse_metric,
    leibniz_defect,
    poisson_bracket,
)
from metricflow.friction import analytic_metric


def fd_nested_bracket(A, B, C, M, x, h=1e-5):
    """Oracle for {A, {B, C}} differentiating inner bracket values."""
    chart = M.chart
    from metricflow.exprlang import differentiate, evaluate

    def inner(coords):
        return poisson_bracket(B, C, M, PhasePoint(coords, x.time))

    d = chart.dim
    grad_inner = np.empty(d)
    for k in range(d):
        xp = np.array(x.coords)
        xm = np.array(x.coords)
        xp[k] += h
        xm[k] -= h
        grad_inner[k] = (inner(xp) - inner(xm)) / (2 * h)
    env = chart.env(x.coords, x.time)
    gA = np.array([evaluate(differentiate(A.expr, n), env) for n in chart.names])
    P = -inverse_metric(M, x)
    return float(gA @ P @ grad_inner)


def fd_cyclic_jacobi(A, B, C, M, x):
    return (
        fd_nested_bracket(A, B, C, M, x)
        + fd_nested_bracket(B, C, A, M, x)
        + fd_nested_bracket(C, A, B, M, x)
    )


class TestPoissonBracket:
    def test_canonical_relations(self, canonical1):
        x = PhasePoint([0.8, -0.4])
        assert poisson_bracket("q1", "p1", canonical1, x) == 1.0
        assert poisson_bracket("q1", "q1", canonical1, x) == 0.0

    def test_friction_metric_value(self, damped_system):
        M = analytic_metric(damped_system)
        x = PhasePoint([0.8, -0.4], 1.0)
        assert poisson_bracket("q1", "p1", M, x) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_antisymmetry_random(self, chart2, canonical2):
        rng = np.random.default_rng(20)
        obs = ["q1*p2 + sin(q2)", "exp(p1/3) - q1^2", "q2*p1*p2"]
        for text in obs:
            A = Observable.parse(text, chart2)
            for _ in range(5):
                x = PhasePoint(rng.uniform(-1, 1, 4))
                assert abs(poisson_bracket(A, A, canonical2, x)) < 1e-12

    def test_bilinearity(self, chart1, canonical1):
        rng = np.random.default_rng(21)
        A = Observable.parse("q1^2*p1", chart1)
        B = Observable.parse("sin(q1)", chart1)
        C = Observable.parse("p1^3", chart1)
        AB = Observable(A.expr + B.expr)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-1, 1, 2))
            lhs = poisson_bracket(AB, C, canonical1, x)
            rhs = poisson_bracket(A, C, canonical1, x) + poisson_bracket(B, C, canonical1, x)
            assert abs(lhs - rhs) < 1e-12

    def test_product_rule(self, chart1, canonical1):
        rng = np.random.default_rng(22)
        A = Observable.parse("p1^2/2 + q1^2/2", chart1)
        B = Observable.parse("q1", chart1)
        C = Observable.parse("p1*q1", chart1)
        BC = Observable(B.expr * C.expr)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-1.5, 1.5, 2))
            lhs = poisson_bracket(A, BC, canonical1, x)
            b = poisson_bracket(A, B, canonical1, x)
            c = poisson_bracket(A, C, canonical1, x)
            from metricflow.exprlang import evaluate

            env = chart1.env(x.coords, x.time)
            rhs = b * evaluate(C.expr, env) + evaluate(B.expr, env) * c
            assert abs(lhs - rhs) < 1e-9

    def test_singular_metric(self, chart1):
        M = ConstantMetric(chart1, np.zeros((2, 2)))
        with pytest.raises(SingularMetricError):
            poisson_bracket("q1", "p1", M, PhasePoint([0.0, 0.0]))


class TestBracketJacobi:
    def test_canonical_triple(self, canonical1):
        x = PhasePoint([0.4, 0.9])
        r = bracket_jacobi_residual("q1", "p1", "q1*p1", canonical1, x)
        assert abs(r) < 1e-10

    def test_friction_metric_triple(self, damped_system):
        M = analytic_metric(damped_system)
        x = PhasePoint([0.4, 0.9], 0.7)
        r = bracket_jacobi_residual("q1", "p1", "q1*p1", M, x)
        assert abs(r) < 1e-8
        A = Observable.parse("q1", M.chart)
        B = Observable.parse("p1", M.chart)
        C = Observable.parse("q1*p1", M.chart)
        assert r == pytest.approx(fd_cyclic_jacobi(A, B, C, M, x), abs=1e-6)

    def test_x_dependent_closed_metric(self, chart1):
        # Jacobi is vacuous in 2D, so any nondegenerate skew field passes
        M = ExprMetric(chart1, [["0", "1+q1^2"], ["-(1+q1^2)", "0"]])
        x = PhasePoint([0.5, -0.2])
        r = bracket_jacobi_residual("q1", "p1", "q1*p1", M, x)
        assert abs(r) < 1e-10

    def test_negative_control_nonclosed_metric(self, chart2):
        # a nondegenerate skew field violating the closedness identity: the
        # bracket algebra loses the Jacobi property
        M = ExprMetric(
            chart2,
            [
                ["0", "1+p1", "0", "0"],
                ["-(1+p1)", "0", "0", "0"],
                ["0", "0", "0", "1"],
                ["0", "0", "-1", "0"],
            ],
        )
        rng = np.random.default_rng(23)
        A = Observable.parse("q1", chart2)
        B = Observable.parse("q2", chart2)
        C = Observable.parse("p2", chart2)
        for _ in range(5):
            x = PhasePoint(rng.uniform(-0.4, 0.4, 4))
            r = bracket_jacobi_residual(A, B, C, M, x)
            assert abs(r) > 1e-3
            # closed-form expansion of the cyclic sum for this metric
            expected = 1.0 / (1.0 + x.coords[2]) ** 2
            assert r == pytest.approx(expected, rel=1e-10)


class TestLeibnizDefect:
    def test_hamiltonian_no_defect(self, harmonic, canonical1):
        d = leibniz_defect("q1", "p1", harmonic, canonical1, PhasePoint([0.6, -0.3]))
        assert abs(d.formula) < 1e-10
        assert abs(d.numerical) < 1e-10

    def test_damped_static_metric(self, damped, canonical1):
        # frozen canonical metric on the damped oscillator: the defect is
        # the friction coefficient (sign fixed by the {q,p}=+1 convention)
        d = leibniz_defect("q1", "p1", damped, canonical1, PhasePoint([0.5, 0.8]))
        assert d.formula == pytest.approx(1.0, abs=1e-12)
        assert d.numerical == pytest.approx(d.formula, abs=1e-6)

    def test_invariant_metric_restores_rule(self, damped, damped_system):
        M = analytic_metric(damped_system)
        for t in (0.0, 0.5, 1.5):
            d = leibniz_defect("q1", "p1", damped, M, PhasePoint([0.5, 0.8], t))
            assert abs(d.formula) < 1e-10
            assert abs(d.numerical) < 1e-6

    def test_formula_matches_numerical_on_expr_metric(self, damped, chart1):
        M = ExprMetric(chart1, [["0", "1+q1^2/4"], ["-(1+q1^2/4)", "0"]])
        d = leibniz_defect("q1*p1", "q1 + p1^2", damped, M, PhasePoint([0.4, 0.3]))
        assert d.numerical == pytest.approx(d.formula, abs=1e-6)


class TestConservedBrackets:
    def test_bracket_of_invariants_is_conserved(self, damped, damped_system):
        # invariants from transported initial coordinates: I_a(x, t) is the
        # a-th coordinate of the backward flow; gradients are rows of the
        # backward tangent map
        M = analytic_metric(damped_system)
        x0 = PhasePoint([0.9, -0.4], 0.0)

        def invariant_bracket(t):
            seg = integrate_flow(damped, x0, t)
            x = seg.end
            Mb = integrate_flow(damped, PhasePoint(x.coords, 0.0), -t).tangent
            P = -inverse_metric(M, x)
            return (Mb @ P @ Mb.T)[0, 1]  # {I_q, I_p}

        values = [invariant_bracket(t) for t in (0.0, 0.4, 1.0, 2.0)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-6)
