import math

import numpy as np
import pytest
from scipy.integrate import quad

from metricflow import (
    PhasePoint,
    applicability_check,
    analytic_metric,
    canonical_metric,
    determinant_factor,
    integrate_flow,
    invariance_residual,
    inverse_metric,
    jacobi_residual,
    metric_determinant,
    metric_eval,
    pullback_metric,
)
from metricflow.evolution import EvolutionError, SeriesPropagator, SplitMetric
from metricflow.exprlang import BinOp, Neg, Num, Var, differentiate, free_vars, parse
from metricflow.friction import (
    ApplicabilityError,
    ApplicabilityWarning,
    FrictionError,
    FrictionSystem,
)


class TestConstruction:
    def test_mixed_hamiltonian_rejected(self, chart1):
        with pytest.raises(FrictionError):
            FrictionSystem.build(chart1, "sin(q1*p1)", 1.0)

    def test_time_dependent_hamiltonian_rejected(self, chart1):
        with pytest.raises(FrictionError):
            FrictionSystem.build(chart1, "p1^2/2 + t*q1^2", 1.0)

    def test_friction_shapes(self, chart2):
        FrictionSystem.build(chart2, "(p1^2+p2^2)/2", 0.5)
        FrictionSystem.build(chart2, "(p1^2+p2^2)/2", [1.0, 2.0])
        FrictionSystem.build(chart2, "(p1^2+p2^2)/2", [[1.0, 0.1], [0.0, 2.0]])
        FrictionSystem.build(chart2, "(p1^2+p2^2)/2", ["cos(t)", "1"])

    def test_bad_shapes(self, chart2):
        with pytest.raises(FrictionError):
            FrictionSystem.build(chart2, "(p1^2+p2^2)/2", [1.0, 2.0, 3.0])
        with pytest.raises(FrictionError):
            # diagonal entries may depend on t only
            FrictionSystem.build(chart2, "(p1^2+p2^2)/2", ["q1", "1"])

    def test_constant_expression_diagonal_is_a_matrix(self, chart2):
        H = "(p1^2+p2^2)/2"
        written = FrictionSystem.build(chart2, H, ["0.5", "2/2"])
        assert not written.time_dependent and written.friction.dtype == float
        np.testing.assert_array_equal(written.k_matrix, np.diag([0.5, 1.0]))
        assert [type(r) for r in written.rates] == [float, float]
        assert written.vector_field.components == FrictionSystem.build(chart2, H, [0.5, 1.0]).vector_field.components

    def test_a_number_among_expressions_is_an_expression(self, chart2):
        # the first entry no longer picks the path: [1, "t"] once failed in numpy;
        # 1 and "1" are both held as the float 1.0 beside the expression t
        H = "(p1^2+p2^2)/2"
        for friction in ([1, "t"], ["1", "t"]):
            system = FrictionSystem.build(chart2, H, friction)
            assert system.time_dependent and system.k_matrix is None
            assert system.rates == [1.0, parse("t", chart2)] and type(system.rates[0]) is float
            assert system.friction[0, 1] == system.friction[1, 0] == 0
            np.testing.assert_array_equal(system.friction_at(0.7), np.diag([1.0, 0.7]))
        np.testing.assert_array_equal(FrictionSystem.build(chart2, H, [0.5, "2/2"]).k_matrix, np.diag([0.5, 1.0]))

    @pytest.mark.parametrize(
        "friction", [["t", [1.0, 2.0]], [[1, 0], [0]], (1.0, (1.0, 0.0)), [[1.0, 0.0], 2.0]]
    )
    def test_mixed_or_ragged_rows_rejected(self, chart2, friction):
        # the first two once raised exprlang's TypeError and numpy's ValueError
        with pytest.raises(FrictionError, match="'friction' must be rows of one length"):
            FrictionSystem.build(chart2, "(p1^2+p2^2)/2", friction)

    def test_time_dependent_field_is_not_expanded(self, chart2):
        # the field's friction part is -K(t) p; the series expands a field at t = 0, so refuses it
        sys_t = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2", ["cos(t)", "1 + t^2"])
        V, x = sys_t.vector_field, np.array([0.3, -0.2, 0.1, 0.4])
        for t in (0.0, 0.7, 2.0):
            np.testing.assert_array_equal(V.parts[1].eval(x, t)[2:], -sys_t.friction_at(t) @ x[2:])
            np.testing.assert_array_equal(V.jacobian(x, t)[2:, 2:], -sys_t.friction_at(t))
        assert not V.autonomous
        with pytest.raises(EvolutionError, match="reads t"):
            SeriesPropagator(V, canonical_metric(chart2).matrix)
        with pytest.raises(EvolutionError, match="autonomous"):
            SplitMetric(V, canonical_metric(chart2).matrix, 10)

    def test_constant_friction_field_is_unchanged(self, chart2):
        # float entries of K build the trees Num(k) * p, as before expressions were accepted
        V = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2", [0.5, 2.0]).vector_field
        assert V.autonomous
        assert V.part2[2:] == tuple(Neg(BinOp("*", Num(k), Var(p))) for k, p in ((0.5, "p1"), (2.0, "p2")))


class TestAnalyticMetric:
    def test_diag_constant(self, damped2_system):
        M = analytic_metric(damped2_system)
        x = PhasePoint(np.zeros(4), 1.0)
        W = metric_eval(M, x)
        G = np.diag([np.e, np.e**2])
        assert np.max(np.abs(W[:2, 2:] - G)) < 1e-12
        assert np.max(np.abs(W[2:, :2] + G)) < 1e-12

    def test_t0_is_canonical(self, damped2_system, chart2):
        M = analytic_metric(damped2_system)
        W = metric_eval(M, PhasePoint(np.zeros(4), 0.0))
        assert np.array_equal(W, canonical_metric(chart2).matrix)

    def test_intermediate_time(self, damped2_system):
        W = analytic_metric(damped2_system).value(np.zeros(4), 0.5)
        assert W[0, 2] == pytest.approx(np.exp(0.5), abs=1e-12)
        assert W[1, 3] == pytest.approx(np.exp(1.0), abs=1e-12)

    def test_zero_friction_stays_canonical(self, chart1):
        sys0 = FrictionSystem.build(chart1, "p1^2/2 + q1^2/2", 0.0)
        M = analytic_metric(sys0)
        for t in (0.0, 1.0, 7.5):
            W = M.value(np.zeros(2), t)
            assert np.array_equal(W, [[0.0, 1.0], [-1.0, 0.0]])

    def test_time_dependent_quadrature(self, chart1):
        sys_t = FrictionSystem.build(chart1, "p1^2/2 + q1^2/2", ["cos(t)"])
        M = analytic_metric(sys_t)
        # closed-form antiderivative oracle: g(t) = exp(sin t)
        for t in (np.pi, 0.5, 1.3, 2.0):
            W = M.value(np.zeros(2), t)
            assert W[0, 1] == pytest.approx(np.exp(np.sin(t)), abs=1e-10)

    def test_constant_entry_beside_a_time_dependent_one(self, chart2):
        system = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", ["exp(-t)", "0.5"])
        assert system.time_dependent
        G = system.growth_matrix(0.0, 1.0)
        # the integral of exp(-t) over [0, 1] is 1 - 1/e; the constant entry needs no quadrature
        assert G[0, 0] == pytest.approx(np.exp(1.0 - np.exp(-1.0)), rel=1e-12)
        assert G[1, 1] == np.exp(0.5)
        assert G[0, 1] == G[1, 0] == 0.0

    def test_inverse_entries(self, damped_system):
        M = analytic_metric(damped_system)
        inv = inverse_metric(M, PhasePoint(np.zeros(2), 1.0))
        assert inv[0, 1] == pytest.approx(-np.exp(-1.0), abs=1e-12)
        assert inv[1, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_jacobi_exact_zero(self, damped2_system):
        M = analytic_metric(damped2_system)
        assert jacobi_residual(M, PhasePoint(np.ones(4), 2.0)) == 0.0


class TestQuadrature:
    """The integral of time-dependent friction against scipy.integrate.quad."""

    @pytest.mark.parametrize(
        "entry, f",
        [
            ("cos(t)", math.cos),
            ("1 + t^2", lambda t: 1.0 + t * t),
            ("exp(-t)", lambda t: math.exp(-t)),
            ("1/(1 + 25*t^2)", lambda t: 1.0 / (1.0 + 25.0 * t * t)),  # needs bisection
        ],
        ids=["cos", "quadratic", "exp", "runge"],
    )
    @pytest.mark.parametrize("t0, t", [(0.0, 1.3), (-0.5, 4.0), (2.5, -1.0), (0.7, 0.7)])
    def test_matches_scipy_quad(self, chart1, entry, f, t0, t):
        sys_t = FrictionSystem.build(chart1, "p1^2/2 + q1^2/2", [entry])
        ref, _ = quad(f, t0, t, epsabs=1e-12, epsrel=1e-12)
        assert sys_t.friction_integral(t0, t)[0, 0] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    # 100 intervals of 20 nodes cannot resolve 1600 periods; 1/t^2 diverges at 0
    @pytest.mark.parametrize("entry, t", [("cos(1000*t)", 10.0), ("1/t^2", 1.0)], ids=["unresolved", "divergent"])
    def test_no_convergence_raises(self, chart1, entry, t):
        sys_t = FrictionSystem.build(chart1, "p1^2/2 + q1^2/2", [entry])
        with pytest.raises(FrictionError, match="friction entry 1 did not converge"):
            sys_t.friction_integral(0.0, t)


class TestDeterminantFactor:
    def test_two_rates(self, damped2_system):
        assert determinant_factor(damped2_system, 0.0, 1.0) == pytest.approx(
            np.exp(3.0), abs=1e-12 * np.exp(3.0)
        )

    def test_zero_friction(self, chart1):
        sys0 = FrictionSystem.build(chart1, "p1^2/2 + q1^2/2", 0.0)
        assert determinant_factor(sys0, 0.0, 5.0) == 1.0

    def test_matches_metric_determinant(self, damped2_system):
        M = analytic_metric(damped2_system)
        for t in (0.25, 0.5, 1.0):
            det = metric_determinant(M, PhasePoint(np.zeros(4), t))
            assert determinant_factor(damped2_system, 0.0, t) == pytest.approx(
                det.sqrt_g, rel=1e-10
            )

    def test_abel_liouville_cross_check(self, damped_system):
        # sqrt(g)(t) equals 1/det of the forward tangent map
        t = 2.0
        value = determinant_factor(damped_system, 0.0, t)
        assert value == pytest.approx(np.exp(2.0), rel=1e-12)
        M = integrate_flow(damped_system.vector_field, PhasePoint([0.4, -0.1]), t).tangent
        assert value == pytest.approx(1.0 / np.linalg.det(M), rel=1e-7)


class TestApplicability:
    def test_separable_unequal_rates_ok(self, chart2):
        sys_ok = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1^2 + q2^2", [1.0, 2.0])
        assert applicability_check(sys_ok).ok

    def test_uniform_friction_allows_coupling(self, chart2):
        sys_ok = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2", 1.0)
        assert applicability_check(sys_ok).ok

    def test_coupled_unequal_rates_warn(self, chart2):
        sys_bad = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2", [1.0, 2.0])
        result = applicability_check(sys_bad)
        assert not result.ok
        assert result.pair == (1, 2)
        with pytest.raises(ApplicabilityError):
            analytic_metric(sys_bad)
        with pytest.warns(ApplicabilityWarning):
            M = analytic_metric(sys_bad, allow_inapplicable=True)
        # the override still produces the claimed form, with a residual
        r = invariance_residual(sys_bad.vector_field, M, PhasePoint(np.zeros(4), 1.0))
        assert np.max(np.abs(r)) > 1.0

    def test_kinetic_coupling_detected(self, chart2):
        sys_bad = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + p1*p2 + q1^2", [1.0, 2.0])
        assert not applicability_check(sys_bad).ok

    def test_nondiagonal_matrix_conservative(self, chart2):
        sys_nd = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1^2", [[1.0, 0.3], [0.0, 1.0]])
        assert not applicability_check(sys_nd).ok

    def test_time_dependent_equal_rates_ok(self, chart2):
        sys_t = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2", ["cos(t)", "cos(t)"])
        assert applicability_check(sys_t).ok

    def test_time_dependent_unequal_rates_coupled(self, chart2):
        sys_bad = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2/2", ["1 + t", "2 + t"])
        result = applicability_check(sys_bad)
        assert not result.ok
        assert result.pair == (1, 2)

    def test_time_dependent_rates_equal_in_value(self, chart2):
        # t + t and 2*t are different trees; probing in t finds them equal
        sys_t = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2/2", ["t + t", "2*t"])
        assert sys_t.rates == [parse("t + t", chart2), parse("2*t", chart2)]
        assert sys_t.rates[0] != sys_t.rates[1]
        assert applicability_check(sys_t).ok

    def test_numeric_rates_compare_exactly(self, chart2):
        # only expressions in t are probed to a tolerance; numbers 1e-13 apart are unequal rates
        sys_n = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2/2", [1.0, 1.0 + 1e-13])
        result = applicability_check(sys_n)
        assert not result.ok and result.pair == (1, 2)

    def test_free_name_whose_mixed_partial_folds_to_zero(self, chart2):
        # p1 is free in dH/dq1 = q1 + 1^p1 + 1^q2, yet both checks differentiate
        # and find zero mixed partials: 1^p1 and 1^q2 are constant
        H = "(p1^2+p2^2)/2 + (q1^2+q2^2)/2 + q1*1^p1 + q1*1^q2 + p1*1^p2"
        system = FrictionSystem.build(chart2, H, [1.0, 2.0])
        dq1 = differentiate(system.hamiltonian, "q1")
        assert {"p1", "q2"} <= free_vars(dq1)
        assert "p2" in free_vars(differentiate(system.hamiltonian, "p1"))
        assert applicability_check(system).ok

    KINETIC = "(p1^2+p2^2)/2 + p1*p2*p2/3 + q1^2 + q2^2"

    @pytest.mark.parametrize(
        "H, friction, coupling",
        [
            ("(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2", ["0.5 + 0.1*t", "1"], "0.5"),
            (KINETIC, [1, 2], "(p2+p2)/3"),
            (KINETIC + " + sin(q1)*cos(q2)", [1, 2], "cos(q1)*-sin(q2)"),
        ],
        ids=["potential", "kinetic", "potential-first"],
    )
    def test_coupling_text_is_read_off_the_field_jacobian(self, chart2, H, friction, coupling):
        # the mixed partials are the q-q and p-p blocks of the field's Jacobian;
        # a potential coupling is negated back, and names the same text as the
        # second derivative of H
        result = applicability_check(FrictionSystem.build(chart2, H, friction))
        assert not result.ok and result.pair == (1, 2)
        assert f"coupled through '{coupling}';" in result.detail

    @pytest.mark.parametrize("H, pair", [("sin(q1*p1)", "q1 and p1"), ("(p1^2+p2^2)/2 + q2*p1", "q2 and p1"),
                                         ("(p1^2+p2^2)/2 + q1*p2 + q2*p1", "q1 and p2")])
    def test_separability_names_the_first_q_p_pair(self, chart2, H, pair):
        with pytest.raises(FrictionError, match=f"^hamiltonian couples {pair}: expected the additive form T"):
            FrictionSystem.build(chart2, H, [1.0, 2.0])


class TestInvariants:
    def test_invariance_for_ok_systems(self, damped2_system):
        M = analytic_metric(damped2_system)
        V = damped2_system.vector_field
        rng = np.random.default_rng(30)
        for _ in range(50):
            x = PhasePoint(rng.uniform(-1, 1, 4), rng.uniform(0.0, 3.0))
            r = invariance_residual(V, M, x)
            assert np.max(np.abs(r)) < 1e-8

    def test_matches_pullback(self, damped2_system, chart2):
        M = analytic_metric(damped2_system)
        V = damped2_system.vector_field
        M0 = canonical_metric(chart2)
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = PhasePoint(rng.uniform(-1, 1, 4), rng.uniform(0.2, 2.0))
            Wa = metric_eval(M, x)
            Wp = pullback_metric(V, M0, x)
            assert np.max(np.abs(Wa - Wp)) < 1e-7

    def test_det_trace_identity(self, chart2):
        K = np.array([[1.0, 0.4], [-0.2, 2.0]])
        sys_nd = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1^2 + q2^2", K)
        for t in (0.5, 1.0, 2.0):
            G = sys_nd.growth_matrix(0.0, t)
            assert abs(np.linalg.det(G)) == pytest.approx(
                np.exp(t * np.trace(K)), rel=1e-10
            )
