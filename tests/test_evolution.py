import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from metricflow import (
    ConstantMetric,
    IntegratorOptions,
    MetricError,
    PhasePoint,
    SeriesDivergenceWarning,
    SeriesMetric,
    SeriesPropagator,
    SplitMetric,
    TransportedMetric,
    VectorFieldSpec,
    canonical_metric,
    compressibility_flow,
    invariance_residual,
    jacobi_residual,
    metric_determinant,
    pullback_metric,
)
from metricflow.evolution import EvolutionError, congruence
from metricflow.exprlang import DomainError, evaluate, parse
from metricflow.friction import analytic_metric
from metricflow.phasespace import ExprMetric

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def fd_flow_jacobian(V, x, t, h=1e-6):
    """Independent pullback oracle: Jacobian of the backward flow by
    separate perturbed integrations (no variational equations)."""
    from metricflow import integrate_flow

    d = V.chart.dim
    cols = []
    opts = IntegratorOptions(abs_tol=1e-12, rel_tol=1e-12)
    for k in range(d):
        xp = np.array(x.coords)
        xm = np.array(x.coords)
        xp[k] += h
        xm[k] -= h
        yp = integrate_flow(V, PhasePoint(xp, 0.0), -t, opts).end.coords
        ym = integrate_flow(V, PhasePoint(xm, 0.0), -t, opts).end.coords
        cols.append((yp - ym) / (2 * h))
    return np.column_stack(cols)


class TestSeries:
    def test_t_zero_identity(self, damped):
        W, _ = SeriesPropagator(damped, J2).propagate(0.0)
        assert np.array_equal(W, J2)

    def test_damped_linear_exact(self, damped):
        W, _ = SeriesPropagator(damped, J2).propagate(1.0)
        assert W[0, 1] == pytest.approx(np.e, abs=1e-12)
        assert W[1, 0] == pytest.approx(-np.e, abs=1e-12)

    def test_generic_path_matches_exact(self, damped):
        W, _ = SeriesPropagator(damped, J2).propagate(0.1, [0.5, 0.5], order=8, mode="generic")
        assert W[0, 1] == pytest.approx(np.exp(0.1), abs=1e-12)

    def test_linear_mode_requires_linearity(self, quartic_system):
        with pytest.raises(EvolutionError):
            SeriesPropagator(quartic_system.vector_field, J2).propagate(0.5, mode="linear")

    def test_divergence_warning(self, chart1):
        # anti-damping alternates the series terms, so a low-order truncation
        # at large t leaves the last term dominating the running sum
        V = VectorFieldSpec.from_hamiltonian(chart1, "p1^2/2 + q1^2/2", [[-1.0]])
        with pytest.warns(SeriesDivergenceWarning):
            SeriesPropagator(V, J2).propagate(10.0, [0.1, 0.1], order=3, mode="generic")

    def test_propagator_reuse(self, damped):
        prop = SeriesPropagator(damped, J2)
        W1, info1 = prop.propagate(1.0)
        W2, info2 = prop.propagate(0.5)
        assert info1.path == "linear-exact"
        assert W1[0, 1] == pytest.approx(np.e, abs=1e-12)
        assert W2[0, 1] == pytest.approx(np.exp(0.5), abs=1e-12)

    def test_generic_series_field_is_self_consistent(self, chart1):
        # x-dependent powers: the field's time and space derivatives must
        # agree with the conservation law up to the truncation tail
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1 - q1^2*p1/4"])
        M = SeriesMetric(V, J2, order=6, mode="generic")
        x = PhasePoint([0.3, 0.2], 0.1)
        r = invariance_residual(V, M, x)
        assert np.max(np.abs(r)) < 1e-8
        W = M.value(x.coords, 0.1)
        Wp = pullback_metric(V, canonical_metric(chart1), x)
        assert np.max(np.abs(W - Wp)) < 1e-9

    def test_expression_size_cap(self, chart1, monkeypatch):
        import metricflow.evolution as evolution

        # state-dependent compressibility makes the powers grow in degree
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1 - q1^2*p1"])
        SeriesPropagator(V, J2).propagate(0.1, [0.2, 0.1], order=10)
        monkeypatch.setattr(evolution, "MAX_SERIES_COEFFS", 50)
        with pytest.raises(evolution.ExpressionSizeError):
            SeriesPropagator(V, J2).propagate(0.1, [0.2, 0.1], order=10)


def symbolic_powers(V, W0, order):
    """J^j W0 for j <= order as expression trees, by the symbolic operator
    (d_k(w_lm X^m) - d_l(w_km X^m), differentiated and simplified)."""
    from metricflow.exprlang import Num, differentiate, simplify

    d, names, X = V.chart.dim, V.chart.names, V.components
    powers = [[[Num(float(v)) for v in row] for row in W0]]
    for _ in range(order):
        W = powers[-1]
        P = []
        for l in range(d):
            acc = Num(0.0)
            for m in range(d):
                acc = acc + W[l][m] * X[m]
            P.append(simplify(acc))
        nxt = [[Num(0.0)] * d for _ in range(d)]
        for k in range(d):
            for l in range(k + 1, d):
                u = simplify(differentiate(P[l], names[k]) - differentiate(P[k], names[l]))
                nxt[k][l], nxt[l][k] = u, simplify(-u)
        powers.append(nxt)
    return powers


def symbolic_at_point(powers, chart, coords):
    """(P_j, dP_j) of each symbolic power at the point, dP[k, l, m] = d_k P[l, m]."""
    from metricflow.exprlang import differentiate

    env = chart.env(coords, 0.0)
    out = []
    for entries in powers:
        P = np.array([[evaluate(e, env) for e in row] for row in entries])
        dP = np.array(
            [[[evaluate(differentiate(e, name), env) for e in row] for row in entries] for name in chart.names]
        )
        out.append((P, dP))
    return out


def termwise_series(terms, order, time):
    """The truncated series and its termwise time and space derivatives from
    the powers at a point, with SeriesMetric's truncation rules."""
    from metricflow.evolution import SERIES_STOP_NORM

    value, coeff = terms[0][0], 1.0
    for j in range(1, order + 1):
        coeff *= time / j
        term = coeff * terms[j][0]
        value = value + term
        if np.max(np.abs(term)) < SERIES_STOP_NORM * max(1.0, np.max(np.abs(value))):
            break
    d_dt, coeff = terms[1][0], 1.0
    for j in range(2, order + 1):
        coeff *= time / (j - 1)
        term = coeff * terms[j][0]
        d_dt = d_dt + term
        if np.max(np.abs(term)) < SERIES_STOP_NORM:
            break
    d_dx, coeff = terms[0][1], 1.0
    for j in range(1, order + 1):
        coeff *= time / j
        term = coeff * terms[j][1]
        d_dx = d_dx + term
        if np.max(np.abs(term)) < SERIES_STOP_NORM:
            break
    return value, d_dt, d_dx


def assert_relative(got, ref, tol):
    assert np.max(np.abs(got - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


class TestSeriesForwardMode:
    """The Taylor-coefficient powers against the symbolic operator powers."""

    @staticmethod
    def van_der_pol(chart1):
        return VectorFieldSpec.from_components(chart1, ["p1", "(1 - q1^2)*p1 - q1"])

    @staticmethod
    def quartic_generic(chart2):
        from metricflow import FrictionSystem

        V = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2", 1.0).vector_field
        B = np.random.default_rng(5).standard_normal((4, 4))
        return V, B - B.T

    def test_d_dx_makes_no_differentiate_calls(self, chart1, monkeypatch):
        import metricflow.evolution as evolution
        import metricflow.exprlang as exprlang
        V = self.van_der_pol(chart1)
        calls = []

        def counting(name, orig):
            def wrapper(*args):
                calls.append(name)
                return orig(*args)

            return wrapper

        for name in ("differentiate", "gradient", "simplify"):
            wrapped = counting(name, getattr(exprlang, name))
            monkeypatch.setattr(exprlang, name, wrapped)
            monkeypatch.setattr(evolution, name, wrapped, raising=False)
        # construction and every power at both points included
        M = SeriesMetric(V, J2, order=6, mode="generic")
        for coords in ([0.3, -0.4], [0.7, 0.1]):
            M.value(coords, 0.5)
            M.d_dt(coords, 0.5)
            M.d_dx(coords, 0.5)
        assert calls == []

    @pytest.mark.parametrize("case", ["van_der_pol", "quartic_generic"])
    def test_d_dx_matches_termwise_symbolic(self, case, chart1, chart2):
        if case == "van_der_pol":
            V, W0, order, coords = self.van_der_pol(chart1), J2, 6, [0.3, -0.4]
        else:
            (V, W0), order, coords = self.quartic_generic(chart2), 4, [0.2, -0.3, 0.4, 0.1]
        M = SeriesMetric(V, W0, order=order, mode="generic")
        terms = symbolic_at_point(symbolic_powers(V, W0, order), V.chart, coords)
        for j, (P, dP) in enumerate(terms):
            got_P, got_dP = M.prop._at_point(coords, j, order)
            assert_relative(got_P, P, 1e-13)
            assert_relative(got_dP, dP, 1e-13)
        for time in (0.0, 0.5, -0.3):
            assert_relative(M.d_dx(coords, time), termwise_series(terms, order, time)[2], 1e-13)

    def test_value_and_d_dt_match_symbolic_powers(self, chart1):
        V = self.van_der_pol(chart1)
        coords = [0.3, -0.4]
        terms = symbolic_at_point(symbolic_powers(V, J2, 6), chart1, coords)
        M = SeriesMetric(V, J2, order=6, mode="generic")
        for time in (0.5, -0.3):
            value, d_dt, _ = termwise_series(terms, 6, time)
            assert_relative(M.value(coords, time), value, 1e-13)
            assert_relative(M.d_dt(coords, time), d_dt, 1e-13)

    def test_exact_zero_partial_of_sqrt(self, chart1):
        from metricflow.exprlang import Monomials, differentiate, taylor_expand

        env = chart1.env([0.3, 0.0])
        # sqrt of an argument that does not vary has no derivative to take:
        # q1 - q1 expands to exactly 0, so sqrt(q1 - q1) is 0 with zero partials
        s = taylor_expand([parse("sqrt(q1 - q1) + q1", chart1)], chart1, [0.3, 0.0], 0.0, 3, Monomials(2))
        assert s.tolist() == [[0.3, 1.0, 0.0]]
        # sqrt(p1) varies, and has no expansion at p1 = 0: every partial fails,
        # also d/dq1, which differentiate folds to 0
        assert evaluate(differentiate(parse("sqrt(p1)", chart1), "q1"), env) == 0.0
        for text in ("sqrt(p1)", "q1*sqrt(p1) + q1"):
            with pytest.raises(DomainError, match=r"no Taylor expansion at 0 in 'sqrt\(p1\)'"):
                taylor_expand([parse(text, chart1)], chart1, [0.3, 0.0], 0.0, 1, Monomials(2))
            # degree 0 is the value alone
            value = taylor_expand([parse(text, chart1)], chart1, [0.3, 0.0], 0.0, 0, Monomials(2))
            assert value[0, 0] == evaluate(parse(text, chart1), env)

    def test_expansion_domain_failure_reaches_every_method(self, chart1):
        # the field's sqrt(p1) has no expansion at p1 = 0, where its value is
        # finite: value, d_dt and d_dx all raise, naming the node
        V = VectorFieldSpec.from_components(chart1, ["q1*sqrt(p1)", "-q1"])
        M = SeriesMetric(V, J2, order=1, mode="generic")
        for method in (M.value, M.d_dt, M.d_dx):
            with pytest.raises(DomainError, match=r"sqrt\(p1\)"):
                method([0.3, 0.0], 0.2)
        # away from p1 = 0 the same field expands
        M.d_dx([0.3, 0.5], 0.2)

    def test_results_do_not_share_the_cached_powers(self, chart1):
        # at order 1, d_dt is power 1 alone; writing to it must not reach the cache
        M = SeriesMetric(self.van_der_pol(chart1), J2, order=1, mode="generic")
        coords = [0.3, -0.4]
        results = [M.value(coords, 0.5), M.d_dt(coords, 0.5), M.d_dx(coords, 0.5)]
        expected = [r.copy() for r in results]
        for r in results:
            r += 1.0
        fresh = [M.value(coords, 0.5), M.d_dt(coords, 0.5), M.d_dx(coords, 0.5)]
        assert all(np.array_equal(a, b) for a, b in zip(fresh, expected))

    def test_van_der_pol_order_16_matches_pullback(self, chart1):
        x = PhasePoint([0.3, -0.2], 0.5)
        ref = pullback_metric(
            self.van_der_pol(chart1), canonical_metric(chart1), x, opts=IntegratorOptions(abs_tol=1e-13, rel_tol=1e-13)
        )
        W = SeriesMetric(self.van_der_pol(chart1), J2, order=16, mode="generic").value(x.coords, x.time)
        assert np.max(np.abs(W - ref)) < 1e-9


class TestSplit:
    def test_zero_friction_equals_pure_series(self, chart2):
        V = VectorFieldSpec.from_hamiltonian(chart2, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2")
        rng = np.random.default_rng(7)
        B = rng.standard_normal((4, 4))
        W0 = B - B.T
        Ws = SplitMetric(V, W0, 3).value(np.zeros(4), 1.0)
        We, _ = SeriesPropagator(V, W0).propagate(1.0)
        assert np.max(np.abs(Ws - We)) < 1e-12

    def test_second_order_convergence(self, damped2_system):
        V = damped2_system.vector_field
        rng = np.random.default_rng(7)
        B = rng.standard_normal((4, 4))
        W0 = B - B.T
        exact, _ = SeriesPropagator(V, W0).propagate(1.0)
        errs = []
        for N in (10, 20, 40):
            W = SplitMetric(V, W0, N).value(np.zeros(4), 1.0)
            errs.append(np.max(np.abs(W - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2

    def test_single_small_step(self, damped2_system):
        V = damped2_system.vector_field
        rng = np.random.default_rng(8)
        B = rng.standard_normal((4, 4))
        W0 = B - B.T
        exact, _ = SeriesPropagator(V, W0).propagate(1e-3)
        W = SplitMetric(V, W0, 1).value(np.zeros(4), 1e-3)
        assert np.max(np.abs(W - exact)) < 1e-8

    def test_requires_split(self, chart1):
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1"])
        with pytest.raises(EvolutionError):
            SplitMetric(V, J2, 2)

    def test_nonlinear_substeps(self, quartic_system):
        V = quartic_system.vector_field
        x = PhasePoint([0.4, 0.2], 0.05)
        W = SplitMetric(V, J2, 2).value(x.coords, x.time)
        ref = pullback_metric(V, canonical_metric(V.chart), x)
        assert np.max(np.abs(W - ref)) < 1e-10

    @pytest.mark.parametrize("offset", [None, ("0", "0", "0.5", "-0.3")])
    def test_coupled_nonlinear_second_order(self, chart2, offset):
        # coupled quartic with K = 1 and a generic W0; the offset makes the
        # affine friction part inhomogeneous, which moves the trajectory
        from metricflow.exprlang import as_expr, simplify
        from metricflow.friction import FrictionSystem
        from metricflow.phasespace import ConstantMetric

        V = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2", 1.0).vector_field
        if offset is not None:
            part2 = tuple(simplify(c + as_expr(b, chart2)) for c, b in zip(V.part2, offset))
            comps = tuple(simplify(a + b) for a, b in zip(V.part1, part2))
            V = VectorFieldSpec(chart2, comps, V.part1, part2)
        rng = np.random.default_rng(7)
        B = rng.standard_normal((4, 4))
        W0 = B - B.T
        x = PhasePoint([0.3, -0.2, 0.1, 0.4], 0.5)
        ref = pullback_metric(V, ConstantMetric(chart2, W0), x, opts=IntegratorOptions(1e-12, 1e-12))
        errs = [
            np.max(np.abs(SplitMetric(V, W0, N).value(x.coords, x.time) - ref))
            for N in (10, 20, 40)
        ]
        for i in range(2):
            assert 1.8 <= np.log2(errs[i] / errs[i + 1]) <= 2.2

    def test_truncation_diagnostics(self, quartic_system, damped2_system):
        # affine parts take exact exponentials, the same map at every point
        V = damped2_system.vector_field
        split = SplitMetric(V, canonical_metric(V.chart).matrix, 5)
        assert np.array_equal(split.value(np.zeros(4), 1.0), split.value([0.3, -0.2, 0.1, 0.4], 1.0))
        # a nonlinear part takes the pullback along the sub-flow trajectory
        V = quartic_system.vector_field
        x = PhasePoint([0.4, 0.2], 0.05)
        W = SplitMetric(V, J2, 2).value(x.coords, x.time)
        ref = pullback_metric(V, canonical_metric(V.chart), x)
        assert np.max(np.abs(W - ref)) < 1e-10


class TestPullback:
    def test_t_zero(self, damped, canonical1):
        x = PhasePoint([0.2, -0.7], 0.0)
        W = pullback_metric(damped, canonical1, x)
        assert np.array_equal(W, J2)

    def test_damped_conformal_transport(self, damped, canonical1):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = PhasePoint(rng.uniform(-1, 1, 2), 1.0)
            W = pullback_metric(damped, canonical1, x)
            assert abs(W[0, 1] - np.e) < 1e-8

    def test_nonlinear_separable(self, quartic_system, canonical1):
        V = quartic_system.vector_field
        rng = np.random.default_rng(11)
        scale = np.exp(0.5)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-1, 1, 2), 0.5)
            W = pullback_metric(V, canonical1, x)
            assert abs(W[0, 1] - scale) < 1e-7
            # independent oracle: finite-difference Jacobian of the flow
            M = fd_flow_jacobian(V, x, 0.5)
            W_fd = M.T @ J2 @ M
            assert np.max(np.abs(W - W_fd)) < 1e-6


class TestInvarianceResidual:
    def test_static_hamiltonian(self, harmonic, canonical1):
        r = invariance_residual(harmonic, canonical1, PhasePoint([0.5, 0.5]))
        assert np.max(np.abs(r)) < 1e-12

    def test_friction_analytic_invariant(self, damped, damped_system):
        M = analytic_metric(damped_system)
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(0, 3))
            r = invariance_residual(damped, M, x)
            assert np.max(np.abs(r)) < 1e-10

    def test_coupled_potential_breaks_closed_form(self, chart2):
        from metricflow.friction import FrictionSystem

        sys_c = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + q1*q2", [1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            M = analytic_metric(sys_c, allow_inapplicable=True)
        x = PhasePoint([0.3, -0.2, 0.5, 0.1], 1.0)
        r = invariance_residual(sys_c.vector_field, M, x)
        # the position-position slot picks up (e^{K1 t} - e^{K2 t}) U_q1q2
        assert r[1, 0] == pytest.approx(np.e - np.e**2, abs=1e-10)
        assert r[0, 1] == pytest.approx(np.e**2 - np.e, abs=1e-10)


class TestRouteAgreement:
    def test_linear_routes_agree(self, damped, canonical1):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(0.1, 2.0))
            t = x.time
            Wse, _ = SeriesPropagator(damped, J2).propagate(t)
            Wsp = SplitMetric(damped, J2, 1000).value(x.coords, t)
            Wpb = pullback_metric(damped, canonical1, x)
            assert np.max(np.abs(Wse - Wsp)) < 1e-6
            assert np.max(np.abs(Wse - Wpb)) < 1e-6
            assert np.max(np.abs(Wsp - Wpb)) < 1e-6

    def test_skew_preserved(self, damped2_system):
        V = damped2_system.vector_field
        rng = np.random.default_rng(14)
        B = rng.standard_normal((4, 4))
        W0 = B - B.T
        for t in (0.3, 1.0):
            for W in (
                SeriesPropagator(V, W0).propagate(t)[0],
                SplitMetric(V, W0, 50).value(np.zeros(4), t),
            ):
                assert np.max(np.abs(W + W.T)) < 1e-10

    def test_routes_reject_a_non_skew_initial_matrix(self, damped):
        for make in (lambda W0: SeriesPropagator(damped, W0), lambda W0: SplitMetric(damped, W0, 2)):
            with pytest.raises(MetricError, match="skew-symmetric"):
                make([[0.0, 1.0], [1.0, 0.0]])
            make(J2)

    def test_jacobi_preserved(self, damped, canonical1):
        M = TransportedMetric(canonical1, damped)
        rng = np.random.default_rng(15)
        for _ in range(3):
            x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(0.2, 2.0))
            assert jacobi_residual(M, x) < 1e-8

    def test_determinant_law(self, quartic_system, canonical1):
        V = quartic_system.vector_field
        M = TransportedMetric(canonical1, V)
        rng = np.random.default_rng(16)
        for _ in range(5):
            x0 = PhasePoint(rng.uniform(-1, 1, 2), 0.0)
            t = rng.uniform(0.3, 2.0)
            from metricflow import integrate_flow

            seg = integrate_flow(V, x0, t)
            det = metric_determinant(M, seg.end)
            s = compressibility_flow(V, x0, t)[1]
            assert abs(np.log(det.sqrt_g) + s) < 1e-6


def richardson(f, x, h):
    """Derivative of f at the scalar x from central differences at h and
    h/2, Richardson-extrapolated (error O(h^4))."""

    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def difference_jet(value, coords, time, h=5e-3):
    """(dW/dx, dW/dt) of value(coords, time) by Richardson central differences,
    one loop over the perturbed copies of the point per coordinate."""
    coords = np.asarray(coords, dtype=float)
    E = np.eye(len(coords))
    D = np.array([richardson(lambda s: value(coords + s * E[k], time), 0.0, h) for k in range(len(coords))])
    return D, richardson(lambda s: value(coords, time + s), 0.0, h)


class TestTransportStencil:
    """dW/dx and dW/dt of the pullback and split fields, exact from the one
    backward flow that gives W, against references that perturb the point."""

    @staticmethod
    def affine_chain():
        from metricflow import CoordinateChart, FrictionSystem

        chart = CoordinateChart(4)
        H = "(p1^2+p2^2+p3^2+p4^2)/2 + (q1^2 + (q2-q1)^2 + (q3-q2)^2 + (q4-q3)^2 + q4^2)/2"
        return FrictionSystem.build(chart, H, [0.1, 0.2, 0.3, 0.4]).vector_field

    @staticmethod
    def coupled_quartic(chart2):
        from metricflow import FrictionSystem

        return FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2", 1.0).vector_field

    @staticmethod
    def generic_w0(chart2):
        B = np.random.default_rng(5).standard_normal((4, 4))
        return ConstantMetric(chart2, B - B.T)

    def test_stacked_rhs_makes_no_per_point_calls(self, chart2, monkeypatch):
        from metricflow import dynamics

        calls = []

        def counting(name, orig):
            def call(*args, **kwargs):
                calls.append(name)
                return orig(*args, **kwargs)

            return call

        for name in ("eval", "jacobian", "hessian", "eval_jacobian"):
            monkeypatch.setattr(VectorFieldSpec, name, counting(name, getattr(VectorFieldSpec, name)))
        monkeypatch.setattr(dynamics, "evaluate_batch", counting("rhs", dynamics.evaluate_batch))
        # the affine chain is transported by the exponential of its augmented
        # generator, with no right-hand side
        V = self.affine_chain()
        W0 = canonical_metric(V.chart)
        x = np.linspace(-0.4, 0.5, V.chart.dim)
        calls.clear()
        W = TransportedMetric(W0, V).value(x, 0.5)
        assert calls.count("rhs") == calls.count("eval_jacobian") == calls.count("hessian") == 0
        ref = congruence(scipy_expm(-0.5 * V.constant_jacobian), W0.matrix)
        assert np.max(np.abs(W - ref)) <= 1e-13 * np.max(np.abs(ref))
        V = self.coupled_quartic(chart2)
        field = TransportedMetric(canonical_metric(V.chart), V)
        calls.clear()
        field.value(np.linspace(-0.4, 0.5, V.chart.dim), 0.5)
        # per right-hand side of (y, M, H) one compiled evaluation of X
        # with its Jacobian and one of the second derivatives, none per
        # column; one read of X with its Jacobian, itself one compiled
        # evaluation, gives dx0/dt and dM/dt
        n = calls.count("rhs") - 1
        assert n > 1 and calls.count("eval_jacobian") == 1 and calls.count("eval") == calls.count("jacobian") == 0
        assert calls.count("hessian") == n

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_affine_pullback_is_exact(self, damped, t):
        # the damped oscillator carries the canonical metric to e^t times it
        W = TransportedMetric(canonical_metric(damped.chart), damped).value(np.array([0.3, 0.7]), t)
        assert abs(W[0, 1] - np.exp(t)) <= 4 * np.spacing(np.exp(t))
        assert abs(W[0, 0]) == abs(W[1, 1]) == 0.0 and W[1, 0] == -W[0, 1]

    def test_pullback_along_a_field_that_reads_t(self, chart1, monkeypatch):
        # once a ValueError.  The field is affine in x, but its exponential
        # would read X at t = 0, so the lanes integrate it; its flow preserves
        # area, so it keeps the canonical metric
        from metricflow import evolution

        monkeypatch.setattr(evolution, "expm", lambda A: pytest.fail("the affine exponential read X at t = 0"))
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1 + sin(t)"])
        assert V.constant_jacobian is not None
        for t in (0.5, 1.0):
            W, D, Wt = TransportedMetric(canonical_metric(chart1), V).jet([0.3, -0.2], t)
            assert np.max(np.abs(W - J2)) <= 1e-9 and np.max(np.abs(D)) <= 1e-9 and np.max(np.abs(Wt)) <= 1e-9

    @pytest.mark.parametrize("t", [0.5, -0.3])
    def test_pullback_along_a_field_that_reads_t_matches_the_autonomized_flow(self, chart1, chart2, t):
        # the reference carries the time as the coordinate q2 of an autonomous
        # field: x0 = Phi((x, t), -t), so dx0/dt = D Phi e_q2 - U(x0) and
        # dM/dt = D^2 Phi [e_q2] - DU(x0) D Phi
        from metricflow.dynamics import TRANSPORT_OPTIONS, flow_jet
        from metricflow.evolution import congruence_jet

        V = VectorFieldSpec.from_components(chart1, ["p1*(1 + 0.3*t)", "-sin(q1) - (0.2 + 0.1*t*q1)*p1"])
        U = VectorFieldSpec.from_components(chart2, ["p1*(1 + 0.3*q2)", "1", "-sin(q1) - (0.2 + 0.1*q2*q1)*p1", "0"])
        M0 = ExprMetric(chart1, [["0", "1 + q1^2/10 + p1/20"], ["-(1 + q1^2/10 + p1/20)", "0"]])
        x, keep = np.array([0.3, -0.2]), [0, 2]
        y, M, H = flow_jet(U, np.array([x[0], t, x[1], 0.0]), -t, TRANSPORT_OPTIONS)
        Uy, DU = (v[0] for v in U.eval_jacobian(y[None]))
        assert abs(y[1]) < 1e-14
        W0, dW0, _ = M0.jet(y[keep], 0.0)
        dM = np.concatenate([H.transpose(2, 0, 1)[keep], [H[:, :, 1] - DU @ M]])[:, keep][:, :, keep]
        ref = congruence_jet(W0, dW0, np.column_stack([M[keep][:, keep], (M[:, 1] - Uy)[keep]]), dM)
        got = TransportedMetric(M0, V).jet(x, t)
        for g, want in zip(got, ref):
            assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.max(np.abs(invariance_residual(V, TransportedMetric(M0, V), PhasePoint(x, t)))) < 1e-12

    def test_pullback_of_a_varying_metric_matches_the_variational_jet(self, chart2):
        # the one backward integration of (x0, M, H) with dx0/dt = -X(x0),
        # dM/dt = -DX(x0) M, and the metric's jet read at x0
        from metricflow.dynamics import TRANSPORT_OPTIONS, flow_jet
        from metricflow.evolution import congruence_jet

        V = self.coupled_quartic(chart2)
        S = self.generic_w0(chart2).matrix
        M0 = ExprMetric(chart2, [[f"({S[k, l]:.17g})*(1 + q1*p2/3 + q2^2/5)" for l in range(4)] for k in range(4)])
        x, t = np.array([0.3, -0.2, 0.1, 0.4]), 0.5
        x0, M, H = flow_jet(V, x, -t, TRANSPORT_OPTIONS)
        Xv, DX = V.eval_jacobian(x0[None])
        W0, dW0, _ = M0.jet(x0, 0.0)
        assert dW0.any()
        ref = congruence_jet(W0, dW0, np.column_stack([M, -Xv[0]]),
                             np.concatenate([H.transpose(2, 0, 1), [-DX[0] @ M]]))
        for got, want in zip(TransportedMetric(M0, V).jet(x, t), ref):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [0.5, -0.3])
    def test_affine_chain_matches_per_copy_loop_exactly(self, t):
        V = self.affine_chain()
        A = V.constant_jacobian
        assert A is not None
        M0 = canonical_metric(V.chart)
        x = np.array([0.3, -0.2, 0.1, 0.4, -0.5, 0.25, 0.7, -0.1])
        # the affine split walk gives every perturbed copy the same W, so the
        # per-copy differences are exactly zero: no spatial dependence
        split = SplitMetric(V, M0.matrix, 4)
        W_split = split.value(x, t)
        for k in range(8):
            for sign in (1.0, -1.0):
                copy = x + sign * 1e-3 * np.eye(8)[k]
                assert np.array_equal(split.value(copy, t), W_split)
        pullback = TransportedMetric(M0, V)
        for field in (pullback, split):
            assert np.array_equal(field.d_dx(x, t), np.zeros((8, 8, 8)))
        W = pullback.value(x, t)
        ref = -(A.T @ W + W @ A)
        assert np.max(np.abs(pullback.d_dt(x, t) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [0.5, -0.3])
    def test_coupled_quartic_matches_per_copy_loop(self, chart2, t):
        from metricflow.dynamics import TRANSPORT_OPTIONS

        V = self.coupled_quartic(chart2)
        assert V.constant_jacobian is None
        M0 = self.generic_w0(chart2)
        x = np.array([0.3, -0.2, 0.1, 0.4])
        routes = [
            (TransportedMetric(M0, V), lambda c, s: pullback_metric(V, M0, PhasePoint(c, s), opts=TRANSPORT_OPTIONS)),
            (SplitMetric(V, M0.matrix, 8), SplitMetric(V, M0.matrix, 8).value),
        ]
        for field, value in routes:
            D_ref, Wt_ref = difference_jet(value, x, t)
            assert np.max(np.abs(field.d_dx(x, t) - D_ref)) < 1e-7
            assert np.max(np.abs(field.d_dt(x, t) - Wt_ref)) < 1e-7

    def test_dropping_the_second_derivative_fails_invariance(self, chart2, monkeypatch):
        V = self.coupled_quartic(chart2)
        # with the canonical W0 the transported metric is e^t W0 everywhere
        M0 = self.generic_w0(chart2)
        x = PhasePoint([0.3, -0.2, 0.1, 0.4], 0.5)
        exact = np.max(np.abs(invariance_residual(V, TransportedMetric(M0, V), x)))
        assert exact < 1e-9
        # H_k' without its D^2X(y)[M e_k, M] term stays zero
        monkeypatch.setattr(VectorFieldSpec, "hessian", lambda self, coords, time=0.0: np.zeros((4, 4, 4)))
        wrong = np.max(np.abs(invariance_residual(V, TransportedMetric(M0, V), x)))
        assert wrong > 1e-6

    def test_evolve_metric_derives_once_per_row(self, tmp_path, monkeypatch, capsys):
        import json

        import metricflow.evolution as evolution
        from metricflow.cli import main

        calls = []
        for name in ("pullback_jet", "split_jet"):
            def counting(*args, _name=name, _orig=getattr(evolution, name)):
                calls.append((_name, args[-1]))
                return _orig(*args)

            monkeypatch.setattr(evolution, name, counting)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "n": 2,
            "hamiltonian": "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2",
            "friction": 1.0,
            "metric": "canonical",
            "t_grid": [0.0, 0.5, -0.3],
            "methods": ["split", "pullback"],
            "splitting": {"steps": 4},
            "queries": [{"point": [0.3, -0.2, 0.1, 0.4], "time": 0.0}],
        }))
        assert main(["evolve-metric", "--config", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7
        # the value, the Jacobi and the invariance residual of a row share one state
        assert [name for name, _ in calls] == ["split_jet", "pullback_jet"] * 3

    def test_fresh_field_gives_equal_jets(self, chart1):
        V = VectorFieldSpec.from_hamiltonian(chart1, "p1^2/2 + q1^4/4", [[1.0]])
        points = [np.array([0.1 * i, -0.2]) for i in range(5)]
        for make in (lambda: TransportedMetric(canonical_metric(chart1), V), lambda: SplitMetric(V, J2, 3)):
            M, fresh = make(), make()
            derivs = [M.d_dx(c, 0.3) for c in points]
            for c, D in zip(points, derivs):
                assert np.array_equal(M.d_dx(c, 0.3), D)
                assert np.array_equal(fresh.d_dx(c, 0.3), D)
