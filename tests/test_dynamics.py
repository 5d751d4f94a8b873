import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from metricflow import (
    CoordinateChart,
    ExprMetric,
    IntegrationError,
    IntegratorOptions,
    PhasePoint,
    VectorFieldSpec,
    compressibility,
    compressibility_flow,
    integrate_flow,
)
from metricflow.dynamics import TRANSPORT_OPTIONS, _integrate_lanes, flow_jet, flow_lanes
from metricflow.dynamics import expm as metricflow_expm
from metricflow.exprlang import DomainError, differentiate, evaluate, evaluate_batch, parse


def fd_divergence(V, x, h=1e-6):
    """Finite-difference divergence oracle."""
    total = 0.0
    for k in range(V.chart.dim):
        xp = np.array(x.coords, dtype=float)
        xm = xp.copy()
        xp[k] += h
        xm[k] -= h
        total += (V.eval(xp)[k] - V.eval(xm)[k]) / (2 * h)
    return total


class TestVectorFieldSpec:
    def test_damped_field_values(self, damped):
        assert np.allclose(damped.eval([1.0, 0.0]), [0.0, -1.0])
        assert np.allclose(damped.eval([0.0, 1.0]), [1.0, -1.0])

    def test_zero_field(self, chart1):
        V = VectorFieldSpec.from_components(chart1, ["0", "0"])
        assert np.allclose(V.eval([0.3, 0.7]), [0.0, 0.0])

    def test_time_dependence_integrated(self, chart1):
        # a field that reads t once raised ValueError in the lanes; q'' = -t q
        # from (0.5, 0.2) at t = 0.3 for 1.0 agrees with the same system with t a coordinate
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1*t"])
        assert not V.autonomous and VectorFieldSpec.from_components(chart1, ["p1", "-q1"]).autonomous
        chart2 = CoordinateChart(2)
        U = VectorFieldSpec.from_components(chart2, ["p1", "1", "-q1*q2", "0"])  # q2 is the time
        seg = integrate_flow(V, PhasePoint([0.5, 0.2], 0.3), 1.3, TRANSPORT_OPTIONS)
        ref = integrate_flow(U, PhasePoint([0.5, 0.3, 0.2, 0.0]), 1.0, TRANSPORT_OPTIONS)
        assert seg.end.time == 1.3
        assert np.max(np.abs(seg.end.coords - ref.end.coords[[0, 2]])) < 1e-11
        assert np.max(np.abs(seg.tangent - ref.tangent[np.ix_([0, 2], [0, 2])])) < 1e-11

    def test_eval_jacobian_reads_the_times(self, chart1):
        V = VectorFieldSpec.from_components(chart1, ["p1*t", "-q1*t^2"])
        X, T = np.array([[0.5, 0.2], [-0.3, 0.7], [0.1, -0.4]]), np.array([0.0, 1.5, -2.0])
        for rows in (slice(None), slice(1, 2)):  # the batch and the one-row path
            Xv, J = V.eval_jacobian(X[rows], T[rows])
            np.testing.assert_array_equal(Xv, [V.eval(x, t) for x, t in zip(X[rows], T[rows])])
            np.testing.assert_array_equal(J, [V.jacobian(x, t) for x, t in zip(X[rows], T[rows])])
        np.testing.assert_array_equal(V.eval_jacobian(X, 1.5)[0], [V.eval(x, 1.5) for x in X])

    @pytest.mark.parametrize(
        "friction, message",
        [
            ([[float("nan")]], r"entry \[0\]\[0\] must be a finite number, got nan"),
            ([[True]], r"entry \[0\]\[0\] must be a finite number, got True"),
            ([["2"]], r"entry \[0\]\[0\] must be a finite number, got '2'"),
            (np.array([[np.inf]]), r"entry \[0\]\[0\] must be a finite number, got inf"),
            ([[1.0, 0.0]], "friction matrix must be 1x1"),
            ([1.0], "friction matrix must be 1x1"),
            (1.0, "friction matrix must be 1x1"),
        ],
    )
    def test_friction_must_be_a_matrix_of_finite_numbers(self, chart1, friction, message):
        # [[nan]] once built the field -q1+-nan*p1, [[True]] read as 1 and [["2"]] as 2
        with pytest.raises(ValueError, match=message):
            VectorFieldSpec.from_hamiltonian(chart1, "p1^2/2 + q1^2/2", friction)

    def test_split_must_sum(self, chart1):
        with pytest.raises(ValueError):
            VectorFieldSpec(
                chart1,
                (parse("p1", chart1), parse("-q1", chart1)),
                (parse("p1", chart1), parse("-q1", chart1)),
                (parse("0", chart1), parse("p1", chart1)),
            )

    def test_split_probe_outside_the_domain_checks_nothing(self, chart1):
        # log(t) leaves its domain at every probe point, which has t = 0, and
        # sqrt(q1) at those with q1 < 0
        V = VectorFieldSpec.from_hamiltonian(chart1, "p1^2/2 + q1^2/2", [[parse("log(t)", chart1)]])
        assert V.eval([0.3, 0.2], 1.0).tolist() == [0.2, -0.3]
        X = (parse("p1", chart1), parse("sqrt(q1) - q1", chart1))
        X1 = (parse("p1", chart1), parse("sqrt(q1)", chart1))
        VectorFieldSpec(chart1, X, X1, (parse("0", chart1), parse("-q1", chart1)))
        with pytest.raises(ValueError, match="do not sum"):  # the points with q1 > 0 still check
            VectorFieldSpec(chart1, X, X1, (parse("0", chart1), parse("p1 - q1", chart1)))

    def test_hamiltonian_split(self, damped):
        x = np.array([0.4, -0.3])
        total = damped.eval(x)
        p1 = np.array([evaluate(e, damped.chart.env(x)) for e in damped.part1])
        p2 = np.array([evaluate(e, damped.chart.env(x)) for e in damped.part2])
        assert np.allclose(total, p1 + p2, atol=1e-14)
        assert np.allclose(p2, [0.0, 0.3], atol=1e-14)


    def test_hessian_is_every_second_derivative(self, chart2):
        # most entries are structural zeros; -(q1*q1*q1) gives Num(-0.0) entries,
        # such as its d^2/dq1 dp1, which keep their sign
        V = VectorFieldSpec.from_components(chart2, ["p1", "q1*sin(p2)", "-(q1*q1*q1)", "q2^4/4 - q1*q2"])
        x = np.array([0.3, -0.7, 1.1, 0.4])
        env = V.chart.env(x, 0.0)
        names = V.chart.names
        ref = np.array([[[evaluate(differentiate(differentiate(c, a), b), env) for b in names] for a in names]
                        for c in V.components])
        assert (np.signbit(ref) & (ref == 0.0)).any() and np.count_nonzero(ref) < ref.size // 4
        assert V.hessian(x).tobytes() == ref.tobytes()

    def test_batched_evaluation_is_per_point(self, chart2):
        # the quartic's divergence is the constant -2; the harmonic field's
        # Jacobian is constant.  The lanes of flow_lanes evaluate the
        # Jacobian or the divergence with the field in one call, and eval,
        # jacobian, divergence and the pair read take their slices of it.
        V = VectorFieldSpec.from_hamiltonian(chart2, "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2", np.eye(2))
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 4))

        def interpreted(exprs):
            return np.array([[evaluate(e, V.chart.env(x, 0.0)) for e in exprs] for x in X])

        field, jac = interpreted(V.components), interpreted([e for row in V.jacobian_exprs for e in row])
        F, J = V.eval_jacobian(X)
        assert F.tobytes() == field.tobytes() == np.array([V.eval(x) for x in X]).tobytes()
        assert J.tobytes() == jac.tobytes() == np.array([V.jacobian(x) for x in X]).tobytes()
        assert np.array([V.divergence(x) for x in X]).tolist() == [-2.0] * 6
        assert evaluate_batch(V._tangent_fn, V.chart, X).tobytes() == np.hstack([jac, field]).tobytes()
        assert evaluate_batch(V._volume_fn, V.chart, X).tobytes() == np.hstack([np.full((6, 1), -2.0), field]).tobytes()
        H = VectorFieldSpec.from_hamiltonian(chart2, "(p1^2+p2^2+q1^2+q2^2)/2", np.eye(2))
        F, J = H.eval_jacobian(X)
        assert np.array_equal(J, np.broadcast_to(H.constant_jacobian, (6, 4, 4)))
        # an affine field's tangent kernel is the field alone
        assert evaluate_batch(H._tangent_fn, H.chart, X).tobytes() == F.tobytes()
        assert F.tobytes() == np.array([H.eval(x) for x in X]).tobytes()

    def test_a_reader_fails_only_on_its_own_entries(self, chart1):
        # p1*sqrt(q1) at q1 = 0: the field is 0, its Jacobian entry divides
        # by sqrt(q1); p1 + log(p1) at p1 = 0: the divergence is 0, the field
        # takes log(0)
        V = VectorFieldSpec.from_components(chart1, ["p1*sqrt(q1)", "-q1"])
        x = np.array([0.0, 1.0])
        assert V.eval(x).tolist() == [0.0, -0.0]
        with pytest.raises(DomainError, match="division by zero in"):
            V.jacobian(x)
        W = VectorFieldSpec.from_components(chart1, ["p1 + log(p1)", "-q1"])
        x = np.array([0.5, 0.0])
        assert W.divergence(x) == 0.0
        with pytest.raises(DomainError, match="log of non-positive value in"):
            W.eval(x)

    def test_pair_read_names_the_field_node_first(self, chart1):
        # at the origin both -log(q1) and its derivative 1/q1 fail; where only
        # the Jacobian fails, the pair read fails
        V = VectorFieldSpec.from_components(chart1, ["p1", "-log(q1)"])
        X = np.array([[0.5, 0.5], [0.0, 0.0]])
        for rows in (X, X[1:]):
            with pytest.raises(DomainError, match=r"log of non-positive value in 'log\(q1\)'"):
                V.eval_jacobian(rows)
        with pytest.raises(DomainError, match="division by zero in"):
            V.jacobian(X[1])
        W = VectorFieldSpec.from_components(chart1, ["p1*sqrt(q1)", "-q1"])
        with pytest.raises(DomainError, match="division by zero in"):
            W.eval_jacobian(np.array([[0.0, 1.0]]))

    def test_compiled_failures_name_the_node(self, chart1):
        # sqrt(q1) at q1 = -1: the compiled code raises a bare ValueError
        V = VectorFieldSpec.from_components(chart1, ["sqrt(q1)", "p1"])
        x = np.array([-1.0, 0.5])
        for method in (V.eval, V.jacobian, V.hessian):
            with pytest.raises(DomainError, match="sqrt of negative value in"):
                method(x)
        with pytest.raises(DomainError, match="sqrt of negative value in"):
            V.eval_jacobian(np.array([[4.0, 0.5], x]))
        assert np.array_equal(V.eval(np.array([4.0, 0.5])), [2.0, 0.5])

    def test_division_by_zero_raises_without_a_warning(self, chart1):
        # on numpy scalars 1/q1 at q1 = 0 would be inf with a RuntimeWarning
        V = VectorFieldSpec.from_components(chart1, ["1/q1", "p1"])
        x = np.array([0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in (V.eval, V.jacobian, V.hessian, V.divergence):
                with pytest.raises(DomainError, match="division by zero in"):
                    method(x)
            with pytest.raises(DomainError, match="division by zero in"):
                ExprMetric(chart1, [["0", "1/q1"], ["-1/q1", "0"]]).value(x, 0.0)


class TestCompressibility:
    def test_damped_constant(self, damped):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-2, 2, 2))
            assert compressibility(damped, x) == pytest.approx(-1.0, abs=1e-14)

    def test_hamiltonian_fields_divergence_free(self, chart2):
        rng = np.random.default_rng(3)
        H = "(p1^2+p2^2)/2 + q1^2*q2 + sin(q1)*cos(q2) + q2^4/4"
        V = VectorFieldSpec.from_hamiltonian(chart2, H)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-1.5, 1.5, 4))
            assert abs(compressibility(V, x)) < 1e-10

    def test_nonlinear_example(self, chart1):
        V = VectorFieldSpec.from_components(chart1, ["p1", "-q1 - q1^2*p1"])
        x = PhasePoint([2.0, 0.7])
        got = compressibility(V, x)
        assert got == pytest.approx(-4.0, abs=1e-12)
        assert got == pytest.approx(fd_divergence(V, x), abs=1e-6)


class TestIntegrateFlow:
    def test_harmonic_half_turn(self, harmonic):
        seg = integrate_flow(harmonic, PhasePoint([1.0, 0.0]), np.pi)
        assert np.max(np.abs(seg.end.coords - [-1.0, 0.0])) < 1e-8

    def test_identity_segment(self, damped):
        x0 = PhasePoint([0.3, 0.4], 1.5)
        seg = integrate_flow(damped, x0, 1.5)
        assert seg.end is x0 or np.array_equal(seg.end.coords, x0.coords)
        assert np.array_equal(seg.tangent, np.eye(2))

    def test_energy_monotone_under_friction(self, damped, chart1):
        # dH/dt = -K p^2 <= 0 along trajectories
        H = parse("p1^2/2 + q1^2/2", chart1)
        x0 = PhasePoint([1.0, 0.5])
        states = [x0.coords] + [integrate_flow(damped, x0, t).end.coords for t in np.linspace(0.0, 4.0, 41)[1:]]
        energies = [evaluate(H, chart1.env(x)) for x in states]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10)

    def test_backward_round_trip(self, damped):
        x0 = PhasePoint([0.8, -0.2])
        fwd = integrate_flow(damped, x0, 2.0)
        back = integrate_flow(damped, fwd.end, 0.0)
        assert np.max(np.abs(back.end.coords - x0.coords)) < 1e-8

    def test_blowup_reported(self, chart1):
        V = VectorFieldSpec.from_components(chart1, ["1 + q1^2", "0"])
        with pytest.raises(IntegrationError):
            integrate_flow(V, PhasePoint([0.0, 0.0]), 2.0)

    def test_overflowing_field_reported(self, chart1):
        # dx/dt = e^x from x=1 blows up at t = 1/e; exp overflow inside the
        # stages must surface as an integration error, not a raw exception
        V = VectorFieldSpec.from_components(chart1, ["exp(q1)", "0"])
        with pytest.raises(IntegrationError) as exc:
            integrate_flow(V, PhasePoint([1.0, 0.0]), 1.0)
        assert getattr(exc.value, "t_last", np.exp(-1.0)) == pytest.approx(
            np.exp(-1.0), abs=1e-3
        )

    def test_bad_start_state_reported(self, chart1):
        V = VectorFieldSpec.from_components(chart1, ["log(q1)", "0"])
        with pytest.raises(IntegrationError):
            integrate_flow(V, PhasePoint([-1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("good_calls", [0, 10])
    def test_a_faulty_right_hand_side_raises_its_own_error(self, good_calls):
        # a ValueError of the right-hand side's own code is a fault, not the
        # field leaving its domain: it propagates, at the start or mid-run,
        # instead of rejecting steps or becoming an IntegrationError
        calls = []

        def F(lanes, Y):
            calls.append(len(Y))
            if len(calls) > good_calls:
                return Y.reshape(len(Y), 2, 2)  # the wrong width
            return -Y

        with pytest.raises(ValueError, match="cannot reshape"):
            _integrate_lanes(F, np.ones((2, 3)), [1.0, 2.0], IntegratorOptions(1e-8, 1e-8))
        assert len(calls) == good_calls + 1

    def test_stats_populated(self, harmonic):
        seg = integrate_flow(harmonic, PhasePoint([1.0, 0.0]), 1.0)
        assert seg.stats.n_steps > 0
        assert seg.stats.max_error_estimate < 1e-9


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_expm_of_a_non_finite_argument_is_nan(bad):
    E = metricflow_expm(np.array([[0.0, 1.0], [bad, 0.0]]))
    assert E.shape == (2, 2) and np.isnan(E).all()


def test_expm_of_a_non_normal_argument_past_theta_13_is_not_finite():
    # exp(+-1e150) overflows; scaling by the 1-norm alone returned zeros
    with np.errstate(all="ignore"):
        E = metricflow_expm(np.array([[0.0, 1e300], [1.0, 0.0]]))
    assert not np.isfinite(E).all()


@pytest.mark.parametrize("A", [[[0.0, 1e300], [0.0, 0.0]], [[0.0, 0.0, 1e200], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
def test_expm_of_an_argument_whose_square_is_zero_is_i_plus_a(A):
    # the first was NaN with a RuntimeWarning, the second 1 - eps on the diagonal
    A = np.array(A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(metricflow_expm(A), np.eye(len(A)) + A)


@pytest.mark.parametrize("scale", [-100.0, -10.0])
def test_expm_of_a_damped_chain_is_as_accurate_as_scipy(scale):
    import mpmath

    from metricflow import CoordinateChart, FrictionSystem

    n = 6
    H = " + ".join([f"p{i}^2/2 + q{i}^2/2" for i in range(1, n + 1)] + [f"(q{i} - q{i + 1})^2/2" for i in range(1, n)])
    rates = [(0.5, 1.0, 1.5)[i % 3] for i in range(n)]
    A = scale * FrictionSystem.build(CoordinateChart(n), H, rates).vector_field.constant_jacobian
    with mpmath.workdps(40):
        ref = np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)

    def error(E):
        return np.abs(E - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()

    assert error(metricflow_expm(A)) <= 2 * error(expm(A))


class TestTangentMap:
    def test_identity_at_start(self, damped):
        M = integrate_flow(damped, PhasePoint([0.5, 0.5]), 0.0).tangent
        assert np.array_equal(M, np.eye(2))

    def test_linear_field_matches_expm(self, damped):
        # damped oscillator is linear: M = exp(t A), A = [[0,1],[-1,-1]]
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        for t in (0.5, 1.0, 2.3):
            M = integrate_flow(damped, PhasePoint([0.3, -0.1]), t).tangent
            assert np.max(np.abs(M - expm(t * A))) < 1e-8

    def test_abel_liouville(self, damped):
        # det M = exp(integral of kappa) = exp(-t) for unit friction
        for t in (0.7, 1.5):
            M = integrate_flow(damped, PhasePoint([0.2, 0.9]), t).tangent
            assert np.linalg.det(M) == pytest.approx(np.exp(-t), abs=1e-8)

    def test_det_positive_along_flow(self, damped):
        M = integrate_flow(damped, PhasePoint([1.0, 1.0]), 3.0).tangent
        assert np.linalg.det(M) > 0


class TestFlowJet:
    @pytest.mark.parametrize("t", [0.8, -0.6])
    def test_second_derivative_matches_differences(self, chart1, t):
        V = VectorFieldSpec.from_components(chart1, ["p1", "(1 - q1^2)*p1 - q1"])
        x = np.array([0.4, -0.3])
        y, M, H = flow_jet(V, x, t, TRANSPORT_OPTIONS)
        seg = integrate_flow(V, PhasePoint(x), t, TRANSPORT_OPTIONS)
        assert np.max(np.abs(y - seg.end.coords)) < 1e-10
        assert np.max(np.abs(M - seg.tangent)) < 1e-9
        h = 1e-4
        for k in range(2):
            e = np.eye(2)[k] * h
            Mp = integrate_flow(V, PhasePoint(x + e), t, TRANSPORT_OPTIONS).tangent
            Mm = integrate_flow(V, PhasePoint(x - e), t, TRANSPORT_OPTIONS).tangent
            assert np.max(np.abs(H[:, :, k] - (Mp - Mm) / (2 * h))) < 1e-6
        assert np.max(np.abs(H - H.transpose(0, 2, 1))) < 1e-8  # d_k M_ij = d_j M_ik

    def test_affine_fields_carry_no_second_derivative(self, damped):
        y, M, H = flow_jet(damped, np.array([0.3, -0.1]), 1.0)
        assert np.array_equal(H, np.zeros((2, 2, 2)))
        assert np.max(np.abs(M - integrate_flow(damped, PhasePoint([0.3, -0.1]), 1.0).tangent)) == 0.0


class TestTimedLanes:
    """q' = t, p' = -t p^2: with s = (t1^2 - t0^2)/2, q = q0 + s, p = p0/(1 + p0 s),
    M = diag(1, (p/p0)^2) and the integral of the compressibility is 2 ln(p/p0)."""

    X0 = np.array([0.3, 0.5])

    @pytest.fixture
    def field(self, chart1):
        return VectorFieldSpec.from_components(chart1, ["t", "-t*p1^2"])

    def test_lanes_from_several_start_times_match_the_closed_form(self, field):
        q0, p0 = self.X0
        for tangent in (0, 1, 2):
            T0 = np.repeat([0.0, 0.5, 1.0], 2)
            durations = np.tile([0.7, -0.4], 3)
            Y, _ = flow_lanes(field, np.tile(self.X0, (6, 1)), durations, TRANSPORT_OPTIONS, tangent, T0=T0)
            assert Y.shape == (6, {0: 3, 1: 6, 2: 14}[tangent])
            for y, t0, duration in zip(Y, T0, durations):
                s = ((t0 + duration) ** 2 - t0**2) / 2
                p = p0 / (1 + p0 * s)
                expected = [q0 + s, p]
                if tangent == 0:
                    expected.append(2 * np.log(p / p0))
                if tangent >= 1:
                    expected += [1.0, 0.0, 0.0, (p / p0) ** 2]
                if tangent == 2:  # d_k M_ij: only d^2 p / dp0^2 is not zero
                    expected += [0.0] * 7 + [-2 * s / (1 + p0 * s) ** 3]
                assert np.max(np.abs(y - expected)) < 1e-11

    def test_one_lane_starts_at_the_points_time(self, field):
        x0, s = PhasePoint(self.X0, 0.5), (1.2**2 - 0.5**2) / 2
        p = 0.5 / (1 + 0.5 * s)
        seg = integrate_flow(field, x0, 1.2, TRANSPORT_OPTIONS)
        end, integral = compressibility_flow(field, x0, 1.2, TRANSPORT_OPTIONS)
        assert seg.end.time == end.time == 1.2
        assert abs(seg.end.coords[0] - 0.895) < 1e-12 and abs(end.coords[1] - p) < 1e-11
        assert abs(seg.tangent[1, 1] - (p / 0.5) ** 2) < 1e-11 and abs(integral - 2 * np.log(p / 0.5)) < 1e-11
        y, M, H = flow_jet(field, self.X0, -0.4, TRANSPORT_OPTIONS, 1.0)
        s = (0.6**2 - 1.0) / 2
        assert abs(y[0] - (0.3 + s)) < 1e-12 and abs(H[1, 1, 1] + 2 * s / (1 + 0.5 * s) ** 3) < 1e-10


class TestFlowProperties:
    def _random_fields(self, chart, seed, count):
        rng = np.random.default_rng(seed)
        fields = []
        for _ in range(count):
            a, b, c = rng.uniform(-0.5, 0.5, 3)
            comps = [
                f"p1 + {a:.3f}*q1^2",
                f"-q1 - {b:.3f}*p1 + {c:.3f}*q1*p1",
            ]
            fields.append(VectorFieldSpec.from_components(chart, comps))
        return fields

    def test_det_tangent_equals_exp_kappa_integral(self, chart1):
        for V in self._random_fields(chart1, 17, 5):
            x0 = PhasePoint([0.3, -0.2])
            t = 0.8
            M = integrate_flow(V, x0, t).tangent
            s = compressibility_flow(V, x0, t)[1]
            assert np.linalg.det(M) == pytest.approx(np.exp(s), rel=1e-7)

    def test_cocycle_composition(self, chart1):
        for V in self._random_fields(chart1, 23, 3):
            x0 = PhasePoint([0.4, 0.1])
            seg1 = integrate_flow(V, x0, 0.6)
            seg2 = integrate_flow(V, seg1.end, 1.1)
            M_total = integrate_flow(V, x0, 1.1).tangent
            assert np.max(np.abs(seg2.tangent @ seg1.tangent - M_total)) < 1e-7

    def test_tolerance_scaling(self, harmonic):
        # two decades of tolerance reduce the endpoint error substantially
        x0 = PhasePoint([1.0, 0.0])
        exact = np.array([np.cos(2.0), -np.sin(2.0)])

        def err(tol):
            opts = IntegratorOptions(abs_tol=tol, rel_tol=tol)
            seg = integrate_flow(harmonic, x0, 2.0, opts)
            return np.max(np.abs(seg.end.coords - exact))

        assert err(1e-6) / max(err(1e-8), 1e-16) >= 4.0


@pytest.mark.parametrize(
    "field, message",
    [("abs_tol", "tolerances must be positive"), ("rel_tol", "tolerances must be positive"),
     ("max_steps", "max_steps must be positive")],
)
def test_integrator_options_reject_nan(field, message):
    # NaN passes a `<= 0` test; a NaN max_steps would turn off the step cap
    with pytest.raises(ValueError, match=message):
        IntegratorOptions(**{field: float("nan")})
