import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import metricflow.phasespace as phasespace
from metricflow.evolution import SeriesPropagator, SplitMetric
from metricflow import (
    ConstantMetric,
    CoordinateChart,
    DegenerateMetricWarning,
    ExprMetric,
    MetricError,
    PhasePoint,
    SingularMetricError,
    canonical_metric,
    inverse_metric,
    jacobi_residual,
    metric_determinant,
    metric_eval,
)
from metricflow.phasespace import invert_metrics, not_skew


def brute_force_jacobi(M, x):
    """Independent oracle: explicit loop over all index triples with
    central finite differences of the metric entries."""
    d = M.chart.dim
    h = 1e-6
    worst = 0.0

    def entry(k, l, coords):
        return M.value(coords, x.time)[k, l]

    def d_entry(m, k, l):
        xp = np.array(x.coords, dtype=float)
        xm = xp.copy()
        xp[m] += h
        xm[m] -= h
        return (entry(k, l, xp) - entry(k, l, xm)) / (2 * h)

    for k in range(d):
        for l in range(d):
            for m in range(d):
                r = d_entry(k, l, m) + d_entry(l, m, k) + d_entry(m, k, l)
                worst = max(worst, abs(r))
    return worst


class TestPhasePoint:
    def test_basics(self):
        x = PhasePoint([1.0, 2.0], 0.5)
        assert x.dim == 2
        assert x.time == 0.5
        with pytest.raises(ValueError):
            x.coords[0] = 3.0  # frozen

    def test_chart_mismatch(self):
        chart = CoordinateChart(2)
        with pytest.raises(ValueError):
            metric_eval(canonical_metric(chart), PhasePoint([1.0, 2.0]))


class TestMetricEval:
    def test_canonical_n1(self):
        chart = CoordinateChart(1)
        W = metric_eval(canonical_metric(chart), PhasePoint([3.0, -1.0]))
        assert np.array_equal(W, [[0.0, 1.0], [-1.0, 0.0]])

    def test_non_skew_rejected(self):
        chart = CoordinateChart(1)
        with pytest.raises(MetricError):
            ConstantMetric(chart, [[0.0, 1.0], [1.0, 0.0]])

    def test_expr_metric(self):
        chart = CoordinateChart(1)
        M = ExprMetric(chart, [["0", "1+q1^2"], ["-(1+q1^2)", "0"]])
        W = metric_eval(M, PhasePoint([2.0, 0.0]))
        assert W[0, 1] == 5.0
        assert W[1, 0] == -5.0

    def test_expr_metric_skew_checked(self):
        chart = CoordinateChart(1)
        M = ExprMetric(chart, [["0", "q1"], ["q1", "0"]])
        with pytest.raises(MetricError):
            metric_eval(M, PhasePoint([1.0, 0.0]))

    def test_skew_at_random_points(self):
        chart = CoordinateChart(2)
        M = ExprMetric(
            chart,
            [
                ["0", "sin(q1*q2)", "1+p1^2", "t"],
                ["-sin(q1*q2)", "0", "q2", "exp(p2/3)"],
                ["-(1+p1^2)", "-q2", "0", "cos(q1)"],
                ["-t", "-exp(p2/3)", "-cos(q1)", "0"],
            ],
        )
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = PhasePoint(rng.uniform(-2, 2, 4), rng.uniform(0, 2))
            W = metric_eval(M, x)
            assert np.max(np.abs(W + W.T)) < 1e-12


class TestJacobiResidual:
    def test_constant_exact_zero(self):
        chart = CoordinateChart(2)
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 4))
        M = ConstantMetric(chart, B - B.T)
        assert jacobi_residual(M, PhasePoint(rng.uniform(-1, 1, 4))) == 0.0

    def test_2d_vacuous(self):
        # only one independent component in 2D; identity holds trivially
        chart = CoordinateChart(1)
        M = ExprMetric(chart, [["0", "1+q1^2"], ["-(1+q1^2)", "0"]])
        x = PhasePoint([0.7, -0.3])
        assert jacobi_residual(M, x) == 0.0
        assert brute_force_jacobi(M, x) < 1e-8

    def test_nonclosed_metric_detected(self):
        chart = CoordinateChart(2)
        M = ExprMetric(
            chart,
            [
                ["0", "1+p1", "0", "0"],
                ["-(1+p1)", "0", "0", "0"],
                ["0", "0", "0", "1"],
                ["0", "0", "-1", "0"],
            ],
        )
        x = PhasePoint([0.2, 0.1, 0.4, -0.6])
        got = jacobi_residual(M, x)
        assert got == pytest.approx(1.0, abs=1e-12)
        assert brute_force_jacobi(M, x) == pytest.approx(got, abs=1e-6)


class TestDeterminant:
    def test_canonical_n2(self):
        chart = CoordinateChart(2)
        det = metric_determinant(canonical_metric(chart), PhasePoint(np.zeros(4)))
        assert det.g == pytest.approx(1.0, abs=1e-14)
        assert det.sqrt_g == pytest.approx(1.0, abs=1e-14)
        assert not det.degenerate

    def test_zero_matrix_degenerate(self):
        chart = CoordinateChart(1)
        M = ConstantMetric(chart, np.zeros((2, 2)))
        with pytest.warns(DegenerateMetricWarning):
            det = metric_determinant(M, PhasePoint([0.0, 0.0]))
        assert det.degenerate

    def test_small_scale_is_not_degenerate(self):
        # 0.01 * canonical at n = 8 has det 1e-32 but orthogonal columns
        chart = CoordinateChart(8)
        M = ConstantMetric(chart, 0.01 * canonical_metric(chart).matrix)
        x = PhasePoint(np.zeros(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateMetricWarning)
            det = metric_determinant(M, x)
        assert det.g == pytest.approx(1e-32, rel=1e-12)
        assert not det.degenerate
        inv = inverse_metric(M, x)
        assert np.max(np.abs(M.matrix @ inv - np.eye(16))) < 1e-12

    def test_nonnegative_determinant(self):
        # skew determinants are perfect squares
        chart = CoordinateChart(2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            B = rng.standard_normal((4, 4))
            M = ConstantMetric(chart, B - B.T)
            det = metric_determinant(M, PhasePoint(rng.uniform(-1, 1, 4)))
            assert det.g >= -1e-12


class TestInverseJacobiIdentity:
    """When the lower-index metric is closed, the raised tensor satisfies
    the contravariant Jacobi identity; verified by finite differences."""

    @staticmethod
    def contravariant_residual(M, x, h=1e-5):
        d = M.chart.dim

        def inv_at(coords):
            return inverse_metric(M, PhasePoint(coords, x.time))

        dB = np.empty((d, d, d))
        for l in range(d):
            xp = np.array(x.coords)
            xm = np.array(x.coords)
            xp[l] += h
            xm[l] -= h
            dB[l] = (inv_at(xp) - inv_at(xm)) / (2 * h)
        # S[k,m,s] = B^{kl} d_l B^{ms} + B^{ml} d_l B^{sk} + B^{sl} d_l B^{km}
        B = inv_at(np.array(x.coords))
        S = (
            np.einsum("kl,lms->kms", B, dB)
            + np.einsum("ml,lsk->kms", B, dB)
            + np.einsum("sl,lkm->kms", B, dB)
        )
        return float(np.max(np.abs(S)))

    def test_closed_metric_satisfies_it(self):
        chart = CoordinateChart(2)
        M = ExprMetric(
            chart,
            [
                ["0", "1+q1^2", "0", "0"],
                ["-(1+q1^2)", "0", "0", "0"],
                ["0", "0", "0", "1"],
                ["0", "0", "-1", "0"],
            ],
        )
        x = PhasePoint([0.4, -0.2, 0.3, 0.6])
        assert jacobi_residual(M, x) < 1e-10
        assert self.contravariant_residual(M, x) < 1e-6

    def test_nonclosed_metric_violates_it(self):
        chart = CoordinateChart(2)
        M = ExprMetric(
            chart,
            [
                ["0", "1+p1", "0", "0"],
                ["-(1+p1)", "0", "0", "0"],
                ["0", "0", "0", "1"],
                ["0", "0", "-1", "0"],
            ],
        )
        x = PhasePoint([0.4, -0.2, 0.3, 0.6])
        assert jacobi_residual(M, x) > 0.5
        assert self.contravariant_residual(M, x) > 1e-3


class TestInverse:
    def test_canonical(self):
        chart = CoordinateChart(1)
        inv = inverse_metric(canonical_metric(chart), PhasePoint([0.0, 0.0]))
        assert np.allclose(inv, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    def test_singular(self):
        chart = CoordinateChart(1)
        M = ConstantMetric(chart, np.zeros((2, 2)))
        with pytest.raises(SingularMetricError):
            inverse_metric(M, PhasePoint([0.0, 0.0]))

    def test_product_residual_and_skewness(self):
        chart = CoordinateChart(2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            B = rng.standard_normal((4, 4))
            M = ConstantMetric(chart, B - B.T)
            x = PhasePoint(rng.uniform(-1, 1, 4))
            W = metric_eval(M, x)
            inv = inverse_metric(M, x)
            assert np.max(np.abs(W @ inv - np.eye(4))) < 1e-10
            assert np.max(np.abs(inv + inv.T)) < 1e-12


    def test_stacked_inversion_is_per_matrix(self):
        # congruences of the canonical matrix by badly scaled S: some need the
        # Newton refinement, some do not
        rng = np.random.default_rng(6)
        J = canonical_metric(CoordinateChart(2)).matrix
        W = np.array([S.T @ J @ S for S in rng.standard_normal((40, 4, 4)) @ np.diag([1.0, 1e3, 1.0, 1e-3])])
        W = 0.5 * (W - np.swapaxes(W, 1, 2))
        refined = [np.max(np.abs(w @ np.linalg.inv(w) - np.eye(4))) > 1e-10 for w in W]
        assert 0 < sum(refined) < len(W)
        assert invert_metrics(W).tobytes() == np.array([per_matrix_inverse(w) for w in W]).tobytes()

    def test_stacked_inversion_raises_for_the_first_failing_matrix(self):
        good, singular, crooked = canonical_metric(CoordinateChart(1)).matrix, np.zeros((2, 2)), np.eye(2)
        with pytest.raises(SingularMetricError, match=r"det=0\.000e\+00"):
            invert_metrics(np.array([good, singular, crooked]))
        with pytest.raises(MetricError, match="lost skew-symmetry") as exc:
            invert_metrics(np.array([good, crooked, singular]))
        assert type(exc.value) is MetricError


@pytest.mark.parametrize("scale", [1e-8, 1.0, 2e6, 1e12])
def test_skewness_is_relative_to_the_metric_scale(damped, scale):
    # a rounding-level defect passes and a 1e-9 relative one fails at every
    # scale, in the constant metric, the evolution routes' initial metric and
    # the stacked inverse
    J = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
    rounded, crooked = J.copy(), J.copy()
    rounded[1, 0] *= 1 + 1e-15
    crooked[1, 0] *= 1 + 1e-9
    assert not not_skew(rounded) and not_skew(crooked)
    assert not_skew(np.array([J, rounded, crooked])).tolist() == [False, False, True]
    ConstantMetric(CoordinateChart(1), rounded)
    with pytest.raises(MetricError, match="constant metric is not skew-symmetric"):
        ConstantMetric(CoordinateChart(1), crooked)
    for route in (lambda W0: SeriesPropagator(damped, W0), lambda W0: SplitMetric(damped, W0, 2)):
        route(rounded)
        with pytest.raises(MetricError, match="constant metric is not skew-symmetric"):
            route(crooked)
    with pytest.raises(MetricError, match="lost skew-symmetry"):
        invert_metrics(np.array([rounded, crooked]))


def test_skewness_of_non_finite_entries():
    # a NaN entry passes, as it did under the absolute bound; an infinite sum fails
    assert not not_skew(np.array([[0.0, np.nan], [-1.0, 0.0]]))
    assert not_skew(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    assert not_skew(np.array([[0.0, np.inf], [1.0, 0.0]]))


def per_matrix_inverse(W):
    """The inverse one matrix at a time, as the one-matrix inverse computed
    it before stacks: inv, then up to two Newton steps, then the skew part."""
    inv = np.linalg.inv(W)
    I = np.eye(len(W))
    for _ in range(2):
        if np.max(np.abs(W @ inv - I)) <= 1e-10:
            break
        inv = inv @ (2.0 * I - W @ inv)
    return 0.5 * (inv - inv.T)


def package_imports(source: str) -> set[str]:
    """The metricflow modules that a module's source imports, at any depth,
    function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level:
                found.update([parts[0]] if node.module else [alias.name for alias in node.names])
            elif parts[0] == "metricflow":
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("metricflow."))
    return found


def test_phasespace_imports_only_exprlang():
    # the metric protocol sits below every module that builds on a flow; an
    # import of one of them, even inside a function body, makes a cycle
    assert package_imports("def f():\n    from .evolution import pullback_jet\n") == {"evolution"}
    assert package_imports("import metricflow.dynamics\nfrom metricflow import brackets\n") == {"dynamics", "brackets"}
    assert package_imports(Path(phasespace.__file__).read_text(encoding="utf-8")) == {"exprlang"}
