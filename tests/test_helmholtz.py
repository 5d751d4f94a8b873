import numpy as np
import pytest

from metricflow import (
    ConstantMetric,
    DegenerateMetricWarning,
    ExprMetric,
    PhasePoint,
    VectorFieldSpec,
    canonical_helmholtz,
    canonical_metric,
    classify,
    helmholtz_residual,
    invariance_residual,
)
from metricflow.friction import analytic_metric


def fd_helmholtz(V, M, x, h=1e-6):
    """Finite-difference oracle for d_k(w_lm X^m) - d_l(w_km X^m)."""
    d = V.chart.dim

    def contracted(l, coords):
        W = M.value(coords, x.time)
        Xv = V.eval(coords)
        return float(W[l] @ Xv)

    J = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            xp = np.array(x.coords)
            xm = np.array(x.coords)
            xp[k] += h
            xm[k] -= h
            dk_l = (contracted(l, xp) - contracted(l, xm)) / (2 * h)
            xp = np.array(x.coords)
            xm = np.array(x.coords)
            xp[l] += h
            xm[l] -= h
            dl_k = (contracted(k, xp) - contracted(k, xm)) / (2 * h)
            J[k, l] = dk_l - dl_k
    return J


class TestResidual:
    def test_harmonic_vanishes(self, harmonic, canonical1):
        J = helmholtz_residual(harmonic, canonical1, PhasePoint([0.7, -0.4]))
        assert np.max(np.abs(J)) < 1e-14

    def test_damped_constant_residual(self, damped, canonical1):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = PhasePoint(rng.uniform(-2, 2, 2))
            J = helmholtz_residual(damped, canonical1, x)
            assert J[0, 1] == pytest.approx(1.0, abs=1e-12)
            assert J[1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_metric(self, damped, chart1):
        M = ConstantMetric(chart1, np.zeros((2, 2)))
        J = helmholtz_residual(damped, M, PhasePoint([0.5, 0.5]))
        assert np.max(np.abs(J)) == 0.0

    def test_skewness_and_fd_agreement(self, chart2):
        V = VectorFieldSpec.from_components(
            chart2, ["p1 + q2^2", "p2", "-q1 - q1*q2", "-q2 - p2/2"]
        )
        from metricflow import ExprMetric

        M = ExprMetric(
            chart2,
            [
                ["0", "q1", "1+q2^2", "0"],
                ["-q1", "0", "0", "1"],
                ["-(1+q2^2)", "0", "0", "p1"],
                ["0", "-1", "-p1", "0"],
            ],
        )
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = PhasePoint(rng.uniform(-1, 1, 4))
            J = helmholtz_residual(V, M, x)
            assert np.max(np.abs(J + J.T)) < 1e-12
            assert np.max(np.abs(J - fd_helmholtz(V, M, x))) < 1e-6


class TestCanonicalConditions:
    def test_harmonic(self, chart1):
        R1, R2, R3 = canonical_helmholtz(["p1"], ["-q1"], chart1, PhasePoint([0.3, 0.1]))
        assert np.max(np.abs(R1)) == 0.0
        assert np.max(np.abs(R2)) == 0.0
        assert np.max(np.abs(R3)) == 0.0

    def test_damped(self, chart1):
        R1, R2, R3 = canonical_helmholtz(
            ["p1"], ["-q1 - p1"], chart1, PhasePoint([0.3, 0.1])
        )
        assert np.max(np.abs(R1)) == 0.0
        assert R2[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert np.max(np.abs(R3)) == 0.0

    def test_symmetric_kinetic_coupling(self, chart2):
        R1, _, _ = canonical_helmholtz(
            ["p2", "p1"], ["-q1", "-q2"], chart2, PhasePoint(np.zeros(4))
        )
        assert np.max(np.abs(R1)) == 0.0


class TestClassify:
    def test_harmonic(self, harmonic, canonical1):
        report = classify(harmonic, canonical1, count=50, seed=0)
        assert report.verdict == "hamiltonian"
        assert report.max_abs < 1e-12
        assert len(report.coords) == len(report.times) == 51  # origin + draws

    def test_damped(self, damped, canonical1):
        report = classify(damped, canonical1, count=50, seed=0)
        assert report.verdict == "non-hamiltonian"
        assert report.max_abs == pytest.approx(1.0, abs=1e-10)
        for m in report.per_point_max:
            assert m == pytest.approx(1.0, abs=1e-10)

    def test_canonical_blocks_populated(self, damped, canonical1):
        report = classify(damped, canonical1, count=5, seed=0)
        assert report.canonical_blocks is not None
        _, R2, _ = report.canonical_blocks
        assert R2[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_fixed_time_vs_invariant_metric(self, damped, damped_system):
        # the closedness verdict at fixed t and the conservation residual
        # are distinct notions: the invariant metric still classifies the
        # damped system as non-Hamiltonian while its invariance residual
        # vanishes
        M = analytic_metric(damped_system)
        report = classify(damped, M, count=20, seed=1)
        assert report.verdict == "non-hamiltonian"
        r = invariance_residual(damped, M, PhasePoint([0.4, -0.8], 0.0))
        assert np.max(np.abs(r)) < 1e-10

    def test_degenerate_sample_warns(self, harmonic, chart1):
        # [[0, q1], [-q1, 0]] vanishes at the origin only
        M = ExprMetric(chart1, [["0", "q1"], ["-q1", "0"]])
        with pytest.warns(DegenerateMetricWarning, match="degenerate at sampled point") as record:
            classify(harmonic, M, points=(PhasePoint([0.0, 0.0]), PhasePoint([0.5, 0.2])))
        assert len(record) == 1

    def test_requires_points(self, harmonic, canonical1):
        with pytest.raises(ValueError):
            classify(harmonic, canonical1, points=())


class TestBlockCorrespondence:
    """Prop-1-versus-corollary consistency on random polynomial systems:
    with the canonical metric the residual blocks are (up to sign and
    transposition) the three canonical condition blocks."""

    def test_identities_on_random_systems(self, chart2):
        rng = np.random.default_rng(99)
        n = 2
        for _ in range(20):
            c = rng.uniform(-1, 1, 12)
            G = [
                f"{c[0]:.4f}*p1 + {c[1]:.4f}*p2 + {c[2]:.4f}*q1*q2",
                f"{c[3]:.4f}*p2 + {c[4]:.4f}*p1^2 + {c[5]:.4f}*q1",
            ]
            F = [
                f"{c[6]:.4f}*q1 + {c[7]:.4f}*q2^2 + {c[8]:.4f}*p1",
                f"{c[9]:.4f}*q2 + {c[10]:.4f}*q1*p2 + {c[11]:.4f}*p2",
            ]
            V = VectorFieldSpec.from_components(chart2, G + F)
            M = canonical_metric(chart2)
            x = PhasePoint(rng.uniform(-1, 1, 4))
            J = helmholtz_residual(V, M, x)
            R1, R2, R3 = canonical_helmholtz(G, F, chart2, x)
            J_qq = J[:n, :n]
            J_qp = J[:n, n:]
            J_pp = J[n:, n:]
            assert np.max(np.abs(J_pp - R1)) < 1e-10
            assert np.max(np.abs(J_qp + R2)) < 1e-10
            assert np.max(np.abs(J_qq - R3.T)) < 1e-10
            # vanishing is equivalent across the two formulations
            blocks_max = max(np.max(np.abs(R)) for R in (R1, R2, R3))
            assert (np.max(np.abs(J)) < 1e-10) == (blocks_max < 1e-10)
