"""Property tests: congruence transport against the operator-matrix oracle.

On a linear field dx/dt = A x the evolution operator W -> -(A^T W + W A)
acts linearly on the skew-matrix space.  The oracle below exponentiates that
operator as a (d(d-1)/2)^2 matrix; the library instead transports W0 by the
congruence expm(-tA)^T W0 expm(-tA).  The two constructions share no code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from metricflow import (
    CoordinateChart,
    FrictionSystem,
    SplittingConfig,
    VectorFieldSpec,
    series_propagate,
    split_propagate,
)
from metricflow.exprlang import as_expr

QUARTIC = "(p1^2+p2^2)/2 + (q1^4+q2^4)/4 + q1*q2/2"
VAN_DER_POL = ["p1", "(1 - q1^2)*p1 - q1"]
entries = st.floats(-1.0, 1.0, allow_nan=False)


def skew_pairs(d):
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


def mat_to_vec(W, pairs):
    return np.array([W[a, b] for a, b in pairs])


def vec_to_mat(v, pairs, d):
    W = np.zeros((d, d))
    for value, (a, b) in zip(v, pairs):
        W[a, b] = value
        W[b, a] = -value
    return W


def operator_matrix(A):
    """The evolution operator W -> -(A^T W + W A) on the skew-matrix space."""
    d = A.shape[0]
    pairs = skew_pairs(d)
    L = np.empty((len(pairs), len(pairs)))
    for j, (a, b) in enumerate(pairs):
        E = np.zeros((d, d))
        E[a, b] = 1.0
        E[b, a] = -1.0
        L[:, j] = mat_to_vec(-(A.T @ E + E @ A), pairs)
    return L


def affine_exprs(chart, A, b=None):
    b = np.zeros(A.shape[0]) if b is None else b
    rows = []
    for m in range(A.shape[0]):
        terms = [f"({A[m, k]:.17g})*{name}" for k, name in enumerate(chart.names)]
        rows.append(as_expr(" + ".join(terms + [f"({b[m]:.17g})"]), chart))
    return tuple(rows)


def split_linear_field(chart, A1, A2):
    part1, part2 = affine_exprs(chart, A1), affine_exprs(chart, A2)
    return VectorFieldSpec(chart, affine_exprs(chart, A1 + A2), part1, part2)


@st.composite
def linear_problems(draw):
    d = draw(st.sampled_from([2, 4, 6]))
    A1 = draw(arrays(np.float64, (d, d), elements=entries))
    A2 = draw(arrays(np.float64, (d, d), elements=entries))
    B = draw(arrays(np.float64, (d, d), elements=entries))
    t = draw(st.floats(-1.0, 1.0, allow_nan=False))
    return CoordinateChart(d // 2), A1, A2, B - B.T, t


def assert_relative(W, ref, tol=1e-12):
    assert np.max(np.abs(W - ref)) <= tol * max(1.0, float(np.max(np.abs(ref))))


@settings(max_examples=40, deadline=None)
@given(linear_problems())
def test_linear_exact_matches_operator_matrix_expm(problem):
    chart, A1, A2, W0, t = problem
    V = split_linear_field(chart, A1, A2)
    d = chart.dim
    pairs = skew_pairs(d)
    ref = vec_to_mat(expm(t * operator_matrix(A1 + A2)) @ mat_to_vec(W0, pairs), pairs, d)
    assert_relative(series_propagate(V, W0, t), ref)


@settings(max_examples=40, deadline=None)
@given(linear_problems(), st.integers(1, 8))
def test_linear_split_matches_operator_matrix_expm(problem, steps):
    chart, A1, A2, W0, t = problem
    V = split_linear_field(chart, A1, A2)
    d = chart.dim
    pairs = skew_pairs(d)
    dt = t / steps
    half = expm(0.5 * dt * operator_matrix(A2))
    step = half @ expm(dt * operator_matrix(A1)) @ half
    v = mat_to_vec(W0, pairs)
    for _ in range(steps):
        v = step @ v
    assert_relative(split_propagate(V, W0, SplittingConfig(t, steps)), vec_to_mat(v, pairs, d))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_constant_jacobian_of_affine_fields(data):
    d = data.draw(st.sampled_from([2, 4, 6]))
    chart = CoordinateChart(d // 2)
    A = data.draw(arrays(np.float64, (d, d), elements=entries))
    b = data.draw(arrays(np.float64, d, elements=entries))
    x = data.draw(arrays(np.float64, d, elements=st.floats(-10.0, 10.0, allow_nan=False)))
    V = VectorFieldSpec(chart, affine_exprs(chart, A, b))
    C = V.constant_jacobian
    assert C is not None and not C.flags.writeable
    assert np.max(np.abs(C - A)) <= 1e-15 * max(1.0, float(np.max(np.abs(A))))
    assert np.array_equal(V.jacobian(x), C)


def test_constant_jacobian_absent_for_nonlinear_fields():
    quartic = FrictionSystem.build(CoordinateChart(2), QUARTIC, 1.0).vector_field
    vdp = VectorFieldSpec.from_components(CoordinateChart(1), VAN_DER_POL)
    assert quartic.constant_jacobian is None
    assert vdp.constant_jacobian is None
    # the friction part of the split is affine, the Hamiltonian part is not
    X1, X2 = quartic.parts
    assert X1.constant_jacobian is None
    assert np.array_equal(X2.constant_jacobian, np.diag([0.0, 0.0, -1.0, -1.0]))

