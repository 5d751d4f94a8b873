"""Property tests.

Congruence transport against the operator-matrix oracle: on a linear field
dx/dt = A x the evolution operator W -> -(A^T W + W A) acts linearly on the
skew-matrix space.  The oracle below exponentiates that operator as a
(d(d-1)/2)^2 matrix; the library instead transports W0 by the congruence
expm(-tA)^T W0 expm(-tA).  The two constructions share no code.

Expression language on random trees: printing and parsing keep the value,
differentiate agrees with sympy, the forward-mode value and gradient agree
with evaluate and with evaluate of differentiate, and the batched evaluator
agrees with compile_vector column by column.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from metricflow.exprlang import (
    FUNCTIONS,
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    Var,
    as_expr,
    compile_batch,
    compile_vector,
    differentiate,
    evaluate,
    evaluate_grad,
    parse,
    simplify,
    to_string,
)

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



# ---------------------------------------------------------------------------
# Random expression trees over the chart q1, p1 and t.

CHART1 = CoordinateChart(1)
points = st.tuples(*[st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])] * 3)


def trees(functions=FUNCTIONS, ops="+-*/^", numbers=(-1.5, 0.0, 0.5, 1.0, 2.0, 3.0), leaves=10):
    leaf = st.one_of(
        st.sampled_from([Var("q1"), Var("p1"), Var("t")]),
        st.sampled_from(numbers).map(Num),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(ops), children, children),
            st.builds(Call, st.sampled_from(functions), children),
        )

    return st.recursive(leaf, extend, max_leaves=leaves)


def outcome(fn):
    """The value of fn(), or the type of the expression error it raises."""
    try:
        return fn()
    except (DomainError, ValueError) as exc:
        return type(exc)


def same_value(a, b, rel=0.0) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(b))


@settings(max_examples=300, deadline=None)
@given(trees(), points)
# a negated product as a divisor once printed as q1/-q1*q1
@example(BinOp("/", Var("q1"), Neg(BinOp("*", Var("q1"), Var("q1")))), (-1.5, 0.0, 0.0))
def test_printing_round_trip_keeps_the_value(e, point):
    env = CHART1.env(point[:2], point[2])
    back = parse(to_string(e), CHART1)
    assert same_value(outcome(lambda: evaluate(back, env)), outcome(lambda: evaluate(e, env)))


@settings(max_examples=150, deadline=None)
@given(trees(functions=("sin", "exp"), ops="+-*", numbers=(-1.5, 0.5, 1.0, 2.0, 3.0), leaves=8),
       st.lists(st.sampled_from([2.0, 3.0]), max_size=2),
       points)
# exp(exp(exp(2))) overflows to inf; its derivative is 0, not inf*0
@example(Call("exp", Call("exp", Call("exp", Num(2.0)))), [], (0.5, 0.5, 0.0))
def test_differentiate_agrees_with_sympy(e, exponents, point):
    sympy = pytest.importorskip("sympy")
    for k in exponents:
        e = BinOp("^", e, Num(k))
    q1, p1, t = sympy.symbols("q1 p1 t")
    symbolic = sympy.sympify(to_string(e).replace("^", "**"), locals={"q1": q1, "p1": p1, "t": t})
    env = CHART1.env(point[:2], point[2])
    for name, sym in (("q1", q1), ("p1", p1)):
        ref = float(sympy.diff(symbolic, sym).evalf(subs={q1: point[0], p1: point[1], t: point[2]}))
        got = evaluate(differentiate(e, name), env)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


@settings(max_examples=500, deadline=None)
@given(trees(), points)
# d(q1 - q1)/dq1 folds to 0, so d sqrt(q1 - q1)/dq1 is 0, not 0/0
@example(Call("sqrt", BinOp("-", Var("q1"), Var("q1"))), (0.5, 0.5, 0.0))
# differentiate leaves 0/0 in the derivative of 0^t
@example(BinOp("^", Num(0.0), Var("t")), (0.5, 0.5, 1.0))
# log(1) = 0 drops d(q1^q1)/dq1, whose log(q1) fails at q1 = -1
@example(BinOp("^", Num(1.0), BinOp("^", Var("q1"), Var("q1"))), (-1.0, 0.5, 0.0))
def test_forward_mode_matches_evaluate_and_differentiate(tree, point):
    # differentiate simplifies, and evaluate_grad expects a simplified tree
    e = simplify(tree)
    env = CHART1.env(point[:2], point[2])
    value = outcome(lambda: evaluate(e, env))
    partials = [outcome(lambda: evaluate(differentiate(e, name), env)) for name in CHART1.names]
    got = outcome(lambda: evaluate_grad(e, env, CHART1.names))
    if isinstance(value, type) or any(isinstance(p, type) for p in partials):
        # a domain violation in the value or in any partial fails the pass
        assert isinstance(got, type)
        return
    assert not isinstance(got, type), got
    got_value, grad = got
    assert same_value(got_value, value)  # bit-identical
    for g, ref in zip(grad, partials):
        assert same_value(0.0 if g is None else float(g), ref, rel=1e-12)
        if g is None:
            assert ref == 0.0


def raised(fn):
    """The value of fn(), or the type of the arithmetic error it raises."""
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


coordinate_values = st.one_of(
    st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(trees(), min_size=1, max_size=3),
       arrays(np.float64, (2, 4), elements=coordinate_values),
       coordinate_values)
# 1/q1 is inf at q1 = 0, and 1/inf hides it: the scalar code raises
@example([BinOp("/", Num(1.0), BinOp("/", Num(1.0), Var("q1")))], np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0)
# sin of an overflowed exp raises in the scalar code, in the second column only
@example([Call("sin", Call("exp", BinOp("*", Num(1000.0), Var("q1"))))], np.array([[-1.0, 1.0], [0.5, 0.5]]), 0.0)
# a product that overflows is inf in the scalar code, without an exception
@example([BinOp("*", Num(1e200), BinOp("*", Var("q1"), Num(1e200))), Var("p1")],
         np.array([[2.0, 0.5], [0.5, -1.0]]), 0.0)
# numpy's SIMD pow, exp and tanh round these differently from math here
@example([BinOp("^", Var("q1"), Var("p1")), Call("exp", Var("q1")), Call("tanh", Var("p1"))],
         np.array([[0.4753167522920613, 2.761298349712619], [0.19489830144621748, 2.761298349712619]]), 0.0)
# inf/0 is inf in numpy without an exception; the scalar code raises
@example([BinOp("/", Var("q1"), Var("p1"))], np.array([[math.inf, 0.5], [0.0, 2.0]]), 0.0)
def test_batched_evaluator_matches_compile_vector(exprs, X, t):
    # ^ and the functions run through the math module, so the batched values
    # are bit-identical to the scalar code's on every tree, not only on the
    # arithmetic ones (numpy's SIMD exp, log, tanh and pow differ from math
    # by up to 3 ulp on AVX-512 hosts, and cancellation amplifies that)
    scalar = compile_vector(exprs, CHART1)
    columns = [raised(lambda: scalar(X[:, b].tolist(), t)) for b in range(X.shape[1])]
    got = raised(lambda: compile_batch(exprs, CHART1)(X, t))
    failures = [c for c in columns if isinstance(c, type)]
    if failures:
        # the first failing column decides the exception class
        assert got is failures[0]
        return
    assert not isinstance(got, type), got
    assert got.shape == (len(exprs), X.shape[1])
    for b, ref in enumerate(columns):
        assert same_bits(got[:, b], ref)
