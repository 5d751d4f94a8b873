"""Property tests.

Congruence transport against the operator-matrix oracle: on a linear field
dx/dt = A x the evolution operator W -> -(A^T W + W A) acts linearly on the
skew-matrix space.  The oracle below exponentiates that operator as a
(d(d-1)/2)^2 matrix; the library instead transports W0 by the congruence
expm(-tA)^T W0 expm(-tA).  The two constructions share no code.  On
uncoupled oscillators with diagonal friction the analytic, series, split
and pullback routes agree with the closed form written out here.  The
in-house matrix exponential agrees with scipy's.

Expression language on random trees: printing and parsing keep the value,
differentiate agrees with sympy and, tree for tree, with a test-local
simplify of the derivative of the whole tree, compiled evaluation is evaluate bit for
bit, and the Taylor expansion's degree-0 and degree-1 coefficients agree
with evaluate and with evaluate of differentiate.

Trajectories integrated as lanes of one array, and the one-lane calls
flow_jet and integrate_flow, end with the bits and the step statistics of a
test-local copy of the scalar integrator that the lanes replaced, or raise
its error for the lowest-index failing lane.
"""

import math
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from metricflow import (
    CoordinateChart,
    FrictionSystem,
    IntegrationError,
    IntegratorOptions,
    PhasePoint,
    SeriesPropagator,
    SplitMetric,
    TransportedMetric,
    VectorFieldSpec,
    canonical_metric,
    integrate_flow,
    invariance_residual,
)
from metricflow import dynamics
from metricflow.dynamics import _STAGE_ERRORS, IntegrationStats, StepSizeUnderflowError, flow_jet, flow_lanes
from metricflow.dynamics import expm as metricflow_expm
from metricflow.friction import analytic_metric
from metricflow.exprlang import (
    FUNCTIONS,
    BinOp,
    Call,
    DomainError,
    Monomials,
    Neg,
    Num,
    UnboundVariableError,
    Var,
    as_expr,
    compile_vector,
    differentiate,
    evaluate,
    evaluate_batch,
    evaluate_compiled,
    gradient,
    parse,
    taylor_expand,
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


W12 = np.zeros((4, 4))
W12[0, 1], W12[1, 0] = -1.0, 1.0


@settings(max_examples=40, deadline=None)
@given(linear_problems())
# A = A1 + A2 = all -2: expm(-tA) has norm e^8 ~ 3e3, the congruence cancels
# down to entries ~1.5e3, and the two sides differ by 1.55e-9 of rounding
# (0.79 eps ||M||^2 ||W0||), above 1e-12 relative
@example((CoordinateChart(2), -np.ones((4, 4)), -np.ones((4, 4)), W12, 1.0))
def test_linear_exact_matches_operator_matrix_expm(problem):
    chart, A1, A2, W0, t = problem
    V = split_linear_field(chart, A1, A2)
    d = chart.dim
    pairs = skew_pairs(d)
    ref = vec_to_mat(expm(t * operator_matrix(A1 + A2)) @ mat_to_vec(W0, pairs), pairs, d)
    # the rounding of M^T W0 M with M = expm(-tA), c = 16, covers both sides
    # where the congruence cancels; elsewhere the bound is 1e-12 relative
    M = expm(-t * (A1 + A2))
    rounding = 16 * np.finfo(float).eps * np.linalg.norm(M, 2) ** 2 * np.linalg.norm(W0, 2)
    tol = max(1e-12 * max(1.0, float(np.max(np.abs(ref)))), rounding)
    assert np.max(np.abs(SeriesPropagator(V, W0).propagate(t)[0] - ref)) <= tol


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
    assert_relative(SplitMetric(V, W0, steps).value(np.zeros(d), t), vec_to_mat(v, pairs, d))


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


@st.composite
def diagonal_friction_quadratics(draw):
    """Uncoupled oscillators H = sum p_i^2/2 + w_i q_i^2/2 with diagonal K."""
    n = draw(st.sampled_from([1, 2]))
    stiffness = draw(st.lists(st.floats(0.25, 2.0), min_size=n, max_size=n))
    rates = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    coords = draw(arrays(np.float64, 2 * n, elements=entries))
    t = draw(st.floats(0.1, 1.5))
    return n, stiffness, rates, coords, t


@settings(max_examples=25, deadline=None)
@given(diagonal_friction_quadratics())
def test_four_routes_agree_on_diagonal_friction(problem):
    # the closed form [[0, G], [-G, 0]], G = expm(tK), is the reference;
    # route tolerances are those of tests/test_acceptance.py
    n, stiffness, rates, coords, t = problem
    chart = CoordinateChart(n)
    H = " + ".join(f"p{i + 1}^2/2 + {w!r}*q{i + 1}^2/2" for i, w in enumerate(stiffness))
    system = FrictionSystem.build(chart, H, rates)
    V = system.vector_field
    M0 = canonical_metric(chart)
    G = np.diag(np.exp(t * np.array(rates)))
    Z = np.zeros((n, n))
    ref = np.block([[Z, G], [-G, Z]])
    x = PhasePoint(coords, t)
    pullback = TransportedMetric(M0, V)
    split = SplitMetric(V, M0.matrix, 20)
    routes = [
        (analytic_metric(system).value(coords, t), 1e-12),
        (SeriesPropagator(V, M0.matrix).propagate(t)[0], 1e-10),
        (split.value(coords, t), 1e-5),
        (pullback.value(coords, t), 1e-7),
    ]
    for W, tol in routes:
        assert_relative(W, ref, tol)
    for field in (pullback, split):
        assert np.max(np.abs(invariance_residual(V, field, x))) <= 1e-9


# ---------------------------------------------------------------------------
# The in-house matrix exponential against scipy.linalg.expm.

THETA_13 = 5.371920351148152  # beyond this 1-norm, expm scales and squares


def norm1(A):
    return float(np.abs(A).sum(axis=0).max())


@st.composite
def scaled_matrices(draw):
    """A Gaussian d x d matrix, d from 1 to 48, scaled to a 1-norm in [0, 30]."""
    d = draw(st.integers(1, 48))
    norm = draw(st.floats(0.0, 30.0))
    A = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d, d))
    return A * (norm / norm1(A))


@settings(max_examples=80, deadline=None)
@given(scaled_matrices())
@example(np.array([[0.0, 1.0], [-1.0, 0.0]]))
@example(np.full((3, 3), 30.0 / 3.0))
@example(np.array([[0.0, 5e-324], [0.0, 0.0]]))  # norm / theta_m underflows to 0
def test_expm_matches_scipy(A):
    # Relative 1-norm distance from scipy: 1e-14 up to ||A||_1 = 1.  Above
    # it, 5e-13 ||A||_1 (s + 1) for s squarings.  Over 30,000 Gaussian
    # matrices the largest distance was 7.7e-13 at ||A||_1 = 4.5 (s = 0) and
    # 3.2e-12 at 18 (s = 2), both with d <= 5.  Most of it is scipy's: on
    # 400 matrices with d <= 4 and norms 10 to 30, mpmath at 40 digits put
    # the in-house result within 4.5e-14 of exp(A) and scipy's within 2.9e-12.
    norm = norm1(A)
    ref = expm(A)
    err = norm1(metricflow_expm(A) - ref) / norm1(ref)
    squarings = math.ceil(math.log2(norm / THETA_13)) if norm > THETA_13 else 0
    assert err <= (1e-14 if norm <= 1.0 else 5e-13 * norm * (squarings + 1))


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.integers(1, 12), elements=st.floats(-700.0, 700.0)))
def test_expm_of_a_diagonal_is_exp_of_the_diagonal(v):
    D = np.diag(v)
    assert np.array_equal(metricflow_expm(D), np.diag(np.exp(v)))
    assert np.array_equal(metricflow_expm(D), expm(D))


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 3), elements=st.floats(-3.0, 3.0)),
    st.floats(-1.0, 1.0),
    st.floats(-20.0, 20.0),
)
def test_growth_matrix_is_growth_matrices_on_diagonal_friction(rates, t0, t):
    n = len(rates)
    chart = CoordinateChart(n)
    H = " + ".join(f"p{i}^2/2 + q{i}^2/2" for i in range(1, n + 1))
    system = FrictionSystem.build(chart, H, list(rates))
    assert np.array_equal(system.growth_matrix(t0, t), system.growth_matrices(t0, [t])[0])


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


# The reference for differentiate: simplify(_diff(e, var)) as written before
# differentiate skipped the subtrees without var.  It walks and simplifies
# the whole tree for every variable.


def ref_fold(e):
    try:
        return Num(evaluate(e, {}))
    except (DomainError, UnboundVariableError):
        return e


def ref_is_num(e, value):
    return isinstance(e, Num) and e.value == value


def ref_simplify(e):
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Neg):
        a = ref_simplify(e.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return e if a is e.arg else Neg(a)
    if isinstance(e, Call):
        a = ref_simplify(e.arg)
        return ref_fold(Call(e.func, a)) if isinstance(a, Num) else (e if a is e.arg else Call(e.func, a))
    a, b, op = ref_simplify(e.lhs), ref_simplify(e.rhs), e.op
    if op == "*" and (ref_is_num(a, 0.0) or ref_is_num(b, 0.0)):
        return Num(0.0)
    if isinstance(a, Num) and isinstance(b, Num):
        return ref_fold(BinOp(op, a, b))
    if op == "+":
        if ref_is_num(a, 0.0):
            return b
        if ref_is_num(b, 0.0):
            return a
    elif op == "-":
        if ref_is_num(b, 0.0):
            return a
        if ref_is_num(a, 0.0):
            return ref_simplify(Neg(b))
    elif op == "*":
        if ref_is_num(a, 1.0):
            return b
        if ref_is_num(b, 1.0):
            return a
        if isinstance(b, Num):
            a, b = b, a
        if isinstance(a, Num):
            if a.value == -1.0:
                return Neg(b)
            if isinstance(b, BinOp) and b.op == "*" and isinstance(b.lhs, Num):
                return ref_simplify(BinOp("*", Num(a.value * b.lhs.value), b.rhs))
    elif op == "/":
        if ref_is_num(a, 0.0):
            return Num(0.0)
        if ref_is_num(b, 1.0):
            return a
        if isinstance(b, Num) and b.value != 0.0:
            if isinstance(a, BinOp) and a.op == "*" and isinstance(a.lhs, Num):
                return ref_simplify(BinOp("*", Num(a.lhs.value / b.value), a.rhs))
            if isinstance(a, Neg):
                return ref_simplify(Neg(BinOp("/", a.arg, b)))
    elif op == "^":
        if ref_is_num(b, 1.0):
            return a
        if ref_is_num(b, 0.0):
            return Num(1.0)
    return e if a is e.lhs and b is e.rhs else BinOp(op, a, b)


def ref_diff(e, var):
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return Neg(ref_diff(e.arg, var))
    if isinstance(e, Call):
        u, du = e.arg, ref_diff(e.arg, var)
        if e.func == "log":
            return BinOp("/", du, u)
        if e.func == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", u)))
        outer = {
            "sin": Call("cos", u),
            "cos": Neg(Call("sin", u)),
            "exp": Call("exp", u),
            "tanh": BinOp("-", Num(1.0), BinOp("^", Call("tanh", u), Num(2.0))),
        }[e.func]
        return BinOp("*", outer, du)
    u, v = e.lhs, e.rhs
    du, dv = ref_diff(u, var), ref_diff(v, var)
    if e.op in "+-":
        return BinOp(e.op, du, dv)
    if e.op == "*":
        return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
    if e.op == "/" and isinstance(v, Num):
        return BinOp("/", du, v)
    if e.op == "/":
        return BinOp("/", BinOp("-", BinOp("*", du, v), BinOp("*", u, dv)), BinOp("^", v, Num(2.0)))
    if isinstance(v, Num):
        return BinOp("*", BinOp("*", v, BinOp("^", u, Num(v.value - 1.0))), du)
    return BinOp("*", e, BinOp("+", BinOp("*", dv, Call("log", u)), BinOp("*", v, BinOp("/", du, u))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(trees(functions=("sin", "exp"), ops="+-*", numbers=(-1.5, 0.5, 1.0, 2.0, 3.0), leaves=8), trees()),
       st.lists(st.sampled_from([2.0, 3.0]), max_size=2))
# the partial of -(p1) by q1 is -0.0, which prints as 0
@example(Neg(Var("p1")), [])
# 0^t by q1 keeps an unfolded 0/0
@example(BinOp("^", Num(0.0), Var("t")), [])
@example(Call("exp", Call("exp", Call("exp", Num(2.0)))), [])
def test_differentiate_is_the_full_walk(e, exponents):
    # repr tells Num(-0.0) from Num(0.0), which compare equal
    for k in exponents:
        e = BinOp("^", e, Num(k))
    names = ("q1", "p1", "t")
    refs = [ref_simplify(ref_diff(e, name)) for name in names]
    assert [repr(d) for d in gradient(e, names)] == [repr(r) for r in refs]
    for name, ref in zip(names, refs):
        assert repr(differentiate(e, name)) == repr(ref)
        # a partial differentiated again: shared subtrees and inactive ones
        assert repr(differentiate(ref, "q1")) == repr(ref_simplify(ref_diff(ref, "q1")))


@settings(max_examples=500, deadline=None)
@given(trees(), points)
# q1 - q1 expands to exactly 0, so sqrt(q1 - q1) is 0 with zero partials
@example(Call("sqrt", BinOp("-", Var("q1"), Var("q1"))), (0.5, 0.5, 0.0))
# t is held fixed, so 0^t has a constant base and expands; differentiate
# leaves 0/0 in its derivative, which is then not compared
@example(BinOp("^", Num(0.0), Var("t")), (0.5, 0.5, 1.0))
# q1^q1, a varying exponent over the base -1, has no expansion, although
# 1^(q1^q1) has a value and differentiate folds its derivative to 0
@example(BinOp("^", Num(1.0), BinOp("^", Var("q1"), Var("q1"))), (-1.0, 0.5, 0.0))
def test_taylor_expansion_matches_evaluate_and_differentiate(tree, point):
    env = CHART1.env(point[:2], point[2])
    value = outcome(lambda: evaluate(tree, env))
    try:
        got = taylor_expand([tree], CHART1, point[:2], point[2], 1, Monomials(2))[0]
    except DomainError as exc:
        # the value fails, or a varying argument has no expansion
        assert isinstance(value, type) or "no Taylor expansion" in str(exc), exc
        return
    assert not isinstance(value, type), got
    assert same_value(got[0], value)  # bit-identical
    for k, name in enumerate(CHART1.names):
        ref = outcome(lambda: evaluate(differentiate(tree, name), env))
        partial = got[1 + k] if len(got) > 1 else 0.0
        if not isinstance(ref, type) and math.isfinite(ref) and math.isfinite(partial):
            assert same_value(partial, ref, rel=1e-12)


@settings(max_examples=500, deadline=None)
@given(trees(), points)
# 1/q1 at q1 = 0: numpy scalars would give inf with a RuntimeWarning
@example(BinOp("/", Num(1.0), Var("q1")), (0.0, 0.5, 0.0))
# exp(exp(3)) overflows: the compiled code raises, evaluate gives inf
@example(Call("exp", Call("exp", Call("exp", Num(3.0)))), (0.5, 0.5, 0.0))
def test_compiled_evaluation_is_evaluate(tree, point):
    env = CHART1.env(point[:2], point[2])
    compiled = ([tree], compile_vector([tree], CHART1))
    # the batched evaluator at the point and at its mirror image (q1 <-> p1),
    # at the point's time and at a time per row (the second row's is q1)
    X = np.array([point[:2], point[1::-1]])
    for time in (point[2], np.array([point[2], point[0]])):
        rows = [outcome_or_error(lambda x=x, t=t: evaluate_compiled(compiled, CHART1, x, t))
                for x, t in zip(X, np.broadcast_to(time, 2))]
        errors = [row for row in rows if isinstance(row, DomainError)]
        if errors:
            with pytest.raises(DomainError) as got:
                evaluate_batch(compiled, CHART1, X, time)
            assert got.value.node == errors[0].node and str(got.value) == str(errors[0])
        else:
            batch = evaluate_batch(compiled, CHART1, X, time)
            assert batch.shape == (2, 1)
            for got, ref in zip(batch[:, 0], rows):
                assert got.tobytes() == ref[0].tobytes() or (math.isnan(got) and math.isnan(ref[0]))
    try:
        ref = evaluate(tree, env)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            evaluate_compiled(compiled, CHART1, np.array(point[:2]), point[2])
        assert got.value.node == exc.node and str(got.value) == str(exc)
        return
    got = evaluate_compiled(compiled, CHART1, np.array(point[:2]), point[2])
    assert got.shape == (1,)
    assert got[0].tobytes() == np.float64(ref).tobytes() or (math.isnan(ref) and math.isnan(got[0]))


def outcome_or_error(fn):
    """The value of fn(), or the DomainError it raises."""
    try:
        return fn()
    except DomainError as exc:
        return exc


# ---------------------------------------------------------------------------
# Lanes against scalar runs.  The reference is the scalar Dormand-Prince
# integrator that the lanes replaced, copied here unchanged with its tableau.

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4

_EPS = np.finfo(float).eps


def _hermite(tau, t0, y0, f0, t1, y1, f1):
    h = t1 - t0
    s = (tau - t0) / h
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _initial_step(f, y0, f0, duration, atol, rtol):
    sc = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / sc) ** 2))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, duration)
    try:
        y1 = y0 + h0 * f0
        f1 = f(h0, y1)
        d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
    except _STAGE_ERRORS:
        return min(h0 * 1e-3, duration)
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, duration)


def _integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    duration: float,
    opts: IntegratorOptions,
    sample_times: Sequence[float] = (),
):
    """Integrate y' = f(tau, y) over [0, duration], duration > 0.

    Returns (y_end, samples, stats) where samples holds interpolated states
    at the requested interior times (cubic Hermite on the accepted steps).
    """
    atol, rtol = opts.abs_tol, opts.rel_tol
    t = 0.0
    y = np.array(y0, dtype=float)
    try:
        fy = np.asarray(f(t, y), dtype=float)
    except _STAGE_ERRORS as exc:
        raise IntegrationError(f"cannot evaluate the field at the start state: {exc}") from exc
    h = _initial_step(f, y, fy, duration, atol, rtol)
    pending = sorted(tau for tau in sample_times if 0.0 < tau < duration)
    samples: list[tuple[float, np.ndarray]] = []
    n_accept = n_reject = 0
    max_err = 0.0
    K = [fy] + [np.empty_like(y) for _ in range(6)]
    while t < duration:
        h = min(h, duration - t)
        if h <= 16 * _EPS * max(abs(t), 1.0):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g}", t, y.copy()
            )
        try:
            K[0] = fy
            for i in range(1, 6):
                yi = y + h * sum(a * K[j] for j, a in enumerate(_DP_A[i]))
                K[i] = np.asarray(f(t + _DP_C[i] * h, yi), dtype=float)
            y5 = y + h * sum(b * K[i] for i, b in enumerate(_DP_B5[:6]))
            K[6] = np.asarray(f(t + h, y5), dtype=float)
        except _STAGE_ERRORS:
            # stage left the field's domain; retry with a smaller step
            n_reject += 1
            h *= 0.2
            if n_accept + n_reject > opts.max_steps:
                raise IntegrationError(f"exceeded {opts.max_steps} steps") from None
            continue
        err_vec = h * sum(e * K[i] for i, e in enumerate(_DP_E))
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        with np.errstate(invalid="ignore", over="ignore"):
            err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if not np.isfinite(err):
            err = 2.0  # force rejection on overflow/NaN
        if err <= 1.0:
            t_new = t + h
            while pending and pending[0] <= t_new:
                tau = pending.pop(0)
                samples.append((tau, _hermite(tau, t, y, K[0], t_new, y5, K[6])))
            t, y, fy = t_new, y5, K[6]
            n_accept += 1
            max_err = max(max_err, float(np.max(np.abs(err_vec))))
            factor = 5.0 if err == 0.0 else 0.9 * err**-0.2
        else:
            n_reject += 1
            factor = max(0.2, 0.9 * err**-0.2)
        h *= min(5.0, max(0.2, factor))
        if n_accept + n_reject > opts.max_steps:
            raise IntegrationError(f"exceeded {opts.max_steps} steps")
    stats = IntegrationStats(n_accept, n_reject, max_err)
    return y, samples, stats


def _joint_rhs(V: VectorFieldSpec, sign: float, second_order: bool = False):
    """The flow, its tangent map M and, with ``second_order``, the
    derivatives H[i, j, k] = d_k M_ij, which obey
    H_k' = D^2X(y)[M e_k, M] + DX(y) H_k."""
    d = V.chart.dim
    dd = d * d

    def f(tau, s):
        x = s[:d]
        M = s[d : d + dd].reshape(d, d)
        A = V.jacobian(x)
        parts = [V.eval(x), (A @ M).reshape(-1)]
        if second_order:
            H = s[d + dd :].reshape(d, dd)
            parts.append((M.T @ (V.hessian(x) @ M)).reshape(-1) + (A @ H).reshape(-1))
        return sign * np.concatenate(parts)

    return f


def scalar_lane(V, x0, t1, opts, tangent):
    """One trajectory by the reference integrator: the state that flow_lanes
    carries with ``tangent`` 1, 2 or 0 (the flow with M, with M and H, or
    with the integral of the compressibility) and its stats."""
    d, T = V.chart.dim, t1 - x0.time
    if tangent:
        y0 = np.concatenate([x0.coords, np.eye(d).reshape(-1), np.zeros(d**3 if tangent == 2 else 0)])
    else:
        y0 = np.append(x0.coords, 0.0)
    if T == 0.0:
        return y0, IntegrationStats(0, 0, 0.0)
    sign = 1.0 if T > 0 else -1.0
    if tangent:
        f = _joint_rhs(V, sign, tangent == 2)
    else:
        f = lambda tau, s: sign * np.append(V.eval(s[:d]), V.divergence(s[:d]))  # noqa: E731
    y, _, stats = _integrate(f, y0, abs(T), opts)
    return y, stats


def short_of_the_end(exc, duration):
    """Whether the reference's error is an underflow one rounding of t + h
    short of the end, where flow_lanes finishes the lane with the last
    accepted state."""
    if not isinstance(exc, StepSizeUnderflowError):
        return False
    t = exc.t_last
    return abs(duration) - t <= 16 * _EPS * max(abs(t), 1.0)


def assert_lanes_match_scalar(V, starts, t1s, opts, tangent):
    """flow_lanes, from the starts' coordinates for the times t1 - start
    time, gives each lane the end bits and stats of its scalar run, or raises the scalar error of the lowest-index failing lane.  Returns
    the scalar results, an exception for a failing lane.  A scalar run that
    underflows short of its end gives its last state, with stats None."""
    refs = []
    for x0, t1 in zip(starts, t1s):
        try:
            refs.append(scalar_lane(V, x0, t1, opts, tangent))
        except IntegrationError as exc:
            refs.append((exc.y_last, None) if short_of_the_end(exc, t1 - x0.time) else exc)
    errors = [ref for ref in refs if isinstance(ref, IntegrationError)]
    X0, durations = np.array([x.coords for x in starts]), [t1 - x.time for x, t1 in zip(starts, t1s)]
    if errors:
        with pytest.raises(IntegrationError) as got:
            flow_lanes(V, X0, durations, opts, tangent)
        assert type(got.value) is type(errors[0]) and str(got.value) == str(errors[0])
        if isinstance(errors[0], StepSizeUnderflowError):
            assert got.value.t_last == errors[0].t_last
            assert got.value.y_last.tobytes() == errors[0].y_last.tobytes()
        return refs
    Y, stats = flow_lanes(V, X0, durations, opts, tangent)
    assert [row.tobytes() for row in Y] == [y.tobytes() for y, _ in refs]
    assert all(s is None or got == s for got, (_, s) in zip(stats, refs))
    return refs


MONOMIALS = ("q1", "p1", "q1^2", "q1*p1", "p1^2", "q1^3", "p1^3", "q1^2*p1")
polynomials = st.lists(
    st.tuples(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)), st.sampled_from(MONOMIALS)), min_size=1, max_size=3
).map(lambda terms: " + ".join(f"({c})*{m}" for c, m in terms))
grid = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
# (q1, p1, start time, duration); a negative duration runs backward
lanes = st.lists(st.tuples(grid, grid, st.sampled_from((0.0, 0.5)), st.sampled_from((-1.5, -0.7, 0.0, 0.3, 1.0, 1.5))),
                 min_size=1, max_size=8)


@settings(max_examples=10, deadline=None)
@given(st.tuples(polynomials, polynomials), lanes, st.booleans(), st.sampled_from((30, 150)))
# q1' = q1^2 blows up at t = 1/q1: lane 2 underflows at t = 0.5, before
# lane 1 does at t = 1, but lane 1 has the lower index and is reported
@example(("(1.0)*q1^2", "(-1.0)*p1"), [(0.5, 0.0, 0.0, 1.0), (1.0, 0.5, 0.0, 1.5), (2.0, 0.0, 0.0, 1.5)], False, 1000)
# lane 1 exceeds 30 steps before it would underflow
@example(("(1.0)*q1^2", "(-1.0)*p1"), [(0.5, 0.0, 0.5, -1.5), (1.0, 0.5, 0.0, 1.5), (2.0, 0.0, 0.0, 1.5)], True, 30)
# the damped oscillator: t + h lands one rounding short of 0.431, and a
# duration of 1e-16 is short of its end at t = 0
@example(("(1.0)*p1", "(-1.0)*q1 + (-1.0)*p1"), [(0.3, -0.2, 0.0, -0.431), (0.3, -0.2, 0.0, 1e-16), (0.5, 0.5, 0.0, 1.0)],
         2, 150)
def test_lanes_match_scalar_runs(components, problems, tangent, max_steps):
    V = VectorFieldSpec.from_components(CHART1, components)
    starts = [PhasePoint([q, p], t0) for q, p, t0, _ in problems]
    t1s = [t0 + duration for _, _, t0, duration in problems]
    assert_lanes_match_scalar(V, starts, t1s, IntegratorOptions(1e-6, 1e-6, max_steps), tangent)


@pytest.mark.parametrize("tangent", [True, False])
def test_lanes_that_reject_steps_or_finish_first(tangent):
    V = VectorFieldSpec.from_components(CHART1, ["q1*p1", "-q1^2"])
    starts = [PhasePoint([0.5, -1.0], 0.5), PhasePoint([1.0, 1.0]), PhasePoint([0.5, 0.5])]
    refs = assert_lanes_match_scalar(V, starts, [-0.5, 1.5, 0.3], IntegratorOptions(1e-6, 1e-6), tangent)
    (_, backward), (_, forward), (_, short) = refs
    assert backward.n_rejected > 0 and forward.n_rejected > 0
    assert short.n_steps < min(backward.n_steps, forward.n_steps)


@pytest.mark.parametrize("tangent", [True, False])
def test_a_lane_outside_the_domain_retries_alone(monkeypatch, tangent):
    # q1 = exp(-t) stays positive, but once the step has grown a stage puts
    # q1 < 0 into sqrt(q1); lane 1 finishes first and lane 2 lasts no time
    retried = []
    eval_lanes = dynamics._eval_lanes

    def recording(F, lane_ids, Y):
        out, failed = eval_lanes(F, lane_ids, Y)
        retried.extend(int(lane_ids[r]) for r in failed)
        return out, failed

    monkeypatch.setattr(dynamics, "_eval_lanes", recording)
    V = VectorFieldSpec.from_components(CHART1, ["-q1", "sqrt(q1)"])
    starts = [PhasePoint([1.0, 0.0]), PhasePoint([0.5, 0.2]), PhasePoint([0.8, -0.3], 1.0)]
    refs = assert_lanes_match_scalar(V, starts, [20.0, 0.5, 1.0], IntegratorOptions(1e-6, 1e-6), tangent)
    (_, long), (_, short), (_, none) = refs
    assert set(retried) == {0} and long.n_rejected == len(retried)
    assert 0 < short.n_steps < long.n_steps and none == IntegrationStats(0, 0, 0.0)


def test_a_lane_that_cannot_start_raises_the_scalar_error():
    V = VectorFieldSpec.from_components(CHART1, ["-q1", "1/q1"])
    starts = [PhasePoint([0.5, 0.0]), PhasePoint([0.0, 0.3]), PhasePoint([-0.0, 1.0])]
    refs = assert_lanes_match_scalar(V, starts, [1.0, 1.0, -1.0], IntegratorOptions(1e-6, 1e-6), False)
    assert str(refs[1]) == "cannot evaluate the field at the start state: division by zero in '1/q1'"


def assert_one_lane_matches_reference(call, V, x0, t1, opts, tangent):
    """call() gives the state that flow_lanes carries with ``tangent`` and
    the stats, or None for them, with the reference's bits; or it raises the
    reference's error.  Where the reference underflows short of its end,
    call() gives its last state.  Returns the reference's stats, None
    there, or its error."""
    try:
        ref, stats = scalar_lane(V, x0, t1, opts, tangent)
    except IntegrationError as exc:
        if not short_of_the_end(exc, t1 - x0.time):
            with pytest.raises(IntegrationError) as got:
                call()
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return exc
        ref, stats = exc.y_last, None
    y, got_stats = call()
    assert y.tobytes() == ref.tobytes()
    assert got_stats is None or stats is None or got_stats == stats
    return stats


def test_a_lane_one_rounding_short_of_its_end_finishes():
    # t + h rounds to one ulp below 0.013, where the reference underflows
    V = VectorFieldSpec.from_components(CHART1, ["p1", "-q1 - p1"])
    x0, opts = PhasePoint([0.3, -0.2]), IntegratorOptions()
    for tangent in (1, 2):
        with pytest.raises(StepSizeUnderflowError) as ref:
            scalar_lane(V, x0, -0.013, opts, tangent)
        assert short_of_the_end(ref.value, -0.013) and ref.value.t_last < 0.013
        lane = lambda: (flow_lanes(V, x0.coords[None], [-0.013], opts, tangent)[0][0], None)  # noqa: E731
        assert assert_one_lane_matches_reference(lane, V, x0, -0.013, opts, tangent) is None


def jet_state(V, coords, t, opts):
    """flow_jet as (y, M, H) in one row, without H for an affine field, whose H is zero."""
    y, M, H = flow_jet(V, coords, t, opts)
    if V.constant_jacobian is not None:
        assert not H.any()
        return np.concatenate([y, M.reshape(-1)]), None
    return np.concatenate([y, M.reshape(-1), H.reshape(-1)]), None


@settings(max_examples=25, deadline=None)
@given(st.tuples(polynomials, polynomials), grid, grid, st.sampled_from((0.0, 0.5)),
       st.sampled_from((-1.5, -0.7, 0.0, 0.3, 1.0, 1.5)), st.sampled_from((30, 150)))
def test_one_lane_calls_match_the_reference(components, q, p, t0, duration, max_steps):
    V = VectorFieldSpec.from_components(CHART1, components)
    opts, x0 = IntegratorOptions(1e-6, 1e-6, max_steps), PhasePoint([q, p], t0)
    order = 1 if V.constant_jacobian is not None else 2
    assert_one_lane_matches_reference(lambda: jet_state(V, x0.coords, duration, opts),
                                      V, PhasePoint(x0.coords), duration, opts, order)

    def flow():
        seg = integrate_flow(V, x0, t0 + duration, opts)
        assert seg.end.time == t0 + duration
        return np.concatenate([seg.end.coords, seg.tangent.reshape(-1)]), seg.stats

    assert_one_lane_matches_reference(flow, V, x0, t0 + duration, opts, 1)


def test_jets_that_reject_steps_match_the_reference():
    # forward and backward, alone and as lanes beside a short one
    V = VectorFieldSpec.from_components(CHART1, ["p1", "-q1 - q1^2*p1"])
    opts = IntegratorOptions(1e-6, 1e-6)
    for coords, t in (((-1.0, 0.5), 1.5), ((1.0, 1.0), -1.5)):
        stats = assert_one_lane_matches_reference(lambda: jet_state(V, np.array(coords), t, opts),
                                                  V, PhasePoint(coords), t, opts, 2)
        assert stats.n_rejected > 0
    starts = [PhasePoint([-1.0, 0.5]), PhasePoint([1.0, 1.0], 0.5), PhasePoint([0.5, 0.5])]
    assert_lanes_match_scalar(V, starts, [1.5, -1.0, 0.3], opts, 2)
    # an affine field's constant Jacobian, with H carried all the same
    affine = VectorFieldSpec.from_components(CHART1, ["p1", "-q1 - 0.5*p1"])
    assert_lanes_match_scalar(affine, starts, [1.5, -1.0, 0.3], opts, 2)
