import numpy as np
import pytest

import metricflow.exprlang as exprlang
from metricflow.exprlang import (
    BinOp,
    Call,
    CoordinateChart,
    DomainError,
    ExprSyntaxError,
    Neg,
    Num,
    UnboundVariableError,
    UnknownIdentifierError,
    Var,
    compile_vector,
    differentiate,
    evaluate,
    free_vars,
    parse,
    simplify,
    taylor_series,
    to_string,
)


def fd_derivative(e, chart, coords, time, name, h_rel=1e-6):
    """Central finite-difference oracle for d e / d name."""
    idx = None if name == "t" else chart.index(name)
    base = coords if idx is not None else time
    x0 = coords[idx] if idx is not None else time
    h = h_rel * max(1.0, abs(x0))

    def at(v):
        if idx is None:
            return evaluate(e, chart.env(coords, v))
        shifted = np.array(coords, dtype=float)
        shifted[idx] = v
        return evaluate(e, chart.env(shifted, time))

    return (at(x0 + h) - at(x0 - h)) / (2 * h)


class TestChart:
    def test_default_names(self):
        chart = CoordinateChart(2)
        assert chart.names == ("q1", "q2", "p1", "p2")
        assert chart.dim == 4

    def test_reserved_time(self):
        with pytest.raises(ValueError):
            CoordinateChart(1, ("q1", "t"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CoordinateChart(1, ("a", "a"))

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            CoordinateChart(2, ("a", "b"))


class TestParse:
    def test_oscillator_ast(self):
        chart = CoordinateChart(1)
        e = parse("p1^2/2 + q1^2/2", chart)
        expected = BinOp(
            "+",
            BinOp("/", BinOp("^", Var("p1"), Num(2.0)), Num(2.0)),
            BinOp("/", BinOp("^", Var("q1"), Num(2.0)), Num(2.0)),
        )
        assert e == expected

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("sin(q1", CoordinateChart(1))
        assert exc.value.offset == 7

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("q3", CoordinateChart(1))
        assert exc.value.name == "q3"

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("foo(q1)", CoordinateChart(1))
        assert exc.value.name == "foo"

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", CoordinateChart(1))

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("q1 )", CoordinateChart(1))

    def test_precedence(self):
        chart = CoordinateChart(1)
        env = chart.env([2.0, 3.0], 0.0)
        # ^ binds tighter than unary minus, right-associative
        assert evaluate(parse("-q1^2", chart), env) == -4.0
        assert evaluate(parse("2^3^2", chart), env) == 512.0
        assert evaluate(parse("2^-1", chart), env) == 0.5
        assert evaluate(parse("q1+p1*2", chart), env) == 8.0

    def test_number_forms(self):
        chart = CoordinateChart(1)
        assert evaluate(parse("1.5e2", chart), {}) == 150.0
        assert evaluate(parse(".25", chart), {}) == 0.25
        assert evaluate(parse("3.", chart), {}) == 3.0

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("", "empty expression", 1),
            (" \t ", "empty expression", 4),
            ("q1 + $", "unexpected '$'", 6),
            ("q1 λ", "unexpected 'λ'", 4),
            ("q1 + 2 q1", "unexpected 'q'", 8),
            ("q1 * .", "malformed number", 6),
            ("2*²", "malformed number", 3),
            ("1 + ٣", "malformed number", 5),
            ("(q1 + p1", "expected ')'", 9),
            ("sin(q1 p1)", "expected ')'", 8),
            ("q1^  ", "expected expression", 6),
            ("-", "expected expression", 2),
        ],
    )
    def test_syntax_errors(self, text, message, offset):
        # the offset is 1-based, at the start of the token where parsing stopped
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text, CoordinateChart(1))
        assert str(exc.value) == f"{message} at offset {offset}"
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "text, name, offset",
        [("q1 + x", "x", 6), ("q1*q2", "q2", 4), ("2*foo (q1)", "foo", 3), ("sin + 1", "sin", 1)],
    )
    def test_unknown_names(self, text, name, offset):
        # an unknown variable, or a name called as a function outside the function set
        with pytest.raises(UnknownIdentifierError) as exc:
            parse(text, CoordinateChart(1))
        assert str(exc.value) == f"unknown identifier '{name}' at offset {offset}"
        assert (exc.value.name, exc.value.offset) == (name, offset)


class TestEvaluate:
    def test_examples(self):
        chart = CoordinateChart(1)
        assert evaluate(parse("p1^2/2", chart), chart.env([0.0, 2.0])) == 2.0
        assert evaluate(parse("exp(t)", chart), chart.env([0.0, 0.0], 0.0)) == 1.0

    def test_log_domain(self):
        chart = CoordinateChart(1)
        with pytest.raises(DomainError):
            evaluate(parse("log(q1)", chart), chart.env([-1.0, 0.0]))

    def test_division_by_zero(self):
        chart = CoordinateChart(1)
        with pytest.raises(DomainError):
            evaluate(parse("1/q1", chart), chart.env([0.0, 0.0]))

    def test_sqrt_domain(self):
        chart = CoordinateChart(1)
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(q1)", chart), chart.env([-4.0, 0.0]))

    def test_negative_fractional_power(self):
        chart = CoordinateChart(1)
        with pytest.raises(DomainError):
            evaluate(parse("q1^0.5", chart), chart.env([-2.0, 0.0]))

    def test_deterministic(self):
        chart = CoordinateChart(2)
        e = parse("sin(q1*p2) + exp(q2/2) - tanh(p1)", chart)
        env = chart.env([0.3, -0.4, 0.9, 1.2], 0.5)
        assert evaluate(e, env) == evaluate(e, env)

    @pytest.mark.parametrize(
        "text, message",
        [("sin(exp(1000))", "sin of infinite value in 'sin(exp(1000))'"),
         ("cos(-exp(q1))", "cos of infinite value in 'cos(-exp(q1))'")],
    )
    def test_trig_of_infinity(self, text, message):
        # exp overflows to inf, where sin and cos are undefined
        chart = CoordinateChart(1)
        e = parse(text, chart)
        env = chart.env([1000.0, 0.0])
        expand = lambda: next(taylor_series([e], {"q1": [1000.0, 1.0], "p1": [0.0, 1.0]}))  # noqa: E731
        for evaluator in (lambda: evaluate(e, env), expand):
            with pytest.raises(DomainError) as info:
                evaluator()
            assert str(info.value) == message
        # simplify folds exp(1000) to inf but keeps the sin or cos unfolded
        assert simplify(e).func == e.func


def coefficients(exprs, leaves, count):
    """The first ``count`` Taylor coefficients of each expression, (len(exprs), count)."""
    walk = taylor_series(exprs, leaves)
    return np.array([next(walk) for _ in range(count)]).T


class TestTaylor:
    """Truncated Taylor series in one variable s, the leaves given as series."""

    def test_product_and_gradient_of_polynomials(self):
        # polynomial leaves give the exact product of their polynomials, and
        # coefficient 1 is the gradient along the leaves' velocity
        chart = CoordinateChart(1)
        rng = np.random.default_rng(3)
        q, p = rng.standard_normal(3), rng.standard_normal(4)
        got = coefficients([parse("q1*p1", chart), parse("q1^2*p1 - 3*p1", chart)], {"q1": list(q), "p1": list(p)}, 12)
        product = np.polynomial.polynomial.polymul
        assert np.allclose(got[0], np.pad(product(q, p), (0, 6)), rtol=1e-14, atol=0.0)
        cubic = product(product(q, q), p) - np.pad(3 * p, (0, 4))
        assert np.allclose(got[1], np.pad(cubic, (0, 4)), rtol=1e-13, atol=1e-14)
        assert not got[0, 6:].any() and not got[1, 8:].any()
        e = parse("q1^2*p1 - 3*p1", chart)
        env = chart.env([q[0], p[0]])
        directional = sum(v * evaluate(differentiate(e, name), env) for v, name in zip((q[1], p[1]), chart.names))
        assert got[1, 1] == pytest.approx(directional, rel=1e-13)

    @pytest.mark.parametrize(
        "text",
        ["exp(q1)*sin(p1)", "cos(q1*p1) - tanh(q1)", "log(q1) + sqrt(q1 + p1)", "q1^p1",
         "(q1 + 1)^2.5 / (q1 - p1)", "q1^3 - 2*p1/q1 + t"],
    )
    def test_expansion_matches_evaluate_and_differentiate(self, text):
        # along x + s h, coefficient 0 is the value, coefficient 1 the
        # gradient along h, and the sum at s = 1 the value at x + h
        chart = CoordinateChart(1)
        e = parse(text, chart)
        x, h, time = np.array([0.7, 0.3]), np.array([0.01, -0.02]), 0.4
        s = coefficients([e], {"q1": [x[0], h[0]], "p1": [x[1], h[1]], "t": [time]}, 11)[0]
        env = chart.env(x, time)
        assert s[0] == evaluate(e, env)
        directional = sum(v * evaluate(differentiate(e, name), env) for v, name in zip(h, chart.names))
        assert s[1] == pytest.approx(directional, rel=1e-13)
        assert sum(s) == pytest.approx(evaluate(e, chart.env(x + h, time)), rel=1e-12)

    def test_polynomials_stay_short(self):
        # products of polynomial leaves end exactly at their degree
        chart = CoordinateChart(2)
        leaves = {"q1": [2.0, 0.1], "q2": [0.5], "p1": [0.0], "p2": [1.0, -0.4]}
        s = coefficients([parse("q1^2*p2 - 3", chart), parse("q2", chart)], leaves, 21)
        assert not s[0, 4:].any() and s[0, 3] != 0.0
        assert sum(s[0]) == pytest.approx(2.1**2 * 0.6 - 3, rel=1e-14)
        assert s[1].tolist() == [0.5] + [0.0] * 20

    @pytest.mark.parametrize(
        "text, point, message",
        [("q1^3 + p1", [0.0, 0.5], None),
         ("q1^2.5", [0.0, 0.5], "no Taylor expansion at 0 in 'q1^2.5'"),
         ("sqrt(q1)", [0.0, 0.5], "no Taylor expansion at 0 in 'sqrt(q1)'"),
         ("q1^p1", [0.0, 0.5], "no Taylor expansion at a non-positive base in 'q1^p1'"),
         ("q1^p1", [-2.0, 2.0], "no Taylor expansion at a non-positive base in 'q1^p1'"),
         ("log(q1)", [0.0, 0.5], "log of non-positive value in 'log(q1)'"),
         ("p1/(q1 - q1)", [0.0, 0.5], "division by zero in 'p1/(q1-q1)'"),
         ("sqrt(p1 - p1) + 0^t", [0.0, 0.5], None)],
    )
    def test_domain(self, text, point, message):
        # a node fails where its value does, and where a varying argument
        # has no expansion; an argument that does not vary needs none
        chart = CoordinateChart(1)
        e = parse(text, chart)
        expand = lambda: coefficients([e], {"q1": [point[0], 1.0], "p1": [point[1], 1.0], "t": [1.0]}, 5)  # noqa: E731
        if message is None:
            assert expand()[0, 0] == evaluate(e, chart.env(point, 1.0))
        else:
            with pytest.raises(DomainError) as info:
                expand()
            assert str(info.value) == message

    def test_unbound_leaf(self):
        chart = CoordinateChart(1)
        with pytest.raises(UnboundVariableError, match="no binding for 't'"):
            next(taylor_series([parse("q1 + t", chart)], {"q1": [1.0], "p1": [0.0]}))

    # each against sympy.series along leaves linear in s: q1 = 3/10 + 7/10 s
    # and p1 = -2/5 + s/2, or where named, leaves through 0
    @pytest.mark.parametrize(
        "text, zero",
        [("exp(q1) - 2*p1", ()), ("sin(q1) + cos(p1)", ()), ("log(2 + q1)", ()), ("sqrt(1 + p1^2)", ()),
         ("tanh(q1)", ()), ("q1/(2 - p1)", ()), ("(1.5 + q1)^2.5", ()), ("q1^3 + q1^2*p1", ("q1",)),
         ("(1 + q1)^p1", ("q1", "p1"))],
    )
    def test_coefficients_agree_with_sympy_series(self, text, zero):
        sympy = pytest.importorskip("sympy")
        chart = CoordinateChart(1)
        s = sympy.Symbol("s")
        start = {"q1": sympy.Rational(3, 10), "p1": sympy.Rational(-2, 5)}
        velocity = {"q1": sympy.Rational(7, 10), "p1": sympy.Rational(1, 2)}
        paths = {name: (0 if name in zero else start[name]) + velocity[name] * s for name in chart.names}
        symbolic = sympy.sympify(text.replace("^", "**"), locals=paths)
        series = sympy.series(symbolic, s, 0, 9).removeO()
        ref = np.array([float(series.coeff(s, k)) for k in range(9)])
        leaves = {name: [float(paths[name].coeff(s, k)) for k in range(2)] for name in chart.names}
        got = coefficients([parse(text, chart)], leaves, 9)[0]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestDifferentiate:
    def test_power_rule(self):
        chart = CoordinateChart(1)
        d = differentiate(parse("p1^2/2 + q1^2/2", chart), "p1")
        assert d == Var("p1")
        assert to_string(d) == "p1"

    def test_independent_variable(self):
        chart = CoordinateChart(1)
        d = differentiate(parse("p1", chart), "q1")
        assert d == Num(0.0)
        assert to_string(d) == "0"

    def test_chain_rule_string(self):
        chart = CoordinateChart(2)
        d = differentiate(parse("sin(q1*q2)", chart), "q1")
        assert to_string(d) == "cos(q1*q2)*q2"

    def test_chain_rule_fd(self):
        chart = CoordinateChart(2)
        e = parse("sin(q1*q2)", chart)
        d = differentiate(e, "q1")
        rng = np.random.default_rng(11)
        for _ in range(10):
            coords = rng.uniform(-2.0, 2.0, 4)
            got = evaluate(d, chart.env(coords))
            want = fd_derivative(e, chart, coords, 0.0, "q1")
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "text",
        [
            "sin(q1+p1)",
            "cos(q1*p1)",
            "exp(q1/3)",
            "log(2 + q1^2)",
            "sqrt(1 + p1^2)",
            "tanh(q1 - p1)",
            "q1^3*p1^2",
            "q1/(1 + p1^2)",
            "(1 + q1^2)^(p1/4)",
            "exp(t)*q1",
        ],
    )
    def test_fd_agreement_each_node(self, text):
        chart = CoordinateChart(1)
        e = parse(text, chart)
        rng = np.random.default_rng(hash(text) % 2**32)
        for var in ("q1", "p1", "t"):
            d = differentiate(e, var)
            for _ in range(6):
                coords = rng.uniform(0.2, 1.5, 2)
                time = rng.uniform(0.1, 1.0)
                got = evaluate(d, chart.env(coords, time))
                want = fd_derivative(e, chart, coords, time, var)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_clairaut(self):
        # mixed second partials commute
        chart = CoordinateChart(1)
        for text in ("sin(q1*p1)*exp(q1)", "q1^3*p1^2 + tanh(q1*p1)", "log(2+q1^2+p1^2)"):
            e = parse(text, chart)
            ab = differentiate(differentiate(e, "q1"), "p1")
            ba = differentiate(differentiate(e, "p1"), "q1")
            rng = np.random.default_rng(5)
            for _ in range(10):
                coords = rng.uniform(-1.2, 1.2, 2)
                va = evaluate(ab, chart.env(coords))
                vb = evaluate(ba, chart.env(coords))
                assert abs(va - vb) <= 1e-9 * max(1.0, abs(va))


def _random_expr(rng, chart, depth):
    """Generator for round-trip tests; avoids unbounded domains."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(round(float(rng.uniform(-3, 3)), 3))
        return Var(str(rng.choice(list(chart.names) + ["t"])))
    kind = rng.integers(0, 6)
    a = _random_expr(rng, chart, depth - 1)
    b = _random_expr(rng, chart, depth - 1)
    if kind == 0:
        return BinOp("+", a, b)
    if kind == 1:
        return BinOp("-", a, b)
    if kind == 2:
        return BinOp("*", a, b)
    if kind == 3:
        return BinOp("/", a, BinOp("+", Num(2.5), Call("tanh", b)))
    if kind == 4:
        return Neg(a)
    return Call(str(rng.choice(["sin", "cos", "tanh"])), a)


class TestPrinting:
    def test_round_trip_values(self):
        chart = CoordinateChart(2)
        rng = np.random.default_rng(42)
        for _ in range(40):
            e = _random_expr(rng, chart, 4)
            text = to_string(e)
            back = parse(text, chart)
            for _ in range(100 // 40 + 3):
                coords = rng.uniform(-2.0, 2.0, 4)
                time = rng.uniform(0.0, 2.0)
                v1 = evaluate(e, chart.env(coords, time))
                v2 = evaluate(back, chart.env(coords, time))
                assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_parenthesization(self):
        chart = CoordinateChart(1)
        cases = {
            BinOp("-", Var("q1"), BinOp("-", Var("p1"), Num(1.0))): "q1-(p1-1)",
            BinOp("^", BinOp("^", Num(2.0), Num(3.0)), Num(2.0)): "(2^3)^2",
            Neg(BinOp("+", Var("q1"), Var("p1"))): "-(q1+p1)",
            BinOp("^", Num(-2.0), Num(2.0)): "(-2)^2",
        }
        for e, text in cases.items():
            assert to_string(e) == text
            env = chart.env([1.7, -0.6], 0.0)
            assert evaluate(parse(text, chart), env) == evaluate(e, env)


class TestSimplify:
    def test_identities(self):
        q = Var("q1")
        assert simplify(BinOp("+", q, Num(0.0))) == q
        assert simplify(BinOp("*", q, Num(1.0))) == q
        assert simplify(BinOp("*", q, Num(0.0))) == Num(0.0)
        assert simplify(BinOp("^", q, Num(1.0))) == q
        assert simplify(BinOp("-", Num(0.0), q)) == Neg(q)

    def test_constant_folding(self):
        e = BinOp("*", BinOp("+", Num(1.0), Num(2.0)), Num(4.0))
        assert simplify(e) == Num(12.0)
        assert simplify(Call("sin", Num(0.0))) == Num(0.0)

    def test_fold_guards_domains(self):
        # 1/0 must not fold into a constant
        e = BinOp("/", Num(1.0), Num(0.0))
        assert simplify(e) == e


class TestCompile:
    def test_matches_interpreter(self):
        chart = CoordinateChart(2)
        rng = np.random.default_rng(8)
        texts = ["sin(q1*p2)+exp(q2/3)-tanh(p1)^2", "q1^3/(2+p1^2)+sqrt(1+q2^2)"]
        for text in texts:
            e = parse(text, chart)
            fn = compile_vector([e], chart)
            for _ in range(20):
                coords = rng.uniform(-1.5, 1.5, 4)
                time = rng.uniform(0.0, 1.0)
                (value,) = fn(coords, time)
                assert value == pytest.approx(evaluate(e, chart.env(coords, time)), abs=0, rel=1e-15)

    def test_folded_infinite_constant(self):
        # d(q1*exp(1000))/dq1 folds to the constant inf
        chart = CoordinateChart(1)
        e = differentiate(parse("q1*exp(1000)", chart), "q1")
        assert e == Num(float("inf"))
        assert compile_vector([e, -e], chart)([0.5, 0.5], 0.0) == [float("inf"), -float("inf")]


def chain_hamiltonian(n):
    kinetic = [f"p{i}^2/2" for i in range(1, n + 1)]
    onsite = [f"q{i}^2/2" for i in range(1, n + 1)]
    springs = [f"(q{i} - q{i + 1})^2/2" for i in range(1, n)]
    return " + ".join(kinetic + onsite + springs)


def test_gradient_work_is_linear_in_the_chain_length(monkeypatch):
    # One chain-rule application per node and name the walk visits.  A
    # per-name walk down the Hamiltonian's + spine would grow 4x per doubling.
    applications = []
    chain_rule = exprlang._chain_rule

    def counted(e, *partials):
        applications.append(e)
        return chain_rule(e, *partials)

    monkeypatch.setattr(exprlang, "_chain_rule", counted)
    counts = []
    for n in (8, 16, 32):
        chart = CoordinateChart(n)
        H = parse(chain_hamiltonian(n), chart)
        applications.clear()
        grad = exprlang.gradient(H, chart.names)
        counts.append(len(applications))
        assert grad == [differentiate(H, name) for name in chart.names]
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], counts


def test_free_vars_and_count():
    chart = CoordinateChart(1)
    e = parse("sin(q1*p1) + t", chart)
    assert free_vars(e) == {"q1", "p1", "t"}
