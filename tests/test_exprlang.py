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
    UnknownIdentifierError,
    Monomials,
    Var,
    compile_vector,
    differentiate,
    evaluate,
    free_vars,
    parse,
    simplify,
    taylor_expand,
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
        expand = lambda: taylor_expand([e], chart, [1000.0, 0.0], 0.0, 3, Monomials(2))  # noqa: E731
        for evaluator in (lambda: evaluate(e, env), expand):
            with pytest.raises(DomainError) as info:
                evaluator()
            assert str(info.value) == message
        # simplify folds exp(1000) to inf but keeps the sin or cos unfolded
        assert simplify(e).func == e.func


class TestTaylor:
    """Truncated Taylor series on the graded monomial basis."""

    @staticmethod
    def polynomial(basis, coeffs, x):
        return sum(c * np.prod(np.asarray(x) ** basis.exps[i]) for i, c in enumerate(coeffs))

    def test_basis_is_graded_with_consistent_successors(self):
        from math import comb

        basis = Monomials(3)
        basis.grow(4)
        exps = [tuple(row) for row in basis.exps]
        assert basis.sizes == [comb(k + 3, 3) for k in range(5)]
        assert len(set(exps)) == len(exps)
        assert [sum(e) for e in exps] == sorted(sum(e) for e in exps)
        assert exps[1:4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        index = {e: i for i, e in enumerate(exps)}
        for i, e in enumerate(exps[: basis.sizes[3]]):
            for k in range(3):
                assert basis.succ[i, k] == index[tuple(np.add(e, np.eye(3, dtype=int)[k]))]

    def test_product_and_gradient_of_polynomials(self):
        basis = Monomials(2)
        basis.grow(3)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(basis.sizes[2]), rng.standard_normal(basis.sizes[3])
        x = rng.uniform(-1.0, 1.0, 2)
        exact = basis.mul(a, b, 5)
        assert len(exact) == basis.sizes[5]
        assert self.polynomial(basis, exact, x) == pytest.approx(
            self.polynomial(basis, a, x) * self.polynomial(basis, b, x), rel=1e-13
        )
        # truncation keeps the low degrees of the full product
        assert np.array_equal(basis.mul(a, b, 3), exact[: basis.sizes[3]])
        # d/dx_0 of x_0^2 x_1 is 2 x_0 x_1
        cube = np.zeros(basis.sizes[3])
        cube[basis.exps.tolist().index([2, 1])] = 1.0
        grad = basis.gradient(cube)
        assert grad.shape == (2, basis.sizes[2])
        assert grad[0, basis.exps.tolist().index([1, 1])] == 2.0
        assert grad[1, basis.exps.tolist().index([2, 0])] == 1.0
        assert np.count_nonzero(grad) == 2

    @pytest.mark.parametrize(
        "text",
        ["exp(q1)*sin(p1)", "cos(q1*p1) - tanh(q1)", "log(q1) + sqrt(q1 + p1)", "q1^p1",
         "(q1 + 1)^2.5 / (q1 - p1)", "q1^3 - 2*p1/q1 + t"],
    )
    def test_expansion_matches_evaluate_and_differentiate(self, text):
        chart = CoordinateChart(1)
        e = parse(text, chart)
        x, time = np.array([0.7, 0.3]), 0.4
        basis = Monomials(2)
        s = taylor_expand([e], chart, x, time, 10, basis)[0]
        assert s[0] == evaluate(e, chart.env(x, time))
        for k, name in enumerate(chart.names):
            assert s[1 + k] == pytest.approx(evaluate(differentiate(e, name), chart.env(x, time)), rel=1e-13)
        h = np.array([0.01, -0.02])
        assert self.polynomial(basis, s, h) == pytest.approx(evaluate(e, chart.env(x + h, time)), rel=1e-12)

    def test_polynomials_stay_short(self):
        chart = CoordinateChart(2)
        basis = Monomials(4)
        s = taylor_expand([parse("q1^2*p2 - 3", chart), parse("q2", chart)], chart, [2.0, 0.5, 0.0, 1.0], 0.0, 20, basis)
        assert s.shape == (2, basis.sizes[3])
        assert basis.sizes[-1] == basis.sizes[3]
        assert self.polynomial(basis, s[0], [0.1, 0.2, 0.3, -0.4]) == pytest.approx(2.1**2 * 0.6 - 3, rel=1e-14)
        assert s[1].tolist() == [0.5, 0.0, 1.0] + [0.0] * (basis.sizes[3] - 3)

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
        expand = lambda: taylor_expand([e], chart, point, 1.0, 4, Monomials(2))  # noqa: E731
        if message is None:
            assert expand()[0, 0] == evaluate(e, chart.env(point, 1.0))
        else:
            with pytest.raises(DomainError) as info:
                expand()
            assert str(info.value) == message


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
