import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltavar import (
    DivisionByZero,
    DomainError,
    ExprError,
    ExprSyntaxError,
    NestingTooDeep,
    NonIntegerExponent,
    UnknownFunction,
    UnknownVariable,
    differentiate,
    evaluate,
    parse,
    to_text,
)
from deltavar.expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    add,
    call,
    div,
    mul,
    neg,
    pow_int,
    sub,
)


class TestParse:
    def test_power_node(self):
        e = parse("v^2", ("t", "y", "v"))
        assert e == Pow(Var("v"), 2)

    def test_product_node(self):
        e = parse("u1 * u2", ("u1", "u2"))
        assert e == Mul(Var("u1"), Var("u2"))

    def test_non_integer_exponent_variable(self):
        with pytest.raises(NonIntegerExponent):
            parse("v^t", ("t", "y", "v"))

    def test_non_integer_exponent_decimal(self):
        with pytest.raises(NonIntegerExponent):
            parse("v^2.5", ("t", "y", "v"))

    def test_negative_exponent_becomes_division(self):
        e = parse("v^-2", ("v",))
        assert e == Div(Const(1.0), Pow(Var("v"), 2))

    def test_precedence_power_over_unary_minus(self):
        e = parse("-v^2", ("v",))
        assert evaluate(e, {"v": 3.0}) == -9.0

    def test_precedence_mul_over_add(self):
        e = parse("1 + 2*3", ("t",))
        assert e == Const(7.0)

    def test_left_associative_subtraction(self):
        e = parse("8 - 3 - 2", ("t",))
        assert e == Const(3.0)

    def test_parentheses(self):
        e = parse("(1 + 2)*3", ("t",))
        assert e == Const(9.0)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            parse("t + z", ("t",))
        assert err.value.name == "z"

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("tan(t)", ("t",))

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + * 2", ("t",))
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 )", ("t",))

    def test_scientific_literals(self):
        assert parse("1e-3 + 2.5e2", ("t",)) == Const(0.001 + 250.0)

    def test_function_call(self):
        e = parse("sin(t)^2", ("t",))
        assert evaluate(e, {"t": 0.3}) == pytest.approx(np.sin(0.3) ** 2)


class TestEvaluate:
    def test_simple_product(self):
        e = parse("t*v", ("t", "y", "v"))
        assert evaluate(e, {"t": 0.5, "v": 2.0}) == 1.0

    def test_division_by_zero(self):
        e = parse("u1/u2", ("u1", "u2"))
        with pytest.raises(DivisionByZero):
            evaluate(e, {"u1": 1.0, "u2": 0.0})

    def test_sl_style_integrand_identity_case(self):
        e = parse("v^2 - t*y^2", ("t", "y", "v"))
        assert evaluate(e, {"t": 0.0, "y": 1.0, "v": 0.0}) == 0.0

    def test_log_domain_error(self):
        e = parse("log(t)", ("t",))
        with pytest.raises(DomainError):
            evaluate(e, {"t": -1.0})

    def test_sqrt_domain_error(self):
        e = parse("sqrt(t)", ("t",))
        with pytest.raises(DomainError):
            evaluate(e, {"t": -0.5})

    def test_vectorized_evaluation(self):
        e = parse("t^2 + v", ("t", "v"))
        t = np.linspace(0, 1, 5)
        v = np.ones(5)
        out = evaluate(e, {"t": t, "v": v})
        assert np.array_equal(out, t**2 + 1.0)


class TestDifferentiate:
    def test_power_rule(self):
        e = parse("v^2", ("v",))
        assert differentiate(e, "v") == Mul(Const(2.0), Var("v"))

    def test_absent_variable(self):
        e = parse("t*v", ("t", "y", "v"))
        assert differentiate(e, "y") == Const(0.0)

    def test_sum_rule(self):
        e = parse("v + v^2", ("v",))
        d = differentiate(e, "v")
        assert d == Add(Const(1.0), Mul(Const(2.0), Var("v")))

    def test_quotient_rule_values(self):
        e = parse("t/(1 + v^2)", ("t", "v"))
        d = differentiate(e, "v")
        t, v = 0.7, -1.3
        expected = -t * 2 * v / (1 + v * v) ** 2
        assert evaluate(d, {"t": t, "v": v}) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fn,arg_deriv", [
        ("sin", lambda x: np.cos(x)),
        ("cos", lambda x: -np.sin(x)),
        ("exp", lambda x: np.exp(x)),
        ("log", lambda x: 1.0 / x),
        ("sqrt", lambda x: 0.5 / np.sqrt(x)),
    ])
    def test_chain_rule_on_functions(self, fn, arg_deriv):
        e = parse(f"{fn}(2*t)", ("t",))
        d = differentiate(e, "t")
        t = 0.8
        assert evaluate(d, {"t": t}) == pytest.approx(2 * arg_deriv(2 * t), rel=1e-12)


def _random_expr_text(rng):
    from conftest import random_polynomial

    return random_polynomial(rng, ("t", "y", "v"), max_terms=4, max_degree=3)


class TestFiniteDifferenceAgreement:
    def test_symbolic_matches_central_differences(self):
        rng = np.random.default_rng(17)
        step = 1e-6
        for _ in range(100):
            text = _random_expr_text(rng)
            e = parse(text, ("t", "y", "v"))
            point = {k: float(rng.uniform(0.2, 1.5)) for k in ("t", "y", "v")}
            for var in ("t", "y", "v"):
                sym = evaluate(differentiate(e, var), point)
                hi = dict(point)
                hi[var] += step
                lo = dict(point)
                lo[var] -= step
                fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * step)
                assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


# Hypothesis strategy for structurally random, already-folded trees.
_leaf = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(
        lambda v: Const(round(v, 3))
    ),
    st.sampled_from(["t", "y", "v"]).map(Var),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        st.tuples(children, st.integers(min_value=2, max_value=4)).map(
            lambda bn: Pow(*bn)
        ),
    )


_exprs = st.recursive(_leaf, _combine, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_exprs)
    def test_parse_of_print_is_identity_after_folding(self, tree):
        from deltavar.expr import add, div, mul, pow_int, sub

        # Re-fold the raw hypothesis tree with the same constructors the
        # parser uses, then require an exact structural round trip.
        def fold(e):
            if isinstance(e, Add):
                return add(fold(e.lhs), fold(e.rhs))
            if isinstance(e, Sub):
                return sub(fold(e.lhs), fold(e.rhs))
            if isinstance(e, Mul):
                return mul(fold(e.lhs), fold(e.rhs))
            if isinstance(e, Div):
                return div(fold(e.lhs), fold(e.rhs))
            if isinstance(e, Pow):
                return pow_int(fold(e.base), e.exponent)
            return e

        folded = fold(tree)
        assert parse(to_text(folded), ("t", "y", "v")) == folded


class TestDerivativeLinearity:
    def test_linear_combinations(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            f = parse(_random_expr_text(rng), ("t", "y", "v"))
            g = parse(_random_expr_text(rng), ("t", "y", "v"))
            a, b = 1.5, -2.25
            combo = parse(
                f"{a}*({to_text(f)}) + {b}*({to_text(g)})", ("t", "y", "v")
            )
            d_combo = differentiate(combo, "v")
            point = {k: float(rng.uniform(0.1, 1.0)) for k in ("t", "y", "v")}
            expected = a * evaluate(differentiate(f, "v"), point) + b * evaluate(
                differentiate(g, "v"), point
            )
            assert evaluate(d_combo, point) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _reference_evaluate(e, bindings):
    """The recursive tree walk that per-node closures replaced."""

    def ev(node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            try:
                return bindings[node.name]
            except KeyError:
                raise UnknownVariable(node.name) from None
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Add):
            return ev(node.lhs) + ev(node.rhs)
        if isinstance(node, Sub):
            return ev(node.lhs) - ev(node.rhs)
        if isinstance(node, Mul):
            return ev(node.lhs) * ev(node.rhs)
        if isinstance(node, Div):
            num = ev(node.lhs)
            den = ev(node.rhs)
            if np.any(den == 0.0):
                raise DivisionByZero(node)
            return num / den
        if isinstance(node, Pow):
            base = ev(node.base)
            try:
                return base**node.exponent
            except OverflowError:  # a float power that overflows is inf, as in numpy
                return math.copysign(math.inf, base) if node.exponent % 2 else math.inf
        if isinstance(node, Call):
            val = ev(node.arg)
            if node.func == "log" and np.any(val <= 0.0):
                raise DomainError(node, "log of a non-positive value")
            if node.func == "sqrt" and np.any(val < 0.0):
                raise DomainError(node, "sqrt of a negative value")
            return FUNCTIONS[node.func](val)
        raise TypeError(f"not an expression node: {node!r}")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return ev(e)


def _fold(e):
    """Rebuild a raw tree with the parser's folding constructors."""
    if isinstance(e, Neg):
        return neg(_fold(e.arg))
    if isinstance(e, Call):
        return call(e.func, _fold(e.arg))
    if isinstance(e, Pow):
        return pow_int(_fold(e.base), e.exponent)
    folders = {Add: add, Sub: sub, Mul: mul, Div: div}
    if type(e) in folders:
        return folders[type(e)](_fold(e.lhs), _fold(e.rhs))
    return e


def _combine_with_calls(children):
    return st.one_of(
        _combine(children),
        children.map(Neg),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda fa: Call(*fa)),
    )


_folded_exprs = st.recursive(
    st.one_of(_leaf, st.just(Const(0.0)), st.sampled_from(["t", "y", "v"]).map(Var)),
    _combine_with_calls,
    max_leaves=10,
).map(_fold)

_binding_value = st.sampled_from([0.0, -1.5, 0.5, 2.0]) | st.floats(-3.0, 3.0)
_bindings = st.fixed_dictionaries(
    {
        name: _binding_value
        | st.lists(_binding_value, min_size=5, max_size=5).map(np.array)
        for name in ("t", "y", "v")
    }
)


class TestBatchedEvaluate:
    @settings(max_examples=400, deadline=None)
    @given(
        trees=st.lists(_folded_exprs, min_size=1, max_size=4),
        bindings=_bindings,
    )
    # Both sides of the division fail: the numerator, walked first, raises.
    @example(
        trees=[parse("log(y)/(1/v)", ("t", "y", "v")), parse("sqrt(y)", ("t", "y", "v"))],
        bindings={"t": 1.0, "y": -1.0, "v": 0.0},
    )
    # A float power that overflows: IEEE inf, not OverflowError.
    @example(
        trees=[parse("-(1/v)^2", ("t", "y", "v"))],
        bindings={"t": 0.0, "y": 0.0, "v": 9.823695331945303e-198},
    )
    def test_tuple_matches_tree_walk(self, trees, bindings):
        expected, error = [], None
        for tree in trees:
            try:
                expected.append(_reference_evaluate(tree, bindings))
            except (ArithmeticError, ExprError) as exc:
                error = exc
                break
        if error is not None:
            # The batch stops at the first failing tree, with its error.
            with pytest.raises(type(error)) as got:
                evaluate(tuple(trees), bindings)
            assert getattr(got.value, "node", None) is getattr(error, "node", None)
            return
        values = evaluate(tuple(trees), bindings)
        assert isinstance(values, tuple) and len(values) == len(trees)
        for tree, value, want in zip(trees, values, expected):
            assert np.array_equal(value, want, equal_nan=True)
            assert np.array_equal(evaluate(tree, bindings), want, equal_nan=True)

    def test_long_sum_evaluates(self):
        # Descendants compile before their parents, so compiling a tree
        # recurses no deeper than evaluating it.
        e = parse(" + ".join(["t*y"] * 800), ("t", "y", "v"))
        assert evaluate(e, {"t": 1.0, "y": 2.0, "v": 0.0}) == 1600.0

    def test_sum_too_deep_raises_typed_error(self, recursion_limit):
        # Differentiation and evaluation make one call per tree level.
        e = parse(" + ".join(["t*y"] * (recursion_limit + 200)), ("t", "y", "v"))
        with pytest.raises(NestingTooDeep) as err:
            differentiate(e, "y")
        assert err.value.node is e
        with pytest.raises(NestingTooDeep):
            evaluate(e, {"t": 1.0, "y": 2.0, "v": 0.0})

    def test_deep_sum_text_raises_typed_error(self, recursion_limit):
        # Printing makes one call per tree level, as differentiation does.
        e = Var("t")
        for _ in range(3 * recursion_limit):
            e = Add(e, Var("y"))
        with pytest.raises(NestingTooDeep) as err:
            to_text(e)
        assert err.value.node is e

    def test_closure_is_not_a_field(self):
        e = parse("log(t) + y/v", ("t", "y", "v"))
        before = (repr(e), hash(e))
        evaluate(e, {"t": 1.0, "y": 2.0, "v": 4.0})
        assert (repr(e), hash(e)) == before
        assert e == parse("log(t) + y/v", ("t", "y", "v"))
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and evaluate(copy, {"t": 1.0, "y": 2.0, "v": 4.0}) == 0.5


_TOKENS = st.sampled_from([
    "t", "y", "v", "z", "sin", "log", "tan", "(", ")", "+", "-", "*", "/", "^", "^-",
    "2", "0", "1.5", "1e999", "9999999999", ".", "e", " ", ",",
])


class TestParserFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(text=st.text(max_size=40) | st.lists(_TOKENS, max_size=30).map("".join))
    @example(text="9999999999^9999999999")  # a folded constant power that overflows
    @example(text="(-2)^99999")
    @example(text="(" * 400 + "t" + ")" * 400)
    @example(text="-" * 2000 + "t")
    def test_random_text_raises_only_expr_errors(self, text):
        try:
            parse(text, ("t", "y", "v"))
        except ExprError as exc:
            assert isinstance(exc.position, int) and exc.position >= 0

    def test_overflowing_constant_power_folds_to_infinity(self):
        assert parse("10^400", ("t",)) == Const(np.inf)
        assert parse("(-10)^401", ("t",)) == Const(-np.inf)
        assert parse("(-10)^400", ("t",)) == Const(np.inf)

