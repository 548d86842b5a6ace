"""Expression parser: grammar, derivatives, series expansion, catalog match."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from germres import Jet, OrderError
from germres.expr import GermExpr, NotASeries, ParseError, parse_expr, parse_germ
from germres.jets import CoefficientError

from helpers import reference_compile, reference_eval_d


def test_parse_quadratic():
    e = parse_expr("x - x^2")
    assert e.func(0.25) == 0.25 - 0.0625
    assert e.catalog_tag() == "quadratic"


def test_parse_moebius():
    e = parse_expr("x/(1+x)")
    assert abs(e.func(0.5) - 1 / 3) < 1e-15
    assert e.catalog_tag() == "moebius"


def test_parse_log_cubic():
    e = parse_expr("x + x^2 + x^3*log(x)")
    x = 0.17
    assert abs(e.func(x) - (x + x * x + x**3 * math.log(x))) < 1e-15
    assert e.catalog_tag() == "log_cubic"


def test_parse_no_catalog_match():
    assert parse_expr("x + 2*x^2").catalog_tag() is None


def test_parse_germ_dispatch():
    jet = parse_germ('{"order":3,"coeffs":["1","-1","0"]}')
    assert jet == Jet.of(1, -1, 0)
    expr = parse_germ("x - x^2")
    assert expr.catalog_tag() == "quadratic"


def test_derivative_matches_finite_differences():
    e = parse_expr("x/(1+x) + x^3*log(x) - 2*x^2")
    for x in (0.1, 0.2, 0.35):
        fd = (e.func(x + 1e-7) - e.func(x - 1e-7)) / 2e-7
        assert abs(e.deriv(x) - fd) < 1e-6


def test_series_expansion_exact():
    e = parse_expr("x/(1+x)")
    assert e.to_jet(5) == Jet.of(1, -1, 1, -1, 1)
    e = parse_expr("x - x^2")
    assert e.to_jet(4) == Jet.of(1, -1, 0, 0)
    e = parse_expr("(1+x)^-1 * x")
    assert e.to_jet(3) == Jet.of(1, -1, 1)


def test_series_decimal_literals_are_exact():
    e = parse_expr("x + 0.5*x^2")
    assert e.to_jet(2) == Jet.of(1, F(1, 2))


def test_series_order_must_be_positive():
    for order in (0, -3):
        with pytest.raises(OrderError):
            parse_expr("x - x^2").to_jet(order)


def test_series_rejects_log():
    with pytest.raises(NotASeries):
        parse_expr("x + x^3*log(x)").to_jet(4)


def test_series_rejects_pole():
    with pytest.raises(NotASeries):
        parse_expr("1/x").to_jet(3)


def test_series_rejects_nonzero_constant():
    with pytest.raises(NotASeries):
        parse_expr("1 + x").to_jet(2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expr("x + * 2")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_expr("x + sin(x)")
    with pytest.raises(ParseError):
        parse_expr("x^(1/2)")  # exponent must be a literal integer
    with pytest.raises(ParseError):
        parse_expr("(x + 1")


def test_nesting_depth_is_bounded():
    assert parse_expr("(" * 100 + "x" + ")" * 100).func(0.5) == 0.5
    assert parse_expr("-(" * 50 + "x" + ")" * 50).func(0.5) == 0.5
    for text in ("(" * 2000 + "x" + ")" * 2000, "-" * 2000 + "x", "log(" * 101 + "x" + ")" * 101):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert "nesting" in str(info.value)


def test_unary_minus_and_precedence():
    e = parse_expr("-x + 2*x^2 - x*x")
    assert abs(e.func(0.3) - (-0.3 + 2 * 0.09 - 0.09)) < 1e-15
    assert e.to_jet(2) == Jet.of(-1, 1)


def test_long_sum_chain_is_walked_without_recursion():
    n = 3000
    e = parse_expr("+".join(["x"] * n) + "-x")
    assert e.func(0.5) == (n - 1) * 0.5
    assert e.deriv(0.5) == n - 1
    assert e.to_jet(3) == Jet.of(n - 1, 0, 0)


def test_long_product_chain_is_walked_without_recursion():
    n = 3000
    e = parse_expr("x" + "*(1+x)" * n + "/(1+x)")
    x = 1e-4
    assert math.isclose(e.func(x), x * (1 + x) ** (n - 1), rel_tol=1e-9)
    assert math.isclose(e.deriv(x), (1 + x) ** (n - 1) + (n - 1) * x * (1 + x) ** (n - 2), rel_tol=1e-9)
    assert e.to_jet(3) == Jet.of(1, n - 1, math.comb(n - 1, 2))


def test_large_power_expands_by_squaring():
    n = 10**8
    e = parse_expr(f"x + x^2 + (1+x)^{n} - 1")
    assert e.to_jet(5) == Jet.of(n + 1, math.comb(n, 2) + 1, *(math.comb(n, k) for k in (3, 4, 5)))
    # (1+x)^-n = sum_k (-1)^k C(n+k-1, k) x^k
    e = parse_expr(f"x + x^2 + (1+x)^-{n} - 1")
    assert e.to_jet(3) == Jet.of(1 - n, math.comb(n + 1, 2) + 1, -math.comb(n + 2, 3))


# -- the generated evaluators against the first-written closures and walk -----


def outcome(fn, x):
    """repr of fn(x), or the type and message of the float error it raises."""
    try:
        return repr(fn(x))
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


POINTS = (0.0, -0.0, 5e-324, 1e-300, 1e-5, 0.07, 0.3, 1.0, 2.5, -0.4, -3.0, 1e300, math.inf, -math.inf, math.nan)


def assert_matches_reference(text, points=POINTS):
    e = parse_expr(text)
    value = reference_compile(e.ast)

    def derivative(x):
        return reference_eval_d(e.ast, x)[1]

    for x in points:
        assert outcome(e.func, x) == outcome(value, x), (text, x)
        assert outcome(e, x) == outcome(value, x), (text, x)
        assert outcome(e.deriv, x) == outcome(derivative, x), (text, x)


def test_generated_evaluators_are_the_functions_themselves():
    e = parse_expr("x/(1+2*x)")
    assert type(e.func).__name__ == "function" and e.func.__name__ == "value"
    assert e.deriv.__name__ == "derivative"
    assert e.func is e.func and e.deriv is e.deriv
    # called through the class, as a method, they evaluate the same
    assert GermExpr.func(e, 0.3) == e.func(0.3) and GermExpr.deriv(e, 0.3) == e.deriv(0.3)
    assert e == parse_expr("x/(1+2*x)") and hash(e) == hash(parse_expr("x/(1+2*x)"))
    assert repr(e).startswith("GermExpr(text='x/(1+2*x)', ast=")


@pytest.mark.parametrize(
    "text",
    [
        "x - x^2",
        "x/(1+2*x)",
        "x - x^2 + 1/4*x^3",
        "x + x^2 + x^3*log(x)",
        "x*(1 + x*log(x))^-2 - log(log(x))",
        "-x^-3 + --x/(x - 0.5)^2 - 2^-1*x^0",
        "0*x - 0 - x*0 + (-0)^3",
        "1/0 + x",
        "x^0 + 0^0 + 0^-1",
        "10^400 - x + 2^1100 * x",
        "0.1 + 0.2 + 3.000000000000000000001*x",
        "(" * 100 + "x" + ")" * 100,
        "-(" * 49 + "x/(1+x)" + ")" * 49,
        "log(" * 50 + "x" + ")" * 50,
        "+".join(["x"] * 3000) + "-x",
        "x" + "*(1+x)" * 3000 + "/(1+x)",
        "-".join(f"{k}*x^{k % 7 - 3}" for k in range(1, 400)),
    ],
)
def test_generated_evaluators_match_the_reference(text):
    assert_matches_reference(text)


def _formulas():
    digits = st.integers(0, 10**6).map(str)
    numbers = st.one_of(digits, st.tuples(digits, digits).map(".".join))
    atoms = st.one_of(st.just("x"), st.just("x"), numbers)

    def extend(children):
        return st.one_of(
            st.lists(st.tuples(st.sampled_from("+-*/"), children), min_size=1, max_size=6).flatmap(
                lambda tail: children.map(lambda head: head + "".join(op + t for op, t in tail))
            ),
            children.map(lambda c: f"({c})"),
            children.map(lambda c: f"-{c}"),
            st.tuples(children, st.integers(-5, 5)).map(lambda t: f"({t[0]})^{t[1]}"),
            children.map(lambda c: f"log({c})"),
        )

    return st.recursive(atoms, extend, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(
    _formulas(),
    st.lists(st.one_of(st.floats(), st.floats(-2.0, 2.0), st.sampled_from(POINTS)), min_size=1, max_size=5),
)
@example("x/(1+x) - log(x)^-2 * (x - 1)^3", [0.5, 1.0, 0.0])
def test_generated_evaluators_match_the_reference_on_drawn_formulas(text, points):
    try:
        parse_expr(text)
    except ParseError:
        assume(False)  # nested past the parser's bound
    assert_matches_reference(text, points)


def test_literals_past_the_float_range_fail_only_float_evaluation():
    huge = "1" + "0" * 400
    e = parse_expr(f"x - {huge}*x^2")  # parsing converts nothing to float
    assert e.to_jet(3) == Jet.of(1, -(10**400), 0)
    for evaluate in (lambda: e.func, lambda: e.deriv, lambda: e(0.1)):
        with pytest.raises(CoefficientError, match="a literal"):
            evaluate()
    with pytest.raises(CoefficientError, match="a literal"):
        e.catalog_tag()
    with pytest.raises(CoefficientError, match="an exponent"):
        parse_expr(f"x - x^{huge}").func


@pytest.mark.parametrize("text, values, derivatives", [("x/(1+2*x)", 3, 3), ("x + x^2 + x^3*log(x)", 6, 6)])
def test_value_evaluators_run_only_value_statements(text, values, derivatives):
    # the orbit loop inlines the increment's body at every step, so a
    # derivative statement there would be paid once per step
    e = parse_expr(text)
    value_lines = e.func._germres_body.lines
    assert len(value_lines) == values
    assert e.increment._germres_body.lines == value_lines
    all_lines = e.deriv._germres_body.lines
    assert len(all_lines) == values + derivatives
    assert [line for line in all_lines if line in value_lines] == list(value_lines)
