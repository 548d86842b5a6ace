"""Expression parser: grammar, derivatives, series expansion, catalog match."""

import math
from fractions import Fraction as F

import pytest

from germres import Jet, OrderError
from germres.expr import NotASeries, ParseError, parse_expr, parse_germ


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
