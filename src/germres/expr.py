"""Tiny infix parser for germ formulas.

Grammar (no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' signed-integer)?
    atom   := number | 'x' | 'log' '(' expr ')' | '(' expr ')'

Numbers are exact: integer or decimal literals become rationals.  The AST
supports float evaluation, symbolic differentiation, exact truncated-series
expansion (when the expression is a ratio of polynomials in disguise), and
fingerprint matching against the germ catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import catalog_germ
from .jets import Jet


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotASeries(ValueError):
    """The expression has no truncated power-series expansion at 0."""


_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}

# Parentheses plus unary minus.  Each level costs the recursive descent up
# to five frames, so this keeps deep input far from the recursion limit.
_MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            lit = text[i:j]
            if lit == ".":
                raise ParseError("lone '.' is not a number", i)
            tokens.append(("num", Fraction(lit), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word == "x":
                tokens.append(("x", "x", i))
            elif word == "log":
                tokens.append(("log", "log", i))
            else:
                raise ParseError(f"unknown name {word!r}", i)
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def nested(self, parse, tok):
        """``parse()`` one level deeper than ``tok``, within _MAX_NESTING."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", tok[2])
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            tok = self.take()
            return ("neg", self.nested(self.factor, tok))
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("num")
            if tok[1].denominator != 1:
                raise ParseError("exponent must be an integer", tok[2])
            return ("pow", base, sign * int(tok[1]))
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", tok[1])
        if tok[0] == "x":
            self.take()
            return ("x",)
        if tok[0] == "log":
            self.take()
            arg = self.nested(self.expr, self.take("("))
            self.take(")")
            return ("log", arg)
        if tok[0] == "(":
            self.take()
            node = self.nested(self.expr, tok)
            self.take(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _eval(node, x):
    kind = node[0]
    if kind == "num":
        return float(node[1])
    if kind == "x":
        return x
    if kind == "add":
        return _eval(node[1], x) + _eval(node[2], x)
    if kind == "sub":
        return _eval(node[1], x) - _eval(node[2], x)
    if kind == "mul":
        return _eval(node[1], x) * _eval(node[2], x)
    if kind == "div":
        return _eval(node[1], x) / _eval(node[2], x)
    if kind == "neg":
        return -_eval(node[1], x)
    if kind == "pow":
        return _eval(node[1], x) ** node[2]
    if kind == "log":
        return math.log(_eval(node[1], x))
    raise AssertionError(kind)


def _derivative(node):
    kind = node[0]
    if kind == "num":
        return ("num", Fraction(0))
    if kind == "x":
        return ("num", Fraction(1))
    if kind in ("add", "sub"):
        return (kind, _derivative(node[1]), _derivative(node[2]))
    if kind == "neg":
        return ("neg", _derivative(node[1]))
    if kind == "mul":
        u, v = node[1], node[2]
        return ("add", ("mul", _derivative(u), v), ("mul", u, _derivative(v)))
    if kind == "div":
        u, v = node[1], node[2]
        num = ("sub", ("mul", _derivative(u), v), ("mul", u, _derivative(v)))
        return ("div", num, ("pow", v, 2))
    if kind == "pow":
        base, n = node[1], node[2]
        if n == 0:
            return ("num", Fraction(0))
        return ("mul", ("mul", ("num", Fraction(n)), ("pow", base, n - 1)), _derivative(base))
    if kind == "log":
        return ("div", _derivative(node[1]), node[1])
    raise AssertionError(kind)


# -- truncated series of an expression (degrees 0..order, Fractions) --------

def _s_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(order + 1 - i):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


def _s_recip(a, order):
    if a[0] == 0:
        raise NotASeries("division by a series vanishing at 0")
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / a[0]
    for m in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += a[i] * inv[m - i]
        inv[m] = -acc * inv[0]
    return inv


def _series(node, order):
    kind = node[0]
    zero = [Fraction(0)] * (order + 1)
    if kind == "num":
        out = list(zero)
        out[0] = Fraction(node[1])
        return out
    if kind == "x":
        out = list(zero)
        if order >= 1:
            out[1] = Fraction(1)
        return out
    if kind == "add":
        a, b = _series(node[1], order), _series(node[2], order)
        return [x + y for x, y in zip(a, b)]
    if kind == "sub":
        a, b = _series(node[1], order), _series(node[2], order)
        return [x - y for x, y in zip(a, b)]
    if kind == "neg":
        return [-x for x in _series(node[1], order)]
    if kind == "mul":
        return _s_mul(_series(node[1], order), _series(node[2], order), order)
    if kind == "div":
        return _s_mul(_series(node[1], order), _s_recip(_series(node[2], order), order), order)
    if kind == "pow":
        n = node[2]
        base = _series(node[1], order)
        if n < 0:
            base = _s_recip(base, order)
            n = -n
        out = list(zero)
        out[0] = Fraction(1)
        for _ in range(n):
            out = _s_mul(out, base, order)
        return out
    if kind == "log":
        raise NotASeries("log has no power-series expansion at 0 in this grammar")
    raise AssertionError(kind)


@dataclass(frozen=True)
class GermExpr:
    """Parsed germ formula: evaluable, differentiable, and (when the
    expression is secretly a rational function regular at 0) expandable
    into an exact jet."""

    text: str
    ast: tuple

    def func(self, x: float) -> float:
        return _eval(self.ast, x)

    __call__ = func

    def deriv(self, x: float) -> float:
        return _eval(_derivative(self.ast), x)

    def to_jet(self, order: int) -> Jet:
        s = _series(self.ast, order)
        if s[0] != 0:
            raise NotASeries(f"expression does not fix 0 (constant term {s[0]})")
        return Jet(tuple(s[1:]))

    def catalog_tag(self):
        """Tag of the catalog germ this expression matches numerically, if any."""
        samples = (0.07, 0.11, 0.16)
        for tag in ("quadratic", "moebius", "log_cubic", "loglog"):
            germ = catalog_germ(tag)
            try:
                ok = all(
                    math.isclose(self.func(x), germ.func(x), rel_tol=1e-11, abs_tol=1e-14)
                    and math.isclose(self.deriv(x), germ.deriv(x), rel_tol=1e-11, abs_tol=1e-14)
                    for x in samples
                )
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            if ok:
                return tag
        return None


def parse_expr(text: str) -> GermExpr:
    return GermExpr(text=text, ast=_Parser(text).parse())


def parse_germ(text: str):
    """Dispatch: a JSON object is a jet, anything else is an infix formula.
    Returns a :class:`Jet` or a :class:`GermExpr`."""
    stripped = text.strip()
    if stripped.startswith("{"):
        from .jets import jet_from_json

        return jet_from_json(stripped)
    return parse_expr(text)
