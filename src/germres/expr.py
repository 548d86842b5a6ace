"""Tiny infix parser for germ formulas.

Grammar (no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' signed-integer)?
    atom   := number | 'x' | 'log' '(' expr ')' | '(' expr ')'

Numbers are exact: integer or decimal literals become rationals.  A chain
of '+'/'-' or '*'/'/' becomes one n-ary node that is walked by a loop, so
the depth of the AST is bounded by the nesting of parentheses and unary
minus.  The AST supports float evaluation (with the derivative, in forward
mode), exact truncated-series expansion over the :mod:`germres.jets` kernel
(when the expression is a ratio of polynomials in disguise), and
fingerprint matching against the germ catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import jets
from .catalog import catalog_germ
from .jets import CoefficientError, Jet, OrderError


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
        return self.chain(self.term, {"+": False, "-": True}, "sum")

    def term(self):
        return self.chain(self.factor, {"*": False, "/": True}, "prod")

    def chain(self, operand, ops, kind):
        """``operand (op operand)*`` as one n-ary node (kind, head, tail), where
        tail holds (inverse, node) pairs: inverse marks '-' or '/'."""
        head = operand()
        tail = []
        while self.peek()[0] in ops:
            inverse = ops[self.take()[0]]
            tail.append((inverse, operand()))
        return (kind, head, tuple(tail)) if tail else head

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


def _compile(node):
    """Evaluator x -> float value of ``node``, built once as closures; it
    applies the same float operations in the same order as the formula."""
    kind = node[0]
    if kind == "num":
        value = float(node[1])
        return lambda x: value
    if kind == "x":
        return lambda x: x
    if kind in ("sum", "prod"):
        head = _compile(node[1])
        tail = tuple((inverse, _compile(child)) for inverse, child in node[2])
        if kind == "sum":
            def chain(x):
                acc = head(x)
                for inverse, f in tail:
                    acc = acc - f(x) if inverse else acc + f(x)
                return acc
        else:
            def chain(x):
                acc = head(x)
                for inverse, f in tail:
                    acc = acc / f(x) if inverse else acc * f(x)
                return acc
        return chain
    inner = _compile(node[1])
    if kind == "neg":
        return lambda x: -inner(x)
    if kind == "pow":
        n = node[2]
        return lambda x: inner(x) ** n
    if kind == "log":
        return lambda x: math.log(inner(x))
    raise AssertionError(kind)


def _eval_d(node, x):
    """(value, derivative) at x, by the sum, product, quotient, power and
    log rules applied in the order of the chains."""
    kind = node[0]
    if kind == "num":
        return float(node[1]), 0.0
    if kind == "x":
        return x, 1.0
    if kind in ("sum", "prod"):
        v, d = _eval_d(node[1], x)
        for inverse, child in node[2]:
            cv, cd = _eval_d(child, x)
            if kind == "sum":
                v, d = (v - cv, d - cd) if inverse else (v + cv, d + cd)
            elif inverse:
                v, d = v / cv, (d * cv - v * cd) / cv**2
            else:
                v, d = v * cv, d * cv + v * cd
        return v, d
    if kind == "neg":
        v, d = _eval_d(node[1], x)
        return -v, -d
    if kind == "pow":
        v, d = _eval_d(node[1], x)
        n = node[2]
        return v**n, (float(n) * v ** (n - 1) * d if n else 0.0)
    if kind == "log":
        v, d = _eval_d(node[1], x)
        return math.log(v), d / v
    raise AssertionError(kind)


# -- truncated series of an expression (degrees 0..order, Fractions) --------

def _recip(a, order):
    if a[0] == 0:
        raise NotASeries("division by a series vanishing at 0")
    return jets._recip(a, order)


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
    if kind == "sum":
        acc = _series(node[1], order)
        for inverse, child in node[2]:
            s = _series(child, order)
            acc = [a - b for a, b in zip(acc, s)] if inverse else [a + b for a, b in zip(acc, s)]
        return acc
    if kind == "prod":
        acc = _series(node[1], order)
        for inverse, child in node[2]:
            s = _series(child, order)
            acc = jets._mul(acc, _recip(s, order) if inverse else s, order)
        return acc
    if kind == "neg":
        return [-x for x in _series(node[1], order)]
    if kind == "pow":
        n = node[2]
        base = _series(node[1], order)
        if n < 0:
            base = _recip(base, order)
            n = -n
        out = list(zero)
        out[0] = Fraction(1)
        while n:  # square and multiply
            if n & 1:
                out = jets._mul(out, base, order)
            n >>= 1
            if n:
                base = jets._mul(base, base, order)
            jets._refuse_unprintable((*base, *out), f"power {node[2]}")
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
    _func: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_func", _compile(self.ast))

    def func(self, x: float) -> float:
        return self._func(x)

    __call__ = func

    def deriv(self, x: float) -> float:
        return _eval_d(self.ast, x)[1]

    def to_jet(self, order: int) -> Jet:
        if order < 1:
            raise OrderError(f"jet order must be at least 1, not {order}")
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
