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

Float evaluation runs Python code generated once per formula by
``numerics._codegen``.  One walk of the AST emits a flat list of
assignments ``t3 = t1 * t2``, in the order the chains give: for each
operation, a value statement, then a derivative statement by the sum,
product, quotient, power and log rules applied literally (no algebraic
simplification), so signed zeros and exceptions are those of the rules.
``derivative(x)`` runs every statement; ``value(x)`` runs the value
statements only, and ``increment(x)`` runs them with ``- x`` applied to
the result, the same float operation as ``value(x) - x``; the orbit and
Szekeres loops of ``numerics`` inline that body.
Being flat, the source stays within the compiler's limits at any nesting
the parser allows.  No text of the formula reaches it: the only pieces are
``repr(float(c))`` of each literal c, ``repr`` of integer exponents, the
parameter ``x``, numbered locals, the operators ``+ - * / **`` and
``math.log``, which the generated code sees as ``_log`` in a namespace
without builtins.  The three are generated from one source in one
``compile``, which costs about 0.1 ms for a formula of a few operations,
plus about 20 us and a few KB of transient memory per operation of the
AST (2-vCPU Xeon VM, Python 3.11), once per formula and only when a float
evaluator is first used; each call then costs about 0.1 us per operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import jets, numerics
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


def _literal(value: Fraction, what: str) -> str:
    """Source text of ``float(value)``: its shortest round-trip repr."""
    try:
        return repr(float(value))
    except OverflowError:
        raise CoefficientError(f"{what} of the formula passes the float range (about 1.8e308)") from None


_OPERATORS = {("sum", False): "+", ("sum", True): "-", ("prod", False): "*", ("prod", True): "/"}

# the globals of the generated functions (no builtins)
_NAMESPACE = (("_log", math.log),)


class _Emitter:
    """Flat function body: one assignment to a fresh local per operation.
    ``values`` holds those of ``lines`` that compute a value."""

    def __init__(self):
        self.lines = []
        self.values = []

    def emit(self, expression: str, value=False) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        if value:
            self.values.append(self.lines[-1])
        return name

    def walk(self, node):
        """Operand texts (value, derivative) of ``node``, emitting each
        operation's value statement and then its derivative statement."""
        kind = node[0]
        if kind == "num":
            return _literal(node[1], "a literal"), "0.0"
        if kind == "x":
            return "x", "1.0"
        if kind in ("sum", "prod"):
            v, d = self.walk(node[1])
            for inverse, child in node[2]:
                cv, cd = self.walk(child)
                op = _OPERATORS[kind, inverse]
                w = self.emit(f"{v} {op} {cv}", value=True)
                if kind == "sum":
                    d = self.emit(f"{d} {op} {cd}")
                elif inverse:
                    d = self.emit(f"({d} * {cv} - {v} * {cd}) / {cv} ** 2")
                else:
                    d = self.emit(f"{d} * {cv} + {v} * {cd}")
                v = w
            return v, d
        if kind == "neg":
            v, d = self.walk(node[1])
            return self.emit(f"-{v}", value=True), self.emit(f"-{d}")
        if kind == "pow":
            v, d = self.walk(node[1])
            n = node[2]
            power = self.emit(f"{v} ** {n!r}", value=True)
            if not n:
                return power, "0.0"
            factor = _literal(n, "an exponent")
            return power, self.emit(f"{factor} * {v} ** {n - 1!r} * {d}")
        if kind == "log":
            v, d = self.walk(node[1])
            return self.emit(f"_log({v})", value=True), self.emit(f"{d} / {v}")
        raise AssertionError(kind)


def _generate(ast):
    """(value, derivative, increment) functions of ``x`` for a parsed
    formula, generated flat from one walk (see the module docstring) and
    compiled from one source."""
    body = _Emitter()
    result, derivative = body.walk(ast)
    functions = [
        ("value", body.values, result),
        ("derivative", body.lines, derivative),
        ("increment", body.values, f"{result} - x"),
    ]
    return numerics._codegen(functions, namespace=_NAMESPACE, filename="<germres formula>")()


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


class _Generated:
    """``GermExpr.func`` / ``deriv`` / ``increment``: read on an instance,
    the generated function itself, built on first use, so callers bind it
    once and pay no method frame per call.  Called on the class, as ``GermExpr.func(e, x)``,
    it evaluates like a method, so a wrapper installed on the class (the
    counting tracer of ``perfbench``) still sees every call made through
    the attribute."""

    def __init__(self, index):
        self.index = index

    def __get__(self, instance, owner=None):
        return self if instance is None else instance._generated[self.index]

    def __call__(self, instance, x):
        return instance._generated[self.index](x)


@dataclass(frozen=True)
class GermExpr:
    """Parsed germ formula: evaluable, differentiable, and (when the
    expression is secretly a rational function regular at 0) expandable
    into an exact jet.  The float evaluators are generated on first use,
    so the exact verbs never convert a literal to a float."""

    text: str
    ast: tuple

    @cached_property
    def _generated(self):
        # stored in the instance __dict__, which a frozen dataclass allows
        return _generate(self.ast)

    func = _Generated(0)
    __call__ = func
    deriv = _Generated(1)
    increment = _Generated(2)

    def to_jet(self, order: int) -> Jet:
        if order < 1:
            raise OrderError(f"jet order must be at least 1, not {order}")
        s = _series(self.ast, order)
        if s[0] != 0:
            raise NotASeries(f"expression does not fix 0 (constant term {s[0]})")
        return Jet.from_dense(s)

    def catalog_tag(self):
        """Tag of the catalog germ this expression matches numerically, if any."""
        samples = (0.07, 0.11, 0.16)
        func, deriv = self.func, self.deriv
        for tag in ("quadratic", "moebius", "log_cubic", "loglog"):
            germ = catalog_germ(tag)
            try:
                ok = all(
                    math.isclose(func(x), germ.func(x), rel_tol=1e-11, abs_tol=1e-14)
                    and math.isclose(deriv(x), germ.deriv(x), rel_tol=1e-11, abs_tol=1e-14)
                    for x in samples
                )
            except CoefficientError:
                raise  # a literal past the float range: no evaluator at all
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
