"""Floating-point dynamics of parabolic germs on (0, x_max].

The operations here are the numeric counterparts of the exact jet algebra:

* ``szekeres_field`` -- the iterative limit (f^{n+1}(x) - f^n(x)) / Df^n(x)
  recovering the generating vector field of a contracting germ;
* ``tau`` / ``flow_map`` -- the time coordinate tau(x) = int_{x0}^x dy/X(y)
  and its inverse, giving f^t(x0) for a nonvanishing field;
* ``canonical_conjugacy`` -- h = tau_Y^{-1} o tau_X, the conjugacy between
  two one-dimensional flows, with derivative Dh = (Y o h) / X;
* ``estimate_resit`` -- the orbit-deviation estimator
  (a l^2 n^2 / log n) * (1/(a l n) - [f^n(x0)]^l) whose limit is the
  iterative residue of a contracting germ x - a x^{l+1} + ...;
* ``contour_residue`` -- the complex fixed-point residue
  (1/2 pi i) * contour integral of dz/(z - f(z));
* ``divergence_diagnostic`` -- the fit of (h(x) - x)/x^2 against log(1/x)
  that witnesses when two fields tangent to order l = 1 with different
  residues admit no twice-differentiable conjugacy; at l >= 2 the ratio
  tends to 0 whatever the residues, so the fit witnesses nothing there.

tau is computed by splitting off the Laurent part of 1/X at the flat end:
the terms y^{-(l+1)}..y^{-1} are integrated in closed form and only the
remainder goes to adaptive quadrature, in s = log y.  A black-box field's
remainder is O(1/y) (its residue need not be the one its jet gives), which
in y would make the quadrature subdivide every decade between x and x0; in
log y it is bounded.  Every field carries its exact jet at 0
(``NumericField.jet``, a rational ``FieldJet``) and is built by
``field_from_jet``: from the jet alone for a polynomial field, or from the
jet and an evaluator.  The split is computed exactly from that jet on the
jets kernel, once per field, on first use, and kept on the field itself
(``NumericField._tau_scheme``); each Laurent coefficient is rounded once.
For a polynomial field (``NumericField.polynomial``) the remainder is
assembled exactly too, without any cancellation at all.

The quadrature of tau and the root search of flow_map are the package's
own ports of QUADPACK's dqagse and of Brent's method (``germres._solvers``).
They are imported inside the functions that use them, so importing this
module (as every CLI verb does) does not load them.

Fields, germs and splits are immutable and shared; a split is built once
and never changed (a race at worst builds it twice).  The one other piece
of state is a conjugacy's memo of its last (x, h(x)) pair, which lets Dh
reuse h(x); it is a single tuple, replaced whole, so a concurrent caller
either finds a matching pair or recomputes.  Grid sweeps may therefore run
concurrently.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

from . import jets

# contract: |tau(flow_map(...)) - t| stays below this times the size (at least
# 1) of the time-coordinate values that tau subtracts, since float rounding of
# values near 0, where the coordinate grows like 1/x^ell, is proportional to it
TAU_ABS_TOL = 1e-10

# the trapezoidal rule converges geometrically here, so more points than this
# only cost memory (a list of this many complex terms, ~40 MB at this bound)
# and time (~0.8 s at this bound on a 2-vCPU Xeon VM, Python 3.11)
MAX_CONTOUR_POINTS = 1 << 20

# orbit loops run in Python; per step, on a 2-vCPU Xeon VM with Python 3.11,
# the estimate_resit loop takes ~0.08 us on `quadratic`, ~0.19 us on a
# germ_from_jet polynomial, ~0.21 us on an --expr germ and ~0.29 us on an
# increment it has to call, and the szekeres_field loop ~0.23 us (tol = 0)
# to ~0.33 us.  So this many steps take 1-3.3 s; longer orbits are refused
# before the loop starts
MAX_ORBIT_STEPS = 10**7

# an exact polynomial field's first zero is found by a Sturm search over the
# integer polynomial S times its common denominator; its cost grows steeply
# with that polynomial's degree and total bit length (a zero near 2^-b takes about b
# bisection steps, each on numbers of about degree * b bits), so longer or
# larger input is refused; within both bounds the search takes ~0.3 s at
# worst on a 2-core Xeon
MAX_POLY_DEGREE = 16
MAX_POLY_BITS = 512


class NumericsError(RuntimeError):
    """Base class for failures of the numeric engine."""


class DomainError(NumericsError):
    """Input point or germ outside the declared domain of validity."""


class ReachabilityError(NumericsError):
    """The requested flow time would push the point out of (0, x_max]."""


class ProductUnderflow(NumericsError):
    """The derivative product along the orbit left the floating range."""


class ContourError(NumericsError):
    """z - f(z) vanishes on or dangerously near the integration circle, or
    the integral overflows the floating range."""


# ---------------------------------------------------------------------------
# germ and field descriptions


@dataclass(frozen=True)
class GermSpec:
    """A closed-form real germ, evaluable with its derivative on (0, x_max].

    ``a`` is the positive magnitude of the leading higher-order
    coefficient: f(x) = x -+ a x^{ell+1} + ... with the sign fixed by
    ``orientation``.  ``increment`` returns f(x) - x; the catalog's closed
    forms compute it without cancellation, but the CLI's ``--expr`` germs
    compute f(x) - x as written, so near 0 it keeps only the absolute
    accuracy of f(x).  The orbit loop inlines an increment that
    ``_codegen`` generated and calls any other one at every step.
    ``orbit``, when present, is an exact closed form
    (x0, n) -> f^n(x0); ``jet_fn``, when present, returns the exact jet of
    the germ at a requested order.
    """

    name: str
    func: Callable[[float], float]
    deriv: Callable[[float], float]
    increment: Callable[[float], float]
    ell: int
    a: float
    orientation: str  # "contracting" | "expanding"
    x_max: float
    orbit: Optional[Callable[[float, int], float]] = None
    jet_fn: Optional[Callable[[int], object]] = None

    def is_contracting(self) -> bool:
        return self.orientation == "contracting"

    def check_point(self, x: float):
        if not 0.0 < x <= self.x_max:
            raise DomainError(f"{self.name}: point {x} outside (0, {self.x_max}]")


@dataclass(frozen=True)
class NumericField:
    """A vector field X(x) d/dx, nonvanishing on (0, x_max], flat of order
    ``ell`` at 0 with signed leading coefficient ``leading``.

    ``jet``, when present, is the field's exact jet at 0, from which the
    split of 1/X is computed (without it, only the leading term is known).
    ``polynomial`` declares that ``func`` *is* that jet as a polynomial;
    otherwise the jet only tames the quadrature near 0.  Build fields with
    ``field_from_jet``.
    """

    name: str
    func: Callable[[float], float]
    ell: int
    leading: float
    x_max: float = 1.0
    jet: Optional[jets.FieldJet] = None
    polynomial: bool = False

    def is_contracting(self) -> bool:
        return self.leading < 0

    def check_point(self, x: float):
        if not 0.0 < x <= self.x_max:
            raise DomainError(f"{self.name}: point {x} outside (0, {self.x_max}]")

    @cached_property
    def _tau_scheme(self) -> _TauScheme:
        # built on first use and stored in the instance __dict__, which a
        # frozen dataclass allows; dataclasses.replace starts a fresh one
        return _TauScheme(self)


class _Body(NamedTuple):
    """What a generated function of x computes: the assignment ``lines``,
    then ``result``.  It reads ``params`` as closure cells bound to
    ``values`` and the (name, object) pairs of ``namespace`` as globals.
    ``code`` is the function's code object, so a wrapper that copies the
    record (``functools.wraps`` does) is not taken for the function."""

    lines: tuple
    result: str
    params: tuple
    namespace: tuple
    values: tuple
    code: object


def _codegen(functions, params=(), namespace=(), args="x", filename="<germres>"):
    """Factory (*values of ``params``) -> tuple of functions, one
    ``name(args)`` per (name, lines, result) of ``functions``, that runs the
    statements ``lines`` and returns ``result``; all are compiled at once
    from one source.  The params become closure cells and ``namespace`` the
    globals, with no builtins, so no value passes through the source text.
    Each function made records its body as ``_germres_body`` (a ``_Body``),
    which the orbit loop inlines."""
    functions = tuple((name, tuple(lines), result) for name, lines, result in functions)
    source = [f"def factory({', '.join(params)}):"]
    for name, lines, result in functions:
        source += [f"    def {name}({args}):", *(f"        {line}" for line in lines), f"        return {result}"]
    source.append(f"    return {', '.join(name for name, _, _ in functions)},")
    scope = {**dict(namespace), "__builtins__": {}}
    exec(compile("\n".join(source), filename, "exec"), scope)
    factory = scope["factory"]
    params, namespace = tuple(params), tuple(namespace)

    def make(*values):
        made = factory(*values)
        for fn, (_, lines, result) in zip(made, functions):
            fn._germres_body = _Body(lines, result, params, namespace, values, fn.__code__)
        return made

    return make


def _horner(coeffs, power=0):
    """Evaluator x -> (coeffs[0] + coeffs[1] x + ...) * x**power by Horner's rule.

    Build it once and use the function itself as the evaluator, so hot
    loops pay no extra call frame.  It is straight-line code, one statement
    per coefficient, that starts from 0.0 * x + coeffs[-1] (so an infinite
    x gives nan, as a loop from acc = 0.0 would).  Multiplying by x one
    factor at a time is not the same as one multiplication by x**power in
    floating point; callers that do the former prepend one -0.0 coefficient
    per factor instead, since acc*x + -0.0 == acc*x bit for bit (use -0j for
    complex x).
    """
    return _horner_factory(len(coeffs), power)(*coeffs)[0]


@lru_cache(maxsize=64)
def _horner_factory(n, power):
    """Function (c_0, .., c_(n-1)) -> (evaluator,), generated once per
    number of coefficients and power; the coefficients become closure
    cells, so no value passes through source text."""
    lines = [f"acc = 0.0 * x + c{n - 1}" if n else "acc = 0.0"]
    lines += [f"acc = acc * x + c{i}" for i in range(n - 2, -1, -1)]
    result = f"acc * x**{int(power)}" if power else "acc"
    return _codegen([("poly", lines, result)], [f"c{i}" for i in range(n)], filename="<germres polynomial>")


def _check_span(name, m, top):
    if top - m > MAX_POLY_DEGREE:
        raise DomainError(f"{name}: the degrees span {top - m}, more than {MAX_POLY_DEGREE}")


def field_from_coeffs(name: str, coeffs: dict, x_max: float = 1.0) -> NumericField:
    """Polynomial field from exact {degree: coefficient} data."""
    exact = {int(d): Fraction(c) for d, c in coeffs.items() if c != 0}
    if not exact or min(exact) < 2:
        raise ValueError("need a nonzero polynomial with degrees >= 2")
    top = max(exact)
    _check_span(name, min(exact), top)  # before a dense list of top terms is built
    return field_from_jet(jets.FieldJet.from_dense([exact.get(d, 0) for d in range(top + 1)]), name, x_max)


def field_from_jet(X, name: str = "", x_max: float = 1.0, func=None) -> NumericField:
    """Numeric field from an exact FieldJet X, which gives ``ell`` and
    ``leading``.  With no ``func`` the field is the polynomial X (within
    MAX_POLY_DEGREE and MAX_POLY_BITS), evaluated by Horner's rule; with a
    ``func``, the field is evaluated by ``func`` and X is its jet at 0."""
    name = name or f"jet-field[{X.order}]"
    if X.carrier != jets.RATIONAL:
        X = jets.FieldJet(X.coeffs)
    m = X.leading_index
    if m is None:
        raise ValueError("zero field jet")
    polynomial = func is None
    try:
        if polynomial:
            top = max(n for n in range(m, X.order + 1) if X[n] != 0)
            _check_span(name, m, top)
            X = X.truncate(top)
            coeffs = X.dense(top)[m:]
            bits = sum(c.bit_length() for c in jets._scaled([c / coeffs[0] for c in coeffs])[0])
            if bits > MAX_POLY_BITS:
                raise DomainError(
                    f"{name}: the coefficients over a common denominator take {bits} bits, more than {MAX_POLY_BITS}"
                )
            fl = [float(c) for c in coeffs]
            func = _horner(fl, m)
        else:
            fl = [float(X[m])]
    except OverflowError:
        raise DomainError(f"{name}: a coefficient passes the float range") from None
    return NumericField(name=name, func=func, ell=m - 1, leading=fl[0], x_max=x_max, jet=X, polynomial=polynomial)


# ---------------------------------------------------------------------------
# the time coordinate tau and flows


class _TauScheme:
    """The split 1/X = (Laurent part) + (remainder) of one field.

    With S = X / (c y^(ell+1)), c the leading coefficient, and E = 1/S
    through degree ell, the Laurent part is sum_j d_j y^(-j) with
    d_(ell+1-i) = E_i / c.  Both kinds of field compute E exactly on the
    jets kernel from the coefficients c_(ell+1).. of the field's exact jet
    (its float leading term alone when it has no jet), and round each d_j
    once.  Only the remainder evaluator differs between them, as
    ``polynomial`` says.

    The remainder r is integrated in s = log y, as r(y) y ds.  For an exact
    polynomial r is bounded; a black-box remainder is only O(1/y), since a
    field computed pointwise (a fixed-depth Szekeres field is the pullback
    of f - id by f^n) carries a residue that its jet does not give.  In s
    both integrands are bounded, so the adaptive rule does not subdivide
    the decades between x and x0.  The integration runs in
    s = log(y / top), top = max(x0, x), so that no node exceeds top.

    ``zero`` is the least float at or past the first zero of an exact
    polynomial field in (0, x_max] (inf if it has none, and for black-box
    fields); tau refuses intervals that reach it.
    """

    def __init__(self, field: NumericField):
        ell = field.ell
        coeffs = [Fraction(field.leading)] if field.jet is None else field.jet.dense(field.jet.order)[ell + 1 :]
        c = coeffs[0]
        s = [ci / c for ci in coeffs]  # S, s_0 = 1
        e = jets._recip(s, ell)
        # black-box evaluators (no exact polynomial) carry float noise that
        # the quadrature cannot resolve below ~1e-11
        self.epsabs = 1e-13 if field.polynomial else 1e-11
        self.epsrel = 1e-12 if field.polynomial else 1e-9
        self.zero = _first_zero(s, field.x_max) if field.polynomial else math.inf
        try:
            self.d = {ell + 1 - i: float(ei / c) for i, ei in enumerate(e)}
            if field.polynomial:
                # U = 1 - E*S vanishes through degree ell exactly; T = U / y^{ell+1}
                u = [-v for v in jets._mul(e, s, ell + len(s) - 1)]
                u[0] += 1
                assert all(ui == 0 for ui in u[: ell + 1])
                num = _horner([float(ui) for ui in u[ell + 1 :]])
                den = _horner([float(si) for si in s])

                def remainder(y, _c=float(c)):
                    return num(y) / (_c * den(y))

            else:
                # Laurent part P(y) = sum_j d_j y^{-j}; the remainder 1/X - P
                # is bounded only if the evaluator's jet matches the field's
                # through c_{2ell+1}, which a fixed-depth Szekeres field's does not
                powers = sorted(self.d, reverse=True)

                def remainder(y, _d=self.d, _p=tuple(powers), _f=field.func):
                    u = 1.0 / y
                    p = 0.0
                    for j in _p:
                        p += _d[j] * u**j
                    return 1.0 / _f(y) - p

        except OverflowError:
            raise DomainError(f"{field.name}: a coefficient of the split of 1/X passes the float range") from None

        def integrand(s, top, _r=remainder, _exp=math.exp):
            y = top * _exp(s)
            return _r(y) * y

        self.integrand = integrand

    def antiderivative(self, y: float) -> float:
        """Closed-form integral of the Laurent part."""
        acc = 0.0
        try:
            for j, dj in self.d.items():
                if j == 1:
                    acc += dj * math.log(y)
                else:
                    acc += dj * y ** (1 - j) / (1 - j)
        except OverflowError:
            raise DomainError(f"the time coordinate at {y!r} passes the float range") from None
        return acc


def _first_zero(s, x_max: float) -> float:
    """Least float z in (0, x_max] such that the polynomial S (exact
    coefficients, ascending, S(0) = 1) vanishes somewhere in (0, z], or inf.

    By Sturm's theorem the distinct zeros of S in (0, z] number V(0) - V(z),
    V counting sign changes along the Sturm sequence; that count is exact
    on integers, and the search bisects the floats of (0, x_max] with it.
    Only signs matter, so every member is kept as a primitive integer
    polynomial (positive multiples), which bounds the coefficient growth.
    """
    if len(s) < 2:
        return math.inf
    p = jets._scaled(s)[0][::-1]  # S over its common denominator, descending
    seq = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(seq[-1]) > 1:
        r, b = list(seq[-2]), seq[-1]
        lead, sign = abs(b[0]), (1 if b[0] > 0 else -1)
        # r <- |lc b| r - sgn(lc b) r_0 b x^k until deg r < deg b: a positive
        # multiple of the remainder of seq[-2] by b
        while len(r) >= len(b):
            c = sign * r[0]
            r = [lead * ri - c * bi for ri, bi in zip(r, b + [0] * (len(r) - len(b)))][1:]
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        g = math.gcd(*r)
        seq.append([-ri // g for ri in r])

    def changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_zero = changes([q[-1] for q in seq])

    def zeros_up_to(z):
        # den^deg q * q(num/den), by homogeneous Horner
        num, den = float(z).as_integer_ratio()
        values = []
        for q in seq:
            acc, power = q[0], 1
            for ci in q[1:]:
                power *= den
                acc = acc * num + ci * power
            values.append(acc)
        return at_zero - changes(values)

    if not zeros_up_to(x_max):
        return math.inf
    lo, hi = 0.0, float(x_max)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if zeros_up_to(mid):
            hi = mid
        else:
            lo = mid


def tau(field: NumericField, x0: float, x: float) -> float:
    """Time coordinate tau(x) = int_{x0}^x dy / X(y)."""
    from ._solvers import qagse

    field.check_point(x0)
    field.check_point(x)
    if x == x0:
        return 0.0
    sch = field._tau_scheme
    top = max(x0, x)
    if top >= sch.zero:
        raise DomainError(f"{field.name}: the field vanishes at {sch.zero:.17g}, inside (0, {top}]")
    main = sch.antiderivative(x) - sch.antiderivative(x0)
    try:
        corr = qagse(sch.integrand, math.log(x0 / top), math.log(x / top), top, sch.epsabs, sch.epsrel, 200)[0]
    except ZeroDivisionError:
        raise DomainError(f"{field.name}: the field vanishes in floating point inside (0, {top}]") from None
    return main + corr


def flow_map(field: NumericField, x0: float, t: float) -> float:
    """f^t(x0) for the flow of X: the solution of tau(result) = t.

    Raises :class:`ReachabilityError` when the time-t image would leave
    (0, x_max], and :class:`DomainError` when t is not finite.
    """
    from ._solvers import brentq

    field.check_point(x0)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, not {t}")
    if t == 0.0:
        return x0
    target = float(t)
    values = {}

    def g(z):
        # each point is integrated once per call: the bracket search, the
        # ends brentq opens with and the residual at its root share values
        if z not in values:
            values[z] = tau(field, x0, z) - target
        return values[z]

    # tau is strictly monotone: decreasing for contracting fields (X < 0),
    # increasing for expanding ones.
    toward_zero = (field.is_contracting() and target > 0) or (
        not field.is_contracting() and target < 0
    )
    if toward_zero:
        # z lies between the root and x0 iff g(z) has the sign of g(x0) = -t;
        # a NaN also counts as above, so that the search goes on toward 0
        sign = -math.copysign(1.0, target)

        def above(z):
            return not g(z) * sign <= 0

        # start from the time-t image under the leading term c y^(ell+1),
        # z^-ell = x0^-ell - ell c t, and widen by factors of 2
        ell = field.ell
        try:
            z = (x0**-ell - ell * field.leading * target) ** (-1.0 / ell)
        except (OverflowError, ZeroDivisionError):
            z = x0 / 2
        if not 0.0 < z < x0:
            z = x0 / 2
        if above(z):
            lo = z
            while above(lo):
                hi, lo = lo, lo / 2
                if lo == 0.0:
                    raise ReachabilityError("bracket for the time map collapsed to 0")
        else:
            hi = z
            while not above(hi):
                lo, hi = hi, min(2 * hi, x0)
    else:
        lo, hi = x0, field.x_max
        zero = field._tau_scheme.zero
        if hi >= zero:
            # the flow approaches a zero of the field but takes infinite
            # time to reach it: halve the gap to it, as toward 0
            gap = zero - x0
            hi = zero - gap / 2
            while g(hi) * g(lo) > 0:
                gap /= 2
                hi = zero - gap / 2
                if gap <= 4 * math.ulp(zero):
                    raise ReachabilityError(
                        f"time {t} is not reached before the field vanishes at {zero:.17g}"
                    )
        elif g(hi) * g(lo) > 0:
            raise ReachabilityError(
                f"time {t} exceeds the reachable range within (0, {field.x_max}]"
            )
    root, iterations, _calls, converged = brentq(g, lo, hi, 1e-300, 4 * sys.float_info.epsilon, 100)
    if not converged:
        raise NumericsError(f"time map: the root search stopped after {iterations} iterations")

    residual = g(root)  # brentq returns a point it has evaluated
    sch = field._tau_scheme
    bound = TAU_ABS_TOL * max(1.0, abs(sch.antiderivative(x0)), abs(sch.antiderivative(root)))
    if abs(residual) > bound:
        raise NumericsError(f"time-map residual {residual:.3e} exceeds {bound:.3e}")
    return root


@dataclass(frozen=True)
class CanonicalConjugacy:
    """h = tau_Y^{-1} o tau_X with h(x0) = x0; conjugates the flow of X to
    the flow of Y.  Dh comes from the exact relation Dh = (Y o h)/X; the
    second derivative differences Dh with a relative step.

    The last pair (x, h(x)) is kept as one tuple in the instance __dict__
    (not a field, so ==, hash and repr ignore it), and ``deriv(x)`` right
    after ``h(x)`` reuses it instead of solving for h(x) again.  Replacing
    a tuple is atomic, so a concurrent caller sees a matching pair or none.
    """

    X: NumericField
    Y: NumericField
    x0: float

    def __call__(self, x: float) -> float:
        hx = flow_map(self.Y, self.x0, tau(self.X, self.x0, x))
        self.__dict__["_last"] = (x, hx)
        return hx

    def deriv(self, x: float) -> float:
        last = self.__dict__.get("_last")
        hx = last[1] if last is not None and last[0] == x else self(x)
        try:
            return self.Y.func(hx) / self.X.func(x)
        except ZeroDivisionError:
            raise DomainError(f"{self.X.name}: the field vanishes in floating point at {x!r}") from None

    def second_deriv(self, x: float, rel_step: float = 1e-4) -> float:
        dx = rel_step * x
        return (self.deriv(x + dx) - self.deriv(x - dx)) / (2 * dx)


def canonical_conjugacy(X: NumericField, Y: NumericField, x0: float) -> CanonicalConjugacy:
    if X.is_contracting() != Y.is_contracting():
        raise DomainError("fields must be both contracting or both expanding")
    X.check_point(x0)
    Y.check_point(x0)
    return CanonicalConjugacy(X=X, Y=Y, x0=x0)


# ---------------------------------------------------------------------------
# Szekeres iteration


@dataclass(frozen=True)
class SzekeresResult:
    value: float
    iterations: int
    converged: bool


def szekeres_field(germ: GermSpec, x: float, n_max: int = 100_000, tol: float = 1e-12) -> SzekeresResult:
    """Iterative limit (f^{n+1}(x) - f^n(x)) / Df^n(x) for contracting f.

    The derivative of the n-th iterate is accumulated as a running product
    of Df along the orbit.  Stops when successive values differ by less
    than ``tol``; otherwise returns the n_max value with converged=False.
    With ``tol`` not positive nothing can converge, so the loop carries
    only the orbit point and the product, and the value is divided once,
    from the last step (the fixed-depth evaluator of
    ``catalog.szekeres_numeric_field`` runs this way).  A non-finite
    ``tol`` is refused.
    """
    if not germ.is_contracting():
        raise DomainError(f"{germ.name}: szekeres_field needs a contracting germ")
    germ.check_point(x)
    if n_max < 0:
        raise DomainError(f"n_max must be at least 0, not {n_max}")
    if n_max > MAX_ORBIT_STEPS:
        raise DomainError(f"at most {MAX_ORBIT_STEPS} orbit steps, not {n_max}")
    if not math.isfinite(tol):
        raise DomainError(f"tol must be finite, not {tol}")
    increment, deriv = germ.increment, germ.deriv
    watch = tol > 0
    product = last = 1.0
    prev = step = None
    for n in range(n_max):
        step = increment(x)
        if watch:
            value = step / product
            if prev is not None and abs(value - prev) < tol:
                return SzekeresResult(value=value, iterations=n, converged=True)
            prev = value
        last = product
        product *= deriv(x)
        if not (1e-280 < abs(product) < 1e280):
            raise ProductUnderflow(
                f"derivative product left the floating range at n={n} (|P|={abs(product):.3e})"
            )
        x = x + step
    value = None if step is None else step / last
    return SzekeresResult(value=value, iterations=n_max, converged=False)


# ---------------------------------------------------------------------------
# orbit asymptotics


@dataclass(frozen=True)
class ResitEstimate:
    """Finite-n values of the orbit-deviation estimator.

    ``extrapolated`` removes the leading 1/log(n) correction using the two
    largest samples; ``converged`` is the (coarse) heuristic that the last
    two samples differ by less than 0.05.
    """

    samples: tuple
    extrapolated: float
    converged: bool
    x0: float


# the increment of a germ whose increment records no body: one call per step
_CALL_INCREMENT = _Body((), "_inc(x)", ("_inc",), (), (), None)


@lru_cache(maxsize=64)
def _orbit_kernel(lines, result, params, namespace):
    """Factory (*values of ``params``) -> (orbit,), where orbit(x, _c, _m)
    runs _m compensated steps x <- x + (f(x) - x), _c carrying the
    compensation, and returns (x, _c).  The increment's body (``lines``
    then ``result``) is inlined, so a step makes no call.  Generated once
    per body; body locals must not start with an underscore."""
    step = [
        "for _ in _repeat(None, _m):",
        *(f"    {line}" for line in lines),
        f"    _d = ({result}) - _c",
        "    _s = x + _d",
        "    _c = (_s - x) - _d",
        "    x = _s",
    ]
    namespace += (("_repeat", repeat),)
    return _codegen([("orbit", step, "x, _c")], params, namespace, args="x, _c, _m", filename="<germres orbit>")


def _orbit_values(germ: GermSpec, x0: float, ns: Sequence[int]):
    """{n: f^n(x0)} for the orbit lengths ``ns`` (n >= 0, any order,
    repeats allowed), by one compensated loop over the sorted lengths.

    The pair (x, comp) carries the running sum to about twice float
    precision, so each checkpoint is the float nearest that sum; no wider
    accumulator changes it.  A generated increment (``_codegen``) is
    inlined into the loop; any other callable, a wrapper of a generated
    one included, is called once per step."""
    if germ.orbit is not None:
        return {n: float(germ.orbit(x0, n)) for n in ns}
    ns = sorted(set(ns))
    if ns[-1] > MAX_ORBIT_STEPS:
        raise DomainError(f"at most {MAX_ORBIT_STEPS} orbit steps, not {ns[-1]}")
    inc = germ.increment
    body = getattr(inc, "_germres_body", None)
    if body is None or body.code is not getattr(inc, "__code__", None):
        body = _CALL_INCREMENT._replace(values=(inc,))
    orbit, = _orbit_kernel(*body[:4])(*body.values)
    x, comp = float(x0), 0.0
    out = {}
    k = 0
    for n in ns:
        x, comp = orbit(x, comp, n - k)
        out[n] = x
        k = n
    return out


def _check_orbit_germ(germ: GermSpec, x0: float):
    """The precondition of the orbit asymptotics f^n(x0) ~ (a ell n)^(-1/ell):
    a contracting germ, x0 in its domain, ell >= 1 and a finite and positive."""
    if not germ.is_contracting():
        raise DomainError(f"{germ.name}: estimator needs a contracting germ")
    germ.check_point(x0)
    if germ.ell < 1:
        raise DomainError(f"flatness order ell must be at least 1, not {germ.ell}")
    if not (math.isfinite(germ.a) and germ.a > 0):
        raise DomainError(f"leading magnitude a must be finite and positive, not {germ.a}")


def estimate_resit(germ: GermSpec, x0: float, schedule: Sequence[int]) -> ResitEstimate:
    """Orbit-deviation estimator of the iterative residue of a contracting
    germ f = x - a x^{ell+1} + ... :

        est(n) = (a ell^2 n^2 / log n) * ( 1/(a ell n) - [f^n(x0)]^ell ).

    ``ell`` and ``a`` are the germ's; to estimate with other values, pass
    ``dataclasses.replace(germ, ell=..., a=...)``.  The convergence is
    O(1/log n); the estimator is meant for qualitative bands, not tight
    tolerances.
    """
    _check_orbit_germ(germ, x0)
    ell, a = germ.ell, germ.a
    ns = sorted(set(int(n) for n in schedule))
    if not ns or ns[0] <= 1:
        raise DomainError("schedule entries must be integers > 1 (log n degenerates)")
    orbit = _orbit_values(germ, x0, ns)
    samples = []
    for n in ns:
        xn = orbit[n]
        est = (a * ell**2 * n**2 / math.log(n)) * (1.0 / (a * ell * n) - xn**ell)
        if not math.isfinite(est):
            raise DomainError(f"the estimate at n={n} is not finite ({est!r}); check a={a!r} and ell={ell}")
        samples.append((n, est))
    if len(samples) >= 2:
        (n1, e1), (n2, e2) = samples[-2], samples[-1]
        h1, h2 = 1.0 / math.log(n1), 1.0 / math.log(n2)
        extrapolated = e2 - (e1 - e2) * h2 / (h1 - h2)
        converged = abs(e2 - e1) < 0.05
    else:
        extrapolated = samples[-1][1]
        converged = False
    return ResitEstimate(
        samples=tuple(samples), extrapolated=extrapolated, converged=converged, x0=x0
    )


@dataclass(frozen=True)
class OrbitBoundReport:
    """Checkpoints of a ell n [f^n]^ell along the orbit plus the fitted
    bracketing constants: D with f^n >= 1/(n + D)-type lower control and
    D' with f^n <= 1/(n + D' log n)-type upper control (both in the
    u_n = 1/(a ell [f^n]^ell) normalization)."""

    samples: tuple
    final_ratio: float
    D: float
    D_prime: float
    asymptotic_ok: bool
    tolerance: float


def orbit_bound_check(germ: GermSpec, x0: float, n_max: int) -> OrbitBoundReport:
    """Verify a ell n [f^n(x0)]^ell -> 1 and fit the bracketing constants."""
    _check_orbit_germ(germ, x0)
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, not {n_max}")
    ell, a = germ.ell, germ.a
    checkpoints = []
    n = 1
    while n < n_max:
        checkpoints.append(n)
        n *= 10
    checkpoints.append(n_max)

    samples = []
    D = -math.inf
    D_prime = math.inf
    values = _orbit_values(germ, x0, checkpoints)
    for n in checkpoints:
        xn = values[n]
        ratio = a * ell * n * xn**ell
        scale = a * ell * xn**ell
        u = 1.0 / scale if scale else math.inf
        if not (math.isfinite(ratio) and math.isfinite(u)):
            raise DomainError(
                f"the orbit sample at n={n} is not finite: a*ell*n*x_n^ell = {ratio!r}, u_n = {u!r}"
            )
        samples.append((n, ratio))
        D = max(D, u - n)
        if n >= 2:
            D_prime = min(D_prime, (u - n) / math.log(n))
    final = samples[-1][1]
    tol = 20.0 * math.log(n_max) / n_max + 1e-9
    return OrbitBoundReport(
        samples=tuple(samples),
        final_ratio=final,
        D=D,
        D_prime=D_prime,
        asymptotic_ok=abs(final - 1.0) <= tol,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# complex contour residue


def contour_residue(f: Callable[[complex], complex], radius: float, points: int = 256) -> complex:
    """(1/2 pi i) * integral over |z| = radius of dz / (z - f(z)), by the
    trapezoidal rule on equispaced points (spectrally accurate here), with
    the real and imaginary parts of the sum each rounded once (math.fsum)."""
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be finite and positive, not {radius}")
    if points < 8:
        raise DomainError("need at least 8 sample points")
    if points > MAX_CONTOUR_POINTS:
        raise DomainError(f"at most {MAX_CONTOUR_POINTS} sample points, not {points}")
    small, terms = 1e-12 * radius, []
    try:
        for k in range(points):
            z = cmath.rect(radius, 2.0 * math.pi * k / points)
            w = z - f(z)
            if abs(w) < small:
                raise ContourError("z - f(z) vanishes on or near the contour")
            terms.append(z / w)
        value = complex(math.fsum(q.real for q in terms), math.fsum(q.imag for q in terms)) / points
    except (OverflowError, ZeroDivisionError):  # abs(w), f(z) or z / w left the float range
        value = cmath.nan
    if not cmath.isfinite(value):
        raise ContourError(f"the contour integral is not finite at radius {radius}")
    return value


# ---------------------------------------------------------------------------
# divergence diagnostic


@dataclass(frozen=True)
class SlopeReport:
    """Least-squares fit of (h(x) - x)/x^2 against log(1/x); it witnesses
    differing residues only for fields tangent to order ell = 1."""

    slope: float
    intercept: float
    correlation: float
    points: tuple
    max_abs_ratio: float


def divergence_diagnostic(
    X: NumericField, Y: NumericField, grid: Sequence[float], x0: Optional[float] = None
) -> SlopeReport:
    """Fit the growth of (h(x) - x)/x^2 for the canonical conjugacy h between
    X and Y, by closed-form least squares on centred sums.  At ell = 1 a slope
    of order one against log(1/x) witnesses differing residues (h is then not
    twice differentiable at 0) and equal residues leave the ratio bounded; at
    ell >= 2 the ratio tends to 0 whatever the residues, so it witnesses nothing."""
    xs = sorted(set(float(g) for g in grid), reverse=True)
    if len(xs) < 2:
        raise DomainError("need at least two grid points")
    h = canonical_conjugacy(X, Y, max(xs) if x0 is None else x0)
    us, vs = [], []
    for x in xs:
        if x * x == 0.0:
            raise DomainError(f"grid point {x!r} squares to 0 in floating point")
        vs.append((h(x) - x) / x**2)
        us.append(math.log(1.0 / x))
    mu, mv = math.fsum(us) / len(us), math.fsum(vs) / len(vs)
    du, dv = [u - mu for u in us], [v - mv for v in vs]
    suu, suv, svv = (math.fsum(map(operator.mul, p, q)) for p, q in ((du, du), (du, dv), (dv, dv)))
    if suu == 0.0:
        raise DomainError("the grid points' values of log(1/x) all coincide")
    slope, v0 = suv / suu, vs[0]
    if all(v == v0 or abs(v - v0) <= 1e-12 + 1e-5 * abs(v0) for v in vs):  # numpy.allclose
        corr = 0.0
    else:
        corr = max(-1.0, min(1.0, suv / math.sqrt(suu) / math.sqrt(svv)))
    return SlopeReport(slope, mv - slope * mu, corr, tuple(zip(xs, vs)), max(map(abs, vs)))
