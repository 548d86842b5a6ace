"""Catalog of the closed-form germs and fields used throughout the package.

Germs:

* ``quadratic``            f(x) = x - x^2            (contracting, resit 1)
* ``moebius``              g(x) = x/(1+x)            (contracting, resit 0)
* ``ramified_flow(l, t)``  x / (1 + t x^l)^(1/l)     (time-t of a flow; resit 0)
* ``log_cubic``            h(x) = x + x^2 + x^3 log x          (expanding)
* ``loglog``               h(x) = x + x^2 log(log(1/x))        (expanding)

The last is stated elsewhere as x + x^2 log(log x), which is undefined over
the reals for small x (log x < 0); the log(1/x) form used here has the same
asymptotics and a real domain.  Both ``log_cubic`` and ``loglog`` exist as
conjugators: pulling back X(x) = x^2 along them produces the fields
``pullback_log_cubic`` / ``pullback_loglog`` whose time-1 maps bound the
regularity of conjugacies (the field stays smooth to one order less than
naive counting suggests).

Fields: ``neg_x2`` (-x^2), ``neg_2x2`` (-2x^2), ``neg_x2_x3`` (-x^2 - x^3),
``neg_x3`` (-x^3), ``x2`` (x^2), plus ``szekeres_numeric_field`` for turning
a contracting germ into its generating field by a fixed-depth iteration.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .jets import CoefficientError, FieldJet, Jet, OrderError, read_rational
from .normal_form import tangency_order
from .numerics import DomainError, GermSpec, NumericField, _codegen, _horner, _shown, _szekeres_kernel
from .numerics import field_from_coeffs, field_from_jet


def _quadratic_jet(order: int) -> Jet:
    if order < 2:
        raise ValueError("order must be >= 2")
    return Jet((1, -1) + (0,) * (order - 2))


def _moebius_jet(order: int) -> Jet:
    # x/(1+x) = x - x^2 + x^3 - ...
    return Jet(tuple(Fraction((-1) ** (n + 1)) for n in range(1, order + 1)))


def _ramified_jet(ell: int, t: Fraction, order: int) -> Jet:
    # x (1 + t x^ell)^(-1/ell) expanded by the binomial series
    if order < 1:
        raise OrderError(f"jet order must be at least 1, not {order}")
    dense = [0, 1] + [0] * (order - 1)
    q = Fraction(-1, ell)
    binom = Fraction(1)
    k = 0
    while (k + 1) * ell + 1 <= order:
        binom = binom * (q - k) / (k + 1)
        k += 1
        dense[k * ell + 1] = binom * t**k
    return Jet.from_dense(dense)


# generated, so that the orbit loop inlines it
_quadratic_increment, = _codegen([("increment", (), "-x * x")])()


def quadratic() -> GermSpec:
    return GermSpec(
        name="quadratic",
        func=lambda x: x - x * x,
        deriv=lambda x: 1.0 - 2.0 * x,
        increment=_quadratic_increment,
        ell=1,
        a=1.0,
        orientation="contracting",
        x_max=0.5,
        orbit=None,
        jet_fn=_quadratic_jet,
    )


def moebius() -> GermSpec:
    return GermSpec(
        name="moebius",
        func=lambda x: x / (1.0 + x),
        deriv=lambda x: 1.0 / (1.0 + x) ** 2,
        increment=lambda x: -x * x / (1.0 + x),
        ell=1,
        a=1.0,
        orientation="contracting",
        x_max=1.0,
        orbit=lambda x0, n: x0 / (1.0 + n * x0),
        jet_fn=_moebius_jet,
    )


def ramified_flow(ell: int, t=1) -> GermSpec:
    """Time-t map x / (1 + t x^ell)^(1/ell) of the order-ell ramified affine
    flow; contracting for t > 0, with leading coefficient magnitude t/ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    t = Fraction(t)
    if t <= 0:
        raise ValueError("only contracting times t > 0 are catalogued")
    tf = float(t)

    def func(x):
        return x * math.exp(-math.log1p(tf * x**ell) / ell)

    def deriv(x):
        return math.exp(-(1.0 + 1.0 / ell) * math.log1p(tf * x**ell))

    def increment(x):
        return x * math.expm1(-math.log1p(tf * x**ell) / ell)

    def orbit(x0, n):
        return x0 * math.exp(-math.log1p(n * tf * x0**ell) / ell)

    return GermSpec(
        name=f"ramified_flow_{ell}_{t}",
        func=func,
        deriv=deriv,
        increment=increment,
        ell=ell,
        a=tf / ell,
        orientation="contracting",
        x_max=1.0,
        orbit=orbit,
        jet_fn=lambda order: _ramified_jet(ell, t, order),
    )


def log_cubic() -> GermSpec:
    """h(x) = x + x^2 + x^3 log x: a twice- but not three-times-
    differentiable conjugator."""
    return GermSpec(
        name="log_cubic",
        func=lambda x: x + x * x + x**3 * math.log(x),
        deriv=lambda x: 1.0 + 2.0 * x + 3.0 * x * x * math.log(x) + x * x,
        increment=lambda x: x * x + x**3 * math.log(x),
        ell=1,
        a=1.0,
        orientation="expanding",
        x_max=0.2,
    )


def loglog() -> GermSpec:
    """h(x) = x + x^2 log(log(1/x)): a C^1 but not C^2 conjugator."""

    def ll(x):
        return math.log(math.log(1.0 / x))

    return GermSpec(
        name="loglog",
        func=lambda x: x + x * x * ll(x),
        deriv=lambda x: 1.0 + 2.0 * x * ll(x) - x / math.log(1.0 / x),
        increment=lambda x: x * x * ll(x),
        ell=1,
        a=1.0,
        orientation="expanding",
        x_max=0.2,
    )


def germ_from_jet(jet: Jet, x_max: float = 0.4, name: str = "",
                  func=None, deriv=None, increment=None) -> GermSpec:
    """Numeric germ built around an exact polynomial jet.

    Flatness order, leading magnitude and orientation come from the exact
    coefficients.  By default the evaluators are Horner forms of the jet
    itself; pass ``func``/``deriv``/``increment`` when the jet is the
    truncation of a richer closed form that should stay the evaluator.
    The declared interval (0, x_max] is swept once to confirm the germ
    stays monotone and on one side of the identity there.
    """
    tc = tangency_order(jet)
    if not tc.exact:
        raise DomainError("the jet is the identity at this order; no leading term")
    ell = tc.ell
    lead = jet[ell + 1]
    try:
        fl = [float(c) for c in jet.coeffs]
    except OverflowError:
        raise CoefficientError("a coefficient of the jet passes the float range (about 1.8e308)") from None

    if func is None:
        func = _horner([-0.0] + fl)  # (...) * x
    if deriv is None:
        deriv = _horner([n * c for n, c in enumerate(fl, start=1)])
    if increment is None:
        increment = _horner([-0.0, -0.0] + fl[1:])  # (...) * x * x

    # 25 points in geometric progression from 1e-6 to x_max, both ends exact
    contracting = lead < 0
    for x in [1e-6 * (x_max / 1e-6) ** (k / 24) for k in range(24)] + [x_max]:
        if deriv(x) <= 0.0:
            raise DomainError(f"Df vanishes on (0, {x_max}] (at x={x:.3g}); shrink x_max")
        inc = increment(x)
        if (inc >= 0.0) if contracting else (inc <= 0.0):
            raise DomainError(f"germ crosses the identity on (0, {x_max}] (at x={x:.3g})")

    def jet_fn(order, _jet=jet):
        return _jet.pad(order) if order > _jet.order else _jet.truncate(order)

    return GermSpec(
        name=name or f"poly[{jet}]",
        func=func,
        deriv=deriv,
        increment=increment,
        ell=ell,
        a=abs(float(lead)),
        orientation="contracting" if contracting else "expanding",
        x_max=x_max,
        jet_fn=jet_fn,
    )


_GERM_BUILDERS = {
    "quadratic": quadratic,
    "moebius": moebius,
    "log_cubic": log_cubic,
    "loglog": loglog,
}


def catalog_germ(tag: str) -> GermSpec:
    """Look up a germ by tag; ``ramified_flow_<ell>_<t>`` takes parameters
    (t may be a fraction like 1/2)."""
    if tag in _GERM_BUILDERS:
        return _GERM_BUILDERS[tag]()
    if tag.startswith("ramified_flow_"):
        rest = tag[len("ramified_flow_") :]
        parts = rest.split("_", 1)
        if len(parts) == 2:
            return ramified_flow(int(parts[0]), read_rational(parts[1]))
    raise KeyError(f"unknown catalog germ {tag!r}")


# ---------------------------------------------------------------------------
# fields


def pullback_numeric_field(h: GermSpec, X: NumericField, name: str = "") -> NumericField:
    """Transport of X along h: Y(x) = X(h(x)) / Dh(x).  The flow of Y is
    h^{-1} o (flow of X) o h.  For parabolic h the flatness order and
    leading coefficient are unchanged; that leading term is Y's jet."""

    def func(x):
        return X.func(h.func(x)) / h.deriv(x)

    lead = FieldJet.from_dense([0] * (X.ell + 1) + [Fraction(X.leading)])
    return field_from_jet(lead, name or f"{h.name}*{X.name}", min(h.x_max, X.x_max), func)


def szekeres_numeric_field(germ: GermSpec, n: int = 10_000) -> NumericField:
    """Generating field of a contracting germ, evaluated pointwise by a
    fixed-depth Szekeres iteration (fixed n keeps the evaluator smooth in
    x, which the quadrature relies on); its jet is the generating field of
    the germ's exact (2 ell + 1)-jet, or without one its leading term.  The
    germ must be contracting and the depth ``n`` from 1 to MAX_ORBIT_STEPS;
    both are checked here, before any evaluation."""
    if n < 1:
        raise DomainError(f"the Szekeres depth n must be at least 1, not {_shown(n)}")
    func = _szekeres_kernel(germ, n)
    if germ.jet_fn is None:
        X = FieldJet.from_dense([0] * (germ.ell + 1) + [-Fraction(germ.a)])
    else:
        from .flows import germ_to_field

        X = germ_to_field(germ.jet_fn(2 * germ.ell + 1))
    return field_from_jet(X, f"szekeres[{germ.name}]", germ.x_max, func)


def catalog_field(tag: str) -> NumericField:
    if tag == "neg_x2":
        return field_from_coeffs("neg_x2", {2: -1})
    if tag == "neg_2x2":
        return field_from_coeffs("neg_2x2", {2: -2})
    if tag == "neg_x2_x3":
        return field_from_coeffs("neg_x2_x3", {2: -1, 3: -1})
    if tag == "neg_x3":
        return field_from_coeffs("neg_x3", {3: -1})
    if tag == "x2":
        return field_from_coeffs("x2", {2: 1}, x_max=0.5)
    if tag == "pullback_log_cubic":
        return pullback_numeric_field(log_cubic(), catalog_field("x2"), name="pullback_log_cubic")
    if tag == "pullback_loglog":
        return pullback_numeric_field(loglog(), catalog_field("x2"), name="pullback_loglog")
    if tag == "quadratic_szekeres":
        return szekeres_numeric_field(quadratic())
    raise KeyError(f"unknown catalog field {tag!r}")

