"""Numeric dynamics: time maps, Szekeres iteration, orbit estimator,
contour residues, conjugacies, diagnostics."""

import argparse
import cmath
import dataclasses
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from germres import (
    FieldJet,
    GermSpec,
    Jet,
    canonical_conjugacy,
    catalog_field,
    contour_residue,
    divergence_diagnostic,
    estimate_resit,
    field_from_coeffs,
    field_from_jet,
    flow_map,
    germ_to_field,
    moebius,
    orbit_bound_check,
    quadratic,
    ramified_flow,
    reduce_germ,
    szekeres_field,
    tau,
)
from germres import numerics
from germres.catalog import szekeres_numeric_field
from germres.numerics import (
    MAX_CONTOUR_POINTS,
    MAX_ORBIT_STEPS,
    MAX_POLY_BITS,
    MAX_POLY_DEGREE,
    ContourError,
    DomainError,
    NumericField,
    ProductUnderflow,
    ReachabilityError,
    _horner,
)

from helpers import (
    counting,
    reference_contour_residue,
    reference_fit,
    reference_flow_map,
    reference_orbit_values,
    reference_szekeres,
    reference_szekeres_evaluator,
    with_reference_split,
)


# -- time maps ----------------------------------------------------------------


def test_flow_map_exact_moebius_solution():
    X = catalog_field("neg_x2")
    for x0 in (0.5, 0.3, 0.1):
        for t in (0.25, 1.0, 3.0, 10.0):
            exact = x0 / (1.0 + t * x0)
            assert abs(flow_map(X, x0, t) - exact) < 1e-9


def test_flow_map_time_zero():
    X = catalog_field("neg_x2")
    assert flow_map(X, 0.37, 0.0) == 0.37


def test_flow_map_cubic_field():
    # dx/dt = -x^3 solves to x/(1 + 2 t x^2)^(1/2)
    X = catalog_field("neg_x3")
    x0, t = 0.5, 1.0
    exact = 1.0 / math.sqrt(1.0 / x0**2 + 2.0 * t)
    assert abs(flow_map(X, x0, t) - exact) < 1e-9


def test_flow_map_negative_time_and_reachability():
    X = catalog_field("neg_x2")
    back = flow_map(X, 0.25, -1.0)
    assert abs(back - 0.25 / (1 - 0.25)) < 1e-9
    with pytest.raises(ReachabilityError):
        flow_map(X, 0.5, -10.0)  # would exit (0, 1]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_map_refuses_a_time_that_is_not_finite(t):
    for name in ("neg_x2", "x2"):
        with pytest.raises(DomainError, match="time must be finite"):
            flow_map(catalog_field(name), 0.25, t)


HUGE = 10**400  # an int past the float range, which math.isfinite cannot take


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: flow_map(catalog_field("neg_x2"), 0.25, HUGE), "time must be finite"),
        (lambda: szekeres_field(moebius(), 0.1, tol=HUGE), "tol must be finite"),
        (lambda: estimate_resit(dataclasses.replace(moebius(), a=HUGE), 0.1, [10, 100]), "a must be finite"),
        (lambda: orbit_bound_check(dataclasses.replace(moebius(), a=HUGE), 0.1, 100), "a must be finite"),
        (lambda: contour_residue(lambda z: z - z * z, HUGE), "radius must be finite"),
        # past 4300 digits str() of an int raises: the message names its bits
        (lambda: flow_map(catalog_field("neg_x2"), 0.1, 10**5000), "time must be finite, not an int of 16610 bits"),
        (lambda: szekeres_field(moebius(), 0.1, tol=10**5000), "tol must be finite, not an int of 16610 bits"),
        (
            lambda: estimate_resit(dataclasses.replace(moebius(), a=10**5000), 0.5, [10, 100]),
            "a must be finite and positive, not an int of 16610 bits",
        ),
        (lambda: contour_residue(lambda z: z - z * z, -10**5000), "positive, not a negative int of 16610 bits"),
    ],
    ids=[
        "flow_map", "szekeres_field", "estimate_resit", "orbit_bound_check", "contour_residue",
        "flow_map_5000_digits", "szekeres_field_5000_digits", "estimate_resit_5000_digits",
        "contour_residue_5000_digits",
    ],
)
def test_a_huge_int_is_refused_as_out_of_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_a_refused_count_past_4300_digits_is_named_by_its_bits():
    big = 10**5000
    cases = [
        (lambda: szekeres_field(quadratic(), 0.1, n_max=big), "orbit steps, not an int of 16610 bits"),
        (lambda: szekeres_field(quadratic(), 0.1, n_max=-big), "at least 0, not a negative int of 16610 bits"),
        (lambda: szekeres_numeric_field(quadratic(), -big), "at least 1, not a negative int of 16610 bits"),
        (lambda: estimate_resit(quadratic(), 0.1, [10, big]), "orbit steps, not an int of 16610 bits"),
        (
            lambda: estimate_resit(dataclasses.replace(quadratic(), ell=-big), 0.1, [10]),
            "ell must be at least 1, not a negative int of 16610 bits",
        ),
        (lambda: orbit_bound_check(quadratic(), 0.1, -big), "at least 1, not a negative int of 16610 bits"),
        (lambda: contour_residue(lambda z: z - z * z, 0.1, points=big), "sample points, not an int of 16610 bits"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError, match=message):
            call()


def test_tau_residual_contract():
    for tag in ("neg_x2", "neg_x2_x3", "neg_x3"):
        X = catalog_field(tag)
        for x0 in (0.4, 0.2):
            for t in (0.5, 2.0, 17.0):
                z = flow_map(X, x0, t)
                assert abs(tau(X, x0, z) - t) < 1e-10


def test_tau_against_high_precision_quadrature():
    # independent oracle: 40-digit adaptive quadrature of 1/X, no split-off
    import mpmath

    mpmath.mp.dps = 40
    # an ell = 3 polynomial field; -y^4 (1 - y/2 + y^2/3) has no zero for y > 0
    ell3 = field_from_coeffs("ell3", {4: -1, 5: F(1, 2), 6: F(-1, 3)})
    # a black-box field whose jet is complete through c_{2 ell + 1}
    black_box = NumericField(name="bb", func=lambda y: -(y**2) - y**3, ell=1, leading=-1.0, jet=FieldJet.of(-1, -1))
    cases = [
        (catalog_field("neg_x2_x3"), lambda y: 1 / (-(y**2) - y**3), 1e-12, (0.4, 0.01), (0.3, 1e-4)),
        (catalog_field("neg_x3"), lambda y: -1 / y**3, 1e-12, (0.5, 0.02), (0.3, 1e-3)),
        (ell3, lambda y: 1 / (-(y**4) + y**5 / 2 - y**6 / 3), 1e-12, (0.5, 0.05), (0.3, 1e-2)),
        # black-box quadrature tolerance (epsrel 1e-9)
        (black_box, lambda y: 1 / (-(y**2) - y**3), 1e-9, (0.4, 0.01), (0.3, 1e-4)),
    ]
    for X, integrand, rel, *pairs in cases:
        for x0, x in pairs:
            ours = tau(X, x0, x)
            pts = sorted({x0, x, 1e-2, 1e-3}, reverse=x < x0)
            pts = [p for p in pts if min(x0, x) <= p <= max(x0, x)]
            ref = float(mpmath.quad(integrand, pts))
            assert abs(ours - ref) <= rel * max(1.0, abs(ref))


def test_tau_split_built_once_per_field(monkeypatch):
    built, init = [], numerics._FormalTime.__init__

    def counted(self, field):
        built.append(field)
        init(self, field)

    monkeypatch.setattr(numerics._FormalTime, "__init__", counted)
    X = NumericField(name="bb", func=lambda y: -(y**2) - y**3, ell=1, leading=-1.0, jet=FieldJet.of(-1, -1))
    split = X._formal_time
    assert split.d == {2: -1.0, 1: 1.0}  # 1/X = -1/y^2 + 1/y - 1 + ...
    tau(X, 0.4, 0.01)
    assert X._formal_time is split
    # a replaced evaluator gets a split of its own and is the one integrated
    Y = dataclasses.replace(X, func=lambda y: -(y**2) - 2 * y**3)
    assert Y._formal_time is not split
    # 1/(y^2 (1 + 2y)) = 1/y^2 - 2/y + 4/(1 + 2y)
    ref = 1 / 0.01 - 1 / 0.4 + 2 * math.log(0.01 / 0.4 * (1 + 2 * 0.4) / (1 + 2 * 0.01))
    assert abs(tau(Y, 0.4, 0.01) - ref) <= 1e-9 * abs(ref)
    assert abs(tau(X, 0.4, 0.01) - ref) > 1e-3
    assert built == [X, Y]
    # one per field across tau, flow_map toward 0 (the inverse and the
    # residual bound) and away from it (the zero of y^2 - 3y^3 too), h and Dh
    built.clear()
    Z = szekeres_numeric_field(moebius(), 10)
    E, P = field_from_coeffs("e", {2: 1, 3: -3}), field_from_coeffs("p", {2: 1})
    for W, sign in ((Z, 1), (E, -1)):
        tau(W, 0.1, 0.01)
        flow_map(W, 0.1, sign * 5.0)
        flow_map(W, 0.1, -sign * 0.5)
    h = canonical_conjugacy(E, P, 0.1)
    h(0.01), h.deriv(0.01)
    assert [id(W) for W in built] == [id(Z), id(E), id(P)]
    fresh = dataclasses.replace(Z)
    tau(fresh, 0.1, 0.01)
    assert built[-1] is fresh and fresh._formal_time is not Z._formal_time and len(built) == 4


def moebius_szekeres_tau(n, x0, x):
    # depth-n field of x/(1+x): X(y) = -y^2 (1 + (n-1) y) / (1 + n y), whose
    # 1/X integrates to 1/y - log(y / (1 + (n-1) y))
    def T(y):
        return 1 / y - math.log(y / (1 + (n - 1) * y))

    return T(x) - T(x0)


def test_tau_on_szekeres_fields_against_closed_form():
    for n in (10, 100, 1000, 10**4):
        X = szekeres_numeric_field(moebius(), n)
        for x in np.geomspace(1e-5, 0.05, 7):
            ref = moebius_szekeres_tau(n, 0.1, x)
            # black-box quadrature tolerance (epsrel 1e-9)
            assert abs(tau(X, 0.1, x) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_tau_from_the_end_of_the_domain_on_a_szekeres_field():
    # x0 = x_max puts quadrature nodes next to the end of the domain, where
    # the Szekeres evaluator refuses any point past x_max
    n = 100
    X = szekeres_numeric_field(moebius(), n)
    for x in (0.999999, 0.5, 1e-3):
        ref = moebius_szekeres_tau(n, X.x_max, x)
        assert abs(tau(X, X.x_max, x) - ref) <= 1e-9 * max(1.0, abs(ref))
    # exp(log(0.1)) rounds above 0.1, so nodes placed in log y from log(0.1)
    # would leave the domain on a short interval
    from germres.catalog import germ_from_jet

    X = szekeres_numeric_field(germ_from_jet(Jet.of(1, -1, 1), x_max=0.1), n)
    for x in (0.1 * (1 - 1e-15), 0.1 * (1 - 1e-9)):
        # tau subtracts time-coordinate values of size ~10 (TAU_ABS_TOL)
        linear = (x - 0.1) / X.func(0.1)
        assert abs(tau(X, 0.1, x) - linear) <= 1e-12
        assert tau(X, x, 0.1) == -tau(X, 0.1, x)


def test_tau_on_a_szekeres_field_needs_few_evaluations():
    # the black-box remainder is O(1/y); integrated in log y it is bounded
    # and one tau over four decades stays within five 21-point rules
    calls = [0]
    base = szekeres_numeric_field(moebius(), 100)

    def counted(y):
        calls[0] += 1
        return base.func(y)

    X = dataclasses.replace(base, func=counted)
    tau(X, 1e-5, 0.1)
    assert 0 < calls[0] <= 105


# -- the generated split and the Szekeres kernel against their first forms -----


def _szekeres_case(germ, n):
    X = szekeres_numeric_field(germ, n)
    return X, with_reference_split(X, reference_szekeres_evaluator(germ, n))


def _poly_case(ell, seed):
    # a seeded `poly:` field of the CLI: leading coefficient of size 1/4 to
    # 9, the others in [-1, 1], so that it has no zero below 0.1
    from germres.cli import _load_field

    r = random.Random(seed)
    parts = ["0"] * (ell - 1) + [str(r.choice((-1, 1)) * F(r.randint(1, 9), r.randint(1, 4)))]
    parts += [str(F(r.randint(-4, 4), r.randint(1, 4))) for _ in range(r.randint(0, 3))]
    X = _load_field("poly:" + ",".join(parts))
    return X, with_reference_split(X)


def _catalog_case(tag):
    X = catalog_field(tag)
    if tag == "quadratic_szekeres":
        return X, with_reference_split(X, reference_szekeres_evaluator(quadratic(), 10_000))
    return X, with_reference_split(X)


def _pullback_case():
    from germres.catalog import pullback_numeric_field

    X = pullback_numeric_field(moebius(), catalog_field("neg_x2_x3"))
    return X, with_reference_split(X)


def _jet_germ():
    from germres.catalog import germ_from_jet

    return germ_from_jet(Jet.of(1, F(-3, 2), F(1, 2)), x_max=0.3)


CATALOG_FIELD_TAGS = (
    "neg_x2", "neg_2x2", "neg_x2_x3", "neg_x3", "x2", "pullback_log_cubic", "pullback_loglog", "quadratic_szekeres",
)
SZEKERES_GERMS = {"moebius": moebius, "quadratic": quadratic, "ramified_2_1": lambda: ramified_flow(2, 1), "jet": _jet_germ}
ORACLE_CASES = {
    **{tag: (lambda tag=tag: _catalog_case(tag)) for tag in CATALOG_FIELD_TAGS},
    **{f"poly_ell{ell}_{k}": (lambda ell=ell, k=k: _poly_case(ell, 10 * ell + k)) for ell in (1, 2, 3) for k in range(2)},
    **{
        f"szekeres_{name}_{n}": (lambda germ=germ, n=n: _szekeres_case(germ(), n))
        for name, germ in SZEKERES_GERMS.items()
        for n in (1, 10, 100)
    },
    "pullback_moebius_neg_x2_x3": _pullback_case,
}


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the same failure is the same outcome
        return type(exc).__name__, str(exc)


def _time_coordinate_answers(X, Y, xs, x0=0.1):
    """Every answer built on the time coordinates of X and Y at the points xs."""
    out = [_outcome(tau, X, x0, x) for x in xs] + [_outcome(tau, X, x, x0) for x in xs]
    out.append(_outcome(tau, X, X.x_max, xs[0]))
    times = [tau(X, x0, xs[0]), -0.1 * tau(X, x0, xs[-1])]
    out += [_outcome(flow_map, X, x0, t) for t in times]
    h = canonical_conjugacy(X, Y, x0)
    for x in xs:
        out += [_outcome(h, x), _outcome(h.deriv, x)]
    out.append(_outcome(divergence_diagnostic, X, Y, xs, x0))
    return out


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_time_coordinate_answers_are_those_of_the_first_split(name):
    # tau, flow_map, h, Dh and the diagnostic from the generated integrand,
    # antiderivative and Szekeres kernel are the same floats as from the
    # closures and loops they replaced (tests/helpers.py)
    X, X_ref = ORACLE_CASES[name]()
    sign = -1 if X.is_contracting() else 1
    Y = field_from_coeffs("partner", {X.ell + 1: sign, X.ell + 2: sign})
    if name == "quadratic_szekeres":  # depth 10^4: two points keep it short
        xs = (3e-2, 3e-4)
    elif X.ell == 1:
        xs = (3e-2, 3e-3, 3e-4, 3e-5)
    else:
        xs = (7e-2, 4e-2, 2e-2, 1e-2)
    ours = _time_coordinate_answers(X, Y, xs)
    assert ours == _time_coordinate_answers(X_ref, with_reference_split(Y), xs)
    assert sum(isinstance(a, str) for a in ours) >= len(ours) - 2, ours
    # and node by node: the integrand over [log(1e-5 / top), 0], the
    # antiderivative from 1e-5 to top
    sch, ref = X._formal_time, X_ref._formal_time
    top = min(0.1, X.x_max)
    nodes = [k / 40 * math.log(1e-5 / top) for k in range(41)]
    assert [_outcome(sch.integrand, s, top) for s in nodes] == [_outcome(ref.integrand, s, top) for s in nodes]
    ys = [top * math.exp(s) for s in nodes]
    assert [_outcome(sch.antiderivative, y) for y in ys] == [_outcome(ref.antiderivative, y) for y in ys]


def test_szekeres_numeric_field_checks_its_germ_and_depth_when_built():
    from germres.catalog import log_cubic

    # refused when built, not inside tau or at every evaluation
    with pytest.raises(DomainError, match="contracting"):
        szekeres_numeric_field(log_cubic(), 10)
    for n in (MAX_ORBIT_STEPS + 1, 10**8):
        with pytest.raises(DomainError, match="orbit steps"):
            szekeres_numeric_field(quadratic(), n)
    X = szekeres_numeric_field(quadratic(), 3)
    assert X.func(0.1) == reference_szekeres(quadratic(), 0.1, 3, 0.0).value
    # an evaluation checks only its point
    with pytest.raises(DomainError, match="outside"):
        X.func(0.6)


def test_szekeres_field_counts_every_step_through_a_wrapped_increment():
    # the benchmark counts orbit steps by wrapping GermSpec.increment; the
    # kernel calls the increment and the derivative once per step
    increment, steps = counting(moebius().increment)
    deriv, derivs = counting(moebius().deriv)
    germ = dataclasses.replace(moebius(), increment=increment, deriv=deriv)
    X = szekeres_numeric_field(germ, 10)
    assert X.func(0.05) == szekeres_numeric_field(moebius(), 10).func(0.05)
    assert steps == derivs == [10]
    tau(X, 0.1, 1e-3)
    assert steps[0] == derivs[0] > 10 and steps[0] % 10 == 0


def test_tau_refuses_to_cross_a_zero_of_a_polynomial_field():
    # -4/7 y^2 + 9 y^3 vanishes at 4/63; building the field is fine, and so
    # is tau below the zero
    X = field_from_coeffs("z", {2: F(-4, 7), 3: 9})
    assert tau(X, 0.06, 0.003) > 0
    for x0, x in ((0.15, 0.003), (0.003, 0.15), (float(F(4, 63)), 0.01), (0.01, 1.0)):
        with pytest.raises(DomainError, match="vanishes"):
            tau(X, x0, x)


def test_flow_toward_a_zero_of_the_field_approaches_it():
    # y^2 - 3 y^3 vanishes at 1/3, which its flow approaches in infinite time
    # through tau = -1/y + 3 log y - 3 log(1 - 3y); the mirrored contracting
    # field reaches the same points at negative times
    from scipy.optimize import brentq

    def T(z):
        return -1 / z + 3 * math.log(z) - 3 * math.log(1 - 3 * z)

    X = field_from_coeffs("e", {2: 1, 3: -3})
    mirror = field_from_coeffs("c", {2: -1, 3: 3})
    for t in (0.5, 1.0, 5.0, 20.0):
        ref = brentq(lambda z: T(z) - T(0.1) - t, 0.1, 1 / 3 - 1e-15, xtol=1e-300, rtol=1e-15)
        assert abs(flow_map(X, 0.1, t) - ref) <= 1e-12 * ref
        assert abs(flow_map(mirror, 0.1, -t) - ref) <= 1e-12 * ref
    with pytest.raises(ReachabilityError):
        flow_map(X, 0.1, 1000.0)
    with pytest.raises(DomainError):
        flow_map(X, 0.4, 1.0)  # starts past the zero


def test_first_zero_is_the_least_float_at_or_past_the_zero():
    from germres.numerics import _first_zero

    def brackets(coeffs, at_least):
        # the float found is past the zero, the float below it is not
        z = _first_zero([F(c) for c in coeffs], 1.0)
        return at_least(F(z)) and not at_least(F(math.nextafter(z, 0.0)))

    assert brackets((1, 0, -2), lambda y: 2 * y * y >= 1)  # simple zero 1/sqrt(2)
    assert brackets((1, -6, 9), lambda y: y >= F(1, 3))  # double zero, no sign change
    assert brackets((1, -3, 2), lambda y: y >= F(1, 2))  # zeros 1/2 and 1
    assert brackets((1, -4, 4), lambda y: y >= F(1, 2))  # double zero on a float
    assert brackets((1, -(10**6)), lambda y: y >= F(1, 10**6))
    assert brackets((1, -4, 0, 0, 0, 0, 7), lambda y: 1 - 4 * y + 7 * y**6 <= 0)
    assert _first_zero([F(1), F(0), F(-2)], 0.7) == math.inf  # 1/sqrt(2) > 0.7
    assert _first_zero([F(1), F(1), F(1)], 1.0) == math.inf
    assert _first_zero([F(1)], 1.0) == math.inf


def test_poly_field_size_is_bounded():
    field_from_coeffs("d", {2: -1, 2 + MAX_POLY_DEGREE: 1})
    with pytest.raises(DomainError, match="degrees span"):
        field_from_coeffs("d", {2: -1, 3 + MAX_POLY_DEGREE: 1})
    # S = 1 - 2^k y over the integers takes 1 + (k + 1) bits
    field_from_coeffs("b", {2: -1, 3: 2 ** (MAX_POLY_BITS - 2)})
    with pytest.raises(DomainError, match="bits"):
        field_from_coeffs("b", {2: -1, 3: F(1, 2 ** (MAX_POLY_BITS - 1))})
    # a slow shape within both bounds: full degree and a zero near 2^-480,
    # which the Sturm search bisects its way down to
    X = field_from_coeffs("w", {2: -1, 3: 2**480, **{d: 1 for d in range(4, 3 + MAX_POLY_DEGREE)}})
    with pytest.raises(DomainError, match="vanishes"):
        tau(X, 0.1, 0.05)


def test_flow_group_law_numeric():
    X = catalog_field("neg_x2_x3")
    x0 = 0.3
    for s, t in ((0.5, 1.5), (2.0, 3.0), (0.1, 0.7)):
        once = flow_map(X, flow_map(X, x0, s), t)
        joint = flow_map(X, x0, s + t)
        assert abs(once - joint) < 1e-8


def test_flow_map_toward_zero_starts_from_the_leading_term_flow(monkeypatch):
    from germres import numerics

    calls = [0]
    plain = numerics.tau

    def counted(field, x0, x):
        calls[0] += x != x0  # tau calls that integrate
        return plain(field, x0, x)

    monkeypatch.setattr(numerics, "tau", counted)
    x0 = 0.1

    def solve(X, t):
        ref = reference_flow_map(X, x0, t)
        calls[0] = 0
        z = flow_map(X, x0, t)
        assert 0 < calls[0] <= 10
        assert abs(z - ref) <= 4 * np.finfo(float).eps * ref
        return z

    # dx/dt = -x^2: x(t) = x0/(1 + t x0); halving from x0 took ~24
    # quadratures per call over this range of roots
    for root in np.geomspace(1e-5, 1e-2, 13):
        t = 1 / root - 1 / x0
        z = solve(catalog_field("neg_x2"), t)
        assert abs(z - x0 / (1 + t * x0)) <= 1e-12 * z
    # a field that is not its leading term: the bracket widens from the guess
    for t in (1.0, 1e2, 1e4, 1e6):
        solve(catalog_field("neg_x2_x3"), t)


@pytest.fixture
def quadratures(monkeypatch):
    """Counter of the tau calls that integrate (x != x0); reset it to 0."""
    calls = [0]
    plain = numerics.tau

    def counted(field, x0, x):
        calls[0] += x != x0
        return plain(field, x0, x)

    monkeypatch.setattr(numerics, "tau", counted)
    return calls


def test_flow_map_from_an_exact_leading_term_guess_integrates_once(quadratures):
    # for -x^2 the leading-term flow is the flow: the guess is the root, and
    # the one quadrature that checks it is the only one
    X, x0 = catalog_field("neg_x2"), 0.1
    for root in np.geomspace(1e-5, 1e-2, 13):
        quadratures[0] = 0
        flow_map(X, x0, 1 / root - 1 / x0)
        assert quadratures[0] == 1, root


def test_flow_map_newton_takes_few_quadratures(quadratures):
    # Newton on tau' = 1/X from the leading-term guess; the bracket search
    # and Brent's method took about 7 quadratures per time map here
    from germres.flows import germ_to_field

    X = catalog_field("neg_x2_x3")
    for t in (1.0, 1e2, 1e4, 1e6):
        quadratures[0] = 0
        flow_map(X, 0.1, t)
        assert quadratures[0] <= 4, t
    # the order-3 generator of `quadratic`, at the times of x in [1e-5, 1e-2]
    Y = field_from_jet(germ_to_field(quadratic().jet_fn(3)))
    for x in np.geomspace(1e-5, 1e-2, 7):
        t = tau(Y, 0.1, x)
        quadratures[0] = 0
        z = flow_map(Y, 0.1, t)
        assert quadratures[0] <= 4, x
        assert abs(z - x) <= 1e-12 * x


def test_flow_map_within_one_and_a_half_ulps_of_closed_forms():
    # the exact flows of -x^2, -x^3 and x^2 (at negative times, toward 0),
    # in 200-bit arithmetic from the float x0 and t
    import mpmath

    exact = {
        "neg_x2": lambda x0, t: x0 / (1 + t * x0),
        "neg_x3": lambda x0, t: 1 / mpmath.sqrt(1 / x0**2 + 2 * t),
        "x2": lambda x0, t: x0 / (1 - t * x0),
    }
    with mpmath.workprec(200):
        for name, flow in exact.items():
            X = catalog_field(name)
            for x0 in (0.4, 0.1, 0.03):
                for t in np.geomspace(1e-2, 1e6, 25):
                    t = -t if name == "x2" else t
                    z, ref = flow_map(X, x0, t), flow(mpmath.mpf(x0), mpmath.mpf(t))
                    assert abs(z - ref) <= 1.5 * math.ulp(float(ref)), (name, x0, t)


BLACK_BOX_FIELDS = {
    "szekeres_moebius_10": lambda: szekeres_numeric_field(moebius(), 10),
    "szekeres_moebius_100": lambda: szekeres_numeric_field(moebius(), 100),
    "pullback_loglog": lambda: catalog_field("pullback_loglog"),
}


@pytest.mark.parametrize("name", BLACK_BOX_FIELDS)
def test_flow_map_on_black_box_fields_matches_the_bracketed_reference(name):
    # Newton's derivative is the field's own evaluator here, not a polynomial
    X = BLACK_BOX_FIELDS[name]()
    sign = -1 if X.is_contracting() else 1  # toward 0
    for t in (1.0, 30.0, 1e3, 1e5):
        ref = reference_flow_map(X, 0.1, -sign * t)
        assert abs(flow_map(X, 0.1, -sign * t) - ref) <= 4 * np.finfo(float).eps * ref, t


def test_flow_map_bracket_collapsed_to_zero():
    # the linear field -y reaches x0 e^-t, which is below the least float at
    # t = 800; its time coordinate stays finite all the way down
    X = NumericField(name="lin", func=lambda y: -y, ell=0, leading=-1.0)
    assert abs(flow_map(X, 0.1, 10.0) - 0.1 * math.exp(-10.0)) <= 1e-12
    with pytest.raises(ReachabilityError, match="collapsed to 0"):
        flow_map(X, 1e-100, 800.0)


def test_expanding_field_flow():
    X = catalog_field("x2")
    z = flow_map(X, 0.1, 1.0)  # dx/dt = x^2: x(t) = x0/(1 - t x0)
    assert abs(z - 0.1 / 0.9) < 1e-9
    with pytest.raises(ReachabilityError):
        flow_map(X, 0.1, 20.0)  # blow-up past x_max
    for t in (-0.5, -90.0, -1e5):  # toward 0, bracketed from the guess
        exact = 0.1 / (1 - t * 0.1)
        assert abs(flow_map(X, 0.1, t) - exact) <= 1e-12 * exact


# -- canonical conjugacy -------------------------------------------------------


def test_conjugacy_identity_when_fields_equal():
    X = catalog_field("neg_x2")
    h = canonical_conjugacy(X, X, 0.3)
    for x in np.geomspace(1e-4, 0.3, 8):
        assert abs(h(x) - x) < 1e-9


def test_conjugacy_homothety_pair():
    # X = -x^2 vs Y = -2x^2: h(x) = x*x0 / (2*x0 - x) in closed form
    X, Y = catalog_field("neg_x2"), catalog_field("neg_2x2")
    x0 = 0.3
    h = canonical_conjugacy(X, Y, x0)
    for x in np.linspace(0.05, 0.4, 8):
        exact = x * x0 / (2 * x0 - x)
        assert abs(h(x) - exact) < 1e-9
        # functional equation tau_Y(h(x)) = tau_X(x)
        assert abs(tau(Y, x0, h(x)) - tau(X, x0, x)) < 1e-9


def test_conjugacy_intertwines_flows():
    X, Y = catalog_field("neg_x2"), catalog_field("neg_2x2")
    h = canonical_conjugacy(X, Y, 0.3)
    for x in np.linspace(0.05, 0.4, 10):
        for t in (0.5, 1.0, 3.0):
            lhs = flow_map(Y, h(x), t)
            rhs = h(flow_map(X, x, t))
            assert abs(lhs - rhs) < 1e-7


def test_conjugacy_derivative_against_differences():
    X, Y = catalog_field("neg_x2"), catalog_field("neg_2x2")
    h = canonical_conjugacy(X, Y, 0.3)
    x = 0.2
    dx = 1e-6
    fd = (h(x + dx) - h(x - dx)) / (2 * dx)
    assert abs(h.deriv(x) - fd) < 1e-6
    # exact: Dh = x0^2*2*x0... differentiate x*x0/(2x0 - x): 2*x0^2/(2x0-x)^2
    exact = 2 * 0.3**2 / (2 * 0.3 - x) ** 2
    assert abs(h.deriv(x) - exact) < 1e-10
    d2_exact = 4 * 0.3**2 / (2 * 0.3 - x) ** 3
    assert abs(h.second_deriv(x) - d2_exact) < 1e-4


def test_conjugacy_deriv_reuses_the_last_point():
    # h(x) integrates X once (tau_X); Dh then only evaluates X at x, where
    # solving for h(x) again would integrate X a second time
    calls = [0]
    base = szekeres_numeric_field(moebius(), 10)

    def counted(y):
        calls[0] += 1
        return base.func(y)

    X = dataclasses.replace(base, func=counted)
    Y = catalog_field("neg_x2")
    x1, x2 = 3e-3, 2e-4
    fresh = canonical_conjugacy(X, Y, 0.1)
    calls[0] = 0
    h_ref = fresh(x1)
    quadrature = calls[0]
    dh_ref = canonical_conjugacy(X, Y, 0.1).deriv(x1)
    h2_ref = canonical_conjugacy(X, Y, 0.1)(x2)

    h = canonical_conjugacy(X, Y, 0.1)
    before = (repr(h), hash(h))
    calls[0] = 0
    assert repr(h(x1)) == repr(h_ref)
    assert repr(h.deriv(x1)) == repr(dh_ref)
    assert quadrature > 0 and calls[0] == quadrature + 1
    assert (repr(h), hash(h)) == before
    assert h == fresh and h == canonical_conjugacy(X, Y, 0.1)
    # a point other than the last one is solved for afresh
    assert repr(h(x2)) == repr(h2_ref)
    assert repr(h.deriv(x1)) == repr(dh_ref)
    assert repr(h(x1)) == repr(h_ref)


def test_conjugacy_rejects_mixed_orientation():
    with pytest.raises(DomainError):
        canonical_conjugacy(catalog_field("neg_x2"), catalog_field("x2"), 0.3)


def test_szekeres_derived_conjugacy_parabolic_limit():
    # conjugating the iterative field of x - x^2 to -x^2: Dh -> 1 at 0
    X = szekeres_numeric_field(quadratic(), n=10_000)
    Y = catalog_field("neg_x2")
    h = canonical_conjugacy(X, Y, 0.1)
    values = [h.deriv(x) for x in (1e-2, 1e-3, 1e-4, 1e-5)]
    deviations = [abs(v - 1.0) for v in values]
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 1e-3


# -- Szekeres iteration --------------------------------------------------------


def test_szekeres_moebius_exact_field():
    res = szekeres_field(moebius(), 0.3, n_max=10**5, tol=0.0)
    assert abs(res.value - (-0.09)) < 1e-6


def test_szekeres_quadratic():
    res = szekeres_field(quadratic(), 0.05, n_max=10**5, tol=1e-12)
    assert res.converged
    assert abs((res.value - (-0.002625)) / 0.002625) < 0.01


def test_szekeres_ramified_time_one_matches_moebius():
    # the order-1 ramified flow at time 1 is x/(1+x)
    a = szekeres_field(ramified_flow(1, 1), 0.3, n_max=2000, tol=0.0)
    b = szekeres_field(moebius(), 0.3, n_max=2000, tol=0.0)
    assert abs(a.value - b.value) < 1e-13


def test_szekeres_jet_consistency():
    # leading two field coefficients recovered from three sample values
    # (the third basis power absorbs the next term of the expansion)
    for germ in (quadratic(), moebius()):
        X = germ_to_field(germ.jet_fn(3))
        c2, c3 = float(X[2]), float(X[3])
        pts = (5e-3, 1.5e-2, 4.5e-2)
        vals = [szekeres_field(germ, x, n_max=2 * 10**5, tol=0.0).value for x in pts]
        A = np.array([[x**2, x**3, x**4] for x in pts])
        est = np.linalg.solve(A, vals)
        scale = max(1.0, abs(c2), abs(c3))
        assert abs(est[0] - c2) <= 0.01 * scale
        assert abs(est[1] - c3) <= 0.01 * scale


def test_szekeres_requires_contracting():
    from germres.catalog import log_cubic

    with pytest.raises(DomainError):
        szekeres_field(log_cubic(), 0.1)


def test_szekeres_underflow_guard():
    bad = GermSpec(
        name="collapse",
        func=lambda x: 1e-60 * x,
        deriv=lambda x: 1e-60,
        increment=lambda x: 1e-60 * x - x,
        ell=1,
        a=1.0,
        orientation="contracting",
        x_max=1.0,
    )
    with pytest.raises(ProductUnderflow):
        szekeres_field(bad, 0.5, n_max=100, tol=0.0)


def test_szekeres_loop_is_bit_identical_to_the_reference():
    rng = np.random.default_rng(7)
    germs = (quadratic(), moebius(), ramified_flow(2, 1))
    for germ in germs:
        for x in rng.uniform(1e-4, 0.4, 6):
            x = float(x)
            for n_max, tol in ((1, 0.0), (37, 0.0), (500, 0.0), (500, -1.0), (0, 0.0), (0, 1e-12)):
                assert repr(szekeres_field(germ, x, n_max, tol)) == repr(reference_szekeres(germ, x, n_max, tol))
            # a loose tolerance converges early; a tight one runs to n_max
            loose = szekeres_field(germ, x, 10**5, 1e-6)
            assert loose.converged and loose.iterations < 10**5
            assert repr(loose) == repr(reference_szekeres(germ, x, 10**5, 1e-6))
            tight = szekeres_field(germ, x, 300, 1e-300)
            assert not tight.converged
            assert repr(tight) == repr(reference_szekeres(germ, x, 300, 1e-300))


def test_szekeres_refuses_a_non_finite_tolerance():
    # refused before the loop; a negative tol still means fixed depth
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="tol must be finite"):
            szekeres_field(quadratic(), 0.1, n_max=10, tol=tol)
    fixed = szekeres_field(quadratic(), 0.1, n_max=10, tol=-1.0)
    assert not fixed.converged and fixed.iterations == 10


def test_szekeres_refuses_a_negative_depth():
    for n_max in (-1, -3):
        with pytest.raises(DomainError, match="n_max must be at least 0"):
            szekeres_field(quadratic(), 0.1, n_max=n_max)
    # depth 0 takes no step and has no value
    empty = szekeres_field(quadratic(), 0.1, n_max=0, tol=0.0)
    assert empty.value is None and empty.iterations == 0 and not empty.converged


def test_szekeres_numeric_field_refuses_a_depth_below_one():
    for n in (0, -5):
        with pytest.raises(DomainError, match="depth n must be at least 1"):
            szekeres_numeric_field(quadratic(), n=n)
    X = szekeres_numeric_field(quadratic(), n=1)
    assert X.func(0.1) == quadratic().increment(0.1)


def test_szekeres_underflow_message_matches_the_reference():
    # a negative Df makes the product alternate in sign, so that the
    # fixed-depth loop must test |P| and not only P
    for df in (1e-30, -1e-30):
        _check_underflow_message(df)


def _check_underflow_message(df):
    bad = GermSpec(
        name="collapse",
        func=lambda x: 0.5 * x,
        deriv=lambda x: df,
        increment=lambda x: -0.5 * x,
        ell=1,
        a=1.0,
        orientation="contracting",
        x_max=1.0,
    )
    for tol in (0.0, 1e-300):
        with pytest.raises(ProductUnderflow) as ours:
            szekeres_field(bad, 0.5, n_max=100, tol=tol)
        with pytest.raises(ProductUnderflow) as ref:
            reference_szekeres(bad, 0.5, n_max=100, tol=tol)
        assert str(ours.value) == str(ref.value)
        assert "n=9 " in str(ours.value)


# -- the Szekeres loops with an inlined increment -------------------------------

# an --expr germ with a log (so no series) and 18 operations: the increment's
# locals t0..t34 meet the names of the Szekeres loop and of the integrand
LONG_EXPR = "x - x^2 + x^3*log(x) + x^4/(1+x) - 2*x^5 + x^6*log(x+1)"


def _jet_germ_ell2():
    from germres.catalog import germ_from_jet

    return germ_from_jet(Jet.of(1, 0, -2, 1), x_max=0.3)


INLINED_GERMS = {
    "jet_ell1": _jet_germ,
    "jet_ell2": _jet_germ_ell2,
    "expr_log": lambda: _expr_germ(LONG_EXPR),
    "quadratic": quadratic,
}


def _calls_of(code, run):
    """The number of Python frames of the code object ``code`` that run()
    enters, counted by a profile hook."""
    import sys

    calls, previous = [0], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls[0]


@pytest.mark.parametrize("name", INLINED_GERMS)
def test_szekeres_loops_with_an_inlined_increment_match_the_reference(name):
    germ = INLINED_GERMS[name]()
    assert hasattr(germ.increment, "_germres_body")
    rng = random.Random(name)
    for x in [rng.uniform(1e-3, germ.x_max) for _ in range(3)] + [germ.x_max]:
        # at quadratic's x_max Df vanishes: both refuse the product
        for n_max in (0, 1, 37, 500):
            for tol in (0.0, -1.0, 1e-6, 1e-300):
                args = (germ, x, n_max, tol)
                assert _outcome(szekeres_field, *args) == _outcome(reference_szekeres, *args)
        ours, ref = (_outcome(f, germ, x, 10**5, 1e-6) for f in (szekeres_field, reference_szekeres))
        assert ours == ref and ("converged=True" in ours or x == germ.x_max)
        for n in (1, 37, 500):
            fixed = szekeres_numeric_field(germ, n).func
            assert _outcome(fixed, x) == _outcome(lambda x: reference_szekeres(germ, x, n, 0.0).value, x)


def test_szekeres_underflow_message_with_an_inlined_increment():
    for df in (1e-30, -1e-30):
        germ = dataclasses.replace(quadratic(), deriv=lambda x, df=df: df)
        messages = []
        for call in (
            lambda: szekeres_field(germ, 0.3, n_max=100, tol=0.0),
            lambda: szekeres_field(germ, 0.3, n_max=100, tol=1e-300),
            lambda: szekeres_numeric_field(germ, 100).func(0.3),
            lambda: reference_szekeres(germ, 0.3, n_max=100, tol=1e-300),
        ):
            with pytest.raises(ProductUnderflow) as raised:
                call()
            messages.append(str(raised.value))
        assert len(set(messages)) == 1 and "n=9 " in messages[0], messages


@pytest.mark.parametrize("name", INLINED_GERMS)
def test_szekeres_loops_call_a_generated_increment_never_and_a_wrapper_every_step(name):
    # inlined, the increment's own code never runs as a call, in the
    # converging loop (tol > 0) as in the fixed-depth one; a counting
    # wrapper, the benchmark's tracer, is called once per step in both
    germ = INLINED_GERMS[name]()
    code = germ.increment.__code__
    assert _calls_of(code, lambda: germ.increment(0.1)) == 1
    assert _calls_of(code, lambda: szekeres_field(germ, 0.1, 50, 1e-300)) == 0
    assert _calls_of(code, lambda: szekeres_numeric_field(germ, 50).func(0.1)) == 0
    increment, steps = counting(germ.increment)
    wrapped = dataclasses.replace(germ, increment=increment)
    assert szekeres_numeric_field(wrapped, 50).func(0.1) == szekeres_numeric_field(germ, 50).func(0.1)
    assert steps == [50]
    tight = szekeres_field(wrapped, 0.1, 50, 1e-300)
    assert not tight.converged and steps == [100]
    assert repr(tight) == repr(szekeres_field(germ, 0.1, 50, 1e-300))
    steps[0] = 0
    loose = szekeres_field(wrapped, 0.1, 10**5, 1e-6)
    assert loose.converged and steps == [loose.iterations + 1]
    assert repr(loose) == repr(szekeres_field(germ, 0.1, 10**5, 1e-6))


def test_tau_on_the_szekeres_field_of_a_long_expr_germ_matches_the_first_forms():
    # three levels inlined: the quadrature integrand holds the Szekeres
    # kernel, which holds the formula's increment; the split, the loop and
    # the increment as first written give the same floats
    germ = _expr_germ(LONG_EXPR)
    for n in (1, 10, 100):
        X = szekeres_numeric_field(germ, n)
        ref = with_reference_split(X, reference_szekeres_evaluator(germ, n))
        for x0, x in ((0.1, 3e-2), (0.1, 1e-3), (1e-3, 0.1), (0.4, 1e-5)):
            assert repr(tau(X, x0, x)) == repr(tau(ref, x0, x))
        for code in (X.func.__code__, germ.increment.__code__):
            assert _calls_of(code, lambda: tau(X, 0.1, 1e-3)) == 0


# -- orbit estimator -----------------------------------------------------------


def test_estimator_closed_form_orbits_match_direct_substitution():
    # same estimator formula on the exact orbit, computed independently
    for germ, x0 in ((moebius(), 0.5), (ramified_flow(2, 1), 0.5)):
        ns = [10**3, 10**4, 10**5]
        est = estimate_resit(germ, x0, ns)
        ell, a = germ.ell, germ.a
        for (n, value) in est.samples:
            xn = germ.orbit(x0, n)
            direct = (a * ell**2 * n**2 / math.log(n)) * (1.0 / (a * ell * n) - xn**ell)
            assert abs(value - direct) < 1e-12


def test_estimator_moebius_band():
    est = estimate_resit(moebius(), 0.5, [10**3, 10**4, 10**5, 10**6])
    values = [v for _n, v in est.samples]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
    assert abs(values[-1]) <= 0.2


def test_estimator_quadratic_band():
    est = estimate_resit(quadratic(), 0.5, [10**3, 10**4, 10**5, 10**6])
    values = [v for _n, v in est.samples]
    assert 0.7 <= values[-1] <= 1.3
    gaps = [abs(v - 1.0) for v in values]
    assert gaps == sorted(gaps, reverse=True)
    assert abs(est.extrapolated - 1.0) < 0.05


def test_estimator_ramified_goes_to_zero():
    # closed form gives 2n/((1 + n x0^2) log n) ~ (2/x0^2)/log n: the decay
    # to the true value 0 is logarithmic, so only the trend is asserted
    est = estimate_resit(ramified_flow(2, 1), 0.5, [10**3, 10**4, 10**5, 10**6])
    values = [abs(v) for _n, v in est.samples]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
    assert values[-1] < 0.6
    assert abs(est.extrapolated) < 0.15


def test_estimator_rejects_degenerate_schedule():
    with pytest.raises(DomainError):
        estimate_resit(moebius(), 0.5, [1, 10])


def test_orbit_loops_refuse_more_than_max_orbit_steps():
    # refused before the loop starts; 10^12 steps would run for days
    for n in (MAX_ORBIT_STEPS + 1, 10**12):
        with pytest.raises(DomainError):
            szekeres_field(quadratic(), 0.1, n_max=n, tol=0.0)
        with pytest.raises(DomainError):
            estimate_resit(quadratic(), 0.1, [1000, n])
    # a closed-form orbit does not loop, so any length is served
    est = estimate_resit(moebius(), 0.5, [1000, 10**12])
    assert [n for n, _e in est.samples] == [1000, 10**12]


def test_estimator_rejects_bad_ell_and_a():
    for kwargs in ({"ell": 0}, {"ell": -1}, {"a": 0.0}, {"a": math.nan}, {"a": math.inf}, {"a": -1.0}):
        with pytest.raises(DomainError):
            estimate_resit(dataclasses.replace(moebius(), **kwargs), 0.5, [10, 100])


def test_orbit_estimator_and_bound_check_share_one_precondition():
    cases = [
        (dataclasses.replace(quadratic(), orientation="expanding"), 0.3, "needs a contracting germ"),
        (quadratic(), 2.0, "outside"),
        (dataclasses.replace(quadratic(), ell=0), 0.3, "ell must be at least 1"),
        (dataclasses.replace(quadratic(), a=-1.0), 0.3, "a must be finite and positive"),
    ]
    for germ, x0, message in cases:
        with pytest.raises(DomainError, match=message) as by_estimator:
            estimate_resit(germ, x0, [1000, 10000])
        with pytest.raises(DomainError, match=message) as by_bounds:
            orbit_bound_check(germ, x0, 1000)
        assert str(by_bounds.value) == str(by_estimator.value)
    for a in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="a must be finite and positive"):
            orbit_bound_check(dataclasses.replace(quadratic(), a=a), 0.3, 1000)


def test_non_finite_estimates_are_domain_errors():
    # a = 1e308 makes the prefactor a*ell^2*n^2/log n overflow to inf
    with pytest.raises(DomainError, match="n=1000 is not finite"):
        estimate_resit(dataclasses.replace(quadratic(), a=1e308), 0.3, [1000, 10000])
    # a subnormal a makes 1/(a*ell*n) overflow instead
    with pytest.raises(DomainError, match="n=10 is not finite"):
        estimate_resit(dataclasses.replace(moebius(), a=5e-324), 0.5, [10, 100])
    flat = GermSpec(
        name="flat", func=lambda x: x - x**41, deriv=lambda x: 1 - 41 * x**40,
        increment=lambda x: -(x**41), ell=40, a=1.0, orientation="contracting", x_max=0.5,
    )
    # x_n^40 underflows to 0 at n = 1, so u_n = 1/(a*ell*x_n^ell) is infinite
    with pytest.raises(DomainError, match="n=1 is not finite"):
        orbit_bound_check(flat, 1e-9, 100)
    with pytest.raises(DomainError):
        orbit_bound_check(quadratic(), 0.5, 0)


# -- the orbit loop against its first-written form ------------------------------


def _expr_germ(text):
    """The GermSpec the CLI builds for ``--expr text``."""
    from germres.cli import _load_germ_spec

    return _load_germ_spec(argparse.Namespace(expr=text, catalog=None, ell=None, a=None))


def _orbit_germs():
    from germres.catalog import germ_from_jet

    return [
        (quadratic(), 0.3),
        (germ_from_jet(Jet.of(1, -1, F(1, 4))), 0.2),
        (germ_from_jet(Jet.of(1, 0, -2, 1), x_max=0.3), 0.3),  # ell = 2
        (_expr_germ("x - x^2 + 3/4*x^3"), 0.25),  # polynomial
        (_expr_germ("x/(1+x) - x^3"), 0.3),  # rational
        (_expr_germ("x - x^2 + x^3*log(x)"), 0.2),  # log: no series
    ]


def test_orbit_loop_matches_the_first_written_loop():
    # the compensated float pair holds the running sum to ~106 bits, so a
    # long-double accumulator rounds it to the same floats
    from germres.numerics import _orbit_values

    schedules = ([5000, 10, 10, 2, 777, 5000, 3], [1], [20000, 19999])
    for germ, x0 in _orbit_germs():
        assert germ.orbit is None, germ.name
        for ns in schedules:
            got = repr(_orbit_values(germ, x0, ns))
            for extended in (False, True):
                assert got == repr(reference_orbit_values(germ, x0, ns, extended)), (germ.name, ns, extended)


def test_orbit_loop_matches_the_long_double_loop_at_a_million_steps():
    from germres.catalog import germ_from_jet
    from germres.numerics import _orbit_values

    ns = [10**5, 10**6]
    for germ, x0 in ((quadratic(), 0.5), (germ_from_jet(Jet.of(1, 0, -2, 1), x_max=0.3), 0.3)):
        got = _orbit_values(germ, x0, ns)
        assert repr(got) == repr(reference_orbit_values(germ, x0, ns, use_longdouble=True)), germ.name


def test_orbit_verbs_match_the_first_written_loop(monkeypatch):
    from germres import numerics

    schedule = [30000, 100, 2000, 100]
    for germ, x0 in _orbit_germs():
        ours = repr([estimate_resit(germ, x0, schedule), orbit_bound_check(germ, x0, 30000)])
        for extended in (False, True):
            with monkeypatch.context() as m:
                m.setattr(
                    numerics,
                    "_orbit_values",
                    lambda g, x, ns, _ext=extended: reference_orbit_values(g, x, ns, _ext),
                )
                reference = [estimate_resit(germ, x0, schedule), orbit_bound_check(germ, x0, 30000)]
            assert ours == repr(reference), (germ.name, extended)


def test_orbit_loop_calls_an_increment_without_a_body_once_per_step():
    # an opaque closure, a plain counting wrapper around a generated
    # increment and a wrapper that copies its body record (functools.wraps
    # does) are called, not inlined, so each sees every step
    import functools

    from germres.numerics import _orbit_values

    def copying(fn):
        calls = [0]

        @functools.wraps(fn)
        def wrapper(x):
            calls[0] += 1
            return fn(x)

        assert wrapper._germres_body is fn._germres_body
        return wrapper, calls

    opaque_calls = [0]

    def opaque(x):
        opaque_calls[0] += 1
        return -x * x

    ns = [5000, 10, 10, 2, 777, 3]
    germs = [(g, x0) for g, x0 in _orbit_germs() if hasattr(g.increment, "_germres_body")]
    assert len(germs) == 6
    cases = [(quadratic(), 0.3, opaque, opaque_calls)]
    for wrap in (counting, copying):
        cases += [(g, x0, *wrap(g.increment)) for g, x0 in germs]
    for germ, x0, inc, calls in cases:
        got = repr(_orbit_values(dataclasses.replace(germ, increment=inc), x0, ns))
        assert calls[0] == max(ns), germ.name
        assert got == repr(reference_orbit_values(germ, x0, ns, False)), germ.name


# -- orbit bounds --------------------------------------------------------------


def test_orbit_bounds_moebius():
    report = orbit_bound_check(moebius(), 0.5, 10**5)
    assert abs(report.final_ratio - 1.0) < 1e-3
    assert abs(report.D - 2.0) < 1e-9  # exactly 1/x0
    assert report.asymptotic_ok


def test_orbit_bounds_quadratic():
    report = orbit_bound_check(quadratic(), 0.5, 10**5)
    assert 0.9 <= report.final_ratio <= 1.0
    assert report.D_prime > 0  # upper control f^n <= 1/(n + D' log n)
    assert report.asymptotic_ok


def test_orbit_bounds_ramified_order_two():
    report = orbit_bound_check(ramified_flow(2, 1), 0.5, 10**5)
    assert abs(report.final_ratio - 1.0) < 1e-3


# -- contour residue -----------------------------------------------------------


def test_contour_cubic_example():
    value = contour_residue(lambda z: z + z * z + 0.7 * z**3, 0.3, 256)
    assert abs(value - 0.7) < 1e-8


def test_contour_radius_stability():
    f = lambda z: z + z * z + 0.7 * z**3
    values = [contour_residue(f, r, 256) for r in (0.1, 0.2, 0.3)]
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-8


def test_contour_reduced_order_two_zero():
    assert abs(contour_residue(lambda z: z + z**3, 0.3, 256)) < 1e-8


def test_contour_matches_reduction_on_jet_polynomial():
    jet = moebius().jet_fn(7)
    floats = [float(jet[n]) for n in range(1, 8)]

    def f(z):
        acc = 0j
        for c in reversed(floats):
            acc = acc * z + c
        return acc * z

    _, report = reduce_germ(jet)
    value = contour_residue(f, 0.2, 512)
    assert abs(value - float(report.res)) < 1e-4  # truncation-limited


def test_contour_detects_fixed_point_on_circle():
    r = 0.3
    with pytest.raises(ContourError):
        contour_residue(lambda z: z + (z - r) * z**2, r, 64)


def test_contour_refuses_too_many_points():
    # refused before any array is built, so the count is never allocated
    for points in (MAX_CONTOUR_POINTS + 1, 10**11):
        with pytest.raises(DomainError):
            contour_residue(lambda z: z + z * z, 0.1, points)


def test_contour_refuses_non_finite_value():
    with pytest.raises(ContourError):
        contour_residue(lambda z: z + z * z, 1e308)
    # |z - f(z)| past the float range with both parts finite: abs() raises
    # OverflowError, which is the same refusal
    with pytest.raises(ContourError, match="not finite"):
        contour_residue(_horner([-0j, 1.0, 1.0]), 1.4e154)


def test_contour_matches_the_numpy_reference():
    # drawn z + a2 z^2 + ... (1 <= |a2| <= 2, later coefficients in [-1, 1],
    # so no other fixed point lies in |z| < 1/2) on radii 0.1..0.3 and
    # 8..2048 points.  numpy's pairwise mean is only good to about
    # eps * max|z / (z - f(z))|, which these radii keep below about 20
    rng = random.Random(17)
    for _ in range(200):
        a2 = rng.choice((-1, 1)) * rng.uniform(1, 2)
        coeffs = [-0j, 1.0, a2] + [rng.uniform(-1, 1) for _ in range(rng.randint(0, 4))]
        f, radius, points = _horner(coeffs), rng.uniform(0.1, 0.3), rng.randint(8, 2048)
        value, ref = contour_residue(f, radius, points), reference_contour_residue(f, radius, points)
        assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), (coeffs, radius, points)


def test_contour_mean_is_rounded_from_the_exact_sum():
    # small radii make the terms z / (z - f(z)) large and their mean small:
    # each part of the value is still the exact mean of the samples, rounded
    # twice (the sum, then the division by the point count)
    rng = random.Random(5)
    for _ in range(60):
        coeffs = [-0j, 1.0] + [rng.choice((-1, 1)) * rng.uniform(0.5, 2) for _ in range(rng.randint(1, 5))]
        f, radius, points = _horner(coeffs), rng.uniform(0.005, 0.05), rng.randint(8, 2048)
        value = contour_residue(f, radius, points)
        terms = [z / (z - f(z)) for z in (cmath.rect(radius, 2.0 * math.pi * k / points) for k in range(points))]
        for got, parts in ((value.real, [q.real for q in terms]), (value.imag, [q.imag for q in terms])):
            exact = float(sum(map(F, parts)) / points)
            assert abs(got - exact) <= 2 * math.ulp(exact), (coeffs, radius, points)


def test_contour_refuses_a_non_finite_radius():
    for radius in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="radius must be finite and positive"):
            contour_residue(lambda z: z + z * z, radius)


# -- divergence diagnostic -----------------------------------------------------


def test_diagnostic_different_residues():
    X = catalog_field("neg_x2_x3")
    Y = catalog_field("neg_x2")
    report = divergence_diagnostic(X, Y, [1e-2, 1e-3, 1e-4, 1e-5])
    assert 0.7 <= report.slope <= 1.3
    assert report.correlation > 0.999
    assert report.max_abs_ratio > 1.0  # the ratio is unbounded as x -> 0


def test_diagnostic_equal_fields():
    X = catalog_field("neg_x2")
    report = divergence_diagnostic(X, X, [1e-2, 1e-3, 1e-4, 1e-5])
    assert abs(report.slope) < 1e-6
    assert report.max_abs_ratio < 1e-6


def test_diagnostic_equal_mu_bounded():
    # two fields with matching leading and next coefficient: log term cancels
    X = field_from_coeffs("a", {2: -1, 3: -1})
    Y = field_from_coeffs("b", {2: -1, 3: -1, 4: 2})
    report = divergence_diagnostic(X, Y, [1e-2, 1e-3, 1e-4, 1e-5])
    assert abs(report.slope) < 0.05
    assert report.max_abs_ratio < 5.0


def test_diagnostic_fit_matches_the_numpy_reference(monkeypatch):
    # drawn lines v = a log(1/x) + b + noise on drawn grids, through a
    # stand-in conjugacy h(x) = x + v x^2.  The closed form is compared with
    # numpy's polyfit and corrcoef, and with the exact least-squares line of
    # the same float data: polyfit's intercept strays up to ~1e-11 of itself
    # where it is small beside the ratios, so it is compared at their scale
    rng = random.Random(11)
    for _ in range(500):
        xs = [10 ** -rng.uniform(0.5, 8) for _ in range(rng.randint(2, 12))]
        a, b = rng.choice((-1, 1)) * rng.uniform(0.1, 5), rng.choice((-1, 1)) * rng.uniform(0.5, 5)
        noise = rng.choice((0.0, 1e-6, 1e-3, 1.0))
        ratio = {x: a * math.log(1 / x) + b + noise * rng.gauss(0, 1) for x in xs}
        monkeypatch.setattr(numerics, "canonical_conjugacy", lambda X, Y, x0: lambda x: x + ratio[x] * x * x)
        report = divergence_diagnostic(None, None, xs)
        us, vs = [math.log(1 / x) for x, _ in report.points], [v for _, v in report.points]
        slope, intercept, corr, peak = reference_fit(us, vs)
        scale = max(abs(intercept), peak)
        assert abs(report.slope - slope) <= 1e-12 * abs(slope)
        assert abs(report.intercept - intercept) <= 1e-12 * scale
        assert abs(report.correlation - corr) <= 1e-12 * abs(corr)
        assert report.max_abs_ratio == peak
        U, V = list(map(F, us)), list(map(F, vs))
        mu, mv = sum(U) / len(U), sum(V) / len(V)
        exact = sum((u - mu) * (v - mv) for u, v in zip(U, V)) / sum((u - mu) ** 2 for u in U)
        assert abs(F(report.slope) - exact) <= F(1e-14) * abs(exact)
        assert abs(F(report.intercept) - (mv - exact * mu)) <= F(1e-14) * F(scale)


def test_diagnostic_flat_ratios_read_no_correlation(monkeypatch):
    # numpy.allclose's rule: |v - v0| <= 1e-12 + 1e-5 |v0| for every ratio
    for step, flat in ((0.9e-5, True), (1.1e-5, False), (0.0, True)):
        ratio = {1e-2: 2.0, 1e-3: 2.0 * (1 + step), 1e-4: 2.0 * (1 - step / 2)}
        monkeypatch.setattr(numerics, "canonical_conjugacy", lambda X, Y, x0: lambda x: x + ratio[x] * x * x)
        report = divergence_diagnostic(None, None, list(ratio))
        ref = reference_fit([math.log(1 / x) for x, _ in report.points], [v for _, v in report.points])
        assert (report.correlation == 0.0) is flat and (ref[2] == 0.0) is flat
        assert -1.0 <= report.correlation <= 1.0


def test_diagnostic_refuses_coinciding_abscissae():
    # distinct points whose log(1/x) round to one value leave no line to fit
    X = catalog_field("neg_x2")
    with pytest.raises(DomainError, match="log"):
        divergence_diagnostic(X, X, [0.001, math.nextafter(0.001, 1.0)])


def test_estimator_extrapolation_matches_exact_resit():
    # integration of the exact and numeric layers: germs built from exact
    # jets feed the orbit estimator, whose 1/log(n) extrapolation lands on
    # the jet-level iterative residue
    from germres import Jet
    from germres.catalog import germ_from_jet

    cases = [
        (Jet.of(1, -1, "1/2"), 0.4, 0.45),    # ell = 1, resit = 1/2
        (Jet.of(1, 0, -1, 0, 0), 0.4, 0.45),  # ell = 2, resit = 3/2
        (Jet.of(1, -2, 1, 0, 0), 0.2, 0.25),  # ell = 1, resit = 3/4 (Df > 0 below 1/3)
    ]
    for jet, x0, x_max in cases:
        germ = germ_from_jet(jet, x_max=x_max)
        _, report = reduce_germ(jet)
        est = estimate_resit(germ, x0, [10**4, 10**5, 10**6])
        assert abs(est.extrapolated - float(report.resit)) < 0.01
        gaps = [abs(v - float(report.resit)) for _n, v in est.samples]
        assert gaps == sorted(gaps, reverse=True)


def test_germ_from_jet_validation():
    from germres import Jet
    from germres.catalog import germ_from_jet

    germ = germ_from_jet(Jet.of(1, -1, "1/2"))
    assert germ.ell == 1 and germ.a == 1.0 and germ.is_contracting()
    assert germ.jet_fn(4) == Jet.of(1, -1, "1/2", 0)
    with pytest.raises(DomainError):
        germ_from_jet(Jet.of(1, 0, 0))  # identity at this order
    with pytest.raises(DomainError):
        germ_from_jet(Jet.of(1, -2, 0), x_max=0.4)  # Df = 1 - 4x vanishes at 1/4


def test_field_from_jet_round_trip():
    X = germ_to_field(quadratic().jet_fn(3))
    nf = field_from_jet(X)
    assert nf.ell == 1
    assert nf.leading == -1.0
    assert abs(nf.func(0.1) - (-0.01 - 0.001)) < 1e-15


def test_a_szekeres_field_carries_its_exact_generating_jet():
    from germres.catalog import germ_from_jet

    for germ in (moebius(), quadratic(), ramified_flow(3, F(2, 3)), germ_from_jet(Jet.of(1, F(-1, 3), F(1, 5)))):
        X = szekeres_numeric_field(germ, 10)
        assert X.jet == germ_to_field(germ.jet_fn(2 * germ.ell + 1))
        assert not X.polynomial and X.ell == germ.ell and X.leading == float(X.jet[germ.ell + 1])
    # without an exact germ jet the field's jet is its leading term, which
    # only tames the quadrature: tau still integrates the same evaluator
    X = szekeres_numeric_field(quadratic(), 10)
    Y = szekeres_numeric_field(dataclasses.replace(quadratic(), jet_fn=None), 10)
    assert Y.jet == FieldJet.of(-1) and Y._formal_time.d == {2: -1.0, 1: 0.0} != X._formal_time.d
    ref = tau(X, 0.1, 1e-3)
    assert abs(tau(Y, 0.1, 1e-3) - ref) <= 1e-9 * abs(ref)


def test_split_of_a_non_dyadic_generator_jet_is_correctly_rounded():
    # x - x^2/3 + x^3/5 has the field -x^2/3 - 4/15 x^3 + ...: 1/X =
    # -3/y^2 - 4/5 / y + ..., where rounding the jet to floats first gave
    # d_1 = -0.8000000000000002
    from germres.catalog import germ_from_jet

    jet = Jet.of(1, F(-1, 3), F(1, 5))
    X = szekeres_numeric_field(germ_from_jet(jet, x_max=0.3), 10)
    c2, c3 = germ_to_field(jet).coeffs
    assert X._formal_time.d == {2: float(1 / c2), 1: float(-c3 / c2**2)} == {2: -3.0, 1: -0.8}


def test_a_replaced_evaluator_keeps_a_polynomial_split():
    # the perfbench tracer counts evaluations this way; the field stays
    # polynomial: exact remainder, Sturm zero, tight tolerances
    X = field_from_coeffs("z", {2: F(-4, 7), 3: 9})  # vanishes at 4/63
    Y = dataclasses.replace(X, func=lambda y: X.func(y))
    assert Y.polynomial and Y.jet == X.jet
    split = Y._formal_time
    assert split.zero == X._formal_time.zero and F(4, 63) <= F(split.zero) < 0.0635
    assert (split.epsabs, split.epsrel) == (1e-13, 1e-12)
    assert tau(Y, 0.06, 0.003) == tau(X, 0.06, 0.003)
    with pytest.raises(DomainError, match="vanishes"):
        tau(Y, 0.15, 0.003)


def test_field_from_jet_with_an_evaluator_splits_by_the_given_jet():
    def func(y):
        return -(y**2) - y**3

    X = field_from_jet(FieldJet.of(-1, -1), "bb", func=func)
    assert (X.func, X.ell, X.leading, X.jet, X.polynomial) == (func, 1, -1.0, FieldJet.of(-1, -1), False)
    split = X._formal_time
    assert split.d == {2: -1.0, 1: 1.0} and split.zero == math.inf and split.epsabs == 1e-11
    ref = 1 / 0.01 - 1 / 0.4 + math.log(0.01 / 0.4 * (1 + 0.4) / (1 + 0.01))
    assert abs(tau(X, 0.4, 0.01) - ref) <= 1e-9 * abs(ref)
    # a jet with another residue gives another Laurent part for the same evaluator
    assert field_from_jet(FieldJet.of(-1, 0), "bb", func=func)._formal_time.d == {2: -1.0, 1: 0.0}


def test_a_split_past_the_float_range_is_a_domain_error():
    # the coefficients fit in the bit and float bounds, but E_3 = -(2^400)^3
    # of 1/S does not fit in a float
    X = field_from_coeffs("big", {4: -1, 5: -(2**400)})
    with pytest.raises(DomainError, match="big: .*float range"):
        tau(X, 0.05, 0.02)


# -- the formal time and its closed-form inverse --------------------------------

SEEDED_POLY_FIELDS = [(ell, 100 * ell + k) for ell in (1, 2, 3) for k in range(10)]
SEEDED_TIMES = (0.5, 3.0, 40.0, 1e3, 1e5)


def _seeded_maps():
    """(field, x0, t) of the time maps toward 0 over the seeded `poly:` fields."""
    for ell, seed in SEEDED_POLY_FIELDS:
        X = _poly_case(ell, seed)[0]
        sign = 1 if X.is_contracting() else -1
        for t in SEEDED_TIMES:
            yield X, 0.1, sign * t


def test_formal_time_is_the_expansion_of_one_over_the_field():
    # Laurent, log and regular coefficients against sympy's series of 1/X;
    # the log coefficient is -mu of reduce_field
    import sympy as sp

    from germres import reduce_field
    from germres.numerics import _FORMAL_TIME_DEGREE

    y = sp.symbols("y")
    for ell, seed in SEEDED_POLY_FIELDS[::4]:
        X = _poly_case(ell, seed)[0]
        formal = X._formal_time
        poly = sum(sp.Rational(c.numerator, c.denominator) * y**n for n, c in enumerate(X.jet.coeffs, 2))
        series = sp.series(1 / poly, y, 0, _FORMAL_TIME_DEGREE + 1).removeO()
        coeff = {n: series.coeff(y, n) for n in range(-ell - 1, _FORMAL_TIME_DEGREE + 1)}
        assert {j: sp.Rational(d.numerator, d.denominator) for j, d in formal.laurent.items()} == {
            j: coeff[-j] for j in range(ell + 1, 0, -1)
        }
        padded = FieldJet.from_dense(X.jet.dense(2 * ell + 1))
        assert formal.laurent[1] == -reduce_field(padded)[1]
        # y A(y) and 1/X-hat(y) at y = 1/8, from the rounded coefficients
        reg, slope = formal._parts(0.125)
        r = [float(coeff[k]) for k in range(_FORMAL_TIME_DEGREE + 1)]
        assert math.isclose(reg, sum(rk * 0.125 ** (k + 1) / (k + 1) for k, rk in enumerate(r)), rel_tol=1e-14)
        assert math.isclose(slope, float(series.subs(y, sp.Rational(1, 8))), rel_tol=1e-14)


def test_flow_map_on_seeded_polynomial_fields_takes_few_quadratures(quadratures):
    # the closed-form inverse of the formal time is Newton's start; from the
    # leading-term guess alone this read 2.87 quadratures per map
    maps = total = 0
    for X, x0, t in _seeded_maps():
        quadratures[0] = 0
        flow_map(X, x0, t)
        maps, total = maps + 1, total + quadratures[0]
    assert maps == 150 and total / maps <= 1.3


def test_flow_map_integrates_once_on_the_workload_generators(quadratures):
    # the order-3 generators of `quadratic` and of the benchmark's seeded
    # germs x - a x^2 + b x^3, at the times of x in [1e-5, 1e-2]
    jets = [quadratic().jet_fn(3)] + [Jet.of(1, -F(a, 4), F(b, 4)) for a in range(2, 9) for b in range(-4, 5)]
    for jet in jets:
        Y = field_from_jet(germ_to_field(jet))
        for x in np.geomspace(1e-5, 1e-2, 7):
            t = tau(Y, 0.1, x)
            quadratures[0] = 0
            z = flow_map(Y, 0.1, t)
            assert quadratures[0] == 1, (jet, x)
            assert abs(z - x) <= 1e-12 * x


def test_away_from_zero_time_maps_start_from_the_formal_time(quadratures):
    # the sign probes at x_max or toward the zero 1/3 of y^2 - 3 y^3 count;
    # from the leading-term guess these maps took 5 to 6 quadratures
    from scipy.optimize import brentq

    closed = {
        "e": ({2: 1, 3: -3}, lambda z: -1 / z + 3 * math.log(z) - 3 * math.log(1 - 3 * z), 1 / 3 - 1e-15),
        "g": ({2: 1, 3: 1}, lambda z: -1 / z - math.log(z) + math.log(1 + z), 1.0),
    }
    for name, (coeffs, T, end) in closed.items():
        X = field_from_coeffs(name, coeffs)
        for t in (0.5, 1.0, 5.0):
            quadratures[0] = 0
            z = flow_map(X, 0.1, t)
            assert quadratures[0] <= 3, (name, t)
            ref = brentq(lambda w: T(w) - T(0.1) - t, 0.1, end, xtol=1e-300, rtol=1e-15)
            assert abs(z - ref) <= 1e-12 * ref


def test_tau_on_a_monomial_field_needs_no_quadrature(monkeypatch):
    # the exact remainder is 0: tau is the Laurent antiderivative difference
    # plus the signed zero that the quadrature of the zero integrand gives
    from germres import _solvers

    fields = [catalog_field(tag) for tag in ("neg_x2", "neg_2x2", "neg_x3", "x2")]
    fields += [field_from_coeffs("gen", {2: -1}), field_from_coeffs("gen", {3: F(-1, 2)})]
    points = (0.4, 0.1, 0.03, 1e-3, 1e-5, 1e-7)
    cases = [
        (X, x0, x)
        for X in fields
        for x0 in points
        for x in points + (math.nextafter(x0, 1.0),)
        if x0 != x and max(x0, x) <= X.x_max
    ]

    def quadrature_tau(X, x0, x):
        sch, top = X._formal_time, max(x0, x)
        corr = _solvers.qagse(sch.integrand, math.log(x0 / top), math.log(x / top), top, sch.epsabs, sch.epsrel, 200)[0]
        return (sch.antiderivative(x) - sch.antiderivative(x0)) + corr

    expected = [repr(quadrature_tau(*case)) for case in cases]

    def refused(*args):
        raise AssertionError("qagse called")

    monkeypatch.setattr(_solvers, "qagse", refused)
    assert [repr(tau(*case)) for case in cases] == expected and len(cases) > 150


def test_flow_map_within_four_ulps_of_mpmath_roots_on_seeded_fields():
    # the reference: one Newton step at 50 digits from the float root, on
    # tau integrated by mpmath in s = log y (its error estimate checked)
    import mpmath

    worst = 0.0
    with mpmath.workdps(50):
        for X, x0, t in _seeded_maps():
            cs = {n: mpmath.mpf(c.numerator) / c.denominator for n, c in enumerate(X.jet.coeffs, 2) if c}

            def field(y):
                return mpmath.fsum(c * y**n for n, c in cs.items())

            z = flow_map(X, x0, t)
            zm = mpmath.mpf(z)
            value, error = mpmath.quad(
                lambda s: mpmath.exp(s) / field(mpmath.exp(s)), [mpmath.log(x0), mpmath.log(zm)], error=True
            )
            assert error <= mpmath.mpf(10) ** -35 * max(1, abs(value))
            ref = zm - (value - t) * field(zm)
            worst = max(worst, float(abs(zm - ref)) / math.ulp(float(ref)))
    assert worst <= 4.0, worst


def test_a_field_at_the_bit_limit_falls_back_to_the_leading_term_guess():
    # S = 1 + 2^510 y takes 512 bits; its Laurent part fits in floats, but
    # E_3 = -2^1530 of the series of 1/S does not, so there is no series
    X = field_from_coeffs("b", {2: -1, 3: -(2 ** (MAX_POLY_BITS - 2))})
    formal = X._formal_time
    assert formal._parts is None and not formal.monomial
    assert formal.inverse(1e-170, 1e170, 5e-171, 0.0, 1e-170) == 5e-171
    for t in (0.5e170, 2e170, 1e172):
        z = flow_map(X, 1e-170, t)
        assert abs(z - reference_flow_map(X, 1e-170, t)) <= 4 * np.finfo(float).eps * z


def test_a_counting_wrapper_on_a_szekeres_evaluator_counts_every_node():
    # the split inlines the generated Szekeres kernel into its integrand;
    # a plain wrapper or one that copies the kernel's body record (as
    # functools.wraps does) is called at every quadrature node
    import functools

    from germres._solvers import qagse

    def copying(fn):
        calls = [0]

        @functools.wraps(fn)
        def wrapper(x):
            calls[0] += 1
            return fn(x)

        assert wrapper._germres_body is fn._germres_body
        return wrapper, calls

    increment, steps = counting(moebius().increment)
    X = szekeres_numeric_field(dataclasses.replace(moebius(), increment=increment), 10)
    sch = X._formal_time
    nodes = qagse(sch.integrand, math.log(1e-3 / 0.1), 0.0, 0.1, sch.epsabs, sch.epsrel, 200)[2]
    assert nodes % 21 == 0 and steps == [10 * nodes]
    ref = tau(X, 0.1, 1e-3)
    for wrap in (counting, copying):
        func, calls = wrap(X.func)
        assert tau(dataclasses.replace(X, func=func), 0.1, 1e-3) == ref
        assert calls == [nodes]
