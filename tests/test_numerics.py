"""Numeric dynamics: time maps, Szekeres iteration, orbit estimator,
contour residues, conjugacies, diagnostics."""

import argparse
import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from germres import (
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
)

from helpers import reference_flow_map, reference_orbit_values, reference_szekeres


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
    # a black-box field whose tail is complete through c_{2 ell + 1}
    black_box = NumericField(name="bb", func=lambda y: -(y**2) - y**3, ell=1, leading=-1.0, tail=(-1.0,))
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


def test_tau_split_built_once_per_field():
    X = NumericField(name="bb", func=lambda y: -(y**2) - y**3, ell=1, leading=-1.0, tail=(-1.0,))
    split = X._tau_scheme
    assert split.d == {2: -1.0, 1: 1.0}  # 1/X = -1/y^2 + 1/y - 1 + ...
    tau(X, 0.4, 0.01)
    assert X._tau_scheme is split
    # a replaced evaluator gets a split of its own and is the one integrated
    Y = dataclasses.replace(X, func=lambda y: -(y**2) - 2 * y**3)
    assert Y._tau_scheme is not split
    # 1/(y^2 (1 + 2y)) = 1/y^2 - 2/y + 4/(1 + 2y)
    ref = 1 / 0.01 - 1 / 0.4 + 2 * math.log(0.01 / 0.4 * (1 + 2 * 0.4) / (1 + 2 * 0.01))
    assert abs(tau(Y, 0.4, 0.01) - ref) <= 1e-9 * abs(ref)
    assert abs(tau(X, 0.4, 0.01) - ref) > 1e-3


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


def test_szekeres_underflow_message_matches_the_reference():
    bad = GermSpec(
        name="collapse",
        func=lambda x: 0.5 * x,
        deriv=lambda x: 1e-30,
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
    with np.errstate(all="ignore"), pytest.raises(ContourError):
        contour_residue(lambda z: z + z * z, 1e308)


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
