"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see all
lines, or execute this file directly).

Two sub-criteria were first stated with identities that contradict the
definitions (README, "Conventions worth knowing"): ``resit = (l+1)/2 - res``
with ``res`` the scale-invariant x^(2l+1) coefficient of the normal form,
and the flow law ``resit(f^t) = resit(f)/t``.  They now assert the
identities those definitions give, and keep the old statements'
counterexamples as checks:

* 3b — reversed iterates.  The old statement resit(f^n) * |n| = resit(f)
  for n < 0 fails whenever resit(f) != 0: the flow law at t = -1 gives
  resit(f^-1) = -resit(f).  Counterexample: f = x + x^2 is its own normal
  form with res = 0, so resit(f) = 1, while f^-1 = x - x^2 + 2x^3 has
  res = 2 and resit(f^-1) = -1.  The test asserts the signed law
  resit(f^n) * n = resit(f) and the magnitude law
  |resit(f^n)| * |n| = |resit(f)|, and checks twenty draws against f^n
  built and reduced by sympy alone.
* 5b — the order-2 closed form.  The old statement
  resit(x + a x^3 + b x^4 + c x^5) = (3a^3 - b^2 - ac)/(2a^3) fails on
  x + x^3 + x^5, which is its own normal form with res = 1, so
  resit = 1/2 where the old formula gives 1.  The fixed-point index
  Res_0 dz/(z - f(z)) = c/a^2 - b^2/a^3 is a conjugacy invariant equal to
  res on the normal form, so resit = (3a^3 + 2b^2 - 2ac)/(2a^3); the test
  asserts that form and checks it against sympy's residue, the symbolic
  kill-step oracle and the numeric contour residue.  The old formula agrees
  with it exactly on the surface 3b^2 = ac.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

from germres import (
    FieldJet,
    Jet,
    canonical_conjugacy,
    catalog_field,
    compose,
    conjugate,
    contour_residue,
    divergence_diagnostic,
    estimate_resit,
    field_to_germ,
    flow_in_G,
    flow_map,
    germ_to_field,
    mod2_homs,
    moebius,
    phi,
    power,
    quadratic,
    ramified_push,
    reduce_germ,
    resad,
    schwarzian_at_origin,
    szekeres_field,
)
from helpers import (
    from_sympy,
    rand_fraction,
    rand_int_parabolic,
    rand_positive_jet,
    rand_tangent,
    rng,
    sympy_compose,
    sympy_invert,
    sympy_resit,
    sympy_truncate,
    to_sympy,
)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>3} {name}: {status}{suffix}")
    return ok


def test_criterion_01_homomorphism_suite():
    t0 = time.perf_counter()
    r = rng(101)
    pairs = 0
    cells = [(1, 3), (1, 5), (2, 5), (2, 7), (3, 7), (4, 9)]
    for ell, order in cells:
        for _ in range(1000):
            f, g = rand_tangent(r, ell, order, max_den=3), rand_tangent(r, ell, order, max_den=3)
            fg = compose(f, g)
            for i in range(1, ell + 1):
                assert phi(fg, ell, i) == phi(f, ell, i) + phi(g, ell, i)
            assert resad(fg, ell) == resad(f, ell) + resad(g, ell)
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = pairs == 1000 * len(cells) and elapsed < 10.0
    assert _line(1, "coefficient and additive-residue homomorphisms", ok,
                 f"{pairs} pairs in {elapsed:.2f}s")


def test_criterion_02_mod2_suite():
    t0 = time.perf_counter()
    r = rng(102)
    for _ in range(1000):
        order = r.choice([7, 8])
        f, g = rand_int_parabolic(r, order), rand_int_parabolic(r, order)
        bf, bg = mod2_homs(f), mod2_homs(g)
        assert mod2_homs(compose(f, g)) == ((bf[0] + bg[0]) % 2, (bf[1] + bg[1]) % 2)
    elapsed = time.perf_counter() - t0
    assert _line(2, "integer mod-2 homomorphisms", elapsed < 5.0, f"1000 pairs in {elapsed:.2f}s")


def _resit(f):
    _, report = reduce_germ(f)
    return report.resit


def test_criterion_03a_iterate_scaling_positive():
    t0 = time.perf_counter()
    r = rng(103)
    for k in range(200):
        ell = r.choice([1, 1, 2, 2, 3])
        f = rand_tangent(r, ell, 2 * ell + 1, max_den=3)
        base = _resit(f)
        for n in (1, 2, 3, 4, 5):
            assert _resit(power(f, n)) * n == base
        for t in (F(1, 2), F(3, 4), F(7, 3)):
            assert _resit(flow_in_G(f, t)) * t == base
    elapsed = time.perf_counter() - t0
    assert _line("3a", "iterate scaling, forward times", elapsed < 10.0,
                 f"200 jets in {elapsed:.2f}s")


def test_criterion_03b_iterate_scaling_negative_unsigned():
    # resit(f^t) = resit(f)/t at t = -1 flips the sign, so only magnitudes
    # obey the |n| law.  Counterexample to the unsigned one: x + x^2 is its
    # own normal form (resit 1); its inverse x - x^2 + 2x^3 has resit -1.
    f = Jet.of(1, 1, 0)
    f_inv = sympy_invert(f)
    assert f_inv == Jet.of(1, -1, 2)
    assert sympy_resit(f.coeffs) == 1 and sympy_resit(f_inv.coeffs) == -1

    r = rng(104)
    cross_checks = 0
    for k in range(200):
        ell = r.choice([1, 2])
        f = rand_tangent(r, ell, 2 * ell + 1, max_den=3)
        base = _resit(f)
        for n in (-5, -4, -3, -2, -1):
            value = _resit(power(f, n))
            assert value * n == base, (f.coeffs, n, value, base)
            assert abs(value) * abs(n) == abs(base)
        if k < 20:
            # f^n built and reduced by sympy alone, without power or invert
            oracle_base = sympy_resit(f.coeffs)
            assert oracle_base == base
            f_inv = sympy_invert(f)
            f_n = f_inv
            for n in (-1, -2, -3):
                if n < -1:
                    f_n = sympy_compose(f_n, f_inv)
                oracle = sympy_resit(f_n.coeffs)
                assert oracle * n == oracle_base, (f.coeffs, n, oracle, oracle_base)
                assert oracle == _resit(power(f, n))
                cross_checks += 1
    assert _line("3b", "iterate scaling, reversed times: signed law and |n| magnitudes",
                 True, f"200 jets x 5 exponents, {cross_checks} sympy cross-checks")


def test_criterion_04_residue_conjugacy_invariance():
    r = rng(105)
    count = 0
    for ell, reps in ((1, 250), (2, 150), (3, 60), (4, 40)):
        K = 2 * ell + 1
        for _ in range(reps):
            f = rand_tangent(r, ell, K, max_den=3)
            h = rand_positive_jet(r, K, max_den=3)
            _, rep_f = reduce_germ(f)
            _, rep_c = reduce_germ(conjugate(h, f))
            assert rep_c.res == rep_f.res
            count += 1
    assert _line(4, "residue invariance under orientation-preserving conjugacy",
                 count == 500, f"{count} pairs")


def test_criterion_05a_resit_closed_form_order_one():
    r = rng(106)
    for _ in range(200):
        a = rand_fraction(r, nonzero=True)
        b = rand_fraction(r)
        assert _resit(Jet.of(1, a, b)) == (a**2 - b) / a**2
    assert _line("5a", "order-1 closed form (a^2-b)/a^2", True, "200 draws")


def _order_two_resit(a, b, c):
    """resit of x + a x^3 + b x^4 + c x^5: 3/2 minus the fixed-point index."""
    return (3 * a**3 + 2 * b**2 - 2 * a * c) / (2 * a**3)


def _order_two_resit_as_first_stated(a, b, c):
    return (3 * a**3 - b**2 - a * c) / (2 * a**3)


def test_criterion_05b_resit_closed_form_order_two_as_stated():
    # The index Res_0 dz/(z - f(z)) is a conjugacy invariant and equals res
    # on the normal form, so resit = 3/2 - index.  Derive the closed form
    # from sympy's Laurent residue, and record how far the first statement
    # is from it: they differ by (3b^2 - ac)/(2a^3).
    z, a, b, c = sp.symbols("z a b c")
    index = sp.residue(1 / (z - (z + a * z**3 + b * z**4 + c * z**5)), z, 0)
    assert sp.simplify(sp.Rational(3, 2) - index - _order_two_resit(a, b, c)) == 0
    gap = _order_two_resit(a, b, c) - _order_two_resit_as_first_stated(a, b, c)
    assert sp.simplify(gap - (3 * b**2 - a * c) / (2 * a**3)) == 0

    # counterexample: x + x^3 + x^5 is its own normal form with res = 1
    one, zero = F(1), F(0)
    assert _resit(Jet.of(1, 0, 1, 0, 1)) == F(1, 2) == _order_two_resit(one, zero, one)
    assert _order_two_resit_as_first_stated(one, zero, one) == 1

    r = rng(107)
    worst = 0.0
    on_surface = 0
    for k in range(200):
        a = rand_fraction(r, nonzero=True)
        b, c = rand_fraction(r), rand_fraction(r)
        expected = _order_two_resit(a, b, c)
        assert _resit(Jet.of(1, 0, a, b, c)) == expected, ((a, b, c), expected)
        agrees = _order_two_resit_as_first_stated(a, b, c) == expected
        assert agrees == (3 * b**2 == a * c)
        on_surface += agrees
        if k < 10:
            assert sympy_resit((F(1), F(0), a, b, c)) == expected
        # the other fixed points solve a + b z + c z^2 = 0, so they lie
        # outside |z| = |a|/(|a| + max(|b|, |c|)); integrate on half that
        fa, fb, fc = float(a), float(b), float(c)
        radius = 0.5 * abs(fa) / (abs(fa) + max(abs(fb), abs(fc)))
        poly = lambda w: w + fa * w**3 + fb * w**4 + fc * w**5
        numeric = 1.5 - contour_residue(poly, radius, 256)
        err = abs(numeric - float(expected)) / max(1.0, abs(float(expected)))
        assert err < 1e-8, ((a, b, c), numeric, expected)
        worst = max(worst, err)
    assert _line("5b", "order-2 closed form (3a^3+2b^2-2ac)/(2a^3)", True,
                 f"200 draws, {on_surface} on 3b^2=ac, contour rel err {worst:.1e}")


def test_criterion_06_field_correspondence():
    r = rng(108)
    for ell in (1, 2, 3, 4):
        for _ in range(25):
            f = rand_tangent(r, ell, 2 * ell + 1, max_den=3)
            assert field_to_germ(germ_to_field(f), 1) == f
            X = germ_to_field(f)
            assert germ_to_field(field_to_germ(X, 1)) == X
        mu = rand_fraction(r)
        coeffs = [F(0)] * (2 * ell)
        coeffs[ell - 1] = F(1)
        coeffs[2 * ell - 1] = mu
        assert _resit(field_to_germ(FieldJet(tuple(coeffs)), 1)) == -mu
    assert germ_to_field(Jet.of(1, -1, 0)) == FieldJet.of(F(-1), F(-1))
    assert germ_to_field(Jet.of(1, -1, 1)) == FieldJet.of(F(-1), F(0))
    assert _line(6, "germ/field correspondence round trips", True)


def test_criterion_07_flow_group_law():
    r = rng(109)
    for _ in range(200):
        ell = r.choice([1, 1, 2, 3])
        f = rand_tangent(r, ell, 2 * ell + 1, max_den=3)
        s, t = rand_fraction(r, max_den=3), rand_fraction(r, max_den=3)
        assert compose(flow_in_G(f, s), flow_in_G(f, t)) == flow_in_G(f, s + t)
    assert _line(7, "one-parameter flow group law", True, "200 generators")


def test_criterion_08_ramified_relation():
    r = rng(110)
    for ell in (1, 2, 3, 4, 5):
        for _ in range(40):
            a = rand_fraction(r, nonzero=True)
            b = rand_fraction(r)
            coeffs = [F(0)] * (2 * ell + 1)
            coeffs[0], coeffs[ell], coeffs[2 * ell] = F(1), a, b
            f = Jet(tuple(coeffs))
            assert resad(ramified_push(f, ell), 1) == ell * resad(f, ell)
    assert _line(8, "ramified transport scales the additive residue", True)


def test_criterion_09_schwarzian():
    r = rng(111)
    for _ in range(200):
        f = Jet.of(1, rand_fraction(r), rand_fraction(r))
        d2, d3 = 2 * f[2], 6 * f[3]  # derivative values at 0 from the jet
        displayed = F(3, 2) * F(d2) ** 2 - F(d3)
        assert displayed == 6 * resad(f, 1)
    assert _line(9, "Schwarzian value equals 6x additive residue", True, "200 jets")


def test_criterion_10_szekeres_numeric():
    t0 = time.perf_counter()
    res_m = szekeres_field(moebius(), 0.3, n_max=10**5, tol=0.0)
    ok_m = abs(res_m.value - (-0.09)) < 1e-6
    res_q = szekeres_field(quadratic(), 0.05, n_max=10**5, tol=1e-12)
    ok_q = abs((res_q.value - (-0.002625)) / 0.002625) < 0.01
    elapsed = time.perf_counter() - t0
    ok = ok_m and ok_q and elapsed < 5.0
    assert _line(10, "iterative field values", ok,
                 f"moebius err {abs(res_m.value + 0.09):.2e}, "
                 f"quadratic rel err {abs((res_q.value + 0.002625) / 0.002625):.2e}, "
                 f"{elapsed:.2f}s")


def test_criterion_11_resit_estimator():
    t0 = time.perf_counter()
    schedule = [10**3, 10**4, 10**5, 10**6]
    est_m = estimate_resit(moebius(), 0.5, schedule)
    vals_m = [v for _n, v in est_m.samples]
    ok_m = abs(vals_m[-1]) <= 0.2 and all(
        vals_m[i] > vals_m[i + 1] for i in range(len(vals_m) - 1)
    )
    est_q = estimate_resit(quadratic(), 0.5, schedule)
    vals_q = [v for _n, v in est_q.samples]
    gaps = [abs(v - 1.0) for v in vals_q]
    ok_q = 0.7 <= vals_q[-1] <= 1.3 and all(
        gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)
    )
    elapsed = time.perf_counter() - t0
    ok = ok_m and ok_q and elapsed < 60.0
    assert _line(11, "orbit-deviation estimator bands", ok,
                 f"moebius {vals_m[-1]:.3f}, quadratic {vals_q[-1]:.3f}, {elapsed:.2f}s")


def test_criterion_12_contour_residue():
    t0 = time.perf_counter()
    f = lambda z: z + z * z + 0.7 * z**3
    values = [contour_residue(f, radius, 256) for radius in (0.1, 0.2, 0.3)]
    ok = all(abs(v - 0.7) < 1e-8 for v in values)
    ok = ok and all(abs(v - values[0]) < 1e-8 for v in values[1:])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _line(12, "contour residue, radius-stable", ok,
                 f"max dev {max(abs(v - 0.7) for v in values):.2e}, {elapsed:.2f}s")


def test_criterion_13_divergence_diagnostic():
    t0 = time.perf_counter()
    grid = [1e-2, 1e-3, 1e-4, 1e-5]
    X = catalog_field("neg_x2_x3")
    Y = catalog_field("neg_x2")
    report = divergence_diagnostic(X, Y, grid)
    ok_slope = 0.7 <= report.slope <= 1.3

    # independent oracle: integrate Dh = (Y o h)/X downward from the anchor
    x0 = max(grid)
    sol = solve_ivp(
        lambda x, h: (-h[0] ** 2) / (-x * x - x**3),
        (x0, min(grid)),
        [x0],
        t_eval=sorted(grid, reverse=True),
        rtol=1e-12,
        atol=1e-20,
        method="LSODA",
    )
    ratios = (sol.y[0] - sol.t) / sol.t**2
    us = [math.log(1.0 / x) for x in sol.t]
    oracle_slope = float(np.polyfit(us, ratios, 1)[0])
    ok_oracle = 0.7 <= oracle_slope <= 1.3 and abs(oracle_slope - report.slope) < 1e-3

    same = divergence_diagnostic(X, X, grid)
    ok_same = abs(same.slope) < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok_slope and ok_oracle and ok_same and elapsed < 10.0
    assert _line(13, "divergence diagnostic slope", ok,
                 f"slope {report.slope:.4f}, oracle {oracle_slope:.4f}, "
                 f"identical-fields {same.slope:.1e}, {elapsed:.2f}s")


def test_criterion_14_conjugacy_construction():
    X = catalog_field("neg_x2")
    Y = catalog_field("neg_2x2")
    h = canonical_conjugacy(X, Y, 0.3)
    worst = 0.0
    for x in np.linspace(0.05, 0.4, 20):
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            lhs = flow_map(Y, h(x), t)
            rhs = h(flow_map(X, x, t))
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-7
    assert _line(14, "canonical conjugacy intertwines the flows", ok, f"worst dev {worst:.2e}")


def _sympy_time_one(field, order):
    """The Lie series sum_k L_X^k(x)/k! mod x^(order+1) of a field X given
    as a sympy polynomial of order >= 2, by sympy alone."""
    x = sp.symbols("x")
    term = total = x
    for k in range(1, order + 1):
        term = sympy_truncate(field * sp.diff(term, x) / k, order)
        total += term
    return from_sympy(total, order)


def test_criterion_15_schwarzian_moves_under_c1_conjugacy():
    # the abstract's headline at l = 1: the Schwarzian at 0 takes any value
    # along g_b, the time-1 map of -x^2 + b x^3, while g_0 and g_{-1} are
    # conjugate by a C^1 parabolic h; only the l = 1 half is checked here
    t0 = time.perf_counter()
    x = sp.symbols("x")
    r = rng(115)
    for _ in range(50):
        b = rand_fraction(r)
        g = field_to_germ(FieldJet.of(-1, b), 1)
        assert g == _sympy_time_one(-(x**2) + sp.Rational(b.numerator, b.denominator) * x**3, 3)
        d2, d3 = (sp.diff(to_sympy(g), x, k).subs(x, 0) for k in (2, 3))
        # the package's sign convention, as in criterion 9
        assert schwarzian_at_origin(g) == -6 * b == F(str(sp.Rational(3, 2) * d2**2 - d3))
        assert _resit(g) == -b == sympy_resit(list(g.coeffs))

    # numerically: h from -x^2 (S = 0) to -x^2 - x^3 (S = 6) conjugates the
    # time-1 maps, f = x/(1+x) in closed form and g by solve_ivp, with Dh -> 1
    X, Y = catalog_field("neg_x2"), catalog_field("neg_x2_x3")
    assert [schwarzian_at_origin(field_to_germ(Z.jet.pad(3), 1)) for Z in (X, Y)] == [0, 6]
    h = canonical_conjugacy(X, Y, 0.1)
    worst, slopes = 0.0, []
    for k in range(2, 7):
        x0 = 10.0**-k
        hx = h(x0)
        sol = solve_ivp(lambda t, z: -z**2 - z**3, (0.0, 1.0), [hx], method="DOP853", rtol=1e-13, atol=1e-30)
        g_hx = sol.y[0][-1]
        worst = max(worst, abs(h(x0 / (1 + x0)) - g_hx) / x0)
        dh, step = h.deriv(x0), 1e-4 * x0
        assert abs((h(x0 + step) - h(x0 - step)) / (2 * step) - dh) <= 1e-6
        slopes.append((dh - 1) / (x0 * math.log(1 / x0)))
    # Dh - 1 ~ c x log(1/x): h is C^1 with Dh(0) = 1, and not C^2 (its /x^2
    # ratio grows, criterion 13), as it cannot be: S(g_0) != S(g_-1), and a
    # C^2 parabolic conjugacy keeps S
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and all(-2.0 < v < -0.5 for v in slopes) and elapsed < 10.0
    assert _line(15, "Schwarzian moves under a C^1 parabolic conjugacy (l = 1)", ok,
                 f"|h f - g h|/x <= {worst:.1e}, (Dh-1)/(x log(1/x)) {slopes[0]:.2f}..{slopes[-1]:.2f}, "
                 f"{elapsed:.2f}s")


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
