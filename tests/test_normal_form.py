"""Normal-form reduction of germ and field jets; Res/Resit extraction."""

from fractions import Fraction as F

import pytest

from germres import (
    CarrierMismatch,
    FieldJet,
    Jet,
    OrderError,
    TangencyError,
    conjugate,
    germ_to_field,
    invert,
    power,
    pullback_field,
    reduce_field,
    reduce_germ,
    residue_report,
    tangency_order,
)
from helpers import rand_fraction, rand_positive_jet, rand_tangent, rng, sympy_resit


def test_tangency_examples():
    tc = tangency_order(Jet.of(1, -1))
    assert (tc.ell, tc.exact) == (1, True)
    tc = tangency_order(Jet.identity(5))
    assert (tc.ell, tc.exact) == (5, False)
    tc = tangency_order(Jet.of(1, 0, 0, 2, 1))
    assert (tc.ell, tc.exact) == (3, True)
    with pytest.raises(TangencyError):
        tangency_order(Jet.of(2, 1))


def test_reduce_germ_order1_closed_form():
    r = rng(21)
    for _ in range(80):
        a = rand_fraction(r, nonzero=True)
        b = rand_fraction(r)
        _, report = reduce_germ(Jet.of(1, a, b))
        assert report.resit == (a**2 - b) / a**2
        assert report.res == b / a**2
        assert report.expanding == (a > 0)


def test_reduce_germ_order2_matches_symbolic_oracle():
    r = rng(22)
    for _ in range(12):
        a = rand_fraction(r, nonzero=True, max_den=2)
        b = rand_fraction(r, max_den=2)
        c = rand_fraction(r, max_den=2)
        f = Jet.of(1, 0, a, b, c)
        _, report = reduce_germ(f)
        assert report.resit == sympy_resit(list(f.coeffs))
        # closed form of the reduction: (3a^3 + 2b^2 - 2ac) / (2a^3)
        assert report.resit == (3 * a**3 + 2 * b**2 - 2 * a * c) / (2 * a**3)


def test_reduce_germ_ramified_time_one_has_zero_resit():
    # x/(1+x^2)^(1/2) = x - x^3/2 + 3x^5/8 - ... embeds in a flow, so its
    # iterative residue vanishes
    f = Jet.of(1, 0, F(-1, 2), 0, F(3, 8))
    _, report = reduce_germ(f)
    assert report.resit == 0


def test_reduce_germ_already_reduced():
    r = rng(23)
    for ell in (1, 2, 3, 4):
        mu = rand_fraction(r)
        coeffs = [F(0)] * (2 * ell + 1)
        coeffs[0] = F(1)
        coeffs[ell] = F(1)
        coeffs[2 * ell] = mu
        trace, report = reduce_germ(Jet(tuple(coeffs)))
        assert report.res == mu
        assert trace.reduced == Jet(tuple(coeffs))
        assert all(alpha == 0 for _deg, alpha in trace.steps)


def test_reduce_germ_trace_invariant():
    r = rng(24)
    for ell in (2, 3):
        f = rand_tangent(r, ell, 2 * ell + 2)
        trace, _ = reduce_germ(f)
        assert conjugate(trace.conjugator, f) == trace.reduced
        for n in range(ell + 2, 2 * ell + 1):
            assert trace.reduced[n] == 0


def test_kill_step_alpha_is_unique():
    # the alpha recorded at each step is the only value that kills its
    # target coefficient: the dependence is linear with nonzero slope
    r = rng(224)
    f = rand_tangent(r, 3, 7)
    trace, _ = reduce_germ(f)
    for degree, alpha in trace.steps:
        h_good = Jet((1,) + (0,) * (degree - 2) + (alpha,) + (0,) * (7 - degree))
        h_off = Jet((1,) + (0,) * (degree - 2) + (alpha + 1,) + (0,) * (7 - degree))
        target = 3 + degree  # ell + j
        killed = conjugate(h_good, _partial_reduce(f, trace, degree))[target]
        missed = conjugate(h_off, _partial_reduce(f, trace, degree))[target]
        assert killed == 0
        assert missed != 0


def _partial_reduce(f, trace, upto_degree):
    g = f
    for degree, alpha in trace.steps:
        if degree >= upto_degree:
            break
        h = Jet((1,) + (0,) * (degree - 2) + (alpha,) + (0,) * (f.order - degree))
        g = conjugate(h, g)
    return g


def test_reduce_germ_idempotent():
    r = rng(25)
    f = rand_tangent(r, 3, 7)
    trace, report = reduce_germ(f)
    trace2, report2 = reduce_germ(trace.reduced)
    assert trace2.reduced == trace.reduced
    assert report2.res == report.res


def test_res_invariant_under_orientation_preserving_conjugacy():
    r = rng(26)
    for _ in range(60):
        ell = r.choice([1, 1, 2, 2, 3])
        K = 2 * ell + 1
        f = rand_tangent(r, ell, K)
        h = rand_positive_jet(r, K)
        _, rep_f = reduce_germ(f)
        _, rep_c = reduce_germ(conjugate(h, f))
        assert rep_c.res == rep_f.res
        assert rep_c.resit == rep_f.resit


def test_resit_iteration_scaling():
    # resit(f^n) = resit(f)/n, signed: passing to the inverse swaps
    # expanding and contracting and flips the sign
    r = rng(27)
    for _ in range(20):
        ell = r.choice([1, 2])
        f = rand_tangent(r, ell, 2 * ell + 1)
        _, rep = reduce_germ(f)
        for n in (-3, -2, -1, 2, 3):
            _, rep_n = reduce_germ(power(f, n))
            assert rep_n.resit * n == rep.resit


def test_resit_of_inverse_flips_sign():
    a, b = F(2), F(5)
    f = Jet.of(1, a, b)
    _, rep = reduce_germ(f)
    _, rep_inv = reduce_germ(invert(f))
    assert rep_inv.resit == -rep.resit
    assert rep_inv.expanding != rep.expanding


def test_reduce_germ_preconditions():
    with pytest.raises(TangencyError):
        reduce_germ(Jet.identity(5))
    with pytest.raises(OrderError):
        reduce_germ(Jet.of(1, 0, 1, 0))  # ell=2 needs order 5
    with pytest.raises(Exception):
        reduce_germ(Jet.of(1, 1, 1, carrier="integer"))


def test_reduce_field_examples():
    _, mu = reduce_field(FieldJet.of(F(1), F(1)))
    assert mu == 1
    _, mu = reduce_field(FieldJet.of(F(-1), F(-1)))
    assert mu == -1
    # ell=2 with one kill: x^3 + x^4 + x^5 -> mu = c - b^2/a = 1 - 1 = 0
    _, mu = reduce_field(FieldJet.of(F(0), F(1), F(1), F(1)))
    assert mu == 0


def test_reduce_field_trace_invariant():
    r = rng(28)
    for ell in (2, 3):
        K = 2 * ell + 1
        coeffs = [F(0)] * (K - 1)
        coeffs[ell - 1] = rand_fraction(r, nonzero=True)
        for n in range(ell + 2, K + 1):
            coeffs[n - 2] = rand_fraction(r)
        X = FieldJet(tuple(coeffs))
        trace, mu = reduce_field(X)
        assert pullback_field(trace.conjugator, X) == trace.reduced
        assert trace.reduced[2 * ell + 1] == mu * trace.reduced[ell + 1] ** 2
        for n in range(ell + 2, 2 * ell + 1):
            assert trace.reduced[n] == 0


def test_field_mu_is_minus_resit():
    r = rng(29)
    for _ in range(30):
        ell = r.choice([1, 2, 3])
        f = rand_tangent(r, ell, 2 * ell + 1)
        _, rep = reduce_germ(f)
        _, mu = reduce_field(germ_to_field(f))
        assert mu == -rep.resit


def test_reduce_field_rejects_zero():
    with pytest.raises(TangencyError):
        reduce_field(FieldJet.of(F(0), F(0)))


def test_fixed_point_index_agrees_with_the_kill_staircase():
    # residue_report reads res from the fixed-point index, the staircase
    # leaves it as the ratio a'_{2ell+1} / a_{ell+1}^2 of the reduced jet;
    # each side is the other's oracle
    r = rng(30)
    for _ in range(40):
        ell = r.randint(1, 16)
        f = rand_tangent(r, ell, r.randint(2 * ell + 1, 33))
        trace, report = reduce_germ(f)
        g = trace.reduced
        assert residue_report(f) == report
        assert report.res == g[2 * ell + 1] / g[ell + 1] ** 2
    for _ in range(40):
        ell = r.randint(1, 8)
        K = r.randint(2 * ell + 1, 33)
        coeffs = [F(0)] * (K - 1)
        coeffs[ell - 1] = rand_fraction(r, nonzero=True)
        for n in range(ell + 2, K + 1):
            coeffs[n - 2] = rand_fraction(r)
        trace, mu = reduce_field(FieldJet(tuple(coeffs)))
        Y = trace.reduced
        assert mu == Y[2 * ell + 1] / Y[ell + 1] ** 2


def test_residue_report_preconditions_in_order():
    # the carrier is checked first, then the tangency, then the order
    with pytest.raises(CarrierMismatch):
        residue_report(Jet.of(1, 0, 0, carrier="integer"))
    with pytest.raises(TangencyError):
        residue_report(Jet.identity(3))
    with pytest.raises(TangencyError):
        residue_report(Jet.of(2, 1, 0))
    with pytest.raises(OrderError):
        residue_report(Jet.of(1, 0, 1, 0))
