"""Flows in truncated groups, the germ/field correspondence, powers, and
the ramified transport."""

from fractions import Fraction as F

import pytest

from germres import (
    FieldJet,
    Jet,
    compose,
    conjugate,
    field_to_germ,
    flow_in_G,
    germ_to_field,
    invert,
    power,
    pullback_field,
    ramified_push,
    reduce_germ,
    resad,
)
from germres.catalog import moebius, ramified_flow
from germres.flows import _formal_log
from helpers import (
    closed_form_flow,
    closed_form_generator,
    rand_fraction,
    rand_int_parabolic,
    rand_parabolic,
    rand_tangent,
    reference_field_to_germ,
    reference_germ_to_field,
    rng,
    sympy_compose,
    sympy_invert,
)


def test_flow_time_one_recovers_generator():
    r = rng(31)
    for ell in (1, 2, 3):
        f = rand_tangent(r, ell, 2 * ell + 3)
        assert flow_in_G(f, 1) == f.truncate(2 * ell + 1)


def test_flow_and_generator_match_closed_forms():
    # the closed forms of README "Conventions worth knowing", evaluated outside
    # the package, on jets longer than 2*ell+1 (the flow reads only the truncation)
    r = rng(40)
    for ell in (1, 2, 3, 4):
        for _ in range(5):
            f = rand_tangent(r, ell, 2 * ell + 1 + r.randint(1, 3))
            assert germ_to_field(f) == closed_form_generator(f, ell)
            times = (
                F(0),
                -abs(rand_fraction(r, nonzero=True)),
                abs(rand_fraction(r, nonzero=True)),
                rand_fraction(r, lo=-40, hi=40, max_den=9),
            )
            for t in times:
                assert flow_in_G(f, t) == closed_form_flow(f, ell, t)


def test_flow_time_zero_is_identity():
    f = Jet.of(1, 1, 1)
    assert flow_in_G(f, 0) == Jet.identity(3)


def test_flow_integer_time_top_coefficient():
    # f = x + x^2 + mu x^3: the x^3 coefficient mu_n of f^n satisfies
    # n^2 - mu_n = n * resit(f)
    r = rng(32)
    mu = rand_fraction(r)
    f = Jet.of(1, 1, mu)
    resit = 1 - mu
    for n in (-3, -1, 2, 5):
        mu_n = flow_in_G(f, n)[3]
        assert F(n * n) - mu_n == n * resit


def test_flow_group_law():
    r = rng(33)
    for _ in range(40):
        ell = r.choice([1, 2])
        f = rand_tangent(r, ell, 2 * ell + 1)
        s, t = rand_fraction(r), rand_fraction(r)
        assert compose(flow_in_G(f, s), flow_in_G(f, t)) == flow_in_G(f, s + t)


def test_flow_matches_integer_powers():
    r = rng(34)
    for ell in (1, 2):
        f = rand_tangent(r, ell, 2 * ell + 1)
        for n in range(-4, 5):
            assert flow_in_G(f, n) == power(f, n).truncate(2 * ell + 1)


def test_flow_resit_scaling():
    # resit(f^t) = resit(f)/t, signed in t like the iterate relation
    r = rng(35)
    for _ in range(15):
        ell = r.choice([1, 2])
        f = rand_tangent(r, ell, 2 * ell + 1)
        _, rep = reduce_germ(f)
        for t in (F(1, 2), F(-2, 3), F(5, 4), 3):
            _, rep_t = reduce_germ(flow_in_G(f, t))
            assert rep_t.resit * F(t) == rep.resit


def test_flow_rejects_float_time():
    with pytest.raises(TypeError):
        flow_in_G(Jet.of(1, 1, 0), 0.5)


def test_power_examples():
    f = Jet.of(1, -1, 0, 0)
    assert power(f, 2) == sympy_compose(f, f)
    assert power(f, 0) == Jet.identity(4)
    assert power(f, -1) == invert(f)
    assert power(f, -3) == invert(compose(f, compose(f, f)))

    # exponents +-1..+-9 against chains of sympy compositions: an integer
    # jet, a non-parabolic jet and a rational tangent jet
    r = rng(30)
    for g in (rand_int_parabolic(r, 4), Jet.of(2, F(-1, 3), 1, F(1, 2)), rand_tangent(r, 2, 5)):
        for sign, base in ((1, g), (-1, sympy_invert(g))):
            chain = base
            for n in range(1, 10):
                p = power(g, sign * n)
                assert p.carrier == g.carrier
                assert p.coeffs == chain.coeffs
                chain = sympy_compose(chain, base)


def test_germ_to_field_examples():
    assert germ_to_field(Jet.of(1, -1, 0)) == FieldJet.of(F(-1), F(-1))
    assert germ_to_field(Jet.of(1, -1, 1, -1)) == FieldJet.of(F(-1), F(0))
    mu = F(2, 7)
    X = germ_to_field(Jet.of(1, 1, mu))
    assert X == FieldJet.of(F(1), mu - 1)  # x^2 - (1 - mu) x^3


def test_field_to_germ_moebius():
    X = FieldJet.of(F(-1), F(0))
    assert field_to_germ(X, 1) == Jet.of(1, -1, 1)
    assert field_to_germ(X, 0) == Jet.identity(3)
    # rational time: jet of x/(1+tx) at t = 1/2
    t = F(1, 2)
    assert field_to_germ(X, t) == Jet.of(1, -t, t * t)


def test_field_to_germ_normal_form_resit():
    r = rng(36)
    for ell in (1, 2, 3):
        mu = rand_fraction(r)
        coeffs = [F(0)] * (2 * ell)
        coeffs[ell - 1] = F(1)
        coeffs[2 * ell - 1] = mu
        f = field_to_germ(FieldJet(tuple(coeffs)), 1)
        _, rep = reduce_germ(f)
        assert rep.resit == -mu


def test_round_trips():
    r = rng(37)
    for ell in (1, 2, 3, 4):
        f = rand_tangent(r, ell, 2 * ell + 1)
        assert field_to_germ(germ_to_field(f), 1) == f
        X = germ_to_field(f)
        assert germ_to_field(field_to_germ(X, 1)) == X


def test_naturality_under_tangent_conjugation():
    # conjugating by an ell-tangent parabolic h transports the generator by
    # the pullback along h^{-1}
    r = rng(38)
    for ell in (1, 2):
        K = 2 * ell + 1
        f = rand_tangent(r, ell, K)
        h = rand_tangent(r, ell, K)
        lhs = germ_to_field(conjugate(h, f))
        rhs = pullback_field(invert(h), germ_to_field(f))
        assert lhs == rhs


def test_ramified_push_identity_at_order_one():
    f = Jet.of(1, F(3, 2), F(-1, 3))
    assert ramified_push(f, 1) == f


def test_ramified_push_order_two():
    a, b = F(2, 3), F(-5, 4)
    f = Jet.of(1, 0, a, 0, b)
    assert ramified_push(f, 2) == Jet.of(1, 2 * a, 2 * b + a**2)


def test_ramified_push_residue_relations():
    r = rng(39)
    for ell in (1, 2, 3, 4, 5):
        a = rand_fraction(r, nonzero=True)
        b = rand_fraction(r)
        coeffs = [F(0)] * (2 * ell + 1)
        coeffs[0] = F(1)
        coeffs[ell] = a
        coeffs[2 * ell] = b
        f = Jet(tuple(coeffs))
        out = ramified_push(f, ell)
        assert resad(out, 1) == ell * resad(f, ell)
        _, rep_f = reduce_germ(f)
        _, rep_out = reduce_germ(out)
        assert rep_out.resit == rep_f.resit / ell


def test_ramified_push_integer_carrier():
    f = Jet.of(1, 0, 2, 0, 3, carrier="integer")
    out = ramified_push(f, 2)
    assert out.carrier == "integer"
    assert out == Jet.of(1, 4, 10, carrier="integer")


def test_ramified_push_rejects_unreduced():
    with pytest.raises(Exception):
        ramified_push(Jet.of(1, 1, 1, 0, 1), 2)  # a_2 != 0 is not reduced shape


# -- the integer-kernel series against the Fraction loops they replace -------


def _drawn(r, digits):
    """p/q with |p| and q up to 10^digits, zero about one time in four."""
    if r.random() < 0.25:
        return F(0)
    return F(r.randint(-(10**digits), 10**digits), r.randint(1, 10**digits))


def _drawn_time(r, case):
    """Small, negative, 30-digit, negative 30-digit, integer or zero times in turn."""
    big = F(r.randint(10**29, 10**30), r.randint(10**29, 10**30))
    return (abs(rand_fraction(r)), -abs(rand_fraction(r, nonzero=True)), big, -big, F(r.randint(-5, 5)), F(0))[case % 6]


def _drawn_tangent(r, ell, order, digits):
    """Exactly ell-tangent jet with drawn coefficients above degree ell + 1."""
    lead = F(0)
    while not lead:
        lead = _drawn(r, digits)
    return Jet((F(1),) + (F(0),) * (ell - 1) + (lead,) + tuple(_drawn(r, digits) for _ in range(order - ell - 1)))


def _all_fractions(s):
    return all(type(c) is F for c in s.coeffs)


@pytest.mark.parametrize("ell", range(1, 9))
def test_germ_to_field_equals_the_fraction_loop(ell):
    r = rng(700 + ell)
    for case in range(20):
        f = _drawn_tangent(r, ell, 2 * ell + 1 + case % 3, (1, 30)[case % 2])
        X = germ_to_field(f)
        assert X == reference_germ_to_field(f)
        assert _all_fractions(X)


@pytest.mark.parametrize("K", range(2, 34))
def test_field_to_germ_equals_the_fraction_loop(K):
    r = rng(800 + K)
    for case in range(3):
        X = FieldJet(tuple(_drawn(r, (1, 30)[(K + case) % 2]) for _ in range(K - 1)))
        t = _drawn_time(r, K + case)
        g = field_to_germ(X, t)
        assert g == reference_field_to_germ(X, t)
        assert _all_fractions(g)


def test_field_to_germ_of_the_zero_field_is_the_identity():
    r = rng(900)
    for K in (2, 3, 9, 17, 33):
        for case in range(6):
            g = field_to_germ(FieldJet.zero(K), _drawn_time(r, case))
            assert g == reference_field_to_germ(FieldJet.zero(K), 1) == Jet.identity(K)
            assert _all_fractions(g)


@pytest.mark.parametrize("ell", range(1, 9))
def test_flow_in_G_equals_the_fraction_loops(ell):
    r = rng(1000 + ell)
    for case in range(6):
        f = _drawn_tangent(r, ell, 2 * ell + 1 + case % 2, (1, 30)[case % 2])
        t = _drawn_time(r, case)
        g = flow_in_G(f, t)
        assert g == reference_field_to_germ(reference_germ_to_field(f), t)
        assert _all_fractions(g)


@pytest.mark.parametrize("K", (17, 33))
def test_formal_log_at_order_K_of_exact_flows(K):
    minus_x2 = FieldJet.of(-1).pad(K)
    assert _formal_log(moebius().jet_fn(K), K) == minus_x2
    for ell in (1, 2, 3, 5):
        for t in (F(1), F(3, 2), F(10**30 + 1, 7)):
            X = _formal_log(ramified_flow(ell, t).jet_fn(K), K)
            assert X == FieldJet.from_dense([0] * (ell + 1) + [-t / ell] + [0] * (K - ell - 1))


@pytest.mark.parametrize("K", (17, 33))
def test_formal_log_at_order_K_is_inverted_by_the_lie_series(K):
    r = rng(1100 + K)
    jets = [moebius().jet_fn(K + 2), ramified_flow(2, F(5, 3)).jet_fn(K)]
    jets += [rand_parabolic(r, K + case % 3) for case in range(3)]
    jets += [_drawn_tangent(r, ell, K + 1, digits) for ell, digits in ((1, 1), (4, 30), (8, 30))]
    for f in jets:
        X = _formal_log(f, K)
        assert field_to_germ(X, 1) == f.truncate(K)
        assert _all_fractions(X)
    # the Fraction loop over plain-Fraction substitution takes ~0.6 s on an
    # 8-tangent jet at K = 33 and ~5 s on a 1-tangent one
    for f in jets[2:] if K == 17 else jets[-1:]:
        assert _formal_log(f, K) == reference_germ_to_field(f, K)
