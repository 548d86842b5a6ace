"""Exact jet algebra: group laws, inversion, conjugation, field pullback."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germres import (
    CarrierMismatch,
    FieldJet,
    Jet,
    NotInvertible,
    OrderError,
    compose,
    conjugate,
    invert,
    jet_from_json,
    jet_to_json,
    field_from_json,
    jets,
    pullback_field,
)
from germres.jets import CoefficientError
from helpers import (
    fraction_mul,
    fraction_subst,
    quartic_invert,
    rand_int_jet,
    rand_jet,
    rand_parabolic,
    rand_tangent,
    rng,
    sympy_compose,
    sympy_conjugate,
    sympy_invert,
)


def test_compose_quadratic_square():
    f = Jet.of(1, -1, 0, 0)
    assert compose(f, f) == Jet.of(1, -2, 2, -1)


def test_compose_identity_right_and_left():
    r = rng(1)
    f = rand_jet(r, 6)
    e = Jet.identity(6)
    assert compose(f, e) == f
    assert compose(e, f) == f


def test_compose_min_order():
    f = rand_jet(rng(2), 7)
    g = rand_jet(rng(3), 4)
    assert compose(f, g).order == 4


def test_compose_tangent_top_coefficient():
    # for ell-tangent f, g the x^{2ell+1} coefficient of f o g is
    # a + a' + (ell+1) * a_{ell+1} * a'_{ell+1}
    r = rng(4)
    for ell in (1, 2, 3):
        K = 2 * ell + 1
        f, g = rand_tangent(r, ell, K), rand_tangent(r, ell, K)
        fg = compose(f, g)
        assert fg[K] == f[K] + g[K] + (ell + 1) * f[ell + 1] * g[ell + 1]
        for n in range(ell + 1, 2 * ell + 1):
            assert fg[n] == f[n] + g[n]


def test_compose_matches_sympy_oracle():
    r = rng(5)
    for order in (3, 5, 8):
        f, g = rand_jet(r, order), rand_jet(r, order)
        assert compose(f, g) == sympy_compose(f, g)


def test_invert_examples():
    assert invert(Jet.of(1, 1, 0)) == Jet.of(1, -1, 2)
    e = Jet.identity(5)
    assert invert(e) == e
    assert invert(Jet.of(2, 0)) == Jet.of(F(1, 2), 0)


def test_invert_matches_sympy_oracle():
    r = rng(6)
    for order in (4, 7):
        f = rand_jet(r, order)
        assert invert(f) == sympy_invert(f)


def test_invert_integer_carrier():
    f = Jet.of(1, 5, -7, 2, carrier="integer")
    g = invert(f)
    assert g.carrier == "integer"
    assert compose(f, g) == Jet.identity(4, carrier="integer")
    assert compose(g, f) == Jet.identity(4, carrier="integer")
    h = Jet.of(-1, 3, 3, carrier="integer")
    assert compose(h, invert(h)).is_identity()


def test_invert_matches_quartic_oracle():
    # rational jets, rational jets with a_1 != 1, integer jets with a_1 = +-1
    r = rng(21)
    for K in range(1, 41):
        scaled = rand_jet(r, K)
        if scaled[1] == 1:
            scaled = Jet((F(-3, 2),) + scaled.coeffs[1:])
        for f in (rand_parabolic(r, K), scaled, rand_int_jet(r, K)):
            assert invert(f) == quartic_invert(f)


def test_invert_makes_no_composition(monkeypatch):
    def refuse(f, g):
        raise AssertionError("invert called compose")

    f = rand_jet(rng(22), 12)
    expected = invert(f)
    monkeypatch.setattr(jets, "compose", refuse)
    assert invert(f) == expected


def _dense_cases(r):
    """Dense inputs over ints and Fractions: small, large (~100-bit)
    coefficients, all-zero rows and rows with zero stretches."""
    def entry(kind):
        if kind == "big":
            return F(r.randint(-(10**30), 10**30), r.randint(1, 10**12))
        if kind == "int":
            return r.randint(-(10**25), 10**25)
        return F(r.randint(-9, 9), r.randint(1, 4))

    for _ in range(150):
        kind = r.choice(("small", "big", "int"))
        rows = []
        for _ in range(2):
            n = r.randint(1, 18)
            if r.random() < 0.15:
                row = [F(0) if kind != "int" else 0] * n
            else:
                row = [entry(kind) if r.random() < 0.6 else 0 for _ in range(n)]
            rows.append(row)
        yield rows[0], rows[1], r.randint(0, 20)


def test_mul_matches_fraction_reference():
    for a, b, K in _dense_cases(rng(23)):
        out = jets._mul(a, b, K)
        assert len(out) == K + 1
        assert out == fraction_mul(a, b, K)
        if all(type(c) is int for c in a + b):
            assert all(type(c) is int for c in out)


def test_subst_matches_fraction_reference():
    for p, g, K in _dense_cases(rng(24)):
        g = [0] + g[1:]
        out = jets._subst(p, g, K)
        assert len(out) == K + 1
        assert out == fraction_subst(p, g, K)
        if all(type(c) is int for c in p + g):
            assert all(type(c) is int for c in out)


def test_recip_times_input_is_one():
    r = rng(25)
    for K in range(0, 20):
        a = [F(r.choice((-3, -1, 2, 5)), r.randint(1, 4))] + [F(r.randint(-9, 9), r.randint(1, 4)) for _ in range(K)]
        assert fraction_mul(a, jets._recip(a, K), K) == [1] + [0] * K
        ints = [r.choice((1, -1))] + [r.randint(-9, 9) for _ in range(K)]
        inv = jets._recip(ints, K)
        assert all(type(c) is int for c in inv)
        assert fraction_mul(ints, inv, K) == [1] + [0] * K


def test_integer_carrier_refuses_nonunit():
    with pytest.raises(NotInvertible):
        Jet.of(2, 1, carrier="integer")


def test_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        compose(Jet.of(1, 1), Jet.of(1, 1, carrier="integer"))


def test_conjugate_by_homothety():
    h = Jet.of(2, 0, 0)
    f = Jet.of(1, -1, 0)
    assert conjugate(h, f) == Jet.of(1, F(-1, 2), 0)


def test_conjugate_identity():
    f = rand_jet(rng(7), 5)
    assert conjugate(Jet.identity(5), f) == f


def test_conjugate_kill_step_coefficients():
    # h = x + alpha x^2 against x + a x^3 + b x^4 + c x^5: the x^4
    # coefficient moves to b - a*alpha (oracle-derived; the alpha sign is
    # what reduce_germ's kill step solves against)
    a, b, c, alpha = F(3), F(5), F(7), F(2)
    h = Jet.of(1, alpha, 0, 0, 0)
    f = Jet.of(1, 0, a, b, c)
    g = conjugate(h, f)
    assert g[2] == 0
    assert g[3] == a
    assert g[4] == b - a * alpha
    assert g[5] == c - 2 * b * alpha + a * alpha**2
    assert g == sympy_conjugate(h, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10**6))
def test_associativity(order, seed):
    r = rng(seed)
    f, g, e = (rand_jet(r, order, max_den=3) for _ in range(3))
    assert compose(compose(f, g), e) == compose(f, compose(g, e))


def test_associativity_bulk():
    r = rng(8)
    for _ in range(1000):
        order = r.randint(3, 9)
        f, g, e = (rand_jet(r, order, max_den=3) for _ in range(3))
        assert compose(compose(f, g), e) == compose(f, compose(g, e))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_group_inverse(order, seed):
    r = rng(seed)
    f = rand_jet(r, order)
    e = Jet.identity(order)
    assert compose(f, invert(f)) == e
    assert compose(invert(f), f) == e


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(2, 7), st.integers(0, 10**6))
def test_truncation_coherence(order, k, seed):
    if k > order:
        order, k = k, order
    r = rng(seed)
    f, g = rand_jet(r, order), rand_jet(r, order)
    assert compose(f, g).truncate(k) == compose(f.truncate(k), g.truncate(k))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_tangent_subgroup_closure(ell, seed):
    r = rng(seed)
    order = 2 * ell + 2
    f, g = rand_tangent(r, ell, order), rand_tangent(r, ell, order)
    assert compose(f, g).is_tangent(ell)
    assert invert(f).is_tangent(ell)


def test_pullback_identity():
    X = FieldJet.of(F(2), F(-3), F(1, 2))
    assert pullback_field(Jet.identity(4), X) == X


def test_pullback_kill_formula():
    # x + a x^{s+1} moves the x^{ell+s+1} coefficient of
    # x^{ell+1} + alpha_s x^{ell+s+1} to (ell-s) a + alpha_s
    r = rng(9)
    for ell in (2, 3):
        for s in range(1, ell):
            a = F(r.randint(-5, 5), r.randint(1, 3))
            alpha_s = F(r.randint(-5, 5), r.randint(1, 3))
            K = ell + s + 1
            h = Jet((1,) + (0,) * (s - 1) + (a,) + (0,) * (K - s - 1))
            coeffs = [F(0)] * (K - 1)
            coeffs[ell - 1] = F(1)
            coeffs[K - 2] = alpha_s
            X = FieldJet(tuple(coeffs))
            Y = pullback_field(h, X)
            assert Y[ell + 1] == 1
            assert Y[ell + s + 1] == (ell - s) * a + alpha_s
            for n in range(2, K + 1):
                if n not in (ell + 1, ell + s + 1):
                    assert Y[n] == 0


def test_pullback_by_homothety():
    # (X o h)/Dh for h = 2x, X = -x^2: the transported field is -2x^2,
    # whose flow is h^{-1} o (flow of X) o h
    h = Jet.of(2, 0)
    X = FieldJet.of(F(-1))
    assert pullback_field(h, X) == FieldJet.of(F(-2))


def test_pullback_direction_matches_flow_conjugation():
    # jet-level check of the documented convention on the exact flow of -x^2
    from germres import field_to_germ

    h = Jet.of(2, 0, 0)
    X = FieldJet.of(F(-1), F(0))
    Y = pullback_field(h, X)
    lhs = field_to_germ(Y, 1)
    rhs = conjugate(invert(h), field_to_germ(X, 1))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 7), st.integers(0, 10**6))
def test_pullback_functoriality(order, seed):
    r = rng(seed)
    h1, h2 = rand_jet(r, order), rand_jet(r, order)
    X = FieldJet(tuple(F(r.randint(-4, 4), r.randint(1, 3)) for _ in range(order - 1)))
    assert pullback_field(compose(h1, h2), X) == pullback_field(h2, pullback_field(h1, X))


def test_jet_json_round_trip():
    f = Jet.of(1, F(-1, 2), F(3, 4))
    assert jet_from_json(jet_to_json(f)) == f
    g = Jet.of(1, 2, -3, carrier="integer")
    assert jet_from_json(jet_to_json(g)) == g
    assert jet_from_json(jet_to_json(g)).carrier == "integer"


def test_jet_json_canonical_fractions():
    f = Jet.of(1, F(2, 4), F(-6, 8))
    assert jet_to_json(f) == '{"coeffs": ["1", "1/2", "-3/4"], "order": 3}'


def test_field_json_round_trip():
    X = FieldJet.of(F(-1), F(0), F(5, 3))
    assert field_from_json(jet_to_json(X)) == X


def test_json_rejects_bad_shapes():
    with pytest.raises(OrderError):
        jet_from_json('{"order": 3, "coeffs": ["1", "2"]}')
    with pytest.raises(Exception):
        jet_from_json('{"order": 1, "coeffs": ["0"]}')
    with pytest.raises(CoefficientError):
        jet_from_json('{"order": 2, "coeffs": ["1", "1/2"], "carrier": "integer"}')


def test_json_reader_is_shared_by_jets_and_fields():
    shapes = [
        ("[1]", CoefficientError),
        ('{"coeffs": ["1"]}', CoefficientError),
        ('{"order": 2, "coeffs": 5}', CoefficientError),
        ('{"order": "x", "coeffs": []}', OrderError),
        ('{"order": true, "coeffs": ["1"]}', OrderError),
        # text that is not JSON at all is a malformed document too
        ("abc", CoefficientError),
        ("", CoefficientError),
        ("[" * 100_000, CoefficientError),
    ]
    for text, error in shapes:
        for reader in (jet_from_json, field_from_json):
            with pytest.raises(error):
                reader(text)
    # the only difference is the degree offset: a field jet starts at x^2
    assert jet_from_json('{"order": 2, "coeffs": ["1", "2"]}') == Jet.of(1, 2)
    assert field_from_json('{"order": 3, "coeffs": ["1", "2"]}') == FieldJet.of(1, 2)
    with pytest.raises(OrderError):
        field_from_json('{"order": 2, "coeffs": ["1", "2"]}')


def test_fraction_coefficients_are_kept():
    a = F(-3, 4)
    assert Jet((F(1), a)).coeffs[1] is a
    assert FieldJet((a,)).coeffs[0] is a


def test_floats_refused():
    with pytest.raises(Exception):
        Jet.of(1.0, 2.0)


def test_pad_and_truncate():
    f = Jet.of(1, -1)
    assert f.pad(4) == Jet.of(1, -1, 0, 0)
    assert f.pad(4).truncate(2) == f
    with pytest.raises(OrderError):
        f.truncate(3)


def test_read_rational_matches_fraction_within_the_digit_limit():
    limit = jets._int_digit_limit()
    for text in ("-3/4", " 1.5 ", "2E-3", "1_000", "+7", ".5", "1e" + str(limit - 1), "1e-" + str(limit - 2)):
        assert jets.read_rational(text) == F(text)
    for text in ("x", "", "1/0", "nan", "inf", "1e", "3e5/2"):
        with pytest.raises(CoefficientError):
            jets.read_rational(text)


def test_read_rational_refuses_huge_literals_before_building_them():
    # none of these integers could be built in reasonable time, so passing
    # at all shows the refusal comes first
    limit = jets._int_digit_limit()
    for text in (
        "1e" + str(limit),
        "1e-" + str(limit + 1),
        "1" * (limit + 1),
        "1/" + "7" * (limit + 1),
        "1e10000000000000000000",
        "-2.5e-99999999999999999999",
        "1e" + "9" * 5000,
    ):
        with pytest.raises(CoefficientError):
            jets.read_rational(text)
    with pytest.raises(CoefficientError):
        jet_from_json('{"order": 3, "coeffs": ["1", "1e1000000", "0"]}')
