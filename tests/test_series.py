"""Germ and field jets as one series type: printing, equality, errors, JSON
documents and the degree-indexed dense conversion."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from germres import FieldJet, Jet, OrderError
from germres.jets import (
    CoefficientError,
    NotInvertible,
    field_from_dict,
    field_from_json,
    jet_from_dict,
    jet_from_json,
    jet_to_dict,
    jet_to_json,
)

# (series, repr, str, JSON document)
SERIES = [
    (
        Jet.of(1, F(-1, 2), 0, 3),
        "Jet(coeffs=(Fraction(1, 1), Fraction(-1, 2), Fraction(0, 1), Fraction(3, 1)), carrier='rational')",
        "1*x + -1/2*x^2 + 3*x^4",
        '{"coeffs": ["1", "-1/2", "0", "3"], "order": 4}',
    ),
    (
        Jet.of(-1, 2, 0, carrier="integer"),
        "Jet(coeffs=(-1, 2, 0), carrier='integer')",
        "-1*x + 2*x^2",
        '{"carrier": "integer", "coeffs": ["-1", "2", "0"], "order": 3}',
    ),
    (
        FieldJet.of(0, F(3, 4), -2),
        "FieldJet(coeffs=(Fraction(0, 1), Fraction(3, 4), Fraction(-2, 1)), carrier='rational')",
        "3/4*x^3 + -2*x^4 d/dx",
        '{"coeffs": ["0", "3/4", "-2"], "kind": "field", "order": 4}',
    ),
    (
        FieldJet.of(0, 5, carrier="integer"),
        "FieldJet(coeffs=(0, 5), carrier='integer')",
        "5*x^3 d/dx",
        '{"carrier": "integer", "coeffs": ["0", "5"], "kind": "field", "order": 3}',
    ),
    (
        FieldJet.zero(3),
        "FieldJet(coeffs=(Fraction(0, 1), Fraction(0, 1)), carrier='rational')",
        "0 d/dx",
        '{"coeffs": ["0", "0"], "kind": "field", "order": 3}',
    ),
    (
        FieldJet.zero(2, "integer"),
        "FieldJet(coeffs=(0,), carrier='integer')",
        "0 d/dx",
        '{"carrier": "integer", "coeffs": ["0"], "kind": "field", "order": 2}',
    ),
]


def _codec(s):
    if isinstance(s, FieldJet):
        return jet_to_dict, field_from_dict, jet_to_json, field_from_json
    return jet_to_dict, jet_from_dict, jet_to_json, jet_from_json


@pytest.mark.parametrize("s, text_repr, text, doc", SERIES)
def test_repr_str_and_json_document(s, text_repr, text, doc):
    assert repr(s) == text_repr
    assert str(s) == text
    to_dict, from_dict, to_json, from_json = _codec(s)
    assert to_json(s) == doc
    assert to_dict(s) == json.loads(doc)
    assert from_json(doc) == s and from_dict(json.loads(doc)) == s
    assert type(from_json(doc)) is type(s)


def test_germ_and_field_jets_never_compare_equal():
    assert Jet.of(1, 0) != FieldJet.of(1, 0)
    assert Jet.of(1, 0, carrier="integer") != FieldJet.of(1, 0, carrier="integer")
    for a, b in [(Jet.of(1, 2), Jet.of(F(1), F(2))), (FieldJet.of(0, 3), FieldJet((F(0), F(3))))]:
        assert a == b and hash(a) == hash(b)
    assert len({Jet.of(1, 2), Jet.of(F(1), 2), FieldJet.of(1, 2)}) == 2


def test_replace_keeps_the_class_and_checks_the_coefficients():
    f = dataclasses.replace(Jet.of(1, 2), coeffs=(1, 5, 6))
    assert type(f) is Jet and f == Jet.of(1, 5, 6)
    X = dataclasses.replace(FieldJet.of(1), coeffs=(0, 4))
    assert type(X) is FieldJet and X == FieldJet.of(0, 4)
    with pytest.raises(NotInvertible, match="a_1 = 0 is not invertible"):
        dataclasses.replace(f, coeffs=(0, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.coeffs = (1,)


def _refused(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Jet(()), OrderError, "a jet needs at least the linear coefficient"),
    (lambda: FieldJet(()), OrderError, "a field jet needs at least the degree-2 coefficient"),
    (lambda: Jet.of(1, 2)[3], OrderError, "no coefficient of degree 3 in a jet of order 2"),
    (lambda: Jet.of(1, 2)[0], OrderError, "no coefficient of degree 0 in a jet of order 2"),
    (lambda: FieldJet.of(1)[1], OrderError, "no coefficient of degree 1 in a field jet of order 2"),
    (lambda: FieldJet.of(1)[3], OrderError, "no coefficient of degree 3 in a field jet of order 2"),
    (lambda: Jet.of(1, 2).truncate(3), OrderError, "cannot truncate order 2 to 3"),
    (lambda: Jet.of(1, 2).truncate(0), OrderError, "cannot truncate order 2 to 0"),
    (lambda: FieldJet.of(1, 2).truncate(1), OrderError, "cannot truncate field order 3 to 1"),
    (lambda: FieldJet.of(1, 2).truncate(4), OrderError, "cannot truncate field order 3 to 4"),
    (lambda: Jet.of(1, 2).pad(1), OrderError, "pad target below current order"),
    (lambda: FieldJet.of(1, 2).pad(2), OrderError, "pad target below current order"),
    (lambda: FieldJet.of(1.0), CoefficientError, "not an exact rational coefficient: 1.0 (floats are refused)"),
    (lambda: FieldJet.of(F(1, 2), carrier="integer"), CoefficientError, "not an integer coefficient: Fraction(1, 2)"),
    (lambda: Jet.of(1, True), CoefficientError, "booleans are not coefficients"),
    (lambda: Jet.of(2, carrier="integer"), NotInvertible, "a_1 = 2 is not a unit over the integers"),
    (lambda: jet_from_json('{"order": 3, "coeffs": ["1", "2"]}'), OrderError, "coeffs length 2 != order - 0 = 3"),
    (lambda: field_from_json('{"order": 2, "coeffs": ["1", "2"]}'), OrderError, "coeffs length 2 != order - 1 = 1"),
    (lambda: field_from_json('{"kind": "field", "order": 4, "coeffs": ["1"]}'), OrderError, "coeffs length 1 != order - 1 = 3"),
])
def test_exact_error_types_and_messages(call, error, message):
    assert _refused(call) == (error, message)


def test_pad_truncate_and_indexing_keep_the_class():
    for s in (Jet.of(1, 2, 3), FieldJet.of(1, 2, 3), FieldJet.of(1, 2, carrier="integer")):
        low = 1 if isinstance(s, Jet) else 2
        assert [s[n] for n in range(low, s.order + 1)] == list(s.coeffs)
        assert type(s.pad(6)) is type(s) and s.pad(6).order == 6 and s.pad(6).truncate(s.order) == s
        assert type(s.truncate(low)) is type(s) and s.truncate(low).coeffs == s.coeffs[:1]
        assert s.pad(s.order) == s and s.truncate(s.order) == s


@pytest.mark.parametrize("s", [
    Jet.of(1, F(-1, 2), 0, 3),
    Jet.of(-1, 2, 0, carrier="integer"),
    FieldJet.of(0, F(3, 4), -2),
    FieldJet.of(7, carrier="integer"),
])
def test_dense_round_trip(s):
    cls = type(s)
    for K in range(s.order + 4):
        dense = s.dense(K)
        assert len(dense) == K + 1
        assert dense == [s[n] if cls.lowest <= n <= s.order else 0 for n in range(K + 1)]
        if K < cls.lowest:
            continue
        back = cls.from_dense(dense, s.carrier)
        assert type(back) is cls and back.carrier == s.carrier
        if K >= s.order:
            # the same series, zero-padded to K
            assert back == s.pad(K) and back.truncate(s.order) == s
        else:
            assert back == s.truncate(K)
    assert cls.from_dense(s.dense(s.order), s.carrier) == s
