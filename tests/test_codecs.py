"""Wire-format round-trip tests for constraints and decisions."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenlab.codecs import (
    decode_constraint,
    decode_decision,
    encode_constraint,
    encode_decision,
)
from scenlab.counterexamples import (
    BandConstraint,
    ExclusionConstraint,
    IntervalDecision,
    MembershipConstraint,
    PolygonConstraint,
)
from scenlab.pathplan import BarrierConstraint, Parabola, Polyline

CONSTRAINTS = [
    PolygonConstraint(3, 2),
    BandConstraint(0.1 + 0.2),  # not exactly 0.3
    ExclusionConstraint(7),
    MembershipConstraint(1.0 / 3.0),
    BarrierConstraint(math.pi / 3),
]

DECISIONS = [
    (0.7071067811865476, 0.7071067811865475),
    5,
    IntervalDecision((0.0, 1.0 / 3.0, 0.9)),
    IntervalDecision(None),
    Polyline(((-1.0, 0.0), (0.0, 0.5), (1.0, 0.0))),
    Parabola(0.40406101782088427),
]


@pytest.mark.parametrize("z", CONSTRAINTS, ids=lambda z: type(z).__name__)
def test_constraint_round_trip_through_json(z):
    wire = json.dumps(encode_constraint(z))
    assert decode_constraint(json.loads(wire)) == z


@pytest.mark.parametrize("x", DECISIONS, ids=lambda x: type(x).__name__)
def test_decision_round_trip_through_json(x):
    wire = json.dumps(encode_decision(x))
    assert decode_decision(json.loads(wire)) == x


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit_floats)
def test_band_floats_survive_bit_exactly(y):
    z = BandConstraint(y)
    back = decode_constraint(json.loads(json.dumps(encode_constraint(z))))
    assert back.y == y  # exact, not approximate


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_parabola_floats_survive_bit_exactly(h):
    back = decode_decision(json.loads(json.dumps(encode_decision(Parabola(h)))))
    assert back.height == h


def test_encoding_shapes():
    assert encode_constraint(PolygonConstraint(3, 2)) == {"polygon": [3, 2]}
    assert encode_constraint(ExclusionConstraint(7)) == {"exclude": 7}
    assert encode_decision(IntervalDecision(None)) == {"open_unit_interval": True}
    assert encode_decision(5) == {"natural": 5}
    assert encode_decision((1.0, 0.0)) == {"point": [1.0, 0.0]}


def test_unknown_and_malformed_inputs():
    with pytest.raises(TypeError):
        encode_constraint("not a constraint")
    with pytest.raises(TypeError):
        encode_decision(object())
    with pytest.raises(ValueError):
        decode_constraint({"polygon": [3, 2], "band": 0.5})
    with pytest.raises(ValueError):
        decode_constraint({"mystery": 1})
    with pytest.raises(ValueError):
        decode_decision({"mystery": 1})
    with pytest.raises(ValueError):
        decode_decision([1, 2])


@pytest.mark.parametrize("obj", [
    {"exclude": 1.7},
    {"exclude": True},
    {"exclude": "3"},
    {"polygon": [3.5, 2]},
    {"polygon": [3, False]},
    {"polygon": [3]},
    {"polygon": 3},
    {"band": [1]},
    {"member": True},
    {"theta": "1.0"},
])
def test_malformed_constraint_values_are_rejected(obj):
    with pytest.raises(ValueError):
        decode_constraint(obj)


@pytest.mark.parametrize("value", [2.5, True, None])
def test_non_integral_naturals_are_rejected(value):
    with pytest.raises(ValueError):
        decode_decision({"natural": value})


def test_integral_floats_still_decode():
    assert decode_constraint({"exclude": 3.0}) == ExclusionConstraint(3)
    assert decode_constraint({"polygon": [3.0, 2.0]}) == PolygonConstraint(3, 2)
    back = decode_decision({"natural": 3.0})
    assert back == 3 and type(back) is int
