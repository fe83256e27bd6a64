"""JSON encodings for constraints and decisions.

Wire formats (bit-exact round trip required):

constraints::

    {"polygon": [m, i]}   {"band": y}   {"exclude": a}
    {"member": a}         {"theta": radians}

decisions::

    {"point": [x, y]}             {"natural": n}
    {"finite_set": [a, ...]}      {"open_unit_interval": true}
    {"polyline": [[x, y], ...]}   {"parabola": h}

Floats survive exactly: ``json`` serializes via ``repr``, which is the
shortest round-tripping decimal form.
"""

from __future__ import annotations

from typing import Any

from .counterexamples import (
    BandConstraint,
    ExclusionConstraint,
    IntervalDecision,
    MembershipConstraint,
    PolygonConstraint,
)
from .pathplan import BarrierConstraint, Parabola, Polyline


def encode_constraint(z: Any) -> dict:
    if isinstance(z, PolygonConstraint):
        return {"polygon": [z.m, z.i]}
    if isinstance(z, BandConstraint):
        return {"band": z.y}
    if isinstance(z, ExclusionConstraint):
        return {"exclude": z.a}
    if isinstance(z, MembershipConstraint):
        return {"member": z.a}
    if isinstance(z, BarrierConstraint):
        return {"theta": z.theta}
    raise TypeError(f"unknown constraint type: {type(z).__name__}")


def _integral(value: Any) -> int:
    """An int, or an integral float such as 3.0; booleans and fractional or
    non-numeric values are rejected rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _real(value: Any) -> float:
    """A JSON number as a float; booleans and non-numbers are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def decode_constraint(obj: dict) -> Any:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed constraint encoding: {obj!r}")
    key, value = next(iter(obj.items()))
    if key == "polygon":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"polygon takes a pair [m, i], got {value!r}")
        return PolygonConstraint(_integral(value[0]), _integral(value[1]))
    if key == "band":
        return BandConstraint(_real(value))
    if key == "exclude":
        return ExclusionConstraint(_integral(value))
    if key == "member":
        return MembershipConstraint(_real(value))
    if key == "theta":
        return BarrierConstraint(_real(value))
    raise ValueError(f"unknown constraint kind: {key!r}")


def encode_decision(x: Any) -> dict:
    if isinstance(x, IntervalDecision):
        if x.is_full_interval:
            return {"open_unit_interval": True}
        return {"finite_set": list(x.points)}
    if isinstance(x, Polyline):
        return {"polyline": [[p[0], p[1]] for p in x.vertices]}
    if isinstance(x, Parabola):
        return {"parabola": x.height}
    if isinstance(x, int):
        return {"natural": x}
    if (isinstance(x, tuple) and len(x) == 2
            and all(isinstance(c, float) for c in x)):
        return {"point": [x[0], x[1]]}
    raise TypeError(f"unknown decision type: {type(x).__name__}")


def decode_decision(obj: dict) -> Any:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed decision encoding: {obj!r}")
    key, value = next(iter(obj.items()))
    if key == "open_unit_interval":
        return IntervalDecision(None)
    if key == "finite_set":
        return IntervalDecision(tuple(float(a) for a in value))
    if key == "polyline":
        return Polyline(tuple((float(x), float(y)) for x, y in value))
    if key == "parabola":
        return Parabola(float(value))
    if key == "natural":
        return _integral(value)
    if key == "point":
        return (float(value[0]), float(value[1]))
    raise ValueError(f"unknown decision kind: {key!r}")
