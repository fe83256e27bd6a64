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

import math
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
    """A finite JSON number as a float; booleans, non-numbers, NaN and
    infinities are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int beyond the float range
            real = math.inf
        if math.isfinite(real):
            return real
    raise ValueError(f"expected a finite number, got {value!r}")


def _pair(value: Any, what: str, element=_real) -> tuple:
    """A two-element list, each element decoded by ``element``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{what} takes a pair, got {value!r}")
    return (element(value[0]), element(value[1]))


def _list(value: Any, what: str) -> list:
    """A JSON array; strings and other scalars are rejected."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} takes a list, got {value!r}")
    return list(value)


def decode_constraint(obj: dict) -> Any:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed constraint encoding: {obj!r}")
    key, value = next(iter(obj.items()))
    if key == "polygon":
        return PolygonConstraint(*_pair(value, "polygon", _integral))
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
        if value is not True:
            raise ValueError(f"open_unit_interval takes true, got {value!r}")
        return IntervalDecision(None)
    if key == "finite_set":
        return IntervalDecision(tuple(_real(a)
                                      for a in _list(value, "finite_set")))
    if key == "polyline":
        return Polyline(tuple(_pair(p, "polyline vertex")
                              for p in _list(value, "polyline")))
    if key == "parabola":
        return Parabola(_real(value))
    if key == "natural":
        n = _integral(value)
        if n < 0:
            raise ValueError(f"natural must be >= 0, got {value!r}")
        return n
    if key == "point":
        return _pair(value, "point")
    raise ValueError(f"unknown decision kind: {key!r}")
