"""The four concrete scenario decision systems used as counterexamples.

* ``convex_system``   -- max-x1 convex program on the unit disk whose range
  shatters arbitrarily large families of inscribed polygons.
* ``sum_system``      -- decision ``1 + sum(a_i)`` over exclusion constraints;
  PAC but provably without a compression scheme (binary-weight counting).
* ``min_system``      -- least non-excluded natural; stable and PAC but
  without a compression map.
* ``interval_system`` -- finite-set / full-interval decisions on [0, 1];
  stable with small dVC dimension yet not PAC under an atom-plus-uniform
  measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .core import ConstraintDistribution, ScenarioSystem
from .geometry import (
    Point,
    POINT_TOL,
    clip_band,
    clip_polygon,
    coords_equal,
    coords_key,
    max_x_vertex,
    point_in_convex,
)

# ---------------------------------------------------------------------------
# Arc family: injective encodings of finite subsets into quarter-circle points
# ---------------------------------------------------------------------------


def n_of(u: Iterable[int]) -> int:
    """Binary encoding sum(2^(i-1) for i in u); injective on finite subsets."""
    u = frozenset(u)
    if any(i < 1 for i in u):
        raise ValueError("subset elements must be positive integers")
    return sum(1 << (i - 1) for i in u)


def angle_of(u: Iterable[int]) -> float:
    """Arc angle (pi/2) * n / (1 + n) in [0, pi/2)."""
    n = n_of(u)
    return (math.pi / 2.0) * n / (1.0 + n)


def tau(u: Iterable[int]) -> Point:
    """Injective map from finite subsets to the closed quarter arc.

    The empty set maps to (1, 0); nonempty sets map strictly inside the open
    quarter arc.
    """
    a = angle_of(u)
    return (math.cos(a), math.sin(a))


def xi(m: int, i: int) -> tuple[frozenset, ...]:
    """All subsets of [m] that contain i, ordered by binary encoding."""
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    subsets = []
    others = [j for j in range(1, m + 1) if j != i]
    for mask in range(1 << len(others)):
        u = {i} | {others[k] for k in range(len(others)) if mask >> k & 1}
        subsets.append(frozenset(u))
    return tuple(sorted(subsets, key=n_of))


@lru_cache(maxsize=None)
def sigma_polygon(m: int, i: int) -> tuple[Point, ...]:
    """Convex hull of (0, 1) and the arc points of xi(m, i), CCW.

    All generating points lie on the unit circle, so every one of them is a
    hull vertex; sorting by arc angle yields the CCW boundary.
    """
    vertices = [tau(u) for u in xi(m, i)]  # angles ascending with n
    vertices.append((0.0, 1.0))            # angle pi/2
    return tuple(vertices)


# ---------------------------------------------------------------------------
# Convex max-x1 system (unit disk, polygon and band constraints)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolygonConstraint:
    m: int
    i: int

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.m:
            raise ValueError("polygon index pair must satisfy 1 <= i <= m")


@dataclass(frozen=True)
class BandConstraint:
    """The halfplane-strip constraint R x [y, 1]."""

    y: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.y <= 1.0:
            raise ValueError("band level must lie in [0, 1]")


ConvexConstraint = PolygonConstraint | BandConstraint


def alg_convex_maxx1_detailed(vz: tuple) -> tuple[Point, bool]:
    """Feasible point maximizing x1 over disk /\\ polygons /\\ bands.

    Returns ``(point, tie_broken)``.  Feasibility is guaranteed: (0, 1)
    belongs to every constraint and to the disk.  With polygon constraints
    present, the feasible set is the clipped polygon (all its vertices lie in
    the disk); otherwise the optimum sits on the circle at the band level.
    """
    polygons = [z for z in vz if isinstance(z, PolygonConstraint)]
    bands = [z.y for z in vz if isinstance(z, BandConstraint)]
    y_min = max(bands) if bands else None

    if not polygons:
        if y_min is None:
            return (1.0, 0.0), False
        y = min(y_min, 1.0)
        return (math.sqrt(max(0.0, 1.0 - y * y)), y), False

    region = sigma_polygon(polygons[0].m, polygons[0].i)
    for z in polygons[1:]:
        region = clip_polygon(region, sigma_polygon(z.m, z.i))
    if y_min is not None:
        region = clip_band(region, y_min)
    return max_x_vertex(region)


def alg_convex_maxx1(vz: tuple) -> Point:
    return alg_convex_maxx1_detailed(vz)[0]


def convex_satisfies(x: Point, z: ConvexConstraint,
                     tol: float = POINT_TOL) -> bool:
    if isinstance(z, BandConstraint):
        return x[1] >= z.y - tol
    return point_in_convex(sigma_polygon(z.m, z.i), x, tol)


def convex_satisfies_many(x: Point, vz: tuple,
                          tol: float = POINT_TOL) -> list[bool]:
    """``[convex_satisfies(x, z) for z in vz]``, testing polygon membership
    once per distinct ``(m, i)``."""
    inside: dict[tuple[int, int], bool] = {}
    out = []
    for z in vz:
        if isinstance(z, BandConstraint):
            out.append(x[1] >= z.y - tol)
            continue
        key = (z.m, z.i)
        if key not in inside:
            inside[key] = point_in_convex(sigma_polygon(z.m, z.i), x, tol)
        out.append(inside[key])
    return out


convex_system = ScenarioSystem(
    name="convex-vc",
    decide=alg_convex_maxx1,
    satisfies=convex_satisfies,
    decisions_equal=coords_equal,
    decision_key=coords_key,
    satisfies_many=convex_satisfies_many,
)


_UINT32 = 0xFFFFFFFF
_POLYGON_CONSTRAINTS = {(m, i): PolygonConstraint(m, i)
                        for m in range(1, 5) for i in range(1, m + 1)}


def _raw_words(bitgen: np.random.BitGenerator, block: int):
    """Endless raw 64-bit words of ``bitgen``, fetched ``block`` at a time."""
    while True:
        yield from bitgen.random_raw(block).tolist()


def convex_mixture_distribution() -> ConstraintDistribution:
    """Half a band at a uniform level in [0, 1), half a polygon sigma(m, i)
    with m uniform on 1..4 and i uniform on 1..m."""
    def sample(rng: np.random.Generator) -> ConvexConstraint:
        if rng.random() < 0.5:
            return BandConstraint(float(rng.random()))
        m = int(rng.integers(1, 5))
        i = int(rng.integers(1, m + 1))
        return PolygonConstraint(m, i)

    def sample_many(rng: np.random.Generator, n: int) -> tuple:
        # Replays the scalar stream from raw PCG64 words, decoded as numpy
        # does: a double is the top 53 bits of a word; ``integers`` takes
        # 32-bit halves, low half first, and the generator buffers the spare
        # high half across double draws.  The generator is then moved to
        # exactly where the scalar loop leaves it.
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            return tuple(sample(rng) for _ in range(n))
        saved = bitgen.state
        has_half, half = saved["has_uint32"], saved["uinteger"]
        # A constraint takes at most two words unless Lemire rejects, so
        # refills are rare; the state is restored below either way.
        words = _raw_words(bitgen, 2 * n + 2)
        used = 0

        def below(bound: int) -> int:
            # numpy's Lemire draw of rng.integers(0, bound) for bound >= 2.
            nonlocal has_half, half, used
            threshold = (_UINT32 + 1 - bound) % bound
            while True:
                if has_half:
                    has_half, draw = 0, half
                else:
                    w = next(words)
                    used += 1
                    has_half, half, draw = 1, w >> 32, w & _UINT32
                product = draw * bound
                if product & _UINT32 >= threshold:
                    return product >> 32

        out = []
        for _ in range(n):
            used += 1
            if (next(words) >> 11) * 2.0**-53 < 0.5:
                used += 1
                out.append(BandConstraint((next(words) >> 11) * 2.0**-53))
                continue
            m = 1 + below(4)
            out.append(_POLYGON_CONSTRAINTS[m, 1 + below(m) if m > 1 else 1])
        bitgen.state = saved
        bitgen.advance(used)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = has_half, half
        bitgen.state = state
        return tuple(out)

    return ConstraintDistribution(sample=sample, sample_many=sample_many)


# ---------------------------------------------------------------------------
# Exclusion-constraint systems on the naturals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExclusionConstraint:
    """The constraint U(a) = N \\ {a}: the decision must differ from a."""

    a: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("excluded natural must be >= 0")


def exclusion_satisfies(x: int, z: ExclusionConstraint) -> bool:
    return x != z.a


def alg_sum(vz: tuple) -> int:
    """Decision 1 + sum of excluded values; order-insensitive but
    multiplicity-sensitive, and never equal to any single excluded value."""
    return 1 + sum(z.a for z in vz)


def alg_min(vz: tuple) -> int:
    """Least natural number not excluded by the sample."""
    excluded = {z.a for z in vz}
    x = 0
    while x in excluded:
        x += 1
    return x


sum_system = ScenarioSystem("sum-no-scheme", alg_sum, exclusion_satisfies)
min_system = ScenarioSystem("min-no-map", alg_min, exclusion_satisfies)


def geometric_mass(a: int) -> float:
    """Point mass 2^-(a+1) of the default distribution on the naturals."""
    return 0.5 ** (a + 1)


def analytic_risk_sum_min(x: int, mass=geometric_mass) -> float:
    """Risk of a natural decision: the mass of the one constraint it
    violates, U(x)."""
    return mass(x)


def geometric_exclusion_distribution(analytic: bool = True) -> ConstraintDistribution:
    """Geometric measure on exclusion constraints, p(U(a)) = 2^-(a+1)."""
    def sample(rng: np.random.Generator) -> ExclusionConstraint:
        return ExclusionConstraint(int(rng.geometric(0.5)) - 1)

    def sample_many(rng: np.random.Generator, n: int) -> tuple:
        # For p >= 1/3 numpy draws each geometric variate from one double,
        # in batch as in scalar calls.
        return tuple(map(ExclusionConstraint,
                         (rng.geometric(0.5, size=n) - 1).tolist()))

    return ConstraintDistribution(
        sample=sample,
        analytic_violation=analytic_risk_sum_min if analytic else None,
        sample_many=sample_many,
    )


# ---------------------------------------------------------------------------
# Membership-constraint system on subsets of [0, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipConstraint:
    """The constraint U(a): the decision set must contain the point a."""

    a: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("membership point must lie in [0, 1]")


@dataclass(frozen=True)
class IntervalDecision:
    """Either a finite subset of [0, 1] or the full half-open interval (0, 1].

    ``points`` is None for the (0, 1] variant, else a sorted tuple of
    distinct floats.  Payload floats are compared exactly; the shipped
    distribution produces the atom 0 exactly, so atom detection is exact.
    """

    points: Optional[tuple[float, ...]]

    def __post_init__(self) -> None:
        if self.points is not None:
            pts = self.points
            if list(pts) != sorted(set(pts)):
                raise ValueError("finite-set points must be sorted, distinct")
            if pts and not (0.0 <= pts[0] and pts[-1] <= 1.0):
                raise ValueError("finite-set points must lie in [0, 1]")

    @property
    def is_full_interval(self) -> bool:
        return self.points is None


OPEN_UNIT_INTERVAL = IntervalDecision(None)


def alg_interval(vz: tuple) -> IntervalDecision:
    """Return the sampled points when 0 was sampled, else (0, 1]."""
    values = [z.a for z in vz]
    if 0.0 in values:
        return IntervalDecision(tuple(sorted(set(values))))
    return OPEN_UNIT_INTERVAL


def interval_satisfies(x: IntervalDecision, z: MembershipConstraint) -> bool:
    if x.is_full_interval:
        return z.a > 0.0
    return z.a in x.points


interval_system = ScenarioSystem("interval-not-pac", alg_interval,
                                 interval_satisfies)


def analytic_risk_interval(x: IntervalDecision) -> float:
    """Exact risk under the atom-plus-uniform measure.

    (0, 1] violates exactly the atom constraint U(0), mass 1/2.  A finite set
    containing 0 satisfies the atom but misses almost every continuous point,
    so its risk is the continuous mass 1/2.  Finite sets without 0 are not
    reachable outputs and are rejected.
    """
    if x.is_full_interval:
        return 0.5
    if 0.0 not in x.points:
        raise ValueError("finite-set decision without 0 is unreachable")
    return 0.5


def atom_plus_uniform(analytic: bool = True) -> ConstraintDistribution:
    """Measure with mass 1/2 on the atom U(0) and density a/2 on (0, a]."""
    def sample(rng: np.random.Generator) -> MembershipConstraint:
        if rng.random() < 0.5:
            return MembershipConstraint(0.0)
        return MembershipConstraint(1.0 - rng.random())  # uniform on (0, 1]

    def sample_many(rng: np.random.Generator, n: int) -> tuple:
        # Replays the scalar stream: each double is a coin or, after a coin
        # of 1/2 or more, the point.  Every unfinished constraint needs at
        # least one more double, so drawing that many never overdraws.
        out: list[MembershipConstraint] = []
        coin_pending = True
        while len(out) < n:
            for u in rng.random(n - len(out)).tolist():
                if not coin_pending:
                    out.append(MembershipConstraint(1.0 - u))
                    coin_pending = True
                elif u < 0.5:
                    out.append(MembershipConstraint(0.0))
                else:
                    coin_pending = False
        return tuple(out)

    return ConstraintDistribution(
        sample=sample,
        analytic_violation=analytic_risk_interval if analytic else None,
        sample_many=sample_many,
    )
