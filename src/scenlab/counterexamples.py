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
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional

from .core import (
    ArrayFold,
    ConstraintDistribution,
    Fold,
    ScenarioSystem,
    is_real,
)
from .geometry import (
    Point,
    POINT_TOL,
    clip_band,
    clip_polygon,
    max_x_vertex,
    point_in_convex,
)

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# Arc family: injective encodings of finite subsets into quarter-circle points
# ---------------------------------------------------------------------------

# Largest m of a polygon sigma(m, i) and k of the witness: sigma(m, i) has
# 2^(m - 1) arc vertices, and at m = 12 the chord sag of unused arc points
# (~4e-15) nears the witness's 1e-15 membership slack.
MAX_ARC_FAMILY = 12


def n_of(u: Iterable[int]) -> int:
    """Binary encoding sum(2^(i-1) for i in u); injective on finite subsets."""
    u = frozenset(u)
    if any(i < 1 for i in u):
        raise ValueError("subset elements must be positive integers")
    return sum(1 << (i - 1) for i in u)


def _arc_angle(n: int) -> float:
    return (math.pi / 2.0) * n / (1.0 + n)


def arc_point(n: int) -> Point:
    """The arc point at angle (pi/2) * n / (1 + n), ascending in n: (1, 0)
    at n = 0, strictly inside the open quarter arc for n >= 1."""
    a = _arc_angle(n)
    return (math.cos(a), math.sin(a))


def angle_of(u: Iterable[int]) -> float:
    """Arc angle (pi/2) * n / (1 + n) in [0, pi/2), for n = n_of(u)."""
    return _arc_angle(n_of(u))


def tau(u: Iterable[int]) -> Point:
    """Injective map from finite subsets to the closed quarter arc."""
    return arc_point(n_of(u))


def sigma_polygon(m: int, i: int) -> tuple[Point, ...]:
    """Convex hull of (0, 1) and tau(u) for the subsets u of [m] holding i,
    the encodings n < 2^m with bit i - 1 set, CCW.

    The points lie on the unit circle, so each is a hull vertex, and n
    ascending, then (0, 1) at angle pi/2, is the CCW boundary.
    """
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    bit = 1 << (i - 1)
    return (*(arc_point(n) for n in range(1 << m) if n & bit), (0.0, 1.0))


# ---------------------------------------------------------------------------
# Convex max-x1 system (unit disk, polygon and band constraints)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolygonConstraint:
    """The polygon sigma(m, i); ``m`` and ``i`` are ints, not bools."""

    m: int
    i: int

    def __post_init__(self) -> None:
        if not all(isinstance(k, int) and not isinstance(k, bool)
                   for k in (self.m, self.i)):
            raise ValueError("polygon index pair must be ints, got "
                             f"({self.m!r}, {self.i!r})")
        if not 1 <= self.i <= self.m <= MAX_ARC_FAMILY:
            raise ValueError("polygon index pair must satisfy "
                             f"1 <= i <= m <= {MAX_ARC_FAMILY}")

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """sigma(m, i), built on first use.  Not a field, so equality,
        hashing and the repr are those of (m, i)."""
        return sigma_polygon(self.m, self.i)


@dataclass(frozen=True)
class BandConstraint:
    """The halfplane-strip constraint R x [y, 1]."""

    y: float

    def __post_init__(self) -> None:
        _check_level(self.y)


def _check_level(y: float) -> float:
    """``y``, or ``ValueError`` if it is no band level: a real number that
    is not a ``bool`` (see ``core.is_real``), in [0, 1]."""
    if not is_real(y):
        raise ValueError(f"band level must be a real number, got {y!r}")
    if not 0.0 <= y <= 1.0:
        raise ValueError("band level must lie in [0, 1]")
    return y


def _raise_level(y_min: float | None, y: float) -> float:
    """max(y_min, y) for the band level ``y_min`` so far (None before any
    band): a tie keeps the earlier level, as max() does."""
    return y if y_min is None or y > y_min else y_min


ConvexConstraint = PolygonConstraint | BandConstraint


def _convex_extend(state: tuple, z) -> tuple:
    """Clip the region by a polygon not clipped by before (the first polygon
    is the region), or raise the band level to a band's.

    A repeated polygon P returns the state unchanged, which is what clipping
    by P again would give.  Every vertex of a region already clipped by P
    lies inside P up to rounding, far within ``CLIP_TOL`` = 1e-12: each
    halfplane of P keeps every vertex and forms no crossing, and ``_dedupe``
    returns the already deduplicated ring unchanged.
    """
    region, y_min, clipped = state
    if isinstance(z, PolygonConstraint):
        if z in clipped:
            return state
        return (z.vertices if region is None
                else clip_polygon(region, z.vertices), y_min, clipped | {z})
    if isinstance(z, BandConstraint):
        return (region, _raise_level(y_min, z.y), clipped)
    # Not ValueError, which the compression-map search reads as undecidable.
    raise TypeError(f"not a polygon or band constraint: {type(z).__name__}")


def _convex_finish(state: tuple) -> Point:
    region, y_min, _ = state
    if region is None:
        if y_min is None:
            return (1.0, 0.0)
        y = min(y_min, 1.0)
        return (math.sqrt(max(0.0, 1.0 - y * y)), y)
    if y_min is not None:
        region = clip_band(region, y_min)
    return max_x_vertex(region)


# Feasible point maximizing x1 over disk /\ polygons /\ bands.  Feasibility
# is guaranteed: (0, 1) belongs to every constraint and to the disk.  With
# polygon constraints present, the feasible set is the clipped polygon (all
# its vertices lie in the disk); otherwise the optimum sits on the circle at
# the band level.  The state is (clipped region or None, max band level or
# None, frozenset of the polygons clipped by); each distinct polygon is
# clipped once, in tuple order, and the band clip comes last.
alg_convex_maxx1 = Fold((None, None, frozenset()), _convex_extend,
                        _convex_finish)


def convex_satisfies(x: Point, z: ConvexConstraint) -> bool:
    """Membership of x in z, with slack ``POINT_TOL``."""
    if isinstance(z, BandConstraint):
        return x[1] >= z.y - POINT_TOL
    return point_in_convex(z.vertices, x)


def convex_constraint(value) -> ConvexConstraint:
    """The constraint of a convex-mixture value: a band at the level
    ``value``, or ``value`` itself when it is a polygon constraint."""
    return value if isinstance(value, PolygonConstraint) \
        else BandConstraint(value)


def convex_satisfies_values(x: Point, values: list) -> list[bool]:
    """``[convex_satisfies(x, convex_constraint(v)) for v in values]``,
    testing polygon membership once per distinct ``(m, i)``.

    A value that is neither a level in [0, 1] nor a
    :class:`PolygonConstraint` raises ``ValueError``, as
    :func:`convex_constraint` does for a level out of range.
    """
    y, tol = x[1], POINT_TOL
    inside: dict[tuple[int, int], bool] = {}
    out: list[bool] = []
    append = out.append
    for v in values:
        if isinstance(v, PolygonConstraint):
            key = (v.m, v.i)
            if key not in inside:
                inside[key] = point_in_convex(v.vertices, x)
            append(inside[key])
        elif isinstance(v, float) and 0.0 <= v <= 1.0 or (
                isinstance(v, int) and not isinstance(v, bool)
                and 0 <= v <= 1):
            append(y >= v - tol)
        else:
            raise ValueError(f"{v!r} is neither a band level in [0, 1] "
                             "nor a polygon constraint")
    return out


def alg_convex_values(values: list) -> Point:
    """``alg_convex_maxx1`` on convex-mixture values, with no band built:
    a polygon goes through ``_convex_extend`` and a level raises the band
    level as its band would.  A level outside [0, 1] raises
    ``ValueError``, as :func:`convex_constraint` does."""
    state, level = alg_convex_maxx1.init, None
    for v in values:
        if isinstance(v, PolygonConstraint):
            state = _convex_extend(state, v)
        else:
            level = _raise_level(level, _check_level(v))
    region, _, clipped = state
    return _convex_finish((region, level, clipped))


convex_system = ScenarioSystem(
    name="convex-vc",
    decide=alg_convex_maxx1,
    satisfies=convex_satisfies,
    coords=tuple,  # a decision is a point, its own coordinate vector
    satisfies_values=convex_satisfies_values,
    decide_values=alg_convex_values,
)


_UINT32 = 0xFFFFFFFF
_POLYGON_CONSTRAINTS = {(m, i): PolygonConstraint(m, i)
                        for m in range(1, 5) for i in range(1, m + 1)}


def _decode_mixture(words, n: int, has_half: int,
                    half: int) -> Optional[tuple[list, int, int, int]]:
    """The values of ``n`` scalar convex-mixture draws from raw PCG64
    ``words``, decoded as numpy decodes them.

    A double is the top 53 bits of a word.  ``integers`` takes 32-bit
    halves, low half first, draws again after a Lemire rejection, and the
    generator buffers the spare high half (``has_half``, ``half``) across
    double draws.  Returns the values, the number of words read and the
    buffered half after them, or None when rejections read past ``words``.
    """
    import numpy as np

    raw = np.asarray(words, dtype=np.uint64)
    doubles = ((raw >> np.uint64(11)) * 2.0**-53).tolist()
    lows = (raw & np.uint64(_UINT32)).tolist()
    highs = (raw >> np.uint64(32)).tolist()
    out: list = []
    append = out.append
    k = 0
    try:  # only running out of words raises IndexError here
        for _ in range(n):
            if doubles[k] < 0.5:  # the coin: a band at the next double
                append(doubles[k + 1])
                k += 2
                continue
            k += 1
            if has_half:
                has_half, draw = 0, half
            else:
                has_half, half, draw = 1, highs[k], lows[k]
                k += 1
            m = 1 + (draw >> 30)  # 1 + integers(0, 4), which never rejects
            if m == 1:  # integers(1, 2) draws nothing
                append(_POLYGON_CONSTRAINTS[1, 1])
                continue
            while True:  # 1 + integers(0, m)
                if has_half:
                    has_half, draw = 0, half
                else:
                    has_half, half, draw = 1, highs[k], lows[k]
                    k += 1
                product = draw * m
                # Lemire's threshold: only m = 3 rejects, and only draw 0.
                if product & _UINT32 >= (_UINT32 + 1 - m) % m:
                    break
            append(_POLYGON_CONSTRAINTS[m, 1 + (product >> 32)])
    except IndexError:
        return None
    return out, k, has_half, half


def _mixture_value(rng: np.random.Generator):
    if rng.random() < 0.5:
        return float(rng.random())
    m = int(rng.integers(1, 5))
    return _POLYGON_CONSTRAINTS[m, int(rng.integers(1, m + 1))]


def _mixture_sample(rng: np.random.Generator) -> ConvexConstraint:
    return convex_constraint(_mixture_value(rng))


def _mixture_sample_values(rng: np.random.Generator, n: int) -> list:
    # Replays the scalar stream from one block of raw PCG64 words, then moves
    # the generator to exactly where the scalar loop leaves it.
    import numpy as np

    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        return [_mixture_value(rng) for _ in range(n)]
    saved = bitgen.state
    # A value takes at most two words unless Lemire rejects.
    decoded = _decode_mixture(bitgen.random_raw(2 * n + 2), n,
                              saved["has_uint32"], saved["uinteger"])
    bitgen.state = saved
    if decoded is None:
        return [_mixture_value(rng) for _ in range(n)]
    out, used, has_half, half = decoded
    bitgen.advance(used)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bitgen.state = state
    return out


# Half a band at a uniform level in [0, 1), half a polygon sigma(m, i) with
# m uniform on 1..4 and i uniform on 1..m.  Its values are band levels
# (floats) and shared polygon constraints; ``convex_constraint`` turns a
# value into its constraint.
#
# Under ``convex_satisfies`` the band at level 1 and the ten polygons
# sigma(m, i), m <= 4, dominate the mixture.  Every drawn level y is below 1,
# and ``y - POINT_TOL`` rounds monotonically in y, so a point with
# ``x[1] >= 1 - POINT_TOL`` satisfies every band the mixture draws.  The ten
# polygons are the only ones it draws, tested by the same ``point_in_convex``
# call.  A decision inside all eleven (the top of the disk, where sampled
# polygons collapse the max-x1 decision) has risk 0, which nested Monte Carlo
# then returns without drawing.
convex_mixture_distribution = ConstraintDistribution(
    sample=_mixture_sample, sample_values=_mixture_sample_values,
    constraint_class=convex_constraint,
    dominating=(BandConstraint(1.0), *_POLYGON_CONSTRAINTS.values()))


# ---------------------------------------------------------------------------
# Exclusion-constraint systems on the naturals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExclusionConstraint:
    """The constraint U(a) = N \\ {a}: the decision must differ from a."""

    a: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or isinstance(self.a, bool):
            raise ValueError(
                f"excluded natural must be an int, got {self.a!r}")
        if self.a < 0:
            raise ValueError("excluded natural must be >= 0")


def exclusion_satisfies(x: int, z: ExclusionConstraint) -> bool:
    return x != z.a


def _sum_extend(total: int, z: ExclusionConstraint) -> int:
    return total + z.a


def _min_extend(excluded: frozenset, z: ExclusionConstraint) -> frozenset:
    return excluded if z.a in excluded else excluded | {z.a}


def _mex(excluded: frozenset) -> int:
    """The least natural not in ``excluded``."""
    x = 0
    while x in excluded:
        x += 1
    return x


def _sum_operands(vz: Iterable[ExclusionConstraint]) -> Optional[list[int]]:
    """The excluded values, while 1 + their sum, the largest subset total,
    is below 2^62; else ``None``."""
    values = [z.a for z in vz]
    return values if sum(values, 1) < 1 << 62 else None


def _min_operands(vz: Iterable[ExclusionConstraint]) -> Optional[list[int]]:
    """``1 << a`` for each excluded value, while every a is below 63, so
    that their OR fits an int64; else ``None``."""
    values = [z.a for z in vz]
    return [1 << a for a in values] if all(a < 63 for a in values) else None


def _min_finish_array(bits: np.ndarray) -> np.ndarray:
    """The lowest clear bit of each int64 mask: ``~b & (b + 1)`` isolates
    it as a power of two, and ``frexp`` reads its exponent."""
    import numpy as np

    return np.frexp(~bits & (bits + 1))[1] - 1


# Decision 1 + sum of excluded values; order-insensitive but
# multiplicity-sensitive, and never equal to any single excluded value.
# The total starts at 1, so it is the decision: ``operator.pos`` is an
# identity on ints that runs no Python frame.  The array form adds the
# excluded values to int64 totals.
alg_sum = Fold(1, _sum_extend, operator.pos,
               ArrayFold(1, operator.add, _sum_operands, operator.pos))

# Least natural number not excluded by the sample.  The array form ORs
# ``1 << a`` into an int64 mask when every excluded value is below 63.
alg_min = Fold(frozenset(), _min_extend, _mex,
               ArrayFold(0, operator.or_, _min_operands, _min_finish_array))


def alg_sum_values(values: list[int] | np.ndarray) -> int:
    """``alg_sum`` on the excluded values themselves: a list, or an int
    array whose sum int64 holds (the geometric sampler's is at most 52 n)."""
    if isinstance(values, list):
        return sum(values, 1)
    return int(values.sum()) + 1


def alg_min_values(values: list[int] | np.ndarray) -> int:
    """``alg_min`` on the excluded values themselves: a list through the
    set of its values, as the fold finishes, an int array as the lowest
    clear bit of the OR of ``1 << a``, or through the set when it holds an
    ``a >= 63``, which int64 cannot shift."""
    if isinstance(values, list) or values.size and values.max() >= 63:
        return _mex(frozenset(values))
    import numpy as np

    bits = int(np.bitwise_or.reduce(np.left_shift(1, values, dtype=np.int64)))
    return (bits ^ (bits + 1)).bit_length() - 1


sum_system = ScenarioSystem("sum-no-scheme", alg_sum, exclusion_satisfies,
                            decide_values=alg_sum_values)
min_system = ScenarioSystem("min-no-map", alg_min, exclusion_satisfies,
                            decide_values=alg_min_values)


def geometric_mass(a: int) -> float:
    """Point mass 2^-(a+1) of U(a) under the geometric measure, which is
    also the risk of the natural decision a: U(a) is the one constraint it
    violates."""
    return 0.5 ** (a + 1)


def _geometric_sample(rng: np.random.Generator) -> ExclusionConstraint:
    return ExclusionConstraint(int(rng.geometric(0.5)) - 1)


# Value count from which ``_geometric_sample_values`` maps one ``random``
# block itself: below it, numpy's ``geometric`` and ``tolist`` are faster
# to draw and decide on (they break even near 120 values on a 2-CPU host).
_GEOMETRIC_ARRAY_FROM = 128


def _geometric_sample_values(rng: np.random.Generator,
                             n: int) -> list[int] | np.ndarray:
    # For p >= 1/3 numpy draws a geometric variate X from one double U by
    # its search loop, in batch as in scalar calls: the least k >= 1 with
    # U <= p (1 + q + ... + q^(k-1)).  At p = 1/2 those partial sums are
    # exactly 1 - 2^-k up to k = 53, then 1.0, and U <= 1 - 2^-53, so X is
    # the least k >= 1 with 2^-k <= 1 - U.  1 - U is exact, and
    # frexp(1 - U) = (m, e) puts it in [2^(e-1), 2^e), so X - 1 =
    # max(0, -e) <= 52: a sum of n values cannot overflow int64.
    if n < _GEOMETRIC_ARRAY_FROM:
        return (rng.geometric(0.5, size=n) - 1).tolist()
    import numpy as np

    values = np.subtract(0, np.frexp(1.0 - rng.random(n))[1], dtype=np.int64)
    return np.maximum(values, 0, out=values)


# Geometric measure on exclusion constraints, p(U(a)) = 2^-(a+1).
geometric_exclusion_distribution = ConstraintDistribution(
    sample=_geometric_sample,
    analytic_violation=geometric_mass,
    sample_values=_geometric_sample_values,
    constraint_class=ExclusionConstraint,
)


# ---------------------------------------------------------------------------
# Membership-constraint system on subsets of [0, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipConstraint:
    """The constraint U(a): the decision set must contain the point a, a
    real number that is not a ``bool`` (see ``core.is_real``)."""

    a: float

    def __post_init__(self) -> None:
        if not is_real(self.a):
            raise ValueError(
                f"membership point must be a real number, got {self.a!r}")
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
            if not all(map(operator.lt, pts, pts[1:])):
                raise ValueError("finite-set points must be sorted, distinct")
            if pts and not (0.0 <= pts[0] and pts[-1] <= 1.0):
                raise ValueError("finite-set points must lie in [0, 1]")

    @property
    def is_full_interval(self) -> bool:
        return self.points is None


OPEN_UNIT_INTERVAL = IntervalDecision(None)


def alg_interval(vz: tuple) -> IntervalDecision:
    """Return the sampled points when 0 was sampled, else (0, 1]."""
    return alg_interval_values([z.a for z in vz])


# Point count from which ``alg_interval_values`` sorts a list with numpy:
# below it, ``sorted(set(values))`` is faster (fresh sampled lists break even
# near 80 to 100 points on a 2-CPU host) and loads no numpy.
_NUMPY_SORT_FROM = 100


def alg_interval_values(values: list[float] | np.ndarray) -> IntervalDecision:
    """``alg_interval`` on the sampled points themselves, a list or a float
    array.

    An array, and a list from ``_NUMPY_SORT_FROM`` points up, is sorted by
    one ``np.sort``, and a mask of adjacent repeats gives the sorted
    distinct points as Python floats (points given as ints or numpy scalars
    come back as floats there).  ``set`` keeps the first of equal points:
    for a point other than zero that is the same float, and the zero
    written back is ``values``' first zero, 0.0 or -0.0 (a float for an
    array).  ``np.unique`` would import ``numpy.ma``, about 1.3 MB.
    """
    if isinstance(values, list):
        if 0.0 not in values:
            return OPEN_UNIT_INTERVAL
        if len(values) < _NUMPY_SORT_FROM:
            return IntervalDecision(tuple(sorted(set(values))))
        zero = values[values.index(0.0)]
    else:
        zeros = (values == 0.0).nonzero()[0]
        if not len(zeros):
            return OPEN_UNIT_INTERVAL
        zero = float(values[zeros[0]])
    import numpy as np

    ordered = np.array(values, dtype=float)
    ordered.sort()
    points = ordered[np.append(True, ordered[1:] != ordered[:-1])].tolist()
    points[points.index(0.0)] = zero
    return IntervalDecision(tuple(points))


def interval_satisfies(x: IntervalDecision, z: MembershipConstraint) -> bool:
    if x.is_full_interval:
        return z.a > 0.0
    return z.a in x.points


interval_system = ScenarioSystem("interval-not-pac", alg_interval,
                                 interval_satisfies,
                                 decide_values=alg_interval_values)


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


def _atom_sample(rng: np.random.Generator) -> MembershipConstraint:
    if rng.random() < 0.5:
        return MembershipConstraint(0.0)
    return MembershipConstraint(1.0 - rng.random())  # uniform on (0, 1]


# Value count from which ``_atom_sample_values`` replays the scalar stream
# in one numpy pass: below it, the Python loop is faster (the two break even
# near 250 values on a 2-CPU host) and loads no numpy.
_ATOM_ARRAY_FROM = 256


def _atom_sample_values(rng: np.random.Generator,
                        n: int) -> list[float] | np.ndarray:
    # Replays the scalar stream: each double is a coin or, after a coin of
    # 1/2 or more, the point.
    if n < _ATOM_ARRAY_FROM:
        # Every unfinished constraint needs at least one more double, so
        # drawing that many never overdraws.
        out: list[float] = []
        coin_pending = True
        while len(out) < n:
            for u in rng.random(n - len(out)).tolist():
                if not coin_pending:
                    out.append(1.0 - u)
                    coin_pending = True
                elif u < 0.5:
                    out.append(0.0)
                else:
                    coin_pending = False
        return out
    import numpy as np

    # A constraint takes at most two doubles, so 2n of them hold n
    # constraints.  Index 0 and every index after a double below 1/2 hold a
    # coin, and in a run of doubles of 1/2 or more coins and points
    # alternate from there: index j + 1 holds a point iff u[j] >= 1/2 and
    # j minus the last index <= j of a double below 1/2 (-1 for none) is
    # odd.  A coin below 1/2 or a point ends a constraint.
    saved = rng.bit_generator.state
    u = rng.random(2 * n)
    low = u < 0.5
    index = np.arange(2 * n)
    odd = (index - np.maximum.accumulate(np.where(low, index, -1))) & 1
    point = np.append(False, odd[:-1].astype(bool))
    ends = np.flatnonzero(point | low)[:n]
    # Redraw the doubles the n constraints read, so the generator stops
    # where n scalar calls stop.
    rng.bit_generator.state = saved
    rng.random(ends[-1] + 1)
    return np.where(point[ends], 1.0 - u[ends], 0.0)  # a coin's zero is +0.0


# Mass 1/2 on the atom U(0), and the other 1/2 spread uniformly over
# U(a), a in (0, 1].
atom_plus_uniform = ConstraintDistribution(
    sample=_atom_sample,
    analytic_violation=analytic_risk_interval,
    sample_values=_atom_sample_values,
    constraint_class=MembershipConstraint,
)
