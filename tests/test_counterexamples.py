"""Tests for the four concrete counterexample systems."""

import itertools
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scenlab import codecs
from scenlab.counterexamples import (
    _NUMPY_SORT_FROM,
    MAX_ARC_FAMILY,
    BandConstraint,
    ExclusionConstraint,
    IntervalDecision,
    MembershipConstraint,
    OPEN_UNIT_INTERVAL,
    PolygonConstraint,
    alg_convex_maxx1,
    alg_interval,
    alg_interval_values,
    alg_min,
    alg_sum,
    analytic_risk_interval,
    angle_of,
    atom_plus_uniform,
    convex_mixture_distribution,
    convex_satisfies,
    convex_satisfies_values,
    convex_system,
    geometric_exclusion_distribution,
    geometric_mass,
    interval_satisfies,
    interval_system,
    min_system,
    n_of,
    sigma_polygon,
    sum_system,
    tau,
)
from scenlab.geometry import POINT_TOL, cross, points_equal
from scenlab.pathplan import BarrierConstraint
from scenlab.rng import stream

subsets = st.frozensets(st.integers(min_value=1, max_value=16), max_size=6)


# ---------------------------------------------------------------------------
# Arc family
# ---------------------------------------------------------------------------


def test_n_of_values():
    assert n_of(()) == 0
    assert n_of({1}) == 1
    assert n_of({2}) == 2
    assert n_of({1, 2}) == 3
    assert n_of({1, 3}) == 5
    with pytest.raises(ValueError):
        n_of({0})


@given(subsets, subsets)
def test_n_of_injective(u, v):
    if u != v:
        assert n_of(u) != n_of(v)


def test_angle_and_tau_frozen_values():
    assert angle_of(()) == 0.0
    assert tau(()) == (1.0, 0.0)
    # n = 1 -> angle pi/4.
    assert tau({1}) == pytest.approx(
        (math.cos(math.pi / 4), math.sin(math.pi / 4)), rel=1e-15)
    # n = 3 -> angle 3 pi / 8.
    assert angle_of({1, 2}) == pytest.approx(3 * math.pi / 8, rel=1e-15)


@given(subsets)
def test_tau_on_unit_circle_below_quarter(u):
    x, y = tau(u)
    assert math.hypot(x, y) == pytest.approx(1.0, rel=1e-12)
    assert 0.0 <= angle_of(u) < math.pi / 2


def test_sigma_polygon_vertices_are_supersets_of_i():
    # The subsets of [3] that hold 2, by binary encoding, then (0, 1).
    expected = [tau(u) for u in ({2}, {1, 2}, {2, 3}, {1, 2, 3})]
    assert sigma_polygon(3, 2) == (*expected, (0.0, 1.0))
    with pytest.raises(ValueError):
        sigma_polygon(3, 4)


def test_sigma_polygon_is_ccw_on_unit_circle():
    for m, i in [(1, 1), (3, 2), (4, 4)]:
        poly = sigma_polygon(m, i)
        assert poly[-1] == (0.0, 1.0)
        assert len(poly) == 2 ** (m - 1) + 1
        for p in poly:
            assert math.hypot(*p) == pytest.approx(1.0, rel=1e-12)
        n = len(poly)
        if n >= 3:  # sigma(1, 1) degenerates to a chord
            for a, b, c in ((poly[j], poly[(j + 1) % n], poly[(j + 2) % n])
                            for j in range(n)):
                assert cross(a, b, c) > 0.0


# ---------------------------------------------------------------------------
# Convex max-x1 system
# ---------------------------------------------------------------------------


def test_constraint_validation():
    with pytest.raises(ValueError):
        PolygonConstraint(2, 3)
    with pytest.raises(ValueError):
        BandConstraint(1.5)


@pytest.mark.parametrize("m, i", [(True, True), (2.0, 1), (2, 1.0),
                                  (np.int64(2), 1), ("2", 1), (2, None)])
def test_polygon_refuses_indices_other_than_an_int(m, i):
    with pytest.raises(ValueError, match="must be ints"):
        PolygonConstraint(m, i)


REAL_VALUED = [(MembershipConstraint, "membership point"),
               (BandConstraint, "band level"),
               (BarrierConstraint, "barrier angle")]


@pytest.mark.parametrize("cls, what", REAL_VALUED)
@pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j,
                                   np.float32(0.5), [0.5]])
def test_constraints_refuse_values_other_than_a_real_number(cls, what, value):
    """The numbers ``codecs`` decodes: a bool, a string or a numpy float32
    would encode to what ``decode_constraint`` refuses."""
    with pytest.raises(ValueError, match=f"{what} must be a real number"):
        cls(value)


@pytest.mark.parametrize("cls", [cls for cls, _ in REAL_VALUED])
@pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5)])
def test_constraints_take_ints_and_floats_and_round_trip(cls, value):
    z = cls(value)
    assert codecs.decode_constraint(codecs.encode_constraint(z)) == z


@pytest.mark.parametrize("level", [True, False, "0.5"])
def test_convex_values_refuse_a_level_that_no_band_takes(level):
    """The value hooks refuse what ``BandConstraint`` refuses, as their
    contracts with ``convex_constraint`` require; ints 0 and 1 are
    levels."""
    with pytest.raises(ValueError):
        convex_satisfies_values((1.0, 0.0), [0.5, level])
    with pytest.raises(ValueError):
        convex_system.decide_values([0.5, level])
    for y in (0, 1):
        assert convex_satisfies_values((1.0, 0.0), [y]) == \
            [convex_satisfies((1.0, 0.0), BandConstraint(y))]


def test_interval_refuses_a_false_point_before_deciding():
    # False == 0.0, so the decision would be {"finite_set": [false]}.
    with pytest.raises(ValueError, match="must be a real number"):
        alg_interval((MembershipConstraint(False),))


def test_polygon_constraint_carries_sigma_but_compares_by_its_indices():
    """``vertices`` is sigma(m, i), built on first use and kept; it is no
    field, so equality, hashing, the repr and ``asdict`` see (m, i) only."""
    z, same = PolygonConstraint(3, 2), PolygonConstraint(3, 2)
    assert "vertices" not in vars(z)
    assert z.vertices == sigma_polygon(3, 2) and z.vertices is z.vertices
    assert z == same and hash(z) == hash(same)
    assert "vertices" not in vars(same)
    assert repr(z) == "PolygonConstraint(m=3, i=2)"
    assert asdict(z) == {"m": 3, "i": 2}
    assert [f.name for f in fields(z)] == ["m", "i"]


def test_polygon_family_size_is_bounded():
    z = PolygonConstraint(MAX_ARC_FAMILY, 1)
    assert len(z.vertices) == 2 ** (MAX_ARC_FAMILY - 1) + 1
    with pytest.raises(ValueError, match=f"m <= {MAX_ARC_FAMILY}"):
        PolygonConstraint(MAX_ARC_FAMILY + 1, 1)


def test_alg_convex_empty_and_bands():
    assert alg_convex_maxx1(()) == (1.0, 0.0)
    y = math.sin(math.pi / 4)
    decision = alg_convex_maxx1((BandConstraint(y),))
    assert points_equal(decision, tau({1}), 1e-12)
    # Multiple bands: only the highest level binds.
    decision2 = alg_convex_maxx1((BandConstraint(0.1), BandConstraint(y)))
    assert points_equal(decision2, decision, 1e-15)


def test_alg_convex_polygons():
    # A single polygon: the optimum is its arc point of smallest angle.
    decision = alg_convex_maxx1((PolygonConstraint(2, 1),))
    assert points_equal(decision, tau({1}), 1e-12)
    # Two intersected polygons: the optimum stays feasible for both and
    # does at least as well as the common arc point tau({1, 2}).
    vz = (PolygonConstraint(2, 1), PolygonConstraint(2, 2))
    decision = alg_convex_maxx1(vz)
    assert all(convex_satisfies(decision, z) for z in vz)
    assert decision[0] >= tau({1, 2})[0] - 1e-12


def test_alg_convex_band_plus_polygon():
    # Band above all arc points of sigma(1, 1) leaves only the apex region.
    decision = alg_convex_maxx1((PolygonConstraint(1, 1), BandConstraint(0.9)))
    assert decision[1] >= 0.9 - 1e-12
    assert convex_satisfies(decision, PolygonConstraint(1, 1))


def test_alg_convex_single_polygon_takes_its_max_x_vertex():
    # sigma(1, 1) is the segment from tau({1}) to (0, 1).
    assert alg_convex_maxx1((PolygonConstraint(1, 1),)) == tau({1})


@pytest.mark.parametrize("z", [BarrierConstraint(1.0), ExclusionConstraint(0)])
def test_alg_convex_rejects_other_constraints(z):
    """A constraint that is neither a polygon nor a band is a type error,
    not a decision that ignores it."""
    with pytest.raises(TypeError, match=type(z).__name__):
        alg_convex_maxx1((PolygonConstraint(2, 1), z))


def test_convex_satisfies():
    assert convex_satisfies((0.0, 1.0), PolygonConstraint(3, 2))
    assert convex_satisfies(tau({2}), PolygonConstraint(2, 2))
    assert not convex_satisfies(tau({1}), PolygonConstraint(2, 2))
    assert convex_satisfies((0.5, 0.5), BandConstraint(0.5))
    assert not convex_satisfies((0.5, 0.4), BandConstraint(0.5))


def test_convex_system_consistency_randomized():
    for trial in range(200):
        rng = stream(17, trial)
        vz = []
        for _ in range(int(rng.integers(0, 5))):
            if rng.random() < 0.5:
                vz.append(BandConstraint(float(rng.random())))
            else:
                m = int(rng.integers(1, 5))
                vz.append(PolygonConstraint(m, int(rng.integers(1, m + 1))))
        x = convex_system.decide(tuple(vz))
        assert all(convex_system.satisfies(x, z) for z in vz)


TEN_POLYGONS = tuple(PolygonConstraint(m, i)
                     for m in range(1, 5) for i in range(1, m + 1))


def outside_points(polygon, gaps=(0.5, 1.0, 1.5, 3.0, 1e3)):
    """Each edge midpoint and vertex of ``polygon`` moved out across the
    edge by ``gap * POINT_TOL``, where the move stays in the unit disk."""
    out = []
    for a, b in zip(polygon, polygon[1:] + polygon[:1]):
        d = math.dist(a, b)
        normal = ((b[1] - a[1]) / d, (a[0] - b[0]) / d)  # outward for CCW
        for base in (a, ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)):
            for gap in gaps:
                p = (base[0] + gap * POINT_TOL * normal[0],
                     base[1] + gap * POINT_TOL * normal[1])
                if math.hypot(*p) <= 1.0:
                    out.append(p)
    return out


TOP_LEVEL = 1.0 - POINT_TOL
CONVEX_KEY_POINTS = sorted({
    (0.0, 1.0),
    *(v for z in TEN_POLYGONS for v in sigma_polygon(z.m, z.i)),
    *(p for z in TEN_POLYGONS for p in outside_points(sigma_polygon(z.m, z.i))),
    *((x0, y) for x0 in (0.0, -1e-9, 1e-9, 3e-9)
      for y in (TOP_LEVEL, *(TOP_LEVEL + k * math.ulp(TOP_LEVEL)
                             for k in (-3, -2, -1, 1, 2, 3)))),
})
disk_points = st.builds(
    lambda r, a: (r * math.cos(a), r * math.sin(a)),
    st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
# Within 5e-8 of the top (0, 1), where the eleven constraints meet.
top_points = st.builds(
    lambda r, a: (r * math.cos(a), 1.0 + r * math.sin(a)),
    st.floats(0.0, 5e-8), st.floats(-math.pi, 0.0))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(CONVEX_KEY_POINTS) | top_points | disk_points,
       st.integers(0, 2 ** 32 - 1))
@example((0.0, 1.0), 0)
@example((0.0, TOP_LEVEL), 0)
# In band 1 and nine polygons but not sigma(1, 1), and in the ten polygons
# and the band at 0.999 but not the band at nextafter(1, 0).
@example((-8.889195065356239e-10, 0.999999999859209), 0)
@example((4.5616256692186286e-10, 0.9999999989990426), 0)
def test_convex_dominating_constraints_are_sound(x, seed):
    """A point of the unit disk that satisfies the mixture's dominating
    constraints satisfies every constraint the mixture can draw: all ten
    polygons, bands at 0, 0.5 and just below 1, and fresh draws."""
    dist = convex_mixture_distribution
    assume(math.hypot(*x) <= 1.0)
    if not all(convex_satisfies(x, z) for z in dist.dominating):
        return
    assert all(convex_satisfies(x, z) for z in TEN_POLYGONS)
    assert all(convex_satisfies(x, BandConstraint(level))
               for level in (0.0, 0.5, math.nextafter(1.0, 0.0)))
    assert all(convex_satisfies_values(x, dist.sample_values(stream(seed),
                                                             2000)))


# ---------------------------------------------------------------------------
# Exclusion systems
# ---------------------------------------------------------------------------


def test_exclusion_validation():
    with pytest.raises(ValueError):
        ExclusionConstraint(-1)


@pytest.mark.parametrize("a", [2.5, 2.0, True, False, "3", None,
                               np.int64(3)])
def test_exclusion_refuses_values_other_than_an_int(a):
    with pytest.raises(ValueError, match="must be an int"):
        ExclusionConstraint(a)


def test_alg_sum_values():
    assert alg_sum(()) == 1
    assert alg_sum((ExclusionConstraint(2), ExclusionConstraint(5))) == 8
    # Multiplicity matters, order does not.
    twice = (ExclusionConstraint(3), ExclusionConstraint(3))
    assert alg_sum(twice) == 7


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=8))
def test_alg_sum_order_insensitive_and_consistent(values):
    vz = tuple(ExclusionConstraint(a) for a in values)
    x = alg_sum(vz)
    assert x == alg_sum(tuple(reversed(vz)))
    assert all(sum_system.satisfies(x, z) for z in vz)


@given(st.lists(st.integers(min_value=0, max_value=20), max_size=8))
def test_alg_min_matches_enumeration_oracle(values):
    vz = tuple(ExclusionConstraint(a) for a in values)
    excluded = set(values)
    oracle = next(x for x in range(len(values) + 1) if x not in excluded)
    assert alg_min(vz) == oracle
    assert all(min_system.satisfies(oracle, z) for z in vz)


def test_geometric_mass_and_analytic_risk():
    assert geometric_mass(0) == 0.5
    assert geometric_mass(3) == 0.0625
    assert sum(geometric_mass(a) for a in range(60)) == pytest.approx(1.0)
    # A natural decision x violates U(x) alone, so its risk is U(x)'s mass.
    assert geometric_exclusion_distribution.analytic_violation is geometric_mass
    assert geometric_exclusion_distribution.analytic_violation(2) == 0.125


def test_geometric_distribution_frequencies():
    dist = geometric_exclusion_distribution
    rng = stream(23, 0)
    draws = [dist.sample(rng).a for _ in range(20000)]
    for a in range(4):
        freq = draws.count(a) / len(draws)
        assert freq == pytest.approx(geometric_mass(a), abs=0.02)


# ---------------------------------------------------------------------------
# Interval system
# ---------------------------------------------------------------------------


def test_interval_decision_validation():
    with pytest.raises(ValueError):
        IntervalDecision((0.5, 0.2))
    with pytest.raises(ValueError):
        IntervalDecision((0.2, 0.2))
    with pytest.raises(ValueError):
        IntervalDecision((-0.1, 0.5))
    assert OPEN_UNIT_INTERVAL.is_full_interval
    assert not IntervalDecision((0.0, 0.5)).is_full_interval


@st.composite
def point_tuples(draw):
    """NaN-free float tuples, often sorted and often with repeats (-0.0 and
    0.0 compare equal)."""
    points = draw(st.lists(st.floats(allow_nan=False) | st.floats(0.0, 1.0)
                           | st.sampled_from([-0.0, 0.0, 1.0]), max_size=6))
    points += draw(st.lists(st.sampled_from(points), max_size=2)) \
        if points else []
    return tuple(draw(st.sampled_from([points, sorted(points),
                                       sorted(set(points))])))


@settings(max_examples=500)
@given(point_tuples())
def test_interval_decision_accepts_sorted_distinct_points(points):
    expected = list(points) == sorted(set(points)) and (
        not points or (0.0 <= points[0] and points[-1] <= 1.0))
    try:
        IntervalDecision(points)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected


@pytest.mark.parametrize("points", [(math.nan,), (0.0, math.nan, 1.0),
                                    (math.nan, 0.5), (0.0, math.nan)])
def test_interval_decision_rejects_nan(points):
    with pytest.raises(ValueError):
        IntervalDecision(points)


def test_alg_interval_branches():
    vz = (MembershipConstraint(0.3), MembershipConstraint(0.7))
    assert alg_interval(vz) is OPEN_UNIT_INTERVAL
    vz_with_atom = vz + (MembershipConstraint(0.0),)
    decision = alg_interval(vz_with_atom)
    assert decision.points == (0.0, 0.3, 0.7)
    assert alg_interval(()) is OPEN_UNIT_INTERVAL


def hex_and_type(decision):
    """Each point's ``float.hex`` and type, or None for (0, 1]."""
    if decision.points is None:
        return None
    return [(float.hex(p), type(p)) for p in decision.points]


def interval_outcome(decide, values):
    try:
        return hex_and_type(decide(values))
    except ValueError as error:
        return str(error)


def sorted_set_decision(values):
    """The interval decision below the threshold: ``sorted(set(values))``."""
    if 0.0 in values:
        return IntervalDecision(tuple(sorted(set(values))))
    return OPEN_UNIT_INTERVAL


unit_points = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 0.5, 1.0])


@settings(deadline=None, max_examples=100)
@given(data=st.data(), above=st.booleans(), outside=st.booleans())
def test_interval_values_decide_as_sorted_set_on_both_sides(data, above,
                                                            outside):
    """Below ``_NUMPY_SORT_FROM`` points and above it (``np.sort``), the same
    points with the same bits and types, the same zero among 0.0 and -0.0,
    or, with points drawn from all floats, the same ``ValueError`` for a
    point outside [0, 1]."""
    low, high = ((_NUMPY_SORT_FROM, 3 * _NUMPY_SORT_FROM) if above
                 else (0, _NUMPY_SORT_FROM - 1))
    points = unit_points | st.floats(allow_nan=False) if outside \
        else unit_points
    values = data.draw(st.lists(points, min_size=low, max_size=high))
    if values:  # repeat some points, then shuffle
        values += data.draw(st.lists(st.sampled_from(values),
                                     max_size=high - len(values)))
        values = data.draw(st.permutations(values))
    assert interval_outcome(alg_interval_values, values) == \
        interval_outcome(sorted_set_decision, values)


@pytest.mark.parametrize("n", [_NUMPY_SORT_FROM - 1, _NUMPY_SORT_FROM, 1000])
@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
                                   (0.0,)])
@pytest.mark.parametrize("at", [0, 1, -1])
def test_interval_values_keep_the_first_zero(n, zeros, at):
    """Repeated positive points, and the first zero whichever sign it has,
    placed first, second or last."""
    rng = stream(n)
    # Many repeats, and no zero: 0.01 to 1.0 in steps of 0.01.
    fill = (0.01 + 0.99 * rng.random(n - len(zeros))).round(2).tolist()
    values = fill[:at % (len(fill) + 1)] + list(zeros) \
        + fill[at % (len(fill) + 1):]
    values.append(values[-1])
    decision = alg_interval_values(values)
    assert hex_and_type(decision) == \
        hex_and_type(sorted_set_decision(values))
    assert float.hex(decision.points[0]) == float.hex(zeros[0])


@pytest.mark.parametrize("point", [1.5, -0.5, math.inf, -math.inf])
def test_interval_values_refuse_a_point_outside_the_unit_interval(point):
    for n in (3, _NUMPY_SORT_FROM, 500):
        values = [0.0, point, *[0.25] * (n - 2)]
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            alg_interval_values(values)


def test_interval_satisfies():
    assert interval_satisfies(OPEN_UNIT_INTERVAL, MembershipConstraint(0.4))
    assert not interval_satisfies(OPEN_UNIT_INTERVAL, MembershipConstraint(0.0))
    finite = IntervalDecision((0.0, 0.4))
    assert interval_satisfies(finite, MembershipConstraint(0.0))
    assert interval_satisfies(finite, MembershipConstraint(0.4))
    assert not interval_satisfies(finite, MembershipConstraint(0.5))


def test_interval_consistency_randomized():
    dist = atom_plus_uniform
    for trial in range(500):
        rng = stream(29, trial)
        vz = dist.sample_tuple(rng, int(rng.integers(0, 8)))
        x = interval_system.decide(vz)
        assert all(interval_system.satisfies(x, z) for z in vz)


def test_analytic_risk_interval():
    assert analytic_risk_interval(OPEN_UNIT_INTERVAL) == 0.5
    assert analytic_risk_interval(IntervalDecision((0.0, 0.3))) == 0.5
    with pytest.raises(ValueError):
        analytic_risk_interval(IntervalDecision((0.3,)))


def test_atom_plus_uniform_frequencies():
    dist = atom_plus_uniform
    rng = stream(31, 0)
    draws = [dist.sample(rng).a for _ in range(20000)]
    atom_freq = sum(1 for a in draws if a == 0.0) / len(draws)
    assert atom_freq == pytest.approx(0.5, abs=0.02)
    positives = [a for a in draws if a > 0.0]
    assert all(0.0 < a <= 1.0 for a in positives)
    # Uniform on (0, 1]: mean 1/2, and mass below 1/4 is about 1/4.
    assert np.mean(positives) == pytest.approx(0.5, abs=0.02)
    below = sum(1 for a in positives if a <= 0.25) / len(positives)
    assert below == pytest.approx(0.25, abs=0.02)
