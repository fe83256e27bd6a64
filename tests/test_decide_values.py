"""Contract of the value deciders: ``decide_values(values)`` equals
``decide(tuple(map(cls, values)))`` for the distribution's constraint class,
so PAC curves do not depend on whether a decision was taken on values."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenlab import pathplan
from scenlab.core import pac_curve
from scenlab.counterexamples import (
    BandConstraint,
    PolygonConstraint,
    alg_interval_values,
    alg_min_values,
    alg_sum_values,
)
from scenlab.pathplan import Scene, clearance_height
from scenlab.registry import SYSTEMS, get_bundle
from scenlab.rng import stream

VALUE_SYSTEMS = tuple(SYSTEMS)


def test_every_registry_system_decides_on_values():
    for bundle in SYSTEMS.values():
        assert bundle.system.decide_values is not None
        assert bundle.distribution.constraint_class is not None


def outcome(decide, arg):
    """The decision, or the text of the ``ValueError`` it raises."""
    try:
        return decide(arg)
    except ValueError as error:
        return str(error)


def assert_same_decision(key, values):
    """Equal decisions, or the same ``ValueError`` text from both.

    ``values`` is a list or a sampler's numpy array, which ``decide_values``
    takes as drawn; the constraints are built from its Python numbers, as
    ``sample_tuple`` builds them (``ExclusionConstraint`` refuses a numpy
    integer)."""
    bundle = get_bundle(key)
    cls = bundle.distribution.constraint_class
    numbers = values if isinstance(values, list) else values.tolist()
    expected = outcome(bundle.system.decide, tuple(map(cls, numbers)))
    assert outcome(bundle.system.decide_values, values) == expected


@pytest.mark.parametrize("key", VALUE_SYSTEMS)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 2, 7, 1000]))
# alg1 raises on this draw although a path exists: of three tips within
# 1.3e-5 rad near theta = 1.1719, the hull chain pops the first two as
# grazed, one after the other, and the final chord passes 1.7e-9 below the
# first.  decide raises the same error.
@example(seed=19, n=1000)
def test_decide_values_matches_decide_on_sampled_values(key, seed, n):
    values = get_bundle(key).distribution.sample_values(stream(seed), n)
    assert_same_decision(key, values)


@pytest.mark.parametrize("key", VALUE_SYSTEMS)
def test_decide_values_of_no_values(key):
    assert_same_decision(key, [])


@pytest.mark.parametrize("values", [
    [0.0], [0.0, 0.0], [0.5, 0.0, 0.25, 0.0], [0.0, 1.0, 0.0], [1.0, 0.5]])
def test_interval_decide_values_on_repeated_atoms(values):
    assert_same_decision("interval-not-pac", values)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17])
def test_min_decide_values_on_leading_naturals(k):
    naturals = list(range(k + 1))
    assert_same_decision("min-no-map", naturals)
    assert_same_decision("min-no-map", naturals[::-1] + naturals)
    assert get_bundle("min-no-map").system.decide_values(naturals) == k + 1
    assert_same_decision("sum-no-scheme", naturals + naturals)


@pytest.mark.parametrize("values", [
    [math.pi / 2.0, math.pi / 2.0],
    [1.0, 1.0, 0.5],
    [1.0, math.pi - 1.0],
    [0.3, math.pi / 2.0, math.pi - 0.3, math.pi / 2.0],
])
def test_alg2_decide_values_on_tied_clearances(values):
    length = Scene().barrier_length
    heights = [clearance_height(theta, length) for theta in values]
    assert heights.count(max(heights)) >= 2 or \
        max(heights) - sorted(heights)[-2] <= 1e-15
    assert_same_decision("path-alg2", values)


@pytest.mark.parametrize("key", VALUE_SYSTEMS)
def test_pac_curve_does_not_depend_on_decide_values(key):
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    on_objects = dataclasses.replace(system, decide_values=None)

    def no_objects(vz):
        raise AssertionError("decided on constraint objects")

    # With both hooks set, pac_curve never builds a constraint tuple.
    system = dataclasses.replace(system, decide=no_objects)
    n_list, trials = [0, 1, 3, 10], 40
    on_values = pac_curve(system, dist, 0.1, n_list, trials, seed=5)
    assert on_values.to_csv() == \
        pac_curve(on_objects, dist, 0.1, n_list, trials, seed=5).to_csv()


AXIS = math.pi - 6e-10  # tip height 3e-10, within POINT_TOL of the axis


@pytest.mark.parametrize("values", [
    [1e-12], [1e-12, 1e-12], [1e-12, AXIS], [AXIS, 1e-12, AXIS],
    [1e-12, 0.3], [0.3, 1e-12, 1e-12, 0.3],
    [1e-12] * 50, [AXIS, *[1e-12] * 49], [0.3, *[1e-12] * 49],
])
def test_alg1_decide_values_plans_or_fails_as_decide_does(values):
    """On the values alone, alg1 raises the same error text as on the
    barriers (which the fold plans as a set), naming the lowest tip, or
    plans the same path over the tip at 0.3, also from long lists whose
    sets are one or two barriers."""
    system = get_bundle("path-alg1").system
    expected = outcome(system.decide, tuple(map(pathplan.BarrierConstraint,
                                                values)))
    assert outcome(system.decide_values, values) == expected
    assert outcome(system.decide_values, values[::-1]) == expected
    if 0.3 in values:
        assert isinstance(expected, pathplan.Polyline)
    else:
        assert expected.startswith("no path clears barrier theta=1e-12,")


@pytest.mark.parametrize("values", [
    [PolygonConstraint(3, 2), PolygonConstraint(3, 2)],
    [0.5, 0.5], [0.0, -0.0], [-0.0, 0.0], [1.0, 1.0],
    [0.5, PolygonConstraint(2, 1), 0.5, PolygonConstraint(2, 1), 0.25],
    [PolygonConstraint(4, 1), 0.3, PolygonConstraint(4, 1), 0.3,
     PolygonConstraint(3, 3), 1.0, PolygonConstraint(3, 3)],
    [PolygonConstraint(1, 1), -0.0, PolygonConstraint(1, 1), 0.0],
])
def test_convex_decide_values_on_repeated_polygons_and_tied_bands(values):
    """Tied levels keep the earlier one, down to the sign of a zero."""
    bundle = get_bundle("convex-vc")
    cls = bundle.distribution.constraint_class
    expected = bundle.system.decide(tuple(map(cls, values)))
    assert repr(bundle.system.decide_values(values)) == repr(expected)


@pytest.mark.parametrize("seed", [0, 1, 19, 49])
def test_alg1_returns_only_paths_that_clear_every_barrier(seed):
    """Checked by the numpy batch test, which alg1 does not use.  At seeds
    19 and 49 the hull leaves a grazed tip above its final chord, so
    alg1's own check must refuse the hull (ROADMAP item 33)."""
    bundle = get_bundle("path-alg1")
    thetas = bundle.distribution.sample_values(stream(seed), 1000)
    try:
        path = bundle.system.decide_values(thetas)
    except ValueError:
        assert seed in (19, 49)
        return
    assert all(pathplan.barrier_satisfied_values(pathplan.SCENE, path,
                                                 thetas))


@pytest.mark.parametrize("values, point", [
    ([0.0, -0.0], "(1.0, 0.0)"), ([-0.0, 0.0], "(1.0, -0.0)"),
])
def test_convex_tied_bands_keep_the_earlier_level(values, point):
    system = get_bundle("convex-vc").system
    assert repr(system.decide_values(values)) == point
    assert repr(system.decide(tuple(map(BandConstraint, values)))) == point


@pytest.mark.parametrize("level", [1.5, -0.5, math.nan])
def test_convex_decide_values_rejects_a_level_outside_the_unit_interval(
        level):
    system = get_bundle("convex-vc").system
    with pytest.raises(ValueError, match="band level must lie in"):
        system.decide_values([0.5, PolygonConstraint(2, 1), level])


def test_pac_curve_checks_each_distinct_decision_against_dominating_once():
    """Counted through a wrapped ``satisfies``, which on ``convex-vc`` only
    the dominance check calls: no decision meets a dominating constraint
    twice, and the curve is the one without the shortcut."""
    bundle = get_bundle("convex-vc")
    system, dist = bundle.system, bundle.distribution
    checked, decisions = [], []

    def satisfies(x, z):
        checked.append((x, z))
        return system.satisfies(x, z)

    def decide_values(values):
        decisions.append(system.decide_values(values))
        return decisions[-1]
    counted = dataclasses.replace(system, satisfies=satisfies,
                                  decide_values=decide_values)
    n_list, trials = [0, 1, 5, 20, 50], 10
    curve = pac_curve(counted, dist, 0.1, n_list, trials, seed=0)
    assert curve.to_csv() == pac_curve(
        system, dataclasses.replace(dist, dominating=()), 0.1, n_list, trials,
        seed=0).to_csv()
    assert len(decisions) == len(n_list) * trials
    assert len(set(decisions)) < len(decisions) // 2
    assert len(checked) == len(set(checked))
    assert {x for x, _ in checked} == set(decisions)


@pytest.mark.parametrize("seed, n", [(0, 0), (1, 1), (2, 7), (3, 39),
                                     (4, 40), (5, 300), (19, 1000)])
def test_path_systems_decide_the_drawn_array_as_its_list(seed, n):
    """alg1 and alg2 decide the barrier sampler's float64 array as they
    decide its list: the same path, parabola or error text, on both sides
    of ``ALG2_SCAN_BELOW``.  At seed 19 alg1 refuses the tuple although a
    path exists (ROADMAP item 33), naming a plain float."""
    thetas = get_bundle("path-alg1").distribution.sample_values(stream(seed),
                                                                n)
    assert isinstance(thetas, np.ndarray)
    outcomes = {}
    for key in ("path-alg1", "path-alg2"):
        decide_values = get_bundle(key).system.decide_values
        outcomes[key] = outcome(decide_values, thetas.tolist())
        assert repr(outcome(decide_values, thetas)) == repr(outcomes[key])
    assert isinstance(outcomes["path-alg1"], str) is (seed == 19)
    if seed == 19:
        assert re.fullmatch(r"no path clears barrier theta=[0-9.]+, nearest "
                            r"the I-T axis \(tip height .*\)",
                            outcomes["path-alg1"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_barrier_satisfied_values_reads_an_array_as_its_list(seed):
    """On alg1's path of a few angles (the numpy lane), on a parabola and
    on the straight path (no star, so the scalar lane: it crosses every
    barrier)."""
    dist = get_bundle("path-alg1").distribution
    thetas = dist.sample_values(stream(seed, 1), 500)
    hull = get_bundle("path-alg1").system.decide_values(
        dist.sample_values(stream(seed), 4))
    straight = pathplan.Polyline((pathplan.START, pathplan.TARGET))
    for path in (hull, pathplan.Parabola(0.3), straight):
        on_list = pathplan.barrier_satisfied_values(pathplan.SCENE, path,
                                                    thetas.tolist())
        assert pathplan.barrier_satisfied_values(pathplan.SCENE, path,
                                                 thetas) == on_list
        assert type(on_list) is list and len(on_list) == len(thetas)
        assert any(on_list) is (path is not straight) and not all(on_list)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("values", [
    [], [0], [5, 0, 1], [62, 62, 0], list(range(62)), list(range(63)),
    list(range(1, 200)),
    # 63 or more: alg_min_values goes through the set.
    [63], list(range(64)), [0, 1, 2, 70], [100_000, 0]])
def test_exclusion_deciders_read_an_int_array_as_its_list(values, dtype):
    array = np.array(values, dtype=dtype)
    for decide_values in (alg_sum_values, alg_min_values):
        decision = decide_values(array)
        assert type(decision) is int
        assert decision == decide_values(values)


@pytest.mark.parametrize("values", [
    [], [0.5, 0.25], [0.0], [1.0, 0.0, 1.0], [-0.0, 0.5, 0.0],
    [0.5, 0.0, -0.0, 0.5], [k / 200 for k in range(200, 0, -1)],
    [0.5, -0.0, *[k / 200 for k in range(1, 150)], 0.0]])
def test_interval_decides_a_float_array_as_its_list(values):
    """The same points, by ``float.hex``: the zero kept is the first zero
    given, 0.0 or -0.0, in the numpy lane of a list too."""
    on_array = alg_interval_values(np.array(values, dtype=float))
    on_list = alg_interval_values(values)
    assert on_array == on_list
    if on_list.points is not None:
        assert list(map(float.hex, on_array.points)) == \
            list(map(float.hex, on_list.points))
