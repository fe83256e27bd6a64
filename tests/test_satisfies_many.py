"""Contract of the batch satisfaction checks on values:
``satisfies_values(x, values)`` equals ``[satisfies(x, cls(v)) for v in
values]`` element for element, for the distribution's ``constraint_class``
``cls``, so nested Monte Carlo risk estimates do not depend on it."""

import collections
import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab import core
from scenlab.core import pac_curve, violation_probability_mc
from scenlab.counterexamples import BandConstraint, PolygonConstraint
from scenlab.geometry import POINT_TOL
from scenlab.pathplan import START, TARGET, BarrierConstraint, Parabola, Polyline
from scenlab.registry import SYSTEMS, get_bundle
from scenlab.rng import stream

ORACLE_SYSTEMS = ("path-alg1", "convex-vc")


def test_oracle_systems_are_the_registry_ones():
    carrying = sorted(key for key, bundle in SYSTEMS.items()
                      if bundle.system.satisfies_values is not None)
    assert carrying == sorted(ORACLE_SYSTEMS)


def scalar(key, x, values):
    bundle = get_bundle(key)
    cls = bundle.distribution.constraint_class
    return [bundle.system.satisfies(x, cls(v)) for v in values]


def batch(key, x, values):
    return get_bundle(key).system.satisfies_values(x, values)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 5, 20, 50]))
def test_satisfies_values_matches_scalar_on_fresh_draws(key, seed, n):
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    rng = stream(seed)
    values = dist.sample_values(rng, n)
    x = system.decide(tuple(map(dist.constraint_class, values)))
    fresh = dist.sample_values(rng, 2000)
    assert batch(key, x, fresh) == scalar(key, x, fresh)
    # The decision's own input constraints: barrier tips are grazed.
    assert batch(key, x, values) == scalar(key, x, values) == [True] * n


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
def test_satisfies_values_of_empty_tuple(key):
    x = get_bundle(key).system.decide(())
    assert batch(key, x, []) == []


def test_barrier_checks_match_on_the_parallel_branch():
    system = get_bundle("path-alg1").system
    near_ends = [1e-12, 5e-13, math.ulp(0.0), math.pi - 1e-12,
                 math.pi - 5e-13, math.nextafter(math.pi, 0.0),
                 math.pi / 2.0, 0.3, 2.8]
    vz = tuple(BarrierConstraint(t) for t in near_ends)
    key = "path-alg1"
    paths = [
        Polyline((START, TARGET)),
        Polyline((START, (0.0, 0.0), TARGET)),
        Polyline((START, (-0.25, 0.0), (0.0, 0.5), (0.25, 0.0), TARGET)),
        # Parallel to the near-horizontal barriers but 0.1 above them.
        Polyline((START, (-0.6, 0.1), (0.6, 0.1), TARGET)),
        system.decide(vz[3:]),
    ]
    for x in paths:
        assert batch(key, x, near_ends) == scalar(key, x, near_ends)
    straight = batch(key, paths[0], near_ends)
    assert straight[:6] == [False] * 6  # collinear with the straight path
    assert batch(key, paths[3], near_ends)[:6] == [True] * 6


def test_barrier_checks_on_a_parabola_use_the_scalar_predicate():
    thetas = get_bundle("path-alg1").distribution.sample_values(stream(2), 200)
    x = Parabola(0.3)
    result = batch("path-alg1", x, thetas)
    assert result == scalar("path-alg1", x, thetas)
    assert True in result and False in result


@pytest.mark.parametrize("theta", [0.0, -0.0, math.pi, -1.0, 4.0, math.nan,
                                   math.inf])
@pytest.mark.parametrize("x", [Parabola(0.3), Polyline((START, TARGET))])
def test_barrier_checks_reject_an_angle_outside_the_open_half_turn(theta, x):
    with pytest.raises(ValueError):
        BarrierConstraint(theta)
    with pytest.raises(ValueError):
        batch("path-alg1", x, [math.pi / 2.0, theta])


def test_band_checks_match_at_the_tolerance_edges():
    system = get_bundle("convex-vc").system
    for x in [system.decide((PolygonConstraint(3, 2),)),
              system.decide((BandConstraint(0.4),)), (1.0, 0.0)]:
        y = x[1]
        levels = [y, y + POINT_TOL, y - POINT_TOL,
                  math.nextafter(y + POINT_TOL, 2.0),
                  math.nextafter(y + POINT_TOL, -1.0), 0.0, 1.0]
        levels = [level for level in levels if 0.0 <= level <= 1.0]
        assert batch("convex-vc", x, levels) == scalar("convex-vc", x, levels)


def test_polygon_checks_match_for_all_ten_polygons():
    system = get_bundle("convex-vc").system
    polygons = tuple(PolygonConstraint(m, i)
                     for m in range(1, 5) for i in range(1, m + 1))
    assert len(polygons) == 10
    decisions = [system.decide((z,)) for z in polygons] + [(1.0, 0.0),
                                                           (0.0, 1.0)]
    for x in decisions:
        values = list(polygons + polygons[::-1])
        assert batch("convex-vc", x, values) == scalar("convex-vc", x, values)
    assert not all(batch("convex-vc", (1.0, 0.0), list(polygons)))


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan, math.inf, "0.5",
                                   None, (3, 2), BandConstraint(0.5)])
def test_convex_checks_reject_a_value_that_is_no_level_or_polygon(value):
    with pytest.raises(ValueError):
        batch("convex-vc", (1.0, 0.0), [0.5, PolygonConstraint(3, 2), value])


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
def test_pac_curve_does_not_depend_on_satisfies_values(key, monkeypatch):
    """Nor on the ``dominating`` shortcut: a distribution with it emptied
    gives the same estimates and curves, on decisions the shortcut settles
    without drawing (convex-vc only) and on decisions it does not."""
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    scalar_system = dataclasses.replace(system, satisfies_values=None)
    x = system.decide(dist.sample_tuple(stream(7, 1), 5))
    batched = violation_probability_mc(system, x, dist, 500, seed=3)
    looped = violation_probability_mc(scalar_system, x, dist, 500, seed=3)
    assert batched == looped
    n_list, trials = [0, 2, 6], 4
    assert pac_curve(system, dist, 0.1, n_list, trials, seed=9) == \
        pac_curve(scalar_system, dist, 0.1, n_list, trials, seed=9)

    calls = []  # (stream, n) of every sample_values call on the measure

    def counted_values(rng, n):
        calls.append((rng, n))
        return dist.sample_values(rng, n)

    counted = dataclasses.replace(dist, sample_values=counted_values)
    undominated = dataclasses.replace(dist, dominating=())
    # decide(dominating) is the top of the disk for convex-vc; decide(())
    # is (1, 0), which lies in no polygon and no band above POINT_TOL.
    drew = []
    for x in (system.decide(dist.dominating), system.decide(())):
        calls.clear()
        estimate = violation_probability_mc(system, x, counted, 500, seed=3)
        assert estimate == violation_probability_mc(system, x, undominated,
                                                    500, seed=3)
        drew.append([n for _, n in calls] == [250, 250])
    assert drew == [not dist.dominating, True]
    # pac_curve resets one generator for every trial; a new generator per
    # trial, each that trial's stream, tells the trials' calls apart.
    monkeypatch.setattr(core, "streams", lambda seed, *shape: (
        stream(seed, *index) for index in itertools.product(*map(range, shape))))
    settled = 0
    n_list, trials = [0, 1, 5, 20, 50], 10
    for seed in (9, 10, 11):
        calls.clear()
        assert pac_curve(system, counted, 0.1, n_list, trials, seed=seed) == \
            pac_curve(system, undominated, 0.1, n_list, trials, seed=seed)
        # Each trial draws its tuple by one call on its own stream; any
        # later call on that stream draws an inner block.
        per_stream = collections.Counter(id(rng) for rng, _ in calls)
        assert len(per_stream) == len(n_list) * trials
        inner = sum(count > 1 for count in per_stream.values())
        assert inner > 0  # some trials drew
        settled += len(n_list) * trials - inner
    # The shortcut settled some estimates exactly where it is declared;
    # alg1 risks are at least 1/3, so nothing could settle them anyway.
    assert (settled > 0) == bool(dist.dominating)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
def test_nested_mc_builds_no_constraint_objects(key, monkeypatch):
    """The inner draws go through the values path: a silent fallback to
    ``sample_tuple`` would build a band or barrier per draw."""
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    x = system.decide(dist.sample_tuple(stream(7, 1), 5))
    built = []
    for cls in (BandConstraint, BarrierConstraint):
        def counting(self, check=cls.__post_init__):
            built.append(self)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    estimate = violation_probability_mc(system, x, dist, 500, seed=3)
    assert 0.0 < estimate.estimate < 1.0
    assert built == []
    dist.sample_tuple(stream(0), 50)  # the counter sees constraint objects
    assert built
