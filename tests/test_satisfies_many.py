"""Contract of the array-native satisfaction checks: ``satisfies_many(x, vz)``
equals ``[satisfies(x, z) for z in vz]`` element for element, so nested Monte
Carlo risk estimates do not depend on it."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab.core import violation_probability_mc
from scenlab.counterexamples import BandConstraint, PolygonConstraint
from scenlab.geometry import POINT_TOL, segment_conflicts, segments_conflict
from scenlab.pathplan import START, TARGET, BarrierConstraint, Parabola, Polyline
from scenlab.registry import get_bundle
from scenlab.rng import stream

ORACLE_SYSTEMS = ("path-alg1", "convex-vc")


def scalar(system, x, vz):
    return [system.satisfies(x, z) for z in vz]


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 5, 20, 50]))
def test_satisfies_many_matches_scalar_on_fresh_draws(key, seed, n):
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    rng = stream(seed)
    vz = dist.sample_tuple(rng, n)
    x = system.decide(vz)
    fresh = dist.sample_tuple(rng, 2000)
    assert system.satisfies_many(x, fresh) == scalar(system, x, fresh)
    # The decision's own input constraints: barrier tips are grazed.
    assert system.satisfies_many(x, vz) == scalar(system, x, vz) \
        == [True] * n


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
def test_satisfies_many_of_empty_tuple(key):
    system = get_bundle(key).system
    x = system.decide(())
    assert system.satisfies_many(x, ()) == []


def test_barrier_checks_match_on_the_parallel_branch():
    system = get_bundle("path-alg1").system
    near_ends = [1e-12, 5e-13, math.ulp(0.0), math.pi - 1e-12,
                 math.pi - 5e-13, math.nextafter(math.pi, 0.0),
                 math.pi / 2.0, 0.3, 2.8]
    vz = tuple(BarrierConstraint(t) for t in near_ends)
    paths = [
        Polyline((START, TARGET)),
        Polyline((START, (0.0, 0.0), TARGET)),
        Polyline((START, (-0.25, 0.0), (0.0, 0.5), (0.25, 0.0), TARGET)),
        # Parallel to the near-horizontal barriers but 0.1 above them.
        Polyline((START, (-0.6, 0.1), (0.6, 0.1), TARGET)),
        system.decide(vz[3:]),
    ]
    for x in paths:
        assert system.satisfies_many(x, vz) == scalar(system, x, vz)
    straight = system.satisfies_many(paths[0], vz)
    assert straight[:6] == [False] * 6  # collinear with the straight path
    assert system.satisfies_many(paths[3], vz)[:6] == [True] * 6


def test_segment_kernel_matches_scalar_predicate_lane_by_lane():
    rng = np.random.default_rng(11)
    thetas = [1e-12, math.ulp(0.0), math.pi - 1e-12, math.pi / 2.0,
              *rng.uniform(0.0, math.pi, 60).tolist()]
    tips = [(0.5 * math.cos(t), 0.5 * math.sin(t)) for t in thetas]
    lengths = np.array([math.hypot(*tip) for tip in tips])
    # Collinear with the tip (0.5, 0): the overlap starts exactly at
    # 1 - tol/|tip| along the barrier, which is not a conflict.
    edge = (1.0 - POINT_TOL / 0.5) / 2.0
    segments = [((edge, 0.0), (1.0, 0.0)), ((-1.0, 0.0), (1.0, 0.0)),
                ((0.0, 0.0), (0.0, 0.0)), ((-0.6, 0.1), (0.6, 0.1)),
                *(tuple(map(tuple, rng.uniform(-1.0, 1.0, (2, 2)).tolist()))
                  for _ in range(40))]
    for p, q in segments:
        kernel = segment_conflicts(p, q, np.array(tips), lengths).tolist()
        assert kernel == [segments_conflict(p, q, tip) for tip in tips]
    assert segment_conflicts(*segments[0], np.array(tips[1:2]),
                             lengths[1:2]).tolist() == [False]


def test_segment_kernel_rejects_a_tip_at_the_origin():
    with pytest.raises(ValueError):
        segment_conflicts((-1.0, 0.0), (1.0, 0.0),
                          np.array([[0.5, 0.0], [0.0, 0.0]]),
                          np.array([0.5, 0.0]))


def test_barrier_checks_on_a_parabola_use_the_scalar_predicate():
    system = get_bundle("path-alg1").system
    vz = get_bundle("path-alg1").distribution.sample_tuple(stream(2), 200)
    x = Parabola(0.3)
    result = system.satisfies_many(x, vz)
    assert result == scalar(system, x, vz)
    assert True in result and False in result


def test_band_checks_match_at_the_tolerance_edges():
    system = get_bundle("convex-vc").system
    for x in [system.decide((PolygonConstraint(3, 2),)),
              system.decide((BandConstraint(0.4),)), (1.0, 0.0)]:
        y = x[1]
        levels = [y, y + POINT_TOL, y - POINT_TOL,
                  math.nextafter(y + POINT_TOL, 2.0),
                  math.nextafter(y + POINT_TOL, -1.0), 0.0, 1.0]
        vz = tuple(BandConstraint(level) for level in levels
                   if 0.0 <= level <= 1.0)
        assert system.satisfies_many(x, vz) == scalar(system, x, vz)


def test_polygon_checks_match_for_all_ten_polygons():
    system = get_bundle("convex-vc").system
    polygons = tuple(PolygonConstraint(m, i)
                     for m in range(1, 5) for i in range(1, m + 1))
    assert len(polygons) == 10
    decisions = [system.decide((z,)) for z in polygons] + [(1.0, 0.0),
                                                           (0.0, 1.0)]
    for x in decisions:
        vz = polygons + polygons[::-1]
        result = system.satisfies_many(x, vz)
        assert result == scalar(system, x, vz)
    assert any(not ok for ok in system.satisfies_many((1.0, 0.0), polygons))


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
def test_nested_mc_estimate_does_not_depend_on_satisfies_many(key):
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    scalar_system = dataclasses.replace(system, satisfies_many=None)
    x = system.decide(dist.sample_tuple(stream(7, 1), 5))
    batched = violation_probability_mc(system, x, dist, 500, seed=3)
    looped = violation_probability_mc(scalar_system, x, dist, 500, seed=3)
    assert batched == looped
