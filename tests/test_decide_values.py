"""Contract of the value deciders: ``decide_values(values)`` equals
``decide(tuple(map(cls, values)))`` for the distribution's constraint class,
so PAC curves do not depend on whether a decision was taken on values."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab.core import pac_curve
from scenlab.pathplan import Scene, clearance_height
from scenlab.registry import SYSTEMS, get_bundle
from scenlab.rng import stream

VALUE_SYSTEMS = ("path-alg2", "sum-no-scheme", "min-no-map", "interval-not-pac")


def test_value_systems_are_the_analytic_ones():
    carrying = sorted(key for key, bundle in SYSTEMS.items()
                      if bundle.system.decide_values is not None)
    assert carrying == sorted(VALUE_SYSTEMS)
    for key in VALUE_SYSTEMS:
        dist = get_bundle(key).distribution
        assert dist.constraint_class is not None
        assert dist.analytic_violation is not None


def assert_same_decision(key, values):
    bundle = get_bundle(key)
    cls = bundle.distribution.constraint_class
    expected = bundle.system.decide(tuple(map(cls, values)))
    assert bundle.system.decide_values(list(values)) == expected


@pytest.mark.parametrize("key", VALUE_SYSTEMS)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 2, 7, 1000]))
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
