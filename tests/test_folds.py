"""Decisions declared as left folds, and the prefix-tree walks over them.

The fold of each system must decide exactly as the list form it replaced,
and every walk must give what deciding each enumerated tuple whole gives:
the same decision keys, the same first subtuple and the same first
shattering counterexample after the same number of tuples."""

import collections
import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenlab import analyzers
from scenlab.analyzers import (
    certify_no_compression_scheme,
    check_shattered,
    find_compression_subtuple,
)
from scenlab.core import Fold, ScenarioSystem
from scenlab.counterexamples import (
    BandConstraint,
    ExclusionConstraint,
    MembershipConstraint,
    PolygonConstraint,
    alg_convex_maxx1,
    alg_min,
    alg_sum,
    convex_mixture_distribution,
    interval_system,
    min_system,
    sigma_polygon,
)
from scenlab.geometry import clip_band, clip_polygon, max_x_vertex
from scenlab.pathplan import (
    SCENE,
    BarrierConstraint,
    alg1_shortest_path,
    band_shatter_candidates,
)
from scenlab.registry import SYSTEMS
from test_geometry import clip_polygon_by_distances

FOLD_SYSTEMS = {key: SYSTEMS[key].system for key in
                ("convex-vc", "sum-no-scheme", "min-no-map", "path-alg1")}

# ---------------------------------------------------------------------------
# The list forms the folds replaced, kept as oracles
# ---------------------------------------------------------------------------


def convex_by_lists(vz):
    """Clips by every polygon in tuple order, repeats included, with the
    full Sutherland-Hodgman loop over ``signed_edge_distance``."""
    polygons = [z for z in vz if isinstance(z, PolygonConstraint)]
    bands = [z.y for z in vz if isinstance(z, BandConstraint)]
    y_min = max(bands) if bands else None
    if not polygons:
        if y_min is None:
            return (1.0, 0.0)
        y = min(y_min, 1.0)
        return (math.sqrt(max(0.0, 1.0 - y * y)), y)
    region = sigma_polygon(polygons[0].m, polygons[0].i)
    for z in polygons[1:]:
        region = clip_polygon_by_distances(region, sigma_polygon(z.m, z.i))
    if y_min is not None:
        region = clip_band(region, y_min)
    return max_x_vertex(region)


def sum_by_lists(vz):
    return 1 + sum(z.a for z in vz)


def min_by_lists(vz):
    excluded = {z.a for z in vz}
    x = 0
    while x in excluded:
        x += 1
    return x


def hexed(point):
    return tuple(float.hex(c) for c in point)


def by_list_form(system):
    """``convex-vc`` deciding by :func:`convex_by_lists`, the reference of
    the per-tuple loops that its fold's walks are checked against; any
    other system as it is."""
    if system.name == "convex-vc":
        return dataclasses.replace(system, decide=convex_by_lists)
    return system


POLYGONS = [PolygonConstraint(m, i) for m in range(1, 5)
            for i in range(1, m + 1)]
LEVELS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                   st.floats(min_value=0.0, max_value=1.0))
CONVEX = st.one_of(st.sampled_from(POLYGONS), st.builds(BandConstraint, LEVELS))
# Small values, values at both sides of the int64 lane's limit (an excluded
# value of 63 or more keeps alg_min on the walk), and values past 2**64.
EXCLUSION = st.builds(ExclusionConstraint, st.one_of(
    st.integers(min_value=0, max_value=6), st.sampled_from([63, 64, 65]),
    st.integers(min_value=2**64, max_value=2**64 + 6)))
BARRIER = st.builds(BarrierConstraint, st.floats(min_value=1e-3,
                                                 max_value=math.pi - 1e-3))
CONSTRAINTS = {"convex-vc": CONVEX, "sum-no-scheme": EXCLUSION,
               "min-no-map": EXCLUSION, "path-alg1": BARRIER}
WHOLE_SYSTEMS = ("interval-not-pac", "path-alg2")
WHOLE_CONSTRAINTS = {
    "interval-not-pac": st.builds(MembershipConstraint,
                                  st.floats(min_value=0.0, max_value=1.0)),
    "path-alg2": BARRIER}
ALL_CONSTRAINTS = {**CONSTRAINTS, **WHOLE_CONSTRAINTS}


def test_fold_systems_are_the_counterexamples_and_alg1():
    folded = sorted(key for key, bundle in SYSTEMS.items()
                    if isinstance(bundle.system.decide, Fold))
    assert folded == sorted(FOLD_SYSTEMS)


def test_whole_systems_are_the_registry_systems_without_a_fold():
    whole = sorted(key for key, bundle in SYSTEMS.items()
                   if not isinstance(bundle.system.decide, Fold))
    assert whole == sorted(WHOLE_SYSTEMS)
    assert sorted(WHOLE_CONSTRAINTS) == sorted(WHOLE_SYSTEMS)


@settings(deadline=None, max_examples=200)
@given(st.lists(CONVEX, max_size=8))
def test_convex_fold_is_bit_identical_to_the_list_form(vz):
    vz = tuple(vz)
    assert hexed(alg_convex_maxx1(vz)) == hexed(convex_by_lists(vz))


@settings(deadline=None)
@given(st.lists(st.sampled_from(POLYGONS[:4]), min_size=1, max_size=6),
       st.lists(st.sampled_from([0.0, -0.0, 0.25]), max_size=4),
       st.permutations(range(10)))
@example([POLYGONS[0]], [0.0, -0.0], range(10))
@example([POLYGONS[0]], [-0.0, 0.0], range(10))
@example([POLYGONS[0]] * 3, [], range(10))  # sigma(1, 1) has two vertices
@example([POLYGONS[2], POLYGONS[0], POLYGONS[2], POLYGONS[0]], [0.25],
         range(10))
def test_convex_fold_on_repeated_polygons_and_signed_zero_levels(
        polygons, levels, order):
    vz = polygons + [BandConstraint(y) for y in levels]
    vz = tuple(vz[i] for i in order if i < len(vz))
    assert hexed(alg_convex_maxx1(vz)) == hexed(convex_by_lists(vz))
    # Without polygons the level itself is returned, signed zero included.
    bands = tuple(z for z in vz if isinstance(z, BandConstraint))
    assert hexed(alg_convex_maxx1(bands)) == hexed(convex_by_lists(bands))


@pytest.mark.parametrize("seed", range(4))
def test_convex_fold_decides_seeded_mixture_tuples_as_the_list_form(seed):
    """The shipped mixture, whose ten polygons repeat in any long tuple."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 10, 20, 50, 100, 200):
        vz = convex_mixture_distribution.sample_tuple(rng, n)
        assert hexed(alg_convex_maxx1(vz)) == hexed(convex_by_lists(vz))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from(band_shatter_candidates(4)) | BARRIER,
                max_size=8))
def test_alg1_fold_is_bit_identical_to_the_list_form(vz):
    """The set-state fold plans the hull of the list form, duplicates and
    order aside."""
    decided = FOLD_SYSTEMS["path-alg1"].decide(tuple(vz))
    assert [hexed(v) for v in decided.vertices] == \
        [hexed(v) for v in alg1_shortest_path(SCENE, tuple(vz)).vertices]


@given(st.lists(st.integers(min_value=0, max_value=2**70), max_size=12))
def test_exclusion_folds_equal_the_list_forms(values):
    vz = tuple(ExclusionConstraint(a) for a in values)
    assert alg_sum(vz) == sum_by_lists(vz)
    assert alg_min(vz) == min_by_lists(vz)


def test_extend_returns_a_new_state():
    # alg_min's state is the set of excluded values.
    state = alg_min.extend(alg_min.init, ExclusionConstraint(0))
    grown = alg_min.extend(state, ExclusionConstraint(3))
    assert state == frozenset({0}) and grown == frozenset({0, 3})
    assert alg_min.extend(grown, ExclusionConstraint(3)) is grown
    first = alg_convex_maxx1.extend(alg_convex_maxx1.init, POLYGONS[1])
    second = alg_convex_maxx1.extend(first, POLYGONS[2])
    assert first == (sigma_polygon(2, 1), None, frozenset({POLYGONS[1]}))
    assert second[0] == clip_polygon(sigma_polygon(2, 1), sigma_polygon(2, 2))
    assert second[2] == frozenset(POLYGONS[1:3])
    # A polygon already clipped by leaves the state as it is.
    assert alg_convex_maxx1.extend(second, POLYGONS[1]) is second


def test_min_fold_excluding_all_of_0_to_63_decides_64():
    values = [*range(64), 5, 63, 0, 17]
    np.random.default_rng(0).shuffle(values)
    vz = tuple(ExclusionConstraint(a) for a in values)
    assert alg_min(vz) == min_by_lists(vz) == 64


def test_min_fold_scans_the_large_values_from_64():
    vz = tuple(ExclusionConstraint(a) for a in (65, *range(64), 64, 67))
    assert alg_min(vz) == min_by_lists(vz) == 66


@given(st.lists(st.sampled_from([0, 1, 5, 63, 64, 65, 2**64, 2**64 + 1]),
                max_size=10))
def test_min_fold_states_of_equal_excluded_sets_are_equal(values):
    """The shatter walk memoizes ``finish`` by the state, so equal excluded
    sets must give equal, equal-hash states in any order."""
    def state_of(order):
        state = alg_min.init
        for a in order:
            state = alg_min.extend(state, ExclusionConstraint(a))
        return state

    forward = state_of(values)
    backward = state_of(sorted(set(values), reverse=True))
    assert forward == backward and hash(forward) == hash(backward)


def test_fold_decides_by_folding_extend_from_init():
    doubled = Fold(0, lambda s, z: s + 2 * z.a, lambda s: s)
    system = ScenarioSystem("doubled", doubled, lambda x, z: True)
    assert system.decide((ExclusionConstraint(2), ExclusionConstraint(3))) == 10
    assert system.decide(()) == 0


# ---------------------------------------------------------------------------
# Walks against the per-tuple loops
# ---------------------------------------------------------------------------


def loop_keys(system, base, permutations):
    keys = set()
    for r in range(len(base) + 1):
        for subset in itertools.combinations(base, r):
            for vz in (itertools.permutations(subset) if permutations
                       else (subset,)):
                keys.add(system.decision_key(system.decide(vz)))
    return keys


def loop_subtuple(system, vz, capacity):
    """The first subtuple deciding as ``vz``; an undecidable subtuple
    (``ValueError``) is no match, and an undecidable ``vz`` raises."""
    target = system.decide(vz)
    for r in range(min(capacity, len(vz)) + 1):
        for indices in itertools.combinations(range(len(vz)), r):
            sub = tuple(vz[i] for i in indices)
            try:
                decision = system.decide(sub)
            except ValueError:
                continue
            if system.decisions_equal(decision, target):
                return indices
    return None


def loop_shattered(system, candidates, max_len, include_empty):
    checked = 0
    for r in range(0 if include_empty else 1, max_len + 1):
        for vz in itertools.product(candidates, repeat=r):
            checked += 1
            realized = analyzers.satisfied_subset(
                system, system.decide(vz), candidates)
            if realized != frozenset(vz):
                return "not_shattered", checked, vz, realized
    return "shattered_up_to_L", checked, None, None


def distinct(key, max_size):
    return st.lists(CONSTRAINTS[key], max_size=max_size, unique=True)


@pytest.mark.parametrize("key", sorted(FOLD_SYSTEMS))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), permutations=st.booleans())
def test_scheme_walk_gives_the_loop_keys(key, data, permutations):
    system = FOLD_SYSTEMS[key]
    base = tuple(data.draw(distinct(key, 4 if permutations else 7)))
    keys = loop_keys(by_list_form(system), base, permutations)
    assert analyzers._decision_keys(system, base, permutations) == keys
    report = certify_no_compression_scheme(system, base, 1, permutations)
    assert report.distinct_decisions == len(keys)


@pytest.mark.parametrize("size", range(9))
@pytest.mark.parametrize("key", WHOLE_SYSTEMS + ("path-alg1",))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_subset_walk_of_systems_without_a_fold_gives_the_loop_keys(
        key, size, data):
    """The systems without a fold, and ``path-alg1`` behind a plain
    function that wraps no fold, so that the walk that decides each subset
    whole is also checked on polyline decisions."""
    decide = SYSTEMS[key].system.decide
    system = dataclasses.replace(SYSTEMS[key].system,
                                 decide=lambda vz: decide(vz))
    base = tuple(data.draw(st.lists(ALL_CONSTRAINTS[key], min_size=size,
                                    max_size=size, unique=True)))
    keys = loop_keys(system, base, False)
    assert analyzers._decision_keys(system, base, False) == keys
    report = certify_no_compression_scheme(system, base, 1)
    assert report.distinct_decisions == len(keys)


@pytest.mark.parametrize("key", ["sum-no-scheme", "min-no-map"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_subsets_count_every_order_of_an_order_insensitive_system(key, data):
    """The default mode decides each subset in base order only, which is
    exact for systems whose decision ignores the order of the tuple."""
    system = FOLD_SYSTEMS[key]
    base = data.draw(distinct(key, 5))
    assert certify_no_compression_scheme(system, base, 1).distinct_decisions \
        == certify_no_compression_scheme(system, base, 1,
                                         permutations=True).distinct_decisions


class Counted:
    """A fold state that counts the instances alive (freed by refcount)."""

    live = peak = 0

    def __init__(self, mask):
        self.mask = mask
        Counted.live += 1
        Counted.peak = max(Counted.peak, Counted.live)

    def __del__(self):
        Counted.live -= 1


def test_subset_walk_extends_each_subset_once_with_two_halves_live():
    k = 12
    extends = 0

    def extend(state, z):
        nonlocal extends
        extends += 1
        return Counted(state.mask | z.a)

    system = ScenarioSystem("counted", Fold(Counted(0), extend,
                                            lambda state: state.mask),
                            lambda x, z: True)
    base = tuple(ExclusionConstraint(1 << j) for j in range(k))
    Counted.peak = Counted.live
    keys = analyzers._decision_keys(system, base, False)
    assert keys == set(range(1 << k))
    assert extends == (1 << k) - 1
    # The first half's 2^6 subset states (the init among them) and the
    # 2^6 - 1 that one of them grows over the second half: 127 at most.
    assert Counted.peak <= 2 ** 6 + 2 ** 6 + 2
    assert Counted.live == 1  # only the fold's init state is left


# The mixed base that the benchmark's certify workload counts at seed 0:
# eight polygons, then four bands.
CERTIFY_POLYGONS = tuple(PolygonConstraint(m, i) for m, i in (
    (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (4, 3), (4, 4)))
CERTIFY_BANDS = tuple(BandConstraint(y) for y in (
    0.14406210066427516, 0.3429471211113503, 0.5361441759649896,
    0.7105858635431219))
CERTIFY_BASE = CERTIFY_POLYGONS + CERTIFY_BANDS


def counting_convex_system():
    """``convex-vc`` with a fold and ``coords`` that count their calls."""
    system = FOLD_SYSTEMS["convex-vc"]
    fold = system.decide
    counts = collections.Counter()

    def extend(state, z):
        counts["extend"] += 1
        return fold.extend(state, z)

    def finish(state):
        counts["finish"] += 1
        return fold.finish(state)

    def coords(x):
        counts["coords"] += 1
        return system.coords(x)

    counted = dataclasses.replace(system, coords=coords,
                                  decide=Fold(fold.init, extend, finish))
    return counted, counts


def test_subset_walk_finishes_each_distinct_state_of_a_group_once():
    """The first half's 64 polygon sets are distinct states, so each is
    doubled over the second half.  There, 4 polygon sets times 5 band
    levels (none, or one of the four) give 20 distinct states per group,
    where 2^6 = 64 subsets reach them: 1,280 finishes, not 4,096."""
    system, counts = counting_convex_system()
    keys = analyzers._decision_keys(system, CERTIFY_BASE, False)
    assert counts == {"extend": 2 ** 12 - 1, "finish": 64 * 20,
                      "coords": 64 * 20}
    assert len(keys) == 17
    assert keys == loop_keys(by_list_form(FOLD_SYSTEMS["convex-vc"]),
                             CERTIFY_BASE, False)


def fold_over(fold, state, vz):
    return functools.reduce(fold.extend, vz, state)


def subsets_of(items):
    return [subset for r in range(len(items) + 1)
            for subset in itertools.combinations(items, r)]


@pytest.mark.parametrize("base", [
    CERTIFY_BANDS + CERTIFY_POLYGONS,
    tuple(z for pair in zip(CERTIFY_POLYGONS, reversed(CERTIFY_BANDS))
          for z in pair) + CERTIFY_POLYGONS[4:],
    CERTIFY_BASE,
], ids=["bands-first", "interleaved", "bands-last"])
def test_subset_walk_finishes_the_distinct_states_of_each_group(base):
    """Bands below the level reached repeat states: in the first half
    (bands first), within each group (bands last), or in both
    (interleaved, the highest band first).  Each distinct first-half
    state is doubled over the second half once, and each distinct state
    of its group is finished once."""
    system, counts = counting_convex_system()
    fold = FOLD_SYSTEMS["convex-vc"].decide
    half = len(base) // 2
    firsts = {fold_over(fold, fold.init, subset)
              for subset in subsets_of(base[:half])}
    seconds = subsets_of(base[half:])
    group_sizes = [len({fold_over(fold, first, subset) for subset in seconds})
                   for first in firsts]
    keys = analyzers._decision_keys(system, base, False)
    assert counts["finish"] == counts["coords"] == sum(group_sizes)
    assert counts["extend"] == (2 ** half - 1) + len(firsts) * (
        len(seconds) - 1)
    assert sum(group_sizes) < 2 ** len(base)
    assert keys == loop_keys(by_list_form(FOLD_SYSTEMS["convex-vc"]), base,
                             False)


def test_subset_walk_without_a_fold_decides_each_subset_once():
    """A system without a fold walks the subset tuples themselves, which
    are distinct even where their fold states repeat."""
    decide = FOLD_SYSTEMS["convex-vc"].decide
    decided = collections.Counter()

    def counted(vz):
        decided[vz] += 1
        return decide(vz)

    system = dataclasses.replace(FOLD_SYSTEMS["convex-vc"], decide=counted)
    base = CERTIFY_BANDS + CERTIFY_POLYGONS[:4]
    keys = analyzers._decision_keys(system, base, False)
    assert keys == loop_keys(by_list_form(system), base, False)
    assert decided == dict.fromkeys(subsets_of(base), 1)


@pytest.mark.parametrize("key, first, second", [
    ("convex-vc", (PolygonConstraint(2, 1), BandConstraint(0.5),
                   BandConstraint(0.25)),
     (PolygonConstraint(2, 1), BandConstraint(0.5))),
    ("path-alg1", (BarrierConstraint(1.0), BarrierConstraint(2.0)),
     (BarrierConstraint(2.0), BarrierConstraint(1.0))),
    ("convex-vc", (BandConstraint(-0.0),), (BandConstraint(0.0),)),
], ids=["band-below-the-level", "barriers-in-another-order", "signed-zero"])
def test_equal_fold_states_give_equal_decision_keys(key, first, second):
    """The subset walk keys one of each run of equal states, the first in
    enumeration order; any of them would give the same key."""
    system = FOLD_SYSTEMS[key]
    fold = system.decide
    states = [fold_over(fold, fold.init, vz) for vz in (first, second)]
    assert states[0] == states[1] and len(set(states)) == 1
    assert system.decision_key(fold.finish(states[0])) \
        == system.decision_key(fold.finish(states[1])) \
        == system.decision_key(system.decide(first))


@pytest.mark.parametrize("key", sorted(SYSTEMS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_subtuple_walk_gives_the_loop_subtuple(key, data):
    """Fold systems and, with the tuple itself as the walked state, the
    systems without a fold."""
    system = SYSTEMS[key].system
    strategy = ALL_CONSTRAINTS[key]
    vz = tuple(data.draw(st.lists(strategy, max_size=7)))
    capacity = data.draw(st.integers(min_value=0, max_value=len(vz)))
    assert find_compression_subtuple(system, vz, capacity) == \
        loop_subtuple(by_list_form(system), vz, capacity)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_subtuple_search_decides_each_subtuple_once(data):
    """Constraints 0..n-1 are their own indices and the fold state is the
    index tuple, so every finished state names the subtuple decided."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    capacity = data.draw(st.integers(min_value=0, max_value=n + 1))
    weights = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                 min_size=n, max_size=n))
    finished, decided = [], []

    def finish(state):
        finished.append(state)
        return sum(weights[i] for i in state)

    def decide(vz):
        decided.append(vz)
        return sum(weights[i] for i in vz)

    folded = ScenarioSystem("indexed", Fold((), lambda s, z: s + (z,), finish),
                            lambda x, z: True)
    whole = ScenarioSystem("indexed-whole", decide, lambda x, z: True)
    vz = tuple(range(n))
    assert find_compression_subtuple(folded, vz, capacity) == \
        loop_subtuple(whole, vz, capacity)
    # The first finish and the first decide are of vz itself, the target,
    # which the walk does not decide again.
    walked = finished[1:]
    assert len(set(walked)) == len(walked) and vz not in walked
    assert set(decided[1:]) - {vz} <= set(walked)
    assert len(walked) <= sum(math.comb(n, r)
                              for r in range(min(capacity, n) + 1))


def counting_min_system():
    """``min-no-map`` with a fold that counts its extends and finishes."""
    counts = {"extend": 0, "finish": 0}

    def extend(state, z):
        counts["extend"] += 1
        return alg_min.extend(state, z)

    def finish(state):
        counts["finish"] += 1
        return alg_min.finish(state)

    system = dataclasses.replace(min_system,
                                 decide=Fold(alg_min.init, extend, finish))
    return system, counts


def test_subtuple_search_counts_on_the_min_no_map_certificate():
    system, counts = counting_min_system()
    vz = tuple(ExclusionConstraint(a) for a in range(11))
    assert find_compression_subtuple(system, vz, 10) is None
    # The 2^11 - 1 subtuples of length <= 10 are each extended from their
    # parent once and finished once; folding vz itself for the target adds
    # 11 extends and 1 finish.
    assert (counts["extend"], counts["finish"]) == (2 ** 11 - 2 + 11, 2 ** 11)


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_subtuple_search_at_capacity_n_decides_vz_once(n):
    """min(0, ..., n - 1) = n differs from the decision of every shorter
    subtuple, so at capacity >= n only vz itself matches: it is folded once,
    for the target, and the result is still vz's own indices."""
    vz = tuple(ExclusionConstraint(a) for a in range(n))
    for capacity in (n, n + 1):
        system, counts = counting_min_system()
        result = find_compression_subtuple(system, vz, capacity)
        assert result == loop_subtuple(min_system, vz, capacity) \
            == tuple(range(n))
        assert counts["finish"] == sum(math.comb(n, r) for r in range(n)) + 1


@pytest.mark.parametrize("key", sorted(SYSTEMS))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), include_empty=st.booleans())
def test_shatter_walk_gives_the_loop_verdict(key, data, include_empty):
    """Fold systems and systems without a fold alike, the decisions checked
    against the candidates once each per call."""
    system = SYSTEMS[key].system
    strategy = ALL_CONSTRAINTS[key]
    candidates = tuple(data.draw(st.lists(strategy, max_size=4, unique=True)))
    max_len = data.draw(st.integers(min_value=1, max_value=3))
    report = check_shattered(system, candidates, max_len, include_empty)
    verdict, checked, counterexample, realized = loop_shattered(
        by_list_form(system), candidates, max_len, include_empty)
    assert (report.verdict, report.tuples_checked) == (verdict, checked)
    assert report.counterexample == counterexample
    assert report.satisfied_subset == realized
    if counterexample is not None:
        assert report.sampled_set == frozenset(counterexample)


@pytest.mark.parametrize("kept", [1, 2])
def test_shatter_walk_passes_up_a_counterexample_found_below_depth_one(kept):
    """A fold that remembers only its first ``kept`` constraints shatters
    every tuple up to that length, so its first counterexample has length
    ``kept + 1`` and is found ``kept`` levels below the walk's root."""
    system = ScenarioSystem(
        "forgetful", Fold((), lambda s, z: s + (z,),
                          lambda s: frozenset(s[:kept])),
        lambda x, z: z in x)
    candidates = tuple(ExclusionConstraint(a) for a in range(3))
    report = check_shattered(system, candidates, 3)
    assert report.verdict == "not_shattered"
    assert len(report.counterexample) == kept + 1
    assert (report.verdict, report.tuples_checked, report.counterexample,
            report.satisfied_subset) == loop_shattered(system, candidates, 3,
                                                       True)


def total_or_undecidable(total):
    if total == 0:
        raise ValueError("no decision for an empty total")
    return total % 3


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_subtuple_walk_on_an_undecidable_root_gives_the_loop_subtuple(data):
    """``finish(init)`` raises ``ValueError``: the empty subtuple is no
    match, as is every subtuple of zeros."""
    system = ScenarioSystem("mod-three", Fold(0, lambda s, z: s + z.a,
                                              total_or_undecidable),
                            lambda x, z: True)
    values = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=1, max_size=7).filter(any))
    vz = tuple(ExclusionConstraint(a) for a in values)
    capacity = data.draw(st.integers(min_value=0, max_value=len(vz)))
    assert find_compression_subtuple(system, vz, capacity) == \
        loop_subtuple(system, vz, capacity)


# ---------------------------------------------------------------------------
# A wrapped decide (the benchmark tracer's pattern) keeps the walks
# ---------------------------------------------------------------------------


CERTIFICATES = {
    "convex-vc": ([PolygonConstraint(2, 1), PolygonConstraint(3, 2),
                   PolygonConstraint(4, 4), BandConstraint(0.3),
                   BandConstraint(0.7)], [BandConstraint(0.5)]),
    "sum-no-scheme": ([ExclusionConstraint(1 << j) for j in range(6)],
                      [ExclusionConstraint(0), ExclusionConstraint(1)]),
    "min-no-map": ([ExclusionConstraint(a) for a in range(5)],
                   [ExclusionConstraint(0), ExclusionConstraint(1)]),
    "path-alg1": ([*band_shatter_candidates(4), BarrierConstraint(1.0)],
                  band_shatter_candidates(3)),
}


def reports(system, base, candidates):
    return [
        certify_no_compression_scheme(system, base, 2).to_jsonable(),
        certify_no_compression_scheme(system, base[:4], 2,
                                      permutations=True).to_jsonable(),
        find_compression_subtuple(system, tuple(base), len(base) - 1),
        check_shattered(system, candidates, 3).to_jsonable(),
    ]


@pytest.mark.parametrize("key", sorted(FOLD_SYSTEMS))
def test_wrapped_decide_still_walks_the_fold(key):
    system = FOLD_SYSTEMS[key]
    decided = []

    @functools.wraps(system.decide)
    def recording(vz):
        decided.append(vz)
        return system.decide(vz)

    wrapped = dataclasses.replace(system, decide=recording)
    base, candidates = CERTIFICATES[key]
    assert reports(wrapped, base, candidates) == \
        reports(system, base, candidates)
    assert decided == []


def test_systems_without_a_fold_decide_every_tuple_whole():
    decided = []

    def recording(vz):
        decided.append(vz)
        return interval_system.decide(vz)

    wrapped = dataclasses.replace(interval_system, decide=recording)
    candidates = (MembershipConstraint(0.0), MembershipConstraint(0.5))
    report = check_shattered(wrapped, candidates, 2, include_empty=False)
    assert report.shattered and report.tuples_checked == 6
    assert decided == [vz for r in (1, 2)
                       for vz in itertools.product(candidates, repeat=r)]


@pytest.mark.parametrize("key", sorted(FOLD_SYSTEMS))
def test_a_decide_that_does_not_wrap_the_fold_is_certified_itself(key):
    """Replacing a fold system's ``decide`` by a plain function, not a
    ``functools.wraps`` wrapper of the fold, certifies that function."""
    system = FOLD_SYSTEMS[key]
    decided = []

    def recording(vz):
        decided.append(vz)
        return system.decide(vz[:-1])  # the last constraint is ignored

    replaced = dataclasses.replace(system, decide=recording)
    base, candidates = CERTIFICATES[key]
    vz = tuple(base)
    assert find_compression_subtuple(replaced, vz, len(vz)) == \
        loop_subtuple(replaced, vz, len(vz))
    assert decided
    report = check_shattered(replaced, candidates, 2)
    verdict, checked, counterexample, _ = loop_shattered(
        replaced, candidates, 2, True)
    assert (report.verdict, report.tuples_checked,
            report.counterexample) == (verdict, checked, counterexample)
    report = certify_no_compression_scheme(replaced, base, 2)
    assert report.distinct_decisions == len(loop_keys(replaced, base, False))
    assert report.to_jsonable() != \
        certify_no_compression_scheme(system, base, 2).to_jsonable()


# ---------------------------------------------------------------------------
# The int64 array lane of the exclusion folds
# ---------------------------------------------------------------------------

EXCLUSION_FOLDS = ("sum-no-scheme", "min-no-map")
# Small values, and up to two at either side of the lane's limits:
# alg_min's 63, alg_sum's 2^62 (for 1 + the total), and values past 2^64.
LIMIT_VALUES = [0, 1, 61, 62, 63, 64, 2**62 - 2, 2**62 - 1, 2**64 + 1]


def lane_values(max_size):
    return st.tuples(
        st.lists(st.integers(min_value=0, max_value=6), max_size=max_size - 2),
        st.lists(st.sampled_from(LIMIT_VALUES), max_size=2),
    ).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


def walked(system):
    """The system deciding by a fold of the same ``init``, ``extend`` and
    ``finish`` but no array form, which the searches walk."""
    fold = system.decide
    return dataclasses.replace(
        system, decide=Fold(fold.init, fold.extend, fold.finish))


def lane_fits(key, values):
    if key == "sum-no-scheme":
        return 1 + sum(values) < 2**62
    return all(a < 63 for a in values)


@pytest.mark.parametrize("key", EXCLUSION_FOLDS)
@settings(deadline=None, max_examples=150)
@given(values=lane_values(10))
@example(values=[])
@example(values=[0, 1, 61, 62])
@example(values=[62, 63])
@example(values=[2**62 - 2])
@example(values=[2**62 - 1])
def test_array_lane_counts_the_walk_keys(key, values):
    """The lane called directly, so that bases below ``_ARRAY_LANE_FROM``
    are covered too; it refuses exactly the bases past its limits."""
    system = FOLD_SYSTEMS[key]
    base = tuple(dict.fromkeys(map(ExclusionConstraint, values)))
    form = system.decide.array
    operands = form.operands(base)
    assert (operands is not None) == lane_fits(key, [z.a for z in base])
    if operands is not None:
        assert analyzers._count_array_decisions(form, operands) == \
            len(analyzers._decision_keys(system, base, False))


@pytest.mark.parametrize("key", EXCLUSION_FOLDS)
@settings(deadline=None, max_examples=150)
@given(values=lane_values(9))
@example(values=[])
@example(values=[1, 1, 0, 0])
@example(values=[0, 61, 62, 2, 1])
@example(values=[63, 0])
def test_array_lane_finds_the_walk_subtuple(key, values):
    """Duplicates included, at capacity 0, n - 1, n and n + 1."""
    system = FOLD_SYSTEMS[key]
    vz = tuple(map(ExclusionConstraint, values))
    form = system.decide.array
    operands = form.operands(vz)
    assert (operands is not None) == lane_fits(key, values)
    if operands is None:
        return
    n = len(vz)
    for capacity in sorted({0, max(n - 1, 0), n, n + 1}):
        found = analyzers._array_subtuple(form, operands, system.decide(vz),
                                          capacity)
        assert found == find_compression_subtuple(walked(system), vz,
                                                  capacity)
        assert found is None or all(type(i) is int for i in found)


def recording_subset_tables(monkeypatch):
    """Record each call of ``_subset_table``, which only the lane makes."""
    tables = []
    build = analyzers._subset_table

    def recording(*args):
        tables.append(args)
        return build(*args)

    monkeypatch.setattr(analyzers, "_subset_table", recording)
    return tables


def test_a_long_map_search_tuple_keeps_the_walk(monkeypatch):
    """2^200 masks are far past the budget, although the search itself
    decides only the C(200, r <= 2) subtuples."""
    vz = tuple(ExclusionConstraint(i * 37 % 200) for i in range(200))
    expected = find_compression_subtuple(walked(min_system), vz, 2)
    tables = recording_subset_tables(monkeypatch)
    assert find_compression_subtuple(min_system, vz, 2) == expected is None
    assert tables == []


@pytest.mark.parametrize("key, last, lane", [
    ("sum-no-scheme", 2**62 - 23, True),  # 1 + 21 + last = 2^62 - 1
    ("sum-no-scheme", 2**62 - 22, False),
    ("min-no-map", 62, True),
    ("min-no-map", 63, False),
])
def test_lane_choice_at_the_int64_limits(key, last, lane, monkeypatch):
    system = FOLD_SYSTEMS[key]
    items = tuple(ExclusionConstraint(a) for a in [*range(7), last])
    assert len(items) >= analyzers._ARRAY_LANE_FROM
    walk = walked(system)
    expected = (certify_no_compression_scheme(walk, items, 2).to_jsonable(),
                find_compression_subtuple(walk, items, 7),
                find_compression_subtuple(walk, items[1:], 6))
    tables = recording_subset_tables(monkeypatch)
    assert (certify_no_compression_scheme(system, items, 2).to_jsonable(),
            find_compression_subtuple(system, items, 7),
            find_compression_subtuple(system, items[1:], 6)) == expected
    assert bool(tables) == lane


def test_a_system_with_coords_keeps_the_walk():
    """Its decisions compare by ``coords``, not by ``==``."""
    system = dataclasses.replace(FOLD_SYSTEMS["sum-no-scheme"],
                                 coords=lambda x: (float(x),))
    base = tuple(ExclusionConstraint(1 << j) for j in range(10))
    assert analyzers._array_lane(FOLD_SYSTEMS["sum-no-scheme"], base)
    assert analyzers._array_lane(system, base) is None


def test_array_lane_reports_hold_python_ints(monkeypatch):
    tables = recording_subset_tables(monkeypatch)
    base = [ExclusionConstraint(1 << j) for j in range(10)]
    scheme = certify_no_compression_scheme(FOLD_SYSTEMS["sum-no-scheme"],
                                           base, 3)
    assert type(scheme.distinct_decisions) is int
    assert scheme.distinct_decisions == 1 << 10
    vz = tuple(ExclusionConstraint(a) for a in [4, 0, 1, 0, 2, 1, 5, 6])
    found = analyzers.search_compression_map(min_system, vz, 3)
    none = analyzers.search_compression_map(min_system, vz, 2)
    assert tables
    assert found.subtuple_indices == (1, 2, 4)
    assert all(type(i) is int for i in found.subtuple_indices)
    assert none.subtuple_indices is None
    for report in (scheme, found, none):
        json.dumps(report.to_jsonable())
