"""Path-planner tests, including an exhaustive geodesic oracle and the
visibility-graph search alg1 used to run, kept as a reference."""

import dataclasses
import heapq
import importlib
import itertools
import math
import pkgutil
import random
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenlab
from scenlab import analyzers, pathplan, registry
from scenlab.counterexamples import convex_system
from scenlab.geometry import POINT_TOL, cross, segments_conflict
from scenlab.pathplan import (
    START,
    TARGET,
    BarrierConstraint,
    Parabola,
    Polyline,
    Scene,
    alg1_shortest_path,
    alg2_analytic_risk,
    alg2_compression,
    alg2_shortest_parabola,
    band_shatter_candidates,
    barrier_satisfied,
    barrier_tip,
    clearance_height,
    path_system_alg1,
    path_system_alg2,
    uniform_barrier_distribution,
)
from scenlab.registry import get_bundle
from scenlab.rng import stream

SCENE = Scene()


def geodesic_oracle(scene: Scene, vz: tuple) -> float:
    """Shortest feasible I -> T length by enumerating all tip orderings.

    Feasible paths in this scene are polylines over barrier tips (any segment
    touching the origin is blocked once a barrier exists), so enumerating
    every subset of tips in every order is a complete search for small
    samples.
    """
    tips = []
    for z in vz:
        tip = barrier_tip(z, scene.barrier_length)
        if tip not in tips:
            tips.append(tip)

    def feasible(path):
        return not any(
            segments_conflict(a, b, tip)
            for a, b in zip(path, path[1:]) for tip in tips)

    best = math.inf
    for r in range(len(tips) + 1):
        for mid in itertools.permutations(tips, r):
            path = (START, *mid, TARGET)
            if feasible(path):
                length = sum(math.dist(a, b) for a, b in zip(path, path[1:]))
                best = min(best, length)
    return best


def reference_search(tips) -> tuple | None:
    """alg1's former planner: uniform-cost search over the visibility graph
    on (I, T, distinct tips in first-occurrence order), each edge tested
    with its lower-index node first and ties broken by node index; the
    path's vertices, or None if no path exists."""
    nodes = (START, TARGET, *dict.fromkeys(tips))
    n = len(nodes)
    dist = [math.inf] * n
    prev = [-1] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    done = [False] * n
    while heap:
        d, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        if i == 1:
            break
        for j in range(n):
            if done[j]:
                continue
            p, q = (nodes[i], nodes[j]) if i < j else (nodes[j], nodes[i])
            nd = d + math.dist(p, q)
            if nd < dist[j] and not any(segments_conflict(p, q, tip)
                                        for tip in nodes[2:]):
                dist[j] = nd
                prev[j] = i
                heapq.heappush(heap, (nd, j))
    if not math.isfinite(dist[1]):
        return None
    path = [1]
    while path[-1] != 0:
        path.append(prev[path[-1]])
    return tuple(nodes[i] for i in reversed(path))


def test_scene_and_constraint_validation():
    with pytest.raises(ValueError):
        Scene(barrier_length=0.0)
    with pytest.raises(ValueError):
        BarrierConstraint(0.0)
    with pytest.raises(ValueError):
        BarrierConstraint(math.pi)


def test_polyline_validation_and_length():
    with pytest.raises(ValueError):
        Polyline((START,))
    with pytest.raises(ValueError):
        Polyline((START, (0.0, -0.1), TARGET))
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), TARGET))
    line = Polyline((START, (0.0, 0.5), TARGET))
    assert line.length() == pytest.approx(2.0 * math.sqrt(1.25), rel=1e-15)


def test_parabola_validation():
    with pytest.raises(ValueError):
        Parabola(-0.1)


def test_clearance_height_values():
    # At theta = pi/2 the tip is (0, L) and the clearance is exactly L.
    assert clearance_height(math.pi / 2, 0.5) == pytest.approx(0.5, rel=1e-15)
    # Direct evaluation of L sin(t) / (1 - L^2 cos^2 t) at t = pi/4.
    expected = 0.5 * math.sin(math.pi / 4) / (1 - 0.25 * 0.5)
    assert clearance_height(math.pi / 4, 0.5) == pytest.approx(expected, rel=1e-15)
    # Clearance vanishes towards the scene floor.
    assert clearance_height(1e-9, 0.5) < 1e-8


def test_barrier_satisfied_parabola():
    z = BarrierConstraint(math.pi / 2)
    assert barrier_satisfied(SCENE, Parabola(0.5), z)   # grazes the tip
    assert barrier_satisfied(SCENE, Parabola(0.7), z)
    assert not barrier_satisfied(SCENE, Parabola(0.4), z)


def test_barrier_satisfied_polyline():
    z = BarrierConstraint(math.pi / 2)
    straight = Polyline((START, TARGET))
    assert not barrier_satisfied(SCENE, straight, z)
    over_tip = Polyline((START, barrier_tip(z, 0.5), TARGET))
    assert barrier_satisfied(SCENE, over_tip, z)


def test_alg1_no_barriers_is_straight():
    path = alg1_shortest_path(SCENE, ())
    assert path.vertices == (START, TARGET)
    assert path.length() == pytest.approx(2.0)


def test_alg1_single_vertical_barrier():
    z = BarrierConstraint(math.pi / 2)
    path = alg1_shortest_path(SCENE, (z,))
    assert path.vertices == (START, (barrier_tip(z, 0.5)), TARGET)
    assert path.length() == pytest.approx(2.0 * math.sqrt(1.25), rel=1e-12)


def test_alg1_two_barriers_routes_over_both_tips():
    left, right = BarrierConstraint(2 * math.pi / 3), BarrierConstraint(math.pi / 3)
    path = alg1_shortest_path(SCENE, (left, right))
    assert path.vertices == (START, barrier_tip(left, 0.5),
                             barrier_tip(right, 0.5), TARGET)
    assert all(barrier_satisfied(SCENE, path, z) for z in (left, right))


def reference_hull(tips) -> tuple | None:
    """alg1's hull with its former final check: the monotone chain of
    ``_alg1_hull`` on the sorted distinct ``tips``, then every hull edge,
    left endpoint first, tested against every tip; where that check fails,
    the same for the strict chain, which pops on ``cross >= 0`` only."""
    for grazing in (True, False):
        hull = [START]
        for p in (*tips, TARGET):
            while len(hull) > 1 and (
                    cross(hull[-2], hull[-1], p) >= 0.0
                    or grazing and not segments_conflict(hull[-2], p,
                                                         hull[-1])):
                hull.pop()
            hull.append(p)
        if not any(segments_conflict(a, b, tip)
                   for a, b in zip(hull, hull[1:]) for tip in tips):
            return tuple(hull)
    return None


def test_alg1_matches_exhaustive_oracle():
    for trial in range(150):
        rng = stream(41, trial)
        n = int(rng.integers(0, 4))
        vz = tuple(BarrierConstraint(float(rng.uniform(0.05, math.pi - 0.05)))
                   for _ in range(n))
        path = alg1_shortest_path(SCENE, vz)
        assert all(barrier_satisfied(SCENE, path, z) for z in vz)
        assert path.length() == pytest.approx(geodesic_oracle(SCENE, vz),
                                              abs=1e-9)


def test_alg1_duplicate_barriers():
    z = BarrierConstraint(math.pi / 2)
    path = alg1_shortest_path(SCENE, (z, z, z))
    assert path.vertices == (START, barrier_tip(z, 0.5), TARGET)


def grazing_pair(phi: float, from_target: bool) -> tuple[float, float]:
    """Angles of the two barriers whose tips lie on the ray from I at
    elevation ``phi`` (mirrored onto T): the path to the far tip grazes the
    near one, up to rounding."""
    length = SCENE.barrier_length
    c, root = math.cos(phi), math.sqrt(math.cos(phi) ** 2 - 1.0 + length ** 2)
    angles = [math.atan2(t * math.sin(phi), t * c - 1.0)
              for t in (c - root, c + root)]
    return tuple(math.pi - a for a in angles) if from_target \
        else tuple(angles)


ALG1_POOL = tuple(BarrierConstraint(theta) for theta in (
    *(z.theta for z in band_shatter_candidates(4)),
    *stream(47, 0).uniform(0.05, math.pi - 0.05, size=3).tolist(),
    *grazing_pair(0.3, False), *grazing_pair(0.2, True),
    1e-9, math.pi - 6e-10))  # near the axis: no path unless a tip is higher


@pytest.mark.parametrize("phi, from_target", [(0.3, False), (0.2, True)])
@pytest.mark.parametrize("lift", [1e-10, 3e-10])
def test_alg1_chord_passes_a_tip_it_grazes(phi, from_target, lift):
    """The tip of a grazing pair next to I (or T), lifted strictly above the
    chord from there to the other tip but by less than ``POINT_TOL``, is
    grazed by that chord and is no vertex of the path."""
    length = SCENE.barrier_length
    end = TARGET if from_target else START

    def tip(theta):
        return barrier_tip(BarrierConstraint(theta), length)

    near, far = sorted(grazing_pair(phi, from_target),
                       key=lambda theta: math.dist(tip(theta), end))
    a, p = (tip(far), end) if from_target else (end, tip(far))

    def height(theta):  # of the tip above the chord a-p
        return -cross(a, tip(theta), p) / math.dist(a, p)

    slope = (height(near + 1e-9) - height(near - 1e-9)) / 2e-9
    theta = near + (lift - height(near)) / slope
    assert 0.9 * lift < height(theta) < 1.1 * lift
    vz = (BarrierConstraint(theta), BarrierConstraint(far))
    path = alg1_shortest_path(SCENE, vz)
    assert path.vertices == (START, tip(far), TARGET)
    assert all(barrier_satisfied(SCENE, path, z) for z in vz)


def hex_vertices(path: Polyline) -> list[tuple[str, str]]:
    return [(x.hex(), y.hex()) for x, y in path.vertices]


def tips_of(vz) -> list:
    return [barrier_tip(z, SCENE.barrier_length) for z in vz]


def band_tuples(max_k: int = 6, max_len: int = 5):
    """Ordered tuples over the band witness family of size k <= ``max_k``."""
    return st.integers(1, max_k).flatmap(lambda k: st.lists(
        st.sampled_from(band_shatter_candidates(k)), max_size=max_len))


def uniform_tuples(max_n: int = 59):
    """Seeded draws of the registry's uniform barrier distribution."""
    dist = uniform_barrier_distribution
    return st.builds(
        lambda seed, n: [BarrierConstraint(theta) for theta in
                         dist.sample_values(stream(53, seed), n)],
        st.integers(0, 2 ** 32 - 1), st.integers(0, max_n))


@settings(deadline=None, max_examples=200)
@given(uniform_tuples() | band_tuples())
def test_alg1_hull_is_the_reference_search(vz):
    """Away from grazing ties the hull is the visibility-graph search's
    path, bit for bit, and has none exactly when the search has none."""
    expected = reference_search(tips_of(vz))
    if expected is None:
        with pytest.raises(ValueError):
            alg1_shortest_path(SCENE, tuple(vz))
        return
    assert hex_vertices(alg1_shortest_path(SCENE, tuple(vz))) \
        == hex_vertices(Polyline(expected))


def near_duplicates(max_n: int = 8):
    """Angles with two neighbours 1e-12 above and 3e-10 below each."""
    return st.lists(st.floats(1e-3, math.pi - 1e-3), max_size=max_n).map(
        lambda thetas: [BarrierConstraint(t + offset) for t in thetas
                        for offset in (0.0, 1e-12, -3e-10)])


@settings(deadline=None, max_examples=400)
@given(st.lists(st.sampled_from(ALG1_POOL), max_size=6) | band_tuples(9, 9)
       | uniform_tuples(100) | near_duplicates(),
       st.sampled_from((0.01, 0.1, 0.5, 0.9, 0.99)))
@example([ALG1_POOL[-2]], 0.5)  # near the axis, no higher tip: no path
@example([ALG1_POOL[-1], ALG1_POOL[-2]], 0.5)
@example([ALG1_POOL[-1], *band_shatter_candidates(3)], 0.5)
def test_alg1_hull_tests_reachable_edges_as_all_edges(vz, length):
    """alg1 checks its hull with ``barrier_satisfied``, which tests each
    tip against only the hull edges its angle can reach: it plans the
    vertices of the chain plus the all-edges check, bit for bit, and
    raises exactly when that check finds a crossing."""
    tips = tuple(sorted({barrier_tip(z, length) for z in vz}))
    expected = reference_hull(tips)
    try:
        path = alg1_shortest_path(Scene(length), tuple(vz))
    except ValueError:
        assert expected is None
        return
    assert expected is not None
    assert hex_vertices(path) == hex_vertices(Polyline(expected))


@pytest.mark.parametrize("seed", range(10))
def test_alg1_hull_makes_few_crossing_tests(seed):
    """An N = 100 plan, chain and check included, makes at most 4N
    ``segments_conflict`` calls (about 2N; testing every edge against every
    tip takes about 36N).  A hull that fails the star test is checked in
    full: 5 of the first 1,000 seeded N = 100 tuples of stream 53 have two
    hull tips too close for the guard (seed 26 the first), none of these
    ten."""
    n = 100
    vz = tuple(map(BarrierConstraint, uniform_barrier_distribution
                   .sample_values(stream(53, seed), n)))
    calls = []

    def counted(p, q, tip):
        calls.append(tip)
        return segments_conflict(p, q, tip)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathplan, "segments_conflict", counted)
        path = alg1_shortest_path(SCENE, vz)
    assert path.vertices == reference_hull(tuple(sorted(set(tips_of(vz)))))
    assert len(calls) <= 4 * n


@settings(deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(ALG1_POOL), max_size=5))
def test_alg1_matches_the_reference_on_the_grazing_pool(vz):
    """Where a tip lies on the chord of its neighbours within rounding, the
    hull drops it and the search may keep it: either way a path exists
    exactly when the search finds one, clears every barrier and is as long
    as the search's path and as the exhaustive oracle, within 1e-12."""
    vz = tuple(vz)
    expected = reference_search(tips_of(vz))
    best = geodesic_oracle(SCENE, vz)
    assert (expected is None) == (best == math.inf)
    if expected is None:
        with pytest.raises(ValueError):
            alg1_shortest_path(SCENE, vz)
        return
    path = alg1_shortest_path(SCENE, vz)
    assert all(barrier_satisfied(SCENE, path, z) for z in vz)
    assert abs(path.length() - Polyline(expected).length()) <= 1e-12
    assert abs(path.length() - best) <= 1e-12


# Barriers next to T and I whose tips are exactly equally low: for x this
# small math.sin(x) == x, so both tips have height L sin(pi - 6e-10).
TIED_LOWEST = (BarrierConstraint(math.pi - 6e-10),
               BarrierConstraint(math.sin(math.pi - 6e-10)))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from(ALG1_POOL + TIED_LOWEST), max_size=6)
       | band_tuples() | uniform_tuples(30), st.randoms(), st.integers(0, 3))
@example(list(TIED_LOWEST), random.Random(0), 2)
@example([*TIED_LOWEST, ALG1_POOL[-2]], random.Random(1), 3)
def test_alg1_is_order_invariant(vz, rand, extra):
    """Permuted and duplicate-extended tuples, and the set of the tuple's
    barriers, give the same polyline, bit for bit, or the same error."""
    permuted = rand.sample(vz, len(vz))
    outcomes = set()
    for barriers in (tuple(vz), tuple(permuted),
                     (*vz, *permuted[:extra]), frozenset(vz)):
        try:
            path = alg1_shortest_path(SCENE, barriers)
            outcomes.add(tuple(hex_vertices(path)))
        except ValueError as error:
            outcomes.add(str(error))
    assert len(outcomes) == 1


def test_alg1_names_the_smallest_angle_among_tied_lowest_tips():
    low_t, low_i = tips_of(TIED_LOWEST)
    assert low_t[1] == low_i[1] and low_t != low_i
    smallest = TIED_LOWEST[1].theta
    for barriers in (TIED_LOWEST, TIED_LOWEST[::-1], frozenset(TIED_LOWEST)):
        with pytest.raises(ValueError, match=re.escape(
                f"no path clears barrier theta={smallest!r},")):
            alg1_shortest_path(SCENE, barriers)


def test_barriers_have_no_order():
    with pytest.raises(TypeError):
        BarrierConstraint(0.5) < BarrierConstraint(1.0)


def test_alg1_has_no_global_memo_and_shatter_plans_each_set_once():
    """No scenlab module holds an ``lru_cache`` (``cache_clear`` and
    ``cache_info``): sigma(m, i) lives on its polygon constraint.  The
    shatter walk decides each distinct barrier set once per call: the
    3,906 tuples of length <= 5 over five band barriers plan 2^5 = 32
    hulls, on a first call and again on a repeated one."""
    modules = [importlib.import_module(f"scenlab.{info.name}")
               for info in pkgutil.iter_modules(scenlab.__path__)]
    assert {"cli", "counterexamples", "pathplan"} <= \
        {m.__name__.split(".")[-1] for m in modules}
    assert [(module.__name__, name) for module in modules
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear") or hasattr(value, "cache_info")] \
        == []
    hull = pathplan._alg1_hull
    hulls = []

    def counted(tips):
        hulls.append(tips)
        return hull(tips)

    system, candidates = path_system_alg1, band_shatter_candidates(5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathplan, "_alg1_hull", counted)
        for _ in range(2):
            hulls.clear()
            report = analyzers.check_shattered(system, candidates, max_len=5)
            assert report.shattered and report.tuples_checked == 3906
            assert len(hulls) == len(set(hulls)) == 32


def entry_angle(end, tip, length: float) -> float:
    """Angle at which the edge from ``end`` (I or T) to a hull tip enters
    the radius-L disk (theta_in from I, theta_out into T), or the tip's own
    angle if the edge does not dip into the disk: by the power of the point
    the entry lies (1 - L^2) / |tip - end|^2 of the way along."""
    step = (tip[0] - end[0], tip[1] - end[1])
    k = (1.0 - length ** 2) / (step[0] ** 2 + step[1] ** 2)
    entry = tip if k >= 1.0 else (end[0] + k * step[0], end[1] + k * step[1])
    return math.atan2(entry[1], entry[0])


def key_angles(path: Polyline,
               length: float = SCENE.barrier_length) -> list[float]:
    """The hull's vertex angles and its theta_in and theta_out for barriers
    of ``length``, where the scalar crossing test turns."""
    inner = path.vertices[1:-1]
    if not inner:
        return []
    return [*(math.atan2(y, x) for x, y in inner),
            entry_angle(START, inner[0], length),
            entry_angle(TARGET, inner[-1], length)]


NEAR_OFFSETS = tuple(sign * scale * 10.0 ** e for e in range(-12, -4)
                     for scale in (1.0, 3.0) for sign in (1.0, -1.0))
# Star polylines that no alg1 hull is.  The first has a vertex 1e-6 inside
# the barrier circle at pi/2, left along an edge that rises almost
# radially: a barrier 1e-10 to 1e-9 past pi/2 meets that edge beyond its
# tip (depth below -DEPTH_MARGIN), yet it crosses the extension of the edge
# into the vertex within POINT_TOL, which the scalar test counts, so only
# the end-angle band sends it to the exact lane.  The others have an edge
# within the guard distance of O: nearly horizontal just above it, or
# nearly radial 1e-8 from it.
STAR_PATHS = (
    Polyline((START, (-0.56, 0.56), (0.0, 0.499999), (1e-5, 0.9), TARGET)),
    Polyline((START, (-0.6, 1e-8), (0.6, 1e-8), TARGET)),
    Polyline((START, (0.05, 0.05 + 1e-8 * math.sqrt(2.0)), (0.6, 0.6),
              TARGET)),
)


@settings(deadline=None, max_examples=120)
@given(st.lists(st.sampled_from(ALG1_POOL), max_size=6) | uniform_tuples(100)
       | st.sampled_from(STAR_PATHS),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
                max_size=4))
@example([], 0, [math.pi / 2.0])
# The chord between these two tips sags less than POINT_TOL over the extra
# angle, 2.3e-9 from one of them, so that barrier is only grazed.
@example([BarrierConstraint(1.5717001992825232),
          BarrierConstraint(1.5702283724613944)], 0, [1.5716979132584483])
@example(STAR_PATHS[0], 0, [])
@example(STAR_PATHS[1], 0, [])
@example(STAR_PATHS[2], 0, [])
def test_barrier_values_are_the_scalar_test_on_alg1_paths(vz, seed, extra):
    """The depth filter of ``barrier_satisfied_values`` equals the scalar
    test on fresh draws, the tuple's own angles and angles from 1e-12 to
    3e-5 off every hull vertex angle, theta_in and theta_out, on alg1's
    paths (the straight one when no path exists) and on hand-built star
    polylines (given in place of a tuple)."""
    if isinstance(vz, Polyline):
        path, vz = vz, []
    else:
        try:
            path = alg1_shortest_path(SCENE, tuple(vz))
        except ValueError:
            path = Polyline((START, TARGET))
    thetas = [*stream(61, seed).uniform(0.0, math.pi, 200).tolist(),
              *(z.theta for z in vz), *extra,
              *(key + offset for key in key_angles(path)
                for offset in NEAR_OFFSETS)]
    thetas = [t for t in thetas if 0.0 < t < math.pi]
    assert pathplan.barrier_satisfied_values(SCENE, path, thetas) \
        == [barrier_satisfied(SCENE, path, BarrierConstraint(t))
            for t in thetas]


def all_edges_satisfied(length: float, path: Polyline, theta: float) -> bool:
    """The scalar check's reference: the ``math`` tip of a barrier of
    ``length`` at ``theta`` against every edge of ``path``, left endpoint
    first."""
    tip = (length * math.cos(theta), length * math.sin(theta))
    return not any(segments_conflict(a, b, tip)
                   for a, b in zip(path.vertices, path.vertices[1:]))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(ALG1_POOL), max_size=6) | band_tuples(9, 9)
       | uniform_tuples(100) | st.sampled_from(STAR_PATHS),
       st.sampled_from((0.01, 0.1, 0.5, 0.9, 0.99)),
       st.integers(0, 2 ** 32 - 1))
@example(STAR_PATHS[0], 0.5, 0)
@example(STAR_PATHS[1], 0.5, 0)
@example(STAR_PATHS[2], 0.5, 0)
@example([ALG1_POOL[-1], *band_shatter_candidates(3)], 0.5, 0)
def test_barrier_satisfied_is_the_all_edges_test(vz, length, seed):
    """``barrier_satisfied``, which tests a star polyline's reachable edges
    only, equals the every-edge test on fresh draws, the tuple's own angles
    and angles from 1e-12 to 3e-5 off every key angle, on alg1's hulls
    (those alg1 rejects included) at five barrier lengths and on
    hand-built star polylines (given in place of a tuple)."""
    scene = Scene(length)
    if isinstance(vz, Polyline):
        path, vz = vz, []
    else:
        tips = sorted({barrier_tip(z, length) for z in vz})
        path = Polyline(pathplan._alg1_hull(tuple(tips)))
    thetas = [*stream(61, seed).uniform(0.0, math.pi, 100).tolist(),
              *(z.theta for z in vz),
              *(key + offset for key in key_angles(path, length)
                for offset in NEAR_OFFSETS)]
    thetas = [t for t in thetas if 0.0 < t < math.pi]
    assert [barrier_satisfied(scene, path, BarrierConstraint(t))
            for t in thetas] \
        == [all_edges_satisfied(length, path, t) for t in thetas]


def test_the_decided_path_keeps_its_star_across_blocks():
    """alg1's own check builds its polyline's star once, of plain floats;
    the first block of the batch check builds its arrays once, the second
    reuses both objects, and neither is a field."""
    system = path_system_alg1
    vz = tuple(map(BarrierConstraint, uniform_barrier_distribution
                   .sample_values(stream(53, 0), 50)))
    path = system.decide(vz)
    star = vars(path)["star"]
    assert pathplan._star_edges(path, SCENE.barrier_length) is star
    assert all(type(v) is float for v in [*star[0], *star[1], *star[3:]])
    assert all(type(v) is float for step in star[2] for v in step)
    assert "star_arrays" not in vars(path)
    thetas = stream(61, 0).uniform(0.0, math.pi, 500).tolist()
    system.satisfies_values(path, thetas[:250])
    arrays = vars(path)["star_arrays"]
    system.satisfies_values(path, thetas[250:])
    assert path.star is star
    assert path.star_arrays is arrays
    assert path == Polyline(path.vertices)
    assert hash(path) == hash(Polyline(path.vertices))
    assert repr(path) == f"Polyline(vertices={path.vertices!r})"


def distance_to_path(path: Polyline, point) -> float:
    best = math.inf
    for a, b in zip(path.vertices, path.vertices[1:]):
        step = (b[0] - a[0], b[1] - a[1])
        t = ((point[0] - a[0]) * step[0] + (point[1] - a[1]) * step[1]) \
            / (step[0] ** 2 + step[1] ** 2)
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.dist(point, (a[0] + t * step[0],
                                           a[1] + t * step[1])))
    return best


@settings(deadline=None, max_examples=60)
@given(uniform_tuples(50), st.integers(0, 2 ** 32 - 1))
def test_alg1_violates_every_window_barrier_it_does_not_graze(vz, seed):
    """Inside the window (arccos L, pi - arccos L) every alg1 path lies
    strictly inside the radius-L disk except at its tips, so every window
    barrier whose tip is not within tolerance of the path is violated: the
    risk under uniform angles is at least 1 - 2 arccos(L) / pi (1/3 at
    L = 0.5), and every alg1 row of a curve at eps = 0.1 has q_hat 1."""
    length = SCENE.barrier_length
    low = math.acos(length)
    path = alg1_shortest_path(SCENE, tuple(vz))
    for theta in stream(67, seed).uniform(low, math.pi - low, 300).tolist():
        z = BarrierConstraint(theta)
        if distance_to_path(path, barrier_tip(z, length)) > 2.0 * POINT_TOL:
            assert not barrier_satisfied(SCENE, path, z)


def test_a_close_chord_grazes_window_barriers_off_its_tips():
    """Why the window test above exempts grazed tips rather than a fixed
    band of angles around the path's tips: over a chord between tips 1e-4
    apart, a barrier 5e-8 from one of them (six times the filter's
    end-angle band 8 POINT_TOL / L) lies 1.2e-12 inside the path and is
    grazed."""
    vz = (BarrierConstraint(1.5), BarrierConstraint(1.5001))
    path = alg1_shortest_path(SCENE, vz)
    z = BarrierConstraint(1.5 + 5e-8)
    assert len(path.vertices) == 4
    assert distance_to_path(path, barrier_tip(z, 0.5)) < 2e-12
    assert barrier_satisfied(SCENE, path, z)


def test_alg2_values_and_feasibility():
    assert alg2_shortest_parabola(SCENE, ()) == Parabola(0.0)
    z = BarrierConstraint(math.pi / 4)
    p = alg2_shortest_parabola(SCENE, (z,))
    assert p.height == pytest.approx(0.40406101782088427, rel=1e-15)
    assert barrier_satisfied(SCENE, p, z)
    # The binding barrier determines the height.
    zs = (BarrierConstraint(0.3), BarrierConstraint(math.pi / 2),
          BarrierConstraint(2.5))
    assert alg2_shortest_parabola(SCENE, zs).height == pytest.approx(0.5)


def test_alg2_compression_selects_binding_obstacle():
    assert alg2_compression(SCENE, ()) == ()
    zs = (BarrierConstraint(0.3), BarrierConstraint(math.pi / 2),
          BarrierConstraint(2.5))
    assert alg2_compression(SCENE, zs) == (1,)
    # First maximizer wins for duplicates.
    dup = (BarrierConstraint(math.pi / 2), BarrierConstraint(math.pi / 2))
    assert alg2_compression(SCENE, dup) == (0,)


def constraint_loop(seed: int, trials: int, max_n: int) -> tuple[dict, bool]:
    """The alg2 demo's verdict from constraint objects: each trial's tuple
    against the planner on its compression."""
    system, dist = path_system_alg2, uniform_barrier_distribution
    mismatches = []
    for trial in range(trials):
        rng = stream(seed, trial)
        vz = dist.sample_tuple(rng, int(rng.integers(0, max_n + 1)))
        sub = tuple(vz[i] for i in alg2_compression(SCENE, vz))
        if system.decide(sub) != system.decide(vz):
            mismatches.append(trial)
    return {"compression_idempotence": {
        "trials": trials, "max_n": max_n,
        "mismatched_trials": mismatches}}, not mismatches


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_alg2_demo_matches_the_constraint_loop(seed):
    bundle = get_bundle("path-alg2")
    assert bundle.demo(bundle, seed, trials=60, max_n=40) \
        == constraint_loop(seed, 60, 40)


def test_alg2_demo_reports_a_wrong_binding_index(monkeypatch):
    """With the last angle passed off as the binding one, the demo names
    exactly the trials whose last angle does not bind."""
    def last(scene, thetas):
        return (len(thetas) - 1 if len(thetas) else None), \
            pathplan.alg2_binding(scene, thetas)[1]
    monkeypatch.setattr(registry, "alg2_binding", last)
    bundle = get_bundle("path-alg2")
    expected = []
    for trial in range(40):
        rng = stream(3, trial)
        thetas = bundle.distribution.sample_values(
            rng, int(rng.integers(0, 9)))
        if len(thetas) and pathplan.alg2_binding(SCENE, thetas)[1] \
                != clearance_height(thetas[-1], SCENE.barrier_length):
            expected.append(trial)
    verdicts, passed = bundle.demo(bundle, 3, trials=40, max_n=8)
    assert expected and not passed
    assert verdicts["compression_idempotence"]["mismatched_trials"] == expected


def full_scan(length: float, thetas: list) -> tuple[str, tuple[int, ...]]:
    """alg2's height and compression index from a clearance of every angle,
    the height as ``float.hex``."""
    heights = [clearance_height(theta, length) for theta in thetas]
    height = max([0.0, *heights])
    return height.hex(), (heights.index(height),) if heights else ()


PEAK = math.pi / 2.0
LENGTHS = (1e-300, 1e-6, 0.3, 0.5, 1.0 / math.sqrt(2.0), 0.9)
angles = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True,
                   exclude_max=True)
near_peak = st.floats(min_value=-1e-7, max_value=1e-7).map(
    lambda d: PEAK + d)
# Down to the smallest subnormal angle, so that clearances can be subnormal.
tiny_angles = st.floats(min_value=5e-324, max_value=1e-300)


@st.composite
def alg2_cases(draw):
    length = draw(st.sampled_from(LENGTHS) | st.floats(
        min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    thetas = draw(st.lists(angles | near_peak | tiny_angles, max_size=12))
    # Mirrored pairs clear at (nearly) the same height; duplicates tie.
    mirrored = [math.pi - t for t in thetas if math.pi - t < math.pi]
    thetas += draw(st.lists(st.sampled_from(mirrored), max_size=4)) \
        if mirrored else []
    thetas += draw(st.lists(st.sampled_from(thetas), max_size=4)) \
        if thetas else []
    return length, draw(st.permutations(thetas))


class SkewedNumpy:
    """numpy's sin and cos pushed 3 ulp off, up or down by index in the
    cycle ``signs``.  Where sin and cos are within 1 ulp (glibc's are), that
    stays within the 4-ulp error the alg2 candidate filter allows.  The
    originals are kept, so ``sin`` and ``cos`` can replace them on numpy."""

    def __init__(self, signs):
        self.signs = signs
        self.exact_sin, self.exact_cos = np.sin, np.cos

    def _skew(self, values):
        signs = np.resize(np.array(self.signs, dtype=float), values.shape)
        for _ in range(3):
            values = np.nextafter(values, signs * math.inf)
        return values

    def sin(self, x):
        return self._skew(self.exact_sin(x))

    def cos(self, x):
        return self._skew(self.exact_cos(x))


SUBNORMAL = 1e-320


@pytest.mark.parametrize("signs", [None, (1,), (-1,), (1, -1), (-1, 1)])
@settings(deadline=None, max_examples=300)
@given(alg2_cases())
@example((0.5, []))
@example((0.5, [1.0]))
@example((1.0 / math.sqrt(2.0), [PEAK, PEAK, math.pi - PEAK]))
@example((0.5, [5e-324, 1e-310, 5e-324]))
@example((0.9, [SUBNORMAL, math.nextafter(SUBNORMAL, 1.0)]))
@example((0.9, [math.nextafter(SUBNORMAL, 1.0), SUBNORMAL]))
@example((1e-300, [1e-20, 2e-20, math.pi - 1e-10, 1e-10]))
@example((0.9, [0.9, math.pi - 0.9, PEAK]))
@example((0.9999999999999998, [1.0, 1.0, 1.0, 1.0, 1.0, 1e-09]))
def test_alg2_candidates_match_full_scan(signs, case):
    """Heights (as float.hex) and compression indices of the candidate
    path equal the full scan's, also with numpy's sin and cos skewed.  The
    candidate path is forced on these short lists."""
    length, thetas = case
    scene = Scene(length)
    vz = tuple(BarrierConstraint(theta) for theta in thetas)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathplan, "ALG2_SCAN_BELOW", 0)
        if signs is not None:
            skewed = SkewedNumpy(signs)
            patch.setattr(np, "sin", skewed.sin)
            patch.setattr(np, "cos", skewed.cos)
        height = pathplan.alg2_binding(scene, thetas)[1]
        assert (height.hex(), alg2_compression(scene, vz)) \
            == full_scan(length, thetas)
        assert alg2_shortest_parabola(scene, vz).height.hex() == height.hex()


def test_alg2_heights_come_from_clearance_height(monkeypatch):
    def marked(theta, length):
        return math.nextafter(clearance_height(theta, length), math.inf)
    monkeypatch.setattr(pathplan, "clearance_height", marked)
    thetas = [0.3, PEAK, 2.5]
    assert pathplan.alg2_binding(SCENE, thetas)[1] \
        == marked(PEAK, SCENE.barrier_length)


@pytest.mark.parametrize("length", LENGTHS)
def test_alg2_uniform_draws_keep_few_candidates(length, monkeypatch):
    calls = []

    def counted(theta, length):
        calls.append(theta)
        return clearance_height(theta, length)
    monkeypatch.setattr(pathplan, "clearance_height", counted)
    rng = np.random.default_rng(5)
    for _ in range(50):
        thetas = rng.uniform(0.0, math.pi, 200).tolist()
        calls.clear()
        pathplan.alg2_binding(Scene(length), thetas)
        assert 1 <= len(calls) <= 2


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(LENGTHS),
       st.integers(1, 39).flatmap(lambda n: st.lists(
           angles | near_peak, min_size=n, max_size=n)))
@example(0.5, [1.0])
@example(0.5, [PEAK, PEAK, math.pi - PEAK])
def test_alg2_scans_short_inputs_in_full(length, thetas):
    """Below ``ALG2_SCAN_BELOW`` angles every clearance is computed once,
    in index order, and the binding index and height are the full scan's."""
    assert len(thetas) < pathplan.ALG2_SCAN_BELOW
    calls = []

    def counted(theta, length):
        calls.append(theta)
        return clearance_height(theta, length)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathplan, "clearance_height", counted)
        index, height = pathplan.alg2_binding(Scene(length), thetas)
    assert calls == thetas
    assert (height.hex(), (index,)) == full_scan(length, thetas)


def test_sin_cos_within_the_assumed_ulp_bound():
    """The candidate filter of alg2 assumes sin and cos within 4 ulp, from
    ``math`` and from numpy alike."""
    rng = np.random.default_rng(6)
    thetas = np.concatenate([
        rng.uniform(0.0, math.pi, 400), PEAK + rng.uniform(-1e-7, 1e-7, 100),
        rng.uniform(0.0, 1e-3, 50), math.pi - rng.uniform(0.0, 1e-3, 50)])
    for ours, theirs in ((np.sin, mpmath.sin), (np.cos, mpmath.cos)):
        for theta, fast in zip(thetas.tolist(), ours(thetas).tolist()):
            with mpmath.workprec(200):
                exact = theirs(mpmath.mpf(theta))
                ulp = math.ulp(float(exact))
                for value in (fast, getattr(math, ours.__name__)(theta)):
                    assert abs(mpmath.mpf(value) - exact) <= 4 * ulp


# Largest barrier length for which the analytic risk is defined.
L_MAX = 1.0 / math.sqrt(2.0)


def risk_reference(height: float, length: float) -> float:
    """alg2 risk from the plain quadratic root, evaluated with 50 digits."""
    if height >= length:  # the clearance peaks at L
        return 0.0
    with mpmath.workdps(50):
        h, big_l = mpmath.mpf(height), mpmath.mpf(length)
        rest = 1 - big_l * big_l
        s = 2 * h * rest / (big_l * (1 + mpmath.sqrt(1 - 4 * h * h * rest)))
        return float((mpmath.pi - 2 * mpmath.asin(s)) / mpmath.pi)


def test_alg2_analytic_risk_endpoints_and_validation():
    assert alg2_analytic_risk(0.0, 0.5) == 1.0
    assert alg2_analytic_risk(0.5, 0.5) == 0.0
    assert alg2_analytic_risk(0.9, 0.5) == 0.0
    with pytest.raises(ValueError):
        alg2_analytic_risk(-0.1, 0.5)
    for height, length in ((0.2, 0.9), (math.nan, 0.5), (0.1, math.nan),
                           (0.1, 0.0), (0.1, -0.5)):
        with pytest.raises(ValueError):
            alg2_analytic_risk(height, length)


def test_alg2_analytic_risk_against_closed_form():
    # clearance(t) = h reduces to the quadratic in s = sin(t):
    # h L^2 s^2 - L s + h (1 - L^2) = 0, whose smaller root
    # s = (1 - sqrt(1 - 4 h^2 (1 - L^2))) / (2 h L) is the lower crossing;
    # risk = (pi - 2 asin(s)) / pi.
    length = 0.5
    for h in (0.05, 0.25, 0.4, 0.49):
        s = (1.0 - math.sqrt(1.0 - 4.0 * h * h * (1.0 - length * length))) \
            / (2.0 * h * length)
        expected = (math.pi - 2.0 * math.asin(s)) / math.pi
        assert alg2_analytic_risk(h, length) == pytest.approx(expected, abs=1e-10)
    assert alg2_analytic_risk(0.25, 0.5) == pytest.approx(
        0.7418711459958697, rel=1e-12)


@pytest.mark.parametrize("height,length", [
    (1e-16, 0.5), (1e-300, 0.5), (5e-324, 0.5), (1e-15, L_MAX)])
def test_alg2_analytic_risk_tiny_heights(height, length):
    # Even far below L * 1e-15 the lower crossing is a positive angle.
    risk = alg2_analytic_risk(height, length)
    assert 1.0 - 1e-14 < risk <= 1.0
    assert risk == pytest.approx(risk_reference(height, length), abs=1e-15)


@pytest.mark.parametrize("height,length,expected", [
    (math.nextafter(L_MAX, 0.0), L_MAX, 1.2e-4),
    (L_MAX - 1e-15, L_MAX, 2.1e-4),
    (math.nextafter(0.5, 0.0), 0.5, 1.3e-8),
])
def test_alg2_analytic_risk_just_below_peak(height, length, expected):
    # The clearance peaks at exactly L, and every height below it leaves a
    # violating interval around pi/2.
    assert clearance_height(math.pi / 2.0, length) == length
    risk = alg2_analytic_risk(height, length)
    assert risk == pytest.approx(expected, rel=0.05)
    assert risk == pytest.approx(risk_reference(height, length), rel=1e-12,
                                 abs=0.0)
    assert alg2_analytic_risk(length, length) == 0.0


@st.composite
def heights_below_peak(draw):
    length = draw(st.floats(min_value=0.0, max_value=L_MAX, exclude_min=True))
    height = st.floats(min_value=0.0, max_value=length, exclude_min=True)
    return length, draw(height), draw(height)


@settings(deadline=None, max_examples=300)
@given(heights_below_peak())
@example((0.5, 1e-16, 1e-300))
@example((L_MAX, math.nextafter(L_MAX, 0.0), 1e-15))
@example((L_MAX, L_MAX - 1e-15, L_MAX / 2.0))
@example((0.5, math.nextafter(0.5, 0.0), 0.25))
def test_alg2_analytic_risk_matches_mpmath(case):
    length, h1, h2 = case
    r1, r2 = alg2_analytic_risk(h1, length), alg2_analytic_risk(h2, length)
    assert abs(r1 - risk_reference(h1, length)) <= 1e-12
    assert abs(r2 - risk_reference(h2, length)) <= 1e-12
    # Non-increasing in the height, up to rounding between nearby heights.
    (_, at_lower), (_, at_higher) = sorted([(h1, r1), (h2, r2)])
    assert at_higher <= at_lower + 4.0 * sys.float_info.epsilon


def test_alg2_analytic_risk_against_monte_carlo():
    dist = dataclasses.replace(uniform_barrier_distribution,
                               analytic_violation=None)
    rng = stream(43, 0)
    h = 0.25
    p = Parabola(h)
    hits = sum(1 for _ in range(40000)
               if not barrier_satisfied(SCENE, p, dist.sample(rng)))
    assert hits / 40000 == pytest.approx(alg2_analytic_risk(h, 0.5), abs=0.01)


def test_uniform_barrier_distribution_analytic_guard():
    dist = uniform_barrier_distribution
    assert dist.analytic_violation(Parabola(0.5)) == 0.0
    with pytest.raises(ValueError):
        dist.analytic_violation(Polyline((START, TARGET)))


def test_band_shatter_candidates():
    with pytest.raises(ValueError):
        band_shatter_candidates(0)
    assert band_shatter_candidates(1) == (BarrierConstraint(math.pi / 2),)
    zs = band_shatter_candidates(7)
    assert len(set(zs)) == 7
    thetas = [z.theta for z in zs]
    assert thetas == sorted(thetas)
    assert thetas[0] == pytest.approx(math.pi / 2 - 0.1)
    assert thetas[-1] == pytest.approx(math.pi / 2 + 0.1)


def test_path_system_equality_and_keys():
    s1, s2 = path_system_alg1, path_system_alg2
    a = alg1_shortest_path(SCENE, ())
    assert s1.decisions_equal(a, Polyline((START, TARGET)))
    assert s1.decision_key(a) == s1.decision_key(Polyline((START, TARGET)))
    assert s2.decisions_equal(Parabola(0.1), Parabola(0.1 + 1e-12))
    assert not s2.decisions_equal(Parabola(0.1), Parabola(0.2))
    # Vertex equality is per coordinate (as for the convex system): a shift of
    # 0.9e-9 in both coordinates is within tolerance and stays in one key
    # bucket, although its Euclidean length exceeds 1e-9; 2e-9 is not.
    def via(v):
        return Polyline((START, v, TARGET))
    base = via((0.25 - 0.45e-9, 0.5 - 0.45e-9))
    near = via((0.25 + 0.45e-9, 0.5 + 0.45e-9))
    far = via((0.25 + 1.55e-9, 0.5 + 1.55e-9))
    assert s1.decisions_equal(base, near)
    assert s1.decision_key(base) == s1.decision_key(near)
    assert not s1.decisions_equal(base, far)
    assert s1.decision_key(base) != s1.decision_key(far)
    # The convex system's decisions are points, under the same rule.
    base, near, far = base.vertices[1], near.vertices[1], far.vertices[1]
    assert convex_system.decisions_equal(base, near)
    assert convex_system.decision_key(base) == convex_system.decision_key(near)
    assert not convex_system.decisions_equal(base, far)
    assert convex_system.decision_key(base) != convex_system.decision_key(far)


@pytest.mark.parametrize("vz, named", [
    ((1e-300,), 1e-300),
    ((1e-9,), 1e-9),
    ((math.pi - 6e-10,), math.pi - 6e-10),
    ((1e-9, math.pi - 6e-10), math.pi - 6e-10),
])
def test_alg1_rejects_barriers_on_the_axis(vz, named):
    """The edge from a tip within POINT_TOL of the I-T axis down to I or T
    runs along its barrier, so with no higher tip no path exists; the error
    names the barrier nearest the axis.  A higher tip offers a way over."""
    vz = tuple(BarrierConstraint(theta) for theta in vz)
    with pytest.raises(ValueError, match=re.escape(f"theta={named!r},")):
        alg1_shortest_path(SCENE, vz)
    path = alg1_shortest_path(SCENE, vz + (BarrierConstraint(1.0),))
    assert all(barrier_satisfied(SCENE, path, z) for z in vz)
