"""Path-planner tests, including an exhaustive geodesic oracle."""

import itertools
import math

import pytest

from scenlab.geometry import segments_conflict
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
    parabola_arc_length,
    path_system_alg1,
    path_system_alg2,
    uniform_barrier_distribution,
)
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


def test_parabola_arc_length():
    assert parabola_arc_length(0.0) == pytest.approx(2.0, rel=1e-12)
    # Strictly increasing in height, so minimal height = shortest curve.
    lengths = [parabola_arc_length(h) for h in (0.0, 0.2, 0.5, 1.0)]
    assert lengths == sorted(lengths)
    # Closed form: integral of hypot(1, 2hx) over [-1, 1].
    h = 0.5
    closed = math.sqrt(1 + 4 * h * h) + math.asinh(2 * h) / (2 * h)
    assert parabola_arc_length(h) == pytest.approx(closed, rel=1e-10)


def test_alg2_analytic_risk_endpoints_and_validation():
    assert alg2_analytic_risk(0.0, 0.5) == 1.0
    assert alg2_analytic_risk(0.5, 0.5) == 0.0
    assert alg2_analytic_risk(0.9, 0.5) == 0.0
    with pytest.raises(ValueError):
        alg2_analytic_risk(-0.1, 0.5)
    with pytest.raises(ValueError):
        alg2_analytic_risk(0.2, 0.9)


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


def test_alg2_analytic_risk_against_monte_carlo():
    dist = uniform_barrier_distribution(SCENE, analytic=False)
    rng = stream(43, 0)
    h = 0.25
    p = Parabola(h)
    hits = sum(1 for _ in range(40000)
               if not barrier_satisfied(SCENE, p, dist.sample(rng)))
    assert hits / 40000 == pytest.approx(alg2_analytic_risk(h, 0.5), abs=0.01)


def test_uniform_barrier_distribution_analytic_guard():
    dist = uniform_barrier_distribution(SCENE)
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
    s1, s2 = path_system_alg1(SCENE), path_system_alg2(SCENE)
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
