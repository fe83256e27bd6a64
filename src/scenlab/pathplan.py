"""Path planning around random radial barriers (the application systems).

A scene runs from I = (-1, 0) to T = (1, 0) in the closed upper halfplane.
Random barriers radiate from the midpoint O = (0, 0) with fixed length L at an
angle theta in (0, pi).  Two planners are provided:

* ``alg1_shortest_path``      -- the taut-string geodesic over barrier tips
  (shortest path in the visibility graph); its dVC dimension grows without
  bound along band witness families near pi/2.
* ``alg2_shortest_parabola``  -- the lowest parabola y = h (1 - x^2) clearing
  every barrier tip; it admits a capacity-1 compression map (any barrier that
  touches the optimal parabola).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import ConstraintDistribution, ScenarioSystem
from .geometry import (POINT_TOL, Point, coords_equal, coords_key,
                       segment_conflicts, segments_conflict)

START: Point = (-1.0, 0.0)
TARGET: Point = (1.0, 0.0)
ORIGIN: Point = (0.0, 0.0)


@dataclass(frozen=True)
class Scene:
    barrier_length: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.barrier_length < 1.0:
            raise ValueError("barrier length must lie in (0, 1)")


@dataclass(frozen=True)
class BarrierConstraint:
    """Barrier at angle theta: paths must not cross the segment from O to
    the tip (grazing the tip itself is allowed)."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < math.pi:
            raise ValueError("barrier angle must lie strictly in (0, pi)")


def barrier_tip(z: BarrierConstraint, length: float) -> Point:
    return (length * math.cos(z.theta), length * math.sin(z.theta))


@dataclass(frozen=True)
class Polyline:
    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("polyline needs at least two vertices")
        if self.vertices[0] != START or self.vertices[-1] != TARGET:
            raise ValueError("polyline must run from I to T")
        if any(v[1] < 0.0 for v in self.vertices):
            raise ValueError("polyline must stay in the upper halfplane")

    def length(self) -> float:
        return sum(math.dist(a, b)
                   for a, b in zip(self.vertices, self.vertices[1:]))


@dataclass(frozen=True)
class Parabola:
    """The curve y = height * (1 - x^2) on [-1, 1]; height 0 is the segment."""

    height: float

    def __post_init__(self) -> None:
        if self.height < 0.0:
            raise ValueError("parabola height must be >= 0")


PathDecision = Polyline | Parabola


def clearance_height(theta: float, length: float) -> float:
    """Minimal parabola height whose graph clears the tip of a barrier at
    ``theta``: L sin(theta) / (1 - L^2 cos^2(theta))."""
    c = math.cos(theta)
    return length * math.sin(theta) / (1.0 - length * length * c * c)


def barrier_satisfied(scene: Scene, path: PathDecision,
                      z: BarrierConstraint) -> bool:
    """Geometric satisfaction predicate.

    Polylines must not meet the barrier segment other than at its tip.
    A parabola clears the barrier iff its height reaches the tip clearance
    (the region under the parabola is convex, so tip clearance implies the
    whole barrier stays below the curve).
    """
    tip = barrier_tip(z, scene.barrier_length)
    if isinstance(path, Parabola):
        return clearance_height(z.theta, scene.barrier_length) \
            <= path.height + POINT_TOL
    return not any(segments_conflict(a, b, tip)
                   for a, b in zip(path.vertices, path.vertices[1:]))


def barrier_satisfied_many(scene: Scene, path: PathDecision,
                           vz: tuple) -> list[bool]:
    """``[barrier_satisfied(scene, path, z) for z in vz]``, with the
    polyline crossing test run per segment over all tips at once.

    Tips and their lengths come from ``math`` exactly as in the scalar
    predicate (``np.hypot`` may differ from ``math.hypot`` in the last bit).
    """
    if isinstance(path, Parabola) or not vz:
        return [barrier_satisfied(scene, path, z) for z in vz]
    tips = [barrier_tip(z, scene.barrier_length) for z in vz]
    tip_lengths = np.array([math.hypot(*tip) for tip in tips])
    tips = np.array(tips)
    blocked = np.zeros(len(vz), dtype=bool)
    for a, b in zip(path.vertices, path.vertices[1:]):
        blocked |= segment_conflicts(a, b, tips, tip_lengths)
    return (~blocked).tolist()


# ---------------------------------------------------------------------------
# Alg1: visibility-graph geodesic
# ---------------------------------------------------------------------------


def alg1_shortest_path(scene: Scene, vz: tuple) -> Polyline:
    """Shortest path from I to T avoiding all sampled barriers.

    Uniform-cost search over the visibility graph on {I, T, O, tips}; edges
    that conflict with any sampled barrier are excluded.  Ties are broken
    deterministically by node index (I, T, O, then tips in sample order).
    A feasible path always exists over the barrier tips.
    """
    tips = [barrier_tip(z, scene.barrier_length) for z in vz]
    nodes = list(dict.fromkeys([START, TARGET, ORIGIN, *tips]))
    n = len(nodes)

    def visible(i: int, j: int) -> bool:
        return not any(segments_conflict(nodes[i], nodes[j], tip)
                       for tip in tips)

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if visible(i, j):
                w = math.dist(nodes[i], nodes[j])
                adjacency[i].append((j, w))
                adjacency[j].append((i, w))

    dist = [math.inf] * n
    prev = [-1] * n
    dist[0] = 0.0
    heap: list[tuple[float, int]] = [(0.0, 0)]
    done = [False] * n
    while heap:
        d, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        if i == 1:
            break
        for j, w in sorted(adjacency[i]):
            nd = d + w
            if nd < dist[j]:
                dist[j] = nd
                prev[j] = i
                heapq.heappush(heap, (nd, j))
    if not math.isfinite(dist[1]):
        raise RuntimeError("no feasible path found (should be impossible)")
    path = [1]
    while path[-1] != 0:
        path.append(prev[path[-1]])
    return Polyline(tuple(nodes[i] for i in reversed(path)))


# ---------------------------------------------------------------------------
# Alg2: lowest clearing parabola
# ---------------------------------------------------------------------------


def _clearance_heights(scene: Scene, vz: tuple) -> list[float]:
    return [clearance_height(z.theta, scene.barrier_length) for z in vz]


def alg2_shortest_parabola(scene: Scene, vz: tuple) -> Parabola:
    """Lowest parabola clearing every sampled barrier tip.

    Arc length is strictly increasing in the height, so the minimal feasible
    height is the shortest parabola.
    """
    return Parabola(max([0.0, *_clearance_heights(scene, vz)]))


def alg2_compression(scene: Scene, vz: tuple) -> tuple[int, ...]:
    """Capacity-1 compression map for the parabola planner.

    Returns the index of the first barrier attaining the maximal clearance
    requirement (the binding obstacle); the planner returns the same parabola
    on that singleton.  The empty tuple compresses to itself (height 0).
    """
    if not vz:
        return ()
    heights = _clearance_heights(scene, vz)
    return (heights.index(max(heights)),)


def parabola_arc_length(height: float) -> float:
    """Arc length of y = h (1 - x^2) over [-1, 1] (numeric quadrature)."""
    from scipy.integrate import quad
    value, _ = quad(lambda x: math.hypot(1.0, -2.0 * height * x), -1.0, 1.0)
    return value


def alg2_analytic_risk(height: float, length: float,
                       xtol: float = 1e-12) -> float:
    """Measure of {theta in (0, pi) : clearance(theta) > height} / pi under
    the uniform angle distribution.

    The clearance curve rises from 0 to its maximum L at pi/2 and is
    symmetric about pi/2 (for L <= 1/sqrt(2) it is monotone on each side), so
    the violating set is the interval between the two bracketed roots.
    """
    if height < 0.0:
        raise ValueError("height must be >= 0")
    if length > 1.0 / math.sqrt(2.0):
        raise ValueError("analytic risk requires L <= 1/sqrt(2) (unimodal "
                         "clearance curve)")
    if height <= 0.0:
        return 1.0
    peak = clearance_height(math.pi / 2.0, length)
    if height >= peak - 1e-15:
        return 0.0
    theta_lo = brentq(lambda th: clearance_height(th, length) - height,
                      1e-15, math.pi / 2.0, xtol=xtol)
    return (math.pi - 2.0 * theta_lo) / math.pi


def band_shatter_candidates(k: int, halfwidth: float = 0.1) -> tuple[BarrierConstraint, ...]:
    """k distinct barrier angles evenly spaced in [pi/2 - d, pi/2 + d].

    Near pi/2 the taut path's chords and terminal segments dip inside the
    radius-L circle, so every unsampled band barrier is crossed while each
    sampled tip is only grazed; this is the witness family fed to the
    shattering checker against the geodesic planner.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        return (BarrierConstraint(math.pi / 2.0),)
    angles = np.linspace(math.pi / 2.0 - halfwidth,
                         math.pi / 2.0 + halfwidth, k)
    return tuple(BarrierConstraint(float(a)) for a in angles)


# ---------------------------------------------------------------------------
# System bundles
# ---------------------------------------------------------------------------


def _polyline_coords(x: Polyline) -> tuple[float, ...]:
    return tuple(c for p in x.vertices for c in p)


def path_system_alg1(scene: Scene = Scene()) -> ScenarioSystem:
    return ScenarioSystem(
        name="path-alg1",
        decide=lambda vz: alg1_shortest_path(scene, vz),
        satisfies=lambda x, z: barrier_satisfied(scene, x, z),
        decisions_equal=lambda a, b: coords_equal(_polyline_coords(a),
                                                  _polyline_coords(b)),
        decision_key=lambda x: coords_key(_polyline_coords(x)),
        satisfies_many=lambda x, vz: barrier_satisfied_many(scene, x, vz),
    )


def path_system_alg2(scene: Scene = Scene()) -> ScenarioSystem:
    return ScenarioSystem(
        name="path-alg2",
        decide=lambda vz: alg2_shortest_parabola(scene, vz),
        satisfies=lambda x, z: barrier_satisfied(scene, x, z),
        decisions_equal=lambda a, b: coords_equal((a.height,), (b.height,)),
        decision_key=lambda x: coords_key((x.height,)),
    )


def uniform_barrier_distribution(scene: Scene = Scene(),
                                 analytic: bool = True) -> ConstraintDistribution:
    """Uniform angle measure on (0, pi); the analytic evaluator covers
    parabola decisions (geodesic risk has no closed form here)."""
    def sample(rng: np.random.Generator) -> BarrierConstraint:
        theta = 0.0
        while theta <= 0.0 or theta >= math.pi:
            theta = float(rng.uniform(0.0, math.pi))
        return BarrierConstraint(theta)

    def sample_many(rng: np.random.Generator, n: int) -> tuple:
        # The scalar loop draws at least one angle per barrier, so drawing
        # only the shortfall each round never reads past its stream position.
        thetas: list[float] = []
        while len(thetas) < n:
            draws = rng.uniform(0.0, math.pi, size=n - len(thetas))
            thetas.extend(draws[(draws > 0.0) & (draws < math.pi)].tolist())
        return tuple(map(BarrierConstraint, thetas))

    violation = None
    if analytic:
        def violation(x: PathDecision) -> float:
            if not isinstance(x, Parabola):
                raise ValueError("analytic risk only available for parabolas")
            return alg2_analytic_risk(x.height, scene.barrier_length)

    return ConstraintDistribution(sample=sample, analytic_violation=violation,
                                  sample_many=sample_many)
