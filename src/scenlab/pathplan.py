"""Path planning around random radial barriers (the application systems).

A scene runs from I = (-1, 0) to T = (1, 0) in the closed upper halfplane.
Random barriers radiate from the midpoint O = (0, 0) with fixed length L at an
angle theta in (0, pi).  Two planners are provided:

* ``alg1_shortest_path``      -- the taut-string geodesic over barrier tips
  (the upper hull of I, T and the tips); its dVC dimension grows without
  bound along band witness families near pi/2.
* ``alg2_shortest_parabola``  -- the lowest parabola y = h (1 - x^2) clearing
  every barrier tip; it admits a capacity-1 compression map (the binding
  barrier of ``alg2_binding``, which touches the optimal parabola).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import neg
from typing import TYPE_CHECKING

from .core import ConstraintDistribution, Fold, ScenarioSystem, is_real
from .geometry import (
    POINT_TOL,
    Point,
    cross,
    segments_conflict,
)

if TYPE_CHECKING:
    import numpy as np

START: Point = (-1.0, 0.0)
TARGET: Point = (1.0, 0.0)
# Angle count below which ``alg2_binding`` scans every clearance with
# ``math`` instead of filtering candidates with numpy first.
ALG2_SCAN_BELOW = 40
# Crossing depth beyond which ``barrier_satisfied_values`` trusts its numpy
# pass (derived in its docstring).
DEPTH_MARGIN = 8.0 * POINT_TOL


@dataclass(frozen=True)
class Scene:
    barrier_length: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.barrier_length < 1.0:
            raise ValueError("barrier length must lie in (0, 1)")


@dataclass(frozen=True)
class BarrierConstraint:
    """Barrier at angle theta: paths must not cross the segment from O to
    the tip (grazing the tip itself is allowed).  ``theta`` is a real number
    that is not a ``bool`` (numpy float scalars are floats)."""

    theta: float

    def __post_init__(self) -> None:
        if not is_real(self.theta):
            raise ValueError(
                f"barrier angle must be a real number, got {self.theta!r}")
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

    @cached_property
    def star(self):
        """None unless the vertex angles fall strictly from pi at I to 0 at
        T and every vertex lies in the closed unit disk; else the vertex
        angles, cross(A, d) and d = (dx, dy) of each edge A -> A + d as
        Python floats, alpha = ``DEPTH_MARGIN`` / (least vertex radius) and
        the least |cross(A, d)| / max(|d|, 1).  Built on first use and not
        a field, so ``==``, hashing and the repr are those of the vertices."""
        ends = [math.atan2(y, x) for x, y in self.vertices]
        radii = [math.hypot(x, y) for x, y in self.vertices]
        if max(radii) > 1.0 or any(b >= a for a, b in zip(ends, ends[1:])):
            return None
        steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1)
                 in zip(self.vertices, self.vertices[1:])]
        crosses = [x * dy - y * dx
                   for (x, y), (dx, dy) in zip(self.vertices, steps)]
        ratio = min(abs(c) / max(math.hypot(*d), 1.0)
                    for c, d in zip(crosses, steps))
        return ends, crosses, steps, DEPTH_MARGIN / min(radii), ratio

    @cached_property
    def star_arrays(self):
        """The vertex angles, crosses and steps (dx, dy) of a non-None
        ``star`` as numpy arrays for ``barrier_satisfied_values``: built
        once per polyline, on first use, and not a field either."""
        import numpy as np

        ends, crosses, steps, _, _ = self.star
        return np.array(ends), np.array(crosses), np.array(steps).T


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

    Polylines must not meet the barrier segment other than at its tip, by
    ``segments_conflict`` on each edge the tip can reach (``_edges_conflict``:
    only the edges near its angle if ``_star_edges`` accepts the polyline,
    which agree with every edge by the proof in ``barrier_satisfied_values``).
    A parabola clears the barrier iff its height reaches the tip clearance
    (the region under the parabola is convex, so tip clearance implies the
    whole barrier stays below the curve).
    """
    length = scene.barrier_length
    if isinstance(path, Parabola):
        return clearance_height(z.theta, length) <= path.height + POINT_TOL
    return not _edges_conflict(path.vertices, _star_edges(path, length),
                               barrier_tip(z, length))


def barrier_satisfied_values(scene: Scene, path: PathDecision,
                             thetas: list[float] | np.ndarray) -> list[bool]:
    """``[barrier_satisfied(scene, path, BarrierConstraint(t)) for t in
    thetas]`` for a list or a float64 array of angles (an array is read in
    place).  An angle outside (0, pi) raises ``ValueError``, as
    :class:`BarrierConstraint` does.

    A polyline that ``_star_edges`` accepts (every alg1 hull but the
    straight path) is star-shaped about O, and each angle is classified by
    its signed crossing depth L - r: the ray u = (cos theta, sin theta)
    meets the one edge A -> A + d in whose angular span it lies at
    r = cross(A, d) / cross(u, d).  One numpy pass calls a depth above
    m = ``DEPTH_MARGIN`` violated and one below -m satisfied.  Every other
    angle, every angle within alpha = m / rho (rho the least vertex
    radius) of its edge's end angles, and every angle against a parabola
    or any other polyline goes to ``barrier_satisfied``: on a star
    polyline, the crossing test of the tip computed by ``math`` against
    only the edges that tip can reach (``_edges_conflict``).  Why both
    lanes, and that test, agree with ``segments_conflict`` on every edge
    (p = A, d1 = d, the math tip P with |P| = L up to rounding;
    tol = ``POINT_TOL``, u = 2^-53):

    * Star shape.  ``_star_edges`` requires vertex angles phi_j falling
      strictly from pi at I to 0 at T, every vertex in the closed unit disk
      and, on every edge, the guard |cross(A, d)| >= g max(|d|, 1) with
      g = 1e3 tol / L (the least ratio of ``Polyline.star`` is at least
      g), so the edge line's distance h from O is at least g.  Edge j then
      subtends exactly [phi_(j+1), phi_j], the spans tile [0, pi], and
      ``np.searchsorted`` finds theta's edge.  The ray meets it
      at r <= 1 and an angle beta with |sin beta| = h / r >= g.
    * Rounding.  Assume, as ``alg2_binding`` does, that ``math`` and numpy
      sin and cos are within relative error 8u.  cross(A, d) is within
      3u |A| |d| <= 3u |d| and cross(u, d) within 21u |d| (u's direction is
      within 18u of P's, and |cos d_y| + |sin d_x| <= |d|), relative errors
      3u / h and 21u r / h, so r is within 25u / g of the exact crossing
      distance r_P on the ray through P.  The scalar test forms s and t
      from the same products, so s |P| is within 7u / g of r_P and its
      crossing point x = p + t d1 within 10u / g of the exact one.  With
      g >= 1e3 tol these are 2.8 tol, 0.8 tol and 1.1 tol.
    * The depth margin m = 8 tol.  If L - r > m, then |P| - r_P > 5.2 tol,
      so s < 1 and x lies at least 5.2 tol / sqrt(2) - 1.1 tol > tol from
      P in its larger coordinate: ``points_equal`` fails and the edge
      conflicts.  If r - L > m, then s |P| > |P| + 4.4 tol, so
      s > 1 + s_tol and the edge does not conflict.  In between,
      ``points_equal``, s_tol and the rounding above decide.
    * The end-angle band alpha.  An angle more than alpha from both end
      angles (atan2 and the tip's direction are off by less than 1e-14) has
      its exact crossing point at least 7.99 tol from both vertices, so the
      scalar's t lies inside (t_tol, 1 - t_tol), as t_tol |d| <= tol.  Any
      other edge conflicts only if the scalar's t puts the crossing within
      tol of that edge, so within 2.1 tol of it exactly.  The ray misses
      that edge, and a crossing behind O would lie within 2 tol of O,
      closer than g, so the crossing lies beyond one of its vertices V.
      That puts theta within 2.2 tol / |V| < alpha of V's angle, so
      ``_edges_conflict`` tests that edge too.
    * The parallel branch.  On theta's edge |denom| = |d| |P| h / r >=
      |P| |cross(A, d)| >= 1e3 tol max(|d|, 1) (up to rounding), far above
      the branch's threshold tol max(|d|, 1) max(|P|, 1).  On any edge the
      branch finds a conflict only if A lies within tol of the ray's line
      while |sin beta| <= tol max(|d|, 1) / (|d| |P|).  Then
      |cross(A, d)| <= tol max(|d|, 1) (1 / |P| + 1) < g max(|d|, 1), which
      the guard excludes.
    """
    import numpy as np

    angles = np.asarray(thetas, dtype=float)
    if not ((angles > 0.0) & (angles < math.pi)).all():
        raise ValueError("barrier angle must lie strictly in (0, pi)")
    length = scene.barrier_length
    star = None if isinstance(path, Parabola) else _star_edges(path, length)
    if star is None:
        return [barrier_satisfied(scene, path, BarrierConstraint(t))
                for t in angles.tolist()]
    alpha = star[3]
    ends, crosses, (dx, dy) = path.star_arrays
    j = np.searchsorted(-ends, -angles, side="right") - 1
    depth = length - crosses[j] / (np.cos(angles) * dy[j]
                                   - np.sin(angles) * dx[j])
    satisfied = depth <= DEPTH_MARGIN
    exact = ((np.abs(depth) <= DEPTH_MARGIN) | (ends[j] - angles <= alpha)
             | (angles - ends[j + 1] <= alpha))
    for i in np.flatnonzero(exact).tolist():
        satisfied[i] = barrier_satisfied(scene, path,
                                         BarrierConstraint(thetas[i]))
    return satisfied.tolist()


def _star_edges(path: Polyline, length: float):
    """``path.star`` if its least ratio |cross(A, d)| / max(|d|, 1) meets
    the guard g = 1e3 tol / L of barriers of ``length``, else None."""
    star = path.star
    if star is None or star[-1] < 1e3 * POINT_TOL / length:
        return None
    return star


def _edges_conflict(vertices: tuple[Point, ...], star, tip: Point) -> bool:
    """Whether ``segments_conflict`` finds the barrier with tip ``tip``
    crossing an edge of ``vertices`` it can reach, each edge left endpoint
    first; ``star`` is ``_star_edges`` of the polyline.  Without a star
    every edge is reachable.  With one, the polyline is star-shaped about
    O, and the reachable edges are the edge whose span [phi_(j+1), phi_j]
    holds theta = atan2 of the tip and every edge incident to a vertex
    within alpha of theta (the wedge method of point location in a
    star-shaped polygon: Preparata and Shamos, Computational Geometry,
    1985, section 2.2).  They are consecutive, from the edge that ends at
    the first vertex at most theta + alpha to the one that starts at the
    last vertex at least theta - alpha, and the vertex angles fall, so two
    bisections on their negations find them."""
    edges = range(len(vertices) - 1)
    if star is not None:
        ends, alpha = star[0], star[3]
        theta = math.atan2(tip[1], tip[0])
        first = bisect_left(ends, -theta - alpha, key=neg)
        last = bisect_right(ends, alpha - theta, key=neg)
        edges = range(max(first - 1, 0), min(last, len(edges)))
    return any(segments_conflict(vertices[e], vertices[e + 1], tip)
               for e in edges)


# ---------------------------------------------------------------------------
# Alg1: upper hull of the tips
# ---------------------------------------------------------------------------


def alg1_shortest_path(scene: Scene, vz: tuple | frozenset) -> Polyline:
    """Shortest path from I to T avoiding all sampled barriers:
    ``alg1_shortest_path_values`` on the barriers' angles.

    ``vz`` is a tuple, or alg1's fold state, a frozenset.  The planner, its
    error included, depends on the set of angles only, so it is invariant
    under reordering and duplicating ``vz``.
    """
    return alg1_shortest_path_values(scene, [z.theta for z in vz])


def alg1_shortest_path_values(scene: Scene,
                              thetas: list[float] | np.ndarray) -> Polyline:
    """alg1's path for barriers at the angles ``thetas``, a list or a
    float64 array.

    A feasible path and the segment I-T together enclose every barrier, so
    the shortest one bounds the region of least perimeter that holds them
    all: the convex hull of {I, T, tips} (each barrier's base O lies on
    I-T).  The path is the upper hull of {I, T, tips}, built by
    ``_alg1_hull``; where two grazing pops in a row leave a tip above the
    final chord and the hull fails ``barrier_satisfied``, it is the strict
    hull of ``_alg1_strict_hull``.  With a barrier within ``POINT_TOL`` of
    the I-T axis and no higher tip to pass over, the hull edge from its tip
    down to I or T runs along it, so both hulls fail and no path exists:
    ``ValueError`` names the barrier with the lowest tip, the smallest
    angle among tied ones, as a Python float.

    The hulls depend on the set of tips only, the check on each tip alone
    (``barrier_satisfied`` on a polyline, with no barrier built) and the
    named barrier on the set of angles, so the planner, its error
    included, is invariant under reordering and duplicating ``thetas``.
    """
    length = scene.barrier_length
    tips = [(length * math.cos(t), length * math.sin(t)) for t in thetas]
    distinct = tuple(sorted(set(tips)))
    for hull in (_alg1_hull, _alg1_strict_hull):
        path = Polyline(hull(distinct))
        star = _star_edges(path, length)
        if not any(_edges_conflict(path.vertices, star, tip) for tip in tips):
            return path
    height, theta = min((tip[1], t) for t, tip in zip(thetas, tips))
    raise ValueError(f"no path clears barrier theta={float(theta)!r}, "
                     f"nearest the I-T axis (tip height {height:.3g})")


def _alg1_hull(tips: tuple[Point, ...]) -> tuple[Point, ...]:
    """Vertices of the upper hull of I, the sorted distinct barrier
    ``tips`` and T.

    Andrew's monotone chain (Inf. Process. Lett. 9(5), 1979): no tip has
    x = +-1, as |L cos theta| <= L < 1, so the walk runs from I to T.  The
    last vertex b is popped while it is not strictly above the chord from
    the vertex a before it to the next point p (``cross(a, b, p) >= 0``)
    or that chord only grazes b's tip (``not segments_conflict(a, p, b)``,
    left endpoint first): the grazing chord is the shorter path and clears
    b's barrier.
    """
    hull = [START]
    for p in (*tips, TARGET):
        while len(hull) > 1 and (cross(hull[-2], hull[-1], p) >= 0.0
                                 or not segments_conflict(hull[-2], p,
                                                          hull[-1])):
            hull.pop()
        hull.append(p)
    return tuple(hull)


def _alg1_strict_hull(tips: tuple[Point, ...]) -> tuple[Point, ...]:
    """``_alg1_hull`` without its grazing pops: a tip strictly above the
    chord of its neighbours stays a vertex, even where the chord grazes it."""
    hull = [START]
    for p in (*tips, TARGET):
        while len(hull) > 1 and cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    return tuple(hull)


# ---------------------------------------------------------------------------
# Alg2: lowest clearing parabola
# ---------------------------------------------------------------------------


def alg2_binding(scene: Scene, thetas: list[float] | np.ndarray
                 ) -> tuple[int | None, float]:
    """alg2's binding barrier: the first index of ``thetas`` attaining the
    largest ``math`` clearance, and that clearance (``(None, 0.0)`` for no
    barrier), with the bytes of a ``clearance_height`` scan of every angle.
    ``thetas`` is a list or a float64 array, which the numpy pass reads in
    place; the clearance is a Python float either way.

    One numpy pass estimates every clearance a_i with the same formula;
    only the candidates, a_i >= (1 - tau) max a in index order, get the
    exact scalar call.  Nothing in the filter assumes a shape of the
    clearance curve, so it holds for every L in (0, 1).  Why no index
    attaining the exact maximum is dropped:

    * Let u = 2^-53.  Assume ``math`` and numpy compute sin and cos of a
      double within 4 ulp, a relative error e_f <= 8u (glibc is below 1
      ulp; ``test_pathplan`` checks both against mpmath).  With
      R = L^2 / (1 - L^2), one evaluation of L sin / (1 - L^2 cos^2) then
      has relative error at most e_f + 3u + R (2 e_f + 3u) = (11 + 19 R) u
      to first order: sin and the roundings of the numerator, the
      subtraction and the quotient, plus the error of the rounded
      L^2 cos^2 (two cos factors, three products), which the cancellation
      in 1 - L^2 cos^2 magnifies by L^2 cos^2 / (1 - L^2 cos^2) <= R.
      e = (16 + 32 R) u also covers the higher-order terms while
      tau = 4 e < 1, and the two roundings of the threshold.  For
      tau >= 1 (L close to 1) every index is kept and nothing is
      estimated: an estimate's denominator may then even change sign, so
      a threshold of (1 - tau) max a <= 0 could still drop the maximum.
    * Both values of index i are within relative error e of its exact
      clearance, so an index j attaining the ``math`` maximum has
      a_j / max a >= ((1 - e) / (1 + e))^2 >= 1 - 4 e = 1 - tau, and is
      kept; so is every tie for that maximum.
    * The relative bounds need a normal numerator L sin (an underflowing
      L^2 cos^2 only adds an absolute error far below u (1 - L^2)).  The
      numerator of a clearance h is at least h (1 - L^2), so with
      max a (1 - L^2) >= 2^-1020 the numerators of the numpy maximum and
      of every clearance of at least 0.6 max a, the ``math`` maximum
      among them while tau < 1, are normal.  Below that floor
      every index is kept: the full scan, which covers subnormal
      clearances.
    * Fewer than ``ALG2_SCAN_BELOW`` angles are scanned in full: there the
      numpy pass, about 6 us whatever the length, costs more than the
      ``math`` scan of about 0.4 us an angle.
    """
    if len(thetas) == 0:
        return None, 0.0
    length = scene.barrier_length
    rest = 1.0 - length * length
    tau = 4.0 * (16.0 + 32.0 * length * length / rest) * 2.0 ** -53
    indices = range(len(thetas))
    if tau < 1.0 and len(thetas) >= ALG2_SCAN_BELOW:
        import numpy as np

        angles = np.asarray(thetas, dtype=float)
        c = np.cos(angles)
        approx = length * np.sin(angles) / (1.0 - length * length * c * c)
        top = float(approx.max())
        if top * rest >= 2.0 ** -1020:
            indices = np.flatnonzero(approx >= (1.0 - tau) * top).tolist()
    if isinstance(indices, range) and not isinstance(thetas, list):
        thetas = thetas.tolist()  # Python floats for the full scan
    heights = [clearance_height(thetas[i], length) for i in indices]
    height = max(heights)  # max([0.0, *heights]): clearances are >= +0.0
    return indices[heights.index(height)], height


def alg2_shortest_parabola(scene: Scene, vz: tuple) -> Parabola:
    """Lowest parabola clearing every sampled barrier tip.

    Arc length is strictly increasing in the height, so the minimal feasible
    height is the shortest parabola.
    """
    return Parabola(alg2_binding(scene, [z.theta for z in vz])[1])


def alg2_compression(scene: Scene, vz: tuple) -> tuple[int, ...]:
    """Capacity-1 compression map for the parabola planner: the binding
    barrier, on whose singleton the planner returns the same parabola.  The
    empty tuple compresses to itself (height 0)."""
    index = alg2_binding(scene, [z.theta for z in vz])[0]
    return () if index is None else (index,)


def _one_minus_twice_square(x: float) -> float:
    """1 - 2 x^2 without the cancellation of the rounded square near
    x^2 = 1/2: Veltkamp's split gives the rounding error of x * x exactly
    (Dekker's product), and 1 - 2 fl(x^2) is exact there (Sterbenz)."""
    square = x * x
    scaled = 134217729.0 * x  # 2^27 + 1
    hi = scaled - (scaled - x)
    lo = x - hi
    error = ((hi * hi - square) + 2.0 * hi * lo) + lo * lo
    return (1.0 - 2.0 * square) - 2.0 * error


def alg2_analytic_risk(height: float, length: float) -> float:
    """Measure of {theta in (0, pi) : clearance(theta) > height} / pi under
    the uniform angle distribution.

    For L <= 1/sqrt(2) the clearance curve rises monotonically from 0 to
    its peak L at pi/2 and is symmetric about pi/2, so for 0 < h < L the
    violating set is (theta_lo, pi - theta_lo), where theta_lo is the lower
    crossing of clearance(theta) = h.  With s = sin(theta) that crossing is
    the smaller root of h L^2 s^2 - L s + h (1 - L^2) = 0, and cos^2(theta)
    is the larger root of the matching quadratic in cos^2.  Both are taken
    in the form where every term under a square root is a sum of
    non-negative parts, with gap = (1 - h/L)(1 + h/L), w = 1 - 2 L^2 and
    q = 1 - 2 h^2:

        sin(theta_lo)   = 2 (h/L) (1 - L^2) / (1 + sqrt(w^2 + 4 L^2 gap (1 - L^2)))
        cos^2(theta_lo) = 2 gap / (q + sqrt(q^2 + 4 h^2 L^2 gap))

    The risk (pi - 2 theta_lo) / pi is taken as 2 atan2(cos, sin) / pi, so
    it keeps its relative precision when it is small.  Near the peak at
    L = 1/sqrt(2), cos(theta_lo) carries the risk and q is as tiny as gap,
    so q is formed from the exact rounding error of h * h (plain
    1 - 2 h * h is off by an ulp of 1).  Nothing else cancels, underflows
    or overflows: the risk is accurate to a few ulps for tiny heights, tiny
    lengths and heights just below the peak, where the discriminant
    1 - 4 h^2 (1 - L^2) of the plain quadratic formula vanishes.
    """
    if not height >= 0.0:
        raise ValueError("height must be >= 0")
    if not 0.0 < length <= 1.0 / math.sqrt(2.0):
        raise ValueError("analytic risk requires 0 < L <= 1/sqrt(2) "
                         "(unimodal clearance curve)")
    if height <= 0.0:
        return 1.0
    if height >= length:
        return 0.0
    gap = ((length - height) / length) * ((length + height) / length)
    rest = 1.0 - length * length
    w = 1.0 - 2.0 * length * length
    q = _one_minus_twice_square(height)
    sin_lo = 2.0 * (height / length) * rest \
        / (1.0 + math.sqrt(w * w + 4.0 * length * length * gap * rest))
    hl = height * length
    cos2_lo = 2.0 * gap / (q + math.sqrt(q * q + 4.0 * hl * hl * gap))
    return 2.0 * math.atan2(math.sqrt(cos2_lo), sin_lo) / math.pi


def band_shatter_candidates(k: int) -> tuple[BarrierConstraint, ...]:
    """k distinct barrier angles evenly spaced in [pi/2 - 0.1, pi/2 + 0.1].

    Near pi/2 the taut path's chords and terminal segments dip inside the
    radius-L circle, so every unsampled band barrier is crossed while each
    sampled tip is only grazed; this is the witness family fed to the
    shattering checker against the geodesic planner.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        return (BarrierConstraint(math.pi / 2.0),)
    import numpy as np

    angles = np.linspace(math.pi / 2.0 - 0.1, math.pi / 2.0 + 0.1, k)
    return tuple(BarrierConstraint(float(a)) for a in angles)


# ---------------------------------------------------------------------------
# Registry systems and their measure
# ---------------------------------------------------------------------------

SCENE = Scene()  # the scene of the registry systems and their measure


def _polyline_coords(x: Polyline) -> tuple[float, ...]:
    return tuple(c for p in x.vertices for c in p)


# Fields look planners up as module globals at call time (no partials), so
# a rebound global reaches them.  alg1's fold state is its set of barriers;
# on drawn angles it plans from the list, with no set built.
path_system_alg1 = ScenarioSystem(
    name="path-alg1",
    decide=Fold(frozenset(), lambda s, z: s | {z},
                lambda s: alg1_shortest_path(SCENE, s)),
    satisfies=lambda x, z: barrier_satisfied(SCENE, x, z),
    coords=_polyline_coords,
    satisfies_values=lambda x, thetas: barrier_satisfied_values(
        SCENE, x, thetas),
    decide_values=lambda thetas: alg1_shortest_path_values(SCENE, thetas),
)

path_system_alg2 = ScenarioSystem(
    name="path-alg2",
    decide=lambda vz: alg2_shortest_parabola(SCENE, vz),
    satisfies=lambda x, z: barrier_satisfied(SCENE, x, z),
    coords=lambda x: (x.height,),
    decide_values=lambda thetas: Parabola(alg2_binding(SCENE, thetas)[1]),
)


def _barrier_sample(rng: np.random.Generator) -> BarrierConstraint:
    theta = 0.0
    while theta <= 0.0 or theta >= math.pi:
        theta = float(rng.uniform(0.0, math.pi))
    return BarrierConstraint(theta)


def _barrier_sample_values(rng: np.random.Generator, n: int) -> np.ndarray:
    # The float64 array of the angles, as numpy draws them.  The scalar loop
    # draws at least one angle per barrier, so keeping the accepted draws
    # and drawing only the shortfall never reads past its stream position.
    thetas = rng.uniform(0.0, math.pi, size=n)
    while n and not (thetas.min() > 0.0 and thetas.max() < math.pi):
        import numpy as np

        kept = thetas[(thetas > 0.0) & (thetas < math.pi)]
        thetas = np.concatenate(
            (kept, rng.uniform(0.0, math.pi, size=n - len(kept))))
    return thetas


def _parabola_risk(x: PathDecision) -> float:
    if not isinstance(x, Parabola):
        raise ValueError("analytic risk only available for parabolas")
    return alg2_analytic_risk(x.height, SCENE.barrier_length)


# Uniform angle measure on (0, pi).  The analytic evaluator covers parabola
# decisions only (an exact geodesic risk is not implemented), so the
# registry pairs path-alg1 with this measure minus its evaluator.
uniform_barrier_distribution = ConstraintDistribution(
    sample=_barrier_sample, analytic_violation=_parabola_risk,
    sample_values=_barrier_sample_values, constraint_class=BarrierConstraint)
