"""Exact-up-to-tolerance planar primitives for convex scenario programs.

All polygons are convex, counterclockwise, and stored as tuples of (x, y)
pairs.  Comparisons are made on the signed distances of
:func:`signed_edge_distance`, so robustness is tuned in one place.
:func:`clip_halfplane`, :func:`point_in_convex` and :func:`points_in_convex`
compute ``cross / length`` inline, with the line's length taken once, in
:func:`signed_edge_distance`'s operation order: each distance is the float
that function returns.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

Point = tuple[float, float]

POINT_TOL = 1e-9  # absolute tolerance for point equality and membership
CLIP_TOL = 1e-12  # distance within which clipping keeps or merges vertices
# Edges per numpy pass of points_in_convex: larger blocks were slower at the
# 2,049-vertex witness polygons (4,096 points), smaller ones cost more passes.
_EDGE_BLOCK = 32


class DegenerateGeometryError(Exception):
    """Raised when a construction degenerates below tolerance."""


def cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def points_equal(p: Point, q: Point, tol: float = POINT_TOL) -> bool:
    return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol


def coords_equal(a: Sequence[float], b: Sequence[float]) -> bool:
    """Decision equality on coordinate vectors: same length and every
    coordinate within ``POINT_TOL``."""
    return len(a) == len(b) and all(abs(p - q) <= POINT_TOL
                                    for p, q in zip(a, b))


def coords_key(a: Sequence[float]) -> tuple[int, ...]:
    """Hashable bucket of a coordinate vector on the ``POINT_TOL`` grid,
    used for distinct-decision counting alongside :func:`coords_equal`."""
    return tuple(round(c / POINT_TOL) for c in a)


def signed_edge_distance(a: Point, b: Point, p: Point) -> float:
    """Signed distance of p from the directed line a->b (positive = left)."""
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    if length == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    return cross(a, b, p) / length

def point_in_convex(poly: Sequence[Point], p: Point,
                    dist_tol: float = POINT_TOL) -> bool:
    """Closed membership test for a convex CCW polygon.

    ``dist_tol`` is the slack, in units of distance, allowed outside each
    edge; it must be >= 0.  Degenerate polygons (segments, points) are
    handled.  A zero-length edge is skipped: its :func:`signed_edge_distance`
    is a point distance, never below ``-dist_tol``.
    """
    if dist_tol < 0.0:
        raise ValueError("dist_tol must be >= 0")
    n = len(poly)
    if n == 0:
        return False
    if n == 1:
        return points_equal(poly[0], p, dist_tol)
    if n == 2:
        a, b = poly
        if abs(signed_edge_distance(a, b, p)) > dist_tol:
            return False
        t = _project_param(a, b, p)
        return -dist_tol <= t <= 1.0 + dist_tol
    px, py = p
    for i in range(n):
        (ax, ay), (bx, by) = poly[i - 1], poly[i]
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        if length and (dx * (py - ay) - dy * (px - ax)) / length < -dist_tol:
            return False
    return True


def points_in_convex(poly: Sequence[Point], xs: np.ndarray, ys: np.ndarray,
                     dist_tol: float) -> np.ndarray:
    """:func:`point_in_convex` of every point ``(xs[j], ys[j])``, as a bool
    array equal element for element to the scalar predicate.

    For three or more vertices this tabulates the edges (start point,
    direction, ``length`` from ``math.hypot`` as in
    :func:`signed_edge_distance`), skipping zero-length edges: their scalar
    distance is a point distance, never below ``-dist_tol``.  Then, for each
    block of ``_EDGE_BLOCK`` edges, it computes the (block x points)
    distances in place, in the scalar operation order, ``((ys - ay) * dx -
    (xs - ax) * dy) / length`` (products commute exactly), so each distance
    is the scalar float.  A point is outside an edge of the block iff the
    least of its distances is below ``-dist_tol``; ``np.fmin`` ignores NaN
    as the scalar comparison does (a NaN distance rejects nothing), where
    ``np.minimum`` would spread it.  Smaller polygons go through the scalar
    predicate.
    """
    import numpy as np

    if dist_tol < 0.0:
        raise ValueError("dist_tol must be >= 0")
    n = len(poly)
    if n < 3:
        return np.array([point_in_convex(poly, (x, y), dist_tol)
                         for x, y in zip(xs.tolist(), ys.tolist())],
                        dtype=bool)
    edges = []
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        if length:
            edges.append((ax, ay, dx, dy, length))
    inside = np.ones(len(xs), dtype=bool)
    if not edges:
        return inside
    # One column per table entry, shaped to broadcast against the points.
    ax, ay, dx, dy, length = np.array(edges).T[:, :, None]
    count = len(edges)
    dist = np.empty((min(_EDGE_BLOCK, count), len(xs)))
    term = np.empty_like(dist)
    for start in range(0, count, _EDGE_BLOCK):
        rows = slice(start, min(start + _EDGE_BLOCK, count))
        d, t = dist[:rows.stop - start], term[:rows.stop - start]
        np.subtract(ys, ay[rows], out=d)
        d *= dx[rows]
        np.subtract(xs, ax[rows], out=t)
        t *= dy[rows]
        d -= t
        d /= length[rows]
        inside &= ~(np.fmin.reduce(d, axis=0) < -dist_tol)
    return inside


def _project_param(a: Point, b: Point, p: Point) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return 0.0
    return ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / denom


def clip_halfplane(poly: Sequence[Point], a: Point,
                   b: Point) -> tuple[Point, ...]:
    """Clip a convex polygon by the halfplane left of the directed line a->b.

    Sutherland-Hodgman step; vertices within ``CLIP_TOL`` of the line are
    kept.  When the line cuts no vertex off, the step keeps every vertex and
    forms no crossing, so the deduplicated ring is returned without the loop.
    """
    if not poly:
        return ()
    tol = CLIP_TOL
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    length = math.hypot(dx, dy)
    if length == 0.0:
        dists = [signed_edge_distance(a, b, v) for v in poly]
    else:
        dists = [(dx * (vy - ay) - dy * (vx - ax)) / length for vx, vy in poly]
    if min(dists) >= -tol:
        return _dedupe(list(poly))
    out: list[Point] = []
    n = len(poly)
    for i in range(n):
        v_cur, v_nxt = poly[i], poly[(i + 1) % n]
        d_cur, d_nxt = dists[i], dists[(i + 1) % n]
        if d_cur >= -tol:
            out.append(v_cur)
        if (d_cur > tol and d_nxt < -tol) or (d_cur < -tol and d_nxt > tol):
            t = d_cur / (d_cur - d_nxt)
            out.append((v_cur[0] + t * (v_nxt[0] - v_cur[0]),
                        v_cur[1] + t * (v_nxt[1] - v_cur[1])))
    return _dedupe(out)


def _dedupe(points: list[Point]) -> tuple[Point, ...]:
    """Drop each vertex within ``CLIP_TOL`` of the one kept before it, then
    the last vertex for as long as it is within ``CLIP_TOL`` of the first.
    The ring returned is its own ``_dedupe``, which ``convex-vc``'s fold
    relies on when it skips a polygon it has clipped by."""
    out: list[Point] = []
    for p in points:
        if not out or not points_equal(out[-1], p, CLIP_TOL):
            out.append(p)
    while len(out) > 1 and points_equal(out[0], out[-1], CLIP_TOL):
        out.pop()
    return tuple(out)


def clip_polygon(subject: Sequence[Point],
                 clipper: Sequence[Point]) -> tuple[Point, ...]:
    """Intersect two convex CCW polygons by successive halfplane clipping."""
    region = tuple(subject)
    n = len(clipper)
    for i in range(n):
        region = clip_halfplane(region, clipper[i], clipper[(i + 1) % n])
        if not region:
            return ()
    return region


def clip_band(poly: Sequence[Point], y_min: float) -> tuple[Point, ...]:
    """Clip a convex polygon by the halfplane y >= y_min."""
    # Directed line with the halfplane on its left: x increasing at y = y_min.
    return clip_halfplane(poly, (0.0, y_min), (1.0, y_min))


def max_x_vertex(poly: Sequence[Point]) -> Point:
    """Vertex maximizing x, ties (x within ``POINT_TOL``) broken by larger y;
    a vertex within ``POINT_TOL`` of the current best never replaces it."""
    if not poly:
        raise DegenerateGeometryError("empty region")
    best = poly[0]
    for p in poly[1:]:
        if p[0] > best[0] + POINT_TOL or (
                p[0] >= best[0] - POINT_TOL and p[1] > best[1]
                and not points_equal(p, best)):
            best = p
    return best


def segments_conflict(p: Point, q: Point, tip: Point) -> bool:
    """True if closed segment p-q meets closed segment O-tip at any point
    other than ``tip`` (O is the origin).

    Used as the barrier-crossing predicate: grazing the barrier tip is
    allowed, any other contact (including a transversal pass through the
    barrier's base point O) blocks the segment.  Tolerances are ``POINT_TOL``.
    """
    tol = POINT_TOL
    d1 = (q[0] - p[0], q[1] - p[1])
    d2 = tip
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    len1 = math.hypot(*d1)
    len2 = math.hypot(*d2)
    if len2 == 0.0:
        raise ValueError("barrier tip coincides with the origin")
    if abs(denom) > tol * max(len1, 1.0) * max(len2, 1.0):
        # General position: p + t*d1 = s*d2.
        w = (-p[0], -p[1])
        t = (w[0] * d2[1] - w[1] * d2[0]) / denom
        s = (w[0] * d1[1] - w[1] * d1[0]) / denom
        t_tol = tol / max(len1, tol)
        s_tol = tol / len2
        if -t_tol <= t <= 1.0 + t_tol and -s_tol <= s <= 1.0 + s_tol:
            x = (p[0] + t * d1[0], p[1] + t * d1[1])
            return not points_equal(x, tip)
        return False
    # Parallel: conflict only if collinear and overlapping beyond the tip.
    if abs(d2[0] * p[1] - d2[1] * p[0]) / len2 > tol:
        return False
    sp = (p[0] * d2[0] + p[1] * d2[1]) / (len2 * len2)
    sq = (q[0] * d2[0] + q[1] * d2[1]) / (len2 * len2)
    lo, hi = min(sp, sq), max(sp, sq)
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if hi < lo - tol / len2:
        return False
    return lo < 1.0 - tol / len2

