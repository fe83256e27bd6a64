"""Exact-up-to-tolerance planar primitives for convex scenario programs.

All polygons are convex, counterclockwise, and stored as tuples of (x, y)
pairs.  Comparisons are routed through the signed-distance predicates below so
robustness is tuned in one place.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Point = tuple[float, float]

POINT_TOL = 1e-9  # absolute tolerance for point equality and membership


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
    edge.  Degenerate polygons (segments, points) are handled.
    """
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
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if signed_edge_distance(a, b, p) < -dist_tol:
            return False
    return True


def _project_param(a: Point, b: Point, p: Point) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return 0.0
    return ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / denom


def clip_halfplane(poly: Sequence[Point], a: Point, b: Point,
                   tol: float = 1e-12) -> tuple[Point, ...]:
    """Clip a convex polygon by the halfplane left of the directed line a->b.

    Sutherland-Hodgman step; vertices within ``tol`` of the line are kept.
    """
    if not poly:
        return ()
    out: list[Point] = []
    n = len(poly)
    dists = [signed_edge_distance(a, b, v) for v in poly]
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


def _dedupe(points: list[Point], tol: float = 1e-12) -> tuple[Point, ...]:
    out: list[Point] = []
    for p in points:
        if not out or not points_equal(out[-1], p, tol):
            out.append(p)
    if len(out) > 1 and points_equal(out[0], out[-1], tol):
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


def max_x_vertex(poly: Sequence[Point],
                 tol: float = POINT_TOL) -> tuple[Point, bool]:
    """Vertex maximizing x, ties (within tol) broken by larger y.

    Returns ``(vertex, tie_broken)`` where the flag records whether the
    defensive tie-break was exercised.
    """
    if not poly:
        raise DegenerateGeometryError("empty region")
    best = poly[0]
    tie = False
    for p in poly[1:]:
        if p[0] > best[0] + tol:
            best = p
            tie = False
        elif p[0] >= best[0] - tol and not points_equal(p, best, tol):
            tie = True
            if p[1] > best[1]:
                best = p
    return best, tie


def segments_conflict(p: Point, q: Point, tip: Point,
                      tol: float = POINT_TOL) -> bool:
    """True if closed segment p-q meets closed segment O-tip at any point
    other than ``tip`` (O is the origin).

    Used as the barrier-crossing predicate: grazing the barrier tip is
    allowed, any other contact (including a transversal pass through the
    barrier's base point O) blocks the segment.
    """
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
            return not points_equal(x, tip, tol)
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


def segment_conflicts(p: Point, q: Point, tips: np.ndarray,
                      tip_lengths: np.ndarray,
                      tol: float = POINT_TOL) -> np.ndarray:
    """:func:`segments_conflict` of the segment p-q against every row of the
    ``(n, 2)`` array ``tips``, whose Euclidean lengths are ``tip_lengths``.

    Both branches are evaluated with the scalar operation order and
    tolerances, lane by lane, and the general-position test picks one, so
    the result is bit-for-bit that of the scalar predicate.  Lanes of the
    branch not taken may divide by zero or overflow; those values are
    discarded.
    """
    if not tip_lengths.all():
        raise ValueError("barrier tip coincides with the origin")
    d1 = (q[0] - p[0], q[1] - p[1])
    tx, ty = tips[:, 0], tips[:, 1]
    len1 = math.hypot(*d1)
    len2 = tip_lengths
    with np.errstate(all="ignore"):
        denom = d1[0] * ty - d1[1] * tx
        general = np.abs(denom) > tol * max(len1, 1.0) * np.maximum(len2, 1.0)
        # General position: p + t*d1 = s*d2.
        w = (-p[0], -p[1])
        t = (w[0] * ty - w[1] * tx) / denom
        s = (w[0] * d1[1] - w[1] * d1[0]) / denom
        t_tol = tol / max(len1, tol)
        s_tol = tol / len2
        crosses = ((-t_tol <= t) & (t <= 1.0 + t_tol)
                   & (-s_tol <= s) & (s <= 1.0 + s_tol))
        grazes = ((np.abs(p[0] + t * d1[0] - tx) <= tol)
                  & (np.abs(p[1] + t * d1[1] - ty) <= tol))
        # Parallel: conflict only if collinear and overlapping beyond the tip.
        collinear = ~(np.abs(tx * p[1] - ty * p[0]) / len2 > tol)
        sp = (p[0] * tx + p[1] * ty) / (len2 * len2)
        sq = (q[0] * tx + q[1] * ty) / (len2 * len2)
        lo = np.maximum(np.minimum(sp, sq), 0.0)
        hi = np.minimum(np.maximum(sp, sq), 1.0)
        overlaps = ~(hi < lo - tol / len2) & (lo < 1.0 - tol / len2)
    return np.where(general, crosses & ~grazes, collinear & overlaps)
