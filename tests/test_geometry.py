"""Planar primitive tests: membership, clipping, and the barrier predicate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenlab.counterexamples import sigma_polygon, tau
from scenlab.geometry import (
    CLIP_TOL,
    POINT_TOL,
    DegenerateGeometryError,
    _dedupe,
    _project_param,
    clip_band,
    clip_halfplane,
    clip_polygon,
    cross,
    max_x_vertex,
    point_in_convex,
    points_equal,
    points_in_convex,
    segments_conflict,
    signed_edge_distance,
)

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_cross_orientation():
    assert cross((0, 0), (1, 0), (0, 1)) == 1.0
    assert cross((0, 0), (0, 1), (1, 0)) == -1.0
    assert cross((0, 0), (1, 0), (2, 0)) == 0.0


def test_signed_edge_distance_sign_and_magnitude():
    assert signed_edge_distance((0, 0), (2, 0), (1, 3)) == pytest.approx(3.0)
    assert signed_edge_distance((0, 0), (2, 0), (1, -3)) == pytest.approx(-3.0)
    # Degenerate edge falls back to point distance.
    assert signed_edge_distance((1, 1), (1, 1), (4, 5)) == pytest.approx(5.0)


def test_point_in_convex_square():
    assert point_in_convex(SQUARE, (0.5, 0.5))
    assert point_in_convex(SQUARE, (1.0, 1.0))          # vertex
    assert point_in_convex(SQUARE, (1.0, 0.5))          # edge
    assert not point_in_convex(SQUARE, (1.1, 0.5))
    assert point_in_convex(SQUARE, (1.0 + 1e-12, 0.5))  # within tolerance


def test_point_in_convex_degenerate():
    assert not point_in_convex((), (0.0, 0.0))
    assert point_in_convex(((1.0, 2.0),), (1.0, 2.0))
    assert not point_in_convex(((1.0, 2.0),), (1.0, 2.1))
    seg = ((0.0, 0.0), (2.0, 0.0))
    assert point_in_convex(seg, (1.0, 0.0))
    assert not point_in_convex(seg, (3.0, 0.0))
    assert not point_in_convex(seg, (1.0, 0.5))


def convex_hull(points):
    """CCW hull by the monotone chain, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]
    return tuple(half(pts) + half(pts[::-1]))


@st.composite
def polygon_cases(draw, max_m=10):
    """(polygon, probe seed): sigma polygons sigma(m, i) for m <= max_m,
    random hulls (some on a coarse grid), 0 to 2 vertices, each possibly
    with a repeated vertex."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(("sigma", "hull", "grid-hull", "small")))
    if kind == "sigma":
        m = draw(st.integers(min_value=1, max_value=max_m))
        poly = sigma_polygon(m, draw(st.integers(min_value=1, max_value=m)))
    elif kind == "small":
        n = draw(st.integers(min_value=0, max_value=2))
        poly = tuple(map(tuple, rng.uniform(-1, 1, (n, 2)).tolist()))
    else:
        raw = rng.uniform(-2, 2, (draw(st.integers(3, 24)), 2))
        if kind == "grid-hull":
            raw = np.round(raw * 2) / 2
        poly = convex_hull(map(tuple, raw.tolist()))
    if poly and draw(st.booleans()):  # a zero-length edge
        j = draw(st.integers(min_value=0, max_value=len(poly) - 1))
        poly = poly[:j + 1] + poly[j:]
    return poly, seed


def probe_points(poly, seed, edges=8):
    """Random points, arc points, and for a sample of ``edges`` vertices and
    edges: the vertex, points on the edge, and points just outside its
    midpoint by fractions and multiples of each nonzero tolerance."""
    rng = np.random.default_rng(seed)
    pts = list(map(tuple, rng.uniform(-2.5, 2.5, (40, 2)).tolist()))
    pts += [tau(frozenset(i + 1 for i in range(10) if mask >> i & 1))
            for mask in rng.integers(0, 1 << 10, 16).tolist()]
    n = len(poly)
    for j in rng.permutation(n)[:edges].tolist():
        a, b = poly[j], poly[(j + 1) % n]
        dx, dy = b[0] - a[0], b[1] - a[1]
        pts.append(a)
        pts += [(a[0] + t * dx, a[1] + t * dy)
                for t in [0.5] + rng.uniform(0, 1, 2).tolist()]
        length = math.hypot(dx, dy)
        if length:
            mx, my = a[0] + dx / 2, a[1] + dy / 2
            pts += [(mx + f * tol * dy / length, my - f * tol * dx / length)
                    for tol in (1e-15, POINT_TOL)
                    for f in (0.5, 1.0, 1.5, 3.0)]
    return pts


def assert_points_in_convex_matches_scalar(poly, pts):
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    for tol in (0.0, 1e-15, POINT_TOL):
        got = points_in_convex(poly, xs, ys, tol)
        assert got.dtype == bool and got.shape == (len(pts),)
        assert got.tolist() == [point_in_convex(poly, p, tol) for p in pts]


@settings(deadline=None, max_examples=60)
@given(polygon_cases())
def test_points_in_convex_matches_scalar(case):
    poly, seed = case
    assert_points_in_convex_matches_scalar(poly, probe_points(poly, seed))


def regular_polygon(n):
    return tuple((math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
                 for j in range(n))


def repeat_vertex(poly, j):
    """``poly`` with vertex j doubled: edge j has length zero."""
    return poly[:j + 1] + poly[j:]


@pytest.mark.parametrize("poly", [
    *(regular_polygon(n) for n in (31, 32, 33, 64, 65)),
    repeat_vertex(regular_polygon(40), 31),
    repeat_vertex(regular_polygon(40), 32),
], ids=["31", "32", "33", "64", "65", "zero-edge-31", "zero-edge-32"])
def test_points_in_convex_matches_scalar_across_edge_blocks(poly):
    # points_in_convex takes its edges 32 at a time; hypothesis hulls have at
    # most 24 vertices, so these polygons put edges on both sides of a block
    # boundary.  Every edge is probed, so each edge alone rejects some probe.
    assert_points_in_convex_matches_scalar(
        poly, probe_points(poly, 0, edges=len(poly)))


def own_tolerance_probes(a, b, offsets):
    """(point, tolerance) pairs just outside edge a->b: tolerance minus the
    scalar distance (inside) and one ulp less (outside)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = math.hypot(dx, dy)
    for off in offsets:
        p = (a[0] + dx / 2 + off * dy / length,
             a[1] + dy / 2 - off * dx / length)
        d = signed_edge_distance(a, b, p)
        if d < 0.0:
            yield p, -d
            yield p, -math.nextafter(d, 0.0)


@settings(deadline=None, max_examples=60)
@given(polygon_cases(max_m=6))
def test_points_in_convex_at_a_tolerance_equal_to_the_distance(case):
    # Points just outside one edge, each tested at a tolerance equal to minus
    # its scalar distance (inside) and one ulp smaller (outside): a distance
    # off by one ulp in either direction flips one of the two.
    poly, seed = case
    rng = np.random.default_rng(seed)
    n = len(poly)
    for j in rng.permutation(n)[:16].tolist():
        a, b = poly[j], poly[(j + 1) % n]
        if n < 3 or a == b:
            continue
        for p, tol in own_tolerance_probes(a, b, rng.uniform(1e-16, 1e-10, 4)):
            got = points_in_convex(poly, np.array([p[0]]), np.array([p[1]]),
                                   tol)
            assert got.tolist() == [point_in_convex(poly, p, tol)]


def test_points_in_convex_takes_edge_lengths_from_math_hypot():
    # Edges whose np.hypot length differs from math.hypot in the last bit,
    # each closed into a triangle by an apex well inside.
    rng = np.random.default_rng(0)
    edges = []
    while len(edges) < 20:
        a, b = map(tuple, rng.uniform(-2, 2, (2, 2)).tolist())
        dx, dy = b[0] - a[0], b[1] - a[1]
        if float(np.hypot(dx, dy)) != math.hypot(dx, dy):
            edges.append((a, b))
    flips = 0
    for a, b in edges:
        dx, dy = b[0] - a[0], b[1] - a[1]
        apex = (a[0] + dx / 2 - dy, a[1] + dy / 2 + dx)
        poly = (a, b, apex)
        for p, tol in own_tolerance_probes(a, b, rng.uniform(1e-16, 1e-10, 8)):
            want = point_in_convex(poly, p, tol)
            flips += not want
            got = points_in_convex(poly, np.array([p[0]]), np.array([p[1]]),
                                   tol)
            assert got.tolist() == [want]
    assert flips >= 20


def test_points_in_convex_edge_cases():
    xs, ys = np.array([0.5, 1.0, 1.1, 1.0 + 1e-12]), np.array([0.5] * 4)
    assert points_in_convex(SQUARE, xs, ys, POINT_TOL).tolist() \
        == [True, True, False, True]
    assert points_in_convex(SQUARE, xs, ys, 0.0).tolist() \
        == [True, True, False, False]
    assert points_in_convex((), xs, ys, 0.0).tolist() == [False] * 4
    assert points_in_convex(SQUARE, np.array([]), np.array([]), 0.0).size == 0
    # At x = inf the horizontal edges' distances are NaN (0 * inf), which
    # rejects nothing, while the right edge's is -inf: the point is outside,
    # as the scalar test says, only if the block minimum skips the NaN.
    with np.errstate(invalid="ignore"):
        got = points_in_convex(SQUARE, np.array([math.inf]), np.array([0.5]),
                               0.0)
    assert got.tolist() == [point_in_convex(SQUARE, (math.inf, 0.5), 0.0)] \
        == [False]
    with pytest.raises(ValueError):
        points_in_convex(SQUARE, xs, ys, -1e-9)


# ---------------------------------------------------------------------------
# The scalar forms that clip_halfplane and point_in_convex replaced, kept as
# references: every distance from signed_edge_distance, and no early return
# ---------------------------------------------------------------------------


def point_in_convex_by_distances(poly, p, dist_tol=POINT_TOL):
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


def clip_halfplane_by_distances(poly, a, b):
    if not poly:
        return ()
    tol = CLIP_TOL
    out = []
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


def clip_polygon_by_distances(subject, clipper):
    region = tuple(subject)
    n = len(clipper)
    for i in range(n):
        region = clip_halfplane_by_distances(region, clipper[i],
                                             clipper[(i + 1) % n])
        if not region:
            return ()
    return region


def hexed_ring(poly):
    return [(float.hex(x), float.hex(y)) for x, y in poly]


@st.composite
def clip_cases(draw):
    """(polygon, line a, line b): the polygons of ``polygon_cases``, some
    with a vertex repeated within ``CLIP_TOL`` (merged by ``_dedupe``), cut
    by a random line, an edge's own line either way, a line within a
    multiple of ``CLIP_TOL`` of a vertex, or a zero-length line."""
    poly, seed = draw(polygon_cases())
    rng = np.random.default_rng(seed)
    if poly and draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=len(poly) - 1))
        near = tuple(c + f * CLIP_TOL
                     for c, f in zip(poly[j], rng.uniform(-1, 1, 2).tolist()))
        poly = poly[:j + 1] + (near,) + poly[j + 1:]
    kind = draw(st.sampled_from(("random", "edge", "vertex", "zero")))
    if kind == "random" or not poly:
        a, b = map(tuple, rng.uniform(-2, 2, (2, 2)).tolist())
    elif kind == "zero":
        a = b = poly[draw(st.integers(0, len(poly) - 1))]
    elif kind == "edge":
        j = draw(st.integers(0, len(poly) - 1))
        a, b = poly[j], poly[(j + 1) % len(poly)]
        if draw(st.booleans()):
            a, b = b, a
    else:
        v = poly[draw(st.integers(0, len(poly) - 1))]
        angle = rng.uniform(0, 2 * math.pi)
        ux, uy = math.cos(angle), math.sin(angle)
        off = draw(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)))
        a = (v[0] - off * CLIP_TOL * uy, v[1] + off * CLIP_TOL * ux)
        b = (a[0] + ux, a[1] + uy)
    return poly, a, b


@settings(deadline=None, max_examples=300)
@given(clip_cases())
def test_clip_halfplane_equals_the_loop_over_signed_edge_distances(case):
    poly, a, b = case
    assert hexed_ring(clip_halfplane(poly, a, b)) == \
        hexed_ring(clip_halfplane_by_distances(poly, a, b))


@settings(deadline=None, max_examples=60)
@given(polygon_cases(), polygon_cases())
def test_clip_polygon_equals_the_loop_over_signed_edge_distances(subject,
                                                                 clipper):
    (subject, _), (clipper, _) = subject, clipper
    assert hexed_ring(clip_polygon(subject, clipper)) == \
        hexed_ring(clip_polygon_by_distances(subject, clipper))


@settings(deadline=None, max_examples=60)
@given(polygon_cases())
def test_point_in_convex_equals_the_loop_over_signed_edge_distances(case):
    poly, seed = case
    for p in probe_points(poly, seed):
        for tol in (0.0, 1e-15, POINT_TOL):
            assert point_in_convex(poly, p, tol) == \
                point_in_convex_by_distances(poly, p, tol)


def test_point_in_convex_rejects_a_negative_tolerance():
    # Skipping a zero-length edge is exact only for dist_tol >= 0: its
    # distance from p is never below -dist_tol.
    for poly in ((), ((0.0, 0.0),), SQUARE, SQUARE[:1] + SQUARE):
        with pytest.raises(ValueError):
            point_in_convex(poly, (0.0, 0.0), -1e-9)


@st.composite
def near_rings(draw):
    """Points on a ``CLIP_TOL / 2`` grid around the unit square's corners,
    then a run around the first point: neighbours, and the run's points,
    within ``CLIP_TOL`` of one another and of the first point or not."""
    step = CLIP_TOL / 2
    ring = [(x + k * step, y) for (x, y), k in draw(st.lists(
        st.tuples(st.sampled_from(SQUARE), st.integers(-2, 2)), max_size=6))]
    if ring:
        ring += [(ring[0][0] + k * step, ring[0][1])
                 for k in draw(st.lists(st.integers(-2, 2), max_size=3))]
    return ring


@settings(deadline=None, max_examples=300)
@given(near_rings())
@example([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1e-12, 0.0), (1e-12, 0.0)])
def test_dedupe_returns_its_own_output_unchanged(ring):
    # A region clipped again by a polygon it was clipped by keeps its
    # vertices and goes through _dedupe once more (convex-vc's fold skips
    # that clip), so _dedupe must be idempotent.
    once = _dedupe(ring)
    assert _dedupe(list(once)) == once


def test_clip_halfplane_square():
    # Keep the halfplane x <= 0.5 (left of the upward-directed line x = 0.5).
    out = clip_halfplane(SQUARE, (0.5, 0.0), (0.5, 1.0))
    assert set(out) == {(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0)}
    # Clipping away everything gives the empty region (keep x >= 2).
    assert clip_halfplane(SQUARE, (2.0, 1.0), (2.0, 0.0)) == ()


def test_clip_polygon_overlap():
    other = ((0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5))
    region = clip_polygon(SQUARE, other)
    assert set(region) == {(0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0)}
    far = ((5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0))
    assert clip_polygon(SQUARE, far) == ()


def test_clip_band_keeps_upper_part():
    region = clip_band(SQUARE, 0.25)
    assert all(y >= 0.25 - 1e-12 for _, y in region)
    assert set(region) == {(0.0, 0.25), (1.0, 0.25), (1.0, 1.0), (0.0, 1.0)}
    assert clip_band(SQUARE, 2.0) == ()


def test_max_x_vertex_and_tie_break():
    # Two vertices share x = 1; the larger y wins.
    assert max_x_vertex(SQUARE) == (1.0, 1.0)
    assert max_x_vertex(((0.0, 0.0), (2.0, 0.5), (0.0, 1.0))) == (2.0, 0.5)
    # x within POINT_TOL is a tie, broken by y even if x is slightly smaller.
    assert max_x_vertex(((1.0, 0.0), (1.0 - 5e-10, 0.5))) == (1.0 - 5e-10, 0.5)
    # A vertex within POINT_TOL of the current best never replaces it.
    assert max_x_vertex(((1.0, 0.0), (1.0, 5e-10))) == (1.0, 0.0)
    with pytest.raises(DegenerateGeometryError):
        max_x_vertex(())


TIP = (0.0, 0.5)  # vertical barrier of length 0.5 from the origin


def test_segments_conflict_transversal():
    assert segments_conflict((-1.0, 0.25), (1.0, 0.25), TIP)
    assert not segments_conflict((-1.0, 0.75), (1.0, 0.75), TIP)


def test_segments_conflict_through_origin_blocks():
    assert segments_conflict((-1.0, 0.0), (1.0, 0.0), TIP)


def test_segments_conflict_tip_grazing_allowed():
    assert not segments_conflict((-1.0, 0.0), TIP, TIP)
    assert not segments_conflict((-1.0, 1.0), (1.0, 0.0), TIP)  # crosses at tip


def test_segments_conflict_collinear():
    # Overlapping the barrier's interior blocks...
    assert segments_conflict((0.0, 0.1), (0.0, 0.4), TIP)
    # ... but the collinear continuation beyond the tip does not.
    assert not segments_conflict((0.0, 0.5), (0.0, 2.0), TIP)
    # Parallel but offset never conflicts.
    assert not segments_conflict((0.1, 0.0), (0.1, 1.0), TIP)


def test_points_equal_tolerance():
    assert points_equal((0.0, 0.0), (1e-10, -1e-10))
    assert not points_equal((0.0, 0.0), (1e-8, 0.0))
