"""Planar primitive tests: membership, clipping, and the barrier predicate."""

import math

import pytest

from scenlab.geometry import (
    DegenerateGeometryError,
    clip_band,
    clip_halfplane,
    clip_polygon,
    cross,
    max_x_vertex,
    point_in_convex,
    points_equal,
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
