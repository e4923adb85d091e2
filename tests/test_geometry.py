"""The exact planar predicates: segment crossing with its bounding-box
pre-reject and its loud failure on borderline configurations, the
two-sided splice, and the integer model data that keep all of it exact."""

from fractions import Fraction as Fr

import pytest

from lanternbook.errors import InvariantViolation
from lanternbook import geometry
from lanternbook.geometry import (BASIS_LOOPS, CURVE_POLYGONS, crossing_word,
                                  segment_cross, splice)


def _seg(*coords):
    return [(Fr(x), Fr(y)) for x, y in coords]


def test_segment_cross_finds_a_transverse_crossing():
    t, point = segment_cross(*_seg((0, 0), (2, 2), (0, 2), (2, 0)))
    assert t == Fr(1, 2) and point == (1, 1)


def test_segment_cross_rejects_disjoint_boxes():
    assert segment_cross(*_seg((0, 0), (1, 1), (2, 0), (3, 1))) is None
    assert segment_cross(*_seg((0, 0), (1, 0), (2, 0), (3, 0))) is None
    assert segment_cross(*_seg((0, 0), (0, 1), (5, -3), (1, 2))) is None


def test_segment_cross_decides_touching_boxes_by_the_full_test():
    # boxes share the corner (1, 0) but the segments are disjoint
    assert segment_cross(*_seg((0, 0), (1, 1), (1, 0), (2, -1))) is None


def test_segment_cross_raises_on_borderline_pairs_with_touching_boxes():
    borderline = [
        _seg((0, 0), (2, 0), (1, 0), (1, 1)),    # axis-aligned T-junction
        _seg((1, 0), (1, 1), (0, 0), (2, 0)),    # the same, swapped
        _seg((0, 0), (1, 1), (1, 1), (2, 0)),    # shared endpoint
        _seg((0, 0), (1, 0), (1, 0), (2, 0)),    # collinear, end to end
    ]
    for segments in borderline:
        with pytest.raises(InvariantViolation, match="non-generic"):
            segment_cross(*segments)


def test_splice_builds_both_signs_from_the_same_crossings():
    for polygon in CURVE_POLYGONS.values():
        for loop in BASIS_LOOPS:
            right, left = splice(loop, polygon)
            assert right[0] == left[0] == loop[0]
            assert right[-1] == left[-1] == loop[-1]
            # one inserted copy of the polygon (plus the doubled splice
            # point) per crossing, whichever way it is traversed
            assert len(right) == len(left)
            assert (len(right) - len(loop)) % (len(polygon) + 2) == 0
    # a loop that misses the curve is left as it is by both twists
    loop = BASIS_LOOPS[0]
    assert splice(loop, CURVE_POLYGONS["d"]) == (loop, loop)
    assert crossing_word(loop) == (1,)


def test_the_geometry_stays_exact():
    # the model data are ints on the 1/100 grid
    spliced = (list(BASIS_LOOPS)
               + [arc for arc, _ in geometry.REFERENCE_ARCS.values()])
    points = [pt for line in spliced + list(CURVE_POLYGONS.values())
              for pt in line]
    points += [geometry.BASEPOINT, *geometry.HOLES.values(),
               *geometry.CUTS.values(), (geometry.RADIUS, geometry.RADIUS2)]
    assert all(type(x) is int for pt in points for x in pt)
    with pytest.raises(InvariantViolation, match="grid"):
        geometry._pts((1, "1/3"))
    # a splice adds Fraction crossing points, never a float
    for polygon in CURVE_POLYGONS.values():
        for line in spliced:
            for image in splice(line, polygon):
                assert all(type(x) in (int, Fr) for pt in image for x in pt)
    # "/" on two ints would give a float parameter
    t, point = segment_cross((0, 0), (2, 2), (0, 3), (3, 0))
    assert type(t) is Fr and t == Fr(3, 4) and point == (Fr(3, 2), Fr(3, 2))
