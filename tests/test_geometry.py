"""The exact planar predicates: segment crossing with its bounding-box
pre-reject and its loud failure on borderline configurations, the splice
that serves every twist power, and the integer model data that keep all
of it exact."""

from fractions import Fraction as Fr

import pytest

from lanternbook.errors import InvariantViolation
from lanternbook import geometry
from lanternbook.geometry import (BASIS_LOOPS, CURVE_POLYGONS, CURVE_WORDS,
                                  crossing_word, segment_cross, splice)


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


def _cyclically_reduced(word):
    return all(x != -y for x, y in zip(word, word[1:] + word[:1]))


def test_splice_builds_both_signs_from_the_same_crossings():
    lines = (list(BASIS_LOOPS)
             + [arc for arc, _ in geometry.REFERENCE_ARCS.values()])
    for name, polygon in CURVE_POLYGONS.items():
        own = CURVE_WORDS[name]
        rotations = {own[i:] + own[:i] for i in range(len(own))}
        for line in lines:
            spliced = splice(line, polygon)
            # the pieces alone, with no loop put in, read the line itself
            assert sum(spliced[::2], ()) == crossing_word(line)
            for sign, loop in spliced[1::2]:
                assert sign in (1, -1)
                assert loop in rotations and _cyclically_reduced(loop)
    # a loop that misses the curve is one piece
    loop = BASIS_LOOPS[0]
    assert splice(loop, CURVE_POLYGONS["d"]) == [(1,)]
    assert crossing_word(loop) == (1,)


def test_the_geometry_stays_exact(monkeypatch):
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
    # a splice cuts its lines at Fraction crossing parameters and points,
    # never at a float
    hits = []

    def recording_cross(*segments):
        hit = segment_cross(*segments)
        if hit is not None:
            hits.append(hit)
        return hit

    monkeypatch.setattr(geometry, "segment_cross", recording_cross)
    for polygon in CURVE_POLYGONS.values():
        for line in spliced:
            splice(line, polygon)
    assert hits
    for t, point in hits:
        assert type(t) is Fr and all(type(x) in (int, Fr) for x in point)
    # "/" on two ints would give a float parameter
    t, point = segment_cross((0, 0), (2, 2), (0, 3), (3, 0))
    assert type(t) is Fr and t == Fr(3, 4) and point == (Fr(3, 2), Fr(3, 2))
