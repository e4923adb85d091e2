"""Exact planar model of the four-holed sphere and the twist-curve splice.

The data are ``int``s on the 1/100 grid, scaled by ``SCALE``, and only a
crossing parameter is a ``fractions.Fraction``, so nothing needs a
tolerance.  The surface is the 2-sphere (the plane plus a point at
infinity) with four round holes removed (unscaled):

* holes centered at (1,0), (2,0), (3,0), (4,0), each of radius 1/4; the
  boundary circles are C1..C4.

A fixed *cut system* of three arcs lies on the x-axis between consecutive
holes::

    cut 1 : (5/4, 7/4) x {0}     (from C1 to C2)
    cut 2 : (9/4, 11/4) x {0}    (from C2 to C3)
    cut 3 : (13/4, 15/4) x {0}   (from C3 to C4)

Cutting along all three opens the surface into a single disk, a 12-gon
whose boundary cycle the engine module states.
A curve or arc drawn as a polyline is encoded by its *crossing word*: the
sequence of signed cut crossings read along it, ``+i`` for crossing cut i
downward (from y>0 to y<0) and ``-i`` for upward.  Crossings of the x-axis
outside the three cut intervals (left of C1, right of C4) cross no cut and
contribute nothing.

The module provides:

* exact segment/disk/polygon predicates with loud failures on any
  non-generic configuration (a vertex on the axis, a crossing at a cut
  endpoint, touching segments);
* the concrete model data: basepoint, three basis loops for the free
  fundamental group, one reference arc per boundary port, and polygon
  representatives of the eight twist curves, keyed by the generator that
  twists along each;
* ``splice``: a polyline's crossing word cut at its crossings with a
  twist curve, from one pass over them.  A power T^k of the twist inserts
  |k| copies of the curve at each transverse intersection (Farb-Margalit,
  *A Primer on Mapping Class Groups*, 3.1), in the direction that makes
  det(inserted tangent, object tangent) positive for a right twist and
  negative for a left twist.  This is exact on any transverse polyline
  representative; minimal position is never needed because the downstream
  consumers only read crossing words (free homotopy data), not geometric
  intersection counts.
"""

from __future__ import annotations

from fractions import Fraction as Fr

from .errors import InvariantViolation

# ----------------------------------------------------------------------
# fixed model constants
# ----------------------------------------------------------------------

SCALE = 100
RADIUS = SCALE // 4
RADIUS2 = RADIUS * RADIUS
HOLES = {k: (SCALE * k, 0) for k in (1, 2, 3, 4)}

# open x-intervals of the three cuts on the axis
CUTS = {i: (SCALE * i + RADIUS, SCALE * i + 3 * RADIUS) for i in (1, 2, 3)}
CUT_ENDPOINTS = sorted(x for lo_hi in CUTS.values() for x in lo_hi)


# ----------------------------------------------------------------------
# exact predicates
# ----------------------------------------------------------------------

def _det(ux, uy, vx, vy):
    return ux * vy - uy * vx


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def segment_clears_disk(p, q, center, allow_p=False, allow_q=False):
    """True iff the segment pq stays strictly outside the closed disk of
    radius RADIUS about ``center``, except that an endpoint may lie exactly
    on the circle when allowed (the segment must then leave the circle
    immediately, i.e. approach from strictly outside)."""
    d = _sub(q, p)
    w = _sub(p, center)
    A = _dot(d, d)
    B = 2 * _dot(d, w)
    C = _dot(w, w) - RADIUS2
    f0 = C                    # |p-center|^2 - r^2
    f1 = A + B + C            # |q-center|^2 - r^2
    if f0 < 0 or f1 < 0:
        return False
    if f0 == 0 and not (allow_p and B > 0):
        return False
    if f1 == 0 and not (allow_q and 2 * A + B < 0):
        return False
    if A == 0:
        return True
    # interior minimum of the quadratic f(t) = A t^2 + B t + C on (0,1)
    tstar_num = -B
    tstar_den = 2 * A
    if 0 < tstar_num < tstar_den:
        # f(t*) = C - B^2 / (4A); require > 0, or the touching point to be
        # one of the allowed endpoints (it is not, since 0 < t* < 1)
        if 4 * A * C - B * B <= 0:
            return False
    return True


def check_polyline_clears_holes(points, start_on=None, end_on=None):
    """Verify every segment of the polyline avoids all four hole disks.
    ``start_on``/``end_on`` name the hole whose circle the first/last point
    is allowed (and then required) to lie on."""
    for k, center in HOLES.items():
        for j in range(len(points) - 1):
            p, q = points[j], points[j + 1]
            ok = segment_clears_disk(
                p, q, center,
                allow_p=(j == 0 and start_on == k),
                allow_q=(j == len(points) - 2 and end_on == k))
            if not ok:
                raise InvariantViolation(
                    "polyline segment enters hole disk",
                    hole=k, segment=(str(p), str(q)))
    for which, idx, hole in (("start", 0, start_on), ("end", -1, end_on)):
        if hole is not None:
            w = _sub(points[idx], HOLES[hole])
            if _dot(w, w) != RADIUS2:
                raise InvariantViolation(
                    "polyline endpoint not on its boundary circle",
                    which=which, hole=hole, point=str(points[idx]))


def segment_cross(p, q, r, s):
    """Strict transverse crossing of open segments pq and rs.

    Returns ``(t, point)`` with ``point = p + t (q - p)`` when the two open
    segments cross transversally, ``None`` when they are disjoint, and
    raises on any borderline configuration (shared endpoint, endpoint on
    the other segment, collinear overlap) -- the model data must be generic
    and a borderline hit means it is not.

    Segments whose bounding boxes are strictly disjoint share no point, so
    they are rejected by comparisons alone; boxes that merely touch go on
    to the full test.
    """
    (px, py), (qx, qy), (rx, ry), (sx, sy) = p, q, r, s
    if (px < rx and px < sx and qx < rx and qx < sx) \
            or (rx < px and rx < qx and sx < px and sx < qx) \
            or (py < ry and py < sy and qy < ry and qy < sy) \
            or (ry < py and ry < qy and sy < py and sy < qy):
        return None
    d1 = _sub(q, p)
    d2 = _sub(s, r)
    o1 = _det(*d2, *_sub(p, r))
    o2 = _det(*d2, *_sub(q, r))
    o3 = _det(*d1, *_sub(r, p))
    o4 = _det(*d1, *_sub(s, p))
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return None
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return None
    if o1 == 0 or o2 == 0 or o3 == 0 or o4 == 0:
        # borderline: could still be disjoint (parallel, or collinear on
        # disjoint intervals)
        denom = _det(*d1, *d2)
        if denom == 0:
            if o1 != 0:
                return None  # parallel, not collinear
            axis = 0 if d1[0] != 0 else 1
            lo1, hi1 = sorted((p[axis], q[axis]))
            lo2, hi2 = sorted((r[axis], s[axis]))
            if hi1 < lo2 or hi2 < lo1:
                return None  # collinear, strictly separated
        raise InvariantViolation(
            "non-generic segment configuration",
            seg1=(str(p), str(q)), seg2=(str(r), str(s)))
    # Fraction(num, den), not num / den: on ints "/" gives a float
    t = Fr(_det(*_sub(r, p), *d2), _det(*d1, *d2))
    point = (p[0] + t * d1[0], p[1] + t * d1[1])
    return t, point


def polygon_is_simple(K):
    """Exact embeddedness check for a closed polygon (vertex list)."""
    n = len(K)
    edges = [(K[i], K[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share exactly a vertex
            if segment_cross(*edges[i], *edges[j]) is not None:
                return False
    return True


# ----------------------------------------------------------------------
# crossing words
# ----------------------------------------------------------------------

def _axis_crossing(p, q):
    """If segment pq crosses the x-axis strictly, return (x, direction)
    with direction +1 for downward, else None.  Vertices on the axis are
    non-generic and rejected by the caller."""
    y0, y1 = p[1], q[1]
    if (y0 > 0 > y1) or (y0 < 0 < y1):
        t = Fr(y0, y0 - y1)
        return p[0] + t * (q[0] - p[0]), (+1 if y0 > 0 else -1)
    return None


def crossing_word(points, closed=False):
    """Read the signed cut-crossing sequence along a polyline.

    Asserts genericity: no vertex on the axis, no crossing at a cut
    endpoint.  Axis crossings outside every cut interval are legitimate
    (they happen left of C1 / right of C4) and contribute no letter.
    """
    pts = list(points) + ([points[0]] if closed else [])
    word = []
    for p in pts:
        if p[1] == 0:
            raise InvariantViolation("polyline vertex on the axis",
                                     point=str(p))
    for j in range(len(pts) - 1):
        hit = _axis_crossing(pts[j], pts[j + 1])
        if hit is None:
            continue
        x, direction = hit
        if x in CUT_ENDPOINTS:
            raise InvariantViolation("axis crossing at a cut endpoint",
                                     x=str(x))
        for i, (lo, hi) in CUTS.items():
            if lo < x < hi:
                word.append(direction * i)
                break
    return tuple(word)


# ----------------------------------------------------------------------
# the splice: Dehn twist acting on a polyline
# ----------------------------------------------------------------------

def splice(points, polygon):
    """The polyline's crossing word cut at each crossing with the curve
    ``polygon``: ``[word, (sign, loop), word, ..., word]``.  ``loop`` is
    the curve's crossing word read once around from the crossing z, and
    ``sign`` is +1 when det(curve tangent, polyline tangent) > 0 at z, the
    direction in which a right twist inserts it, so T^k (k < 0 for left
    twists) puts loop^(k*sign) in at every crossing.  The crossings do not
    depend on k, so they are found (and asserted generic) once for every
    power.  Endpoints never move.
    """
    n = len(polygon)
    edges = [(polygon[i], polygon[(i + 1) % n]) for i in range(n)]
    out, piece = [], [points[0]]
    for j in range(len(points) - 1):
        p, q = points[j], points[j + 1]
        hits = []
        for ei, (r, s) in enumerate(edges):
            res = segment_cross(p, q, r, s)
            if res is not None:
                t, z = res
                hits.append((t, ei, z))
        hits.sort(key=lambda h: h[0])
        for idx in range(len(hits) - 1):
            if hits[idx][0] == hits[idx + 1][0]:
                raise InvariantViolation("coincident splice points")
        d_obj = _sub(q, p)
        for t, ei, z in hits:
            if z[1] == 0:
                raise InvariantViolation("splice point on the axis",
                                         point=str(z))
            r, s = edges[ei]
            orient = _det(*_sub(s, r), *d_obj)
            if orient == 0:
                raise InvariantViolation("tangential splice")
            loop = [z] + [polygon[(ei + 1 + k) % n] for k in range(n)] + [z]
            out += [crossing_word(piece + [z]),
                    (1 if orient > 0 else -1, crossing_word(loop))]
            piece = [z]
        piece.append(q)
    out.append(crossing_word(piece))
    return out


# ----------------------------------------------------------------------
# model data
# ----------------------------------------------------------------------

def _pts(*coords):
    """The points with each coordinate (an int or a fraction string) scaled
    by SCALE to an int; a point off the 1/SCALE grid is refused."""
    scaled = [(Fr(x) * SCALE, Fr(y) * SCALE) for x, y in coords]
    if any(v.denominator != 1 for point in scaled for v in point):
        raise InvariantViolation("model point off the grid", points=coords)
    return [(x.numerator, y.numerator) for x, y in scaled]


# basepoint: top of C1
BASEPOINT = _pts((1, "1/4"))[0]

# Basis loops for the free fundamental group at the basepoint, given with
# their crossing words.  The group is free on t1, t2, t3 where t_i is the
# class whose crossing word is the single letter +i; the loops below have
# words [+1], [+1,-2], [+2,-3], from which the images of t1, t2, t3 under
# any twist are recovered by the engine.
BASIS_LOOPS = [
    _pts((1, "1/4"), ("3/2", "9/20"), ("3/2", "-9/20"), ("1/2", "-9/20"),
         ("1/2", "9/20"), (1, "1/4")),
    _pts((1, "1/4"), ("3/2", "9/20"), ("3/2", "-9/20"), ("5/2", "-9/20"),
         ("5/2", "9/20"), (1, "1/4")),
    _pts((1, "1/4"), ("5/2", "9/20"), ("5/2", "-9/20"), ("7/2", "-9/20"),
         ("7/2", "9/20"), (1, "1/4")),
]
BASIS_LOOP_WORDS = [(1,), (1, -2), (2, -3)]

# One reference arc per port, from the basepoint to a point of that port,
# each with EMPTY crossing word (asserted at build time).  The arc images
# under a twist give the port correction words of the twist's table.
REFERENCE_ARCS = {
    "P1": (_pts((1, "1/4"), ("51/50", "8/25"), ("28/25", "29/100"),
                ("23/20", "1/5")), 1),
    "P2a": (_pts((1, "1/4"), ("3/2", "9/20"), (2, "1/4")), 2),
    "P2b": (_pts((1, "1/4"), ("1/2", "9/20"), ("1/2", "-9/20"),
                 (2, "-9/20"), (2, "-1/4")), 2),
    "P3a": (_pts((1, "1/4"), ("5/2", "9/20"), (3, "1/4")), 3),
    "P3b": (_pts((1, "1/4"), ("1/2", "9/20"), ("1/2", "-11/20"),
                 (3, "-11/20"), (3, "-1/4")), 3),
    "P4": (_pts((1, "1/4"), ("6/5", "31/50"), ("19/5", "31/50"),
                (4, "1/4")), 4),
}

# Twist-curve polygons.  a,b,c,d are boundary-parallel boxes; e separates
# {C1,C2} from {C3,C4}; f separates {C2,C3} from {C1,C4}; g and h are the
# two {C1,C3}-separating dumbbells, with the neck passing below / above
# C2.  That naming is the one under which the lantern relations
# g e f = h f e = a b c d hold, which every model build certifies.
CURVE_POLYGONS = {
    "a": _pts(("133/100", "33/100"), ("67/100", "33/100"),
              ("67/100", "-33/100"), ("133/100", "-33/100")),
    "b": _pts(("233/100", "33/100"), ("167/100", "33/100"),
              ("167/100", "-33/100"), ("233/100", "-33/100")),
    "c": _pts(("333/100", "33/100"), ("267/100", "33/100"),
              ("267/100", "-33/100"), ("333/100", "-33/100")),
    "d": _pts(("433/100", "33/100"), ("367/100", "33/100"),
              ("367/100", "-33/100"), ("433/100", "-33/100")),
    "e": _pts(("27/10", "4/5"), ("3/10", "4/5"),
              ("3/10", "-4/5"), ("27/10", "-4/5")),
    "f": _pts(("37/10", "3/5"), ("13/10", "3/5"),
              ("13/10", "-3/5"), ("37/10", "-3/5")),
    "g": _pts(("11/20", "-23/50"), ("11/20", "19/50"), ("29/20", "19/50"),
              ("29/20", "-9/25"), ("51/20", "-9/25"), ("51/20", "19/50"),
              ("69/20", "19/50"), ("69/20", "-23/50")),
    "h": _pts(("11/20", "23/50"), ("11/20", "-19/50"), ("29/20", "-19/50"),
              ("29/20", "9/25"), ("51/20", "9/25"), ("51/20", "-19/50"),
              ("69/20", "-19/50"), ("69/20", "23/50")),
}

# own crossing words of the curve polygons, as listed (documentation and
# build-time assertion; the letters also show which holes each separates)
CURVE_WORDS = {
    "a": (-1,), "b": (1, -2), "c": (2, -3), "d": (3,),
    "e": (-2,), "f": (1, -3), "g": (1, -2, 3), "h": (-1, 2, -3),
}


def classify_endpoint_port(point):
    """Port containing a point that lies on one of the boundary circles."""
    for k, center in HOLES.items():
        w = _sub(point, center)
        if _dot(w, w) == RADIUS2:
            if point[1] == 0:
                raise InvariantViolation("endpoint at a cut endpoint",
                                         point=str(point))
            if k == 1:
                return "P1"
            if k == 4:
                return "P4"
            return "P%d%s" % (k, "a" if point[1] > 0 else "b")
    raise InvariantViolation("endpoint not on any boundary circle",
                             point=str(point))


def validate_model_data():
    """Construction-time certification of the raw geometric data: curve
    polygons are embedded and avoid the holes; basis loops and reference
    arcs avoid the holes, have the documented crossing words, and end on
    the documented circles/ports."""
    for name, K in CURVE_POLYGONS.items():
        if not polygon_is_simple(K):
            raise InvariantViolation("curve polygon not embedded",
                                     curve=name)
        check_polyline_clears_holes(K + [K[0]])
        if crossing_word(K, closed=True) != CURVE_WORDS[name]:
            raise InvariantViolation("curve crossing word mismatch",
                                     curve=name)
    for loop, expected in zip(BASIS_LOOPS, BASIS_LOOP_WORDS):
        if loop[0] != BASEPOINT or loop[-1] != BASEPOINT:
            raise InvariantViolation("basis loop not based at basepoint")
        check_polyline_clears_holes(loop, start_on=1, end_on=1)
        if crossing_word(loop) != expected:
            raise InvariantViolation("basis loop crossing word mismatch",
                                     expected=expected)
    for port, (arc, hole) in REFERENCE_ARCS.items():
        if arc[0] != BASEPOINT:
            raise InvariantViolation("reference arc not at basepoint",
                                     port=port)
        check_polyline_clears_holes(arc, start_on=1, end_on=hole)
        if crossing_word(arc) != ():
            raise InvariantViolation("reference arc crosses a cut",
                                     port=port)
        if classify_endpoint_port(arc[-1]) != port:
            raise InvariantViolation("reference arc ends in wrong port",
                                     port=port)
