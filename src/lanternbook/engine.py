"""Exact arc engine for the four-holed sphere.

Cutting the surface along the three cut arcs of the planar model opens
it into a single 12-gon, so a properly embedded arc is described exactly
by its start port, its freely reduced sequence of signed cut crossings,
and its end port.  Every freely reduced sequence is realizable, and the
reduced triple is a complete isotopy invariant rel endpoints.

**Twist action.**  A mapping class is recorded by its *action data*: the
images of the three one-crossing loop classes t1, t2, t3 (a free basis of
the fundamental group based at the top of C1) plus, for each of the six
ports, the crossing word of the image of a fixed reference arc running
from the basepoint to that port.  The data of a power T^k of one twist
are read off the planar model: each basis loop and reference arc is cut
once at its crossings with the twist curve, and T^k puts in |k| copies
of the curve at each, so a power costs the size of its data; composite
words compose the data algebraically.  The image of the arc (s, u, t)
under data (phi, W) has crossing word  W_s^{-1} · phi(u) · W_t  (freely
reduced), because the closed-up loop (reference arc in, u across,
reverse reference arc out) transforms by phi.

**Equality oracle.**  Equality in the mapping class group is decided by
the slope matrices plus the exponent class (:mod:`.invariant`, whose
docstring states the invariant); ``equal_in_mcg`` is re-exported here.
Every model build certifies that invariant, with the slopes
:mod:`.invariant` states, against the arc action (``_PIN_CHECKS``).

The action data stay the geometric reference (``_equal_by_action``):
two words are equal in the mapping class group iff their action data
coincide.  The reference arcs are chords of the 12-gon from the
basepoint edge to each port, so together with the cut arcs they fill the
surface (the complement is a union of disks); a homeomorphism fixing the
boundary pointwise and every one of these arcs up to isotopy rel
endpoints is isotopic to the identity, which makes the reference exact
rather than merely a hash.  Its data grow like (3+2*sqrt(2))^n, the
spectral radius of the slope matrices, so it certifies the model and
cross-validates the invariant but answers no equality query.

**Side comparison.**  The twelve boundary edges of the cut-open disk, in
counterclockwise order (surface kept on the left; hole circles are
traversed clockwise in the plane), are ``EDGE_CYCLE``::

    index  0     1    2     3    4     5   6     7    8     9    10    11
    edge   c1+  P2a  c2+  P3a  c3+   P4  c3-  P3b  c2-  P2b  c1-   P1

where ``ci+``/``ci-`` are the upper/lower sides of cut i and P* are the
boundary intervals ("ports"): C1 and C4 contribute one port each (P1,
P4), C2 and C3 two each (P2a/P3a above the axis, P2b/P3b below).  A
strand leaves through ``ci+`` when its next crossing is +i (downward) and
re-enters through ``ci-``.  The cycle alternates cut sides and ports, so
both neighbours of a cut side are ports, and the witness-search prune
relies on that.

Two distinct arcs with the same start point diverge either at a crossing
or at an end port.  Lift the divergence to the cut 12-gon: both strands
enter through the same edge and leave through two distinct edges.
Walking the 12-gon boundary counterclockwise from the entry edge meets
the right side of the entering strand first, so the arc whose exit edge
has the *smaller* counterclockwise offset from the entry edge passes to
the *right* of the other.  This offset comparison is a total order on
arcs from a fixed start (lexicographic over the planar tree of reduced
crossing words), which the witness search relies on.
``_turns_left`` states it once, and every comparison decides its
divergence through it.  ``_side_of`` finds the divergence of two
crossing words in the engine's one alphabet (bytes, see the action data
below).  ``side_at_start`` checks that both arcs are canonical and
encodes them for it.  The probe, the library build and the witness
recheck call ``_moves_left`` on the image a fold returns, which faults
on a backtrack; the order battery and the sweep call ``_side_of`` on the
words they build themselves.

**Witness search.**  ``is_right_veering_upto`` looks for an arc mapped to
its own left at its start ("left witness").  The search is layered and
fully deterministic for a fixed input:

1. decide right-veering (:func:`.invariant.right_veering`): by trace,
   a class whose slope matrix has trace +-2 is a product of boundary
   twists and at most one power of an essential curve's twist, and the
   reducible criterion of Honda-Kazez-Matic decides it; any other class
   is pseudo-Anosov, and their criterion decides it by the fractional
   Dehn twist coefficient (FDTC), an integer read off the slope matrices
   (proof sketches in :mod:`.invariant`).  A right-veering class has no
   left witness at any bound, so the search ends with none.  The rule
   and the probe ranking of step 2 read one decision record, made in one
   checked pass over the caller's terms (:func:`.invariant._invariant`).
   The rule runs between the two probe passes of step 2, after the one
   that settles most words that are not right-veering more cheaply;
2. probe the witness library: nine stated 0-crossing arcs, one per
   family of the paper, each certified against its defining words when
   the library is built.  Each entry is matched once against the
   record's exponent sums (``_rank_library``): those that match are
   probed before the rule, the rest after it, each pass in library
   order.  Every probe is verified by an exact side computation.  The
   word is freely reduced only before its first fold, and the model and
   library are built only then or when the class is not right-veering,
   so a word that the rule alone settles is never reduced and builds
   neither;
3. sweep every arc with at most one crossing (the reference enumeration
   order), applying the composite action directly; this settles almost
   every non-right-veering word cheaply because short witnesses are
   common, and each hit is again certified by the exact side test;
4. exhaustively search all arcs with at most ``bound`` crossings by
   depth-first extension of the crossing word, maintaining the reduced
   image word incrementally in the action data's bytes.  One exact
   device keeps this tractable, an order-interval prune.  The 12-gon
   alternates cut sides and ports, so the leftmost and rightmost
   completed arcs below a node u are u itself, ended at the two ports
   next to the re-entry edge of its last letter (``_HI_PORT``,
   ``_LO_PORT``).  Images preserve the side order (they come from a
   homeomorphism fixing the boundary; the model certifies this at build
   time), so when the image of the leftmost is not left of the
   rightmost, the subtree holds no witness.  The prune is conservative,
   so exhausting the tree certifies "no witness up to bound".  The
   search recurses once per crossing, which is why the bound is capped
   at ``MAX_BOUND``.  Its witness is refolded through the word term by
   term, as the probe images its arcs, and certified by the exact side
   test, so the check does not reuse the action the search walked.

The reported witness is the first one found in the documented order:
library probes first, then the one-crossing sweep (length-major, then
start port, then crossing word, then end port), then the depth-first
order (start ports in listed order; at each node the six completions by
end port in listed order, then children by crossing letter +1, -1, +2,
-2, +3, -3).  Only the searches that reach the sweep are memoized, per
(word, bound), on the model; a full memo is emptied.

**Build.**  The model certifies itself at construction and again when
the witness library is built: the library build runs the anchor and
order batteries and checks each of the nine stated library arcs against
every defining word of its entry.  The planar model is integer arithmetic
and the certifiers share their work: each polyline is spliced once for
every power, whose squares must be the squares of the tables; the order
battery images each arc once per word, checks each arc and image once (a
bad one is an ``InvariantViolation``) and compares every pair unchecked;
a sweep substitutes each crossing word once for all its port pairs and
builds an ``Arc`` only for its witness.  The CPU seconds of the two
builds are ``Model.build_s`` and ``library_build_s``.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import cached_property

from .errors import (InvariantViolation, MalformedArcError,
                     PreconditionError, shown)
from .invariant import SLOPES, _invariant, _right_veering, _terms
from .invariant import equal_in_mcg  # noqa: F401  (re-exported)
from .words import (BOUNDARY, GENERATORS, Value, _class_of_sums,
                    format_word, free_reduce, parse)

LEFT = "Left"
RIGHT = "Right"
EQUAL = "Equal"

# the cut 12-gon (module docstring, side comparison), and each port as
# (boundary circle, position index) for serialization; the ports in
# this order are the canonical enumeration order
EDGE_CYCLE = ("c1+", "P2a", "c2+", "P3a", "c3+", "P4",
              "c3-", "P3b", "c2-", "P2b", "c1-", "P1")
PORT_TO_BOUNDARY = {"P1": ("C1", 0), "P2a": ("C2", 0), "P2b": ("C2", 1),
                    "P3a": ("C3", 0), "P3b": ("C3", 1), "P4": ("C4", 0)}
BOUNDARY_TO_PORT = {v: k for k, v in PORT_TO_BOUNDARY.items()}
PORTS = tuple(PORT_TO_BOUNDARY)
PORT_IDX = {p: i for i, p in enumerate(PORTS)}
_EDGE_OF_PORT = tuple(map(EDGE_CYCLE.index, PORTS))
# Inside the engine a crossing word is bytes over a/A, b/B, c/C (action
# data, below); an Arc holds the signed cut indices +-1, +-2, +-3, decoded
# only where one is built.  _CODES lists the letters in the enumeration
# order +1, -1, +2, -2, +3, -3.
_ENCODE = {1: 0x61, -1: 0x41, 2: 0x62, -2: 0x42, 3: 0x63, -3: 0x43}
_DECODE = {code: x for x, code in _ENCODE.items()}
_CODES = bytes(_ENCODE.values())
# 12-gon edge a strand leaves through when its next crossing is the
# letter, and the edge it re-enters through, which the backtrack leaves by
_EXIT = {code: EDGE_CYCLE.index("c%d%s" % (abs(x), "+" if x > 0 else "-"))
         for x, code in _ENCODE.items()}
_REENTRY = {code: _EXIT[code ^ 0x20] for code in _CODES}


def _neighbour_port(edge):
    name = EDGE_CYCLE[edge % 12]
    if name not in PORT_IDX:
        raise InvariantViolation("12-gon edge next to a cut side is not a "
                                 "port", edge=name)
    return PORT_IDX[name]


# Extremal continuations.  After the letter y a strand re-enters the
# 12-gon through a cut side, the one the backtrack y ^ 0x20 would leave
# through, so every legal letter and every port leaves at a ccw offset
# 1..11.  The 12-gon alternates cut sides and ports, so both extremes are
# ports: the one just clockwise of the re-entry edge (offset 11, the
# leftmost continuation) and the one just counterclockwise (offset 1,
# the rightmost).
_HI_PORT = {y: _neighbour_port(_REENTRY[y] - 1) for y in _CODES}
_LO_PORT = {y: _neighbour_port(_REENTRY[y] + 1) for y in _CODES}


# ----------------------------------------------------------------------
# action data
#
# Action words live in the free group on the three cut crossings.  They
# are stored as byte strings over a/A, b/B, c/C (letter = crossing, case
# = sign) because the hot operations then run inside the interpreter's C
# byte routines: applying a free-group homomorphism is one bytes.translate
# to per-letter placeholders followed by one bytes.replace per letter,
# inversion is reverse-plus-swapcase, and free reduction is repeated
# deletion of the six inverse digrams.  Image words grow geometrically
# with the twist count, so this is what keeps long-word action
# composition (the equality oracle's workload) affordable.  The image of
# a single arc under a word is folded in the same bytes: the arc is
# encoded once and each twist rewrites its crossing word (``_step``); the
# side tests read the result as it is, and ``apply_word`` decodes it.
#
# Seams cancel through one kernel.  Joining two reduced words cancels
# the common suffix of the first and the inverse of the second, and
# images share long stretches of letters, so a seam can run to thousands
# of letters.  Short seams are compared one letter at a time; past
# ``_SCAN`` letters ``_common_suffix`` gallops and then bisects over
# slice comparisons, which run in C.  The joins of ``_cat_str``, the
# segments of a deeply nested ``_reduce_str`` and the overlaps of the
# depth-first search all go through it.
# ----------------------------------------------------------------------

_DIGRAMS = (b"aA", b"Aa", b"bB", b"Bb", b"cC", b"Cc")


def _encode(word):
    return bytes(map(_ENCODE.__getitem__, word))


def _decode(s):
    return tuple(map(_DECODE.__getitem__, s))


def _inv_str(s):
    return s[::-1].swapcase()


# Seam letters compared one at a time before the kernel takes over (a
# kernel call costs about a 30-60 letter scan), and the bytes.replace
# passes a reduction makes before it joins its digram-free segments.  A
# pass undoes one level of nesting and a join level halves the segments.
# The reductions of 3,000 probe-settled words nest at most three levels
# deep (a fourth pass confirms); those of g^300 composed with itself
# nest some 300.
_SCAN = 64
_PASSES = 4


def _common_suffix(a, b, lo=0):
    """The length of the longest common suffix of the sequences ``a`` and
    ``b``, known to be at least ``lo``: gallop, then bisect, comparing
    only the letters past the known suffix, as slices, which run in C.
    Joining ``a`` to a word whose inverse is ``b`` cancels exactly this
    many letters on each side."""
    na, nb = len(a), len(b)
    n = min(na, nb)
    hi = n + 1                          # the least length known to differ
    while hi - lo > 1:
        k = min(2 * lo + 1, n) if hi > n else (lo + hi) // 2
        if a[na - k:na - lo] == b[nb - k:nb - lo]:
            lo = k
        else:
            hi = k
    return lo


def _reduce_str(s):
    """Freely reduce by deleting inverse digrams until none remain.
    Each bytes.replace pass runs in C and undoes one level of nesting.
    A word still nested after ``_PASSES`` of them is cut between every
    inverse pair into digram-free segments, which are joined pairwise at
    their seams, so deep nesting costs a logarithmic number of copies."""
    passes = _PASSES
    while passes:
        n = len(s)
        for d in _DIGRAMS:
            s = s.replace(d, b"")
        if len(s) == n:
            return s
        passes -= 1
    for d in _DIGRAMS:
        s = s.replace(d, d[:1] + b"|" + d[1:])
    parts = s.split(b"|")
    while len(parts) > 1:
        parts = list(map(_cat_str, parts[::2], parts[1::2] + [b""]))
    return parts[0]


def _cat_str(a, b):
    """Concatenate two freely reduced byte strings, cancelling at the
    seam (XOR 0x20 toggles ASCII case, i.e. inverts one letter): one
    letter at a time up to ``_SCAN`` of them, then by the kernel."""
    if not a or not b:
        # most port correction words are empty; no seam to cancel
        return a + b
    i, j = len(a), 0
    n = min(i, len(b), _SCAN)
    while j < n and a[i - 1] == b[j] ^ 0x20:
        i -= 1
        j += 1
    if j == _SCAN:
        j = _common_suffix(a, _inv_str(b[:len(a)]), j)
        i = len(a) - j
    return a[:i] + b[j:]


def _image(s, table):
    """The freely reduced image of the freely reduced byte string ``s``
    under a letter-to-word substitution (an ArcAction ``table``).  Letters
    are first renamed to private placeholders in one translate pass so the
    per-letter replace passes cannot re-substitute inside already-inserted
    images.  The empty word, and any word under a table with no pairs (the
    boundary twists b, c and d), is returned as it is, with no reduction."""
    trans, pairs = table
    if not pairs or not s:
        return s
    s = s.translate(trans)
    for placeholder, image in pairs:
        s = s.replace(placeholder, image)
    return _reduce_str(s)


class ArcAction(Value):
    """Action of a mapping class on the arc system: images of the loop
    basis t1..t3 and the six port correction words, all as free-group
    strings."""
    phi: tuple
    w: tuple

    def __init__(self, phi, w):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "w", w)

    @cached_property
    def table(self):
        """Substitution table for :func:`_image`: a translate map to
        placeholders plus (placeholder, image word) replace pairs.  Letters
        the action fixes are left alone, so the identity needs no passes."""
        src, dst, pairs = bytearray(), bytearray(), []
        for ch, ph, image in zip(b"abc", b"uvw", self.phi):
            if image == bytes((ch,)):
                continue
            src += bytes((ch, ch ^ 0x20))
            dst += bytes((ph, ph ^ 0x20))
            pairs.append((bytes((ph,)), image))
            pairs.append((bytes((ph ^ 0x20,)), _inv_str(image)))
        return bytes.maketrans(bytes(src), bytes(dst)), tuple(pairs)

    @cached_property
    def w_inv(self):
        """The inverse port correction words W_s^{-1}, derived on first
        use like ``table``: composing actions never needs them."""
        return tuple(map(_inv_str, self.w))


IDENTITY_ACTION = ArcAction((b"a", b"b", b"c"), (b"",) * 6)


def _compose(first, then):
    """Action of "apply ``first``, then ``then``"."""
    table = then.table
    phi = tuple(_image(p, table) for p in first.phi)
    w = tuple(_cat_str(_image(first.w[s], table), then.w[s])
              for s in range(6))
    return ArcAction(phi, w)


def _twist_action(spliced, k):
    """Action data of T^k (k < 0 for left twists) from the splices of the
    basis loops and then the reference arcs with the twist curve: T^k puts
    loop^(k*sign) in at every crossing.  Each piece is reduced on its own
    (a power of the cyclically reduced loop already is) and the pieces are
    joined at their seams, so the cost is linear in the answer."""
    words = []
    for pieces in spliced:
        word = _reduce_str(_encode(pieces[0]))
        for (sign, loop), piece in zip(pieces[1::2], pieces[2::2]):
            loop = _encode(loop)
            power = (loop if k * sign > 0 else _inv_str(loop)) * abs(k)
            word = _cat_str(_cat_str(word, power),
                            _reduce_str(_encode(piece)))
        words.append(word)
    v1, v2, v3, *w = words
    phi2 = _cat_str(_inv_str(v2), v1)
    return ArcAction((v1, phi2, _cat_str(_inv_str(v3), phi2)), tuple(w))


# spot patterns of the port correction words of the positive a, e and f
# twists, port by port in PORTS order: the cuts the word crosses (its
# letters, case folded), None for a port left unchecked
_PORT_WORD_CUTS = {"a": (b"",) + (b"a",) * 5, "e": (b"",) * 3 + (b"b",) * 3,
                   "f": (None,) * 5 + (b"",)}

# word pairs (one positive twist per letter) that the invariant must
# decide as the arc action does: the lantern relations, their reorderings,
# and two pairs of distinct mapping classes
_PIN_CHECKS = (("gef", "abcd"), ("hfe", "abcd"), ("gfe", "abcd"),
               ("hef", "abcd"), ("eeff", "efef"), ("g", "h"))


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------

class Arc(Value):
    """Properly embedded arc: start port, freely reduced crossing word,
    end port.  Use :func:`make_arc` to construct with validation."""
    start: str
    crossings: tuple
    end: str

    def __init__(self, start, crossings, end):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "end", end)

    def start_boundary(self):
        return PORT_TO_BOUNDARY[self.start]

    def end_boundary(self):
        return PORT_TO_BOUNDARY[self.end]


def _checked_word(crossings):
    """``crossings`` as a tuple, and whether it has no backtrack.  Anything
    but a sequence of the ints +-1, +-2 and +-3 is refused
    (``MalformedArcError``); a lookup alone would take True and 1.0, which
    equal 1."""
    try:
        word = tuple(crossings)
    except TypeError:
        raise MalformedArcError("crossings are not a sequence of letters: "
                                "%s" % shown(crossings)) from None
    reduced, prev = True, 0
    for x in word:
        if type(x) is not int or x not in _ENCODE:
            raise MalformedArcError("bad crossing letter %s" % shown(x))
        if x == -prev:
            reduced = False
        prev = x
    return word, reduced


def make_arc(start, crossings, end):
    if start not in PORTS or end not in PORTS:
        raise MalformedArcError("unknown port %s" % shown((start, end)))
    word, reduced = _checked_word(crossings)
    if not reduced:
        word = _decode(_reduce_str(_encode(word)))
    return Arc(start, word, end)


def reverse(arc):
    """The same arc traversed from its other endpoint."""
    return Arc(arc.end, tuple(-x for x in reversed(arc.crossings)), arc.start)


def arc_to_json(arc):
    _require_canonical(arc)
    sb, se = arc.start_boundary(), arc.end_boundary()
    return {
        "start": [sb[0], sb[1]],
        "end": [se[0], se[1]],
        "crossings": [["d%d" % abs(x), "+" if x > 0 else "-"]
                      for x in arc.crossings],
    }


def arc_from_json(obj):
    try:
        ends = (obj["start"], obj["end"])
        # True and 0.0 would find the ports of 1 and 0 by hash
        if any(type(e[1]) is not int for e in ends):
            raise TypeError("port index is not an int")
        start, end = (BOUNDARY_TO_PORT[tuple(e)] for e in ends)
        raw = list(obj["crossings"])
    except (KeyError, TypeError, IndexError) as exc:
        raise MalformedArcError("bad arc serialization: %s"
                                % shown(exc, str))
    word = []
    for item in raw:
        try:
            label, s = item
        except (TypeError, ValueError):
            raise MalformedArcError("bad crossing entry %s" % shown(item))
        if label not in ("d1", "d2", "d3") or s not in ("+", "-"):
            raise MalformedArcError("bad crossing entry %s" % shown(item))
        word.append(int(label[1]) * (1 if s == "+" else -1))
    return make_arc(start, word, end)


def _require_canonical(arc):
    """Refuse a non-arc, an unknown port or crossing letter, or crossings
    that are not a sequence of letters (``MalformedArcError``), or a
    backtrack (``PreconditionError``)."""
    try:
        known = arc.start in PORT_IDX and arc.end in PORT_IDX
        crossings = arc.crossings
    except AttributeError:
        raise MalformedArcError("not an arc: %s" % shown(arc)) from None
    except TypeError:                   # an unhashable port
        known = False
    if not known:
        raise MalformedArcError("unknown port %s"
                                % shown((arc.start, arc.end)))
    if not _checked_word(crossings)[1]:
        raise PreconditionError("arc is not canonical: %s" % shown(arc))


def _step(action, s, word, t):
    """The crossing word  W_s^{-1} . phi(u) . W_t  of the image under
    ``action`` of the arc from port index ``s`` to ``t`` whose encoded
    crossing word is ``word`` (module docstring, twist action)."""
    return _cat_str(_cat_str(action.w_inv[s], _image(word, action.table)),
                    action.w[t])


def _require_reduced(word, **details):
    """Fault on a backtrack in a crossing word the engine built itself:
    an ``InvariantViolation``, not a user error, with ``details`` as str."""
    for d in _DIGRAMS:
        if word.find(d) >= 0:
            raise InvariantViolation(
                "engine-built crossing word has a backtrack", word=word,
                **{key: str(value) for key, value in details.items()})


# ----------------------------------------------------------------------
# side comparison
# ----------------------------------------------------------------------

def side_at_start(alpha, beta):
    """Which side of ``alpha`` does ``beta`` leave from, at their common
    start point: ``Left``, ``Right`` or ``Equal``.

    Both arcs must be canonical and share the start port.  The answer is
    read off the first divergence of the two crossing words inside the
    cut 12-gon: counterclockwise offset of each exit edge from the shared
    entry edge, larger offset = further left.
    """
    _require_canonical(alpha)
    _require_canonical(beta)
    if alpha.start != beta.start:
        raise PreconditionError("arcs start on different ports")
    try:
        return _side_of(PORT_IDX[alpha.start], _encode(alpha.crossings),
                        PORT_IDX[alpha.end], _encode(beta.crossings),
                        PORT_IDX[beta.end])
    except InvariantViolation as exc:
        exc.details.update(alpha=str(alpha), beta=str(beta))
        raise


def _moves_left(arc, image):
    """Whether ``image``, the crossing word of the image of the canonical
    ``arc`` that a fold returned, leaves to the arc's left.  A backtrack
    in it is the engine's fault."""
    _require_reduced(image, arc=arc)
    s, t = PORT_IDX[arc.start], PORT_IDX[arc.end]
    return _side_of(s, _encode(arc.crossings), t, image, t) == LEFT


def _side_of(s, u, t_u, v, t_v):
    """The side of the arc (s, u, t_u) that the arc (s, v, t_v) leaves
    from, for encoded crossing words and port indices."""
    k = 0
    while k < len(u) and k < len(v) and u[k] == v[k]:
        k += 1
    if k == len(u) == len(v) and t_u == t_v:
        return EQUAL
    exit_u = _EXIT[u[k]] if k < len(u) else _EDGE_OF_PORT[t_u]
    exit_v = _EXIT[v[k]] if k < len(v) else _EDGE_OF_PORT[t_v]
    entry = _EDGE_OF_PORT[s] if k == 0 else _REENTRY[u[k - 1]]
    return LEFT if _turns_left(entry, exit_v, exit_u) else RIGHT


def _turns_left(entry, exit_a, exit_b):
    """The side rule: two strands that share their crossings so far enter
    the 12-gon through the edge ``entry`` (their start port's, or the
    re-entry edge of their last shared crossing), then leave it through
    edges ``exit_a`` and ``exit_b``.  Whether the first passes left of the
    second, i.e. has the larger counterclockwise offset from ``entry``."""
    if exit_a == exit_b:
        raise InvariantViolation("divergent arcs share an exit edge")
    return (exit_a - entry) % 12 > (exit_b - entry) % 12


# ----------------------------------------------------------------------
# witness library plumbing
# ----------------------------------------------------------------------

LibraryEntry = namedtuple("LibraryEntry", "name patterns arc kind")


class RVReport(Value):
    """Outcome of a bounded left-witness search: the witness arc, or None
    when no arc of at most ``bound`` crossings is one."""
    bound: int
    word: tuple
    witness: Arc | None

    def __init__(self, bound, word, witness=None):
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "witness", witness)

    @property
    def outcome(self):
        return ("NoWitnessUpToBound" if self.witness is None
                else "NotRightVeering")

    @property
    def boundary(self):
        """The boundary component the witness starts on, or None."""
        if self.witness is not None:
            return self.witness.start_boundary()[0]

    def to_json(self):
        out = {"outcome": self.outcome, "bound": self.bound,
               "word": format_word(self.word), "witness": None}
        if self.witness is not None:
            out.update(witness=arc_to_json(self.witness),
                       boundary=self.boundary)
        return out


# ----------------------------------------------------------------------
# the model: tables, certification, caches
# ----------------------------------------------------------------------

class Model:
    """Certified twist tables plus all engine caches.  Build once via
    :func:`get_model`; construction runs the certification battery and
    faults (InvariantViolation) rather than return a bad model."""

    def __init__(self):
        # the planar model is needed only here; build_s leaves out its import
        from . import geometry
        start = time.process_time()
        geometry.validate_model_data()
        lines = geometry.BASIS_LOOPS + [geometry.REFERENCE_ARCS[p][0]
                                        for p in PORTS]
        self._splices = {name: [geometry.splice(line, K) for line in lines]
                         for name, K in geometry.CURVE_POLYGONS.items()}
        self._piece_cache = {}
        self._action_cache = {}
        self._rv_cache = {}
        self.tables = {}
        for name in GENERATORS:
            plus, minus = (self.piece_action(name, s) for s in (1, -1))
            if _compose(plus, minus) != IDENTITY_ACTION \
                    or _compose(minus, plus) != IDENTITY_ACTION:
                raise InvariantViolation("twist inverse pair failed",
                                         curve=name)
            self.tables[name] = (plus, minus)
        self._certify_tables()
        self._certify_slopes()
        self.library_build_s = None
        self.build_s = time.process_time() - start

    # -- construction-time certification --------------------------------

    def _certify_slopes(self):
        """The invariant, with the slopes :mod:`.invariant` states, decides
        every pair of ``_PIN_CHECKS`` as the arc action does."""
        for pair in _PIN_CHECKS:
            t1, t2 = (tuple((x, 1) for x in w) for w in pair)
            by_action = self.word_action(t1) == self.word_action(t2)
            (m1, s1), (m2, s2) = (_invariant(SLOPES, t) for t in (t1, t2))
            if by_action != (m1 == m2 and
                             _class_of_sums(s1) == _class_of_sums(s2)):
                raise InvariantViolation("slope invariant disagrees with the "
                                         "arc action", pair=pair,
                                         slopes=str(SLOPES))

    def _certify_tables(self):
        for k in BOUNDARY:
            for other in GENERATORS:
                left = _compose(self.tables[k][0], self.tables[other][0])
                right = _compose(self.tables[other][0], self.tables[k][0])
                if left != right:
                    raise InvariantViolation("boundary twist not central",
                                             pair=k + other)
        for i, x in enumerate(GENERATORS):
            for y in GENERATORS[i + 1:]:
                if self.tables[x][0] == self.tables[y][0]:
                    raise InvariantViolation(
                        "distinct generators act identically", pair=x + y)
        for letter, cuts in _PORT_WORD_CUTS.items():
            for word, cut in zip(self.tables[letter][0].w, cuts):
                if cut is not None and word.lower() != cut:
                    raise InvariantViolation(
                        "%s-table correction words off-pattern" % letter)
        # every power is in closed form; its squares are those of the tables
        for letter, (plus, minus) in self.tables.items():
            if (self.piece_action(letter, 2), self.piece_action(letter, -2)) \
                    != (_compose(plus, plus), _compose(minus, minus)):
                raise InvariantViolation(
                    "twist power disagrees with its table", curve=letter)

    # -- word -> action --------------------------------------------------

    def piece_action(self, letter, exp):
        hit = self._piece_cache.get((letter, exp))
        if hit is None:
            hit = _twist_action(self._splices[letter], exp)
            self._piece_cache[letter, exp] = hit
        return hit

    def word_action(self, word):
        terms = free_reduce(word)
        hit = self._action_cache.get(terms)
        if hit is None:
            hit = IDENTITY_ACTION
            for letter, exp in terms:
                hit = _compose(hit, self.piece_action(letter, exp))
            if sum(map(len, hit.phi)) < 50000:
                if len(self._action_cache) >= 20000:
                    self._action_cache.clear()
                self._action_cache[terms] = hit
        return hit

    def apply_action(self, action, arc):
        word = _step(action, PORT_IDX[arc.start], _encode(arc.crossings),
                     PORT_IDX[arc.end])
        return Arc(arc.start, _decode(word), arc.end)

    def _fold(self, arc, terms):
        """The encoded crossing word of the image of the canonical ``arc``
        under the freely reduced ``terms``: one ``_step`` per term, inlined
        to join only the port corrections that are not empty (most are)."""
        s, t = PORT_IDX[arc.start], PORT_IDX[arc.end]
        word = _encode(arc.crossings)
        cache = self._piece_cache
        for term in terms:
            action = cache.get(term) or self.piece_action(*term)
            word = _image(word, action.table)
            if action.w[s]:
                word = _cat_str(action.w_inv[s], word)
            if action.w[t]:
                word = _cat_str(word, action.w[t])
        return word

    # -- library ----------------------------------------------------------

    def ensure_library(self):
        """The witness library, certified on this model at the first call."""
        if self.library_build_s is None:
            start = time.process_time()
            self._certify_anchors()
            self._certify_order_preservation()
            _certify_library(self)
            self.library_build_s = time.process_time() - start
        return _LIBRARY

    def _certify_anchors(self):
        """Each positive generator moves no arc of at most 2 crossings
        left; each negative one moves some arc of at most 3 crossings left
        (the length-major sweep meets the short ones first).  Evidence that
        twist handedness and the side rule agree."""
        for letter in GENERATORS:
            pos, neg = self.tables[letter]
            if _canonical_sweep(pos, 2) is not None:
                raise InvariantViolation("positive twist has a left witness",
                                         curve=letter)
            if _canonical_sweep(neg, 3) is None:
                raise InvariantViolation("negative twist has no left witness",
                                         curve=letter)

    def _certify_order_preservation(self):
        """Twists are homeomorphisms fixing the boundary pointwise, so
        they must preserve the side order of arcs sharing a start point.
        The pruned witness search leans on exactly this; spot-check it on
        a deterministic sample of arc pairs and short words."""
        words = [parse(w) for w in
                 ("e", "f", "g", "h^-1", "e^-1 f", "a b c d e^-1")]
        actions = [self.word_action(w) for w in words]
        # (), (1,), (-1,), (2,), (-2, 3) and (2, -3, 1), encoded
        crossings = [b"", b"a", b"A", b"b", b"Bc", b"bCa"]
        for s in map(PORT_IDX.get, ("P1", "P2b", "P4")):
            # arcs from s as (crossing word, end port); images[k][i]: the
            # image of arcs[i] under actions[k], which fixes the ports
            arcs = [(u, t) for u in crossings for t in range(6)]
            images = [[(_step(action, s, u, t), t) for u, t in arcs]
                      for action in actions]
            for u, t in arcs + [im for row in images for im in row]:
                _require_reduced(u, start=PORTS[s], end=PORTS[t])
            for i, alpha in enumerate(arcs):
                for j, beta in enumerate(arcs[i + 1:], start=i + 1):
                    base = _side_of(s, *alpha, *beta)
                    for image in images:
                        if _side_of(s, *image[i], *image[j]) != base:
                            raise InvariantViolation(
                                "image does not preserve the side order",
                                start=PORTS[s], alpha=alpha, beta=beta)


_MODEL = None


def get_model():
    global _MODEL
    if _MODEL is None:
        _MODEL = Model()
    return _MODEL


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def apply_twist(arc, curve, sign=1):
    """Image of ``arc`` under the Dehn twist along ``curve`` (right twist
    for sign +1, left for -1); the result is canonical."""
    # GENERATORS is a str, in which "" and "ab" are substrings
    if curve not in tuple(GENERATORS):
        raise PreconditionError("unknown curve %s" % shown(curve))
    if type(sign) is not int or sign not in (1, -1):
        raise PreconditionError("sign must be the int +1 or -1, got %s"
                                % shown(sign))
    return apply_word(arc, ((curve, sign),))


def apply_word(arc, w):
    """Image of ``arc`` under a word (leftmost letter acts first), folded
    term by term in bytes: the arc is encoded once, each twist's step runs
    on the encoded crossing word, and the image is decoded once (cheaper
    than materializing the composite action when only one image is
    needed)."""
    _require_canonical(arc)
    word = get_model()._fold(arc, free_reduce(_terms(w)))
    return Arc(arc.start, _decode(word), arc.end)


def _equal_by_action(w1, w2):
    """The geometric reference for :func:`equal_in_mcg`: compare the
    action data on the filling arc system.  Exact, but the data grow
    exponentially with the word, so only certification and tests use it."""
    model = get_model()
    return model.word_action(_terms(w1)) == model.word_action(_terms(w2))


# ----------------------------------------------------------------------
# canonical bounded enumeration (reference searcher)
# ----------------------------------------------------------------------

def _iter_reduced_words(length):
    """All freely reduced encoded crossing words of exactly ``length``
    letters, in lexicographic order over the letter order ``_CODES``."""
    if length == 0:
        yield b""
        return
    for prefix in _iter_reduced_words(length - 1):
        for x in _CODES:
            if not prefix or x != prefix[-1] ^ 0x20:
                yield prefix + bytes((x,))


def _canonical_sweep(action, depth):
    """First arc (length-major, then start port, then word, then end port)
    with at most ``depth`` crossings whose image under ``action`` leaves to
    its left.  The reference enumeration: exhaustive and unpruned."""
    # phi(u) does not depend on the ports, so each crossing word is
    # substituted once for all its (start, end) pairs; only a witness
    # becomes an Arc
    images = {}
    for n in range(depth + 1):
        for s in range(6):
            for u in _iter_reduced_words(n):
                image = images.get(u)
                if image is None:
                    image = images[u] = _image(u, action.table)
                head = _cat_str(action.w_inv[s], image)
                for t in range(6):
                    # _side_of reads v up to index len(u) only, and the
                    # cut image is as long as u only if the whole one is
                    # (the cut also frees the whole one before the next)
                    v = _cat_str(head, action.w[t])[:len(u) + 1]
                    if _side_of(s, u, t, v, t) == LEFT:
                        return Arc(PORTS[s], _decode(u), PORTS[t])
    return None


# ----------------------------------------------------------------------
# witness library
# ----------------------------------------------------------------------

# The witness library: for each family of the paper, a 0-crossing arc
# from the family's boundary component that each defining word moves to
# its own left (for the crossing family, from C2 to C4).  The probe ranks
# these entries, so a word that none of them matches never builds the
# library.
_LIBRARY = tuple(
    LibraryEntry(name, tuple(map(parse, patterns)), Arc(start, (), end), kind)
    for name, patterns, start, end, kind in (
        ("left_witness_neg_r1", ("a^-1 e^2 f^2",), "P1", "P2a", ("neg", 1)),
        ("left_witness_neg_r2", ("b^-1 e^2 f^2",), "P2a", "P1", ("neg", 2)),
        ("left_witness_neg_r3", ("c^-1 e^2 f^2",), "P3a", "P1", ("neg", 3)),
        ("left_witness_neg_r4", ("d^-1 e^2 f^2",), "P4", "P1", ("neg", 4)),
        ("left_witness_zero_r1", ("e^-1 f^2",), "P1", "P3a", ("zero", 1)),
        ("left_witness_zero_r2", ("e^-1 f^2",), "P2a", "P3a", ("zero", 2)),
        ("left_witness_zero_r3", ("e^-1 f",), "P3a", "P1", ("zero", 3)),
        ("left_witness_zero_r4", ("e^-1 f^2",), "P4", "P1", ("zero", 4)),
        ("left_witness_cross_C2C4", ("a b c d e^-2 f^-1",
                                     "a b c d e^-1 f^-2"),
         "P2b", "P4", ("cross",))))

# the candidates the probe tries for each entry, in order: its arc, then
# the reversed arc (every arc's ends differ, so the two never coincide)
_PROBE_ARCS = tuple((entry.arc, reverse(entry.arc)) for entry in _LIBRARY)


def _certify_library(model):
    """Certify every entry on ``model``: each of its patterns moves its
    arc to the arc's own left."""
    for entry in _LIBRARY:
        for pattern in entry.patterns:
            if not _moves_left(entry.arc, model._fold(entry.arc, pattern)):
                raise InvariantViolation("library witness failed validation",
                                         name=entry.name)


def witness_library():
    """The certified witness arcs with their defining monodromy words, as
    (word, arc) pairs."""
    return [(entry.patterns[0], entry.arc)
            for entry in get_model().ensure_library()]


# ----------------------------------------------------------------------
# witness search
# ----------------------------------------------------------------------

def _rank_library(sums):
    """The library indices of the two probe passes, in library order: the
    entries whose kind the exponent sums ``sums`` (in GENERATORS order)
    match, then the rest.  A ``neg`` entry of C_k matches a negative sum
    of C_k's twist, a ``zero`` one a zero sum there with e or f negative,
    and ``cross`` e and f both negative."""
    e, f = sums[4], sums[5]
    cheap, rest = [], []
    for i, entry in enumerate(_LIBRARY):
        kind = entry.kind
        if kind[0] == "neg":
            match = sums[kind[1] - 1] < 0
        elif kind[0] == "zero":
            match = sums[kind[1] - 1] == 0 and min(e, f) < 0
        else:
            match = e < 0 and f < 0
        (cheap if match else rest).append(i)
    return cheap, rest


def _probe(indices, terms):
    """Try the arcs of the library entries ``indices`` (both orientations)
    as witnesses, in that order.  ``terms`` is freely reduced, so each
    image is folded without reducing again.  The model and the library are
    built only when ``indices`` is not empty, and always before the first
    fold, so no probe answers before every certification has run."""
    if not indices:
        return None
    model = get_model()
    model.ensure_library()
    for i in indices:
        for arc in _PROBE_ARCS[i]:
            if _moves_left(arc, model._fold(arc, terms)):
                return arc
    return None


def _dfs_search(model, action, bound):
    """Exhaustive pruned search for a left witness with at most ``bound``
    crossings.  Returns the first witness in the documented depth-first
    order, or None after certifying the whole tree."""
    # the crossing word u is a list of letter codes, and the image word Q
    # is bytes spliced from the action data, so that the kernel compares
    # long seams in C
    PHI = {}
    for code, image in zip(b"abc", action.phi):
        PHI[code] = image
        PHI[code ^ 0x20] = _inv_str(image)
    W, W_inv = action.w, action.w_inv
    max_w = max(map(len, W))
    scan = _SCAN

    def seam(Q, inverse):
        """The letters cancelled joining Q to the word whose inverse is
        ``inverse``: one at a time up to _SCAN, then by the kernel."""
        lq, li = len(Q) - 1, len(inverse) - 1
        n = lq if lq < li else li
        if n >= scan:
            n = scan - 1
        j = 0
        while j <= n and Q[lq - j] == inverse[li - j]:
            j += 1
        return j if j < scan else _common_suffix(Q, inverse, j)

    def image_left(u, Q, len_common, s_idx, t_img, t_arc):
        """Whether the image of (s, u, t_img), whose crossing word is
        Q·W[t_img] freely reduced, lies left of (s, u, t_arc); False when
        equal.  Q and u share their first ``len_common`` letters."""
        wt = W[t_img]
        p = seam(Q, W_inv[t_img])
        keep = len(Q) - p       # the image word is Q[:keep] + wt[p:]
        len_u, len_img = len(u), len(Q) + len(wt) - 2 * p
        j = len_common if len_common < keep else keep
        while j < len_u and j < len_img and \
                (Q[j] if j < keep else wt[j - keep + p]) == u[j]:
            j += 1
        if j < len_img:
            exit_img = _EXIT[Q[j] if j < keep else wt[j - keep + p]]
        elif j == len_u and t_img == t_arc:
            return False
        else:
            exit_img = _EDGE_OF_PORT[t_img]
        exit_arc = _EXIT[u[j]] if j < len_u else _EDGE_OF_PORT[t_arc]
        entry = _EDGE_OF_PORT[s_idx] if j == 0 else _REENTRY[u[j - 1]]
        return _turns_left(entry, exit_img, exit_arc)

    def node(u, Q, len_common, rem, s_idx):
        """Explore the subtree rooted at crossing word ``u``: its first
        left witness, or None."""
        len_u, len_q = len(u), len(Q)
        in_word = len_common < len_u

        if in_word and len_q - len_common > max_w:
            # image diverged inside the word for every completion: one
            # comparison decides them all
            entry = (_EDGE_OF_PORT[s_idx] if len_common == 0
                     else _REENTRY[u[len_common - 1]])
            if _turns_left(entry, _EXIT[Q[len_common]], _EXIT[u[len_common]]):
                return Arc(PORTS[s_idx], _decode(u), PORTS[0])
        else:
            for t in range(6):
                if image_left(u, Q, len_common, s_idx, t, t):
                    return Arc(PORTS[s_idx], _decode(u), PORTS[t])
        # order-interval prune (module docstring, step 4): the image of
        # the leftmost completion is not left of the rightmost one
        if rem == 0 or (in_word and not image_left(
                u, Q, len_common, s_idx, _HI_PORT[u[-1]], _LO_PORT[u[-1]])):
            return None

        last = u[-1] if u else 0
        for x in _CODES:
            if x == last ^ 0x20:
                continue
            p = seam(Q, PHI[x ^ 0x20])
            child = Q[:len_q - p] + PHI[x][p:]
            u.append(x)
            lc = len_q - p
            if len_common < lc:
                lc = len_common
            nq = len(child)
            while lc < len_u + 1 and lc < nq and u[lc] == child[lc]:
                lc += 1
            arc = node(u, child, lc, rem - 1, s_idx)
            if arc is not None:
                return arc
            u.pop()
        return None

    for s_idx in range(6):
        arc = node([], W_inv[s_idx], 0, bound, s_idx)
        if arc is not None:
            return arc
    return None


def _rv_search(terms, bound):
    """The search of the module docstring: the first left witness of the
    raw ``terms`` (a tuple) within ``bound`` crossings, or None.  One
    record ranks the probes and decides the rule, and the word is reduced
    only before a fold; only the sweep and depth-first answers are memoized."""
    record = _invariant(SLOPES, terms)
    cheap, rest = _rank_library(record[1])
    reduced = free_reduce(terms) if cheap else None
    arc = _probe(cheap, reduced)
    if arc is not None or _right_veering(terms, record)[0]:
        return arc
    reduced = reduced or free_reduce(terms)
    arc = _probe(rest, reduced)
    if arc is not None:
        return arc
    model = get_model()
    key = (reduced, bound)
    if key in model._rv_cache:
        return model._rv_cache[key]
    action = model.word_action(reduced)
    arc = _canonical_sweep(action, min(1, bound))
    if arc is None:
        arc = _dfs_search(model, action, bound)
        # refolded through the word, as the probe images its arcs, rather
        # than through the action the search walked
        if arc is not None and not _moves_left(arc, model._fold(arc, reduced)):
            raise InvariantViolation("search produced a bad witness",
                                     arc=str(arc))
    if len(model._rv_cache) >= 10000:
        model._rv_cache.clear()
    model._rv_cache[key] = arc
    return arc


# The depth-first search recurses once per crossing, so its deepest
# stack is about MAX_BOUND frames.  The cap stays well below the
# interpreter's default recursion limit (1000) to leave room for the
# caller's own frames: a test runner adds some 30-60.
MAX_BOUND = 800


def validate_bound(bound):
    """Reject a witness-search bound that is not an ``int`` or lies
    outside 1..MAX_BOUND crossings."""
    if type(bound) is not int:
        raise PreconditionError("bound must be an int, got %s" % shown(bound))
    if bound < 1:
        raise PreconditionError("bound must be >= 1, got %s" % shown(bound))
    if bound > MAX_BOUND:
        raise PreconditionError("bound must be <= %d, got %s"
                                % (MAX_BOUND, shown(bound)))


def is_right_veering_upto(w, bound=12):
    """Search every arc of at most ``bound`` crossings for one mapped to
    its own left at its start point.  Returns an :class:`RVReport` whose
    outcome is ``NotRightVeering`` (with the certified witness arc and its
    boundary component) or ``NoWitnessUpToBound``.

    Deterministic for fixed input: the witness, when one exists, is the
    first found in the documented probe/sweep/depth-first order (module
    docstring); a no-witness answer certifies the whole bounded tree."""
    validate_bound(bound)
    w = _terms(w)
    return RVReport(bound, w, _rv_search(w, bound))


def certify_model():
    """Build the model (if needed), run every construction-time battery,
    and return a summary dict.  Raises InvariantViolation on any failure."""
    model = get_model()
    library = model.ensure_library()
    return {
        "tables": sorted(model.tables),
        "library": [entry.name for entry in library],
        "lantern": (_equal_by_action("g e f", "a b c d"),
                    _equal_by_action("h f e", "a b c d")),
        "build_s": {"model": model.build_s,
                    "library": model.library_build_s},
    }
