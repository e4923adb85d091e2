"""Exact arc engine for the four-holed sphere.

Cutting the surface along the three cut arcs (see :mod:`.geometry`) opens
it into a single 12-gon, so a properly embedded arc is described exactly
by its start port, its freely reduced sequence of signed cut crossings,
and its end port.  Every freely reduced sequence is realizable, and the
reduced triple is a complete isotopy invariant rel endpoints.

**Twist action.**  A mapping class is recorded by its *action data*: the
images of the three one-crossing loop classes t1, t2, t3 (a free basis of
the fundamental group based at the top of C1) plus, for each of the six
ports, the crossing word of the image of a fixed reference arc running
from the basepoint to that port.  The data of a single twist is computed
once, geometrically, by splicing a copy of the twist curve into each
basis loop and reference arc at every transverse intersection; composite
words compose the data algebraically.  The image of the arc (s, u, t)
under data (phi, W) has crossing word  W_s^{-1} · phi(u) · W_t  (freely
reduced), because the closed-up loop (reference arc in, u across, reverse
reference arc out) transforms by phi.

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

**Side comparison.**  Two distinct arcs with the same start point diverge
either at a crossing or at an end port.  Lift the divergence to the cut
12-gon: both strands enter through the same edge and leave through two
distinct edges.  Walking the 12-gon boundary counterclockwise from the
entry edge meets the right side of the entering strand first, so the arc
whose exit edge has the *smaller* counterclockwise offset from the entry
edge passes to the *right* of the other.  This offset comparison is a
total order on arcs from a fixed start (lexicographic over the planar
tree of reduced crossing words), which the witness search relies on.
``_turns_left`` states it once; ``side_at_start`` and every comparison
of the witness search decide their divergence through it.
``side_at_start`` checks that both arcs are canonical and then calls the
unchecked ``_side``, which the probe and the sweeps call directly on the
arcs they build themselves.

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
   left witness at any bound, so the search ends with none; any other
   class goes through the steps below, which find its witness when one
   lies within the bound.  The rule runs between the two probe passes of
   step 2, after the one that settles most words that are not
   right-veering more cheaply;
2. probe the witness library: nine stated 0-crossing arcs, one per
   family of the paper, each certified against its defining words when
   the library is built.  Each entry is scored once on the word's
   exponent sums (``_rank_library``): those scoring below 2 are probed
   before the rule, cheapest first with ties in library order, and the
   rest after it in library order.  Every probe is verified by an exact
   side computation before being reported.  The library is built only
   when a probe pass has a candidate, and the model only then or when
   the class is not right-veering, so a word that the rule of step 1
   alone settles builds neither;
3. sweep every arc with at most one crossing (the reference enumeration
   order), applying the composite action directly; this settles almost
   every non-right-veering word cheaply because short witnesses are
   common, and each hit is again certified by the exact side test;
4. exhaustively search all arcs with at most ``bound`` crossings by
   depth-first extension of the crossing word, maintaining the reduced
   image word incrementally.  One exact device keeps this tractable,
   an order-interval prune.  The 12-gon alternates cut sides and ports,
   so the leftmost and rightmost completed arcs below a node u are u
   itself, ended at the two ports next to the re-entry edge of its last
   letter (``_HI_PORT``, ``_LO_PORT``).  Images preserve the side order
   (they come from a homeomorphism fixing the boundary; the model
   certifies this at build time), so when the image of the leftmost is
   not left of the rightmost, the subtree holds no witness.  The prune is
   conservative, so exhausting the tree certifies "no witness up to
   bound".  The search recurses once per crossing, which is why the bound
   is capped at ``MAX_BOUND``.

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
every defining word of its entry.  The certifiers share their images
rather than recompute them: each polyline is spliced once for both
twist signs, the order battery takes each arc's image under each word
once and compares every pair from those images, and a sweep substitutes
each crossing word once for all of its (start, end) port pairs.
``Model.build_s`` and ``Model.library_build_s`` record the CPU seconds
of the two builds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import geometry
from .errors import InvariantViolation, MalformedArcError, PreconditionError
from .invariant import SLOPES, _invariant, _terms, right_veering
from .invariant import equal_in_mcg  # noqa: F401  (re-exported)
from .words import (BOUNDARY, GENERATORS, format_word,
                    free_reduce, parse)

LEFT = "Left"
RIGHT = "Right"
EQUAL = "Equal"

PORTS = geometry.PORTS
PORT_IDX = {p: i for i, p in enumerate(PORTS)}
_EDGE_OF_PORT = tuple(geometry.port_edge(p) for p in PORTS)
_LETTERS = (1, -1, 2, -2, 3, -3)
# 12-gon edge a strand leaves through when its next crossing is the
# letter, and the edge it re-enters through after crossing it
_EXIT = {x: geometry.exit_edge(x) for x in _LETTERS}
_REENTRY = {x: geometry.reentry_edge(x) for x in _LETTERS}


def _neighbour_port(edge):
    name = geometry.EDGE_CYCLE[edge % 12]
    if name not in PORT_IDX:
        raise InvariantViolation("12-gon edge next to a cut side is not a "
                                 "port", edge=name)
    return PORT_IDX[name]


# Extremal continuations.  After the letter y a strand re-enters the
# 12-gon through a cut side, the one the backtrack -y would leave
# through, so every legal letter and every port leaves at a ccw offset
# 1..11.  The 12-gon alternates cut sides and ports, so both extremes are
# ports: the one just clockwise of the re-entry edge (offset 11, the
# leftmost continuation) and the one just counterclockwise (offset 1,
# the rightmost).
_HI_PORT = {y: _neighbour_port(_REENTRY[y] - 1) for y in _LETTERS}
_LO_PORT = {y: _neighbour_port(_REENTRY[y] + 1) for y in _LETTERS}


# ----------------------------------------------------------------------
# crossing words (tuples of signed cut indices)
# ----------------------------------------------------------------------

def _inv(word):
    return tuple(-x for x in reversed(word))


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
# encoded once, each twist rewrites its crossing word, and the result is
# decoded once (``Model.apply_word``).
# ----------------------------------------------------------------------

_ENCODE = {1: 0x61, -1: 0x41, 2: 0x62, -2: 0x42, 3: 0x63, -3: 0x43}
_DECODE = {0x61: 1, 0x41: -1, 0x62: 2, 0x42: -2, 0x63: 3, 0x43: -3}
_DIGRAMS = (b"aA", b"Aa", b"bB", b"Bb", b"cC", b"Cc")


def _encode(word):
    return bytes(map(_ENCODE.__getitem__, word))


def _decode(s):
    return tuple(map(_DECODE.__getitem__, s))


def _inv_str(s):
    return s[::-1].swapcase()


def _reduce_str(s):
    """Freely reduce by deleting inverse digrams until none remain.
    Each bytes.replace pass runs in C; the pass count is the deepest
    cancellation nesting, which substitution seams keep small in
    practice."""
    while True:
        n = len(s)
        for d in _DIGRAMS:
            if d in s:
                s = s.replace(d, b"")
        if len(s) == n:
            return s


def _cat_str(a, b):
    """Concatenate two freely reduced byte strings, cancelling at the
    seam (XOR 0x20 toggles ASCII case, i.e. inverts one letter)."""
    if not a or not b:
        # most port correction words are empty; no seam to cancel
        return a + b
    i, j = len(a), 0
    n = min(i, len(b))
    while j < n and a[i - 1] == b[j] ^ 0x20:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _image(s, table):
    """The freely reduced image of the freely reduced byte string ``s``
    under a letter-to-word substitution (an ArcAction ``table``).  Letters
    are first renamed to private placeholders in one translate pass so the
    per-letter replace passes cannot re-substitute inside already-inserted
    images.  A table with no pairs fixes every letter (the boundary twists
    b, c and d), so ``s`` is returned as it is, with no reduction pass."""
    trans, pairs = table
    if not pairs:
        return s
    s = s.translate(trans)
    for placeholder, image in pairs:
        s = s.replace(placeholder, image)
    return _reduce_str(s)


@dataclass(frozen=True)
class ArcAction:
    """Action of a mapping class on the arc system: images of the loop
    basis t1..t3 and the six port correction words, all as free-group
    strings."""
    phi: tuple
    w: tuple

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


def _action_from_polygon(polygon):
    """Action data ``(plus, minus)`` of the right and left Dehn twists
    along a curve polygon, read off the spliced basis loops and reference
    arcs (each polyline is spliced once for both signs)."""
    loops = [geometry.splice(loop, polygon) for loop in geometry.BASIS_LOOPS]
    arcs = [geometry.splice(geometry.REFERENCE_ARCS[p][0], polygon)
            for p in PORTS]
    actions = []
    for side in (0, 1):
        vs = [_reduce_str(_encode(geometry.crossing_word(pair[side])))
              for pair in loops]
        phi1 = vs[0]
        phi2 = _cat_str(_inv_str(vs[1]), phi1)
        phi3 = _cat_str(_inv_str(vs[2]), phi2)
        w = [_reduce_str(_encode(geometry.crossing_word(pair[side])))
             for pair in arcs]
        actions.append(ArcAction((phi1, phi2, phi3), tuple(w)))
    return tuple(actions)


# spot patterns of the port correction words of the positive a, e and f
# twists, port by port in PORTS order: the cut that the word's one letter
# crosses, 0 for an empty word, None for a port left unchecked
_PORT_WORD_CUTS = {"a": (0, 1, 1, 1, 1, 1), "e": (0, 0, 0, 2, 2, 2),
                   "f": (None,) * 5 + (0,)}

# word pairs (one positive twist per letter) that the invariant must
# decide as the arc action does: the lantern relations, their reorderings,
# and two pairs of distinct mapping classes
_PIN_CHECKS = (("gef", "abcd"), ("hfe", "abcd"), ("gfe", "abcd"),
               ("hef", "abcd"), ("eeff", "efef"), ("g", "h"))


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """Properly embedded arc: start port, freely reduced crossing word,
    end port.  Use :func:`make_arc` to construct with validation."""
    start: str
    crossings: tuple
    end: str

    def start_boundary(self):
        return geometry.PORT_TO_BOUNDARY[self.start]

    def end_boundary(self):
        return geometry.PORT_TO_BOUNDARY[self.end]


def _checked_word(crossings):
    """``crossings`` as a tuple, and whether it has no backtrack.  Anything
    but a sequence of the ints +-1, +-2 and +-3 is refused
    (``MalformedArcError``); a lookup alone would take True and 1.0, which
    equal 1."""
    try:
        word = tuple(crossings)
    except TypeError:
        raise MalformedArcError("crossings are not a sequence of letters: "
                                "%r" % (crossings,)) from None
    reduced, prev = True, 0
    for x in word:
        if type(x) is not int or x not in _EXIT:
            raise MalformedArcError("bad crossing letter %r" % (x,))
        if x == -prev:
            reduced = False
        prev = x
    return word, reduced


def make_arc(start, crossings, end):
    if start not in PORTS or end not in PORTS:
        raise MalformedArcError("unknown port %r" % ((start, end),))
    word, reduced = _checked_word(crossings)
    if not reduced:
        word = _decode(_reduce_str(_encode(word)))
    return Arc(start, word, end)


def canonical(arc):
    """Freely reduce the crossing word (remove all bigons); idempotent."""
    try:
        start, crossings, end = arc.start, arc.crossings, arc.end
    except AttributeError:
        raise MalformedArcError("not an arc: %r" % (arc,)) from None
    return make_arc(start, crossings, end)


def reverse(arc):
    """The same arc traversed from its other endpoint."""
    return Arc(arc.end, _inv(arc.crossings), arc.start)


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
        start, end = (geometry.BOUNDARY_TO_PORT[tuple(e)] for e in ends)
        raw = list(obj["crossings"])
    except (KeyError, TypeError, IndexError) as exc:
        raise MalformedArcError("bad arc serialization: %s" % (exc,))
    word = []
    for item in raw:
        try:
            label, s = item
        except (TypeError, ValueError):
            raise MalformedArcError("bad crossing entry %r" % (item,))
        if label not in ("d1", "d2", "d3") or s not in ("+", "-"):
            raise MalformedArcError("bad crossing entry %r" % (item,))
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
        raise MalformedArcError("not an arc: %r" % (arc,)) from None
    except TypeError:                   # an unhashable port
        known = False
    if not known:
        raise MalformedArcError("unknown port %r" % ((arc.start, arc.end),))
    if not _checked_word(crossings)[1]:
        raise PreconditionError("arc is not canonical: %r" % (arc,))


def _crossing_image(action, crossings):
    """phi(u): the freely reduced image of a crossing word, as bytes."""
    return _image(_encode(crossings), action.table)


def _port_corrected(action, arc, image):
    """The image of ``arc`` given ``image`` = phi(arc.crossings): the arc
    from the same ports with crossing word  W_s^{-1} · phi(u) · W_t."""
    word = _cat_str(_cat_str(action.w_inv[PORT_IDX[arc.start]], image),
                    action.w[PORT_IDX[arc.end]])
    return Arc(arc.start, _decode(word), arc.end)


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
    return _side(alpha, beta)


def _side(alpha, beta):
    """:func:`side_at_start` for arcs the engine built itself, canonical by
    construction: the library arcs (certified when the library is built)
    and the images a fold or a sweep computes."""
    if alpha.start != beta.start:
        raise PreconditionError("arcs start on different ports")
    u, v = alpha.crossings, beta.crossings
    k = 0
    while k < len(u) and k < len(v) and u[k] == v[k]:
        k += 1
    if k == len(u) == len(v) and alpha.end == beta.end:
        return EQUAL
    exit_a = _EXIT[u[k]] if k < len(u) else _EDGE_OF_PORT[PORT_IDX[alpha.end]]
    exit_b = _EXIT[v[k]] if k < len(v) else _EDGE_OF_PORT[PORT_IDX[beta.end]]
    try:
        return LEFT if _turns_left(PORT_IDX[alpha.start], u, k,
                                   exit_b, exit_a) else RIGHT
    except InvariantViolation as exc:
        exc.details.update(alpha=str(alpha), beta=str(beta))
        raise


def _turns_left(s_idx, prefix, k, exit_a, exit_b):
    """The side rule: two strands from port ``s_idx`` share the crossings
    ``prefix[:k]``, then leave the 12-gon through edges ``exit_a`` and
    ``exit_b``.  Whether the first passes left of the second, i.e. has the
    larger counterclockwise offset from their common entry edge."""
    if exit_a == exit_b:
        raise InvariantViolation("divergent arcs share an exit edge")
    entry = _EDGE_OF_PORT[s_idx] if k == 0 else _REENTRY[prefix[k - 1]]
    return (exit_a - entry) % 12 > (exit_b - entry) % 12


# ----------------------------------------------------------------------
# witness library plumbing
# ----------------------------------------------------------------------

class LibraryEntry(NamedTuple):
    name: str
    patterns: tuple          # defining monodromy word(s), certified Left
    arc: Arc
    kind: tuple              # ("neg", k) | ("zero", k) | ("cross",)


@dataclass(frozen=True)
class RVReport:
    """Outcome of a bounded left-witness search: the witness arc, or None
    when no arc of at most ``bound`` crossings is one."""
    bound: int
    word: tuple
    witness: Arc | None = None

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
        start = time.process_time()
        geometry.validate_model_data()
        self.tables = {}
        for name in GENERATORS:
            plus, minus = _action_from_polygon(geometry.CURVE_POLYGONS[name])
            if _compose(plus, minus) != IDENTITY_ACTION \
                    or _compose(minus, plus) != IDENTITY_ACTION:
                raise InvariantViolation("twist inverse pair failed",
                                         curve=name)
            self.tables[name] = (plus, minus)
        self._certify_tables()
        self._certify_slopes()
        self._piece_cache = {}
        self._action_cache = {}
        self._rv_cache = {}
        self.library_build_s = None
        self.build_s = time.process_time() - start

    # -- construction-time certification --------------------------------

    def _letters_action(self, letters):
        """Action of a sequence of (letter, sign) pairs, leftmost first."""
        acc = IDENTITY_ACTION
        for letter, sign in letters:
            acc = _compose(acc, self.tables[letter][0 if sign > 0 else 1])
        return acc

    def _certify_slopes(self):
        """The invariant, with the slopes :mod:`.invariant` states, decides
        every pair of ``_PIN_CHECKS`` as the arc action does."""
        for pair in _PIN_CHECKS:
            t1, t2 = (tuple((x, 1) for x in w) for w in pair)
            by_action = self._letters_action(t1) == self._letters_action(t2)
            if by_action != (_invariant(SLOPES, t1) == _invariant(SLOPES, t2)):
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
                crossed = [abs(x) for x in _decode(word)]
                if cut is not None and crossed != ([cut] if cut else []):
                    raise InvariantViolation(
                        "%s-table correction words off-pattern" % letter)

    # -- word -> action --------------------------------------------------

    def piece_action(self, letter, exp):
        key = (letter, exp)
        hit = self._piece_cache.get(key)
        if hit is None:
            base = self.tables[letter][0 if exp > 0 else 1]
            acc = base if exp else IDENTITY_ACTION
            for _ in range(abs(exp) - 1):
                acc = _compose(acc, base)
            hit = self._piece_cache[key] = acc
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
        return _port_corrected(action, arc,
                               _crossing_image(action, arc.crossings))

    def apply_word(self, arc, word):
        """Apply a word to one arc, folding term by term in bytes: the
        arc is encoded once, each twist's step runs on the encoded crossing
        word, and the image is decoded once (cheaper than materializing the
        composite action when only one image is needed)."""
        _require_canonical(arc)
        return self._fold(arc, free_reduce(word))

    def _fold(self, arc, terms):
        """The image of the canonical ``arc`` under the freely reduced
        ``terms``.  The ports are fixed, so each term's step is
        c <- W_s^{-1} . reduce(phi(c)) . W_t  on the encoded word c."""
        s, t = PORT_IDX[arc.start], PORT_IDX[arc.end]
        word = _encode(arc.crossings)
        for letter, exp in terms:
            action = self.piece_action(letter, exp)
            word = _cat_str(_cat_str(action.w_inv[s],
                                     _image(word, action.table)),
                            action.w[t])
        return Arc(arc.start, _decode(word), arc.end)

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
        crossings = [(), (1,), (-1,), (2,), (-2, 3), (2, -3, 1)]
        for start in ("P1", "P2b", "P4"):
            arcs = [Arc(start, u, t) for u in crossings for t in PORTS]
            # images[k][i]: the image of arcs[i] under actions[k]
            images = [[self.apply_action(action, arc) for arc in arcs]
                      for action in actions]
            for i, alpha in enumerate(arcs):
                for j, beta in enumerate(arcs[i + 1:], start=i + 1):
                    base = side_at_start(alpha, beta)
                    for image in images:
                        moved = side_at_start(image[i], image[j])
                        if moved != base:
                            raise InvariantViolation(
                                "image does not preserve the side order",
                                alpha=str(alpha), beta=str(beta))


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
        raise PreconditionError("unknown curve %r" % (curve,))
    if type(sign) is not int or sign not in (1, -1):
        raise PreconditionError("sign must be the int +1 or -1, got %r"
                                % (sign,))
    model = get_model()
    _require_canonical(arc)
    return model.apply_action(model.tables[curve][0 if sign > 0 else 1], arc)


def apply_word(arc, w):
    """Image of ``arc`` under a word (leftmost letter acts first)."""
    if isinstance(w, str):
        w = parse(w)
    return get_model().apply_word(arc, w)


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
    """All freely reduced crossing words of exactly ``length`` letters, in
    lexicographic order over the letter order +1, -1, +2, -2, +3, -3."""
    if length == 0:
        yield ()
        return
    for prefix in _iter_reduced_words(length - 1):
        for x in _LETTERS:
            if not prefix or x != -prefix[-1]:
                yield prefix + (x,)


def _canonical_sweep(action, depth):
    """First arc (length-major, then start port, then word, then end port)
    with at most ``depth`` crossings whose image under ``action`` leaves to
    its left.  The reference enumeration: exhaustive and unpruned."""
    # phi(u) does not depend on the ports, so each crossing word is
    # substituted once and shared by all its (start, end) pairs
    images = {}
    for n in range(depth + 1):
        for s in PORTS:
            for u in _iter_reduced_words(n):
                image = images.get(u)
                if image is None:
                    image = images[u] = _crossing_image(action, u)
                for t in PORTS:
                    arc = Arc(s, u, t)
                    if _side(arc, _port_corrected(action, arc, image)) == LEFT:
                        return arc
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
    """Certify every entry through the public path: each of its patterns
    moves its arc to the arc's own left."""
    for entry in _LIBRARY:
        for pattern in entry.patterns:
            img = model.apply_word(entry.arc, pattern)
            if side_at_start(entry.arc, img) != LEFT:
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

def _probe_score(entry, sums):
    kind = entry.kind
    if kind[0] == "neg":
        return 0 if sums.get(BOUNDARY[kind[1] - 1], 0) < 0 else 2
    if kind[0] == "zero":
        zero = sums.get(BOUNDARY[kind[1] - 1], 0) == 0
        return 0 if zero and min(sums.get("e", 0), sums.get("f", 0)) < 0 else 2
    return 1 if sums.get("e", 0) < 0 and sums.get("f", 0) < 0 else 2


def _rank_library(terms):
    """The library indices of the two probe passes, each entry scored once
    on the exponent sums of ``terms``: the entries scoring < 2, cheapest
    first and ties in library order, then the rest in library order."""
    sums = {}
    for letter, exp in terms:
        sums[letter] = sums.get(letter, 0) + exp
    cheap, rest = [], []
    for i, entry in enumerate(_LIBRARY):
        score = _probe_score(entry, sums)
        if score < 2:
            cheap.append((score, i))
        else:
            rest.append(i)
    cheap.sort()
    return [i for _, i in cheap], rest


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
            if _side(arc, model._fold(arc, terms)) == LEFT:
                return arc
    return None


def _dfs_search(model, action, bound):
    """Exhaustive pruned search for a left witness with at most ``bound``
    crossings.  Returns the first witness in the documented depth-first
    order, or None after certifying the whole tree."""
    PHI = {}
    for i, p in enumerate(action.phi, start=1):
        PHI[i] = _decode(p)
        PHI[-i] = _inv(PHI[i])
    W = [_decode(v) for v in action.w]
    max_w = max((len(v) for v in W), default=0)

    def overlap(stack, wt):
        j = 0
        ls, lw = len(stack), len(wt)
        while j < ls and j < lw and stack[ls - 1 - j] == -wt[j]:
            j += 1
        return j

    def image_left(u, Q, len_common, s_idx, t_img, t_arc):
        """Whether the image of (s, u, t_img), whose crossing word is
        Q·W[t_img] freely reduced, lies left of (s, u, t_arc); False when
        equal.  Q and u share their first ``len_common`` letters."""
        wt = W[t_img]
        p = overlap(Q, wt)
        keep = len(Q) - p       # the image word is Q[:keep] + wt[p:]
        len_u, len_img = len(u), len(Q) + len(wt) - 2 * p
        j = min(len_common, keep)
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
        return _turns_left(s_idx, u, j, exit_img, exit_arc)

    def node(u, Q, len_common, rem, s_idx):
        """Explore the subtree rooted at crossing word ``u``: its first
        left witness, or None."""
        len_u, len_q = len(u), len(Q)
        in_word = len_common < len_u

        if in_word and len_q - len_common > max_w:
            # image diverged inside the word for every completion: one
            # comparison decides them all
            if _turns_left(s_idx, u, len_common, _EXIT[Q[len_common]],
                           _EXIT[u[len_common]]):
                return Arc(PORTS[s_idx], tuple(u), PORTS[0])
        else:
            for t in range(6):
                if image_left(u, Q, len_common, s_idx, t, t):
                    return Arc(PORTS[s_idx], tuple(u), PORTS[t])
        # order-interval prune (module docstring, step 4): the image of
        # the leftmost completion is not left of the rightmost one
        if rem == 0 or (in_word and not image_left(
                u, Q, len_common, s_idx, _HI_PORT[u[-1]], _LO_PORT[u[-1]])):
            return None

        last = u[-1] if u else 0
        for x in _LETTERS:
            if x == -last:
                continue
            px = PHI[x]
            p = overlap(Q, px)
            popped = Q[len_q - p:]
            del Q[len_q - p:]
            Q.extend(px[p:])
            u.append(x)
            lc = min(len_common, len_q - p)
            nq = len(Q)
            while lc < len_u + 1 and lc < nq and u[lc] == Q[lc]:
                lc += 1
            arc = node(u, Q, lc, rem - 1, s_idx)
            if arc is not None:
                return arc
            u.pop()
            del Q[len_q - p:]
            Q.extend(popped)
        return None

    for s_idx in range(6):
        arc = node([], list(_inv(W[s_idx])), 0, bound, s_idx)
        if arc is not None:
            if side_at_start(arc, model.apply_action(action, arc)) != LEFT:
                raise InvariantViolation("search produced a bad witness",
                                         arc=str(arc))
            return arc
    return None


def _rv_search(terms, bound):
    """The search of the module docstring: the first left witness of the
    freely reduced ``terms`` within ``bound`` crossings, or None.  The
    model is built only when a probe pass has a candidate or the class is
    not right-veering; only the sweep and depth-first answers are memoized."""
    if not terms:           # the identity: no witness, and no prune cuts
        return None         # its depth-first tree
    cheap, rest = _rank_library(terms)
    arc = _probe(cheap, terms)
    if arc is not None or right_veering(terms)[0]:
        return arc
    arc = _probe(rest, terms)
    if arc is not None:
        return arc
    model = get_model()
    key = (terms, bound)
    if key in model._rv_cache:
        return model._rv_cache[key]
    action = model.word_action(terms)
    # an Arc is always truthy
    arc = (_canonical_sweep(action, min(1, bound))
           or _dfs_search(model, action, bound))
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
        raise PreconditionError("bound must be an int, got %r" % (bound,))
    if bound < 1:
        raise PreconditionError("bound must be >= 1, got %d" % bound)
    if bound > MAX_BOUND:
        raise PreconditionError("bound must be <= %d, got %d"
                                % (MAX_BOUND, bound))


def is_right_veering_upto(w, bound=12):
    """Search every arc of at most ``bound`` crossings for one mapped to
    its own left at its start point.  Returns an :class:`RVReport` whose
    outcome is ``NotRightVeering`` (with the certified witness arc and its
    boundary component) or ``NoWitnessUpToBound``.

    Deterministic for fixed input: the witness, when one exists, is the
    first found in the documented probe/sweep/depth-first order (module
    docstring); a no-witness answer certifies the whole bounded tree."""
    validate_bound(bound)
    if isinstance(w, str):
        w = parse(w)
    return RVReport(bound, w, _rv_search(free_reduce(w), bound))


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
