"""Rewriting monodromy words to reduced form via the lantern relations.

The two interior curve pairs satisfy the lantern relations

    g e f = a b c d        h f e = a b c d

(all twists right-handed, leftmost acting first), which give the
substitutions  g = a b c d f^-1 e^-1  and  h = a b c d e^-1 f^-1.
Eliminating g and h and using centrality of the boundary twists, every
monodromy word is equal in the mapping class group to

    a^{r1} b^{r2} c^{r3} d^{r4} e^{m_1} f^{n_1} ... e^{m_s} f^{n_s}

where only m_1 or n_s may vanish.  :class:`ReducedForm` stores the
exponent data (r, blocks) and :func:`expand` maps it back to a word.
:func:`reduce` computes it in one merge: g^k adds k to each boundary
exponent once and stands for (f^-1 e^-1)^k, or (e f)^-k when k < 0 (h
for (e^-1 f^-1)^k or (f e)^-k), whose terms are merged one by one only
while they cancel the runs before them; the rest is appended whole.
The reduced form is unique: two words are equal in the mapping class
group exactly when their reduced forms coincide, because the boundary
twists span a central Z^4 factor and e, f generate a free group, so the
freely reduced e/f word is a normal form.  This is a tested property
(``reduce(w1) == reduce(w2)`` iff ``equal_in_mcg``).

Conjugate monodromies carry the same contact-geometric labels, so the
classifier merges its rules over every cyclic rotation of the interior
letter sequence (:func:`cyclic_rotations`; the boundary part is central
and stays put) and the e/f relabeling symmetry (:func:`mirror_ef`).
Both work on the interior's alternating (letter, exponent) runs, the
e/f terms of :func:`expand`, and need no free reduction: the
conjugating prefix is peeled run by run, each rotation splits at most
one run, and the mirror only swaps letters, which keeps the runs
alternating.  The rotations fall into at most three classes that carry
the same tags (:func:`_rotation_classes` says why), and only the first
rotation of each is read.

:func:`positive_factorization` implements the constructive fillability
argument on the first rotation that meets a rule; rotation 0 is the form
itself when nothing is peeled.  Negative interior powers are eliminated
through the lantern substitutions (each e^-1 costs one a^-1 b^-1 c^-1
d^-1 h f, each f^-1 one a^-1 b^-1 c^-1 d^-1 g e, with cheaper junction
variants when s = 1), consuming boundary twists.  Each rule's cost in
boundary twists is stated once, by :func:`_rule_and_cost`, and the rule
holds exactly when min r covers it.  Every produced word is certified by
the exact equality oracle of :mod:`lanternbook.invariant` (slope
matrices plus exponent class) before being returned.
"""

from __future__ import annotations

import json

from .errors import InvariantViolation, PreconditionError, shown, unprintable
from .invariant import _terms, equal_in_mcg
from .words import (BOUNDARY, Value, Word, _merge, concat, format_word,
                    free_reduce, invert, parse)

# the e/f part of the substitution of g^k and h^k for k < 0 and k > 0
_PATTERNS = {"g": ((("e", 1), ("f", 1)), (("f", -1), ("e", -1))),
             "h": ((("f", 1), ("e", 1)), (("e", -1), ("f", -1)))}
# the most g and h letters (sum of |exponent|) a normal form substitutes:
# ``reduce g^100000`` takes 0.09 s of CPU and 32 MB (Python 3.11.7, x86-64)
GH_LIMIT = 100000
# the most core letters whose rotations are listed, one form each:
# ``canonical_form`` of ``e^99999 f`` takes 0.77 s of CPU and 56 MB (ditto)
CORE_LIMIT = 100000


class ReducedForm(Value):
    """Exponent data of a word in reduced form: ``r`` holds the four
    boundary-twist exponents (of a, b, c, d), ``blocks`` the alternating
    interior part as pairs (m_i, n_i) meaning e^{m_i} f^{n_i}.  Interior
    exponents are nonzero except possibly the leading m_1 and trailing
    n_s; ``blocks = ()`` encodes a pure boundary-twist word.  Every
    exponent must be an ``int`` (``bool`` is refused, nothing is
    coerced)."""

    r: tuple
    blocks: tuple

    def __init__(self, r, blocks):
        try:
            exps = tuple(r)
            blocks = tuple([(m, n) for m, n in blocks])
        except (TypeError, ValueError) as exc:
            raise PreconditionError("malformed r or blocks: %s" % exc) \
                from None
        if len(exps) != 4:
            raise PreconditionError(
                "r must have four components, got %s" % shown(r))
        for x in exps:
            if type(x) is not int:
                raise PreconditionError("exponent is not an int: %s"
                                        % shown(x))
        for i, (m, n) in enumerate(blocks):
            if type(m) is not int or type(n) is not int:
                raise PreconditionError("exponent is not an int: %s"
                                        % shown((m, n)))
            if m == 0 and i > 0:
                raise PreconditionError(
                    "zero e-exponent inside blocks %s (index %d)"
                    % (shown(blocks), i))
            if n == 0 and i < len(blocks) - 1:
                raise PreconditionError(
                    "zero f-exponent inside blocks %s (index %d)"
                    % (shown(blocks), i))
        if blocks == ((0, 0),):
            blocks = ()
        object.__setattr__(self, "r", exps)
        object.__setattr__(self, "blocks", blocks)

    @property
    def s(self) -> int:
        """Number of blocks of the (unique) reduced form."""
        return len(self.blocks)

    def __str__(self):
        word = expand(self)
        return format_word(word) if word else "(identity)"


def _require_form(rf) -> None:
    if not isinstance(rf, ReducedForm):
        raise PreconditionError("not a ReducedForm: %s" % shown(rf))


def rf_to_json(rf: ReducedForm) -> str:
    _require_form(rf)
    try:
        return json.dumps({"r": list(rf.r),
                           "blocks": [list(b) for b in rf.blocks]})
    except ValueError:                  # past the int-to-string digit limit
        raise unprintable() from None


def rf_from_json(doc) -> ReducedForm:
    """Rebuild a :class:`ReducedForm` from serialized text or an already
    decoded document."""
    try:
        data = json.loads(doc) if isinstance(doc, (str, bytes)) else doc
        return ReducedForm(tuple(data["r"]),
                           tuple((m, n) for m, n in data["blocks"]))
    except PreconditionError:
        raise
    except Exception as exc:
        raise PreconditionError("not a reduced-form document: %s" % exc)


def substitute_gh(w) -> Word:
    """Eliminate g and h through the lantern substitutions
    g = a b c d f^-1 e^-1, h = a b c d e^-1 f^-1; the result is freely
    reduced and has the same exponent class: the expansion of
    :func:`reduce`."""
    rf = reduce(w)
    return _expanded(rf.r, rf.blocks)


def _pack(interior) -> tuple:
    """Pack an alternating e/f term list (nonzero exponents, no two
    adjacent equal letters) into (m_i, n_i) block pairs."""
    exps = [0] if interior and interior[0][0] == "f" else []
    exps += [exp for _, exp in interior] + [0]   # n = 0 after a last e-run
    return tuple(zip(exps[::2], exps[1::2]))


def reduce(w) -> ReducedForm:
    """Rewrite ``w`` to reduced form: substitute away g and h, pull the
    central boundary twists to the front, merge and cancel adjacent e/f
    powers to a fixpoint, and pack the alternating remainder into
    blocks.  The expansion of the result is equal to ``w`` in the
    mapping class group, and equal words get equal forms."""
    r = dict.fromkeys(BOUNDARY, 0)
    interior = _merge(_terms(w), r, _PATTERNS, GH_LIMIT)
    return ReducedForm(tuple(r.values()), _pack(interior))


def _runs(blocks) -> list:
    """The interior ``blocks`` as alternating (letter, exponent) runs
    with nonzero exponents: the e/f terms of :func:`expand`."""
    runs = []
    for m, n in blocks:
        if m:
            runs.append(("e", m))
        if n:
            runs.append(("f", n))
    return runs


def _expanded(r, blocks) -> Word:
    """:func:`expand` on the raw exponent tuples of a reduced form."""
    boundary = [(letter, exp) for letter, exp in zip(BOUNDARY, r) if exp]
    return tuple(boundary + _runs(blocks))


def expand(rf: ReducedForm) -> Word:
    """The word a^{r1} b^{r2} c^{r3} d^{r4} e^{m_1} f^{n_1} ... named by
    the reduced form (zero exponents omitted)."""
    _require_form(rf)
    return _expanded(rf.r, rf.blocks)


def _peel(rf: ReducedForm):
    """Split the interior runs as  p . core . p^-1  with the core
    cyclically reduced (its first letter is not the inverse of its last)
    and return the run lists (p, core).  End runs x^a ... x^b with a, b
    of opposite signs each give up min(|a|, |b|) letters to p; peeling
    goes on only when both vanish.  The core of a nonempty interior is
    nonempty, and equal end letters of a core have equal signs."""
    _require_form(rf)
    runs = _runs(rf.blocks)
    prefix = []
    lo, hi = 0, len(runs) - 1
    while lo < hi and runs[lo][0] == runs[hi][0] \
            and (runs[lo][1] > 0) != (runs[hi][1] > 0):
        (x, a), (_, b) = runs[lo], runs[hi]
        t = a if abs(a) <= abs(b) else -b   # min(|a|, |b|) letters of x^a
        prefix.append((x, t))
        runs[lo], runs[hi] = (x, a - t), (x, b + t)
        # a run that survives differs in letter from the other new end
        lo, hi = lo + (a == t), hi - (b == -t)
    return prefix, runs[lo:hi + 1]


def _joined(core):
    """The cyclic runs of a :func:`_peel` core, equal end letters (which
    carry equal signs) joined into the first run, and the number of
    letters of that run which precede the core's own start.  A nonempty
    core has 1 cyclic run or an even number of them."""
    if len(core) > 1 and core[0][0] == core[-1][0]:
        return abs(core[-1][1]), \
            [(core[0][0], core[0][1] + core[-1][1])] + core[1:-1]
    return 0, core


def _turned(runs, j, o):
    """The blocks of the cyclic ``runs`` read from ``o`` letters into run
    ``j`` (o has the sign of the run, 0 for its start): the split run's
    parts land at the two ends."""
    x, a = runs[j]
    split = [(x, a - o)] + runs[j + 1:] + runs[:j]
    if o:
        split.append((x, o))
    return _pack(split)


def cyclic_rotations(rf: ReducedForm):
    """All reduced forms obtained by cyclically rotating the interior
    e/f letter sequence (the central boundary part stays put).

    The rotations are those of the cyclically reduced core left by
    :func:`_peel`; index k rotates by k core letters, so a core of L
    letters has L rotations.  Rotation 0 is the core itself, hence
    ``rf`` when nothing is peeled.  Rotations of a cyclically reduced
    sequence stay freely and cyclically reduced, so every member of the
    returned list has exactly this list as its own rotations; the list
    is a conjugacy-class invariant, which is what makes merged
    classification consistent across conjugates.  A pure boundary word
    has itself as the only rotation.  A core of more than
    :data:`CORE_LIMIT` letters is refused before any rotation is made."""
    prefix, core = _peel(rf)
    size = sum(abs(exp) for _, exp in core)
    if size > CORE_LIMIT:
        raise PreconditionError("too many rotations: a core of %s letters, "
                                "past the limit of %d" % (shown(size),
                                                          CORE_LIMIT))
    first = ReducedForm(rf.r, _pack(core)) if prefix else rf
    if len(core) <= 1:      # every rotation of one run is the run itself
        return [first] * (abs(core[0][1]) if core else 1)
    head, runs = _joined(core)
    # each cut is (run, letters into it), listed from the start of the
    # joined run; rotation 0 starts head letters later
    cuts = [(j, o) for j, (_, a) in enumerate(runs)
            for o in range(0, a, 1 if a > 0 else -1)]
    return [first] + [ReducedForm(rf.r, _turned(runs, j, o))
                      for j, o in cuts[head + 1:] + cuts[:head]]


def _rotation_classes(rf: ReducedForm):
    """Yield ``(k, r, blocks)``, the exponent tuples of rotation k of
    :func:`cyclic_rotations`, for the first rotation of each tag class,
    in rotation order from rotation 0.  The rotations of one class and
    their :func:`mirror_ef` images have one fillability rule
    (:func:`_h_rule`) and one special shape of :mod:`lanternbook.classify`
    (exponents m, n, or none), and the tags read nothing else but r:

    - **0 or 1 cyclic runs:** one class; a run turned is itself.
    - **L >= 4 cyclic runs:** one class.  A rotation has L or L + 1
      runs, so it and its mirror pack into 3 blocks or more, or 2 with
      no zero edge exponent: no special shape, and only H4 can hold,
      which reads min r and the sum of the negative interior exponents.
      Rotating splits a run into parts of its sign or joins the end
      runs, which have equal signs, and mirroring permutes r and swaps
      e with f; neither changes min r or the sum, which is the core's
      (the peeled prefix and its inverse would add to it).
    - **2 cyclic runs, e^m and f^n:** three classes, the rotation that
      starts at e^m (one block), the one that starts at f^n (whose
      mirror is one block), and those that split a run: e^(m-o) f^n e^o
      packs into ((m-o, n), (o, 0)) and f^(n-o) e^m f^o into
      ((0, n-o), (m, o)).  These all have two blocks, the special shape
      (m, n) and the H4 cost of the negative parts of m and n, and their
      mirrors have two blocks, the shape (n, m) and that cost."""
    prefix, core = _peel(rf)
    r = rf.r
    yield 0, r, _pack(core) if prefix else rf.blocks
    head, runs = _joined(core)
    if len(runs) != 2:
        return
    (_, a), (_, b) = runs       # x^a y^b, rotation 0 starting in x^a
    k = abs(a) - head           # rotation k starts at y^b
    if head:                    # rotation 0 splits x^a
        yield k, r, _turned(runs, 1, 0)
        yield k + abs(b), r, _turned(runs, 0, 0)
    elif abs(a) > 1:            # rotation 0 starts at x^a, 1 splits it
        yield 1, r, _turned(runs, 0, 1 if a > 0 else -1)
        yield k, r, _turned(runs, 1, 0)
    else:                       # the first split, if any, is of y^b
        yield k, r, _turned(runs, 1, 0)
        if abs(b) > 1:
            yield k + 1, r, _turned(runs, 1, 1 if b > 0 else -1)


def rotation_conjugator(rf: ReducedForm, k: int) -> Word:
    """The word u with  u^-1 . expand(rf) . u  equal in the mapping
    class group to the expansion of rotation k: the peeled conjugating
    prefix followed by the first k core letters."""
    prefix, core = _peel(rf)
    if type(k) is not int:
        raise PreconditionError("k must be an int, got %s" % shown(k))
    k %= sum(abs(exp) for _, exp in core) or 1
    head = []
    for letter, exp in core:    # the zero tails are dropped by concat
        take = min(abs(exp), k)
        head.append((letter, take if exp > 0 else -take))
        k -= take
    return concat(prefix, head)


def canonical_form(rf: ReducedForm) -> ReducedForm:
    """The lexicographically minimal (r, flattened blocks) member of the
    rotation class.  Because the rotation list is shared by the whole
    conjugacy class of the interior word, this is a deterministic
    census key for it."""
    return min(cyclic_rotations(rf),
               key=lambda rho: tuple(x for b in rho.blocks for x in b))


def _mirrored(r, blocks):
    """:func:`mirror_ef` on the exponent tuples of a reduced form: the
    exponents of f^m1 e^n1 ... f^ms e^ns, packed."""
    r1, r2, r3, r4 = r
    exps = [0]
    for block in blocks:
        exps += block
    exps.append(0)
    exps = exps[2 * (exps[1] == 0):len(exps) - 2 * (exps[-2] == 0)]
    return (r3, r2, r1, r4), tuple(zip(exps[::2], exps[1::2]))


def mirror_ef(rf: ReducedForm) -> ReducedForm:
    """The reduced form of the image under the half-turn symmetry that
    exchanges e with f (and relabels the boundary a <-> c, fixing b and
    d, hence r -> (r3, r2, r1, r4)); no reduction is needed."""
    _require_form(rf)
    return ReducedForm(*_mirrored(rf.r, rf.blocks))


# ----------------------------------------------------------------------
# positive factorizations
# ----------------------------------------------------------------------

class PositiveFactorization(Value):
    """A positive word equal in the mapping class group to
    conjugator^-1 · expand(rotation of the input) · conjugator, together
    with the rule and rotation that produced it.  Construction certifies
    the equality through the exact equality oracle, so existence implies
    validity."""

    word: Word
    rule: str
    rotation: int
    conjugator: Word

    def __init__(self, word, rule, rotation, conjugator):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "conjugator", conjugator)

    def __str__(self):
        return format_word(self.word) if self.word else "(empty product)"


_HF = parse("h f")    # replaces e^-1, costs one boundary multiindex
_GE = parse("g e")    # replaces f^-1


def _rule_and_cost(blocks):
    """The one fillability rule whose shape ``blocks`` (at least one
    block) have, and the number of boundary multiindices its
    factorization spends; the rule holds exactly when min r covers that
    cost.  Each e^-1 and f^-1 costs one (by ``_HF`` and ``_GE``), except
    at the junction of one all-negative block: H2 saves one there and
    H3, which also conjugates by f, saves two."""
    m1, n1 = blocks[0]
    if len(blocks) > 1 or max(m1, n1) >= 0:
        cost = 0
        for m, n in blocks:
            if m < 0:
                cost -= m
            if n < 0:
                cost -= n
        return "H4" if len(blocks) > 1 else "H1", cost
    if max(m1, n1) == -1:
        return "H2", -m1 - n1 - 1
    return "H3", -m1 - n1 - 2


def _h_rule(r, blocks):
    """The fillability rule the exponents (r, blocks) of a reduced form
    satisfy, or None: the one rule of its shape (:func:`_rule_and_cost`),
    when min r covers that rule's cost.  This is the package's one
    statement of the rules; :mod:`lanternbook.classify` tags with it."""
    rule, cost = _rule_and_cost(blocks or ((0, 0),))
    return rule if min(r) >= cost else None


def _factor_words(r, blocks, rule: str):
    """The positive word and conjugator for the exponents (r, blocks) of
    a reduced form satisfying ``rule``, by the constructive
    substitutions (see module docstring): the boundary twists left after
    the rule's cost, then the interior with its negative powers
    substituted, merged once."""
    blocks = blocks or ((0, 0),)
    _, cost = _rule_and_cost(blocks)
    terms = [(letter, x - cost) for letter, x in zip(BOUNDARY, r)]
    m1, n1 = blocks[0]
    if rule in ("H1", "H4"):
        for m, n in blocks:
            terms += _HF * -m if m < 0 else (("e", m),)
            terms += _GE * -n if n < 0 else (("f", n),)
    elif rule == "H2" and m1 == -1:
        # e^-1 f^-1 -> (abcd)^-1 h, then each remaining f^-1
        terms += (("h", 1),) + _GE * (-n1 - 1)
    elif rule == "H2":
        # n1 == -1: each e^-1 but the last, then the junction pair
        terms += _HF * (-m1 - 1) + (("h", 1),)
    else:
        # H3: first e^-1 -> (abcd)^-1 f g, junction pair -> (abcd)^-1 h,
        # remaining powers in place, and the leading f cancels the final
        # f^-1 after conjugating by f.
        terms += (("g", 1),) + _HF * (-m1 - 2) + (("h", 1),) \
            + _GE * (-n1 - 2)
        return free_reduce(terms), (("f", 1),)
    return free_reduce(terms), ()


def positive_factorization(rf: ReducedForm):
    """A :class:`PositiveFactorization` for the first cyclic rotation of
    ``rf`` satisfying a fillability rule, or None when no rotation does.
    Only the first rotation of each tag class is tested, in rotation
    order (:func:`_rotation_classes`).  The output word has strictly
    positive exponents and is certified equal (after undoing the
    recorded conjugator) to the expansion of that rotation by the exact
    equality oracle; certification failure is an invariant-violation
    fault, not a None."""
    for k, r, blocks in _rotation_classes(rf):
        rule = _h_rule(r, blocks)
        if rule is None:
            continue
        word, conjugator = _factor_words(r, blocks, rule)
        if any(exp <= 0 for _, exp in word):
            raise InvariantViolation("factorization is not positive",
                                     word=format_word(word), rule=rule)
        reference = _expanded(r, blocks)
        candidate = concat(conjugator, word, invert(conjugator)) \
            if conjugator else word     # word is freely reduced already
        if candidate != reference and not equal_in_mcg(candidate, reference):
            raise InvariantViolation("factorization failed certification",
                                     word=format_word(word), rule=rule,
                                     rotation=k)
        return PositiveFactorization(word, rule, k, conjugator)
    return None
