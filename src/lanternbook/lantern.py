"""Rewriting monodromy words to reduced form via the lantern relations.

The two interior curve pairs satisfy the lantern relations

    g e f = a b c d        h f e = a b c d

(all twists right-handed, leftmost acting first), which give the
substitutions  g = a b c d f^-1 e^-1  and  h = a b c d e^-1 f^-1.
Eliminating g and h and using centrality of the boundary twists, every
monodromy word is equal in the mapping class group to

    a^{r1} b^{r2} c^{r3} d^{r4} e^{m_1} f^{n_1} ... e^{m_s} f^{n_s}

where only m_1 or n_s may vanish.  :class:`ReducedForm` stores the
exponent data (r, blocks); :func:`reduce` computes it, :func:`expand`
maps back to a word.  The reduced form is unique: two words are equal
in the mapping class group exactly when their reduced forms coincide,
because the boundary twists span a central Z^4 factor and e, f generate
a free group, so the freely reduced e/f word is a normal form.  This is
a tested property (``reduce(w1) == reduce(w2)`` iff ``equal_in_mcg``).

Conjugate monodromies carry the same contact-geometric labels, so the
classifier consumes every cyclic rotation of the interior letter
sequence (:func:`cyclic_rotations`; the boundary part is central and
stays put) and the e/f relabeling symmetry (:func:`mirror_ef`), unless
the cyclically reduced core has four or more cyclic runs.  Then every
rotation and mirror carries the same fillability rule
(:func:`_cyclic_runs`) and the same tags
(:func:`lanternbook.classify.classify`), and rotation 0 alone is read.
Both work on the interior's alternating (letter, exponent) runs, the
e/f terms of :func:`expand`, and need no free reduction: the
conjugating prefix is peeled run by run, each rotation splits at most
one run, and the mirror only swaps letters, which keeps the runs
alternating.

:func:`positive_factorization` implements the constructive fillability
argument on the first rotation that meets a rule.  It builds and tests
the rotations one at a time, in the order of :func:`cyclic_rotations`,
and stops at the first one with a rule; rotation 0 is the form itself
when nothing is peeled.  Negative interior powers are eliminated
through the lantern substitutions (each e^-1 costs one a^-1 b^-1 c^-1
d^-1 h f, each f^-1 one a^-1 b^-1 c^-1 d^-1 g e, with cheaper junction
variants when s = 1), consuming boundary twists.  Each rule's cost in
boundary twists is stated once, by :func:`_rule_and_cost`, and the rule
holds exactly when min r covers it.  Every produced word is certified
by the exact equality oracle of :mod:`lanternbook.invariant` (slope
matrices plus exponent class) before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
import json

from .errors import InvariantViolation, PreconditionError
from .invariant import equal_in_mcg
from .words import (
    BOUNDARY, Word, _merge, concat, format_word, free_reduce, invert, parse,
)

_G_POS = parse("a b c d f^-1 e^-1")
_H_POS = parse("a b c d e^-1 f^-1")
# the lantern substitution of each letter and sign of its exponent
_LANTERN = {("g", True): _G_POS, ("g", False): invert(_G_POS),
            ("h", True): _H_POS, ("h", False): invert(_H_POS)}


@dataclass(frozen=True)
class ReducedForm:
    """Exponent data of a word in reduced form: ``r`` holds the four
    boundary-twist exponents (of a, b, c, d), ``blocks`` the alternating
    interior part as pairs (m_i, n_i) meaning e^{m_i} f^{n_i}.  Interior
    exponents are nonzero except possibly the leading m_1 and trailing
    n_s; ``blocks = ()`` encodes a pure boundary-twist word.  Every
    exponent must be an ``int`` (``bool`` is refused, nothing is
    coerced)."""

    r: tuple
    blocks: tuple

    def __post_init__(self):
        r = tuple(self.r)
        blocks = tuple((m, n) for m, n in self.blocks)
        if len(r) != 4:
            raise PreconditionError(
                "r must have four components, got %r" % (self.r,))
        for x in r:
            if type(x) is not int:
                raise PreconditionError("exponent is not an int: %r" % (x,))
        for i, (m, n) in enumerate(blocks):
            if type(m) is not int or type(n) is not int:
                raise PreconditionError("exponent is not an int: %r"
                                        % ((m, n),))
            if m == 0 and i > 0:
                raise PreconditionError(
                    "zero e-exponent inside blocks %r (index %d)"
                    % (blocks, i))
            if n == 0 and i < len(blocks) - 1:
                raise PreconditionError(
                    "zero f-exponent inside blocks %r (index %d)"
                    % (blocks, i))
        if blocks == ((0, 0),):
            blocks = ()
        object.__setattr__(self, "r", r)
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
        raise PreconditionError("not a ReducedForm: %r" % (rf,))


def rf_to_json(rf: ReducedForm) -> str:
    _require_form(rf)
    return json.dumps({"r": list(rf.r),
                       "blocks": [list(b) for b in rf.blocks]})


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


def _substituted(terms):
    """Yield ``terms`` with every g^k and h^k written as |k| copies of
    its lantern substitution (of the inverse when k < 0).  A malformed
    term is passed on as it is, for the merge to refuse."""
    for letter, exp in terms:
        if (letter == "g" or letter == "h") and type(exp) is int:
            yield from _LANTERN[letter, exp > 0] * abs(exp)
        else:
            yield letter, exp


def substitute_gh(w) -> Word:
    """Eliminate g and h through the lantern substitutions
    g = a b c d f^-1 e^-1, h = a b c d e^-1 f^-1; the result is freely
    reduced and has the same exponent class."""
    return free_reduce(_substituted(parse(w) if isinstance(w, str) else w))


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
    interior = _merge(_substituted(parse(w) if isinstance(w, str) else w), r)
    return ReducedForm(tuple(r.values()), _pack(interior))


def _runs(rf: ReducedForm) -> list:
    """The interior part as alternating (letter, exponent) runs with
    nonzero exponents: the e/f terms of :func:`expand`."""
    return [t for m, n in rf.blocks for t in (("e", m), ("f", n)) if t[1]]


def expand(rf: ReducedForm) -> Word:
    """The word a^{r1} b^{r2} c^{r3} d^{r4} e^{m_1} f^{n_1} ... named by
    the reduced form (zero exponents omitted)."""
    _require_form(rf)
    boundary = [(letter, exp) for letter, exp in zip(BOUNDARY, rf.r) if exp]
    return tuple(boundary + _runs(rf))


def _peel(rf: ReducedForm):
    """Split the interior runs as  p . core . p^-1  with the core
    cyclically reduced (its first letter is not the inverse of its last)
    and return the run lists (p, core).  End runs x^a ... x^b with a, b
    of opposite signs each give up min(|a|, |b|) letters to p; peeling
    goes on only when both vanish.  The core of a nonempty interior is
    nonempty, and equal end letters of a core have equal signs."""
    _require_form(rf)
    runs = _runs(rf)
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


def _cyclic_runs(core) -> int:
    """The number of runs of a :func:`_peel` core read around the cycle:
    equal end letters (which carry equal signs) join into one run, so a
    nonempty core has 1 cyclic run or an even number of them.

    With L >= 4 cyclic runs, every rotation and the :func:`mirror_ef`
    image of each carry the same :func:`_h_rule`, H4 or None:

    - A rotation has L runs, or L + 1 when it splits one, so it and its
      mirror pack into at least 3 blocks, or into 2 blocks with no zero
      edge exponent.  H1-H3 need one block, so only H4 can hold.
    - H4 reads min r and the sum of the negative interior exponents.
      Rotating splits a run into parts of its sign or joins the end
      runs, which have equal signs; mirroring maps r to (r3, r2, r1, r4)
      and swaps e with f.  Neither changes min r or the negative sum,
      which is the core's (the peeled prefix and its inverse would add
      to it).

    So rotation 0 alone decides such a form for
    :func:`lanternbook.classify.classify`."""
    return len(core) - (len(core) > 1 and core[0][0] == core[-1][0])


def _rotations(rf: ReducedForm, prefix, core):
    """Yield the rotations of ``rf`` one at a time, rotation k turning
    the core of its :func:`_peel` split ``(prefix, core)`` by k letters.
    Rotation 0 is the core itself, hence ``rf`` when nothing is peeled.
    Equal end runs of the core merge once into one cyclic run, and
    rotation k splits at most one run, whose parts land at the two
    ends."""
    first = ReducedForm(rf.r, _pack(core)) if prefix else rf
    yield first
    if not core:
        return
    if len(core) == 1:      # every rotation of one run is the run itself
        yield from repeat(first, abs(core[0][1]) - 1)
        return
    head = 0
    if _cyclic_runs(core) < len(core):
        head = abs(core[-1][1])
        core = [(core[0][0], core[0][1] + core[-1][1])] + core[1:-1]
    # each cut is (run, letters into it), listed from the start of the
    # merged run; the core itself, rotation 0, starts head letters later
    cuts = [(j, o) for j, (_, a) in enumerate(core)
            for o in range(0, a, 1 if a > 0 else -1)]
    for j, o in cuts[head + 1:] + cuts[:head]:
        x, a = core[j]
        split = [(x, a - o)] + core[j + 1:] + core[:j]
        if o:
            split.append((x, o))
        yield ReducedForm(rf.r, _pack(split))


def cyclic_rotations(rf: ReducedForm):
    """All reduced forms obtained by cyclically rotating the interior
    e/f letter sequence (the central boundary part stays put).

    The rotations are those of the cyclically reduced core left by
    :func:`_peel`; index k rotates by k core letters, so a core of L
    letters has L rotations (built by :func:`_rotations`).  Rotations
    of a cyclically reduced sequence stay freely and cyclically reduced,
    so every member of the returned list has exactly this list as its
    own rotations; the list is a conjugacy-class invariant, which is
    what makes merged classification consistent across conjugates.  A
    pure boundary word has itself as the only rotation."""
    return list(_rotations(rf, *_peel(rf)))


def rotation_conjugator(rf: ReducedForm, k: int) -> Word:
    """The word u with  u^-1 . expand(rf) . u  equal in the mapping
    class group to the expansion of rotation k: the peeled conjugating
    prefix followed by the first k core letters."""
    prefix, core = _peel(rf)
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


def mirror_ef(rf: ReducedForm) -> ReducedForm:
    """The reduced form of the image under the half-turn symmetry that
    exchanges e with f (and relabels the boundary a <-> c, fixing b and
    d, hence r -> (r3, r2, r1, r4)).  Swapping the letters of the runs
    keeps them alternating, so they are repacked without reduction."""
    _require_form(rf)
    r1, r2, r3, r4 = rf.r
    swapped = [("f" if letter == "e" else "e", exp)
               for letter, exp in _runs(rf)]
    return ReducedForm((r3, r2, r1, r4), _pack(swapped))


# ----------------------------------------------------------------------
# positive factorizations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PositiveFactorization:
    """A positive word equal in the mapping class group to
    conjugator^-1 · expand(rotation of the input) · conjugator, together
    with the rule and rotation that produced it.  Construction certifies
    the equality through the exact equality oracle, so existence implies
    validity."""

    word: Word
    rule: str
    rotation: int
    conjugator: Word

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
        rule = "H4" if len(blocks) > 1 else "H1"
        return rule, -sum(x for block in blocks for x in block if x < 0)
    if max(m1, n1) == -1:
        return "H2", -m1 - n1 - 1
    return "H3", -m1 - n1 - 2


def _h_rule(rf: ReducedForm):
    """The fillability rule the exponents of ``rf`` satisfy, or None:
    the one rule of its shape (:func:`_rule_and_cost`), when min r covers
    that rule's cost.  This is the package's one statement of the rules;
    :mod:`lanternbook.classify` tags with it."""
    rule, cost = _rule_and_cost(rf.blocks or ((0, 0),))
    return rule if min(rf.r) >= cost else None


def _factor_words(rf: ReducedForm, rule: str):
    """The positive word and conjugator for a reduced form satisfying
    ``rule``, by the constructive substitutions (see module docstring):
    the boundary twists left after the rule's cost, then the interior
    with its negative powers substituted, merged once."""
    blocks = rf.blocks or ((0, 0),)
    _, cost = _rule_and_cost(blocks)
    terms = [(letter, x - cost) for letter, x in zip(BOUNDARY, rf.r)]
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
    The rotations are built and tested one at a time, in the order of
    :func:`cyclic_rotations`.  The output word has strictly positive
    exponents and is certified equal (after undoing the recorded
    conjugator) to the expansion of that rotation by the exact equality
    oracle; certification failure is an invariant-violation fault, not
    a None."""
    for k, rho in enumerate(_rotations(rf, *_peel(rf))):
        rule = _h_rule(rho)
        if rule is None:
            continue
        word, conjugator = _factor_words(rho, rule)
        if any(exp <= 0 for _, exp in word):
            raise InvariantViolation("factorization is not positive",
                                     word=format_word(word), rule=rule)
        reference = expand(rho)
        candidate = concat(conjugator, word, invert(conjugator))
        if candidate != reference and not equal_in_mcg(candidate, reference):
            raise InvariantViolation("factorization failed certification",
                                     word=format_word(word), rule=rule,
                                     rotation=k)
        return PositiveFactorization(word, rule, k, conjugator)
    return None
