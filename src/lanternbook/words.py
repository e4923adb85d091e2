"""Words in the eight Dehn-twist generators of the four-holed sphere.

The surface is a 2-sphere with four open disks removed; its boundary
circles are C1, C2, C3, C4.  The eight generators are named by the curves
they twist along:

* ``a, b, c, d`` -- curves parallel to C1..C4.  Twists along them are
  central in the mapping class group (they commute with everything).
* ``e`` -- a curve separating {C1, C2} from {C3, C4};
* ``f`` -- a curve separating {C2, C3} from {C1, C4};
* ``g, h`` -- the two curves separating {C1, C3} from {C2, C4}
  (they differ by which side of C2 the curve passes).

A *word* is a tuple of ``(letter, exponent)`` pairs with nonzero integer
exponents and no two adjacent equal letters.  Each letter denotes the
right (positive) Dehn twist along its curve; negative exponents are left
twists.  **Composition order**: the leftmost term acts first, i.e. the
word ``w1 w2`` means "apply w1, then w2".  Every function here that
takes a word raises :class:`PreconditionError` on a malformed term.

The grammar accepted by :func:`parse`::

    word   := ws* (term ws*)* ;
    term   := letter power? ;
    letter := 'a'|'b'|'c'|'d'|'e'|'f'|'g'|'h' ;
    power  := '^' '-'? digit+ ;

so both ``abcdf^-1e^-1`` and ``a b c d f^-1 e^-1`` are valid and equal.
Printing uses single spaces between terms and omits ``^1``.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter

from .errors import PreconditionError, WordSyntaxError, shown, unprintable

GENERATORS = "abcdefgh"
_GENERATOR_SET = frozenset(GENERATORS)
BOUNDARY = "abcd"  # central: parallel to the four boundary circles
INTERIOR = "efgh"

Term = tuple[str, int]
Word = tuple[Term, ...]


# ----------------------------------------------------------------------
# construction / normalization of term lists
# ----------------------------------------------------------------------

def merge_terms(terms) -> Word:
    """Freely reduce a raw term list: drop zero exponents and merge runs of
    equal letters to fixpoint (so ``e e^-1`` cancels entirely).  This is the
    free-group reduction; it does not use any surface relation.

    Raises :class:`PreconditionError` for a term that is not a
    ``(letter, exponent)`` pair, for a letter that is not one of the
    eight generators and for an exponent that is not an ``int``."""
    return _merge(terms, {})


def _merge(terms, central, patterns=None, limit=0) -> Word:
    """:func:`merge_terms`, except that the exponents of the letters keyed
    in the dict ``central`` are added to it instead of merged: they commute
    with every term, so the other terms then merge as if they were gone.
    One checked pass over ``terms``.  ``patterns`` maps g and h to the e/f
    parts of their substitutions for k < 0 and k > 0 (see
    :mod:`lanternbook.lantern`): x^k adds k to every sum of ``central``
    and stands for |k| copies of its pattern, the word's g and h letters
    refused past ``limit`` before any copy is made."""
    out: list[Term] = []
    count = 0
    try:
        for letter, exp in terms:
            if letter not in _GENERATOR_SET:
                raise PreconditionError("unknown generator %s" % shown(letter))
            if type(exp) is not int:
                raise PreconditionError("exponent of %r is not an int: %s"
                                        % (letter, shown(exp)))
            if letter in central:
                central[letter] += exp
                continue
            rest = None
            if patterns and letter in patterns:
                count += abs(exp)
                if count > limit:
                    raise PreconditionError(
                        "normal form too large: %s or more g and h letters "
                        "to substitute, past the limit of %d"
                        % (shown(count), limit))
                for x in central:
                    central[x] += exp
                rest = iter(patterns[letter][exp > 0] * abs(exp))
                # past the last copy, a blank term merges with nothing
                letter, exp = next(rest, ("", 0))
            # a copy that cancels the last run meets the run before it;
            # once one does not, the rest cannot and is appended whole
            while out and out[-1][0] == letter:
                exp += out[-1][1]
                if exp:
                    out[-1] = (letter, exp)
                    break
                out.pop()
                if rest is None:
                    break
                letter, exp = next(rest, ("", 0))
            else:
                if exp:
                    out.append((letter, exp))
            if rest is not None:
                out += rest
    except PreconditionError:
        raise
    except (TypeError, ValueError) as exc:
        # unpacking a term that is not a pair, or hashing an odd letter
        raise _not_terms(exc) from None
    return tuple(out)


def _not_terms(exc) -> PreconditionError:
    """The refusal of terms that are not (letter, exponent) pairs."""
    return PreconditionError("not a list of (letter, exponent) terms: %s"
                             % exc)


def _checked(word) -> tuple:
    """The terms of ``word`` as a tuple, unchanged, once each has passed
    the checks of :func:`merge_terms` (which raises
    :class:`PreconditionError` on a malformed term)."""
    try:
        terms = tuple(word)
    except TypeError as exc:
        raise _not_terms(exc) from None
    merge_terms(terms)
    return terms


def parse(text: str) -> Word:
    """Parse ``text`` into a freely reduced word.

    Raises :class:`WordSyntaxError` (carrying the 0-based offset) on any
    character outside the grammar, on a caret with no digits after it, on
    a dangling caret at end of input and on an exponent longer than the
    interpreter converts to an int (4,300 digits by default), and
    :class:`PreconditionError` when ``text`` is not a ``str``.
    """
    if not isinstance(text, str):
        raise PreconditionError("word text must be a str, got %s"
                                % shown(text))
    terms: list[Term] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in GENERATORS:
            raise WordSyntaxError("unknown letter %r" % ch, i)
        letter = ch
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            sign = 1
            if i < n and text[i] == "-":
                sign = -1
                i += 1
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            if i == start:
                raise WordSyntaxError("exponent digits expected after '^'", i)
            try:
                exp = sign * int(text[start:i])
            except ValueError:          # past the int-to-string digit limit
                raise WordSyntaxError("exponent has too many digits",
                                      start) from None
        terms.append((letter, exp))
    return merge_terms(terms)


def format_word(word) -> str:
    """Print a word in the grammar: single spaces, ``^1`` omitted.

    Round trip: ``parse(format_word(w)) == w`` for every valid word ``w``.
    An exponent too long to print is refused with
    :class:`PreconditionError`.
    """
    pieces = []
    for letter, exp in _checked(word):
        try:
            pieces.append(letter if exp == 1 else "%s^%d" % (letter, exp))
        except ValueError:              # past the int-to-string digit limit
            raise unprintable() from None
    return " ".join(pieces)


def free_reduce(terms) -> Word:
    """Normalize a raw term list using free reduction *and* centrality of
    the boundary twists: all ``a, b, c, d`` terms are pulled to the front
    in alphabetical order (they commute with everything), then the interior
    terms are merged to fixpoint.  No other relation is used."""
    boundary = dict.fromkeys(BOUNDARY, 0)
    interior = _merge(terms, boundary)
    return tuple((l, e) for l, e in boundary.items() if e) + interior


# ----------------------------------------------------------------------
# elementary word algebra
# ----------------------------------------------------------------------

def concat(*words) -> Word:
    """Concatenate words with free reduction at the seams."""
    return merge_terms(chain.from_iterable(words))


def invert(word) -> Word:
    """The inverse word: reversed order, negated exponents."""
    return tuple((l, -e) for l, e in reversed(_checked(word)))


def power(word, k: int) -> Word:
    """k-fold concatenation (inverse word for negative k)."""
    if type(k) is not int:
        raise PreconditionError("k must be an int, got %s" % shown(k))
    if k == 0:
        _checked(word)
        return ()
    base = word if k > 0 else invert(word)
    return merge_terms(chain.from_iterable(repeat(base, abs(k))))


def word_length(word) -> int:
    """Total letter count: the sum of |exponent| over all terms."""
    return sum(abs(e) for _, e in _checked(word))


def mirror_word(word) -> Word:
    """Relabel generators by the symmetry of the surface exchanging e and f
    (a half-turn of the round four-holed sphere fixing C2 and C4 and
    swapping C1 with C3).  It relabels a<->c, e<->f, g<->h and fixes b, d.

    This map sends one lantern relation to the other (``g e f`` to
    ``h f e``), which is tested, so the relabeling is pinned operationally.
    """
    swap = {"a": "c", "c": "a", "e": "f", "f": "e", "g": "h", "h": "g",
            "b": "b", "d": "d"}
    return tuple((swap[l], e) for l, e in _checked(word))


# ----------------------------------------------------------------------
# value types, and the abelianized invariant
# ----------------------------------------------------------------------

class Value:
    """Base of the immutable value types; a subclass's annotations are its
    fields, which compare, hash and print as in a frozen dataclass.  Each
    subclass takes its fields in its own ``__init__`` and sets them by
    object.__setattr__ (writing __dict__ slows reads)."""
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value=None):
        raise AttributeError("%r is a read-only field" % (name,))
    __delattr__ = __setattr__


class ExponentVector(Value):
    """Exponent sums of a word, reduced modulo the rank-2 lattice generated
    by the abelianizations of the two lantern relations,

        (g + e + f) - (a + b + c + d)   and   (h + e + f) - (a + b + c + d).

    Subtracting suitable multiples of the two lattice vectors zeroes the g
    and h coordinates, leaving the canonical six-tuple

        (va+vg+vh, vb+vg+vh, vc+vg+vh, vd+vg+vh, ve-vg-vh, vf-vg-vh).

    Two words related by lantern substitutions and commutations have equal
    canonical tuples.
    """

    canonical: tuple

    def __init__(self, canonical):
        object.__setattr__(self, "canonical", canonical)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.canonical)


def _class_of_sums(sums) -> tuple:
    """The canonical tuple of :class:`ExponentVector` of the eight
    exponent sums ``sums``, in :data:`GENERATORS` order."""
    va, vb, vc, vd, ve, vf, vg, vh = sums
    return (va + vg + vh, vb + vg + vh, vc + vg + vh, vd + vg + vh,
            ve - vg - vh, vf - vg - vh)


def exponent_class(word) -> ExponentVector:
    """The abelianization of ``word`` modulo the lantern lattice, its
    terms checked as :func:`merge_terms` checks them, in one pass."""
    sums = dict.fromkeys(GENERATORS, 0)
    try:
        for letter, exp in word:
            if type(exp) is not int or letter not in sums:
                merge_terms(((letter, exp),))   # raises its refusal
            sums[letter] += exp
    except PreconditionError:
        raise
    except (TypeError, ValueError) as exc:
        raise _not_terms(exc) from None
    return ExponentVector(_class_of_sums(sums.values()))
