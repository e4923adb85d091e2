"""The word layer: grammar and printing, free reduction with central
boundary twists, word algebra, and the abelianized invariant."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanternbook.errors import PreconditionError, WordSyntaxError
from lanternbook.invariant import equal_in_mcg
from lanternbook.lantern import reduce, substitute_gh
from lanternbook.words import (BOUNDARY, GENERATORS, concat, exponent_class,
                               format_word, free_reduce, invert, merge_terms,
                               mirror_word, parse, power, word_length)

# a Word is a merged term list: no zero exponents, no adjacent repeats
raw_terms = st.lists(
    st.tuples(st.sampled_from(GENERATORS),
              st.integers(min_value=-6, max_value=6).filter(bool)),
    max_size=12)
words = raw_terms.map(lambda ts: merge_terms(ts))


# -- grammar ------------------------------------------------------------

def test_parse_examples():
    assert parse("a^2 b c^-1") == (("a", 2), ("b", 1), ("c", -1))
    assert parse("e e^-1") == ()
    assert parse("abcdf^-1e^-1") == (("a", 1), ("b", 1), ("c", 1),
                                     ("d", 1), ("f", -1), ("e", -1))


def test_parse_is_whitespace_insensitive():
    assert parse("  a   b ") == parse("ab") == (("a", 1), ("b", 1))
    assert parse("") == parse("   ") == ()


def test_parse_merges_adjacent_terms():
    assert parse("e^2 e^3") == (("e", 5),)
    assert parse("a^2 a^-2 b") == (("b", 1),)


def test_format_examples():
    assert format_word(()) == ""
    assert format_word((("a", 1), ("e", -2))) == "a e^-2"
    assert format_word((("g", 1), ("e", 1), ("f", 1))) == "g e f"


def test_parse_rejects_bad_input():
    # only ASCII digits: superscript two and Arabic-Indic three are not
    for text, pos in [("x", 0), ("a x", 2), ("e^", 2), ("e^-", 3),
                      ("e^+2", 2), ("2e", 0), ("e**2", 1),
                      ("e^\u00b2", 2), ("e^\u0663", 2), ("e^1\u0663", 3)]:
        with pytest.raises(WordSyntaxError) as err:
            parse(text)
        assert err.value.position == pos


def test_merge_terms_rejects_unknown_letters():
    for letter in ("x", "ab", "", "E", 1, None):
        with pytest.raises(PreconditionError, match="unknown generator"):
            merge_terms([("e", 1), (letter, 1)])


def test_merge_terms_rejects_non_int_exponents():
    for exp in (1.5, 2.0, "1", None, True):
        with pytest.raises(PreconditionError, match="not an int"):
            merge_terms([("e", exp)])
    assert merge_terms([("e", 2), ("e", -2), ("f", 0)]) == ()


def test_merge_terms_rejects_terms_that_are_not_pairs():
    for terms in (("e", 1), [("e", 1, 2)], [("e",)], [["e"]], [5], 5):
        with pytest.raises(PreconditionError,
                           match="not a list of .letter, exponent. terms"):
            merge_terms(terms)


def test_term_inputs_are_checked_through_the_public_operations():
    with pytest.raises(PreconditionError):
        reduce(("e", 1))
    with pytest.raises(PreconditionError):
        reduce((("g",),))
    with pytest.raises(PreconditionError):
        equal_in_mcg((("e", 1, 2),), ())
    with pytest.raises(PreconditionError):
        equal_in_mcg((("e", 1.5),), (("e", 1),))
    with pytest.raises(PreconditionError):
        equal_in_mcg((("x", 1),), ())
    with pytest.raises(PreconditionError):
        reduce((("e", 2.7),))
    with pytest.raises(PreconditionError):
        reduce((("x", 1),))
    for w in (5, None):
        with pytest.raises(PreconditionError):
            reduce(w)
        with pytest.raises(PreconditionError):
            substitute_gh(w)


def test_word_helpers_reject_malformed_terms():
    for helper in (format_word, exponent_class, mirror_word, invert,
                   word_length, lambda w: power(w, 0)):
        for w in ((("e", 1.5),), (("x", 1),), (("e", 1, 2),), (("e",),),
                  (("e", True),), 5):
            with pytest.raises(PreconditionError):
                helper(w)


@given(words)
def test_parse_format_round_trip(w):
    assert parse(format_word(w)) == w


@given(words)
def test_format_parse_is_a_reprint_fixpoint(w):
    text = format_word(w)
    assert format_word(parse(text)) == text


# -- free reduction -----------------------------------------------------

def test_free_reduce_examples():
    assert free_reduce([("e", 1), ("e", -1)]) == ()
    assert free_reduce([("e", 2), ("a", 1), ("e", 3)]) == (("a", 1), ("e", 5))
    assert free_reduce([("e", 1), ("f", 1), ("e", 1)]) == \
        (("e", 1), ("f", 1), ("e", 1))


def _free_reduce_two_passes(terms):
    """Reference for :func:`free_reduce`: merge the raw terms, pull the
    boundary terms out, then merge the interior terms again."""
    boundary = dict.fromkeys(BOUNDARY, 0)
    interior = []
    for letter, exp in merge_terms(terms):
        if letter in BOUNDARY:
            boundary[letter] += exp
        else:
            interior.append((letter, exp))
    head = [(l, boundary[l]) for l in BOUNDARY if boundary[l] != 0]
    return tuple(head) + merge_terms(interior)


def test_free_reduce_matches_the_two_pass_reference():
    # seeded raw words over all eight generators, with zero exponents and
    # with runs that cancel: a word followed by the inverse of a piece of
    # itself, with boundary terms put between the cancelling terms
    rng = random.Random(20261018)
    empty = 0
    for _ in range(3000):
        terms = [(rng.choice(GENERATORS), rng.randint(-3, 3))
                 for _ in range(rng.randint(0, 10))]
        if terms and rng.random() < 0.5:
            i = rng.randrange(len(terms))
            for letter, exp in reversed(terms[i:]):
                if rng.random() < 0.3:
                    terms.append((rng.choice(BOUNDARY), rng.randint(-2, 2)))
                terms.append((letter, -exp))
        got = free_reduce(terms)
        assert got == _free_reduce_two_passes(terms), terms
        empty += got == () and terms != []
    assert empty > 100
    for bad in ([("e", 1), ("x", 1)], [("a", 1), ("E", 2)], [(["e"], 1)],
                [("e", 1.0)], [("a", "1")], [("b", True)], [("e", None)],
                [("e",)], [("a", 1, 2)], ["e"], [5], ("e", 1), 5, None):
        for reduction in (free_reduce, _free_reduce_two_passes):
            with pytest.raises(PreconditionError):
                reduction(bad)


@given(words)
def test_free_reduce_is_idempotent(w):
    once = free_reduce(w)
    assert free_reduce(once) == once


@given(words)
def test_free_reduce_preserves_exponent_class(w):
    assert exponent_class(free_reduce(w)) == exponent_class(w)


@given(words, st.data())
def test_free_reduce_commutes_boundary_terms(w, data):
    # swapping a boundary-parallel term with either neighbour leaves the
    # reduction unchanged (those twists are central)
    w = list(w)
    spots = [i for i in range(len(w) - 1)
             if w[i][0] in BOUNDARY or w[i + 1][0] in BOUNDARY]
    if not spots:
        return
    i = data.draw(st.sampled_from(spots))
    swapped = w[:i] + [w[i + 1], w[i]] + w[i + 2:]
    assert free_reduce(swapped) == free_reduce(w)


# -- word algebra -------------------------------------------------------

@given(words)
def test_invert_cancels(w):
    assert free_reduce(concat(w, invert(w))) == ()
    assert free_reduce(concat(invert(w), w)) == ()


@given(words)
def test_power_is_repeated_concat(w):
    assert power(w, 0) == ()
    assert free_reduce(power(w, 3)) == free_reduce(concat(w, w, w))
    assert free_reduce(power(w, -2)) == free_reduce(invert(concat(w, w)))


def test_word_length_counts_letters():
    assert word_length(parse("a^3 e^-2")) == 5
    assert word_length(()) == 0


def test_mirror_word_swaps_the_lantern_relations():
    assert mirror_word(parse("g e f")) == parse("h f e")
    assert mirror_word(mirror_word(parse("a b^2 c e g"))) == \
        parse("a b^2 c e g")


# -- abelianized invariant ----------------------------------------------

def test_exponent_class_examples():
    assert exponent_class(parse("g e f")) == exponent_class(parse("a b c d"))
    assert exponent_class(()).is_zero()
    assert exponent_class(parse("g")) == exponent_class(parse("h"))
    assert exponent_class(parse("e")) != exponent_class(parse("f"))
    assert exponent_class(parse("e")) != exponent_class(parse("e^2"))
    # equal classes hash equal, so a set keeps one of each
    pairs = [(parse("g"), parse("h")), (parse("g e f"), parse("a b c d"))]
    for w1, w2 in pairs:
        assert hash(exponent_class(w1)) == hash(exponent_class(w2))
        assert len({exponent_class(w1), exponent_class(w2)}) == 1
