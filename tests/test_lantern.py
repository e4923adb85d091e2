"""The rewriting layer: the reduced normal form, cyclic rotations with
their conjugacy certificates, the e/f mirror, serialization, and
positive factorizations."""

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanternbook.invariant import equal_in_mcg
from lanternbook.errors import InvariantViolation, PreconditionError, shown
from lanternbook.classify import _shape
from lanternbook.lantern import (CORE_LIMIT, GH_LIMIT, PositiveFactorization,
                                 ReducedForm, _factor_words, _h_rule,
                                 _joined, _pack, _peel, _rotation_classes,
                                 _rule_and_cost, canonical_form,
                                 cyclic_rotations, expand, mirror_ef,
                                 positive_factorization, reduce,
                                 rf_from_json, rf_to_json,
                                 rotation_conjugator, substitute_gh)
from lanternbook.words import (concat, exponent_class, format_word,
                               free_reduce, invert, merge_terms, mirror_word,
                               parse, power)

raw_terms = st.lists(
    st.tuples(st.sampled_from("abcdefgh"),
              st.integers(min_value=-4, max_value=4).filter(bool)),
    max_size=8)
words = raw_terms.map(lambda ts: merge_terms(ts))


def form_strategy(rmax=4, emax=4, smax=3):
    """Valid reduced forms: m1 and the last n may be zero, interior
    exponents are nonzero."""
    nz = st.integers(min_value=-emax, max_value=emax).filter(bool)
    z = st.integers(min_value=-emax, max_value=emax)
    r = st.tuples(*(st.integers(min_value=-rmax, max_value=rmax),) * 4)

    def build(rv, first_m, inner, last_n):
        if not inner and first_m == 0 and last_n == 0:
            return ReducedForm(rv, ())
        mids = list(inner)
        ms = [first_m] + [m for m, _ in mids]
        ns = [n for _, n in mids] + [last_n]
        blocks = tuple(zip(ms, ns))
        return ReducedForm(rv, blocks)

    return st.builds(build, r, z,
                     st.lists(st.tuples(nz, nz), max_size=smax - 1), z)


forms = form_strategy()


# -- reduce / expand ----------------------------------------------------

def test_reduce_examples():
    rf = reduce(parse("g"))
    assert rf.r == (1, 1, 1, 1) and rf.blocks == ((0, -1), (-1, 0))
    rf = reduce(())
    assert rf.r == (0, 0, 0, 0) and rf.blocks == ()
    rf = reduce(parse("g e f"))
    assert rf.r == (1, 1, 1, 1) and rf.blocks == ()


def test_substitute_gh_examples():
    assert format_word(substitute_gh(parse("g"))) == "a b c d f^-1 e^-1"
    assert format_word(substitute_gh(parse("h"))) == "a b c d e^-1 f^-1"
    # the inverse expansion trails its boundary twists before free
    # reduction fronts them; the result is the same group element
    out = substitute_gh(parse("g^-1"))
    assert out == free_reduce(parse("e f a^-1 b^-1 c^-1 d^-1"))
    assert equal_in_mcg(out, parse("e f a^-1 b^-1 c^-1 d^-1"))
    assert all(l not in "gh"
               for l, _ in substitute_gh(parse("g^2 h^-3 e g^-1")))


def test_g_and_h_exponents_must_be_ints():
    for letter in "gh":
        for exp in (True, False, 2.0):
            with pytest.raises(PreconditionError) as expected:
                merge_terms([(letter, exp)])
            for call in (substitute_gh, reduce):
                with pytest.raises(PreconditionError) as got:
                    call([("e", 1), (letter, exp)])
                assert str(got.value) == str(expected.value), (letter, exp)


@given(words)
def test_substitute_gh_preserves_exponent_class(w):
    assert exponent_class(substitute_gh(w)) == exponent_class(w)


@given(words)
def test_reduce_is_idempotent(w):
    rf = reduce(w)
    assert reduce(expand(rf)) == rf


@given(forms)
def test_expand_then_reduce_is_identity_on_forms(rf):
    assert reduce(expand(rf)) == rf


_RELATORS = [parse(w) for w in ("g e f a^-1 b^-1 c^-1 d^-1",
                                "h f e a^-1 b^-1 c^-1 d^-1",
                                "a e a^-1 e^-1", "d h^2 d^-1 h^-2")]


def test_reduce_is_a_unique_normal_form():
    """reduce(w1) == reduce(w2) exactly when the words are equal in the
    mapping class group, on seeded pairs: a relator (rotated, maybe
    inverted) spliced into w, two adjacent terms of w swapped, and an
    unrelated word."""
    rng = random.Random(20261019)

    def word():
        return merge_terms((rng.choice("abcdefgh"),
                            rng.choice((-3, -2, -1, 1, 2, 3)))
                           for _ in range(rng.randint(0, 8)))

    equal = unequal = 0
    for i in range(6000):
        w1 = word()
        kind = i % 3
        if kind == 0:
            rel = rng.choice(_RELATORS)
            k = rng.randrange(len(rel))
            rel = rel[k:] + rel[:k]
            if rng.random() < 0.5:
                rel = invert(rel)
            j = rng.randint(0, len(w1))
            w2 = concat(w1[:j], rel, w1[j:])
        elif kind == 1 and len(w1) >= 2:
            j = rng.randrange(len(w1) - 1)
            w2 = concat(w1[:j], w1[j + 1:j + 2], w1[j:j + 1], w1[j + 2:])
        else:
            w2 = word()
        same = equal_in_mcg(w1, w2)
        assert (reduce(w1) == reduce(w2)) == same, (w1, w2)
        equal += same
        unequal += not same
    assert equal >= 2000 and unequal >= 1500


# The substitution as it was before g and h were merged by their e/f
# patterns: each g^k or h^k written out as |k| copies of its six-term
# substitution (of the inverse when k < 0), then freely reduced.

_G_SIX = parse("a b c d f^-1 e^-1")
_H_SIX = parse("a b c d e^-1 f^-1")
_SIX_TERMS = {("g", True): _G_SIX, ("g", False): invert(_G_SIX),
              ("h", True): _H_SIX, ("h", False): invert(_H_SIX)}


def _six_term_substituted(terms):
    gh = 0
    for letter, exp in terms:
        if (letter == "g" or letter == "h") and type(exp) is int:
            gh += abs(exp)
            if gh > GH_LIMIT:
                raise PreconditionError(
                    "normal form too large: %s or more g and h letters to "
                    "substitute, past the limit of %d" % (shown(gh), GH_LIMIT))
            yield from _SIX_TERMS[letter, exp > 0] * abs(exp)
        else:
            yield letter, exp


def _six_term_reduce(terms):
    word = free_reduce(_six_term_substituted(terms))
    boundary = dict(t for t in word if t[0] in "abcd")
    return ReducedForm(tuple(boundary.get(x, 0) for x in "abcd"),
                       _pack([t for t in word if t[0] in "ef"]))


def _seam_terms(rng):
    """A seeded raw term list over all eight letters with zero exponents
    and g/h exponents up to +-1000, where some g^k or h^k follows e/f
    runs that its copies cancel, in runs split in two or written whole,
    and some follows a run that its first copy joins."""
    terms = []
    for _ in range(rng.randint(0, 8)):
        letter = rng.choice("abcdefgh")
        big = letter in "gh" and rng.random() < 0.2
        exp = rng.randint(-1000, 1000) if big else rng.randint(-3, 3)
        if letter in "gh" and exp and rng.random() < 0.5:
            # the inverse of the first j copies of its pattern, and maybe
            # one more letter, which the next copy then joins
            copies = _SIX_TERMS[letter, exp > 0] * abs(exp)
            pattern = [t for t in copies if t[0] in "ef"]
            j = rng.randint(1, len(pattern))
            runs = invert(pattern[:j])
            if rng.random() < 0.3:
                x, k = pattern[j % len(pattern)]
                runs += ((x, -k if rng.random() < 0.5 else k),)
            for x, k in runs:
                if rng.random() < 0.3:      # the run split in two
                    cut = rng.randint(-2, 2)
                    terms += [(x, cut), (x, k - cut)]
                else:
                    terms.append((x, k))
        terms.append((letter, exp))
    return terms


def test_reduce_matches_the_six_term_substitution():
    rng = random.Random(20261020)
    cases = [[("e", 1), ("f", 1), ("g", 3)], [("f", -1), ("e", -1), ("g", -2)],
             [("e", 2), ("h", -1), ("f", -3)], [("g", -1000), ("g", 1000)],
             [("h", 0), ("g", 0), ("e", 1)], [("e", 1), ("f", 2), ("f", -1),
                                              ("e", 1), ("f", 1), ("g", 2)]]
    cases += [_seam_terms(rng) for _ in range(6000)]
    seen = dict.fromkeys(("zero", "big", "cancelled", "joined"), 0)
    for terms in cases:
        assert reduce(terms) == _six_term_reduce(terms), terms
        assert substitute_gh(terms) == \
            free_reduce(_six_term_substituted(terms)), terms
        seen["zero"] += any(exp == 0 for _, exp in terms)
        seen["big"] += any(x in "gh" and abs(k) > 100 for x, k in terms)
        for i, (letter, exp) in enumerate(terms):
            if letter in "gh" and exp:
                seam = _seam(terms, i)
                seen[seam] = seen.get(seam, 0) + 1
    assert min(seen.values()) >= 300, seen


def _seam(terms, i):
    """How the first copy of the g/h term ``terms[i]`` meets the runs of
    the terms before it: "cancelled", "joined", or None."""
    runs = expand(_six_term_reduce(terms[:i]))
    letter, exp = terms[i]
    x, k = [t for t in _SIX_TERMS[letter, exp > 0] if t[0] in "ef"][0]
    if not runs or runs[-1][0] != x:
        return None
    return "cancelled" if runs[-1][1] == -k else "joined"


def test_normal_form_refusals_match_the_six_term_substitution():
    # a malformed term before and after a g/h term past the limit, a
    # total that crosses it on the second term, and one too long to print
    over = ("g", GH_LIMIT + 1)
    lists = ([("x", 1), over], [over, ("x", 1)],
             [("e", 1.5), ("h", -GH_LIMIT - 1)], [over, ("e", 1.5)],
             [("g", True), over], [over, ("g", True)], [5, over], [over, 5],
             [("e", 1), ("f",), over], [("g", 60000), ("h", -60000)],
             [("g", GH_LIMIT), ("x", 1)], [("h", 10 ** 5000)])
    for i, terms in enumerate(lists):
        with pytest.raises(PreconditionError) as expected:
            free_reduce(_six_term_substituted(terms))
        for call in (reduce, substitute_gh):
            with pytest.raises(PreconditionError) as got:
                call(terms)
            assert str(got.value) == str(expected.value), (i, call)


# -- the ReducedForm invariants ------------------------------------------

def test_interior_zero_exponents_are_rejected():
    with pytest.raises(PreconditionError):
        ReducedForm((0, 0, 0, 0), ((2, -1), (0, 3)))
    with pytest.raises(PreconditionError):
        ReducedForm((0, 0, 0, 0), ((2, 0), (-1, 3)))


def test_degenerate_single_block_normalizes_away():
    assert ReducedForm((1, 0, 0, 0), ((0, 0),)).blocks == ()


def test_r_must_have_four_components():
    with pytest.raises(PreconditionError):
        ReducedForm((1, 2, 3), ())


def test_non_int_exponents_are_refused():
    for r, blocks in [((1.7, 0, 0, 0), ()), ((0, 0, 0, True), ()),
                      ((0, 0, 0, 0), ((1, "2"),)), ((0, 0, 0, 0), ((1, "x"),)),
                      ((0, 0, 0, 0), ((2.0, 1),))]:
        with pytest.raises(PreconditionError, match="not an int"):
            ReducedForm(r, blocks)


@pytest.mark.parametrize("k", [1.5, "2", None, True])
def test_non_int_counts_are_refused(k):
    # True == 1 would pass for a count, as it would for an exponent
    w = parse("a b c d e f^-2")
    for call in (power, lambda w, k: rotation_conjugator(reduce(w), k)):
        with pytest.raises(PreconditionError, match="k must be an int"):
            call(w, k)


def test_json_round_trip():
    rf = ReducedForm((1, -2, 0, 3), ((0, 2), (-1, -1), (4, 0)))
    text = rf_to_json(rf)
    assert json.loads(text) == \
        {"r": [1, -2, 0, 3], "blocks": [[0, 2], [-1, -1], [4, 0]]}
    assert rf_from_json(text) == rf
    assert rf_from_json(json.loads(text)) == rf


def test_json_rejects_malformed_documents():
    for doc in [{}, {"r": [1, 2, 3], "blocks": []},
                {"r": [0, 0, 0, 0], "blocks": [[1]]},
                {"r": [0, 0, 0, 0], "blocks": [[1, 0], [1, 1]]},
                '{"r": [1.7, 0, 0, true], "blocks": [[1, "2"]]}']:
        with pytest.raises(PreconditionError):
            rf_from_json(doc)


# -- cyclic rotations ----------------------------------------------------

def test_rotation_examples():
    rots = {r.blocks for r in
            cyclic_rotations(ReducedForm((0, 0, 0, 0), ((2, 2),)))}
    assert ((2, 2),) in rots and ((0, 2), (2, 0)) in rots
    rf = ReducedForm((3, 1, 4, 1), ())
    assert cyclic_rotations(rf) == [rf]
    rots = {r.blocks for r in
            cyclic_rotations(ReducedForm((0, 0, 0, 0), ((1, 1), (1, 1))))}
    assert rots == {((1, 1), (1, 1)), ((0, 1), (1, 1), (1, 0))}


# Letter-level reference for the run algebra: the interior is expanded
# to single letters, peeled one pair at a time, and every rotation and
# the mirror are re-reduced by `reduce`.

def _reference_letters(rf):
    letters = []
    for m, n in rf.blocks:
        letters.extend([("e", 1 if m > 0 else -1)] * abs(m))
        letters.extend([("f", 1 if n > 0 else -1)] * abs(n))
    return letters


def _reference_peel(letters):
    lo, hi = 0, len(letters)
    while hi - lo >= 2:
        (x, sx), (y, sy) = letters[lo], letters[hi - 1]
        if x == y and sx == -sy:
            lo, hi = lo + 1, hi - 1
        else:
            break
    return letters[:lo], letters[lo:hi]


def _reference_rotations(rf):
    letters = _reference_letters(rf)
    if not letters:
        return [rf]
    _, core = _reference_peel(letters)
    return [ReducedForm(rf.r, reduce(core[k:] + core[:k]).blocks)
            for k in range(len(core))]


def _reference_conjugator(rf, k):
    letters = _reference_letters(rf)
    if not letters:
        return ()
    prefix, core = _reference_peel(letters)
    return free_reduce(prefix + core[:k % len(core)])


def _reference_mirror(rf):
    r1, r2, r3, r4 = rf.r
    swapped = [("f" if letter == "e" else "e", exp)
               for letter, exp in _reference_letters(rf)]
    return ReducedForm((r3, r2, r1, r4), reduce(swapped).blocks)


def _assert_matches_the_letter_reference(rf):
    rotations = cyclic_rotations(rf)
    assert rotations == _reference_rotations(rf), rf
    for k in range(len(rotations) + 2):
        assert rotation_conjugator(rf, k) == _reference_conjugator(rf, k), \
            (rf, k)
    assert mirror_ef(rf) == _reference_mirror(rf), rf


def test_run_rotations_match_the_letter_reference_on_edge_cases():
    r = (1, -2, 0, 3)
    for text in ("", "e^3", "f^-2",       # a single run
                 "e f e^-1",              # a one-letter core
                 "e^2 f^-1 e^-2",         # a core of one run, prefix e^2
                 "e^-1 f^3 e^-2 f^-3 e",  # the whole prefix peeled, core e^-1
                 "e f^2",                 # nothing to peel
                 "e^2 f e^3",             # wrap-around merge e^5
                 "f^-1 e f^-2 e^3 f^-4",  # wrap-around merge f^-5
                 "e^3 f e^-1",            # partial peel from the front
                 "e f^2 e^-3",            # partial peel from the back
                 "e^2 f^-1 e f^-3 e f e^-2 f^2"):
        rf = reduce(parse(text))
        rf = ReducedForm(r, rf.blocks)
        _assert_matches_the_letter_reference(rf)
    rf = ReducedForm(r, ((2, 1), (3, 0)))
    assert [rho.blocks for rho in cyclic_rotations(rf)] == [
        ((2, 1), (3, 0)), ((1, 1), (4, 0)), ((0, 1), (5, 0)),
        ((5, 1),), ((4, 1), (1, 0)), ((3, 1), (2, 0))]


def test_run_rotations_match_the_letter_reference():
    rng = random.Random(20261018)

    def run():
        return (rng.choice("ef"), rng.choice((-3, -2, -1, -1, 1, 1, 2, 3)))

    for _ in range(6000):
        core = [run() for _ in range(rng.randint(0, 6))]
        # half of the forms are conjugated, so that there is a prefix to peel
        u = [run() for _ in range(rng.randint(1, 3))] \
            if rng.random() < 0.5 else []
        interior = reduce(concat(u, core, invert(u))).blocks
        rf = ReducedForm(tuple(rng.randint(-2, 2) for _ in range(4)),
                         interior)
        _assert_matches_the_letter_reference(rf)


@given(forms)
def test_rotations_preserve_boundary_and_exponent_class(rf):
    base = exponent_class(expand(rf))
    for rho in cyclic_rotations(rf):
        assert rho.r == rf.r
        assert exponent_class(expand(rho)) == base


@given(forms)
def test_rotation_set_is_a_conjugacy_class_fixpoint(rf):
    base = set(cyclic_rotations(rf))
    for rho in base:
        assert set(cyclic_rotations(rho)) == base


def test_rotation_conjugators_certify_conjugacy():
    rng = random.Random(11)
    checked = 0
    for _ in range(10):
        w = tuple((rng.choice("abcdefgh"), rng.choice([-2, -1, 1, 2]))
                  for _ in range(rng.randrange(0, 5)))
        rf = reduce(w)
        for k, rho in enumerate(cyclic_rotations(rf)):
            u = rotation_conjugator(rf, k)
            lhs = concat(invert(u), expand(rf), u)
            assert equal_in_mcg(lhs, expand(rho)), (rf, k)
            checked += 1
    assert checked >= 10


@given(forms)
def test_canonical_form_is_constant_on_rotations(rf):
    key = canonical_form(rf)
    for rho in cyclic_rotations(rf):
        assert canonical_form(rho) == key
    assert key in cyclic_rotations(rf)


def test_rotations_refuse_a_core_past_the_limit():
    # one form per core letter, so the core's length is checked first
    r = (0, 0, 0, 0)
    at_limit = ReducedForm(r, ((CORE_LIMIT, 0),))
    assert len(cyclic_rotations(at_limit)) == CORE_LIMIT
    for rf, size in ((ReducedForm(r, ((CORE_LIMIT + 1, 0),)), CORE_LIMIT + 1),
                     (reduce("e^1000000000000"), 10 ** 12),
                     (reduce("e^3000000 f"), 3000001),
                     (reduce("f e^-2 f^3000000 e^2 f^-1"), 3000000)):
        for call in (cyclic_rotations, canonical_form):
            with pytest.raises(PreconditionError) as got:
                call(rf)
            assert str(got.value) == ("too many rotations: a core of %d "
                                      "letters, past the limit of %d"
                                      % (size, CORE_LIMIT))


# -- mirror ---------------------------------------------------------------

def test_mirror_ef_is_an_involution_permuting_r():
    rf = ReducedForm((1, 2, 3, 4), ((-1, 2), (3, 0)))
    m = mirror_ef(rf)
    assert m.r == (3, 2, 1, 4)
    assert mirror_ef(m) == rf


@given(words)
def test_mirror_commutes_with_reduction(w):
    assert reduce(mirror_word(w)) == mirror_ef(reduce(w))


# -- positive factorizations ----------------------------------------------

def test_factorization_examples():
    f = positive_factorization(ReducedForm((0, 0, 0, 0), ((1, 1),)))
    assert format_word(f.word) == "e f" and f.rule == "H1"
    f = positive_factorization(ReducedForm((1, 1, 1, 1), ((-1, 0),)))
    assert format_word(f.word) == "h f" and f.rule == "H1"
    f = positive_factorization(ReducedForm((1, 1, 1, 1), ((-1, -1),)))
    assert format_word(f.word) == "h" and f.rule == "H2"


def test_factorization_h3_and_h4_cases():
    f = positive_factorization(ReducedForm((2, 2, 2, 2), ((-2, -2),)))
    assert f.rule == "H3"
    assert all(e > 0 for _, e in f.word)
    f = positive_factorization(ReducedForm((2, 2, 2, 2), ((-1, 1), (1, -1))))
    assert f.rule == "H4"
    assert all(e > 0 for _, e in f.word)


def test_factorization_absent_without_an_h_rule():
    assert positive_factorization(ReducedForm((1, 1, 1, 1), ((-2, -1),))) \
        is None
    assert positive_factorization(ReducedForm((-1, 0, 0, 0), ((1, 1),))) \
        is None


def test_factorizations_recertify_externally():
    # the factorization routine certifies internally; re-check a few by
    # hand against the documented conjugacy statement
    for rf in [ReducedForm((1, 1, 1, 1), ((-1, -1),)),
               ReducedForm((1, 1, 1, 1), ((-1, 0),)),
               ReducedForm((3, 2, 2, 2), ((-2, -2),)),
               ReducedForm((1, 1, 1, 1), ((0, -1), (-1, 0)))]:
        f = positive_factorization(rf)
        rho = cyclic_rotations(rf)[f.rotation]
        u = f.conjugator
        lhs = concat(u, f.word, invert(u))
        assert equal_in_mcg(lhs, expand(rho)), rf


def test_rotations_and_factorizations_refuse_what_is_not_a_form():
    for bad in ("a b c d", None, parse("a b c d")):
        for call in (positive_factorization, cyclic_rotations,
                     lambda x: rotation_conjugator(x, 1), expand, mirror_ef,
                     rf_to_json):
            with pytest.raises(PreconditionError, match="not a ReducedForm"):
                call(bad)


# Every rotation built up front and the first one with a rule taken:
# the factorization as it was before rotations were built lazily.

def _reference_factorization(rf):
    for k, rho in enumerate(cyclic_rotations(rf)):
        rule = _h_rule(rho.r, rho.blocks)
        if rule is None:
            continue
        word, conjugator = _factor_words(rho.r, rho.blocks, rule)
        if any(exp <= 0 for _, exp in word):
            raise InvariantViolation("factorization is not positive")
        if not equal_in_mcg(concat(conjugator, word, invert(conjugator)),
                            expand(rho)):
            raise InvariantViolation("factorization failed certification")
        return PositiveFactorization(word, rule, k, conjugator)
    return None


def _seeded_forms(seed, count):
    """Forms whose interior is a random core of 0-7 runs, conjugated
    in 40 % of the draws, with boundary exponents -1..9."""
    rng = random.Random(seed)

    def run():
        return (rng.choice("ef"), rng.choice((-3, -2, -1, -1, 1, 1, 2, 3)))

    for _ in range(count):
        core = [run() for _ in range(rng.randint(0, 7))]
        u = [run() for _ in range(rng.randint(1, 3))] \
            if rng.random() < 0.4 else []
        yield ReducedForm(tuple(rng.randint(-1, 9) for _ in range(4)),
                          reduce(concat(u, core, invert(u))).blocks)


def test_factorization_matches_the_every_rotation_reference():
    seen = dict.fromkeys(("peeled", "merged ends", "long core", "none",
                          "rotation > 0"), 0)
    for rf in _seeded_forms(1414, 20000):
        assert cyclic_rotations(rf) == _reference_rotations(rf), rf
        pf = positive_factorization(rf)
        assert pf == _reference_factorization(rf), rf
        prefix, core = _peel(rf)
        seen["peeled"] += bool(prefix)
        runs = _joined(core)[1]
        seen["merged ends"] += len(runs) < len(core)
        seen["long core"] += len(runs) >= 4
        seen["none"] += pf is None
        seen["rotation > 0"] += pf is not None and pf.rotation > 0
    assert min(seen.values()) >= 100, seen


def test_rotation_zero_is_the_form_itself_when_nothing_is_peeled():
    unpeeled = 0
    for rf in _seeded_forms(1415, 5000):
        if not _peel(rf)[0]:
            assert cyclic_rotations(rf)[0] is rf, rf
            unpeeled += 1
    assert unpeeled >= 2000


def test_every_rotation_of_a_long_core_has_one_h_rule():
    rules = set()
    for rf in _seeded_forms(1416, 5000):
        if len(_joined(_peel(rf)[1])[1]) < 4:
            continue
        rotations = cyclic_rotations(rf)
        found = {_h_rule(rho.r, rho.blocks)
                 for rho in rotations + [mirror_ef(rho) for rho in rotations]}
        assert len(found) == 1, rf
        rules |= found
    assert rules == {"H4", None}


def _short_cores(emax):
    """Every cyclically reduced core, as a run list, whose cyclic word
    has at most two runs, each with |exponent| <= emax: the empty core,
    one run, and x^A y^B read from each letter of x^A, from its start or
    as x^(A-o) y^B x^o (reads from y^B come with x and y swapped)."""
    exps = [x for x in range(-emax, emax + 1) if x]
    yield []
    for x, y in ("ef", "fe"):
        for a in exps:
            yield [(x, a)]
            step = 1 if a > 0 else -1
            for b in exps:
                yield [(x, a), (y, b)]
                for o in range(step, a, step):
                    yield [(x, a - o), (y, b), (x, o)]


def _conjugated(core):
    """The interior blocks of u . core . u^-1 for the first one-letter u
    that leaves a nonempty :func:`_peel` prefix."""
    for u in ((("e", 1),), (("e", -1),), (("f", 1),), (("f", -1),)):
        blocks = reduce(concat(u, core, invert(u))).blocks
        if _peel(ReducedForm((0, 0, 0, 0), blocks))[0]:
            return blocks
    raise AssertionError(core)


def _class_key(blocks):
    """What the tags of lanternbook.classify read of a candidate besides
    r: its fillability rule with its cost, and the (m, n) of its special
    shape."""
    shape = _shape(blocks)
    return _rule_and_cost(blocks or ((0, 0),)), shape and shape[:2]


def _first_of_each_class(rf):
    # rotations fall in one class when they and their mirrors have equal
    # keys; the first of each class, in rotation order
    seen = set()
    firsts = []
    for k, rho in enumerate(cyclic_rotations(rf)):
        key = (_class_key(rho.blocks), _class_key(mirror_ef(rho).blocks))
        if key not in seen:
            seen.add(key)
            firsts.append((k, rho.r, rho.blocks))
    return firsts


def test_rotation_classes_yield_the_first_rotation_of_each_class():
    r = (1, -2, 0, 3)
    forms = list(_seeded_forms(1417, 5000))
    for core in _short_cores(6):
        forms.append(ReducedForm(r, _pack(core)))
        if core:
            forms.append(ReducedForm(r, _conjugated(core)))
    counts = {}
    for rf in forms:
        firsts = _first_of_each_class(rf)
        assert list(_rotation_classes(rf)) == firsts, rf
        counts[len(firsts)] = counts.get(len(firsts), 0) + 1
    assert set(counts) == {1, 2, 3} and min(counts.values()) >= 200, counts


def test_reduce_and_factorization_outputs_are_pinned():
    """A digest of ``rf_to_json(reduce(w))`` and, where a rule holds, of
    the factorization's (word, rule, rotation, conjugator), over a seeded
    stream of words in all eight generators with boundary powers mixed
    in, compared with the digest recorded when the pin was written."""
    rng = random.Random(15015)
    digest = hashlib.sha256()
    seen = {"H1": 0, "H2": 0, "H3": 0, "H4": 0, None: 0,
            "rotation > 0": 0, "conjugated": 0}
    for _ in range(10000):
        k = rng.randint(0, 6)
        boundary = [(x, k + rng.randint(-1, 1)) for x in "abcd"]
        terms = [(rng.choice("abcdefgh"), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(0, 8))]
        cut = rng.randint(0, len(terms))
        rf = reduce(merge_terms(terms[:cut] + boundary + terms[cut:]))
        pf = positive_factorization(rf)
        line = rf_to_json(rf)
        if pf is not None:
            line += " %s %s %d %s" % (format_word(pf.word), pf.rule,
                                      pf.rotation, format_word(pf.conjugator))
            seen["rotation > 0"] += pf.rotation > 0
            seen["conjugated"] += bool(pf.conjugator)
        seen[pf.rule if pf else None] += 1
        digest.update(line.encode() + b"\n")
    assert min(seen.values()) >= 20, seen
    assert digest.hexdigest() == ("e2123bc49eed56c85174d5b83f17420e"
                                  "3bce3f385337e54d6ccc4e50c12ac01a")
