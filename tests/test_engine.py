"""The arc engine: canonical arcs, the side comparison, the certified
twist action, the equality oracle (cross-validated against the arc-action
reference), the witness library, and the bounded left-witness search
(including cross-validation of the pruned search against the unpruned
reference sweep)."""

from copy import deepcopy
import hashlib
import itertools
import pickle
import random

import pytest

from lanternbook import engine, geometry
from lanternbook.classify import Classification, classify, match_ot_shape
from lanternbook.engine import (EDGE_CYCLE, IDENTITY_ACTION, LEFT, PORTS,
                                RIGHT, Arc, ArcAction, Model, RVReport,
                                _canonical_sweep,
                                _equal_by_action,
                                apply_twist, apply_word, arc_from_json,
                                arc_to_json, certify_model,
                                equal_in_mcg, get_model,
                                is_right_veering_upto, make_arc, reverse,
                                side_at_start, witness_library)
from lanternbook.errors import (InvariantViolation, MalformedArcError,
                                PreconditionError, WordSyntaxError)
from lanternbook.geometry import CURVE_POLYGONS
from lanternbook.invariant import SLOPES, _invariant
from lanternbook.lantern import (ReducedForm, expand, positive_factorization,
                                 reduce)
from lanternbook.words import (BOUNDARY, INTERIOR, concat, exponent_class,
                               free_reduce, invert, merge_terms, parse)
from witness_reference import naive_first_witness

GENERATORS = "abcdefgh"


def _small_arcs(max_crossings=1):
    """Deterministic basis of small canonical arcs for spot checks."""
    out = []
    for s in PORTS:
        for t in PORTS:
            out.append(Arc(s, (), t))
            if max_crossings >= 1:
                for x in (1, -1, 2, -2, 3, -3):
                    out.append(Arc(s, (x,), t))
    return out


# -- model construction ----------------------------------------------------

def test_certify_model_reports_the_batteries():
    info = certify_model()
    assert sorted(info["tables"]) == list(GENERATORS)
    assert info["lantern"] == (True, True)
    assert len(info["library"]) == 9


def test_build_timings_are_recorded():
    model = get_model()
    model.ensure_library()
    for seconds in (model.build_s, model.library_build_s):
        assert isinstance(seconds, float) and seconds > 0
    assert certify_model()["build_s"] == {"model": model.build_s,
                                          "library": model.library_build_s}


# sha256 over everything the certified build outputs: both signs of every
# twist table, the naming of the g and h curves, the pinned slopes and the
# nine library arcs
_BUILD_DIGEST = \
    "f8fe97e16a34e9a2ec5798f68bb4447aa43d98defc4d2a8ef066b9cf25b48a61"


def test_build_output_is_unchanged():
    model = get_model()
    library = model.ensure_library()
    digest = hashlib.sha256()
    for letter in sorted(model.tables):
        for i, action in enumerate(model.tables[letter]):
            digest.update(("%s%d" % (letter, i)).encode())
            for part in action.phi + action.w:
                digest.update(part + b"|")
    # the digest was recorded while g and h were chosen at build time from
    # two polygons named v and u; it hashes that naming under those names
    earlier_name = {(1, -2, 3): "v", (-1, 2, -3): "u"}
    g, h = ([earlier_name[geometry.CURVE_WORDS[letter]]] for letter in "gh")
    digest.update(("g=%s h=%s" % (g, h)).encode())
    digest.update(repr(sorted(SLOPES.items())).encode())
    for entry in library:
        digest.update(repr((entry.name, entry.arc)).encode())
    assert digest.hexdigest() == _BUILD_DIGEST


def test_order_battery_compares_every_pair_under_every_action(monkeypatch):
    # 3 start ports x 36 arcs, 6 words: each image is computed once, each
    # arc and image is checked once, and each of the 3 x C(36, 2) = 1,890
    # pairs is compared before and after each word
    model = get_model()
    calls = {"step": 0, "check": 0, "side": 0}
    true_step, true_check, true_side = \
        engine._step, engine._require_reduced, engine._side_of

    def counting_step(*args):
        calls["step"] += 1
        return true_step(*args)

    def counting_check(word, **details):
        calls["check"] += 1
        return true_check(word, **details)

    def counting_side(*args):
        calls["side"] += 1
        return true_side(*args)

    monkeypatch.setattr(engine, "_step", counting_step)
    monkeypatch.setattr(engine, "_require_reduced", counting_check)
    monkeypatch.setattr(engine, "_side_of", counting_side)
    model._certify_order_preservation()
    assert calls == {"step": 3 * 36 * 6, "check": 3 * 36 * 7,
                     "side": 1890 * 7}


def test_order_battery_catches_a_wrong_image(monkeypatch):
    # the image of the arc P2b -(+1)-> P3a is replaced by that of the arc
    # P2b -(+1)-> P4
    model = get_model()
    true_step = engine._step
    victim = (PORTS.index("P2b"), b"a", PORTS.index("P3a"))

    def wrong_step(action, s, word, t):
        if (s, word, t) == victim:
            t = PORTS.index("P4")
        return true_step(action, s, word, t)

    monkeypatch.setattr(engine, "_step", wrong_step)
    with pytest.raises(InvariantViolation, match="side order"):
        model._certify_order_preservation()


def _polygon_actions(monkeypatch, curve, change):
    """Replace the twist tables (plus, minus) that the build reads off the
    splices of ``curve`` by ``change(plus, minus)``."""
    true_action = engine._twist_action
    lines = geometry.BASIS_LOOPS + [geometry.REFERENCE_ARCS[p][0]
                                    for p in PORTS]
    target = [geometry.splice(line, CURVE_POLYGONS[curve]) for line in lines]

    def patched(spliced, k):
        if spliced != target or abs(k) != 1:
            return true_action(spliced, k)
        plus, minus = change(true_action(spliced, 1), true_action(spliced, -1))
        return plus if k > 0 else minus

    monkeypatch.setattr(engine, "_twist_action", patched)


def _tables_after_naming(monkeypatch, corrupt):
    """Apply ``corrupt`` to the tables the build read off the polygons,
    just before they are certified."""
    true_certify = Model._certify_tables

    def certify(self):
        corrupt(self.tables)
        true_certify(self)

    monkeypatch.setattr(Model, "_certify_tables", certify)


def _fault_inverse_pair(monkeypatch):
    _polygon_actions(monkeypatch, "e", lambda plus, minus: (plus, plus))
    Model()


def _fault_naming(monkeypatch):
    # g and h swapped: both tables still pass the table batteries, but the
    # lantern relations fail in the action and hold in the invariant
    true_splice = geometry.splice
    g, h = CURVE_POLYGONS["g"], CURVE_POLYGONS["h"]
    swapped = {id(g): h, id(h): g}
    monkeypatch.setattr(geometry, "splice", lambda points, polygon:
                        true_splice(points, swapped.get(id(polygon), polygon)))
    try:
        Model()
    except InvariantViolation as exc:
        assert "disagrees with the arc action" in str(exc)
        raise


def _fault_centrality(monkeypatch):
    _tables_after_naming(monkeypatch,
                         lambda tables: tables.update(a=tables["e"]))
    Model()


def _fault_distinctness(monkeypatch):
    _tables_after_naming(monkeypatch,
                         lambda tables: tables.update(h=tables["g"]))
    Model()


def _fault_port_words(monkeypatch):
    # f followed by the central a: the relations of the tables above hold,
    # but f's correction word at P4 is no longer empty
    def times_a(tables):
        tables["f"] = tuple(engine._compose(f, a)
                            for f, a in zip(tables["f"], tables["a"]))

    _tables_after_naming(monkeypatch, times_a)
    Model()


def _fault_power(monkeypatch):
    # the tables are right, but every power past them is one twist short
    true_action = engine._twist_action
    monkeypatch.setattr(engine, "_twist_action", lambda spliced, k:
                        true_action(spliced, k - (k > 1) + (k < -1)))
    try:
        Model()
    except InvariantViolation as exc:
        assert "twist power disagrees with its table" in str(exc)
        raise


def _fault_pinned_relation(monkeypatch):
    # the action answers e e f f and e f e f as equal
    true_action = Model.word_action
    eeff = (("e", 1), ("e", 1), ("f", 1), ("f", 1))
    efef = (("e", 1), ("f", 1), ("e", 1), ("f", 1))

    def word_action(self, word):
        word = tuple(word)
        return true_action(self, efef if word == eeff else word)

    monkeypatch.setattr(Model, "word_action", word_action)
    Model()


def _fault_anchors(monkeypatch):
    model = Model()
    model.tables["e"] = model.tables["e"][::-1]
    model.ensure_library()


def _fault_order_image_backtrack(monkeypatch):
    # an image with a backtrack is the engine's own fault, not a user error
    true_step = engine._step
    monkeypatch.setattr(engine, "_step",
                        lambda *args: true_step(*args) + b"aA")
    try:
        Model()._certify_order_preservation()
    except InvariantViolation as exc:
        assert "crossing word has a backtrack" in str(exc)
        raise


def _fault_library_image_backtrack(monkeypatch):
    true_fold = Model._fold
    monkeypatch.setattr(Model, "_fold", lambda self, arc, terms:
                        true_fold(self, arc, terms) + b"aA")
    try:
        engine._certify_library(Model())
    except InvariantViolation as exc:
        assert "crossing word has a backtrack" in str(exc)
        raise


def _fault_library_validation(monkeypatch):
    # a b c d e^-2 f^-1 moves this arc left but a b c d e^-1 f^-2 moves it
    # right, so the build must check every pattern of the crossing entry
    cross = engine._LIBRARY[8]._replace(arc=Arc("P2b", (2,), "P4"))
    monkeypatch.setattr(engine, "_LIBRARY", engine._LIBRARY[:8] + (cross,))
    Model().ensure_library()


@pytest.mark.parametrize("fault", [
    _fault_inverse_pair, _fault_naming, _fault_centrality,
    _fault_distinctness, _fault_port_words, _fault_power,
    _fault_pinned_relation,
    _fault_anchors, _fault_library_validation, _fault_order_image_backtrack,
    _fault_library_image_backtrack])
def test_a_corrupted_table_fails_the_build(monkeypatch, fault):
    with pytest.raises(InvariantViolation):
        fault(monkeypatch)


# -- arcs -------------------------------------------------------------------

def test_make_arc_removes_backtracks():
    arc = make_arc("P1", [1, 2, -2, -1, 3], "P4")
    assert arc.crossings == (3,)
    assert make_arc(arc.start, arc.crossings, arc.end) == arc


def test_make_arc_rejects_garbage():
    for start in ("P9", None, ["P1"]):
        with pytest.raises(MalformedArcError, match="unknown port"):
            make_arc(start, [], "P1")
    with pytest.raises(MalformedArcError):
        make_arc("P1", [4], "P1")
    with pytest.raises(MalformedArcError):
        make_arc("P1", ["d1"], "P1")
    # 97, 65 and 99 are the engine's own codes of +1, -1 and +2
    for letter in (True, 1.0, 0, 97, 65, 99):
        with pytest.raises(MalformedArcError, match="bad crossing letter"):
            make_arc("P1", [letter], "P2a")
    with pytest.raises(MalformedArcError, match="bad crossing letter"):
        make_arc("P1", b"aA", "P2a")
    for crossings in (5, None):
        with pytest.raises(MalformedArcError, match="not a sequence"):
            make_arc("P1", crossings, "P1")


def test_apply_twist_rejects_bad_curves_and_signs():
    arc = Arc("P1", (1,), "P2a")
    for curve in ("x", "E", "", "ef", None, ["e"]):
        with pytest.raises(PreconditionError, match="unknown curve"):
            apply_twist(arc, curve, 1)
    # True == 1 and 1.0 == 1, so a membership test alone would take them
    for sign in (2, 0, True, 1.0, -1.0):
        with pytest.raises(PreconditionError, match="sign must be"):
            apply_twist(arc, "e", sign)
    assert apply_twist(arc, "e", -1) == apply_word(arc, "e^-1")


def test_arcs_built_directly_are_checked_at_every_entry_point():
    # Arc is exported at the package root, so it can be built without
    # make_arc's checks; each operation refuses it with one of the
    # package's error kinds, not a bare KeyError (or, from arc_to_json, a
    # "d7" crossing that arc_from_json would refuse)
    cases = [(Arc("Q", (1,), "P1"), MalformedArcError, "unknown port"),
             (Arc("P1", (1,), "Q"), MalformedArcError, "unknown port"),
             (Arc("P1", (7,), "P1"), MalformedArcError, "bad crossing letter"),
             (Arc("P1", (1, 0), "P1"), MalformedArcError,
              "bad crossing letter"),
             # True == 1 and 2.0 == 2, so a lookup alone would take them
             (Arc("P1", (True, 2.0), "P4"), MalformedArcError,
              "bad crossing letter"),
             (Arc("P1", (1, 2.0), "P4"), MalformedArcError,
              "bad crossing letter"),
             # the engine's encoding of (1,) and (1, -1) is no crossing word
             (Arc("P1", (97,), "P2a"), MalformedArcError,
              "bad crossing letter"),
             (Arc("P1", b"aA", "P2a"), MalformedArcError,
              "bad crossing letter"),
             (Arc("P1", (1, -1), "P1"), PreconditionError, "not canonical"),
             (Arc("P1", 5, "P1"), MalformedArcError, "not a sequence"),
             (Arc(["P1"], (), "P1"), MalformedArcError, "unknown port")]
    for arc, kind, message in cases:
        with pytest.raises(kind, match=message):
            side_at_start(arc, arc)
        with pytest.raises(kind, match=message):
            apply_twist(arc, "e")
        with pytest.raises(kind, match=message):
            apply_word(arc, "e f^-1")
        with pytest.raises(kind, match=message):
            apply_word(arc, "")
        with pytest.raises(kind, match=message):
            arc_to_json(arc)


@pytest.mark.parametrize("thing", [None, "P1", ("P1", (), "P4")],
                         ids=["None", "str", "tuple"])
@pytest.mark.parametrize("call", [
    lambda x: side_at_start(x, Arc("P1", (), "P4")),
    lambda x: apply_word(x, "e"), arc_to_json,
    lambda x: apply_twist(x, "e")],
    ids=["side_at_start", "apply_word", "arc_to_json", "apply_twist"])
def test_entry_points_refuse_what_is_not_an_arc(call, thing):
    with pytest.raises(MalformedArcError, match="not an arc"):
        call(thing)


def test_arc_json_round_trip():
    arc = make_arc("P2a", [1, -3, 2], "P4")
    doc = arc_to_json(arc)
    assert doc["start"] == ["C2", 0] and doc["end"] == ["C4", 0]
    assert doc["crossings"] == [["d1", "+"], ["d3", "-"], ["d2", "+"]]
    assert arc_from_json(doc) == arc


def test_arc_json_rejects_malformed_documents():
    for doc in [{}, {"start": ["C1", 0], "end": ["C9", 0], "crossings": []},
                {"start": ["C1", 0], "end": ["C2", 0],
                 "crossings": [["d4", "+"]]},
                {"start": ["C1", 0], "end": ["C2", 0],
                 "crossings": [["d1", "*"]]},
                {"start": ["C1", 0], "end": ["C2", 0], "crossings": 5},
                # True == 1 and 0.0 == 0 would find P2b and P4 by hash
                {"start": ["C2", True], "end": ["C4", 0.0], "crossings": []},
                {"start": ["C2", 1], "end": ["C4", 0.0], "crossings": []},
                # a port is a (component, index) pair and nothing more
                {"start": ["C2", 1, "junk"], "end": ["C4", 0, 5],
                 "crossings": []},
                {"start": ["C2", 1], "end": ["C4", 0, 5], "crossings": []}]:
        with pytest.raises(MalformedArcError):
            arc_from_json(doc)


def test_reverse_is_an_involution():
    arc = make_arc("P1", [1, 2], "P3a")
    assert reverse(reverse(arc)) == arc
    assert reverse(arc).start == "P3a"


# -- side comparison ----------------------------------------------------------

def test_side_of_itself_is_equal():
    arc = make_arc("P1", [1, 2], "P3a")
    assert side_at_start(arc, arc) == "Equal"


def test_side_requires_a_common_start():
    with pytest.raises(PreconditionError):
        side_at_start(Arc("P1", (), "P4"), Arc("P4", (), "P1"))


def test_side_antisymmetry_on_small_arcs():
    arcs = [a for a in _small_arcs() if a.start == "P1"]
    for alpha, beta in itertools.combinations(arcs, 2):
        ab = side_at_start(alpha, beta)
        ba = side_at_start(beta, alpha)
        if ab == "Equal":
            assert ba == "Equal" and alpha == beta
        else:
            assert {ab, ba} == {LEFT, RIGHT}, (alpha, beta)


# -- the twist action ----------------------------------------------------------

def test_twists_are_invertible_on_small_arcs():
    for arc in _small_arcs():
        for g in GENERATORS:
            assert apply_twist(apply_twist(arc, g, +1), g, -1) == arc


def test_boundary_twist_misses_far_arcs():
    # the twist parallel to C1 fixes arcs with no endpoint on C1
    arc = Arc("P3a", (), "P3b")
    assert apply_twist(arc, "a", +1) == arc


def test_inverse_pair_on_a_library_witness():
    alpha = witness_library()[0][1]
    assert apply_twist(apply_twist(alpha, "e", +1), "e", -1) == alpha


def test_apply_word_identity_and_relations():
    arc = make_arc("P2a", [1], "P4")
    assert apply_word(arc, ()) == arc
    for alpha in _small_arcs():
        assert apply_word(alpha, parse("g e f")) == \
            apply_word(alpha, parse("a b c d"))
        assert apply_word(alpha, parse("h f e")) == \
            apply_word(alpha, parse("a b c d"))


def _apply_term_by_term(model, arc, word):
    """Reference for the byte fold of ``apply_word``: one
    ``apply_action`` per term, each image decoded into a new arc."""
    img = arc
    for letter, exp in free_reduce(word):
        img = model.apply_action(model.piece_action(letter, exp), img)
    return img


def test_apply_word_matches_the_term_by_term_and_composite_images():
    # 300 seeded words of 1-7 raw terms over all eight generators with
    # exponents -4..4 (zeros and adjacent equal letters included, so
    # apply_word reduces them), each applied to every library arc, its
    # reverse and a seeded arc of at most 3 crossings between every pair
    # of ports.  Images grow geometrically with the interior, so words of
    # interior weight above 12 are redrawn.
    model = get_model()
    library = [arc for _, arc in witness_library()]
    library += [reverse(arc) for arc in library]
    rng = random.Random(40)
    words = 0
    signs, lengths = set(), set()
    while words < 300:
        raw = [(rng.choice(GENERATORS), rng.randint(-4, 4))
               for _ in range(rng.randint(1, 7))]
        if _interior_weight(merge_terms(raw)) > 12:
            continue
        words += 1
        signs.update(k > 0 for _, k in merge_terms(raw))
        lengths.add(len(raw))
        u = []
        while len(u) < rng.randint(0, 3):
            x = rng.choice((1, -1, 2, -2, 3, -3))
            if not u or x != -u[-1]:
                u.append(x)
        arcs = library + [make_arc(s, u, t) for s in PORTS for t in PORTS]
        action = model.word_action(raw)
        for arc in arcs:
            image = apply_word(arc, raw)
            assert image == _apply_term_by_term(model, arc, raw), (raw, arc)
            assert image == model.apply_action(action, arc), (raw, arc)
    assert signs == {True, False} and lengths == set(range(1, 8))


def test_apply_word_parses_strings():
    arc = Arc("P1", (), "P4")
    assert apply_word(arc, "e e^-1") == arc
    with pytest.raises(WordSyntaxError):
        apply_word(arc, "x")


# -- the equality oracle ---------------------------------------------------------

def test_lantern_relations_certify():
    assert equal_in_mcg("g e f", "a b c d")
    assert equal_in_mcg("h f e", "a b c d")


def test_distinctness():
    assert not equal_in_mcg("e^2 f^2", "e f e f")


def test_boundary_twists_are_central():
    for k in "abcd":
        for g in GENERATORS:
            assert equal_in_mcg("%s %s" % (k, g), "%s %s" % (g, k))


def test_generators_act_pairwise_distinctly():
    for x, y in itertools.combinations(GENERATORS, 2):
        assert not equal_in_mcg(x, y), (x, y)


def test_conjugation_sanity():
    assert equal_in_mcg("a e a^-1", "e")
    assert not equal_in_mcg("f e f^-1", "e")


def test_equality_cost_does_not_grow_with_exponents():
    # one matrix product per term whatever the power; the arc action of
    # these words would not fit in memory
    assert not equal_in_mcg("e^1000000 f^1000000", "f^1000000 e^1000000")
    assert equal_in_mcg("a^1000000 g^-1000000 e", "g^-1000000 e a^1000000")


# Cross-validation of equal_in_mcg against the arc-action reference.  The
# reference's data grow exponentially with the interior of a word, so the
# battery caps the interior letter count (g and h count twice: each is two
# interior letters after the lantern substitution).

_PAD_HEAD = parse("g e f")
_PAD_TAIL = parse("a^-1 b^-1 c^-1 d^-1")
_INTERIOR_CAP = 20


def _interior_weight(w):
    return sum(abs(k) * (2 if x in "gh" else 1) for x, k in w
               if x in INTERIOR)


def _reduce_bytes(s):
    """Free reduction of an encoded crossing word, one letter at a time
    (a letter and its inverse differ in ASCII case)."""
    out = bytearray()
    for ch in s:
        if out and out[-1] == ch ^ 0x20:
            out.pop()
        else:
            out.append(ch)
    return bytes(out)


def test_image_is_the_reduced_substitution_and_skips_fixed_letters():
    # b, c and d fix every cut letter (they change only port words), so
    # their image is the input object itself with no pass over it; every
    # other piece must give the freely reduced translate-and-replace
    model = get_model()
    rng = random.Random(51)
    inputs = [_reduce_bytes(engine._encode(
        [rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(n)]))
        for n in range(12) for _ in range(8)]
    for letter in GENERATORS:
        for exp in (-4, -3, -2, -1, 1, 2, 3, 4):
            table = model.piece_action(letter, exp).table
            trans, pairs = table
            assert (pairs == ()) == (letter in "bcd"), (letter, exp)
            for s in inputs:
                image = engine._image(s, table)
                if letter in "bcd":
                    assert image is s
                    continue
                expected = s.translate(trans)
                for placeholder, word in pairs:
                    expected = expected.replace(placeholder, word)
                assert image == _reduce_bytes(expected), (letter, exp, s)


def _random_reduced_bytes(rng, n):
    """A random freely reduced byte word of ``n`` letters."""
    word = []
    while len(word) < n:
        ch = rng.choice(b"aAbBcC")
        if not word or word[-1] != ch ^ 0x20:
            word.append(ch)
    return bytes(word)


def test_seam_joins_match_a_naive_stack_reduction():
    # planted seams of 0 to 3 x _SCAN letters, past which the seam kernel
    # takes over, and words u . v . u^-1 whose cancellations nest len(u)
    # levels deep, past the _PASSES replace passes
    rng = random.Random(52)

    def word(most):
        return _random_reduced_bytes(rng, rng.randint(0, most))

    scan = engine._SCAN
    deep = 0
    for _ in range(400):
        seam = word(3 * scan)
        a = _reduce_bytes(word(40) + seam)
        b = _reduce_bytes(engine._inv_str(seam) + word(40))
        assert engine._cat_str(a, b) == _reduce_bytes(a + b), (a, b)
        parts = []
        for _ in range(rng.randint(1, 4)):
            u = word(3 * scan)
            deep += len(u) > engine._PASSES
            parts += [word(3), u, word(2), engine._inv_str(u)]
        s = b"".join(parts)
        assert engine._reduce_str(s) == _reduce_bytes(s), s
    assert deep >= 500


def _random_word(rng, max_terms=8, max_exp=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        k = rng.choice([k for k in range(-max_exp, max_exp + 1) if k])
        terms.append((rng.choice(GENERATORS), k))
    return merge_terms(terms)


def _commute_ef(rng, w):
    """``w`` with one adjacent e^m f^n (inserted when absent), and the
    same word with that pair commuted to f^n e^m: same exponent class,
    different mapping class (e and f generate a free group)."""
    spots = [i for i in range(len(w) - 1)
             if w[i][0] == "e" and w[i + 1][0] == "f"]
    if spots:
        i = rng.choice(spots)
        head, (e, f), tail = w[:i], w[i:i + 2], w[i + 2:]
    else:
        i = rng.randint(0, len(w))
        head, tail = w[:i], w[i:]
        e = ("e", rng.choice((-2, -1, 1, 2)))
        f = ("f", rng.choice((-2, -1, 1, 2)))
    return concat(head, (e, f), tail), concat(head, (f, e), tail)


def _equality_battery(seed, size):
    """Seeded pairs of four kinds in turn: w against expand(reduce(w)),
    w against g e f . w . (abcd)^-1, a commuted e^m f^n pair, and two
    unrelated words; pairs over the interior cap are redrawn."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < size:
        kind = len(pairs) % 4
        w = _random_word(rng)
        if kind == 0:
            other = expand(reduce(w))
        elif kind == 1:
            other = concat(_PAD_HEAD, w, _PAD_TAIL)
        elif kind == 2:
            w, other = _commute_ef(rng, w)
        else:
            other = _random_word(rng)
        if max(_interior_weight(w), _interior_weight(other)) <= _INTERIOR_CAP:
            pairs.append((w, other))
    return pairs


def test_equality_agrees_with_the_arc_reference():
    equal = unequal_same_class = 0
    for w1, w2 in _equality_battery(20261018, 2000):
        answer = equal_in_mcg(w1, w2)
        assert answer == _equal_by_action(w1, w2), (w1, w2)
        if answer:
            equal += 1
        elif exponent_class(w1) == exponent_class(w2):
            unequal_same_class += 1
    # the battery holds equal pairs and unequal pairs of one exponent class
    assert equal >= 900 and unequal_same_class >= 450


# -- witness search ---------------------------------------------------------------

def test_rv_examples():
    rep = is_right_veering_upto("a b c d e^-2 f^-1", 12)
    assert rep.outcome == "NotRightVeering"
    assert rep.boundary in ("C2", "C4")
    img = apply_word(rep.witness, "a b c d e^-2 f^-1")
    assert side_at_start(rep.witness, img) == LEFT
    assert is_right_veering_upto("e f", 12).outcome == "NoWitnessUpToBound"
    assert is_right_veering_upto("", 12).outcome == "NoWitnessUpToBound"


def test_rv_bound_is_validated():
    for bound in (0, -1):
        with pytest.raises(PreconditionError, match="bound must be >= 1"):
            is_right_veering_upto("e", bound)
    # the depth-first search recurses once per crossing; a deeper bound is
    # refused before any search instead of ending in RecursionError
    for bound in (engine.MAX_BOUND + 1, 1500):
        with pytest.raises(PreconditionError,
                           match="bound must be <= %d" % engine.MAX_BOUND):
            is_right_veering_upto("a^4 b c d e^4 f^-4", bound)
    for bound in ("3", 3.0, True, None):
        with pytest.raises(PreconditionError, match="bound must be an int"):
            is_right_veering_upto("e", bound)


def test_rv_report_serialization():
    doc = is_right_veering_upto("a b c d e^-1 f^-2", 12).to_json()
    assert doc["outcome"] == "NotRightVeering"
    assert doc["witness"]["start"][0] in ("C1", "C2", "C3", "C4")
    doc = is_right_veering_upto("e", 3).to_json()
    assert doc == {"outcome": "NoWitnessUpToBound", "bound": 3,
                   "word": "e", "witness": None}


def test_rv_report_holds_its_own_tuple_of_the_terms():
    # a list, a tuple and a one-shot iterator of the same terms give equal,
    # hashable reports; changing the caller's list afterwards changes none
    for text in ("a b c d e^-1 f^-2", "e f", "a^2 b c d e^2 f^-3"):
        terms = list(parse(text))
        reports = [is_right_veering_upto(x, 12)
                   for x in (terms, tuple(terms), iter(terms))]
        terms.append(("e", -5))
        assert len(set(reports)) == 1, text
        assert reports[0].word == parse(text)
        for report in reports:
            assert report.to_json() == reports[0].to_json()
            assert report.to_json()["word"] == text
    with pytest.raises(PreconditionError) as expected:
        merge_terms(5)
    with pytest.raises(PreconditionError) as refused:
        is_right_veering_upto(5, 12)
    assert str(refused.value) == str(expected.value)


def test_a_word_the_rule_settles_takes_one_checked_pass(monkeypatch):
    # criterion-5 words: no probe candidate, and the rule settles them
    # from one pass of the kernel, with the word never reduced and the
    # model never asked for
    calls = []
    kernel = engine._invariant

    def counted(slopes, terms):
        calls.append(terms)
        return kernel(slopes, terms)

    def refused(*args):
        raise AssertionError("called on a word the rule settles")

    monkeypatch.setattr(engine, "_invariant", counted)
    monkeypatch.setattr(engine, "free_reduce", refused)
    monkeypatch.setattr(engine, "get_model", refused)
    for text in ("a b c d e^-2", "a^2 b c d e^2 f^-3"):
        del calls[:]
        report = is_right_veering_upto(text, 12)
        assert report.outcome == "NoWitnessUpToBound", text
        assert calls == [parse(text)], text


def _probe_score(entry, sums):
    """The three-valued score the probe ranked the library by, as a
    reference for ``engine._rank_library``: 0 for a ``neg`` or ``zero``
    entry that the exponent sums (a dict by letter) match, 1 for a
    matching ``cross`` entry, 2 for an entry that does not match."""
    kind = entry.kind
    if kind[0] == "neg":
        return 0 if sums.get(BOUNDARY[kind[1] - 1], 0) < 0 else 2
    if kind[0] == "zero":
        zero = sums.get(BOUNDARY[kind[1] - 1], 0) == 0
        return 0 if zero and min(sums.get("e", 0), sums.get("f", 0)) < 0 else 2
    return 1 if sums.get("e", 0) < 0 and sums.get("f", 0) < 0 else 2


def _probe_by_ranking_loop(model, terms, sums, want_cheap):
    """Reference for ``engine._probe``: rank the library by score, score
    each entry again in the loop, and take each image term by term."""
    ranked = sorted(enumerate(model.ensure_library()),
                    key=lambda pair: (_probe_score(pair[1], sums), pair[0]))
    for _, entry in ranked:
        score = _probe_score(entry, sums)
        if want_cheap and score >= 2:
            break
        if not want_cheap and score < 2:
            continue
        candidates = [entry.arc]
        rev = reverse(entry.arc)
        if rev != entry.arc:
            candidates.append(rev)
        for arc in candidates:
            img = _apply_term_by_term(model, arc, terms)
            if side_at_start(arc, img) == LEFT:
                return arc
    return None


def test_probe_returns_the_ranking_loops_arc():
    # 2,000 words shaped like the overtwisted grid (boundary exponents
    # -4..4, one block e^m f^n or two runs, interior exponents -2..2) and
    # 500 mixed-sign words of up to 6 terms, for both probe passes
    model = get_model()
    rng = random.Random(50)
    span = (-2, -1, 1, 2)
    words = []
    for i in range(2000):
        r = tuple(rng.randint(-4, 4) for _ in range(4))
        if i % 2:
            blocks = ((rng.randint(-2, 2), rng.randint(-2, 2)),)
        else:
            blocks = ((rng.choice(span), rng.choice(span)),
                      (rng.choice(span), 0))
        if blocks == ((0, 0),):
            blocks = ()
        words.append(free_reduce(expand(ReducedForm(r, blocks))))
    while len(words) < 2500:
        w = free_reduce(_random_word(rng, 6, 3))
        if len({k > 0 for x, k in w if x in INTERIOR}) == 2:
            words.append(w)
    hits = {True: 0, False: 0}
    for terms in words:
        sums = {}
        for letter, exp in terms:
            sums[letter] = sums.get(letter, 0) + exp
        for want_cheap in (True, False):
            arc = engine._probe(engine._rank_library(
                _invariant(SLOPES, terms)[1])[not want_cheap], terms)
            assert arc == _probe_by_ranking_loop(
                model, terms, sums, want_cheap), (terms, want_cheap)
            hits[want_cheap] += arc is not None
    # both passes find witnesses and both miss
    for found in hits.values():
        assert 1000 <= found <= len(words) - 100, hits


def test_the_cheap_probe_pass_is_already_in_score_order():
    # a score reads only the signs of the a..f exponent sums, so the 3^6
    # sign patterns are every case: the entries scoring < 2, in library
    # order, are in (score, index) order too, and the rest follow
    for signs in itertools.product((-1, 0, 1), repeat=6):
        terms = tuple((x, k) for x, k in zip("abcdef", signs) if k)
        sums = dict(terms)
        scores = [_probe_score(entry, sums) for entry in engine._LIBRARY]
        cheap, rest = engine._rank_library(_invariant(SLOPES, terms)[1])
        assert cheap == sorted((i for i, score in enumerate(scores)
                                if score < 2), key=lambda i: (scores[i], i))
        assert rest == [i for i, score in enumerate(scores) if score == 2]
    assert engine._rank_library(_invariant(SLOPES, ())[1]) == \
        ([], list(range(9)))


def test_witness_library_entries_are_certified():
    entries = witness_library()
    assert len(entries) == 9
    for word, arc in entries:
        img = apply_word(arc, word)
        assert side_at_start(arc, img) == LEFT


def test_witness_library_covers_the_documented_families():
    entries = witness_library()
    # the negative-boundary family starts on each component in turn
    for k in range(4):
        word, arc = entries[k]
        assert ("abcd"[k], -1) in word
        assert arc.start_boundary()[0] == "C%d" % (k + 1)
    # the crossing witness is left-veering at both of its ends
    word, gamma = entries[8]
    for w in ("a b c d e^-2 f^-1", "a b c d e^-1 f^-2"):
        img = apply_word(gamma, w)
        assert side_at_start(gamma, img) == LEFT
        assert side_at_start(reverse(gamma), reverse(img)) == LEFT


def test_pruned_search_matches_the_reference_sweep(monkeypatch):
    words = ["a b c d e^-2 f^-1", "a b c d e^-1 f^-2", "a^-1 e^2 f^2",
             "e^-1 f", "e f", "a b c d e^-1", "b^-1 f^3", "e^-2 f^2",
             "a b c d e^-1 f^-1", "c^-1", "e^2 f^-1", ""]
    cases = [(text, bound) for text in words for bound in (3, 5)]
    # Mixed-sign words that the probe and the one-crossing sweep leave
    # open, so with the right-veering rule patched out the depth-first
    # search decides them: the first four have witnesses of 2-3
    # crossings, the rest none.  Picked from a seeded random draw for
    # cheap reference sweeps.
    deep = [("h g^2 f h^-2", 3), ("h e^3 h^-2", 3), ("f h^2 f^-3", 3),
            ("h^-3 c^2 f^2 h", 2), ("f^3 g f^-1", 3), ("f g^-3 e^2", 3),
            ("h f^-3 g e^-1", 2), ("g^-3 e h f^2", 2), ("a e^-1 f^2 e^2", 2)]
    model = get_model()
    monkeypatch.setattr(model, "_rv_cache", {})
    monkeypatch.setattr(engine, "_right_veering",
                        lambda terms, record: (False, None))
    searched = []
    true_dfs = engine._dfs_search

    def recording_dfs(model, action, bound):
        searched.append(action)
        return true_dfs(model, action, bound)

    monkeypatch.setattr(engine, "_dfs_search", recording_dfs)
    outcomes = []
    for text, bound in cases + deep:
        del searched[:]
        rep = is_right_veering_upto(text, bound)
        naive = naive_first_witness(text, bound)
        assert (rep.outcome == "NotRightVeering") == \
            (naive is not None), (text, bound)
        if rep.witness is not None:
            img = apply_word(rep.witness, text)
            assert side_at_start(rep.witness, img) == LEFT
        if (text, bound) in deep:
            # the depth-first search of this word's own action
            assert model.word_action(parse(text)) in searched, text
            outcomes.append(rep.witness is not None)
    assert outcomes == [True] * 4 + [False] * 5


def test_only_searches_past_the_probe_are_memoized(monkeypatch):
    model = get_model()
    monkeypatch.setattr(model, "_rv_cache", {})
    # settled by the library probe and by the right-veering rule
    for text in ("a b c d e^-2 f^-1", "a b c d e^-2"):
        is_right_veering_upto(text, 12)
    assert model._rv_cache == {}
    # settled by the depth-first search: its witness has 2 crossings
    text = "a^4 b^4 c d^3 f e^-2 f^-2"
    key = (free_reduce(parse(text)), 12)
    witness = is_right_veering_upto(text, 12).witness
    assert len(witness.crossings) == 2
    assert list(model._rv_cache) == [key]

    def unreachable(*args):
        raise AssertionError("the memo was not read")

    with monkeypatch.context() as patch:
        for stage in ("_canonical_sweep", "_dfs_search"):
            patch.setattr(engine, stage, unreachable)
        assert is_right_veering_upto(text, 12).witness == witness
    # a full memo is emptied before the next answer goes in
    model._rv_cache.clear()
    model._rv_cache.update({((("e", i),), 12): None for i in range(10000)})
    is_right_veering_upto(text, 12)
    assert list(model._rv_cache) == [key]


def test_a_depth_first_witness_is_refolded_through_the_word(monkeypatch):
    # the witness of this word has 2 crossings, so the depth-first search
    # finds it; the recheck folds it through the word's terms and never
    # images it under the composite action the search walked
    text = "a^4 b^4 c d^3 f e^-2 f^-2"
    model = get_model()
    model.ensure_library()
    monkeypatch.setattr(model, "_rv_cache", {})

    def unreachable(*args):
        raise AssertionError("the witness was imaged by the composite action")

    monkeypatch.setattr(Model, "apply_action", unreachable)
    witness = is_right_veering_upto(text, 12).witness
    assert len(witness.crossings) == 2
    assert side_at_start(witness, apply_word(witness, text)) == LEFT


def test_a_bad_depth_first_witness_is_a_fault(monkeypatch):
    # the recheck reads an image the engine folded itself, so a backtrack
    # in it is an InvariantViolation (exit 2), not a refused input, as is
    # a witness that does not move left
    text = "a^4 b^4 c d^3 f e^-2 f^-2"
    right = next(arc for arc in _small_arcs()
                 if side_at_start(arc, apply_word(arc, text)) == RIGHT)
    monkeypatch.setattr(get_model(), "_rv_cache", {})
    # the depth-first witness has 2 crossings, the probed arcs none
    true_fold = Model._fold
    monkeypatch.setattr(Model, "_fold", lambda self, arc, terms:
                        true_fold(self, arc, terms)
                        + (b"aA" if arc.crossings else b""))
    with pytest.raises(InvariantViolation, match="has a backtrack"):
        is_right_veering_upto(text, 12)
    monkeypatch.setattr(Model, "_fold", true_fold)
    monkeypatch.setattr(engine, "_dfs_search",
                        lambda model, action, bound: right)
    with pytest.raises(InvariantViolation, match="bad witness"):
        is_right_veering_upto(text, 12)


def test_long_seam_searches_keep_their_witnesses(monkeypatch):
    # the action data of these words hold seams of thousands of letters,
    # which the seam kernel cancels; the witnesses were computed with every
    # seam cancelled one letter at a time
    model = get_model()
    monkeypatch.setattr(model, "_rv_cache", {})
    pinned = {
        "h^-3 f^3 h f^-2 h d^2": Arc("P1", (1,) * 8 + (3, -2, 1, 3), "P2b"),
        "g^-2 e^-1 c h^3 f^-3 g": Arc("P1", (1,) * 10 + (-2, 3), "P2a"),
        "g^-1 h^-3 g h^2 g": None,
    }
    for text, witness in pinned.items():
        action = model.word_action(parse(text))
        assert min(map(len, action.phi[1:])) > 3 * engine._SCAN, text
        assert is_right_veering_upto(text, 12).witness == witness, text


def _first_left_witness(model, action, depth):
    """Reference for the sweep: every arc in length-major, start port,
    crossing word, end port order, each image computed on its own."""
    for n in range(depth + 1):
        for s in PORTS:
            for u in itertools.product((1, -1, 2, -2, 3, -3), repeat=n):
                if any(u[i + 1] == -u[i] for i in range(n - 1)):
                    continue
                for t in PORTS:
                    arc = Arc(s, u, t)
                    image = model.apply_action(action, arc)
                    if side_at_start(arc, image) == LEFT:
                        return arc
    return None


def test_sweep_matches_the_per_arc_predicate():
    model = get_model()
    rng = random.Random(20)
    found = 0
    for _ in range(100):
        terms = [(rng.choice(INTERIOR), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            terms.insert(rng.randint(0, len(terms)),
                         (rng.choice("abcd"), rng.choice((1, -1, 2))))
        action = model.word_action(merge_terms(terms))
        arc = _canonical_sweep(action, 2)
        assert arc == _first_left_witness(model, action, 2), terms
        found += arc is not None
    # both outcomes are exercised
    assert 20 <= found <= 90


def _first_left_witness_depth_first(action, bound):
    """Reference for the depth-first search, unpruned: start ports in
    listed order, crossing words in preorder (children by letter +1, -1,
    +2, -2, +3, -3, no backtracks), and at each word the six end ports in
    listed order.  Each crossing word's image is computed once and shared
    by all of its (start, end) port pairs."""
    images = {}

    def visit(s, u):
        image = images.get(u)
        if image is None:
            image = images[u] = engine._image(engine._encode(u),
                                              action.table)
        for t in PORTS:
            # the image of (s, u, t) crosses W_s^-1 . phi(u) . W_t
            head = engine._cat_str(action.w_inv[PORTS.index(s)], image)
            word = engine._cat_str(head, action.w[PORTS.index(t)])
            arc = Arc(s, u, t)
            if side_at_start(arc, Arc(s, engine._decode(word), t)) == LEFT:
                return arc
        if len(u) < bound:
            for x in (1, -1, 2, -2, 3, -3):
                if not u or x != -u[-1]:
                    arc = visit(s, u + (x,))
                    if arc is not None:
                        return arc
        return None

    for s in PORTS:
        arc = visit(s, ())
        if arc is not None:
            return arc
    return None


def test_depth_first_search_returns_the_first_witness_in_order():
    # the staged search settles most words before the depth-first stage,
    # so call that stage directly.  A random word's first witness in this
    # order almost always has no crossing; conjugating a library word by
    # an interior twist moves its witness to the twist's image
    model = get_model()
    patterns = [word for word, _ in witness_library()]
    rng = random.Random(30)
    depths = []
    for trial in range(60):
        terms = [(rng.choice(GENERATORS), rng.choice((1, -1, 2, -2)))
                 for _ in range(rng.randint(1, 4))]
        if trial % 2:
            conj = ((rng.choice(INTERIOR), rng.choice((1, -1))),)
            terms = concat(conj, rng.choice(patterns), invert(conj))
        action = model.word_action(merge_terms(terms))
        arc = engine._dfs_search(model, action, 3)
        assert arc == _first_left_witness_depth_first(action, 3), terms
        depths.append(-1 if arc is None else len(arc.crossings))
    # both outcomes are exercised, with witnesses at and below the root
    assert depths.count(-1) >= 5 and depths.count(0) >= 20
    assert sum(d > 0 for d in depths) >= 5


def test_extremal_continuations_are_the_ports_next_to_the_reentry_edge():
    # The depth-first search prunes a node u by its leftmost and rightmost
    # completions, which it takes to be u itself ended at _HI_PORT and
    # _LO_PORT of its last letter.  Brute force: after crossing y, the
    # leftmost (rightmost) one-step continuation is the port or legal
    # letter whose exit edge has the largest (smallest) counterclockwise
    # offset from the re-entry edge.  It is a port because the 12-gon
    # alternates cut sides and ports.
    # Each letter's edges are read off the names of the 12-gon's cut sides
    # (a strand crossing +i leaves through ci+ and re-enters through ci-),
    # not off the tables under test.
    kinds = ["port" if name in PORTS else "cut" for name in EDGE_CYCLE]
    assert sorted(set(EDGE_CYCLE) - set(PORTS)) == \
        ["c1+", "c1-", "c2+", "c2-", "c3+", "c3-"]
    assert all(kinds[i] != kinds[i - 1] for i in range(12))
    letters = dict(zip(b"aAbBcC", (1, -1, 2, -2, 3, -3)))

    def exit_edge(x):
        return EDGE_CYCLE.index("c%d%s" % (abs(x), "+" if x > 0 else "-"))

    for code, y in letters.items():
        entry = exit_edge(-y)
        assert (engine._EXIT[code], engine._REENTRY[code]) == \
            (exit_edge(y), entry), y
        offsets = {("port", t): (EDGE_CYCLE.index(t) - entry) % 12
                   for t in PORTS}
        offsets.update({("letter", x): (exit_edge(x) - entry) % 12
                        for x in letters.values() if x != -y})
        assert sorted(offsets.values()) == list(range(1, 12)), y
        leftmost = max(offsets, key=offsets.get)
        rightmost = min(offsets, key=offsets.get)
        assert leftmost == ("port", PORTS[engine._HI_PORT[code]]), y
        assert rightmost == ("port", PORTS[engine._LO_PORT[code]]), y


def test_side_rule_faults_are_invariant_violations(monkeypatch):
    # the prune would be unsound if a cut side had a neighbour that is not
    # a port; the tables are built through a check that refuses one
    with pytest.raises(InvariantViolation, match="not a port"):
        engine._neighbour_port(EDGE_CYCLE.index("c2+"))
    # two divergent strands leaving through one edge: side_at_start names
    # both arcs in the fault
    edges = list(engine._EDGE_OF_PORT)
    edges[PORTS.index("P2a")] = edges[PORTS.index("P1")]
    monkeypatch.setattr(engine, "_EDGE_OF_PORT", tuple(edges))
    alpha, beta = Arc("P1", (), "P1"), Arc("P1", (), "P2a")
    with pytest.raises(InvariantViolation, match="share an exit edge") as exc:
        side_at_start(alpha, beta)
    assert exc.value.details == {"alpha": str(alpha), "beta": str(beta)}


def test_deep_search_is_pruned_up_to_the_bound_cap(monkeypatch):
    # A no-witness word whose search goes as deep as the bound: at
    # MAX_BOUND it recurses some 800 frames below the test runner's (the
    # cap's headroom) and makes about 250,000 side comparisons, linear in
    # the bound because the order-interval prune cuts every side branch.
    # Unpruned, the tree has more than 5^800 nodes; the comparison budget
    # turns that into a failure instead of a hang.
    model = get_model()
    action = model.word_action(parse("a^4 b c d e^4 f^-4"))
    true_rule = engine._turns_left
    count = [0]

    def budgeted_rule(*args):
        count[0] += 1
        if count[0] > 500_000:
            raise AssertionError("the order-interval prune stopped pruning")
        return true_rule(*args)

    monkeypatch.setattr(engine, "_turns_left", budgeted_rule)
    assert engine._dfs_search(model, action, engine.MAX_BOUND) is None
    # the search decides every side through the one side rule
    assert count[0] >= 200_000


def test_conjugation_consistency_of_no_witness_answers():
    # a conjugate of a right-veering monodromy is right-veering; bounded
    # evidence: every 1-letter conjugate of these no-witness words is
    # witness-free at bound 8
    for base in ("e f", "a b c d e^-1", "a b c d e^-1 f^-1"):
        w = parse(base)
        assert is_right_veering_upto(w, 12).outcome == "NoWitnessUpToBound"
        for s in GENERATORS:
            for sign in (1, -1):
                conj = ((s, sign),)
                ww = concat(conj, w, invert(conj))
                assert is_right_veering_upto(ww, 8).outcome == \
                    "NoWitnessUpToBound", (base, s, sign)


def test_identity_action_is_identity():
    model = get_model()
    for arc in _small_arcs():
        assert model.apply_action(IDENTITY_ACTION, arc) == arc


def test_arc_actions_are_values():
    # equality and hashing see the two fields alone, not what has been
    # derived from them
    action = get_model().word_action(parse("e f^-1 g"))
    assert action.table and action.w_inv
    copy = ArcAction(action.phi, action.w)
    assert copy == action and hash(copy) == hash(action)
    assert len({action, copy}) == 1
    with pytest.raises(AttributeError):
        action.phi = IDENTITY_ACTION.phi
    # every value type of the package keeps the repr it had as a frozen
    # dataclass, refuses writes, and survives pickle and deepcopy
    reprs = {
        exponent_class(parse("g e f")):
            "ExponentVector(canonical=(1, 1, 1, 1, 0, 0))",
        ReducedForm([1, 2, 3, 4], [(1, -1)]):
            "ReducedForm(r=(1, 2, 3, 4), blocks=((1, -1),))",
        positive_factorization(reduce(parse("a b c d e^-1 f"))):
            "PositiveFactorization(word=(('h', 1), ('f', 2)), rule='H1', "
            "rotation=0, conjugator=())",
        match_ot_shape(ReducedForm((0, 1, 1, 1), ((-1, 2),))):
            "OTShape(r=(0, 1, 1, 1), m=-1, n=2, pattern='E_F_E')",
        Classification("Unknown", ()):
            "Classification(verdict='Unknown', rules=(), rotation=0, "
            "mirror=False, ot1_broad=False)",
        classify(reduce(parse("a^-1 e f^-1 e^2 f e^-1 f^2")), True):
            "Classification(verdict='Overtwisted', rules=('OT1',), "
            "rotation=0, mirror=False, ot1_broad=True)",
        IDENTITY_ACTION:
            "ArcAction(phi=(b'a', b'b', b'c'), "
            "w=(b'', b'', b'', b'', b'', b''))",
        Arc("P1", (), "P2a"): "Arc(start='P1', crossings=(), end='P2a')",
        RVReport(12, parse("e")):
            "RVReport(bound=12, word=(('e', 1),), witness=None)",
        is_right_veering_upto(parse("a b c d e^-2 f^-1"), 4):
            "RVReport(bound=4, word=(('a', 1), ('b', 1), ('c', 1), "
            "('d', 1), ('e', -2), ('f', -1)), "
            "witness=Arc(start='P2b', crossings=(), end='P4'))",
    }
    assert len({type(value) for value in reprs}) == 8
    for value, text in list(reprs.items()) + [(action, repr(action))]:
        assert repr(value) == text
        for name in list(vars(value)):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text
        for twin in (pickle.loads(pickle.dumps(value)), deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
    # equal field values in two types are two unequal values
    assert Arc(12, (), None) != RVReport(12, (), None)
    assert RVReport(12, (), None) != Arc(12, (), None)


def _composed_power(model, letter, exp):
    """Reference for the closed-form powers of ``piece_action``: the
    composition loop it ran before, one certified table at a time."""
    base = model.tables[letter][0 if exp > 0 else 1]
    acc = base if exp else IDENTITY_ACTION
    for _ in range(abs(exp) - 1):
        acc = engine._compose(acc, base)
    return acc


def test_twist_powers_match_the_composition_of_their_tables():
    model = get_model()
    for letter in GENERATORS:
        for exp in range(-12, 13):
            assert model.piece_action(letter, exp) == \
                _composed_power(model, letter, exp), (letter, exp)


def test_twist_powers_obey_the_group_law():
    model = get_model()
    n = 300
    for letter in GENERATORS:
        for a, b in ((n, n // 2), (-n, n // 3), (n, -n // 2),
                     (-n * 5 // 6, -n), (n, -n)):
            assert engine._compose(model.piece_action(letter, a),
                                   model.piece_action(letter, b)) \
                == model.piece_action(letter, a + b), (letter, a, b)


def test_piece_action_of_a_zero_exponent_is_the_identity():
    model = get_model()
    for letter in "abcdefgh":
        assert model.piece_action(letter, 0) == IDENTITY_ACTION, letter
