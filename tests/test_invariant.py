"""The engine-free invariant layer: the stated slopes and their
certification by the lantern relations and the arc engine, right-veering
by trace and by the FDTC against the bounded witness search and the
classification rules, and the import boundary that keeps the arc engine
out of every command but check-rv."""

import collections
import itertools
import json
from math import gcd
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lanternbook
from lanternbook import engine
from lanternbook import classify, classify_rules
from lanternbook.engine import (PORT_TO_BOUNDARY, PORTS, Model,
                                get_model)
from lanternbook.errors import InvariantViolation, PreconditionError
from lanternbook.invariant import (SLOPES, _certify_relations, _invariant,
                                   coefficients, equal_in_mcg, right_veering,
                                   twist_number)
from lanternbook.lantern import ReducedForm, expand, reduce
from lanternbook.words import (GENERATORS, INTERIOR, _class_of_sums,
                               concat, exponent_class, free_reduce, invert,
                               merge_terms, parse, word_length)
from test_acceptance import _literal_h_tag, _random_form, _twist_shape_grid
from witness_reference import naive_first_witness

REPO_ROOT = Path(__file__).resolve().parents[1]

raw_terms = st.lists(
    st.tuples(st.sampled_from(GENERATORS),
              st.integers(min_value=-6, max_value=6).filter(bool)),
    max_size=12)
words = raw_terms.map(lambda ts: merge_terms(ts))


def _merged_slope_product(slopes, terms):
    """Reference for the PSL(2,Z) part of :func:`_invariant`: the product
    of the twist matrices of the freely reduced ``terms``, one 2x2
    multiply by [[1-2kpq, 2kp^2], [-2kq^2, 1+2kpq]] per term, up to sign."""
    a, b, c, d = 1, 0, 0, 1
    for letter, k in merge_terms(terms):
        if letter not in slopes:
            continue
        p, q = slopes[letter]
        x, y = 1 - 2 * k * p * q, 2 * k * p * p
        z, t = -2 * k * q * q, 1 + 2 * k * p * q
        a, b, c, d = a * x + b * z, a * y + b * t, c * x + d * z, c * y + d * t
    return (a, b, c, d) if a > 0 or (a == 0 and b > 0) else (-a, -b, -c, -d)


def _exponent_sums(terms):
    """Reference for the exponent sums of :func:`_invariant`: the sum of
    each generator's exponents over the freely reduced ``terms``, in
    GENERATORS order."""
    sums = dict.fromkeys(GENERATORS, 0)
    for letter, k in merge_terms(terms):
        sums[letter] += k
    return list(sums.values())


# -- the stated slopes -------------------------------------------------

def test_pinned_slopes_are_the_arc_certified_ones():
    Model()                     # certifies SLOPES against the arc action
    assert SLOPES["g"] in ((1, 1), (-1, 1))
    assert SLOPES["h"] == (-SLOPES["g"][0], 1)


def test_a_flipped_pin_fails_the_model_build(monkeypatch):
    flipped = dict(SLOPES, g=SLOPES["h"], h=SLOPES["g"])
    with pytest.raises(InvariantViolation, match="lantern relation fails"):
        _certify_relations(flipped)
    monkeypatch.setattr(engine, "SLOPES", flipped)
    with pytest.raises(InvariantViolation, match="disagrees with the arc"):
        Model()


# -- right-veering by trace ---------------------------------------------

@given(words)
def test_reduced_boundary_exponents_are_the_exponent_class(w):
    # the trace rule reads r from the exponent class instead of reducing
    assert reduce(w).r == exponent_class(w).canonical[:4]


def _reducible_word(rng):
    """A seeded word phi = a^c1 b^c2 c^c3 d^c4 . u^-1 x^m u with x one
    of e, f, g, h (or no twist at all), u a short conjugator, and the
    data (c, m, curve) it was built from: c are the boundary twist
    coefficients of phi, which the trace rule must recover from the
    slope matrix.  Half the words are rewritten through their reduced
    form, which hides the g/h twists and the conjugation."""
    c = tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(4))
    curve = rng.choice("efgh-")
    m = 0 if curve == "-" else rng.choice((-2, -1, 1, 2))
    u = merge_terms([(rng.choice("efgh"), rng.choice((-1, 1)))
                     for _ in range(rng.randint(0, 2))])
    twist = concat(invert(u), ((curve, m),), u) if m else ()
    w = free_reduce(concat(tuple(zip("abcd", c)), twist))
    if rng.random() < 0.5:
        w = expand(reduce(w))
    return w, c, m, curve


def _without_right_twists(w):
    """``w`` without its positive boundary twists and then without its
    trailing run of positive interior twists.  A right twist moves every
    arc weakly right and keeps the side order, and a boundary twist is
    central, so a left witness of ``w`` is a left witness of the result
    at the same arc: when the result has none up to a bound, neither has
    ``w``."""
    terms = [t for t in w if t[0] in INTERIOR or t[1] < 0]
    while terms and terms[-1][0] in INTERIOR and terms[-1][1] > 0:
        terms.pop()
    return free_reduce(terms)


def test_trace_rule_agrees_with_the_witness_search(monkeypatch):
    """Reducible and boundary-twist classes at bound 10, both directions:
    a class the rule calls right-veering has no left witness (the search
    without the rule exhausts the tree), and one it calls not
    right-veering has a witness (the unpruned reference sweep finds
    it).  Where it can, the first direction searches the word without
    its right twists (:func:`_without_right_twists`) instead: the search
    takes 18 s to exhaust the tree of a bare product of boundary twists
    such as  a d  at bound 8, about 5 times more per unit of bound, and
    7 s for a single  e  at bound 10."""
    model = get_model()
    model.ensure_library()
    monkeypatch.setattr(model, "_rv_cache", {})
    monkeypatch.setattr(engine, "_right_veering",
                        lambda terms, record: (False, None))
    rng = random.Random(20261018)
    seen = set()
    for _ in range(150):
        w, c, m, curve = _reducible_word(rng)
        verdict, rule = right_veering(w)
        assert rule == "trace", w
        # HKM's reducible criterion on the data the word was built from
        assert verdict == (min(c) >= 0 and (m >= 0 or min(c) > 0)), w
        if verdict:
            # an empty bare word is the identity, which moves no arc; the
            # search without the rule would walk its whole unpruned tree
            bare = _without_right_twists(w)
            assert not bare or engine._rv_search(bare, 10) is None or \
                engine._rv_search(w, 10) is None, w
        else:
            assert naive_first_witness(w, 10) is not None, w
        kind = "gh" if curve in "gh" else curve
        seen.add((kind, (m > 0) - (m < 0), min(c) == 0, verdict))
    # every case of the rule occurs: no twist, e/f and g/h curves with
    # both signs of m, and a zero coefficient with either verdict
    for kind in "-", "e", "f", "gh":
        for sign in ((0,) if kind == "-" else (1, -1)):
            assert any(s[:2] == (kind, sign) for s in seen), (kind, sign)
    for sign in 1, -1:
        assert ("gh", sign, True, sign > 0) in seen
    assert ("-", 0, True, True) in seen


def test_trace_rule_is_silent_on_pseudo_anosov_classes():
    for text in ("e f^-1", "e^2 f^-1", "a b c d e^-1 f^-2", "g h^-1"):
        w = lanternbook.parse(text)
        assert right_veering(w)[1] == "FDTC", text


def test_the_search_stops_at_the_rule(monkeypatch):
    # f g f^-1 is a conjugate of g; without the rule it reaches the
    # depth-first search (1.6 s at bound 12)
    model = get_model()
    monkeypatch.setattr(model, "_rv_cache", {})

    def unreachable(*args):
        raise AssertionError("the search went past the right-veering rule")

    for stage in ("_canonical_sweep", "_dfs_search"):
        monkeypatch.setattr(engine, stage, unreachable)
    # the pseudo-Anosov a b c d (e f^-1)^6 exhausted the bounded tree in
    # 6.7 s before the FDTC decided it
    for text in ("f g f^-1", "a b c d", "a b^2 c d e^-1 h g^2 h^-1 e",
                 "a b c d e f^-1", "a b c d" + " e f^-1" * 6,
                 "e^2 f g^2 e", "a^2 b c d g^-1 f^3"):
        report = lanternbook.is_right_veering_upto(text, 12)
        assert report.outcome == "NoWitnessUpToBound", text


# -- right-veering of pseudo-Anosov classes by the FDTC ----------------------

def _twist_number_by_unit_steps(w, passes=7):
    """Reference for :func:`twist_number`: the e/f part of the reduced
    form (g and h substituted by the lantern relations), followed one
    unit twist at a time, each turning the line by less than a half-turn
    (clockwise for a right twist), with a crossing of the horizontal line
    counted as one half-turn.  Within 2 of ``passes`` * tau."""
    x, y, wraps = 1, 0, 0
    for _ in range(passes):
        for letter, k in expand(reduce(w)):
            if letter not in "ef":
                continue
            s = 1 if k > 0 else -1
            for _ in range(abs(k)):
                if letter == "e":
                    x += 2 * s * y
                else:
                    y -= 2 * s * x
                if y < 0 or (y == 0 and x < 0):
                    x, y = -x, -y
                    wraps += s
    return round(wraps / passes)


_EXPONENTS = (-3, -2, -1, 1, 2, 3)


def _is_pseudo_anosov(w):
    a, _, _, d = _merged_slope_product(SLOPES, w)
    return abs(a + d) > 2


def _pseudo_anosov_word(rng, letters="ef"):
    """A seeded pseudo-Anosov word of 1-4 terms over ``letters``."""
    while True:
        w = merge_terms([(rng.choice(letters), rng.choice(_EXPONENTS))
                         for _ in range(rng.randint(1, 4))])
        if _is_pseudo_anosov(w):
            return w


def test_twist_number_matches_the_unit_step_reference():
    """One step per term, g and h by their own twists less one half-turn
    each, against unit steps along the reduced form's e/f part."""
    rng = random.Random(20261118)
    checked = 0
    for _ in range(3000):
        w = merge_terms([(rng.choice(GENERATORS), rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 7))])
        if not _is_pseudo_anosov(w):
            continue
        assert twist_number(w) == _twist_number_by_unit_steps(w), w
        checked += 1
    assert checked > 1000


def test_fdtc_threshold_matches_the_witness_search(monkeypatch):
    """Seeded pseudo-Anosov P, one boundary exponent varied with the
    other three at 2 - tau(P): the search without the rule at bound 5
    finds a left witness at r_k = -tau(P) and none at r_k = 1 - tau(P),
    so the smallest right-veering r_k is 1 - tau(P), on every boundary
    component.  r is the canonical boundary part, which counts each g and
    h as a b c d; the rule itself is patched out of the search."""
    model = get_model()
    monkeypatch.setattr(model, "_rv_cache", {})
    monkeypatch.setattr(engine, "_right_veering",
                        lambda terms, record: (False, None))
    rng = random.Random(20261119)
    taus = set()
    for i in range(24):
        P = _pseudo_anosov_word(rng, "efgh" if i % 3 == 0 else "ef")
        tau = twist_number(P)
        taus.add(tau)
        shift = exponent_class(P).canonical[0]      # from g and h
        for k in range(4):
            for rk, verdict in ((-tau, False), (1 - tau, True)):
                r = [2 - tau - shift] * 4
                r[k] = rk - shift
                w = free_reduce(tuple(zip("abcd", r)) + P)
                assert right_veering(w) == (verdict, "FDTC"), w
                arc = engine._rv_search(w, 5)
                assert (arc is None) == verdict, (w, arc)
    assert len(taus) >= 4, taus


def test_the_sign_of_each_coefficient_decides_the_0_crossing_arcs():
    """Honda-Kazez-Matic's FDTC criterion against the engine, with no
    search: where c_k < 0, every 0-crossing arc from a port on C_k to
    another port goes left and the arc back to its own port is fixed;
    where c_k > 0, none goes left.  Seeded words of 1-7 terms over all
    eight letters, exponents +-1..+-3, of word length at most 12."""
    model = get_model()
    rng = random.Random(20261019)
    checked = {"negative": 0, "positive": 0}
    for _ in range(2000):
        w = merge_terms([(rng.choice(GENERATORS), rng.choice(_EXPONENTS))
                         for _ in range(rng.randint(1, 7))])
        if word_length(w) > 12:
            continue
        c, _ = coefficients(w)
        action = model.word_action(w)
        for s in PORTS:
            ck = c[int(PORT_TO_BOUNDARY[s][0][1]) - 1]
            if ck == 0:
                continue
            for t in PORTS:
                arc = engine.Arc(s, (), t)
                side = engine.side_at_start(arc,
                                            model.apply_action(action, arc))
                if ck < 0:
                    assert side == ("Equal" if s == t else "Left"), (w, arc)
                    checked["negative"] += 1
                else:
                    assert side != "Left", (w, arc)
                    checked["positive"] += 1
    assert min(checked.values()) > 5000, checked


def test_fdtc_on_the_papers_rule_families():
    # R2: e^m f^n with m n < 0 turns by tau = 0, so it is right-veering
    # exactly when min r >= 1
    for m in range(-5, 6):
        for n in range(-5, 6):
            if m * n >= 0:
                continue
            P = (("e", m), ("f", n))
            assert twist_number(P) == 0, P
            for r, verdict in (((1, 1, 1, 1), True), ((1, 3, 2, 4), True),
                               ((2, 0, 3, 1), False), ((1, 1, -1, 2), False)):
                w = tuple(zip("abcd", r)) + P
                assert right_veering(w) == (verdict, "FDTC"), w
    # OT2: some r_k = 0 and min(m, n) < 0 in the shape e^m1 f^n e^m2
    span = range(-3, 4)
    for r in itertools.product((0, 1, 2), repeat=4):
        if 0 not in r:
            continue
        for m1, n, m2 in itertools.product(span, repeat=3):
            if min(m1 + m2, n) < 0:
                w = merge_terms(tuple(zip("abcd", r))
                                + (("e", m1), ("f", n), ("e", m2)))
                assert not right_veering(w)[0], w
    # positive pseudo-Anosov words: an e/f word turns by tau >= 1, and any
    # positive word is right-veering
    rng = random.Random(20261120)
    for _ in range(500):
        w = _pseudo_anosov_word(rng)
        if all(k > 0 for _, k in w):
            assert twist_number(w) >= 1, w
        w = merge_terms([(rng.choice(GENERATORS), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 8))])
        assert right_veering(w)[0], w


# -- the coefficients ------------------------------------------------------

def _reference_right_veering(terms):
    """Reference for :func:`right_veering`, computed without
    :func:`coefficients`: the FDTC as the boundary exponent sums plus the
    half-turns of the lift of the word's own twists, or the trace rule."""
    a, b, c, d = _merged_slope_product(SLOPES, terms)
    if abs(a + d) > 2:
        steps = [(SLOPES[letter], k) for letter, k in reversed(terms)
                 if letter in SLOPES]
        x, y, wraps = 1, 0, 0
        for _ in range(5):
            for (p, q), k in steps:
                t = 2 * k * (p * y - q * x)
                x, y = x + t * p, y + t * q
                if y < 0 or (y == 0 and x < 0):
                    x, y = -x, -y
                    wraps += 1 if k > 0 else -1
        return min(_exponent_sums(terms)[:4]) + round(wraps / 5) >= 1, \
            "FDTC"
    r = exponent_class(terms).canonical[:4]
    if b == c == 0:
        return min(r) >= 0, "trace"
    if a + d < 0:
        b, c = -b, -c
    B, C = b // 2, -c // 2
    m = gcd(B, C) if (B or C) > 0 else -gcd(B, C)
    if (B // m) % 2 and (C // m) % 2:
        r = tuple(x - m for x in r)
    return min(r) >= 0 and (m > 0 or min(r) > 0), "trace"


def test_right_veering_reads_the_reference_verdict_off_the_coefficients():
    """20,000 seeded words of 1-8 terms over all eight generators with
    exponents +-1..+-3, and 4,000 reducible words (conjugates of a power
    of e, f, g or h times boundary twists): verdict and rule unchanged."""
    rng = random.Random(20261019)
    words = [merge_terms([(rng.choice(GENERATORS), rng.choice(_EXPONENTS))
                          for _ in range(rng.randint(1, 8))])
             for _ in range(20000)]
    words += [_reducible_word(rng)[0] for _ in range(4000)]
    seen = collections.Counter()
    for w in words:
        verdict, rule = right_veering(w)
        assert (verdict, rule) == _reference_right_veering(w), w
        # the kind of class: a g/h-orbit twist is the one that shifts c
        c, m = coefficients(w)
        kind = ("pA" if m is None else "twists" if m == 0
                else "gh" if c != exponent_class(w).canonical[:4]
                else "ef")
        a, _, _, d = _merged_slope_product(SLOPES, w)
        seen[kind, a + d == -2, verdict] += 1
    # every kind with both verdicts, reducible ones at trace -2 too
    for kind in ("pA", "twists", "gh", "ef"):
        for verdict in (True, False):
            assert seen[kind, False, verdict] + seen[kind, True, verdict] \
                > 0, (kind, verdict, seen)
    for kind in ("gh", "ef"):
        assert seen[kind, True, True] + seen[kind, True, False] > 0, seen


def test_coefficients_agree_with_twist_number_and_the_trace_rule():
    known = {"": ((0, 0, 0, 0), 0),
             "g e f a^-1 b^-1 c^-1 d^-1": ((0, 0, 0, 0), 0),
             "a b^2 c^-1 d": ((1, 2, -1, 1), 0),
             "g^2": ((0, 0, 0, 0), 2), "h^-1": ((0, 0, 0, 0), -1),
             "a b c d g": ((1, 1, 1, 1), 1), "e^-3": ((0, 0, 0, 0), -3),
             "f^2 e f^-2": ((0, 0, 0, 0), 1), "a^2 f^-1": ((2, 0, 0, 0), -1),
             "e f": ((1, 1, 1, 1), -1), "e^-1 f^-1": ((-1,) * 4, 1),
             "a b c d e f^-1": ((1, 1, 1, 1), None),
             "e^2 f": ((1, 1, 1, 1), None), "e^-2 f^-1": ((-1,) * 4, None),
             "a b c d e^-2 f^-1": ((0, 0, 0, 0), None),
             "a^-1 e^2 f^2": ((0, 1, 1, 1), None)}
    for text, cm in known.items():
        assert coefficients(parse(text)) == cm, text
    # the data a reducible word is built from: c and gamma's power m
    rng = random.Random(20261020)
    for _ in range(500):
        w, c, m, _ = _reducible_word(rng)
        assert coefficients(w) == (c, m), w
    # a pseudo-Anosov class: c_k = r_k + tau(P), tau the translation number
    for _ in range(500):
        w = _pseudo_anosov_word(rng, GENERATORS)
        tau = twist_number(w)
        assert coefficients(w) == (tuple(
            x + tau for x in exponent_class(w).canonical[:4]), None), w


def test_rules_agree_with_the_invariant():
    """Engine-free cross-check of the classification rules against the
    invariant: every OT-tagged form is not right-veering (the OT rules
    exhibit a left-veering arc) and every H- or R-tagged form is
    right-veering (fillable implies tight implies right-veering, by
    Honda-Kazez-Matic).  On the grids of acceptance criteria 3-5, each
    form's own tags, and on a seeded census, the tags merged over
    rotations and mirrors."""
    def fillable_grid():
        # criterion 4's targets; an H tag depends on r only through min r
        span = range(-3, 4)
        shapes = [((m, n),) for m in span for n in span]
        shapes += [((m1, n1), (m2, n2)) for m1 in span for n1 in span
                   for m2 in span for n2 in span]
        rs = list(itertools.product(range(0, 4), repeat=4))
        for blocks in shapes:
            try:
                if ReducedForm(rs[0], blocks).blocks != blocks:
                    continue
            except PreconditionError:
                continue
            tagged = [_literal_h_tag((lo,) * 4, blocks) is not None
                      for lo in range(4)]
            for r in rs:
                if tagged[min(r)]:
                    yield ReducedForm(r, blocks)

    right_veering_instances = [
        ReducedForm(r, blocks)
        for r in itertools.product((1, 2), repeat=4) if min(r) == 1
        for blocks in ([((m, 0),) for m in (-1, -2, -3)]
                       + [((s * m, -s * n),) for m in (1, 2, 3)
                          for n in (1, 2, 3) for s in (1, -1)])]
    rng = random.Random(3)
    census = [_random_form(rng, rmax=4, emax=4, smax=3) for _ in range(4000)]
    tagged = collections.Counter()
    for label, forms, rules in (
            ("criterion 3", _twist_shape_grid(2), classify_rules),
            ("criterion 4", fillable_grid(), classify_rules),
            ("criterion 5", right_veering_instances, classify_rules),
            ("census", census, classify)):
        for rf in forms:
            tags = rules(rf).rules
            if not tags:
                continue
            verdict, rule = right_veering(expand(rf))
            # each tag's claim: True for right-veering, False for not
            claims = {not t.startswith("OT") for t in tags}
            assert claims == {verdict}, (label, rf, tags, rule)
            tagged[label, tags[0][:1], rule] += 1
    # every family is checked by both rules of the invariant
    for label, family in (("criterion 3", "O"), ("criterion 4", "H"),
                          ("census", "O"), ("census", "H")):
        for rule in ("trace", "FDTC"):
            assert tagged[label, family, rule] > 0, (label, family, rule)
    assert tagged["criterion 5", "R", "FDTC"] > 0


# -- the one-pass kernel ----------------------------------------------------

def _raw_terms(rng):
    """A seeded raw term list over all eight letters, with zero
    exponents, adjacent repeats of a letter, runs that cancel and
    exponents up to +-10^6."""
    exponents = (0, 1, -1, 2, -3, 5, 10 ** 6, -10 ** 6)
    raw = []
    for _ in range(rng.randint(0, 10)):
        letter, k = rng.choice(GENERATORS), rng.choice(exponents)
        raw.append((letter, k))
        if rng.random() < 0.3:              # an adjacent repeat
            raw.append((letter, rng.choice(exponents)))
        if rng.random() < 0.2:              # a run that cancels
            raw.append((letter, -k))
    if rng.random() < 0.2:                  # the word times its inverse
        raw += [(letter, -k) for letter, k in reversed(raw)]
    return raw


def test_the_one_pass_kernel_matches_the_merged_reference():
    """The kernel reads the raw terms, unmerged, and must give the merged
    word's slope product, exponent sums and canonical class, from a tuple
    and from a one-shot iterator alike; the swapped slopes of the g/h pin
    test are read too."""
    flipped = dict(SLOPES, g=SLOPES["h"], h=SLOPES["g"])
    rng = random.Random(20261021)
    unmerged = 0
    for _ in range(4000):
        raw = _raw_terms(rng)
        merged = merge_terms(raw)
        unmerged += merged != tuple(raw)
        for slopes in (SLOPES, flipped):
            expected = (_merged_slope_product(slopes, raw),
                        _exponent_sums(merged))
            assert _invariant(slopes, raw) == expected, raw
            assert _invariant(slopes, iter(raw)) == expected, raw
            assert _class_of_sums(expected[1]) == \
                exponent_class(merged).canonical, raw
        assert equal_in_mcg(raw, merged) and equal_in_mcg(iter(raw), merged)
    assert unmerged > 2000, unmerged


def _raw_rule_terms(rng):
    """A seeded raw term list over all eight letters with small exponents,
    as the witness search hands it to the rule: zero exponents, runs split
    in two (some around a boundary letter, so they merge only once the
    boundary letters are pulled to the front), runs that cancel, and
    boundary letters anywhere."""
    raw = []
    for _ in range(rng.randint(1, 6)):
        letter, k = rng.choice(GENERATORS), rng.choice(_EXPONENTS)
        roll = rng.random()
        if roll < 0.3:                      # a split run
            j = rng.randint(-3, 3)
            raw.append((letter, j))
            if rng.random() < 0.5:
                raw.append((rng.choice("abcd"), rng.choice(_EXPONENTS)))
            raw.append((letter, k - j))
        elif roll < 0.45:                   # a run that cancels
            raw += [(letter, k), (rng.choice(GENERATORS), 0), (letter, -k)]
        else:
            raw.append((letter, k))
        if rng.random() < 0.2:              # a zero exponent
            raw.append((rng.choice(GENERATORS), 0))
    return raw


def test_the_rule_reads_raw_terms_as_their_reduction():
    """The witness search decides the rule on the caller's terms, before
    any reduction: coefficients, verdict, twist number (of pseudo-Anosov
    classes) and the probe ranking of 6,000 seeded raw term lists equal
    those of their free reduction."""
    rng = random.Random(20261020)
    seen = collections.Counter()
    for _ in range(6000):
        raw = _raw_rule_terms(rng)
        reduced = free_reduce(raw)
        seen["unreduced"] += reduced != tuple(raw)
        c, m = coefficients(raw)
        assert (c, m) == coefficients(reduced), raw
        verdict = right_veering(raw)
        assert verdict == right_veering(reduced), raw
        if m is None:
            assert twist_number(raw) == twist_number(reduced), raw
        sums = _invariant(SLOPES, raw)[1]
        assert sums == _exponent_sums(reduced), raw
        assert engine._rank_library(sums) == \
            engine._rank_library(_exponent_sums(reduced)), raw
        seen["pA" if m is None else "reducible", verdict[0]] += 1
    assert seen["unreduced"] > 5000, seen
    for kind in ("pA", "reducible"):
        for verdict in (True, False):
            assert seen[kind, verdict] > 100, seen


@pytest.mark.parametrize("bad", [
    5, None, [5], [("a", 1, 2)], [("a",)], [("x", 1)], [(["a"], 1)],
    [("e", True)], [("e", 1.0)], [("e", "1")], [("e", 2), ("z", 1.0)],
    [(["a"], 1.0)]])
def test_the_kernel_refuses_what_merge_terms_refuses(bad):
    with pytest.raises(PreconditionError) as expected:
        merge_terms(bad)
    one_shot = iter(bad) if isinstance(bad, list) else bad
    for kernel in (lambda: _invariant(SLOPES, bad),
                   lambda: _invariant(SLOPES, one_shot),
                   lambda: equal_in_mcg(bad, ())):
        with pytest.raises(PreconditionError) as refused:
            kernel()
        assert str(refused.value) == str(expected.value), bad


# -- the import boundary --------------------------------------------------

_ISOLATION_PROBE = r"""
import contextlib, io, json, sys
from lanternbook import cli
runs = (["reduce", "g e f"], ["classify", "a b c d e^-2 f^-1"],
        ["census", "--range", "r1=0..1,m1=-1..1"],
        ["equal", "g e f", "a b c d"], ["factorize", "a b c d e^-1 f"])
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
from lanternbook.invariant import right_veering
from lanternbook.words import parse
veering = [right_veering(parse(w))
           for w in ("a b c d e f^-1", "e f^-1", "f g f^-1")]
loaded = [m for m in ("lanternbook.engine", "lanternbook.geometry")
          if m in sys.modules]
import lanternbook
from lanternbook import engine
answers = [lanternbook.equal_in_mcg("g e f", "a b c d"),
           engine.equal_in_mcg("h f e", "a b c d")]
print(json.dumps({"codes": codes, "loaded": loaded, "answers": answers,
                  "veering": veering, "model": engine._MODEL is not None}))
"""


def _run_probe(source):
    """Run ``source`` in a fresh interpreter on this checkout's package
    and return what it printed, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", source],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_engine_free_commands_do_not_import_the_engine():
    assert _run_probe(_ISOLATION_PROBE) == {
        "codes": [0] * 5, "loaded": [], "answers": [True, True],
        "veering": [[True, "FDTC"], [False, "FDTC"], [True, "trace"]],
        "model": False}


_LAZY_MODEL_PROBE = r"""
import contextlib, io, json
from lanternbook import cli, engine
from lanternbook.lantern import ReducedForm, expand
runs = []
for word in ("a b c d e^-2", "a b c d e^-2 f^-1"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-rv", word])
    runs.append([code, out.getvalue(), engine._MODEL is not None])
    if engine._MODEL is None:
        # instances of the right-veering rule: no probe pass has a
        # candidate, and the invariant settles them
        for r, blocks in (((1, 2, 3, 1), ((-2, 3),)),
                          ((1, 1, 1, 1), ((-1, 0),)),
                          ((4, 1, 2, 3), ((5, -5),))):
            report = engine.is_right_veering_upto(
                expand(ReducedForm(r, blocks)), 12)
            runs.append([report.outcome, engine._MODEL is not None])
print(json.dumps(runs))
"""


def test_check_rv_builds_the_engine_only_for_a_probe_or_a_search():
    # a right-veering word with no cheap-probe candidate leaves the model
    # unbuilt; the README's witness word builds it and keeps its witness
    witness = '{"start": ["C2", 1], "end": ["C4", 0], "crossings": []}'
    assert _run_probe(_LAZY_MODEL_PROBE) == [
        [0, "NoWitnessUpToBound (bound 12)\n", False],
        ["NoWitnessUpToBound", False], ["NoWitnessUpToBound", False],
        ["NoWitnessUpToBound", False],
        [0, "NotRightVeering (boundary C2) witness %s\n" % witness, True]]


def test_package_names_resolve():
    for name in lanternbook.__all__:
        assert getattr(lanternbook, name) is not None, name
    from lanternbook import engine, geometry, lantern, words  # noqa: F401
    assert sys.modules["lanternbook.classify"].classify_rules
    assert lanternbook.Arc is engine.Arc
    assert lanternbook.equal_in_mcg is lantern.equal_in_mcg \
        is engine.equal_in_mcg
    with pytest.raises(AttributeError):
        lanternbook.no_such_name
