"""The rule layer: shape recognition, the literal fillable/overtwisted/
right-veering inequalities, verdict precedence, and the conjugation and
mirror consistency of the merged classification."""

import itertools
import random

import pytest
from hypothesis import given

from lanternbook.classify import (E_F_E, F_E_F, FILLABLE, OVERTWISTED,
                                  RIGHT_VEERING, UNKNOWN, Classification,
                                  _RULE_ORDER, _tags, _verdict, classify,
                                  classify_rules, match_ot_shape)
from lanternbook.engine import is_right_veering_upto
from lanternbook.errors import InvariantViolation, PreconditionError
from lanternbook.lantern import (ReducedForm, _joined, _pack, _peel,
                                 cyclic_rotations, expand, mirror_ef,
                                 positive_factorization, reduce)
from lanternbook.words import parse
from tests.test_lantern import (_conjugated, _reference_factorization,
                                _short_cores, form_strategy)

forms = form_strategy(rmax=6, emax=6, smax=3)


def _random_form(rng, rmax=6, emax=6, smax=3):
    while True:
        r = tuple(rng.randint(-rmax, rmax) for _ in range(4))
        s = rng.randint(0, smax)
        blocks = []
        for i in range(s):
            m = rng.randint(-emax, emax) if i == 0 else \
                rng.choice([x for x in range(-emax, emax + 1) if x])
            n = rng.randint(-emax, emax) if i == s - 1 else \
                rng.choice([x for x in range(-emax, emax + 1) if x])
            blocks.append((m, n))
        try:
            return ReducedForm(r, tuple(blocks))
        except Exception:
            continue


# -- shape recognition ----------------------------------------------------

def test_match_ot_shape_examples():
    shape = match_ot_shape(ReducedForm((1, 1, 1, 1), ((-2, -1),)))
    assert (shape.m, shape.n, shape.pattern) == (-2, -1, E_F_E)
    shape = match_ot_shape(ReducedForm((0, 0, 0, 0), ()))
    assert (shape.m, shape.n) == (0, 0)
    assert match_ot_shape(ReducedForm((0, 0, 0, 0), ((1, 1), (1, 1)))) is None


def test_match_ot_shape_split_and_mirror_patterns():
    shape = match_ot_shape(ReducedForm((0, 0, 0, 0), ((1, -2), (3, 0))))
    assert (shape.m, shape.n, shape.pattern) == (4, -2, E_F_E)
    shape = match_ot_shape(ReducedForm((0, 0, 0, 0), ((0, 1), (-2, 3))))
    assert (shape.m, shape.n, shape.pattern) == (-2, 4, F_E_F)


# -- the literal rules ------------------------------------------------------

def test_classify_rules_examples():
    c = classify_rules(ReducedForm((1, 1, 1, 1), ((-2, -1),)))
    assert c.verdict == OVERTWISTED and c.rules == ("OT3", "OT4")
    c = classify_rules(ReducedForm((-1, 0, 0, 0), ((3, 2),)))
    assert c.verdict == OVERTWISTED and "OT1" in c.rules
    c = classify_rules(ReducedForm((0, 0, 0, 0), ((1, 1),)))
    assert c.verdict == FILLABLE and c.rules == ("H1",)
    c = classify_rules(ReducedForm((1, 1, 1, 1), ((-1, 0),)))
    assert c.verdict == FILLABLE and set(c.rules) == {"H1", "R1"}


def test_the_minus_four_minus_five_regression_trap():
    # H3 would need min r >= 7 here, but OT3/OT4 hold literally:
    # min r = 1, the brackets hold, min{m, n} < 0 and mn = 20 >= 2
    c = classify_rules(ReducedForm((1, 1, 1, 1), ((-4, -5),)))
    assert c.verdict == OVERTWISTED and c.rules == ("OT3", "OT4")


def test_r2_tags_mixed_sign_blocks():
    c = classify_rules(ReducedForm((1, 1, 1, 1), ((-2, 3),)))
    assert c.verdict == RIGHT_VEERING and "R2" in c.rules


def test_unknown_when_no_rule_applies():
    c = classify_rules(ReducedForm((1, 1, 1, 1), ((-3, 0),)))
    assert c.verdict == RIGHT_VEERING  # R1 fires, H1 needs min r >= 3
    c = classify_rules(ReducedForm((2, 2, 2, 2), ((-4, -4),)))
    assert c.verdict == UNKNOWN and c.rules == ()


# -- the merged classification ----------------------------------------------

def test_rules_refuse_what_is_not_a_form():
    for bad in ("a b c d", None, ((1, 1, 1, 1), ())):
        for call in (classify, classify_rules, match_ot_shape):
            with pytest.raises(PreconditionError, match="not a ReducedForm"):
                call(bad)


def test_classify_examples():
    a = classify(ReducedForm((0, 0, 0, 0), ((2, 2),)))
    b = classify(ReducedForm((0, 0, 0, 0), ((0, 2), (2, 0))))
    assert (a.verdict, a.rules) == (b.verdict, b.rules)
    c = classify(ReducedForm((0, 0, 0, 0), ()))
    assert c.verdict == FILLABLE and c.rules == ("H1",)
    c = classify(ReducedForm((2, 2, 2, 2), ((-1, -1),)))
    assert c.verdict == FILLABLE and "H2" in c.rules


def test_classify_serialization_schema():
    c = classify(ReducedForm((1, 1, 1, 1), ((-2, -1),)))
    doc = c.to_json()
    assert doc == {"verdict": "Overtwisted", "rules": ["OT3", "OT4"],
                   "rotation": 0, "mirror": False}
    broad = classify(ReducedForm((-1, 0, 0, 0), ((1, 1), (1, 1), (1, 1))),
                     ot1_broad=True)
    assert broad.to_json()["ot1_broad"] is True


def test_ot1_broad_is_opt_in():
    rf = ReducedForm((-1, 0, 0, 0), ((1, 1), (1, 1), (1, 1)))
    assert classify(rf).verdict == UNKNOWN
    broad = classify(rf, ot1_broad=True)
    assert broad.verdict == OVERTWISTED and broad.rules == ("OT1",)


def test_ot1_broad_must_be_a_bool():
    # a truthy string used to switch the broad reading on
    rf = reduce(parse("a^-1 e f^-1 e^2 f e^-1 f^2"))
    for call in (classify, classify_rules):
        for bad in ("no", "False", None, 0, 1):
            with pytest.raises(PreconditionError, match="ot1_broad"):
                call(rf, bad)
        assert call(rf, False) == Classification(UNKNOWN, ())
        assert call(rf, True) == Classification(OVERTWISTED, ("OT1",),
                                                ot1_broad=True)


def test_rotation_provenance_points_at_a_decisive_conjugate():
    # the decisive tag may live on a rotation other than the input
    rf = ReducedForm((1, 1, 1, 1), ((-1, 1), (1, 0)))
    c = classify(rf)
    rho = cyclic_rotations(rf)[c.rotation]
    candidate = mirror_ef(rho) if c.mirror else rho
    direct = classify_rules(candidate, ot1_broad=c.ot1_broad)
    assert c.verdict == direct.verdict


@given(forms)
def test_rotation_consistency(rf):
    base = classify(rf)
    for rho in cyclic_rotations(rf):
        other = classify(rho)
        assert (other.verdict, other.rules) == (base.verdict, base.rules)


@given(forms)
def test_mirror_consistency(rf):
    base = classify(rf)
    other = classify(mirror_ef(rf))
    assert (other.verdict, other.rules) == (base.verdict, base.rules)


def test_disjointness_fuzz():
    rng = random.Random(20260819)
    for _ in range(20000):
        c = classify_rules(_random_form(rng))
        has_h = any(t.startswith("H") for t in c.rules)
        has_ot = any(t.startswith("OT") for t in c.rules)
        assert not (has_h and has_ot), c


def test_at_most_one_fillable_rule_holds():
    # classify tags with the single rule lantern._h_rule returns; that
    # loses no tag because H1-H3 exclude each other and H4 needs s > 1
    def every_h_tag(rf):
        rmin = min(rf.r)
        blocks = rf.blocks if rf.blocks else ((0, 0),)
        (m1, n1), s = blocks[0], len(blocks)
        tags = []
        if s == 1 and max(m1, n1) >= 0 and rmin >= max(-m1, -n1, 0):
            tags.append("H1")
        if s == 1 and m1 < 0 and n1 < 0 and max(m1, n1) == -1 \
                and rmin >= -m1 - n1 - 1:
            tags.append("H2")
        if s == 1 and m1 < 0 and n1 < 0 and max(m1, n1) < -1 \
                and rmin >= -m1 - n1 - 2:
            tags.append("H3")
        if s > 1 and rmin >= sum(max(-x, 0) for b in blocks for x in b):
            tags.append("H4")
        return tags

    rng = random.Random(41)
    seen = set()
    for _ in range(20000):
        rf = _random_form(rng, rmax=8, emax=4, smax=3)
        tags = every_h_tag(rf)
        assert len(tags) <= 1, (rf, tags)
        assert [t for t in classify_rules(rf).rules if t[0] == "H"] == tags
        seen.update(tags)
    assert seen == {"H1", "H2", "H3", "H4"}


def test_h1_is_monotone_in_the_boundary_exponents():
    rng = random.Random(5)
    seen = 0
    while seen < 200:
        rf = _random_form(rng, rmax=3, emax=3, smax=1)
        if "H1" not in classify_rules(rf).rules:
            continue
        seen += 1
        k = rng.randrange(4)
        r = list(rf.r)
        r[k] += rng.randint(1, 3)
        assert "H1" in classify_rules(ReducedForm(tuple(r), rf.blocks)).rules


def test_conflicting_verdicts_raise_an_invariant_fault(monkeypatch):
    # disjointness makes a real conflict unreachable; force one to check
    # that the merge refuses to answer rather than pick a side, also on
    # a core of four cyclic runs, which classify evaluates once
    import sys
    mod = sys.modules["lanternbook.classify"]
    monkeypatch.setattr(mod, "_h_rule", lambda r, blocks: "H1")
    with pytest.raises(InvariantViolation):
        classify(ReducedForm((1, 1, 1, 1), ((-2, -1),)))
    with pytest.raises(InvariantViolation):
        classify(ReducedForm((-1, 2, 2, 2), ((1, 1), (1, 1))),
                 ot1_broad=True)


def test_classify_looks_up_cyclic_rotations_at_most_once_per_call(
        monkeypatch):
    # perfbench/tracing.py counts rotations per form by wrapping this
    # module attribute; classify reads the rotation classes on exponent
    # tuples instead, so it never builds the list of rotations
    import sys
    mod = sys.modules["lanternbook.classify"]
    calls = []

    def counting(rf):
        calls.append(rf)
        return cyclic_rotations(rf)

    monkeypatch.setattr(mod, "cyclic_rotations", counting)
    for rf in (ReducedForm((0, 0, 0, 0), ()),
               ReducedForm((1, 1, 1, 1), ((-1, 1), (1, 0))),
               ReducedForm((2, 0, 1, 1), ((0, 3), (-2, 1), (1, 0))),
               ReducedForm((1, 1, 1, 1), ((1, 2), (3, -1), (2, 1)))):
        classify(rf, ot1_broad=True)
    assert calls == []


def _merged_over_every_candidate(rf):
    # the literal merge for both values of ot1_broad: every rotation,
    # each with and without its mirror, first occurrence of a tag wins
    candidates = [(k, mirror, mirror_ef(rho) if mirror else rho)
                  for k, rho in enumerate(cyclic_rotations(rf))
                  for mirror in (False, True)]
    out = {}
    for ot1_broad in (False, True):
        merged = []
        decisive = {}
        for k, mirror, candidate in candidates:
            for t in _tags(candidate.r, candidate.blocks, ot1_broad):
                if t not in merged:
                    merged.append(t)
                    decisive.setdefault(t, (k, mirror))
        if any(t[0] == "H" for t in merged) and \
                any(t.startswith("OT") for t in merged):
            out[ot1_broad] = InvariantViolation
            continue
        tags = tuple(t for t in _RULE_ORDER if t in merged)
        verdict = _verdict(tags)
        deciders = [decisive[t] for t in tags if _verdict((t,)) == verdict]
        out[ot1_broad] = (verdict, tags) + \
            (min(deciders) if deciders else (0, False))
    return out


def test_long_cores_are_classified_from_rotation_zero_alone():
    rng = random.Random(1313)
    kinds = {}
    for _ in range(20000):
        rf = _random_form(rng, rmax=8, emax=5, smax=6)
        core = _peel(rf)[1]
        kind = min(len(_joined(core)[1]), 6)
        kinds[kind] = kinds.get(kind, 0) + 1
        if core:
            assert ReducedForm(rf.r, _pack(core)) == cyclic_rotations(rf)[0]
        expected = _merged_over_every_candidate(rf)
        for ot1_broad in (False, True):
            try:
                c = classify(rf, ot1_broad=ot1_broad)
                got = (c.verdict, c.rules, c.rotation, c.mirror)
            except InvariantViolation:
                got = InvariantViolation
            assert got == expected[ot1_broad], (rf, ot1_broad)
    # a cyclic core never has 3 or 5 runs; 6 stands for 6 or more
    assert set(kinds) == {0, 1, 2, 4, 6}, kinds
    assert min(kinds.values()) >= 500, kinds


def test_short_cores_match_the_merge_over_every_candidate_exhaustively():
    # The rules read r only through min r, whether some r_k is 0, and
    # whether r2 or r4, and r1 or r3, is 1 (module docstring), so one r
    # of {-1..2}^4 per such pattern stands for the whole grid; the
    # conjugated cores and the factorizations take one r per min r.
    patterns = {}
    for r in itertools.product(range(-1, 3), repeat=4):
        patterns.setdefault((min(r), 0 in r, 1 in r[1::2], 1 in r[::2]), r)
    by_min = {min(r): r for r in patterns.values()}
    assert len(patterns) == 16 and len(by_min) == 4
    forms = 0
    for core in _short_cores(6):
        cases = [(_pack(core), patterns.values())]
        if core:
            cases.append((_conjugated(core), by_min.values()))
        for blocks, rs in cases:
            for r in rs:
                rf = ReducedForm(r, blocks)
                expected = _merged_over_every_candidate(rf)
                for ot1_broad in (False, True):
                    c = classify(rf, ot1_broad=ot1_broad)
                    assert (c.verdict, c.rules, c.rotation, c.mirror) == \
                        expected[ot1_broad], (rf, ot1_broad)
                if r in by_min.values():
                    assert positive_factorization(rf) == \
                        _reference_factorization(rf), rf
                forms += 1
    assert forms == 1033 * 16 + 1032 * 4


def test_small_verdicts_cross_validate_against_the_arc_engine():
    # overtwisted small forms have a left witness; fillable and
    # right-veering ones have none up to the default bound
    rng = random.Random(3)
    seen_ot = seen_rv = 0
    for _ in range(60):
        rf = _random_form(rng, rmax=1, emax=2, smax=1)
        c = classify(rf)
        if c.verdict == OVERTWISTED:
            seen_ot += 1
            assert is_right_veering_upto(expand(rf), 12).outcome == \
                "NotRightVeering", rf
        elif c.verdict in (FILLABLE, RIGHT_VEERING):
            seen_rv += 1
            assert is_right_veering_upto(expand(rf), 12).outcome == \
                "NoWitnessUpToBound", rf
    assert seen_ot >= 5 and seen_rv >= 5
