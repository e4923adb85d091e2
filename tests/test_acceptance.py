"""The acceptance battery: one test per headline guarantee, each run at
its documented scale with a fixed seed and summarized by a single
``ACCEPTANCE n: PASS/FAIL`` line (visible with ``pytest -s``).

Every check here goes through an oracle that is independent of the code
under test: rule predicates are restated inline from their literal
definitions, the defining relations (1) and the distinctness check (8)
are decided by the exact arc-action reference, the soundness and
certificate checks (2, 4) by the slope-matrix equality invariant (which
never calls ``reduce`` and is cross-validated against the arc reference
in ``tests/test_engine.py``), and witnesses come from the certified
library.  Exponent grids are complete sweeps, not samples; randomized
criteria use fixed seeds so failures reproduce.
"""

import itertools
import random

from lanternbook import (ReducedForm, apply_word, classify, classify_rules,
                         concat, cyclic_rotations, equal_in_mcg, expand,
                         exponent_class, expand as rf_expand, format_word,
                         invert, is_right_veering_upto, match_ot_shape,
                         parse, positive_factorization, reduce, side_at_start,
                         witness_library)
from lanternbook.engine import _equal_by_action
from lanternbook.errors import PreconditionError
from lanternbook.words import merge_terms


def _report(num, desc, failures, scale=""):
    status = "PASS" if not failures else "FAIL"
    suffix = " (%s)" % scale if scale else ""
    line = "ACCEPTANCE %d: %s - %s%s" % (num, status, desc, suffix)
    print(line)
    assert not failures, (line, len(failures), failures[:3])


# -- independent rule oracles, restated literally -------------------------

def _interior_totals(blocks):
    """(total e-exponent, total f-exponent) of a twist-shape form."""
    return (sum(m for m, _ in blocks), sum(n for _, n in blocks))


def _is_two_run_shape(blocks):
    """True when the interior word has at most two runs of one interior
    twist separated by a single run of the other (in either order)."""
    if len(blocks) <= 1:
        return True
    if len(blocks) == 2:
        return blocks[1][1] == 0 or blocks[0][0] == 0
    return False


def _literal_ot_tags(r, m, n):
    tags = []
    r1, r2, r3, r4 = r
    if min(r) < 0:
        tags.append("OT1")
    if 0 in r and min(m, n) < 0:
        tags.append("OT2")
    if min(r) == 1 and min(m, n) < 0 and m * n >= 2:
        if r2 == 1 or r4 == 1:
            tags.append("OT3")
        if r1 == 1 or r3 == 1:
            tags.append("OT4")
    return tags


def _literal_h_tag(r, blocks):
    lo = min(r)
    if len(blocks) == 1:
        m, n = blocks[0]
        if max(m, n) >= 0:
            return "H1" if lo >= max(-m, -n, 0) else None
        if max(m, n) == -1:
            return "H2" if lo >= -m - n - 1 else None
        return "H3" if lo >= -m - n - 2 else None
    if len(blocks) > 1:
        cost = (sum(max(-m, 0) for m, _ in blocks)
                + sum(max(-n, 0) for _, n in blocks))
        return "H4" if lo >= cost else None
    return None


def _random_form(rng, rmax, emax, smax):
    while True:
        r = tuple(rng.randint(-rmax, rmax) for _ in range(4))
        blocks = tuple((rng.randint(-emax, emax), rng.randint(-emax, emax))
                       for _ in range(rng.randint(0, smax)))
        try:
            return ReducedForm(r, blocks)
        except PreconditionError:
            continue


def _random_word(rng, max_terms, exp_lo, exp_hi):
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        exp = 0
        while exp == 0:  # a zero exponent is not a term
            exp = rng.randint(exp_lo, exp_hi)
        terms.append((rng.choice("abcdefgh"), exp))
    return merge_terms(terms)


# -- 1: the defining relations hold in the arc engine ----------------------

def test_criterion_1_lantern_certification():
    failures = []
    if not _equal_by_action(parse("g e f"), parse("a b c d")):
        failures.append("g e f != a b c d")
    if not _equal_by_action(parse("h f e"), parse("a b c d")):
        failures.append("h f e != a b c d")
    _report(1, "both lantern relations certified by the arc engine",
            failures)


# -- 2: rewriting never changes the mapping class ---------------------------

def test_criterion_2_reduction_soundness():
    rng = random.Random(20260801)
    failures = []
    for i in range(10000):
        w = _random_word(rng, max_terms=10, exp_lo=-4, exp_hi=4)
        back = rf_expand(reduce(w))
        if exponent_class(w) != exponent_class(back):
            failures.append(("exponent class", format_word(w)))
        elif not equal_in_mcg(w, back):
            failures.append(("mcg equality", format_word(w)))
    _report(2, "reduce is certified sound on random words", failures,
            "10^4 words, length <= 10, exponents in [-4,4]")


# -- 3: every small overtwisted form is detected twice over ------------------

def _twist_shape_grid(bound):
    """Every valid reduced form whose interior is a two-run shape with
    all exponents bounded by ``bound``."""
    span = range(-bound, bound + 1)
    shapes = [()]
    shapes += [((m, n),) for m in span for n in span if (m, n) != (0, 0)]
    shapes += [((m1, n1), (m2, n2)) for m1 in span for n1 in span if n1
               for m2 in span if m2 for n2 in span
               if n2 == 0 or m1 == 0]
    for r in itertools.product(span, repeat=4):
        for blocks in shapes:
            rf = ReducedForm(r, blocks)
            assert rf.blocks == blocks  # the grid enumerates canonically
            yield rf


def test_criterion_3_overtwisted_grid():
    targets = []
    failures = []
    for count, rf in enumerate(_twist_shape_grid(2)):
        shaped = _is_two_run_shape(rf.blocks)
        if count % 89 == 0 and shaped != (match_ot_shape(rf) is not None):
            failures.append(("shape matcher disagrees", rf))
            continue
        if not shaped:
            continue
        m, n = _interior_totals(rf.blocks)
        if _literal_ot_tags(rf.r, m, n):
            targets.append(rf)
    for blocks in [((1, 1), (1, 1)), ((-2, 1), (1, -2)),
                   ((0, 1), (1, 1), (1, 0))]:
        rf = ReducedForm((1, 1, 1, 1), blocks)
        if _is_two_run_shape(rf.blocks) or match_ot_shape(rf) is not None:
            failures.append(("matched a form outside the shape", rf))
    named = [reduce(parse("a b c d e^-2 f^-1")),
             reduce(parse("a b c d e^-1 f^-2"))]
    for rf in named:
        if rf not in targets:
            failures.append(("named form missing from grid", rf))
    for rf in targets:
        if classify(rf).verdict != "Overtwisted":
            failures.append(("classify", rf, classify(rf)))
        elif is_right_veering_upto(rf_expand(rf), 12).outcome \
                != "NotRightVeering":
            failures.append(("no left witness found", rf))
    _report(3, "overtwisted verdicts cross-validated by witness search",
            failures, "%d forms, all exponents <= 2, bound 12" % len(targets))


# -- 4: every small fillable form yields a certified positive word ----------

def test_criterion_4_positive_factorization_grid():
    targets = []
    span = range(-3, 4)
    shapes = [((m, n),) for m in span for n in span]
    shapes += [((m1, n1), (m2, n2)) for m1 in span for n1 in span
               for m2 in span for n2 in span]
    # every fillability threshold is nonnegative, so forms with a
    # negative boundary exponent never qualify and the sweep starts at 0
    for r in itertools.product(range(0, 4), repeat=4):
        for blocks in shapes:
            if _literal_h_tag(r, blocks) is None:
                continue
            try:
                rf = ReducedForm(r, blocks)
            except PreconditionError:
                continue
            if rf.blocks == blocks:
                targets.append(rf)
    failures = []
    for rf in targets:
        f = positive_factorization(rf)
        if f is None:
            failures.append(("no factorization", rf))
            continue
        if not f.word or any(exp <= 0 for _, exp in f.word):
            failures.append(("not positive", rf, f.word))
            continue
        rho = cyclic_rotations(rf)[f.rotation]
        if not equal_in_mcg(concat(f.conjugator, f.word, invert(f.conjugator)),
                            rf_expand(rho)):
            failures.append(("certificate", rf, f))
    sample = positive_factorization(reduce(parse("a b c d e^-1 f^-1")))
    if format_word(sample.word) != "h" or sample.rule != "H2":
        failures.append(("expected the single-twist factorization", sample))
    _report(4, "fillable forms all factor into certified positive words",
            failures, "%d forms, exponents <= 3, blocks <= 2" % len(targets))


# -- 5: right-veering instances never produce a left witness ----------------

def test_criterion_5_right_veering_instances():
    instances = []
    for r in itertools.product((1, 2), repeat=4):
        if min(r) != 1:
            continue
        for m in (-1, -2, -3):
            instances.append(ReducedForm(r, ((m, 0),)))
        for m in (1, 2, 3):
            for n in (-1, -2, -3):
                instances.append(ReducedForm(r, ((m, n),)))
                instances.append(ReducedForm(r, ((-m, -n),)))
    failures = []
    for rf in instances:
        m, n = rf.blocks[0]
        assert min(rf.r) == 1 and (n == 0 and m < 0 or m * n < 0)
        if is_right_veering_upto(rf_expand(rf), 12).outcome \
                != "NoWitnessUpToBound":
            failures.append(("left witness found", rf))
        elif classify(rf).verdict not in ("RightVeering",
                                          "HolomorphicallyFillable"):
            failures.append(("classify", rf, classify(rf)))
    _report(5, "right-veering instances show no left witness", failures,
            "%d instances, bound 12" % len(instances))


# -- 6: the fillable and overtwisted rules never overlap ---------------------

def test_criterion_6_rule_disjointness_fuzz():
    rng = random.Random(20260806)
    failures = []
    for i in range(100000):
        rf = _random_form(rng, rmax=6, emax=6, smax=3)
        try:
            tags = classify_rules(rf).rules
        except Exception as exc:
            failures.append((rf, repr(exc)))
            continue
        if any(t.startswith("H") for t in tags) and \
                any(t.startswith("OT") for t in tags):
            failures.append((rf, tags))
    _report(6, "no form matches both a fillability and an overtwistedness "
            "rule", failures, "10^5 random forms")


# -- 7: classification and witnesses respect conjugation ---------------------

def test_criterion_7_conjugation_laws():
    failures = []
    rng = random.Random(20260807)
    for i in range(10000):
        rf = _random_form(rng, rmax=4, emax=2, smax=2)
        base = classify(rf)
        for rho in cyclic_rotations(rf):
            got = classify(rho)
            if (got.verdict, got.rules) != (base.verdict, base.rules):
                failures.append(("rotation", rf, rho, base, got))
    checked = 0
    for w, arc in witness_library():
        if side_at_start(arc, apply_word(arc, w)) != "Left":
            failures.append(("library", format_word(w)))
            continue
        start, end = int(arc.start[1]), int(arc.end[1])
        assert start != end  # every library arc joins two components
        for power in (1, 2, 3):
            # twisting along boundaries away from the start keeps the
            # image on the left
            for k, delta in enumerate("abcd", start=1):
                if k == start:
                    continue
                wp = concat(w, ((delta, power),))
                if side_at_start(arc, apply_word(arc, wp)) != "Left":
                    failures.append(("boundary law", format_word(wp)))
                checked += 1
            # appending any negative twist keeps the image on the left
            for sigma in "abcdefgh":
                wp = concat(w, ((sigma, -power),))
                if side_at_start(arc, apply_word(arc, wp)) != "Left":
                    failures.append(("negative twist law", format_word(wp)))
                checked += 1
    _report(7, "classification is rotation-invariant and witnesses obey "
            "the conjugation laws", failures,
            "10^4 forms + %d witness checks" % checked)


# -- 8: the equality oracle separates distinct monodromies -------------------

def test_criterion_8_equality_oracle_distinguishes():
    failures = []
    if _equal_by_action(parse("e^2 f^2"), parse("e f e f")):
        failures.append("e^2 f^2 == e f e f")
    _report(8, "distinct same-class monodromies are separated", failures)


# -- 9: positive words never veer left ---------------------------------------

def test_criterion_9_positive_monoid_property():
    from lanternbook.engine import _naive_first_witness
    rng = random.Random(20260809)
    failures = []
    words = [_random_word(rng, max_terms=8, exp_lo=1, exp_hi=4)
             for _ in range(1000)]
    for w in words:
        if is_right_veering_upto(w, 12).outcome != "NoWitnessUpToBound":
            failures.append(format_word(w))
    # the right-veering rule answers these before any arc is searched;
    # re-certify a deterministic subsample against the unpruned reference
    # enumeration
    for w in words[::100]:
        if _naive_first_witness(w, 3) is not None:
            failures.append(("reference sweep disagrees", format_word(w)))
    _report(9, "positive words admit no left witness", failures,
            "10^3 words, length <= 8, bound 12")
