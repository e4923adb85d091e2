"""The engine-free invariant layer: the slope pin and its certification by
the arc engine, right-veering by trace against the bounded witness
search, and the import boundary that keeps the arc engine out of every
command but check-rv."""

import json
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
from lanternbook.engine import Model, _naive_first_witness, get_model
from lanternbook.errors import InvariantViolation
from lanternbook.invariant import (SLOPE_CANDIDATES, SLOPES,
                                   right_veering_by_trace)
from lanternbook.lantern import expand, reduce
from lanternbook.words import (GENERATORS, concat, exponent_class,
                               free_reduce, invert, merge_terms)

REPO_ROOT = Path(__file__).resolve().parents[1]

raw_terms = st.lists(
    st.tuples(st.sampled_from(GENERATORS),
              st.integers(min_value=-6, max_value=6).filter(bool)),
    max_size=12)
words = raw_terms.map(lambda ts: merge_terms(ts))


# -- the slope pin ------------------------------------------------------

def test_pinned_slopes_are_the_arc_certified_ones():
    assert Model().slopes == SLOPES == get_model().slopes
    assert SLOPES["g"] in ((1, 1), (-1, 1))
    assert SLOPES["h"] == (-SLOPES["g"][0], 1)


def test_a_flipped_pin_fails_the_model_build(monkeypatch):
    flipped, = [s for s in SLOPE_CANDIDATES if s != SLOPES]
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


def test_trace_rule_agrees_with_the_witness_search(monkeypatch):
    """Reducible and boundary-twist classes at bound 10, both directions:
    a class the rule calls right-veering has no left witness (the search
    without the rule exhausts the tree), and one it calls not
    right-veering has a witness (the unpruned reference sweep finds
    it)."""
    model = get_model()
    model.ensure_library()
    monkeypatch.setattr(model, "_rv_cache", {})
    monkeypatch.setattr(engine, "right_veering_by_trace", lambda terms: None)
    rng = random.Random(20261018)
    seen = set()
    for _ in range(150):
        w, c, m, curve = _reducible_word(rng)
        verdict = right_veering_by_trace(w)
        # HKM's reducible criterion on the data the word was built from
        assert verdict == (min(c) >= 0 and (m >= 0 or min(c) > 0)), w
        if verdict:
            assert engine._rv_search_uncached(model, w, 10) is None, w
        else:
            assert _naive_first_witness(w, 10) is not None, w
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
        assert right_veering_by_trace(w) is None, text


def test_the_search_stops_at_the_rule(monkeypatch):
    # f g f^-1 is a conjugate of g; without the rule it reaches the
    # depth-first search (1.6 s at bound 12)
    model = get_model()
    monkeypatch.setattr(model, "_rv_cache", {})

    def unreachable(*args):
        raise AssertionError("the search went past the trace rule")

    for stage in ("_strip_once", "_canonical_sweep", "_dfs_search"):
        monkeypatch.setattr(engine, stage, unreachable)
    for text in ("f g f^-1", "a b c d", "a b^2 c d e^-1 h g^2 h^-1 e"):
        report = lanternbook.is_right_veering_upto(text, 12)
        assert report.outcome == "NoWitnessUpToBound", text


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
loaded = [m for m in ("lanternbook.engine", "lanternbook.geometry")
          if m in sys.modules]
import lanternbook
from lanternbook import engine
answers = [lanternbook.equal_in_mcg("g e f", "a b c d"),
           engine.equal_in_mcg("h f e", "a b c d")]
print(json.dumps({"codes": codes, "loaded": loaded, "answers": answers,
                  "model": engine._MODEL is not None}))
"""


def test_engine_free_commands_do_not_import_the_engine():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _ISOLATION_PROBE],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 5, "loaded": [],
                                       "answers": [True, True],
                                       "model": False}


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
