"""The public-API contract of ``test_contract.py`` on generated inputs:
near-miss term tuples through every entry point that takes a word, and
near-miss arc JSON documents through the arc entry points, under the
suite's derandomized hypothesis profile.  Exponents stay within +-3, so
no power is composed at length."""

from hypothesis import given, settings
from hypothesis import strategies as st

import lanternbook
from test_contract import ARC, outcome


def _with_one_miss(valid, misses, place):
    """``valid`` values, half of them with one item set to a near miss:
    ``place(value, miss, i)`` puts the miss at index ``i``."""
    return st.tuples(valid, st.none() | misses, st.integers(0, 5)).map(
        lambda t: t[0] if t[1] is None else place(*t))


def _insert(terms, miss, i):
    return terms[:i] + (miss,) + terms[i:]


_terms = st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers(-3, 3)),
                  max_size=5).map(tuple)
_term_misses = (
    st.tuples(st.sampled_from(("x", "", "ee", "E", 1, b"e")),
              st.integers(-3, 3))
    | st.tuples(st.sampled_from("abcdefgh"),
                st.sampled_from((1.0, True, "1", None, ())))
    | st.tuples(st.sampled_from("ef")) | st.tuples(st.just("e"), st.just(1),
                                                   st.just(1))
    | st.sampled_from(("e", None, 1)))
_near_miss_words = _with_one_miss(_terms, _term_misses, _insert)


def _replace(doc, miss, i):
    key = ("start", "end", "crossings", "extra")[i % 4]
    return dict(doc, **{key: miss}) if miss != "drop" else \
        {k: v for k, v in doc.items() if k != key}


_port = st.tuples(st.sampled_from(("C1", "C2", "C3", "C4")),
                  st.integers(0, 1)).map(list)
_crossing = st.tuples(st.sampled_from(("d1", "d2", "d3")),
                      st.sampled_from("+-")).map(list)
_documents = st.fixed_dictionaries(
    {"start": _port, "end": _port,
     "crossings": st.lists(_crossing, max_size=4)})
_document_misses = (
    st.sampled_from(("drop", None, 1, "C1", (), {}))
    | st.lists(st.sampled_from(("C1", "C5", None, True, 0.0, "0", 2, -1)),
               max_size=3)
    | st.lists(st.lists(st.sampled_from(("d1", "d4", "+", 1, None)),
                        max_size=3) | st.sampled_from(("d1+", None, 1)),
               min_size=1, max_size=3))
_arc_documents = _with_one_miss(_documents, _document_misses, _replace)

hostile_inputs = _near_miss_words | _arc_documents


def _calls(value):
    """The entry points that take ``value``, each as (name, args)."""
    if isinstance(value, dict):
        calls = [("arc_from_json", (value,))]
        try:
            arc = lanternbook.arc_from_json(value)
        except lanternbook.MalformedArcError:
            return calls
        return calls + [("arc_to_json", (arc,)), ("side_at_start", (arc, ARC)),
                        ("apply_twist", (arc, "e", -1)),
                        ("apply_word", (arc, "e f^-1"))]
    return [("concat", (value, value)), ("invert", (value,)),
            ("power", (value, 2)), ("word_length", (value,)),
            ("mirror_word", (value,)), ("format_word", (value,)),
            ("free_reduce", (value,)), ("exponent_class", (value,)),
            ("equal_in_mcg", (value, "e")), ("reduce", (value,)),
            ("substitute_gh", (value,)),
            ("is_right_veering_upto", (value, 3)),
            ("apply_word", (ARC, value))]


@settings(max_examples=400)
@given(hostile_inputs)
def test_generated_near_misses_are_answered_or_refused(value):
    for name, args in _calls(value):
        exc = outcome(getattr(lanternbook, name), args)
        assert exc is None, (name, args, exc)
