"""The public-API contract: every callable in ``lanternbook.__all__``, the
engine's lazily imported names included, returns or raises one of the
four kinds of :mod:`lanternbook.errors`, whatever it is given.

Each callable is called with every combination of a fixed table of
hostile values, in each number of positional arguments its signature
accepts (every combination up to three arguments; past three, each
value once at every position).  Targeted rows add ints longer than the
interpreter's limit for converting an int to a string (4,300 digits by
default), where a refusal would echo them.  A huge int never goes where
it would be used, as a word exponent or a ``power`` count, because the
engine composes a power one twist at a time.

Runs without pytest too: ``PYTHONPATH=src python tests/test_contract.py``.
"""

import inspect
import itertools

import lanternbook
from lanternbook.errors import (InvariantViolation, MalformedArcError,
                                PreconditionError, WordSyntaxError)

KINDS = (WordSyntaxError, MalformedArcError, PreconditionError,
         InvariantViolation)

BIG = 10 ** 5000
ARC = lanternbook.make_arc("P1", (), "P2a")
_FORM = lanternbook.reduce("e f^-1")

# small values only: every int is a valid power count or witness bound
HOSTILE = (
    None, 0, 1, -1, 7, 1.5, True, b"e", object(), "", "e", "e^", "zz",
    "a b c d e^-2 f^-1", "P1", (("e", 1),), (("e", 1.0),),
    (("x", 1), ("e",)), (0, 0, 0, 0), (1, -1),
    {"start": ["C1", 0], "end": ["C2", 1], "crossings": [["d1", "+"]]},
    {"r": [0, 0, 0, 0], "blocks": [[1, 1]]}, ARC,
    lanternbook.Arc(None, (), None), _FORM,
)

# (name, args): the refusals that echo a value too long to print
TARGETED = (
    ("parse", ("e^" + "9" * 5000,)),
    ("parse", ("a e^-" + "9" * 5000,)),
    ("parse", (BIG,)),
    ("apply_twist", (ARC, BIG)),
    ("apply_twist", (ARC, "e", BIG)),
    ("make_arc", (BIG, (), "P1")),
    ("make_arc", ("P1", (BIG,), "P1")),
    ("make_arc", ("P1", BIG, "P1")),
    ("arc_from_json", ({"start": ["C1", BIG], "end": ["C2", 1],
                        "crossings": []},)),
    ("arc_from_json", ({"start": ["C1", 0], "end": ["C2", 1],
                        "crossings": [BIG]},)),
    ("arc_from_json", ({"start": ["C1", 0], "end": ["C2", 1],
                        "crossings": [["d1", BIG]]},)),
    ("is_right_veering_upto", ("e", BIG)),
    ("is_right_veering_upto", ("e", -BIG)),
    ("ReducedForm", ((BIG, 0, 0), ())),
    ("ReducedForm", ((0, 0, 0, 0), ((BIG, 1.0),))),
    ("ReducedForm", ((0, 0, 0, 0), ((1, 0), (BIG, 1)))),
    ("classify", (_FORM, BIG)),
    ("classify_rules", (_FORM, BIG)),
    ("side_at_start", (ARC, BIG)),
    ("side_at_start", (lanternbook.Arc(BIG, (), "P1"), ARC)),
    ("expand", (BIG,)),
    ("concat", (((BIG, 1),),)),
    # an exponent too long to print, in a word or a form that holds it
    ("format_word", ((("e", BIG),),)),
    ("format_word", ((("a", 1), ("e", -BIG)),)),
    ("rf_to_json", (lanternbook.ReducedForm((0, 0, 0, 0), ((BIG, 1),)),)),
    ("rf_to_json", (lanternbook.ReducedForm((-BIG, 0, 0, 0), ()),)),
    # a core too long to rotate, whose length is too long to print
    ("cyclic_rotations", (lanternbook.ReducedForm((0, 0, 0, 0),
                                                  ((BIG, 0),)),)),
    ("canonical_form", (lanternbook.ReducedForm((0, 0, 0, 0),
                                                ((1, -BIG),)),)),
)


def arities(fn):
    """The numbers of positional arguments ``fn`` accepts, at most 5:
    its signature's positional parameters (up to 3 more for ``*args``,
    which an exception type has too)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:                  # a builtin exception type
        return [0, 1, 2, 3]
    positional = [p for p in params if p.kind in (
        p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    low = sum(p.default is p.empty for p in positional)
    high = len(positional)
    if any(p.kind == p.VAR_POSITIONAL for p in params):
        high += 3
    return list(range(low, min(high, 5) + 1))


def argument_rows(n):
    """Every combination of the hostile values up to three arguments;
    past three, each value once at every position, the others rotating
    through the table."""
    if n <= 3:
        return itertools.product(HOSTILE, repeat=n)
    size = len(HOSTILE)
    return (tuple(HOSTILE[(i + j) % size] for j in range(n))
            for i in range(size))


def outcome(fn, args):
    """What ``fn(*args)`` did: None when it returned or raised one of the
    four kinds, else the exception."""
    try:
        fn(*args)
    except KINDS:
        pass
    except Exception as exc:            # the contract's breach
        return exc
    return None


def test_every_public_callable_refuses_the_hostile_table():
    breaches, calls = [], 0
    for name in lanternbook.__all__:
        fn = getattr(lanternbook, name)
        for n in arities(fn):
            for args in argument_rows(n):
                calls += 1
                exc = outcome(fn, args)
                if exc is not None:
                    breaches.append((name, args, repr(exc)[:200]))
    assert calls > 100000, calls
    assert not breaches, breaches[:10]


def test_values_too_long_to_print_are_refused():
    for name, args in TARGETED:
        try:
            getattr(lanternbook, name)(*args)
        except KINDS as exc:
            str(exc)
        else:
            raise AssertionError("%s accepted a value too long to print"
                                 % name)


def test_an_exponent_too_long_to_convert_is_a_syntax_error():
    for text, position in (("e^" + "9" * 5000, 2), ("a e^-" + "1" * 4301, 5)):
        try:
            lanternbook.parse(text)
        except WordSyntaxError as exc:
            assert exc.position == position
            assert "too many digits" in str(exc)
        else:
            raise AssertionError("parsed an exponent of 4,301 digits")


if __name__ == "__main__":
    test_every_public_callable_refuses_the_hostile_table()
    test_values_too_long_to_print_are_refused()
    test_an_exponent_too_long_to_convert_is_a_syntax_error()
    print("public-API contract ok")
