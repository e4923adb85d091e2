"""Monodromies of the four-holed sphere: rewriting to lantern-relation
normal form, contact-geometric classification by arithmetic rules, and
an exact combinatorial engine for the twist action on boundary-based
arcs (equality testing and bounded right-veering checks).

The package has three layers:

* :mod:`lanternbook.words` -- twist words over the generators a..h;
  :mod:`lanternbook.invariant` -- the exact equality invariant (slope
  matrices plus exponent class) and the right-veering decision (by
  trace, or by the fractional Dehn twist coefficient);
* :mod:`lanternbook.lantern` / :mod:`lanternbook.classify` -- the
  reduced normal form, positive factorizations, and the
  fillable/overtwisted/right-veering rule set;
* :mod:`lanternbook.engine` -- arcs on the cut-open 12-gon, the side
  test, the certified twist action, and the bounded left-witness search.

Everything is pure Python on the standard library, and every layer
raises the error kinds of :mod:`lanternbook.errors`.  The engine's names
are re-exported lazily, so only a process that uses one imports the
engine, and only its first model build, which certifies the twist
tables once per process, imports the planar model
:mod:`lanternbook.geometry`.
"""

from .classify import (Classification, OTShape, classify, classify_rules,
                       match_ot_shape)
from .errors import (InvariantViolation, MalformedArcError,
                     PreconditionError, WordSyntaxError)
from .invariant import equal_in_mcg
from .lantern import (PositiveFactorization, ReducedForm, canonical_form,
                      cyclic_rotations, expand, mirror_ef,
                      positive_factorization, reduce, rf_from_json,
                      rf_to_json, rotation_conjugator, substitute_gh)
from .words import (concat, exponent_class, format_word, free_reduce,
                    invert, mirror_word, parse, power, word_length)

__all__ = [
    "Arc", "Classification", "InvariantViolation", "MalformedArcError",
    "OTShape", "PositiveFactorization", "PreconditionError", "RVReport",
    "ReducedForm", "WordSyntaxError", "apply_twist", "apply_word",
    "arc_from_json", "arc_to_json", "canonical_form", "certify_model",
    "classify", "classify_rules", "concat", "cyclic_rotations",
    "equal_in_mcg", "expand", "exponent_class", "format_word",
    "free_reduce", "invert", "is_right_veering_upto", "make_arc",
    "match_ot_shape", "mirror_ef", "mirror_word", "parse", "power",
    "positive_factorization", "reduce",
    "rf_from_json", "rf_to_json", "rotation_conjugator", "side_at_start",
    "substitute_gh", "witness_library", "word_length",
]

__version__ = "1.0.0"


def __getattr__(name):
    """The engine's names, imported on first use (PEP 562): the names of
    ``__all__`` that no import above binds."""
    if name in __all__:
        from . import engine
        return getattr(engine, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
