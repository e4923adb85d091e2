"""Slow exhaustive reference for the witness search, used by the tests to
cross-validate the pruned search: the unpruned sweep over every arc of at
most ``bound`` crossings, in the engine's reference enumeration order."""

from lanternbook.engine import _canonical_sweep, get_model
from lanternbook.words import parse


def naive_first_witness(w, bound):
    """The first left witness of ``w`` (a word or its text) with at most
    ``bound`` crossings, or None."""
    action = get_model().word_action(parse(w) if isinstance(w, str) else w)
    return _canonical_sweep(action, bound)
