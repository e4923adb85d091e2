"""Exception types shared across the package.

Only four kinds of failure are ever raised deliberately:

* ``WordSyntaxError`` -- the input text does not match the word grammar;
  carries the 0-based offset of the offending character.
* ``MalformedArcError`` -- a crossing sequence does not describe a legal
  path in the cut-open surface.
* ``PreconditionError`` -- an operation was called on arguments violating
  its stated precondition (e.g. comparing two arcs with different start
  points).
* ``InvariantViolation`` -- the implementation caught itself producing
  something mathematically impossible (a failed certification, conflicting
  verdicts).  This is never a user error; it signals a bug and maps to
  exit status 2 in the command line driver.

A refusal echoes the value it refuses through ``shown``, except that of
an int too long to print (``unprintable``), which names the limit.
"""

import sys


def shown(value, text=repr):
    """``text(value)`` for a refusal message, or ``<type name>`` when that
    fails, as it does on an int longer than the interpreter's limit for
    converting an int to a string (4,300 digits by default)."""
    try:
        return text(value)
    except Exception:
        return "<%s>" % type(value).__name__


class WordSyntaxError(ValueError):
    """Raised by the word parser; ``position`` is the 0-based text offset."""

    def __init__(self, message, position):
        super().__init__("%s (at position %s)" % (message, shown(position)))
        self.position = position


class MalformedArcError(ValueError):
    """Raised when a crossing sequence is not realizable in the cut disk."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


class InvariantViolation(Exception):
    """An internal consistency check failed.

    ``details`` is a free-form dict dumped as the diagnostic payload by the
    command line driver (exit status 2).
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = dict(details)


def unprintable():
    """The refusal of an int too long to print, past the interpreter's
    limit for converting an int to a string: it names the limit and does
    not echo the value."""
    return PreconditionError("an exponent has more than %d digits, the "
                             "limit for printing an int"
                             % sys.get_int_max_str_digits())
