"""Command-line driver.

Subcommands
-----------
reduce      print the reduced form of each input word
classify    print verdict and rule tags for each input word
check-rv    bounded left-witness search (``--bound``, default 12)
equal       decide whether two words are the same mapping class
factorize   print a certified positive factorization, if an H-rule applies
census      sweep exponent ranges and stream one record per tuple

Words come from positional arguments or, when none are given, from
standard input (one word per line; blank lines are skipped).  ``equal``
always takes exactly two arguments.

``--format json`` switches every subcommand to one JSON document per
line; the default text output keeps the same information in a compact
human form.  Exit status: 0 on success, 1 on usage or parse errors, 2
when an internal consistency check failed (the diagnostic is dumped to
stderr; such a failure is a bug, not a property of the input), and 1
when standard output closes early (``| head -1``), without a traceback.

Census ranges are written ``--range "r1=-2..2,m1=-3..3,n1=0..3"`` with
keys r1..r4 for the boundary exponents and m1,n1,m2,n2,... (at most
m999, n999) for the interior exponents; omitted keys are pinned to 0.
Tuples are swept in lexicographic order (every coordinate ascending),
each one classified as the word a^{r1}b^{r2}c^{r3}d^{r4}e^{m1}f^{n1}...,
so the stream is byte-identical across runs.
"""

from __future__ import annotations

import argparse
from itertools import product
import json
import os
import re
import sys

from .classify import classify
from .errors import (InvariantViolation, MalformedArcError,
                     PreconditionError, WordSyntaxError)
from .invariant import equal_in_mcg
from .lantern import positive_factorization, reduce, rf_to_json
from .words import format_word, parse


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the documented
    contract reserves 2 for internal faults, so remap usage to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    top = _Parser(prog="lanternbook",
                  description="Rewriting, classification, and "
                              "right-veering checks for monodromies of "
                              "the four-holed sphere.")
    sub = top.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    def add(name, help_text, words="*"):
        p = sub.add_parser(name, help=help_text)
        if words:
            p.add_argument("words", nargs=words, metavar="WORD",
                           help="twist word(s); read from stdin if omitted")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
        return p

    add("reduce", "rewrite words to reduced normal form")

    p = add("classify", "verdict and rule tags for words")
    p.add_argument("--ot1-broad", action="store_true",
                   help="apply the negative-boundary overtwistedness rule "
                        "to every block shape (beyond its stated scope)")

    p = add("check-rv", "bounded search for a left-moving witness arc")
    p.add_argument("--bound", type=int, default=12, metavar="N",
                   help="maximum witness crossings (default 12)")

    p = sub.add_parser("equal", help="decide equality of two mapping classes")
    p.add_argument("words", nargs=2, metavar="WORD")
    p.add_argument("--format", choices=("text", "json"), default="text")

    add("factorize", "positive factorization when an H-rule applies")

    p = sub.add_parser("census", help="classify a whole exponent range")
    p.add_argument("--range", required=True, metavar="SPEC", dest="ranges",
                   help='e.g. "r1=0..2,r2=0..2,r3=0..2,r4=0..2,m1=-2..2"')
    p.add_argument("--ot1-broad", action="store_true",
                   help="as in classify")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return top


def _input_words(args):
    if args.words:
        return list(args.words)
    return [line.strip() for line in sys.stdin if line.strip()]


def _fmt_classification(c):
    out = "%s [%s] (rotation %d, mirror %s)" % (
        c.verdict, ",".join(c.rules), c.rotation,
        "true" if c.mirror else "false")
    return (out + "  [ot1-broad]") if c.ot1_broad else out


# at most 999 blocks, so that no index allocates before it is checked
_RANGE_ITEM = re.compile(
    r"^(r[1-4]|[mn][1-9][0-9]{0,2})=(-?[0-9]+)(?:\.\.(-?[0-9]+))?$")


def _parse_ranges(spec):
    """Parse ``name=lo..hi`` items into a dense coordinate list
    [(name, lo, hi), ...] in sweep order r1..r4, m1, n1, m2, n2, ...
    with omitted coordinates pinned to 0."""
    given = {}
    for item in spec.split(","):
        item = item.strip()
        m = _RANGE_ITEM.match(item)
        if not m:
            raise PreconditionError(
                "bad range item %r (expected name=lo..hi)" % item)
        try:
            name, lo, hi = m.group(1), int(m.group(2)), m.group(3)
            hi = lo if hi is None else int(hi)
        except ValueError:      # past the int-to-string digit limit
            raise PreconditionError("range bound of %s has too many digits"
                                    % m.group(1)) from None
        if hi < lo:
            raise PreconditionError("empty range %r" % item)
        if name in given:
            raise PreconditionError("duplicate range key %r" % name)
        given[name] = (lo, hi)
    depth = max((int(k[1:]) for k in given if k[0] in "mn"), default=0)
    coords = ["r1", "r2", "r3", "r4"]
    for i in range(1, depth + 1):
        coords += ["m%d" % i, "n%d" % i]
    return [(name,) + given.get(name, (0, 0)) for name in coords]


def _census_rows(coords, ot1_broad):
    names = {"r1": "a", "r2": "b", "r3": "c", "r4": "d", "m": "e", "n": "f"}
    letters = [names.get(name) or names[name[0]] for name, _, _ in coords]
    for values in product(*(range(lo, hi + 1) for _, lo, hi in coords)):
        rf = reduce(tuple((x, v) for x, v in zip(letters, values) if v))
        yield values, rf, classify(rf, ot1_broad)


def _run(args):
    out = sys.stdout
    if args.subcommand == "reduce":
        for text in _input_words(args):
            out.write(rf_to_json(reduce(parse(text))) + "\n")
    elif args.subcommand == "classify":
        for text in _input_words(args):
            c = classify(reduce(parse(text)), args.ot1_broad)
            if args.format == "json":
                out.write(json.dumps(c.to_json()) + "\n")
            else:
                out.write(_fmt_classification(c) + "\n")
    elif args.subcommand == "check-rv":
        # the only subcommand that needs the arc engine
        from .engine import (arc_to_json, is_right_veering_upto,
                             validate_bound)
        validate_bound(args.bound)
        for text in _input_words(args):
            report = is_right_veering_upto(parse(text), args.bound)
            if args.format == "json":
                out.write(json.dumps(report.to_json()) + "\n")
            elif report.witness is None:
                out.write("NoWitnessUpToBound (bound %d)\n" % report.bound)
            else:
                out.write("NotRightVeering (boundary %s) witness %s\n"
                          % (report.boundary,
                             json.dumps(arc_to_json(report.witness))))
    elif args.subcommand == "equal":
        answer = equal_in_mcg(parse(args.words[0]), parse(args.words[1]))
        if args.format == "json":
            out.write(json.dumps({"equal": answer}) + "\n")
        else:
            out.write(("true" if answer else "false") + "\n")
    elif args.subcommand == "factorize":
        for text in _input_words(args):
            pf = positive_factorization(reduce(parse(text)))
            if args.format == "json":
                doc = None if pf is None else {
                    "word": format_word(pf.word), "rule": pf.rule,
                    "rotation": pf.rotation,
                    "conjugator": format_word(pf.conjugator)}
                out.write(json.dumps({"factorization": doc}) + "\n")
            elif pf is None:
                out.write("not applicable (no H-rule)\n")
            else:
                out.write("%s\n" % pf)
    elif args.subcommand == "census":
        coords = _parse_ranges(args.ranges)
        names = [name for name, _, _ in coords]
        for values, rf, c in _census_rows(coords, args.ot1_broad):
            point = " ".join("%s=%d" % (n, v) for n, v in zip(names, values))
            if args.format == "json":
                out.write(json.dumps(
                    {"exponents": dict(zip(names, values)),
                     "reduced": json.loads(rf_to_json(rf)),
                     "verdict": c.verdict, "rules": list(c.rules)}) + "\n")
            else:
                out.write("%s :: %s :: %s [%s]\n"
                          % (point, rf_to_json(rf), c.verdict,
                             ",".join(c.rules)))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _run(args)
        sys.stdout.flush()      # so that a closed pipe shows up here
        return 0
    except BrokenPipeError:     # and not again in the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (WordSyntaxError, PreconditionError, MalformedArcError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except InvariantViolation as exc:
        sys.stderr.write("internal invariant violated: %s\n" % exc)
        sys.stderr.write(json.dumps(exc.details, default=repr) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
