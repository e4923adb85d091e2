"""Seeded inputs, operations and reference checks of the four workloads.

A workload is a set of *families*.  Each family owns an endless,
deterministic input stream (same seed, same inputs), one operation per
input, and a reference check of the operation's answer.  The worker
runs a fixed number of operations per family, set so that every family
of a workload gets about an equal share of its busy time (see
``worker.py``).

Every family but ``census`` draws from a finite corpus or grid without
repeating an input until the whole of it is used, and each holds at
least ten times the operations of a run (see README.md).  The program
caches equality and search answers, so a stream that replayed its
inputs within a run would be answered from those caches.

The program is reached only through module attributes looked up at call
time (``lantern.reduce``, ``engine.equal_in_mcg`` ...), so the tracer in
``tracing.py`` can wrap them from outside ``src/``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

from lanternbook import engine, lantern, words
from lanternbook.lantern import ReducedForm

rules = sys.modules["lanternbook.classify"]  # the package root shadows it

# ----------------------------------------------------------------------
# shared input helpers
# ----------------------------------------------------------------------


def family_rng(seed, name):
    """An independent, reproducible random stream per (seed, family)."""
    return random.Random("lanternbook-bench/%s/%s" % (seed, name))


def random_word(rng, min_terms, max_terms, lo, hi):
    """Criterion-2 style word: uniform letters, nonzero exponents in
    [lo, hi], freely reduced."""
    terms = []
    for _ in range(rng.randint(min_terms, max_terms)):
        exp = 0
        while exp == 0:
            exp = rng.randint(lo, hi)
        terms.append((rng.choice(words.GENERATORS), exp))
    return words.merge_terms(terms)


def exponent_class(word):
    """The lantern-lattice exponent class, restated from its definition
    (independent of ``lanternbook.words.exponent_class``)."""
    sums = dict.fromkeys(words.GENERATORS, 0)
    for letter, exp in word:
        sums[letter] += exp
    gh = sums["g"] + sums["h"]
    return tuple([sums[l] + gh for l in "abcd"]
                 + [sums[l] - gh for l in "ef"])


# 2x2 integer matrices of the interior twists, from the curve slopes
# (e = 1/0, f = 0/1, g and h = +-1).  A twist about slope p/q acts as
# [[1-2pq, 2p^2], [-2q^2, 1+2pq]]; the boundary twists act trivially.
def _twist_matrix(p, q):
    return (1 - 2 * p * q, 2 * p * p, -2 * q * q, 1 + 2 * p * q)


_SLOPE_MATRIX = {"e": _twist_matrix(1, 0), "f": _twist_matrix(0, 1),
                 "g": _twist_matrix(1, 1), "h": _twist_matrix(1, -1)}
_PIECES = {}


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _piece(letter, exp):
    key = (letter, exp)
    hit = _PIECES.get(key)
    if hit is None:
        a, b, c, d = _SLOPE_MATRIX[letter]
        base = (a, b, c, d) if exp > 0 else (d, -b, -c, a)
        hit = (1, 0, 0, 1)
        for _ in range(abs(exp)):
            hit = _mul(hit, base)
        _PIECES[key] = hit
    return hit


def predicted_cost(word):
    """Relative cost of composing the arc action of ``word``: the engine's
    action data grows with the norm of the running slope-matrix product,
    and each term costs about that size times the size of its piece.
    Used only to stratify inputs and to enforce the input budget; it is
    never an answer."""
    acc = (1, 0, 0, 1)
    total = 0
    for letter, exp in word:
        if letter in words.BOUNDARY:
            continue
        piece = _piece(letter, exp)
        acc = _mul(acc, piece)
        total += max(map(abs, acc)) * max(map(abs, piece))
    return total


def stratified_ranks(size):
    """The ranks 0..size-1 (size a power of two) in bit-reversal order,
    XORed with the fixed mask 0101...01: the first 2^k of them take one
    rank from each of 2^k equal strata, at the same place inside every
    stratum.  Emitting cost-sorted inputs in this order makes every
    prefix a stratified sample of the cost distribution, and which ranks
    a run reaches depends only on how many operations it completes."""
    bits = size.bit_length() - 1
    assert bits >= 1 and 1 << bits == size
    mask = (size - 1) // 3
    return [int(format(i, "0%db" % bits)[::-1], 2) ^ mask
            for i in range(size)]


MASK_BLOCK = 16


def stratified(pool, rng):
    """Endless stream over ``pool``, a seed-independent list sorted by
    cost whose length is a power of two, emitted pass after pass in
    ``stratified_ranks`` order.

    Below the top quarter of the ranks, every emitted rank is XORed with
    a seeded mask drawn per group of MASK_BLOCK neighbouring ranks, so
    each seed runs different inputs of the same cost.  The top quarter,
    which holds the slow inputs that decide a run's tail latency and peak
    memory, is common to all seeds (common random numbers)."""
    size = len(pool)
    ranks = stratified_ranks(size)
    while True:
        masks = ([rng.randrange(MASK_BLOCK)
                  for _ in range(size * 3 // 4 // MASK_BLOCK)]
                 + [0] * (size // 4 // MASK_BLOCK))
        for rank in ranks:
            yield pool[rank ^ masks[rank // MASK_BLOCK]]


def permuted(size, rng):
    """Endless stream of the grid indices 0..size-1, each pass in the
    seeded order i -> (a i + b) mod size with a coprime to size: no index
    comes twice in a pass, and the order needs no memory."""
    while True:
        a = 0
        while math.gcd(a, size) != 1:
            a = rng.randrange(1, size)
        b = rng.randrange(size)
        for i in range(size):
            yield (a * i + b) % size


def digits(index, base, count):
    """``index`` as ``count`` digits in ``base``, least significant
    first."""
    out = []
    for _ in range(count):
        index, d = divmod(index, base)
        out.append(d)
    return out


class Family:
    """One input stream with its operation and reference check.

    ``inputs`` yields inputs; ``run(inp)`` performs the timed operation;
    ``check(inp, out)`` returns None when the answer matches the reference
    and a short reason otherwise; ``show(inp)`` names the input for the
    slowest-operation list; ``digest(inp, out)`` is the line folded into
    the run's output digest."""

    def __init__(self, name, inputs, run, check, show, digest):
        self.name = name
        self.inputs = inputs
        self.run = run
        self.check = check
        self.show = show
        self.digest = digest


def _fmt(word):
    return words.format_word(word) or "(identity)"


# ----------------------------------------------------------------------
# census: parse + reduce + classify, never the engine
# ----------------------------------------------------------------------

def census_word(rng):
    return words.format_word(random_word(rng, 1, 10, -4, 4))


def _census_inputs(rng):
    while True:
        text = census_word(rng)
        if text:
            yield text


def census_op(text):
    rf = lantern.reduce(words.parse(text))
    return rf, rules.classify(rf)


def census_row(rf, c):
    return "%s %s %s" % (lantern.rf_to_json(rf), c.verdict, ",".join(c.rules))


def _census_check(text, out):
    rf, c = out
    if exponent_class(words.parse(text)) != exponent_class(lantern.expand(rf)):
        return "exponent class changed"
    if c.verdict not in (rules.FILLABLE, rules.OVERTWISTED,
                         rules.RIGHT_VEERING, rules.UNKNOWN):
        return "bad verdict %r" % c.verdict
    return None


def census_families(seed):
    return [Family("census", _census_inputs(family_rng(seed, "census")),
                   census_op, _census_check, str,
                   lambda text, out: census_row(*out))]


# ----------------------------------------------------------------------
# certify: equal_in_mcg traffic (sound) and positive factorizations (cert)
# ----------------------------------------------------------------------

# Pairs whose predicted action cost exceeds this are redrawn.  Measured
# on a 2-core x86-64 box with Python 3.11: cost 1.2e7 takes about 1-3 s,
# 4e7 about 8 s and 250 MB, 1e8 about 30 s and 450 MB, and the largest of
# 2e5 criterion-2 words (8e8) would need minutes and gigabytes.  The
# budget redraws about 12 pairs in 10^4 and keeps each run within its
# time and memory limits.
SOUND_BUDGET = 12 * 10 ** 6
SOUND_POOL = 1 << 16
_PAD_HEAD = words.parse("g e f")
_PAD_TAIL = words.parse("a^-1 b^-1 c^-1 d^-1")


def _draw_sound(index):
    """Sound pair number ``index`` of the corpus, as (kind, w, other):
    kind 0 compares ``w`` with its reduced form, kind 1 with
    ``g e f . w . (abcd)^-1``, kind 2 with the padded word after
    commuting one adjacent ``e^m f^n`` of ``w`` (which is then returned
    in place of the drawn word).  Each pair has a generator of its own,
    so the corpus is kept as indices and a pair is rebuilt when used."""
    rng = random.Random(index)
    while True:
        kind = rng.randrange(3)
        w = random_word(rng, 0, 10, -4, 4)
        other = None
        if kind == 2:
            w, other = _swap_ef(w, rng)
            other = words.concat(_PAD_HEAD, other, _PAD_TAIL)
        if _sound_cost((kind, w, other)) <= SOUND_BUDGET:
            return kind, w, other


def _sound_cost(pair):
    kind, w, other = pair
    return max(predicted_cost(w), predicted_cost(other or ()))


def _swap_ef(word, rng):
    """``word`` with one adjacent e^m f^n (inserted when absent) and the
    same word with that pair commuted to f^n e^m."""
    spots = [i for i in range(len(word) - 1)
             if word[i][0] == "e" and word[i + 1][0] == "f"]
    if spots:
        i = rng.choice(spots)
        head, (e, f), tail = word[:i], word[i:i + 2], word[i + 2:]
    else:
        i = rng.randint(0, len(word))
        head, tail = word[:i], word[i:]
        e = ("e", rng.choice((-2, -1, 1, 2)))
        f = ("f", rng.choice((-2, -1, 1, 2)))
    return (words.concat(head, (e, f), tail),
            words.concat(head, (f, e), tail))


def _sound_inputs(rng):
    """Criterion-2 traffic in three kinds (see ``_draw_sound``), each
    with an answer known without the engine: equal by the soundness of
    ``reduce`` (criterion 2), equal by the lantern relation and
    centrality, and unequal because the commutator of two free generators
    is not trivial.  The corpus is ordered by ``predicted_cost`` and
    emitted by ``stratified``.  ``reduce`` runs only to build the first
    kind."""
    costs = [_sound_cost(_draw_sound(i)) for i in range(SOUND_POOL)]
    pool = sorted(range(SOUND_POOL), key=lambda i: (costs[i], i))
    for index in stratified(pool, rng):
        kind, w, other = _draw_sound(index)
        if kind == 0:
            yield w, lantern.expand(lantern.reduce(w)), True
        elif kind == 1:
            yield w, words.concat(_PAD_HEAD, w, _PAD_TAIL), True
        else:
            yield w, other, False


def _sound_check(inp, out):
    return None if out is inp[2] else "equal_in_mcg said %r" % (out,)


def _literal_h(r, blocks):
    """The fillability rules H1-H4, restated from their definitions."""
    lo = min(r)
    if len(blocks) == 1:
        m, n = blocks[0]
        if max(m, n) >= 0:
            return lo >= max(-m, -n, 0)
        if max(m, n) == -1:
            return lo >= -m - n - 1
        return lo >= -m - n - 2
    cost = sum(max(-m, 0) + max(-n, 0) for m, n in blocks)
    return lo >= cost


CERT_SPAN = range(-3, 4)
CERT_SHAPES = ([((m, n),) for m in CERT_SPAN for n in CERT_SPAN]
               + [((m1, n1), (m2, n2)) for m1 in CERT_SPAN
                  for n1 in CERT_SPAN for m2 in CERT_SPAN
                  for n2 in CERT_SPAN])
CERT_R = 6      # boundary exponents 0..5


def _cert_inputs(rng):
    """Fillable forms of the criterion-4 grid widened to boundary
    exponents 0..5 (one or two blocks with exponents -3..3; 413,183
    forms), in ``permuted`` order."""
    shapes = len(CERT_SHAPES)
    for index in permuted(CERT_R ** 4 * shapes, rng):
        rest, shape = divmod(index, shapes)
        r, blocks = tuple(digits(rest, CERT_R, 4)), CERT_SHAPES[shape]
        if not _literal_h(r, blocks):
            continue
        try:
            rf = ReducedForm(r, blocks)
        except lantern.PreconditionError:
            continue
        if rf.blocks == blocks:
            yield rf


def _cert_check(recheck, rf, pf):
    if pf is None:
        return "no factorization"
    if not pf.word or any(exp <= 0 for _, exp in pf.word):
        return "not positive"
    rho = lantern.cyclic_rotations(rf)[pf.rotation]
    product = words.concat(pf.conjugator, pf.word,
                           words.invert(pf.conjugator),
                           words.invert(lantern.expand(rho)))
    # recertify as "product is the identity" on the benchmark's own model,
    # so the program's caches see only the program's traffic
    if recheck.word_action(product) != recheck.word_action(()):
        return "certificate does not recheck"
    return None


def _show_pair(inp):
    return "%s  vs  %s" % (_fmt(inp[0]), _fmt(inp[1]))


def certify_families(seed):
    recheck = engine.Model()
    return [
        Family("sound", _sound_inputs(family_rng(seed, "sound")),
               lambda inp: engine.equal_in_mcg(inp[0], inp[1]),
               _sound_check, _show_pair,
               lambda inp, out: "%s %s" % (_show_pair(inp), out)),
        Family("cert", _cert_inputs(family_rng(seed, "cert")),
               lambda rf: lantern.positive_factorization(rf),
               lambda rf, pf: _cert_check(recheck, rf, pf), str,
               lambda rf, pf: "%s %s %s %d" % (rf, _fmt(pf.word), pf.rule,
                                               pf.rotation)
               if pf is not None else "%s None" % rf),
    ]


# ----------------------------------------------------------------------
# veering: is_right_veering_upto at bound 12, three search stages
# ----------------------------------------------------------------------

BOUND = 12
NOT_RV = "NotRightVeering"
NO_WITNESS = "NoWitnessUpToBound"


def _literal_ot(r, m, n):
    """OT1-OT4, restated from their definitions."""
    lo = min(r)
    return (lo < 0 or (0 in r and min(m, n) < 0)
            or (lo == 1 and min(m, n) < 0 and m * n >= 2))


_OT_SPAN = (-2, -1, 1, 2)
OT_SHAPES = ([((m, n),) for m in range(-2, 3) for n in range(-2, 3)]
             + [((m1, n1), (m2, 0)) for m1 in _OT_SPAN for n1 in _OT_SPAN
                for m2 in _OT_SPAN]
             + [((0, n1), (m1, m2)) for m1 in _OT_SPAN for n1 in _OT_SPAN
                for m2 in _OT_SPAN])


def _ot_inputs(rng):
    """Overtwisted-shape forms of the criterion-3 grid widened to
    boundary exponents -4..4: interior a single block or a two-run shape
    with exponents in -2..2, some OT rule literally true (950,609 forms),
    in ``permuted`` order."""
    shapes = len(OT_SHAPES)
    for index in permuted(9 ** 4 * shapes, rng):
        rest, shape = divmod(index, shapes)
        r = tuple(d - 4 for d in digits(rest, 9, 4))
        blocks = OT_SHAPES[shape]
        if blocks == ((0, 0),):
            blocks = ()
        totals = (sum(m for m, _ in blocks), sum(n for _, n in blocks))
        if _literal_ot(r, *totals):
            yield lantern.expand(ReducedForm(r, blocks))


RV_BLOCKS = ([((-m, 0),) for m in range(1, 6)]
             + [((m, -n),) for m in range(1, 6) for n in range(1, 6)]
             + [((-m, n),) for m in range(1, 6) for n in range(1, 6)])


def _rv_inputs(rng):
    """Right-veering rule instances (criterion 5, widened): r in 1..4 with
    min r = 1, and e^m (m < 0) or e^m f^n with m n < 0 and |m|, |n| <= 5
    (9,625 instances, each checked once to have no left witness at bound
    12), in ``permuted`` order."""
    for index in permuted(4 ** 4 * len(RV_BLOCKS), rng):
        rest, shape = divmod(index, len(RV_BLOCKS))
        r = tuple(d + 1 for d in digits(rest, 4, 4))
        if min(r) == 1:
            yield lantern.expand(ReducedForm(r, RV_BLOCKS[shape]))


def draw_mixed(rng):
    """A random word whose interior (e, f, g, h) terms have both signs.
    Words with an all-positive interior and negative boundary twists are
    left out: some of them send the exhaustive search into tens of
    seconds (``f^2 b^3 e h a^-1``, which equals ``f b^4 c d``, takes about
    35 s), which no bounded run can absorb."""
    while True:
        w = random_word(rng, 2, 6, -3, 3)
        signs = {exp > 0 for letter, exp in w if letter in words.INTERIOR}
        if len(signs) == 2:
            return w


MIXED_CORPUS = 8192
MIXED_COSTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "mixed_costs.json")


def mixed_corpus():
    """The fixed corpus of the mixed family: the first MIXED_CORPUS words
    of a seed-independent stream."""
    rng = random.Random("lanternbook-bench/mixed-corpus")
    return [draw_mixed(rng) for _ in range(MIXED_CORPUS)]


def measure_mixed_costs():
    """Time every corpus word once, in this process, each with the
    program's search and action caches emptied first: a word's cost in a
    run depends on what the caches hold, and this cold cost is the most
    it can be.  The result is what mixed_costs.json records."""
    model = engine.get_model()
    costs = []
    for w in mixed_corpus():
        model._rv_cache.clear()
        model._action_cache.clear()
        start = time.perf_counter()
        engine.is_right_veering_upto(w, BOUND)
        costs.append(round((time.perf_counter() - start) * 1e3, 3))
    return costs


def _mixed_inputs(rng):
    """Random mixed-sign words from a fixed corpus, ordered by their
    measured search cost and emitted by ``stratified``.

    No cheap invariant predicts the cost of a bounded witness search: a
    word is slow when it has no witness and the search exhausts the
    bounded tree, which depends on the lantern relations, not on the
    word's shape (``f g f^-1`` equals ``a b c d e^-1 f^-1`` and takes
    1.6 s).  So the costs were measured once (mixed_costs.json)."""
    corpus = mixed_corpus()
    with open(MIXED_COSTS) as fh:
        costs = json.load(fh)["costs_ms"]
    pool = sorted(range(MIXED_CORPUS), key=lambda i: (costs[i], i))
    for index in stratified(pool, rng):
        yield corpus[index]


def _witness_ok(word, report):
    arc = report.witness
    return engine.side_at_start(arc, engine.apply_word(arc, word)) == "Left"


def _ot_check(word, report):
    if report.outcome != NOT_RV:
        return "expected a left witness, got %s" % report.outcome
    return None if _witness_ok(word, report) else "witness does not recheck"


def _rv_check(word, report):
    if report.outcome != NO_WITNESS:
        return "unexpected left witness"
    return None


def _mixed_check(word, report):
    if report.outcome == NOT_RV and not _witness_ok(word, report):
        return "witness does not recheck"
    return None


def rv_digest(word, report):
    witness = (json.dumps(engine.arc_to_json(report.witness))
               if report.witness is not None else "-")
    return "%s %s %s" % (_fmt(word), report.outcome, witness)


def _veering_family(name, inputs, check):
    return Family(name, inputs,
                  lambda w: engine.is_right_veering_upto(w, BOUND),
                  check, _fmt, rv_digest)


def veering_families(seed):
    return [
        _veering_family("ot", _ot_inputs(family_rng(seed, "ot")), _ot_check),
        _veering_family("rv", _rv_inputs(family_rng(seed, "rv")), _rv_check),
        _veering_family("mixed", _mixed_inputs(family_rng(seed, "mixed")),
                        _mixed_check),
    ]


# ----------------------------------------------------------------------
# cli: one `python -m lanternbook.cli` process per operation
# ----------------------------------------------------------------------

CLI_COMMANDS = ("reduce", "classify", "check-rv", "equal", "factorize",
                "census")
# cold-start equal queries stay far below the in-process budget
CLI_EQUAL_BUDGET = 2 * 10 ** 4


def _cli_inputs(cmd, rng):
    """Endless ``(cmd, args, known answer)`` inputs of one cli command,
    each with a seeded argument: a census word (reduce, classify), an ot
    or rv instance (check-rv), a padded pair with a known answer (equal),
    a widened criterion-4 form (factorize) or a census range of 24..72
    rows."""
    if cmd == "check-rv":
        ot, rv = _ot_inputs(rng), _rv_inputs(rng)
    elif cmd == "factorize":
        cert = _cert_inputs(rng)
    while True:
        known = None
        if cmd in ("reduce", "classify"):
            args = [census_word(rng) or "e"]
        elif cmd == "check-rv":
            known = NOT_RV if rng.random() < 0.5 else NO_WITNESS
            args = [_fmt(next(ot if known == NOT_RV else rv))]
        elif cmd == "equal":
            while True:
                w = random_word(rng, 1, 6, -3, 3)
                if predicted_cost(w) <= CLI_EQUAL_BUDGET:
                    break
            w, swapped = _swap_ef(w, rng)
            known = rng.random() < 0.5
            other = w if known else swapped
            args = [_fmt(w), _fmt(words.concat(_PAD_HEAD, other,
                                               _PAD_TAIL))]
        elif cmd == "factorize":
            args = [_fmt(lantern.expand(next(cert)))]
        else:
            lo = [rng.randint(0, 1) for _ in range(4)]
            items = ["r%d=%d..%d" % (k + 1, lo[k], lo[k] + (k < 2))
                     for k in range(4)]
            m, n = rng.randint(-2, 0), rng.randint(-2, 0)
            items += ["m1=%d..%d" % (m, m + 2), "n1=%d..%d" % (n, n + 1)]
            args = ["--range", ",".join(items)]
        yield cmd, args, known


def cli_argv(inp):
    cmd, args, _ = inp
    return [sys.executable, "-m", "lanternbook.cli", cmd, "--format", "json",
            *args]


def cli_expected(inp):
    """The JSON lines the CLI must print, computed in-process through the
    library API (the CLI's own formatting code is not used)."""
    cmd, args, _ = inp
    if cmd == "reduce":
        docs = [json.loads(lantern.rf_to_json(
            lantern.reduce(words.parse(args[0]))))]
    elif cmd == "classify":
        docs = [rules.classify(lantern.reduce(words.parse(args[0]))).to_json()]
    elif cmd == "check-rv":
        docs = [engine.is_right_veering_upto(words.parse(args[0]),
                                             BOUND).to_json()]
    elif cmd == "equal":
        docs = [{"equal": engine.equal_in_mcg(words.parse(args[0]),
                                              words.parse(args[1]))}]
    elif cmd == "factorize":
        pf = lantern.positive_factorization(
            lantern.reduce(words.parse(args[0])))
        docs = [{"factorization": None if pf is None else {
            "word": words.format_word(pf.word), "rule": pf.rule,
            "rotation": pf.rotation,
            "conjugator": words.format_word(pf.conjugator)}}]
    else:
        docs = _census_expected(args[1])
    return [json.dumps(doc, sort_keys=True) for doc in docs]


def _census_expected(spec):
    ranges = {}
    for item in spec.split(","):
        name, span = item.split("=")
        lo, hi = span.split("..")
        ranges[name] = range(int(lo), int(hi) + 1)
    names = ["r1", "r2", "r3", "r4", "m1", "n1"]
    letters = "abcdef"
    docs = []
    for values in itertools.product(*(ranges[n] for n in names)):
        word = tuple((l, v) for l, v in zip(letters, values) if v)
        rf = lantern.reduce(word)
        c = rules.classify(rf)
        docs.append({"exponents": dict(zip(names, values)),
                     "reduced": json.loads(lantern.rf_to_json(rf)),
                     "verdict": c.verdict, "rules": list(c.rules)})
    return docs


def _cli_check(inp, out):
    cmd, _, known = inp
    code, stdout = out
    if code != 0:
        return "exit code %d" % code
    got = [json.dumps(json.loads(line), sort_keys=True)
           for line in stdout.splitlines() if line.strip()]
    if got != cli_expected(inp):
        return "output differs from the library's answer"
    if cmd == "equal" and json.loads(got[0])["equal"] is not known:
        return "wrong equality answer"
    if cmd == "check-rv" and json.loads(got[0])["outcome"] != known:
        return "wrong right-veering outcome"
    return None


def cli_op(inp, cwd, env):
    proc = subprocess.run(cli_argv(inp), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def cli_families(seed, cwd, env):
    """One family per command, so each command gets about an equal share
    of the client's busy time like the families of the other workloads."""
    return [Family("cli." + cmd,
                   _cli_inputs(cmd, family_rng(seed, "cli." + cmd)),
                   lambda inp: cli_op(inp, cwd, env), _cli_check,
                   lambda inp: "%s %s" % (inp[0], " ".join(
                       repr(a) for a in inp[1])),
                   lambda inp, out: out[1].strip())
            for cmd in CLI_COMMANDS]


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
