"""Spans around the calls into each lanternbook module, recorded from the
benchmark's side: each function is wrapped at the name its caller looks
up (``lanternbook.lantern.equal_in_mcg`` for the certificates inside
``positive_factorization``, ``Model.word_action`` for every action the
engine composes, ...).  ``src/`` is not modified.

Spans are kept in memory as ``[name, start, end, parent, op, family,
note]`` lists and written out when the run ends.  ``note`` holds what the
span's metrics need from the arguments or the result (word length and
action bytes, rotation count, verdict, outcome); it is computed after
the span has ended.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

from lanternbook import engine, geometry, lantern, words

rules = sys.modules["lanternbook.classify"]

NAME, START, END, PARENT, OP, FAMILY, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.recording = False
        self.op = -1          # index of the current operation, -1 in set-up
        self.family = None

    def wrap(self, owner, attr, name, note=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, tracer.family, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        setattr(owner, attr, traced)


def _action_note(args, action):
    return (words.word_length(args[1]),
            sum(map(len, action.phi)) + sum(map(len, action.w)))


def install(tracer):
    """Wrap every layer boundary the workloads cross."""
    tracer.wrap(words, "parse", "words.parse")
    tracer.wrap(lantern, "reduce", "lantern.reduce")
    tracer.wrap(lantern, "positive_factorization",
                "lantern.positive_factorization")
    tracer.wrap(rules, "cyclic_rotations", "lantern.cyclic_rotations",
                lambda args, result: len(result))
    tracer.wrap(rules, "classify", "classify.classify",
                lambda args, result: result.verdict)
    tracer.wrap(lantern, "equal_in_mcg", "engine.equal_in_mcg")
    tracer.wrap(engine, "equal_in_mcg", "engine.equal_in_mcg")
    tracer.wrap(engine.Model, "word_action", "engine.word_action",
                _action_note)
    tracer.wrap(engine, "is_right_veering_upto",
                "engine.is_right_veering_upto",
                lambda args, result: result.outcome)
    tracer.wrap(geometry, "validate_model_data",
                "geometry.validate_model_data")
    tracer.wrap(engine.Model, "__init__", "engine.model_build")
    tracer.wrap(engine.Model, "ensure_library", "engine.ensure_library")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

LENGTH_BUCKETS = (("len0-10", 0, 10), ("len11-20", 11, 20),
                  ("len21-", 21, None))
CLI_PROBES = ("reduce", "classify", "check-rv", "equal", "factorize",
              "census", "python_floor", "import")
VERDICTS = (("fillable", "HolomorphicallyFillable"),
            ("overtwisted", "Overtwisted"),
            ("right_veering", "RightVeering"), ("unknown", "Unknown"))


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list; 0 for an empty one (the
    layer was not called on this workload)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _timing(out, name, values, unit, scale, with_max=False):
    scaled = [v * scale for v in values]
    out[name + "." + unit + "_p50"] = (quantile(scaled, 0.5), unit)
    out[name + "." + unit + "_p99"] = (quantile(scaled, 0.99), unit)
    if with_max:
        out[name + "." + unit + "_max"] = (max(scaled, default=0.0), unit)


def layer_metrics(spans, cli_samples=None):
    """The per-layer metrics, keyed by name, as (value, unit) pairs.
    ``cli_samples`` maps cli probe names to their latencies in seconds."""
    by_name = {}
    children = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(span)
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)

    def dur(span):
        return span[END] - span[START]

    def timed(name, family=None):
        return [dur(s) for s in by_name.get(name, ())
                if s[OP] >= 0 and (family is None or s[FAMILY] == family)]

    out = {}
    _timing(out, "words.parse", timed("words.parse"), "us", 1e6)
    _timing(out, "lantern.reduce", timed("lantern.reduce"), "us", 1e6)
    rotations = [s[NOTE] for s in by_name.get("lantern.cyclic_rotations", ())
                 if s[OP] >= 0]
    out["lantern.rotations_per_form.mean"] = (
        statistics.fmean(rotations) if rotations else 0.0, "count")

    pf_spans = [(i, s) for i, s in enumerate(spans)
                if s[NAME] == "lantern.positive_factorization" and s[OP] >= 0]
    _timing(out, "lantern.positive_factorization",
            [dur(s) for _, s in pf_spans], "us", 1e6)
    self_time = 0.0
    syntactic = 0
    for i, s in pf_spans:
        kids = [spans[k] for k in children.get(i, ())
                if spans[k][NAME] == "engine.equal_in_mcg"]
        self_time += dur(s) - sum(dur(k) for k in kids)
        syntactic += not kids
    out["lantern.positive_factorization.self_s"] = (self_time, "s")

    classify_times = timed("classify.classify")
    _timing(out, "classify.classify", classify_times, "us", 1e6)
    out["classify.classify.total_s"] = (sum(classify_times), "s")
    verdicts = [s[NOTE] for s in by_name.get("classify.classify", ())
                if s[OP] >= 0]
    for key, verdict in VERDICTS:
        out["classify.verdict.%s.count" % key] = (verdicts.count(verdict),
                                                  "count")

    for family in ("sound", "cert"):
        times = timed("engine.equal_in_mcg", family)
        _timing(out, "engine.equal_in_mcg." + family, times, "ms", 1e3,
                with_max=True)
        out["engine.equal_in_mcg.%s.total_s" % family] = (sum(times), "s")
    out["engine.equal_in_mcg.syntactic_share"] = (
        syntactic / len(pf_spans) if pf_spans else 0.0, "ratio")
    out["engine.equal_in_mcg.syntactic_share.base"] = (len(pf_spans), "count")

    actions = [s for s in by_name.get("engine.word_action", ()) if s[OP] >= 0]
    for bucket, lo, hi in LENGTH_BUCKETS:
        chosen = [s for s in actions
                  if s[NOTE][0] >= lo and (hi is None or s[NOTE][0] <= hi)]
        _timing(out, "engine.word_action." + bucket,
                [dur(s) for s in chosen], "ms", 1e3, with_max=True)
        sizes = [s[NOTE][1] for s in chosen]
        name = "engine.action_bytes." + bucket
        out[name + ".p50"] = (quantile(sizes, 0.5), "bytes")
        out[name + ".p99"] = (quantile(sizes, 0.99), "bytes")
        out[name + ".max"] = (max(sizes, default=0), "bytes")

    rv_spans = [s for s in by_name.get("engine.is_right_veering_upto", ())
                if s[OP] >= 0]
    for family in ("ot", "rv", "mixed"):
        _timing(out, "engine.is_right_veering_upto." + family,
                [dur(s) for s in rv_spans if s[FAMILY] == family], "ms",
                1e3, with_max=True)
    outcomes = [s[NOTE] for s in rv_spans]
    out["engine.rv_outcome.not_right_veering.count"] = (
        outcomes.count("NotRightVeering"), "count")
    out["engine.rv_outcome.no_witness.count"] = (
        outcomes.count("NoWitnessUpToBound"), "count")
    out["engine.spans.count"] = (sum(
        1 for s in spans if s[OP] >= 0
        and s[NAME].startswith(("engine.", "geometry."))), "count")

    def build(name):
        return max((dur(s) for s in by_name.get(name, ())), default=0.0)

    out["geometry.validate_model_data_s"] = (
        build("geometry.validate_model_data"), "s")
    out["engine.model_build_s"] = (build("engine.model_build"), "s")
    out["engine.library_build_s"] = (build("engine.ensure_library"), "s")

    samples = cli_samples or {}
    for name in CLI_PROBES:
        _timing(out, "cli." + name, samples.get(name, []), "ms", 1e3)
    return out
