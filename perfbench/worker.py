"""Runs one workload in a fresh interpreter and prints one JSON document.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        [--trace] [--probe]

The interpreter start is the set-up clock's zero: ``run.py`` reads
``time.monotonic()`` just before it starts this process, and the worker
reports the monotonic time and its process CPU time at which its set-up
(import plus the lazy model and library build the workload needs) is
done.  ``--probe`` then runs calibration bursts and stops.  Otherwise
the worker builds its inputs, runs one closed-loop client through a fixed
number of operations per family (FAMILY_OPS, scaled by ``--seconds``),
checks every answer, and reports every operation's latency in order.
Reference checks and input generation run between operations and are
not timed.
"""

from __future__ import annotations

import time

# the interpreter's own start, before the benchmark's imports
STARTUP_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST_OPS = {"census": 2000, "sound": 100, "cert": 500, "ot": 500,
              "rv": 50, "mixed": 100, "cli": 2}
GOLDEN = os.path.join(HERE, "golden.json")
CALIBRATE_EVERY_S = 0.01    # of operation time
CALIBRATION_BURST = 5
# Operations per family in a run of RUN_S seconds; a run of --seconds
# makes FAMILY_OPS * seconds / RUN_S of them.  No use of the program tells
# how its traffic splits between the families, so none is weighted: the
# counts are about those each family completed in an equal share of 7.2 s
# of operation CPU time at reference speed (run.REFERENCE_S) on a 2-core
# x86-64 box at the commit that set them.  The heavy inputs of sound and
# mixed sit at fixed places in their streams, so their counts were
# rounded to stay clear of them: 3300 lies between the heavy pairs at
# places 3157 and 4053, and 342 ends with the heaviest word a run reaches.
# A fixed count, unlike a time limit, gives a seed the same operations
# whatever the shared machine's speed.  A run stops anyway after
# WALL_LIMIT times --seconds.
RUN_S = 18
FAMILY_OPS = {"census": 22000, "sound": 3300, "cert": 16300, "ot": 27800,
              "rv": 205, "mixed": 342, "cli.reduce": 23, "cli.classify": 23,
              "cli.check-rv": 4, "cli.equal": 8, "cli.factorize": 12,
              "cli.census": 23}
WALL_LIMIT = 3.0


def calibration_quantum():
    """A fixed pure-Python task (tuple keys, dict inserts, bytes, a keyed
    sort), shaped like the program's own work and independent of it.  A
    burst of it runs after every CALIBRATE_EVERY_S of operation time, and
    the CPU time of the bursts around an operation tells how fast the
    shared machine ran the worker at that moment."""
    d = {}
    for i in range(200):
        d[(i, i * 7 % 13)] = bytes([i % 251]) * 8
    return len(sorted(d, key=lambda k: (k[1], -k[0])))


def _calibrate(samples, count=CALIBRATION_BURST):
    for _ in range(count):
        t0 = time.thread_time()
        calibration_quantum()
        samples.append(time.thread_time() - t0)


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=("census", "certify", "veering", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spans-out", help="file for the traced run's spans")
    return p.parse_args(argv)


def set_up(workload):
    """The import and the lazy set-up the workload's first operation would
    pay.  On cli every operation is a cold start of its own, so the
    worker's set-up is the import alone."""
    import lanternbook  # noqa: F401  (what a user imports)
    from lanternbook import engine
    if workload == "certify":
        engine.get_model()
    elif workload == "veering":
        engine.get_model().ensure_library()


def families_for(workload, seed):
    import workloads
    if workload == "census":
        return workloads.census_families(seed)
    if workload == "certify":
        return workloads.certify_families(seed)
    if workload == "veering":
        return workloads.veering_families(seed)
    env = dict(os.environ)
    return workloads.cli_families(seed, ROOT, env)


def golden_digests(workload):
    """Digests of a fixed, seed-independent corpus, compared with the ones
    recorded in golden.json."""
    import workloads
    from lanternbook import engine
    out = {}
    if workload == "census":
        rng = workloads.family_rng("golden", "census")
        out["census"] = workloads.digest(
            workloads.census_row(*workloads.census_op(
                workloads.census_word(rng)))
            for _ in range(1000))
    elif workload == "veering":
        rng = workloads.family_rng("golden", "mixed")
        out["mixed"] = workloads.digest(
            workloads.rv_digest(w, engine.is_right_veering_upto(
                w, workloads.BOUND))
            for w in (workloads.draw_mixed(rng) for _ in range(100)))
    return out


def _cli_probe(argv):
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                   timeout=60)
    return time.perf_counter() - start


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.recording = True
    if args.probe:
        # the machine's speed just before and just after the set-up, whose
        # CPU time is the interpreter's start plus the set-up itself; the
        # first bursts' time is taken out of the set-up's wall time
        calibration = array("d")
        t0 = time.monotonic()
        _calibrate(calibration, 20 * CALIBRATION_BURST)
        skipped_s, c0 = time.monotonic() - t0, time.process_time()
    set_up(args.workload)
    if args.probe:
        setup_done = time.monotonic() - skipped_s
        setup_cpu = STARTUP_CPU + time.process_time() - c0
        _calibrate(calibration, 20 * CALIBRATION_BURST)
        print(json.dumps({"setup_done": setup_done, "setup_cpu": setup_cpu,
                          "calibration": calibration.tolist()}))
        return 0
    if tracer is not None:
        tracer.recording = False

    import workloads
    families = families_for(args.workload, args.seed)
    pending = [next(f.inputs) for f in families]   # builds the input pools
    todo = [max(1, round(FAMILY_OPS[f.name] * args.seconds / RUN_S))
            for f in families]
    done = [0] * len(families)
    # per operation: family index, wall s, CPU s, calibration count; kept
    # in flat arrays so the benchmark's own bookkeeping stays out of the
    # peak memory the run reports
    op_family, op_wall, op_cpu, op_cal = (array("b"), array("d"),
                                          array("d"), array("l"))
    op_input = array("q")       # hash of the input, to count distinct ones
    failed = 0
    failures = []
    digests = [[] for _ in families]
    slowest = []        # (latency, family, input shown)
    cli_samples = {}
    probe_argv = {
        "python_floor": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import lanternbook.cli"],
    }

    # CPU time of the operation: the worker's own thread, or the child
    # process on cli.  Unlike wall time it leaves out the moments the
    # shared machine runs something else.
    cpu_clock = _children_cpu if args.workload == "cli" else time.thread_time
    calibration = array("d")
    _calibrate(calibration, 4 * CALIBRATION_BURST)
    since_calibration = 0.0
    start = time.perf_counter()
    while (done != todo
           and time.perf_counter() - start < args.seconds * WALL_LIMIT):
        # the family furthest behind its count, so the interleaving, and
        # with it the program's cache state, is the same on every run
        k = min(range(len(families)), key=lambda i: (done[i] / todo[i], i))
        family, inp = families[k], pending[k]
        if tracer is not None:
            tracer.op, tracer.family = len(op_wall), family.name
            tracer.recording = True
        error = None
        t0, c0 = time.perf_counter(), cpu_clock()
        try:
            out = family.run(inp)
        except Exception as exc:  # a failed operation, counted below
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - t0
        cpu = cpu_clock() - c0
        if tracer is not None:
            tracer.recording = False
        done[k] += 1
        op_family.append(k)
        op_wall.append(latency)
        op_cpu.append(cpu)
        op_cal.append(len(calibration))
        since_calibration += latency
        if since_calibration >= CALIBRATE_EVERY_S:
            _calibrate(calibration)
            since_calibration = 0.0
        if error is None:
            try:
                error = family.check(inp, out)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failed += 1
            failures.append("%s %s: %s" % (family.name, family.show(inp),
                                           error))
        elif len(digests[k]) < DIGEST_OPS[family.name.split(".")[0]]:
            digests[k].append(family.digest(inp, out))
        shown = family.show(inp)
        op_input.append(hash(shown))
        slowest.append((latency, family.name, shown))
        if len(slowest) > 50:
            slowest.sort(reverse=True)
            del slowest[10:]
        if family.name.startswith("cli."):
            cli_samples.setdefault(inp[0], []).append(latency)
            if tracer is not None and len(op_wall) % len(families) == 0:
                for name, probe in probe_argv.items():
                    cli_samples.setdefault(name, []).append(_cli_probe(probe))
        pending[k] = next(family.inputs)
    timed_s = time.perf_counter() - start
    _calibrate(calibration, 4 * CALIBRATION_BURST)
    # before the benchmark's own reference work below
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    golden_ok = True
    golden = golden_digests(args.workload)
    if golden:
        with open(GOLDEN) as fh:
            recorded = json.load(fh)
        for key, value in golden.items():
            if recorded.get(key) != value:
                golden_ok = False
                failures.append("golden %s digest %s, recorded %s"
                                % (key, value, recorded.get(key)))

    distinct = [set() for _ in families]
    for k, h in zip(op_family, op_input):
        distinct[k].add(h)
    result = {
        "calibration": calibration.tolist(),
        "families": [f.name for f in families],
        "timed_s": timed_s,
        "ops": list(zip(op_family, op_wall, op_cpu, op_cal)),
        "inputs": {f.name: [op_family.count(k), len(distinct[k])]
                   for k, f in enumerate(families)},
        "failed": failed,
        "failures": failures[:20],
        "golden": golden,
        "golden_ok": golden_ok,
        "digests": {f.name: [len(d), workloads.digest(d)]
                    for f, d in zip(families, digests)},
        "slowest": sorted(slowest, reverse=True)[:10],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        import tracing
        result["layers"] = tracing.layer_metrics(tracer.spans, cli_samples)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.spans, fh)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
