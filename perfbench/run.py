"""lanternbook benchmark: one seeded workload, end to end or layer by layer.

    python3 perfbench/run.py --workload census|certify|veering|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Every workload runs in fresh
interpreters (``worker.py``), one process at a time, no threads.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of nine
cold set-ups), ``ops_per_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
``peak_rss_mb``; ``setup_s``, ``ops_per_s`` and the two latencies come
from CPU times scaled to a reference machine speed (see REFERENCE_S),
with the wall-clock figures printed next to them.
``--trace 1`` runs the workload untraced with half the operations, then
traced with all of them on the same inputs, and reports the per-layer
metrics plus ``trace.overhead_ratio``.  Either way the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it give the metric table, the
provenance, and the ten slowest operations with their inputs.  A copy of
the result (and, traced, every span) is written under ``perfbench/out/``.
See perfbench/README.md for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import CALIBRATION_BURST

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("census", "certify", "veering", "cli")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
# Operation and set-up times are CPU times reported at this reference
# speed.  On a shared machine the speed a run gets swings by tens of
# percent within seconds, so every operation's CPU time is scaled by
# REFERENCE_S over the mean CPU time of the calibration bursts just before
# and after it (worker.calibration_quantum), which slow down with it; a
# set-up's CPU time is scaled by the bursts its process runs just before
# and just after the set-up.
REFERENCE_S = 100e-6


class BenchError(Exception):
    pass


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline, extra=()):
    """Run worker.py to completion; return (its JSON, its spawn time)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline -
                                                time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s"
                         % (proc.returncode, err[-2000:]))
    return json.loads(out.splitlines()[-1]), spawned


def scaled_latencies(run):
    """Each operation's CPU time at reference speed, in run order."""
    cal, burst = run["calibration"], CALIBRATION_BURST
    return [cpu * REFERENCE_S
            / statistics.fmean(cal[max(0, c - burst):c + burst])
            for _, _, cpu, c in run["ops"]]


def tail_latency(latencies):
    """Latency at the highest percentile with ten samples beyond it: the
    11th largest.  Returns (value, percentile level, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def ops_per_s(run, latencies):
    """Throughput of the client's traffic mix.  The families' operation
    counts were set to split busy time equally, so the mix completes the
    mean of the per-family rates."""
    return statistics.fmean(len(lats) / sum(lats) for lats in
                            _by_family(run, latencies).values() if lats)


def _provenance(args):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args, deadline):
    setups, setup_walls = [], []
    for _ in range(SETUP_SAMPLES):
        probe, spawned = _worker(args, deadline, ["--probe"])
        setups.append(probe["setup_cpu"] * REFERENCE_S
                      / statistics.fmean(probe["calibration"]))
        setup_walls.append(probe["setup_done"] - spawned)
    run, _ = _worker(args, deadline)
    wall = [w for _, w, _, _ in run["ops"]]
    if not wall:
        raise BenchError("no operation completed")
    latencies = scaled_latencies(run)
    tail, level, n = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(run, latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {"ops_per_s": "wall %.6g" % ops_per_s(run, wall),
             "latency_p50_ms": "wall %.6g" % (statistics.median(wall) * 1e3),
             "latency_tail_ms": "wall %.6g; p%.3f of %d operations, 10 "
                                "beyond" % (tail_latency(wall)[0] * 1e3,
                                            level, n)}
    notes["setup_s"] = "median of %s; wall %.6g" % (
        ", ".join("%.4f" % s for s in setups), statistics.median(setup_walls))
    return run, metrics, notes


def _by_family(run, latencies):
    per = {name: [] for name in run["families"]}
    for (k, _, _, _), lat in zip(run["ops"], latencies):
        per[run["families"][k]].append(lat)
    return per


def per_layer(args, deadline):
    half = argparse.Namespace(**vars(args))
    half.seconds = args.seconds / 2
    plain, _ = _worker(half, deadline)
    spans_path = os.path.join(OUT, "%s-seed%d-spans.json"
                              % (args.workload, args.seed))
    run, _ = _worker(args, deadline, ["--trace", "--spans-out", spans_path])
    # overhead over the operations both runs made: each family's stream
    # is deterministic, so its first n operations are the same inputs
    traced_s = plain_s = 0.0
    a = _by_family(run, scaled_latencies(run))
    b = _by_family(plain, scaled_latencies(plain))
    for name in a:
        n = min(len(a[name]), len(b[name]))
        traced_s += sum(a[name][:n])
        plain_s += sum(b[name][:n])
    metrics = {name: tuple(v) for name, v in run["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    notes = {"trace.overhead_ratio": "traced / untraced time over the "
                                     "same inputs, each at reference speed"}
    run["failed"] += plain["failed"]
    run["golden_ok"] = run["golden_ok"] and plain["golden_ok"]
    run["failures"] += plain["failures"]
    run["ops"] += plain["ops"]
    return run, metrics, notes


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lanternbook",
                                       "__init__.py")):
        sys.stderr.write("error: no lanternbook sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            run, metrics, notes = per_layer(args, deadline)
        else:
            run, metrics, notes = end_to_end(args, deadline)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3

    attempted = len(run["ops"])
    provenance = _provenance(args)
    for name, (value, unit) in sorted(metrics.items()):
        note = notes.get(name)
        print("%-52s %14.6g %-6s%s" % (name, value, unit,
                                       "  (%s)" % note if note else ""))
    print("failed_ratio %d/%d" % (run["failed"], attempted))
    for line in run["failures"]:
        print("FAILED", line)
    print("digests", json.dumps(run["digests"], sort_keys=True),
          "golden", json.dumps(run["golden"], sort_keys=True))
    print("inputs (operations, distinct inputs)",
          json.dumps(run["inputs"], sort_keys=True))
    print("slowest operations:")
    for latency, family, shown in run["slowest"]:
        print("  %10.3f ms  %-7s %s" % (latency * 1e3, family, shown))
    provenance["timed_s"] = run["timed_s"]
    print("provenance", json.dumps(provenance, sort_keys=True))
    result = {
        "correct": run["failed"] == 0 and run["golden_ok"],
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump({"result": result, "notes": notes,
                   "provenance": provenance, "digests": run["digests"],
                   "golden": run["golden"], "inputs": run["inputs"],
                   "slowest": run["slowest"],
                   "failures": run["failures"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
