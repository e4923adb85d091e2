"""Steadiness check: run the benchmark once per seed on each workload and
report, per end-to-end metric, the spread between the first and third
quartile of the runs as a share of their median, against the metric's
bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads census,certify,...]

Runs are sequential (the benchmark is single-process and a concurrent run
would disturb it).  Each run's final JSON line is appended to
``perfbench/out/steadiness.jsonl``.  A spread below a third of the bound
is reported as steady, for every metric, ``setup_s`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args(argv)
    log = os.path.join(HERE, "out", "steadiness.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                                                   proc.returncode,
                                                   proc.stderr[-2000:]))
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result}) + "\n")
            if not result["correct"]:
                print("%s seed %d: incorrect" % (workload, seed))
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                spread = 0.0
            ok = spread < bounds[name] / 3
            steady = steady and ok
            print("%-8s %-16s median %12.6g  spread %6.3f  bound %.2f  %s"
                  % (workload, name, med, spread, bounds[name],
                     "ok" if ok else "UNSTEADY"), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
