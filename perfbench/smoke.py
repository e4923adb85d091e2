"""Smoke test of the benchmark itself (about 90 s on two cores).

    python3 perfbench/smoke.py

* every workload runs at tiny size, untraced and traced, answers
  correctly, and prints exactly the metric names and units that
  BENCHMARK.json declares;
* one seed gives identical inputs and an identical output digest twice,
  and another seed gives different inputs.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST = {"census": 200, "sound": 20, "cert": 100, "ot": 100, "rv": 5,
         "mixed": 30}


def _families(workload, seed):
    import workloads
    return {"census": workloads.census_families,
            "certify": workloads.certify_families,
            "veering": workloads.veering_families}[workload](seed)


def _first(workload, seed, run):
    """Inputs (and, with ``run``, an output digest) of the first operations
    of every family."""
    import workloads
    shown, lines = [], []
    for family in _families(workload, seed):
        for inp in itertools.islice(family.inputs, FIRST[family.name]):
            shown.append(family.show(inp))
            if run:
                lines.append(family.digest(inp, family.run(inp)))
    return shown, workloads.digest(lines)


def check_determinism(problems):
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    for workload in ("census", "certify", "veering"):
        inputs, digest = _first(workload, 7, run=True)
        again, digest_again = _first(workload, 7, run=True)
        other, _ = _first(workload, 8, run=False)
        if inputs != again or digest != digest_again:
            problems.append("%s: seed 7 is not reproducible" % workload)
        if inputs == other:
            problems.append("%s: seeds 7 and 8 give the same inputs"
                            % workload)
    for cmd in workloads.CLI_COMMANDS:
        cli = [list(itertools.islice(workloads._cli_inputs(
            cmd, workloads.family_rng(seed, "cli." + cmd)), 4))
            for seed in (7, 7, 8)]
        if cli[0] != cli[1] or cli[0] == cli[2]:
            problems.append("cli %s: inputs do not follow the seed" % cmd)


def check_runs(problems):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d %s" % (where, proc.returncode,
                                                   proc.stderr[-500:]))
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (where,
                                                        sorted(result)))
            if not result["correct"] or result["failed"]:
                problems.append("%s: incorrect answers" % where)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (where, sorted(set(got) ^
                                                 set(declared[trace]))))
            print("ok" if not problems else "..", where, flush=True)


def main():
    problems = []
    check_determinism(problems)
    check_runs(problems)
    for line in problems:
        print("FAIL", line)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
