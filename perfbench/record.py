"""Re-records the benchmark's fixed reference data from the current
sources (about four minutes on two cores):

* ``golden.json``: the digests of the fixed census and mixed corpora;
* ``mixed_costs.json``: the measured search cost of every word of the
  mixed corpus, which orders the mixed family's stream.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record.py

Run it only after a change that is meant to change answers (golden) or
when the mixed corpus itself changes; every later measurement is then
taken against the new reference.
"""

from __future__ import annotations

import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402
from lanternbook import engine  # noqa: E402


def main():
    engine.get_model().ensure_library()
    golden = {**worker.golden_digests("census"),
              **worker.golden_digests("veering")}
    with open(worker.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    costs = workloads.measure_mixed_costs()
    with open(workloads.MIXED_COSTS, "w") as fh:
        json.dump({"python": platform.python_version(),
                   "bound": workloads.BOUND, "costs_ms": costs}, fh)
        fh.write("\n")
    print(json.dumps(golden), "mixed corpus: %.1f s" % (sum(costs) / 1e3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
