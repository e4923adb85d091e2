"""What importing the package costs a process: the modules an import
adds to ``sys.modules``.  A cli process that folds no arc needs neither
the engine nor the geometry, and no module of the package needs
``dataclasses``, ``inspect`` or ``typing``, whose imports alone cost a
process several milliseconds.

Each import runs in a child interpreter, which compares ``sys.modules``
before and after it, so a module that ``site`` preloads is not counted.
Runs without pytest too: ``PYTHONPATH=src python tests/test_footprint.py``.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

SRC = str(Path(__file__).resolve().parents[1] / "src")

ABSENT = {
    "lanternbook.cli": {"dataclasses", "inspect", "typing", "fractions",
                        "lanternbook.engine", "lanternbook.geometry"},
    "lanternbook.engine": {"dataclasses", "inspect", "typing"},
}

_PROBE = """\
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def added_modules(module):
    """The names that ``import module`` adds to ``sys.modules`` in a
    fresh interpreter that imports the package from ``src``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    out = subprocess.run([sys.executable, "-c", _PROBE.format(module=module)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    return set(json.loads(out.stdout))


def test_cli_import_leaves_out_the_engine_and_dataclasses():
    added = added_modules("lanternbook.cli")
    assert "lanternbook.cli" in added
    assert not added & ABSENT["lanternbook.cli"], added


def test_engine_import_leaves_out_dataclasses_and_typing():
    added = added_modules("lanternbook.engine")
    assert "lanternbook.engine" in added
    assert not added & ABSENT["lanternbook.engine"], added


if __name__ == "__main__":
    test_cli_import_leaves_out_the_engine_and_dataclasses()
    test_engine_import_leaves_out_dataclasses_and_typing()
    print("import footprint ok")
