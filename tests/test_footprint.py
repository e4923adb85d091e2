"""What importing the package costs a process: the modules an import
adds to ``sys.modules``.  A cli process that folds no arc needs neither
the engine nor the geometry.  Only a model build loads the planar
geometry and ``fractions``.  No module of the package needs
``dataclasses``, ``inspect`` or ``typing``, whose imports alone cost a
process several milliseconds.

Each probe runs in a child interpreter, which compares ``sys.modules``
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
    "lanternbook.engine": {"dataclasses", "inspect", "typing", "fractions",
                           "lanternbook.geometry"},
}

_PROBE = """\
import json, sys
before = set(sys.modules)
{code}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_CHECK_RV = "from lanternbook.cli import main; main(['check-rv', %r])"


def added_modules(code):
    """The names that running ``code`` adds to ``sys.modules`` in a fresh
    interpreter that imports the package from ``src``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    out = subprocess.run([sys.executable, "-c", _PROBE.format(code=code)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    # the last line: whatever ``code`` printed comes before it
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_cli_import_leaves_out_the_engine_and_dataclasses():
    added = added_modules("import lanternbook.cli")
    assert "lanternbook.cli" in added
    assert not added & ABSENT["lanternbook.cli"], added


def test_engine_import_leaves_out_dataclasses_and_typing():
    added = added_modules("import lanternbook.engine")
    assert "lanternbook.engine" in added
    assert not added & ABSENT["lanternbook.engine"], added


def test_check_rv_loads_the_geometry_only_to_build_the_model():
    # right-veering, and no library entry matches it: the invariant
    # answers, and no model is built
    added = added_modules(_CHECK_RV % "a b c d e^-2")
    assert "lanternbook.engine" in added
    assert not added & {"lanternbook.geometry", "fractions"}, added
    # a library probe settles this one, on a model built for it
    assert "lanternbook.geometry" in added_modules(
        _CHECK_RV % "a b c d e^-2 f^-1")


if __name__ == "__main__":
    test_cli_import_leaves_out_the_engine_and_dataclasses()
    test_engine_import_leaves_out_dataclasses_and_typing()
    test_check_rv_loads_the_geometry_only_to_build_the_model()
    print("import footprint ok")
