"""The command-line front end: every subcommand in both output formats,
batch input on stdin, the exit-code contract (0 ok / 1 usage or parse /
2 invariant fault), and census determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lanternbook.cli import main
from lanternbook.engine import MAX_BOUND
from lanternbook.errors import InvariantViolation

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# -- reduce -------------------------------------------------------------

def test_reduce_identity(capsys):
    code, out, _ = run_cli(capsys, "reduce", "")
    assert code == 0
    assert json.loads(out) == {"r": [0, 0, 0, 0], "blocks": []}


def test_reduce_g(capsys):
    code, out, _ = run_cli(capsys, "reduce", "g")
    assert code == 0
    assert json.loads(out) == {"r": [1, 1, 1, 1], "blocks": [[0, -1], [-1, 0]]}


def test_reduce_reads_stdin_batches(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("g e f\n\n  e f  \n"))
    code, out, _ = run_cli(capsys, "reduce")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"r": [1, 1, 1, 1], "blocks": []}
    assert json.loads(lines[1]) == {"r": [0, 0, 0, 0], "blocks": [[1, 1]]}


# -- classify -----------------------------------------------------------

def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "a b c d e^-2 f^-1")
    assert code == 0
    assert out.strip() == "Overtwisted [OT3,OT4] (rotation 0, mirror false)"


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "json",
                           "a b c d e^-2 f^-1")
    assert code == 0
    assert json.loads(out) == {"verdict": "Overtwisted",
                               "rules": ["OT3", "OT4"],
                               "rotation": 0, "mirror": False}


def test_classify_ot1_broad_flag(capsys):
    word = "a^-1 e f e f e f"
    code, out, _ = run_cli(capsys, "classify", word)
    assert code == 0 and out.startswith("Unknown")
    code, out, _ = run_cli(capsys, "classify", "--ot1-broad", word)
    assert code == 0 and out.startswith("Overtwisted [OT1]")
    assert "[ot1-broad]" in out


# -- check-rv -----------------------------------------------------------

def test_check_rv_witness(capsys):
    code, out, _ = run_cli(capsys, "check-rv", "a b c d e^-2 f^-1")
    assert code == 0
    assert out.startswith("NotRightVeering (boundary C")
    assert '"crossings"' in out


def test_check_rv_no_witness_with_bound(capsys):
    code, out, _ = run_cli(capsys, "check-rv", "--bound", "6", "e f")
    assert code == 0
    assert out.strip() == "NoWitnessUpToBound (bound 6)"


def test_check_rv_json(capsys):
    code, out, _ = run_cli(capsys, "check-rv", "--format", "json", "e f")
    assert code == 0
    assert json.loads(out) == {"outcome": "NoWitnessUpToBound", "bound": 12,
                               "word": "e f", "witness": None}


def test_check_rv_rejects_bad_bound(capsys, monkeypatch):
    too_deep = "error: bound must be <= %d" % MAX_BOUND
    for bound, message in (("0", "error: bound must be >= 1"),
                           ("-1", "error: bound must be >= 1"),
                           (str(MAX_BOUND + 1), too_deep),
                           ("1500", too_deep)):
        code, _, err = run_cli(capsys, "check-rv", "--bound", bound, "e")
        assert code == 1
        assert err.startswith(message) and "Traceback" not in err
        # the bound is refused before any input is read
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, err = run_cli(capsys, "check-rv", "--bound", bound)
        assert code == 1 and out == ""
        assert err.startswith(message) and "Traceback" not in err


# -- equal / factorize ----------------------------------------------------

def test_equal_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "equal", "g e f", "a b c d")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "equal", "e^2 f^2", "e f e f")
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run_cli(capsys, "equal", "--format", "json", "e", "e")
    assert code == 0 and json.loads(out) == {"equal": True}


def test_factorize_applicable(capsys):
    code, out, _ = run_cli(capsys, "factorize", "a b c d e^-1 f^-1")
    assert (code, out.strip()) == (0, "h")


def test_factorize_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "factorize", "a b c d e^-2 f^-1")
    assert (code, out.strip()) == (0, "not applicable (no H-rule)")
    code, out, _ = run_cli(capsys, "factorize", "--format", "json",
                           "a b c d e^-2 f^-1")
    assert code == 0 and json.loads(out) == {"factorization": None}


def test_factorize_prints_the_empty_product(capsys):
    code, out, _ = run_cli(capsys, "factorize", "")
    assert (code, out) == (0, "(empty product)\n")


def test_factorize_json_payload(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--format", "json",
                           "a b c d e^-1")
    assert code == 0
    doc = json.loads(out)["factorization"]
    assert doc["word"] == "h f" and doc["rule"] == "H1"


# -- census ---------------------------------------------------------------

CENSUS_RANGE = "r1=1..1,r2=1..1,r3=1..1,r4=1..1,m1=-2..-1,n1=-1..0"


def test_census_rows_and_determinism(capsys):
    code, first, _ = run_cli(capsys, "census", "--range", CENSUS_RANGE)
    assert code == 0
    lines = first.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("Overtwisted [OT3,OT4]")
    assert "RightVeering [R1]" in lines[1]   # the unknown-free sweep keeps
    assert "HolomorphicallyFillable" in lines[2]
    code, second, _ = run_cli(capsys, "census", "--range", CENSUS_RANGE)
    assert code == 0 and second == first


def test_census_emits_unknown_rows(capsys):
    code, out, _ = run_cli(capsys, "census", "--range",
                           "r1=2..2,r2=2..2,r3=2..2,r4=2..2,m1=-4..-4,n1=-4..-4")
    assert code == 0
    assert "Unknown []" in out


def test_census_json_rows_round_trip(capsys):
    code, out, _ = run_cli(capsys, "census", "--format", "json",
                           "--range", CENSUS_RANGE)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert rows[0]["exponents"] == {"r1": 1, "r2": 1, "r3": 1, "r4": 1,
                                    "m1": -2, "n1": -1}
    assert rows[0]["verdict"] == "Overtwisted"
    assert rows[0]["reduced"] == {"r": [1, 1, 1, 1], "blocks": [[-2, -1]]}


def test_census_bytes_are_pinned(capsys):
    """The census stream of a 540-row sweep over two blocks, text and
    JSON, hashed and compared with the bytes recorded when the pin was
    written: any change to a row, its order or its format shows here."""
    spec = "r1=-1..1,r2=0..1,m1=-2..2,n1=-1..1,m2=-1..1,n2=0..1"
    pinned = {
        "text": "99ad1dd3021a6fb39c9dd0f5148ce599"
                "a31dcd675070b84ef22060846dba5f3a",
        "json": "11eafc987786df2609a3e5373870864d"
                "bc94749bb6c70f8fe50397a80edc5565",
    }
    for fmt, digest in pinned.items():
        code, out, _ = run_cli(capsys, "census", "--format", fmt,
                               "--range", spec)
        assert code == 0
        assert len(out.splitlines()) == 540
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_census_rejects_bad_ranges(capsys):
    for bad in ["", "r1=1..0", "q=1..2", "r1=1..2,r1=1..2", "r5=0..1"]:
        code, _, err = run_cli(capsys, "census", "--range", bad)
        assert code == 1, bad
        assert "error:" in err or "usage" in err


# -- exit-code contract -----------------------------------------------------

def _cli_process(*argv):
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.Popen([sys.executable, "-m", "lanternbook.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


def test_a_closed_stdout_ends_the_run_quietly():
    # `lanternbook census --range ... | head -1`: the reader leaves after
    # one line of a stream far larger than a pipe buffer
    proc = _cli_process("census", "--range",
                        "r1=-3..3,r2=-3..3,r3=-3..3,m1=-3..3,n1=-3..3")
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    assert first.startswith(b"r1=-3 r2=-3 r3=-3 r4=0 m1=-3 n1=-3 :: ")
    assert code == 1 and b"Traceback" not in err, err


def test_parse_errors_print_no_traceback():
    # digits outside ASCII are a syntax error at their offset
    for word in ("e^\u00b2", "e^\u0663"):
        proc = _cli_process("reduce", word)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 1 and out == b""
        assert err.startswith(b"error: exponent digits expected after '^'")
        assert b"Traceback" not in err


def test_parse_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "classify", "x y z")
    assert code == 1 and "error:" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "equal", "e")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_invariant_faults_exit_two(capsys, monkeypatch):
    import sys as _sys
    mod = _sys.modules["lanternbook.cli"]
    def boom(rf, ot1_broad=False):
        raise InvariantViolation("forced fault", form=str(rf))
    monkeypatch.setattr(mod, "classify", boom)
    code, _, err = run_cli(capsys, "classify", "e f")
    assert code == 2
    assert "forced fault" in err and "form" in err


def test_installed_entry_point_smoke(tmp_path):
    """The console script declared in pyproject.toml installs from this
    checkout and runs.  The install goes into a throwaway prefix under
    tmp_path, offline, with the setuptools already present; its build and
    egg-info directories go there too, so the checkout stays clean.  The
    generated script is run by its path with only that prefix's library
    directory on PYTHONPATH, so no other install can stand in for it, and
    the installed metadata must carry the package's ``__version__``."""
    pytest.importorskip("setuptools")
    lib, scripts = tmp_path / "lib", tmp_path / "bin"
    install = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path),
         "build", "--build-base", str(tmp_path / "build"),
         "install", "--prefix", str(tmp_path), "--install-lib", str(lib),
         "--install-scripts", str(scripts),
         "--single-version-externally-managed",
         "--record", str(tmp_path / "record.txt")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert install.returncode == 0, install.stdout + install.stderr
    proc = subprocess.run(
        [scripts / "lanternbook", "equal", "g e f", "a b c d"],
        env=dict(os.environ, PYTHONPATH=str(lib)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"
    # the distribution's version is the package's own
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib.metadata, lanternbook; print(lanternbook.__file__);"
         "print(importlib.metadata.version('lanternbook'));"
         "print(lanternbook.__version__)"],
        env=dict(os.environ, PYTHONPATH=str(lib)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    where, installed, package = proc.stdout.split()
    assert Path(where).is_relative_to(lib) and installed == package
