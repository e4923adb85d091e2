"""Adversarial command lines, each run in a child process under its own
address-space and CPU limits: every refused one must exit 1 with a single
``error:`` line, with no traceback, before it allocates, and every
answered one must print its expected answer.

The limits are set with ``resource.setrlimit`` in the child only
(``preexec_fn``), so a regression ends in that child's ``MemoryError``
or CPU signal and fails here instead of exhausting the machine.
Runs without pytest too: ``PYTHONPATH=src python tests/test_corpus.py``,
which also prints the CPU seconds of each answered row's child.
"""

import os
from pathlib import Path
import resource
import subprocess
import sys

SRC = str(Path(__file__).resolve().parents[1] / "src")
ADDRESS_SPACE = 512 * 2 ** 20
CPU_SECONDS = 10

_DIGITS = "9" * 5000                    # past the int-to-string limit
_MERGED = "e^{0} e^{0}".format("9" * 4300)  # each within the limit
REFUSED = (
    # a census block index is bounded before any coordinate is named
    ["census", "--range", "m100000000=0"],
    ["census", "--range", "m20000000=0"],
    ["census", "--range", "n1000=0"],
    # an exponent or range bound too long to convert is refused
    ["census", "--range", "m1=" + _DIGITS],
    ["census", "--range", "r1=0..-" + _DIGITS],
    ["reduce", "e^" + _DIGITS],
    ["classify", "e^-" + _DIGITS],
    ["check-rv", "a e^" + _DIGITS],
    ["equal", "e^" + _DIGITS, "e"],
    ["factorize", "--format", "json", "f^" + _DIGITS],
    # two exponents that parse merge into one too long to print
    ["reduce", _MERGED],
    ["factorize", _MERGED],
    ["check-rv", "--format", "json", _MERGED],
    # digits outside ASCII, and bounds below 1 and past MAX_BOUND
    ["reduce", "e^\u0661\u0662"],
    ["classify", "e^-\u0663"],
    ["check-rv", "--bound", "0", "e"],
    ["check-rv", "--bound", "801", "e"],
    # normal forms past the g/h letter limit, before their substitution
    ["reduce", "g^1000000000"],
    ["classify", "g^100000000"],
    ["factorize", "h^-100000000"],
    # the running total crosses the limit on the second term
    ["reduce", "g^60000 h^-60000"],
)

_WITNESS = ('NotRightVeering (boundary C1) witness {"start": ["C1", 0], '
            '"end": ["%s", 0], "crossings": []}\n')
_EMPTY_FORM = '{"r": [0, 0, 0, 0], "blocks": []}\n'
# g^k stands for a b c d (f^-1 e^-1)^k
_G_AT_LIMIT = '{"r": [100000, 100000, 100000, 100000], "blocks": [%s]}\n' \
    % ", ".join(["[0, -1]"] + ["[-1, -1]"] * 99999 + ["[-1, 0]"])
ANSWERED = (
    # long powers of one twist, each answered from its closed form
    (["check-rv", "e^-16000"], _WITNESS % "C3"),
    (["check-rv", "a^-100000"], _WITNESS % "C2"),
    (["check-rv", "e^-1000000"], _WITNESS % "C3"),
    # a search whose long free-group seams the seam kernel cancels
    (["check-rv", "g^-1 h^-3 g h^2 g"], "NoWitnessUpToBound (bound 12)\n"),
    # empty and blank words, and the largest bound
    (["reduce", ""], _EMPTY_FORM),
    (["reduce", "   "], _EMPTY_FORM),
    # a normal form exactly at the g/h letter limit
    (["reduce", "g^100000"], _G_AT_LIMIT),
    (["check-rv", ""], "NoWitnessUpToBound (bound 12)\n"),
    (["check-rv", "--bound", "800", "a b c d e f"],
     "NoWitnessUpToBound (bound 800)\n"),
)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_limited(argv):
    """Run the command line ``argv`` in a limited child interpreter on
    this checkout's package: (exit code, stdout, stderr)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    proc = subprocess.run([sys.executable, "-m", "lanternbook.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          preexec_fn=_limit_child, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _row(i, argv):
    """A row's index and its command line cut to about 80 characters: a
    long word would fill the failure message with its digits."""
    line = " ".join(argv)
    return i, line if len(line) <= 80 else line[:77] + "..."


def test_hostile_command_lines_are_refused_within_the_limits():
    for i, argv in enumerate(REFUSED):
        code, out, err = run_limited(argv)
        row = _row(i, argv)
        assert code == 1, (row, code, err[-300:])
        assert out == "", (row, out[:300])
        assert "Traceback" not in err, (row, err[-300:])
        assert [line.startswith("error:") for line in err.splitlines()] \
            == [True], (row, err[-300:])


def _child_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def check_answered():
    """Run every answered row and check its answer: the rows with the
    CPU seconds each child took."""
    costs = []
    for i, (argv, expected) in enumerate(ANSWERED):
        before = _child_cpu()
        code, out, err = run_limited(argv)
        row = _row(i, argv)
        costs.append((row, _child_cpu() - before))
        assert (code, err) == (0, ""), (row, code, err[-300:])
        assert out == expected, (row, out[:300])
    return costs


def test_command_lines_are_answered_within_the_limits():
    check_answered()


if __name__ == "__main__":
    test_hostile_command_lines_are_refused_within_the_limits()
    costs = check_answered()
    print("resource corpus ok")
    for (i, line), seconds in costs:
        print("%6.2f s CPU  row %d: %s" % (seconds, i, line))
