"""The exit-code contract of ``cli.main``, on generated command lines and
on mutated proof scripts.

Exit 2 (usage, script or resource error) leaves stdout empty and prints
one ``error:`` line on stderr.  Exit 0 or 1 reports: the ``key=value``
block with its ``overall`` line, on stdout or in the ``--out`` file, or
``export``'s DOT text.  No exception escapes ``main``; argparse's own usage
errors end in ``SystemExit(2)`` with empty stdout.
"""

import contextlib
import importlib.resources
import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmprover import cli

FIXTURES = importlib.resources.files("tmprover") / "fixtures"
THM1 = str(FIXTURES / "paper_thm1.wal")
THM1_EXPECTED = str(FIXTURES / "paper_thm1.expected")

# Stand-ins, replaced per example: a directory, a file in it, and a path
# under a directory that does not exist.
DIR, FILE, MISSING = "<dir>", "<file>", "<missing>"

# Flag and argument values: legal ones, drawn more often, then 0, -1, past
# the caps (2^26 + 1 for the window, 4097 for count's n_max) and
# non-numeric.  A window past its cap is refused before any prefix is
# built, so no window larger than 2^14 is ever scanned.
NUMBERS = st.sampled_from(["2", "3", "5", "2", "3", "0", "-1", "4097", "x"])
WINDOWS = st.sampled_from(["16384", "16384", "64", "2", "0", "-1",
                           str((1 << 26) + 1), "x"])
CAPS = st.sampled_from(["3000", "3000", "5", "0", "-1", "x"])
OCCS = st.sampled_from(["8", "8", "2000", "4", "3", "0", "-1", "x"])
OUTS = st.sampled_from([DIR, FILE, MISSING])

COMMANDS = st.one_of(
    st.tuples(st.just("prove"), st.sampled_from([THM1, DIR, MISSING]),
              st.just("--expected"), st.sampled_from([THM1_EXPECTED, DIR])),
    st.tuples(st.just("classify"), NUMBERS, NUMBERS),
    st.tuples(st.just("count"), NUMBERS),
    st.tuples(st.just("export"), st.sampled_from(cli.PATTERN_NAMES + ("x",))),
    st.tuples(st.just("selftest")))


@st.composite
def argvs(draw):
    """Global flags, each present or not (``--window`` always, so that no
    run scans the default window), then one command."""
    argv = ["--window", draw(WINDOWS)]
    for flag, values in (("--state-cap", CAPS), ("--min-occ", OCCS),
                         ("--out", OUTS)):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv + list(draw(COMMANDS))


def assert_contract(argv):
    """Run ``main`` on ``argv`` and check the contract, in a fresh
    directory that the stand-ins name."""
    with tempfile.TemporaryDirectory() as tmp:
        stand_ins = {DIR: tmp, FILE: str(Path(tmp) / "out.txt"),
                     MISSING: str(Path(tmp) / "missing" / "x")}
        argv = [stand_ins.get(a, a) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                assert stdout.getvalue() == "", argv
                assert "error:" in stderr.getvalue(), argv
                return
        out, err = stdout.getvalue(), stderr.getvalue()
        if code == 2:
            assert out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), \
                (argv, err)
            return
        assert code in (0, 1), argv
        out_path = Path(argv[argv.index("--out") + 1]) \
            if "--out" in argv else None
        report = out + (out_path.read_text() if out_path else "")
        assert (re.search(r"^overall(: |=)(pass|fail)$", report, re.M)
                or "export" in argv and "digraph {" in report), argv


@given(argvs())
@example(["--window", "16384", "--out", DIR, "classify", "0", "1"])
@example(["--window", "2", "count", "3"])
@settings(max_examples=30, deadline=None)
def test_generated_command_lines_keep_the_exit_code_contract(argv):
    assert_contract(argv)


# The script's tokens: names and numerals, operators, single characters and
# the white space between them, so that joining them gives the script back.
SCRIPT_TOKENS = re.findall(r"\s+|[a-z0-9_]+|<=>|=>|<=|>=|!=|.",
                           (FIXTURES / "paper_thm1.wal").read_text())
# Swaps stay within a kind, names or symbols, so that more mutants parse.
KINDS = [[i for i, t in enumerate(SCRIPT_TOKENS) if t[0].isalnum() == alnum
          and not t.isspace()] for alnum in (True, False)]


@st.composite
def mutated_scripts(draw):
    """``paper_thm1.wal`` with one to three tokens deleted, duplicated or
    swapped with another of their kind."""
    tokens = list(SCRIPT_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        i, j = draw(st.sampled_from(kind)), draw(st.sampled_from(kind))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "swap"]))
        if edit == "delete":
            tokens[i] = ""
        elif edit == "duplicate":
            tokens[i] += " " + tokens[i]
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


@given(mutated_scripts())
@settings(max_examples=20, deadline=None)
def test_mutated_proof_scripts_keep_the_exit_code_contract(script):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.wal"
        path.write_text(script)
        assert_contract(["--state-cap", "3000", "prove", str(path),
                         "--expected", THM1_EXPECTED])
