"""Tests for the command-line front end."""

import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmprover

from tmprover import automata as au
from tmprover import cli, core, linrep, logic

FIXTURES = importlib.resources.files("tmprover") / "fixtures"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def machine_section(captured: str) -> dict[str, str]:
    pairs = {}
    for line in captured.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


@pytest.fixture(scope="module")
def thm1_script():
    return str(FIXTURES / "paper_thm1.wal")


def test_prove_thm1_fixture(capsys, thm1_script):
    code = run_cli("prove", thm1_script,
                   "--expected", str(FIXTURES / "paper_thm1.expected"))
    out = capsys.readouterr().out
    assert code == 0
    pairs = machine_section(out)
    assert pairs["cmd.alloccur.verdict"] == "TRUE"
    assert pairs["cmd.checkeach.verdict"] == "TRUE"
    assert pairs["overall"] == "pass"


def test_prove_thm2_fixture(capsys):
    code = run_cli("prove", str(FIXTURES / "paper_thm2.wal"),
                   "--expected", str(FIXTURES / "paper_thm2.expected"))
    assert code == 0
    assert machine_section(capsys.readouterr().out)["cmd.checklen.verdict"] \
        == "TRUE"


def test_prove_counting_script(capsys):
    code = run_cli("prove", str(FIXTURES / "paper_count.wal"),
                   "--expected", str(FIXTURES / "paper_count.expected"))
    assert code == 0
    pairs = machine_section(capsys.readouterr().out)
    assert pairs["cmd.mab.verdict"] == "n/a"
    assert pairs["cmd.mab.kind"] == "eval_count"


def test_prove_mismatch_exit_code(tmp_path, capsys, thm1_script):
    expected = tmp_path / "wrong.expected"
    expected.write_text("alloccur=FALSE\n")
    code = run_cli("prove", thm1_script, "--expected", str(expected))
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out
    assert machine_section(out)["overall"] == "fail"


def test_prove_script_error_exit_code(tmp_path, capsys):
    script = tmp_path / "broken.wal"
    script.write_text('eval q "$missing(x)":\n')
    expected = tmp_path / "broken.expected"
    expected.write_text("q=TRUE\n")
    assert run_cli("prove", str(script), "--expected", str(expected)) == 2
    capsys.readouterr()


def test_prove_state_cap_is_one_error_line(capsys, thm1_script):
    code = run_cli("--state-cap", 20, "prove", thm1_script,
                   "--expected", str(FIXTURES / "paper_thm1.expected"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "exceeds cap 20" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("site, names", [
    ("complement", "complement of a machine"),
    ("project", "projection of 'x'"),
    ("f_closed", "f_closed: branch selection failed for n=2"),
    ("g_closed", "g_closed: branch selection failed for n=3"),
])
def test_internal_check_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                              site, names):
    """Each internal check, forced to fail, ends the run with exit 1 and
    one ``internal error:`` line naming it, stdout empty."""
    script, expected = tmp_path / "site.wal", tmp_path / "site.expected"
    expected.write_text("")
    if site in ("complement", "project"):
        monkeypatch.setattr(au, "is_zero_closed", lambda a: False)
        script.write_text('def d "~(x<y)":\n' if site == "complement"
                          else 'def d "Ex x<y":\n')
        argv = ("prove", script, "--expected", expected)
    else:
        monkeypatch.setattr(core, f"_{site[0]}_branches", lambda n: ())
        argv = ("--window", 256, "count", 4)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ")
    assert names in lines[0]
    assert "Traceback" not in captured.err


def test_internal_checks_hold_under_optimize():
    """``python -O`` drops asserts, not the internal checks."""
    code = ("import sys; from tmprover import automata as au, cli; "
            "au.is_zero_closed = lambda a: False; "
            "sys.exit(cli.main(['export', 'abpat']))")
    src = str(Path(tmprover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ")
    assert "Traceback" not in proc.stderr


def test_prove_machine_output_deterministic(tmp_path, thm1_script, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("--out", out1, "prove", thm1_script,
            "--expected", str(FIXTURES / "paper_thm1.expected"))
    run_cli("--out", out2, "prove", thm1_script,
            "--expected", str(FIXTURES / "paper_thm1.expected"))
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("start,length,expect", [
    (2, 3, "ABBA"), (5, 2, "BA"), (1, 2, "AB"), (3, 3, "BAAB")])
def test_classify_known_factors(capsys, start, length, expect):
    code = run_cli("classify", start, length)
    out = capsys.readouterr().out
    assert code == 0
    pairs = machine_section(out)
    assert pairs["oracle.class"] == expect
    assert pairs["automaton.class"] == expect
    assert pairs["overall"] == "pass"


def test_classify_single_symbol(capsys):
    code = run_cli("classify", 0, 1)
    out = capsys.readouterr().out
    assert code == 0
    pairs = machine_section(out)
    assert pairs["oracle.class"] == "TM_AS_A"
    assert pairs["automaton.class"] == "unsupported"


def test_classify_insufficient_window(capsys):
    code = run_cli("--window", 64, "--min-occ", 8, "classify", 0, 20)
    captured = capsys.readouterr()
    assert code == 1
    assert machine_section(captured.out)["oracle.class"] == "INSUFFICIENT"


def test_classify_bad_range(capsys):
    assert run_cli("--window", 16, "classify", 15, 4) == 2
    capsys.readouterr()


@pytest.mark.parametrize("start, length", [(-1, 3), (0, 0)],
                         ids=["negative-start", "zero-length"])
def test_classify_bad_factor_exits_2(capsys, start, length):
    assert run_cli("classify", start, length) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: factor needs start >= 0 and length >= 1\n"


def test_count_reproduces_table(capsys):
    code = run_cli("--window", 1 << 15, "count", 15)
    out = capsys.readouterr().out
    assert code == 0
    pairs = machine_section(out)
    f_table = [0, 2, 2, 4, 4, 6, 8, 8, 8, 10, 12, 14, 16, 16, 16]
    g_table = [0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6]
    for n in range(1, 16):
        assert pairs[f"row.{n}.f.brute"] == str(f_table[n - 1])
        assert pairs[f"row.{n}.g.brute"] == str(g_table[n - 1])
        assert pairs[f"row.{n}.agree"] == "yes"
    assert pairs["overall"] == "pass"
    assert pairs["row.10.f.closed"] == "10"
    assert pairs["row.2.f.closed"] == "2"


def test_classify_state_cap_is_usage_error(capsys):
    assert run_cli("--state-cap", 5, "classify", 2, 3) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_resource_error_prints_no_report(capsys):
    assert run_cli("--state-cap", 5, "classify", 2, 3) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_selftest_window_error_names_the_flag(capsys):
    assert run_cli("--window", 3, "selftest") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--window 3" in captured.err
    assert "(6)" in captured.err


def test_count_applies_min_occ(capsys):
    # A length-3 factor and its complement occur about 1365 times in 4096
    # positions, fewer than 2000: the oracle classifies none of them, so
    # the brute-force route reads 0 and disagrees with the others.
    # Each disagreeing row says why on stderr.
    code = run_cli("--window", 4096, "--min-occ", 2000, "count", 3)
    captured = capsys.readouterr()
    assert code == 1
    assert machine_section(captured.out)["row.3.f.brute"] == "0"
    assert captured.err.splitlines() == [
        f"row {n}: {k} factors occur, with their complements, fewer than "
        f"--min-occ 2000 times in --window 4096; the brute-force route "
        f"counts none of them" for n, k in ((2, 2), (3, 6))]


def test_min_occ_below_four_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--min-occ", 3, "selftest")
    assert exc.value.code == 2
    assert "--min-occ" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--window", 2, "count", 3),
    ("--window", 0, "count", 3),
    ("--window", -5, "count", 3),
    ("--window", 3, "selftest"),
    ("--state-cap", 5, "selftest"),
    ("--state-cap", 0, "classify", 0, 1),
    ("--state-cap", -1, "export", "abpat"),
], ids=["window-2-count", "window-0-count", "window-negative-count",
        "window-3-selftest", "state-cap-selftest", "state-cap-0-classify",
        "state-cap-negative-export"])
def test_resource_and_window_errors_exit_2(capsys, argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [("count", 3), ("classify", 0, 3)],
                         ids=["count", "classify"])
def test_window_below_one_rejected(capsys, command):
    assert run_cli("--window", -5, *command) == 2
    err = capsys.readouterr().err
    assert "--window" in err and "-5" in err


@pytest.mark.parametrize("value, command", [
    (0, ("classify", 0, 1)), (-1, ("export", "abpat"))],
    ids=["zero-classify", "negative-export"])
def test_state_cap_below_one_rejected(capsys, value, command):
    assert run_cli("--state-cap", value, *command) == 2
    err = capsys.readouterr().err
    assert f"error: --state-cap must be at least 1, got {value}" in err


@pytest.mark.parametrize("argv", [
    ("--window", 2, "count", 3),
    ("--state-cap", 5, "selftest"),
    ("--state-cap", 0, "classify", 0, 1),
    ("--state-cap", -1, "export", "abpat"),
], ids=["window-2-count", "state-cap-selftest", "state-cap-0-classify",
        "state-cap-negative-export"])
def test_usage_errors_print_no_report(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command", [
    ("prove", str(FIXTURES / "paper_thm1.wal"),
     "--expected", str(FIXTURES / "paper_thm1.expected")),
    ("classify", 2, 3), ("count", 3), ("export", "abpat"),
], ids=["prove", "classify", "count", "export"])
def test_unwritable_out_prints_no_report(tmp_path, capsys, command):
    assert run_cli("--out", tmp_path, *command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_selftest_rejects_out(tmp_path, capsys):
    out = tmp_path / "selftest.out"
    assert run_cli("--out", out, "selftest") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: selftest writes no --out block\n"
    assert not out.exists()


@pytest.mark.parametrize("source, message", [
    ('eval deep "Ex x = ' + "+".join(["1"] * 3000) + '":',
     "nests too deeply"),
    ('eval deep "' + "(" * 3000 + "0=0" + ")" * 3000 + '":',
     "nests too deeply"),
    ('eval deep "' + " & ".join(["0=0"] * 3000) + '":', "nests too deeply"),
    ('check deep "0=0":', "expected 'def' or 'eval'"),
], ids=["deep-sum", "deep-parentheses", "deep-conjunction", "bad-keyword"])
def test_script_failures_exit_2(tmp_path, capsys, source, message):
    script = tmp_path / "script.wal"
    script.write_text(source + "\n")
    expected = tmp_path / "script.expected"
    expected.write_text("deep=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(line 1" in err
    assert "Traceback" not in err
    assert message in err


def test_zero_argument_call_decides(tmp_path, capsys):
    script = tmp_path / "closed.wal"
    script.write_text('def t "Ex x<1":\neval q "$t()":\n')
    expected = tmp_path / "closed.expected"
    expected.write_text("q=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 0
    assert "cmd.q.verdict=TRUE" in capsys.readouterr().out


@pytest.mark.parametrize("source, message", [
    ('def t "Ex x<1":\neval q "$t(x)":', "'t' takes 0 arguments (), got 1"),
    ('def p "x<y":\neval q "$p()":', "'p' takes 2 arguments (x, y), got 0"),
], ids=["closed-given-one", "binary-given-none"])
def test_call_arity_mismatch_exits_2(tmp_path, capsys, source, message):
    script = tmp_path / "arity.wal"
    script.write_text(source + "\n")
    expected = tmp_path / "arity.expected"
    expected.write_text("q=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: eval q (line 2): {message}\n"


@pytest.mark.parametrize("source, message", [
    ('eval d n "n<=i":', "infinitely many 'i' for some 'n'"),
    ('eval d z "x<y":', "counting variable 'z' is not free"),
    ('eval d n "n>0":', "counting needs exactly two free variables"),
], ids=["noncountable", "parameter-not-free", "one-variable"])
def test_counting_failures_exit_2(tmp_path, capsys, source, message):
    script = tmp_path / "count.wal"
    script.write_text(source + "\n")
    expected = tmp_path / "count.expected"
    expected.write_text("d=n/a\n")
    assert run_cli("prove", script, "--expected", expected) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eval_count d (line 1): ")
    assert captured.err.count("\n") == 1 and message in captured.err


def test_prove_rejects_reused_command_name(tmp_path, capsys):
    # Verdicts and expectations are keyed by name: with the name reused,
    # the check would read one command and the report show the other.
    script = tmp_path / "reused.wal"
    script.write_text('eval a "0=0":\neval a "0=1":\n')
    expected = tmp_path / "reused.expected"
    expected.write_text("a=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'a' is already used (line 2, column 6)" in captured.err


@pytest.mark.parametrize("text, bad, col", [("x=\u00b2", "\u00b2", 11),
                                             ("\u00e9=1", "\u00e9", 9),
                                             ("x=\u0663", "\u0663", 11)],
                         ids=["superscript-two", "e-acute", "arabic-three"])
def test_non_ascii_formula_exits_2_with_position(tmp_path, capsys, text, bad,
                                                 col):
    script = tmp_path / "ascii.wal"
    script.write_text(f'eval ok "0=0":\neval a "{text}":\n', encoding="utf-8")
    expected = tmp_path / "ascii.expected"
    expected.write_text("ok=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unexpected character {bad!r} (line 2, column {col})" \
        in captured.err


def test_overlong_numeral_exits_2_with_position(tmp_path, capsys,
                                                int_digit_limit):
    script = tmp_path / "numeral.wal"
    script.write_text('eval ok "0=0":\neval a "x=' + "9" * 5000 + '":\n')
    expected = tmp_path / "numeral.expected"
    expected.write_text("ok=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: numeral of 5000 digits is too long "
                            "(line 2, column 11)\n")


def test_prove_finds_a_def_named_in_the_expectations(tmp_path, capsys):
    script = tmp_path / "def.wal"
    script.write_text('def p "x<y":\neval a "0=0":\n')
    expected = tmp_path / "def.expected"
    expected.write_text("p=n/a\na=TRUE\n")
    assert run_cli("prove", script, "--expected", expected) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert machine_section(out)["expected.p"] == "n/a"


def _prove_one_eval(tmp_path, expected_text):
    script = tmp_path / "one.wal"
    script.write_text('eval a "0=0":\n')
    expected = tmp_path / "one.expected"
    expected.write_text(expected_text)
    return run_cli("prove", script, "--expected", expected)


def test_expectation_line_is_stripped(tmp_path, capsys):
    assert _prove_one_eval(tmp_path, "a = TRUE\n") == 0
    assert machine_section(capsys.readouterr().out)["expected.a"] == "TRUE"


@pytest.mark.parametrize("text", ["=TRUE\n", "a=TRUE\na=FALSE\n"],
                         ids=["empty-name", "repeated-name"])
def test_bad_expectation_lines_exit_2(tmp_path, capsys, text):
    assert _prove_one_eval(tmp_path, text) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: bad expectation line" in captured.err


def test_count_rejects_bad_bounds(capsys):
    assert run_cli("count", 1) == 2
    assert run_cli("count", 99999) == 2
    capsys.readouterr()


def test_count_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("--window", 1 << 14, "--out", out1, "count", 10)
    run_cli("--window", 1 << 14, "--out", out2, "count", 10)
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("pattern", cli.PATTERN_NAMES)
def test_export_wellformed(capsys, pattern):
    code = run_cli("export", pattern)
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph {")
    assert out.rstrip().endswith("}")
    assert "doublecircle" in out


def test_export_state_cap_is_usage_error(capsys):
    assert run_cli("--state-cap", 5, "export", "abpat") == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_passes(capsys):
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out


def test_selftest_catches_corrupted_sequence_machine(
        capsys, corrupt_sequence_machine):
    corrupt_sequence_machine()
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code != 0
    assert "FAIL" in out


def test_selftest_algebra_fails_on_a_broken_emptiness_test(capsys,
                                                          monkeypatch):
    """The algebra suite checks the compiled pattern machines: with an
    emptiness test that never says empty, it fails and names a machine,
    while the suites that do not read emptiness still pass."""
    monkeypatch.setattr(au, "is_empty", lambda a: False)
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.algebra: FAIL" in out
    assert "  - algebra feq: a & ~a nonempty" in out
    assert "selftest.classification: pass" in out
    assert "selftest.counting: pass" in out


def test_selftest_counting_fails_on_a_broken_route(capsys, monkeypatch,
                                                  request):
    """The counting suite compares every route of rows 1..32: with the
    recurrence off by one, it fails and names a row, while the suites that
    do not count still pass."""
    a006165 = core.a006165
    # Its recursion calls the patched name, so its cache keeps wrong values.
    request.addfinalizer(a006165.cache_clear)
    monkeypatch.setattr(core, "a006165", lambda n: a006165(n) + 1)
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.counting: FAIL" in out
    assert "  - row 2: f routes disagree [brute=2,closed=2,linrep=2," \
        "recurrence=4]" in out
    for suite in ("sequence", "algebra", "classification"):
        assert f"selftest.{suite}: pass" in out


def test_selftest_counting_checks_the_shipped_fixtures(capsys, monkeypatch):
    """The counting suite compares the extracted ABBA-class representation
    with the shipped ``count_abba.lr``: doubled, the fixture fails it."""
    reference = linrep.reference_count_abba
    monkeypatch.setattr(linrep, "reference_count_abba",
                        lambda: linrep.scale(reference(), 2))
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.counting: FAIL" in out
    assert "  - mabba differs from the shipped count_abba.lr" in out
    assert "count_ab.lr" not in out
    for suite in ("sequence", "algebra", "classification"):
        assert f"selftest.{suite}: pass" in out


def test_selftest_decides_the_rank1_identity_exactly(capsys, monkeypatch):
    """The AB-class defect is decided equal to -2[n=0]: a false rank-1
    series that also reads -2 at n=0 (and -50 at n=3) fails the suite."""
    monkeypatch.setattr(cli, "_AB_DEFECT", linrep.LinearRepresentation(
        (1,), (((1,),), ((5,),)), (-2,)))
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.counting: FAIL" in out
    assert "  - counting identity defect is not -2[n=0] of rank 1" in out


def test_selftest_sequence_checks_one_term_inequality(capsys, monkeypatch):
    """A compiler that reads T[x]!=c as T[x]=c fails the sequence suite."""
    atom = logic.Compiler._atom

    def negation_dropped(self, f, defs):
        if isinstance(f, logic.SeqCompare):
            f = logic.SeqCompare(f.left, "=", f.right)
        return atom(self, f, defs)

    monkeypatch.setattr(logic.Compiler, "_atom", negation_dropped)
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.sequence: FAIL" in out
    assert "  - T[k]!=1 disagrees with bit parity" in out


def test_selftest_algebra_checks_free_conjuncts(capsys, monkeypatch):
    """An elimination that keeps only its first conjunct fails the algebra
    suite on Ex (x<y & z=1)."""
    eliminate = logic.Compiler._eliminate
    monkeypatch.setattr(logic.Compiler, "_eliminate",
                        lambda self, var, ms: eliminate(self, var, ms)[:1])
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.algebra: FAIL" in out
    assert "  - Ex (x<y & z=1) is not y>=1 & z=1" in out


def test_selftest_counting_refutes_a_false_identity(capsys, monkeypatch):
    """An equality test that checks only the first span row calls mabba
    equal to twice A060973, and fails the counting suite."""

    def first_row_only(a, b):
        diff = linrep.subtract(a, b)
        return not any(sum(x * y for x, y in zip(vec, diff.w))
                       for _, vec in linrep._span(diff)[:1])

    monkeypatch.setattr(linrep, "equal_reps", first_row_only)
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.counting: FAIL" in out
    assert "  - mabba equals twice A060973" in out


def test_selftest_stops_classifying_at_the_first_error(capsys, monkeypatch):
    """The classification suite records the length whose classification
    failed and checks no longer length: the pass ends there."""
    classify_labels = core.classify_labels

    def failing_at_4(labels, factor_length, min_occurrences):
        if factor_length == 4 and min_occurrences == 5:
            raise core.ClassificationError("injected")
        return classify_labels(labels, factor_length, min_occurrences)

    monkeypatch.setattr(core, "classify_labels", failing_at_4)
    code = run_cli("--min-occ", 5, "selftest")
    out = capsys.readouterr().out
    assert code == 1
    assert "selftest.classification: FAIL" in out
    assert "  - n=4: injected" in out
    assert "n=5" not in out and "n=6" not in out
    assert "selftest.counting: pass" in out


def test_selftest_small_window_fails(capsys):
    code = run_cli("--window", 64, "selftest")
    out = capsys.readouterr().out
    assert code != 0
    assert "INSUFFICIENT" in out
