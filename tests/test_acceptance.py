"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints its own summary line (visible with
``-s`` or in the captured output).
"""

import importlib.resources
import random
import time
from collections import Counter

import pytest

from dense_rep import digits_of
from random_machines import random_machine
from tmprover import automata as au
from tmprover import cli, core, linrep

FIXTURES = importlib.resources.files("tmprover") / "fixtures"

F_TABLE = [0, 2, 2, 4, 4, 6, 8, 8, 8, 10, 12, 14, 16, 16, 16]
G_TABLE = [0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6]

PATTERN_FOR_CLASS = {
    core.PatternClass.AB: "abpat",
    core.PatternClass.BA: "bapat",
    core.PatternClass.ABBA: "abbapat",
    core.PatternClass.BAAB: "baabpat",
}


def report(line):
    print(f"[acceptance] {line}")


@pytest.fixture(scope="module")
def pattern_machines():
    return cli._pattern_machines(au.DEFAULT_STATE_CAP)


@pytest.fixture(scope="module")
def extracted_reps():
    return cli._counting_reps(au.DEFAULT_STATE_CAP)


def test_criterion_1_proof_replay(capsys):
    start = time.monotonic()
    code = cli.main(["prove", str(FIXTURES / "paper_thm1.wal"),
                     "--expected", str(FIXTURES / "paper_thm1.expected")])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "cmd.alloccur.verdict=TRUE" in out
    assert "cmd.checkeach.verdict=TRUE" in out
    assert elapsed < 300.0
    report(f"criterion 1 (alloccur, checkeach TRUE in {elapsed:.1f}s): PASS")


def test_criterion_2_length_coverage_proof(capsys):
    start = time.monotonic()
    code = cli.main(["prove", str(FIXTURES / "paper_thm2.wal"),
                     "--expected", str(FIXTURES / "paper_thm2.expected")])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "cmd.checklen.verdict=TRUE" in out
    assert elapsed < 300.0
    report(f"criterion 2 (checklen TRUE in {elapsed:.1f}s): PASS")


def test_criterion_3_table_reproduction(capsys):
    start = time.monotonic()
    code = cli.main(["count", "64"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    pairs = dict(line.split("=", 1) for line in out.splitlines()
                 if "=" in line and " " not in line.split("=", 1)[0])
    for n in range(1, 16):
        for route in ("brute", "linrep"):
            assert pairs[f"row.{n}.f.{route}"] == str(F_TABLE[n - 1]), (n, route)
            assert pairs[f"row.{n}.g.{route}"] == str(G_TABLE[n - 1]), (n, route)
    for n in range(1, 65):
        assert pairs[f"row.{n}.agree"] == "yes", n
    assert pairs["overall"] == "pass"
    assert elapsed < 120.0
    report(f"criterion 3 (table n<=64, four routes, {elapsed:.1f}s): PASS")


def test_criterion_4_identity_proofs(extracted_reps):
    two_a006165 = linrep.reverse_rep(
        linrep.scale(linrep.from_recurrence_a006165(), 2))
    diff_ab = linrep.minimize_rep(
        linrep.subtract(extracted_reps["mab"], two_a006165))
    assert diff_ab.dim == 1
    assert linrep.evaluate(diff_ab, 0) == -2
    assert all(linrep.evaluate(diff_ab, n) == 0 for n in range(1, 513))
    diff_abba = linrep.minimize_rep(linrep.subtract(
        extracted_reps["mabba"],
        linrep.reverse_rep(linrep.from_recurrence_a060973())))
    assert diff_abba.dim == 0
    report("criterion 4 (rank-1 defect -2[n=0]; rank-0 identity): PASS")


def test_criterion_5_fixture_matrices(extracted_reps):
    r2 = linrep.from_recurrence_a006165()
    r4 = linrep.from_recurrence_a060973()
    for n in range(513):
        want2 = 1 if n == 0 else core.a006165(n)
        assert linrep.evaluate(r2, n) == want2, n
        assert linrep.evaluate(r4, n) == core.a060973(n), n
    assert linrep.equal_reps(extracted_reps["mab"], linrep.reference_count_ab())
    assert linrep.equal_reps(extracted_reps["mabba"],
                             linrep.reference_count_abba())
    report("criterion 5 (published matrices match, n<=512 + equal_reps): PASS")


def test_criterion_6_oracle_equivalence(pattern_machines):
    window = core.DEFAULT_WINDOW
    word = core.generate_prefix(window)
    disagreements = 0
    checked = 0
    for n, classes in enumerate(core.classify_lengths(20, window), 1):
        if n < 2:
            continue
        for i in range(4097):
            want = classes[word[i:i + n]]
            hits = [name for name in cli.PATTERN_NAMES
                    if au.accepts(pattern_machines[name], [i, n])]
            checked += 1
            if len(hits) != 1 or PATTERN_FOR_CLASS[want] != hits[0]:
                disagreements += 1
    assert disagreements == 0
    report(f"criterion 6 (oracle vs automata, {checked} cases, "
           f"0 disagreements): PASS")


def classify_factor(start, length, window=core.DEFAULT_WINDOW):
    """Oracle class of t[start .. start+length-1] in a window-long prefix."""
    return core.classify_pattern(core.scan_occurrences(
        core.generate_prefix(window), start, length), length)


def test_criterion_7_intertwining_ground_truth():
    assert classify_factor(1, 2) == core.PatternClass.AB
    assert classify_factor(5, 2) == core.PatternClass.BA
    assert classify_factor(2, 3) == core.PatternClass.ABBA
    assert classify_factor(3, 3) == core.PatternClass.BAAB
    lengths = core.classify_lengths(64, window=1 << 15)
    for n, classes in enumerate(lengths, 1):
        counts = Counter(classes.values())
        if n == 2:
            assert set(counts) == {core.PatternClass.AB, core.PatternClass.BA}
        elif n >= 3:
            for cls in (core.PatternClass.AB, core.PatternClass.BA,
                        core.PatternClass.ABBA, core.PatternClass.BAAB):
                assert counts[cls] > 0, (n, cls)
    report("criterion 7 (anchors; n=2 two classes; n>=3 all four): PASS")


def _exists_witness(machine, x, x_pos, y_pos):
    """Reference check for 'some y makes (x, y) accepted', by plain BFS:
    y's leading digits beyond x's are read against zeros of x, then both
    are read MSD first."""
    states = {machine.initial}
    frontier = states
    while frontier:
        frontier = {machine.transitions[q][b << y_pos]
                    for q in frontier for b in (0, 1)} - states
        states |= frontier
    for digit in digits_of(x, msd_first=True):
        states = {machine.transitions[q][(digit << x_pos) | (b << y_pos)]
                  for q in states for b in (0, 1)}
    return bool(states & machine.accepting)


def test_criterion_8_algebra_suite(extracted_reps):
    rng = random.Random(987654321)
    for trial in range(500):
        a = random_machine(rng, ("x", "y"))
        b = random_machine(rng, ("x", "y"))
        # De Morgan
        lhs = au.complement(au.product(a, b, "and"))
        rhs = au.product(au.complement(a), au.complement(b), "or")
        assert au.equivalent(lhs, rhs), trial
        # double complement
        assert au.equivalent(au.complement(au.complement(a)), a), trial
        # projection soundness against an independent reference
        proj = au.project(a, "y")
        x_pos, y_pos = a.track_index("x"), a.track_index("y")
        for x in (0, 1, 2, 3, 5, 8, 13, 21):
            assert au.accepts(proj, [x]) == _exists_witness(a, x, x_pos, y_pos), \
                (trial, x)
        # minimization canonicity
        same = au.equivalent(a, b)
        identical = (a.transitions == b.transitions
                     and a.accepting == b.accepting)
        assert same == identical, trial
    for rep in extracted_reps.values():
        image = tuple(sum(rep.v[i] * rep.gamma[0][i][j]
                          for i in range(rep.dim)) for j in range(rep.dim))
        assert image == rep.v
    report("criterion 8 (500 randomized machines; stabilization fixed "
           "points): PASS")
