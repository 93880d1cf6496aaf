"""Tests for the brute-force Thue-Morse layer."""

import functools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tmprover import core
from tmprover.core import (
    ClassificationError,
    PatternClass,
    ResourceLimitError,
    a006165,
    a060973,
    classify_lengths,
    classify_pattern,
    f_closed,
    g_closed,
    generate_prefix,
    scan_occurrences,
    tm_bit,
)

# First fifteen factor counts per class, frozen from the batch scan.
F_TABLE = [0, 2, 2, 4, 4, 6, 8, 8, 8, 10, 12, 14, 16, 16, 16]
G_TABLE = [0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6]

# Frozen from the bisection recurrences (and consistent with the tables).
A006165_PREFIX = [1, 1, 2, 2, 3, 4, 4, 4, 5, 6, 7, 8, 8, 8]  # n = 1..14
A060973_PREFIX = [0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6]  # n = 0..14


def test_tm_bit_known_values():
    assert tm_bit(0) == 0
    assert tm_bit(3) == 0
    assert tm_bit(2**40) == 1


def test_tm_bit_rejects_negative():
    with pytest.raises(ValueError):
        tm_bit(-1)


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_tm_bit_recursion(k):
    assert tm_bit(k) == tm_bit(k // 2) ^ (k % 2)


def test_generate_prefix_known():
    assert generate_prefix(8) == "01101001"
    assert generate_prefix(0) == ""
    assert generate_prefix(16) == "0110100110010110"


@given(st.integers(min_value=0, max_value=512))
@settings(max_examples=60)
def test_generate_prefix_matches_tm_bit(n):
    bits = generate_prefix(n)
    assert len(bits) == n
    assert all(int(bits[k]) == tm_bit(k) for k in range(n))


def test_generate_prefix_cap():
    with pytest.raises(ResourceLimitError):
        generate_prefix(core.MAX_PREFIX_LENGTH + 1)


def test_scan_occurrences_00_window16():
    occ = scan_occurrences(generate_prefix(16), 5, 2)
    # 00 occurs at 5 and 9; 11 at 1, 7 and 13: labels strictly alternate.
    assert occ == ((1, "B"), (5, "A"), (7, "B"), (9, "A"), (13, "B"))


def test_scan_occurrences_trivial():
    occ = scan_occurrences(generate_prefix(1), 0, 1)
    assert occ == ((0, "A"),)


def test_scan_occurrences_01101_window64():
    # Occurrences of 01101 and 10010 strictly alternate (class AB); the
    # first few merged positions are fixed by direct computation.
    occ = scan_occurrences(generate_prefix(64), 0, 5)
    assert occ[:6] == (
        (0, "A"), (8, "B"), (12, "A"), (16, "B"), (24, "A"), (32, "B"))
    labels = "".join(lab for _, lab in occ)
    assert labels == ("AB" * len(labels))[: len(labels)]


def test_scan_occurrences_reports_overlaps():
    # 010 at 3 overlaps 101 at 2 and at 4 is absent; occurrence scanning
    # must keep every overlapping hit.
    occ = scan_occurrences(generate_prefix(16), 2, 3)
    positions = [pos for pos, _ in occ]
    assert 2 in positions and 3 in positions


def test_scan_occurrences_out_of_range():
    with pytest.raises(ValueError):
        scan_occurrences(generate_prefix(8), 6, 4)


@pytest.mark.parametrize("start, length, message", [
    (-1, 3, "factor needs start >= 0 and length >= 1"),
    (0, 0, "factor needs start >= 0 and length >= 1"),
    (6, 4, r"factor \[6, 10\) out of range for prefix of length 8"),
], ids=["negative-start", "zero-length", "past-window-end"])
def test_scan_occurrences_rejects_bad_factors(start, length, message):
    with pytest.raises(ValueError, match=message):
        scan_occurrences(generate_prefix(8), start, length)


def classify_factor(start, length, window=core.DEFAULT_WINDOW):
    """Oracle class of t[start .. start+length-1] in a window-long prefix."""
    return classify_pattern(
        scan_occurrences(generate_prefix(window), start, length), length)


def test_classify_anchor_factors():
    assert classify_factor(1, 2) == PatternClass.AB
    assert classify_factor(5, 2) == PatternClass.BA
    assert classify_factor(2, 3) == PatternClass.ABBA
    assert classify_factor(3, 3) == PatternClass.BAAB
    assert classify_factor(0, 1) == PatternClass.TM_AS_A
    assert classify_factor(1, 1) == PatternClass.TM_AS_B


def test_classify_insufficient_window():
    occ = scan_occurrences(generate_prefix(8), 0, 4)
    assert classify_pattern(occ, 4) == PatternClass.INSUFFICIENT


def test_classify_rejects_alien_labels():
    with pytest.raises(ClassificationError):
        core.classify_labels("AABB" * 4, 3)


def test_length1_never_periodic():
    for start in (0, 1):
        cls = classify_factor(start, 1, window=1 << 12)
        assert cls in (PatternClass.TM_AS_A, PatternClass.TM_AS_B)


@pytest.fixture(scope="module")
def classes_to_20():
    """Classes for n = 1..20 at window 2^14, from one pass."""
    return list(classify_lengths(20, window=1 << 14))


@pytest.mark.parametrize("n", range(2, 21))
def test_small_lengths_classify_everywhere(classes_to_20, n):
    classes = classes_to_20[n - 1]
    assert classes, "window must contain factors"
    for cls in classes.values():
        assert cls in (PatternClass.AB, PatternClass.BA,
                       PatternClass.ABBA, PatternClass.BAAB)


@given(st.integers(1, 24), st.sampled_from([16, 64, 1024, 4096]))
@settings(max_examples=200, deadline=None)
def test_sweep_matches_per_factor_scan(length, window):
    """The refinement pass and the per-factor scan are two routes to the
    same class: at every n of the pass, every factor in the window gets
    the same one from both."""
    assume(length <= window)
    word = generate_prefix(window)
    lengths = classify_lengths(length, window)
    for n in range(1, length + 1):
        try:
            classes = next(lengths)
        except ClassificationError:
            assume(False)
        assert classes == _scanned_classes(word, n), n


@functools.lru_cache(maxsize=None)
def _scanned_classes(word, n):
    """Class of every length-n factor of the word, one scan per factor;
    cached, since the drawn examples repeat a few hundred arguments."""
    firsts = {}
    for i in range(len(word) - n + 1):
        firsts.setdefault(word[i:i + n], i)
    return {text: classify_pattern(scan_occurrences(word, i, n), n)
            for text, i in firsts.items()}


def test_pass_to_full_window_matches_scan():
    """Windows 1..40: up to n = window, where the last n has one
    position; small windows leave factors with too few occurrences
    INSUFFICIENT."""
    insufficient = 0
    for window in range(1, 41):
        word = generate_prefix(window)
        lengths = list(classify_lengths(window, window))
        assert len(lengths) == window
        for n, classes in enumerate(lengths, 1):
            assert classes == _scanned_classes(word, n), (window, n)
            insufficient += list(classes.values()).count(
                PatternClass.INSUFFICIENT)
        assert lengths[-1] == {word: PatternClass.INSUFFICIENT}
    assert insufficient > 0


@pytest.mark.parametrize("n_max, window, message", [
    (17, 16, "factor longer than window"),
    (0, 16, "factor length must be >= 1"),
    (-1, 16, "factor length must be >= 1"),
])
def test_pass_rejects_bad_lengths(n_max, window, message):
    with pytest.raises(ValueError, match=message):
        classify_lengths(n_max, window)


def test_pass_stopped_early_leaves_fresh_pass_unchanged():
    first = classify_lengths(30, window=1024)
    head = [next(first) for _ in range(10)]
    fresh = list(classify_lengths(30, window=1024))
    assert head == fresh[:10]
    assert fresh[10] == _scanned_classes(generate_prefix(1024), 11)


def _counts_by_length(n_max, window):
    """Class counts for n = 1..n_max, from one pass."""
    for classes in classify_lengths(n_max, window):
        yield Counter(classes.values())


def test_counts_match_reference_table():
    for n, counts in enumerate(_counts_by_length(15, 1 << 15), 1):
        assert counts[PatternClass.AB] == F_TABLE[n - 1], n
        assert counts[PatternClass.ABBA] == G_TABLE[n - 1], n


def test_class_symmetry_up_to_64():
    for n, counts in enumerate(_counts_by_length(64, 1 << 15), 1):
        if n >= 2:
            assert counts[PatternClass.AB] == counts[PatternClass.BA], n
            assert counts[PatternClass.ABBA] == counts[PatternClass.BAAB], n


def test_a006165_values():
    assert a006165(1) == 1
    assert a006165(2) == 1
    assert a006165(7) == 4
    assert [a006165(n) for n in range(1, 15)] == A006165_PREFIX
    with pytest.raises(ValueError):
        a006165(0)


def test_a060973_values():
    assert a060973(0) == 0
    assert a060973(2) == 1
    assert a060973(4) == 2
    assert [a060973(n) for n in range(15)] == A060973_PREFIX


def test_closed_forms_match_table():
    assert f_closed(7) == 8
    assert f_closed(12) == 14
    assert g_closed(9) == 4
    assert [f_closed(n) for n in range(2, 16)] == F_TABLE[1:]
    assert [g_closed(n) for n in range(3, 16)] == G_TABLE[2:]
    with pytest.raises(ValueError):
        f_closed(1)
    with pytest.raises(ValueError):
        g_closed(2)


def test_four_routes_agree_up_to_64():
    for n, counts in enumerate(_counts_by_length(64, 1 << 15), 1):
        if n < 2:
            continue
        f = counts[PatternClass.AB]
        assert f == f_closed(n) == 2 * a006165(n - 1), n
        g = counts[PatternClass.ABBA]
        assert g == a060973(n - 1), n
        if n >= 3:
            assert g == g_closed(n), n


def test_closed_form_unique_branch_everywhere():
    # Branch selection must never be ambiguous; the closed forms raise
    # internally otherwise.
    for n in range(2, 4097):
        f_closed(n)
    for n in range(3, 4097):
        g_closed(n)
