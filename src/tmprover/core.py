"""Ground-truth layer for the Thue-Morse word.

Everything in this module is computed by direct scanning of explicit
prefixes, with no automata involved: it is the independent oracle that the
compiled decision procedure is checked against.  The module also carries
the two OEIS-style integer sequences and the closed forms used by the
factor-count cross-check.
"""

from __future__ import annotations

import functools
import importlib.resources
from collections.abc import Iterator
from enum import Enum
from itertools import compress
from operator import itemgetter

MAX_PREFIX_LENGTH = 1 << 26

DEFAULT_WINDOW = 1 << 17
# Labels observed before a factor is classified.  The four periodic
# patterns already differ within 4 labels; 8 is two full ABBA periods.
DEFAULT_MIN_OCCURRENCES = 8

_COMPLEMENT = str.maketrans("01", "10")
_TO_LABELS = str.maketrans("01", "AB")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class ClassificationError(Exception):
    """Observed label word matches no admissible intertwining pattern.

    With DEFAULT_MIN_OCCURRENCES labels no word fits two patterns, so this
    is always a no-match; the admissible patterns are exhaustive, so it is
    a hard failure, never coerced to a class silently.
    """


class ResourceLimitError(Exception):
    """A configured size cap was exceeded."""


class InternalError(Exception):
    """An internal consistency check failed: a fault of the program, not
    of its input.  The checks raise it explicitly, so they hold under
    ``python -O`` too."""


def fixture_text(name: str) -> str:
    """Text of a file shipped in the package's ``fixtures`` directory."""
    return (importlib.resources.files("tmprover") / "fixtures" / name
            ).read_text()


def tm_bit(k: int) -> int:
    """k-th symbol of the Thue-Morse word: parity of popcount(k)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return bin(k).count("1") & 1


def generate_prefix(length: int) -> str:
    """Thue-Morse 0/1 prefix by repeated doubling (s -> s + complement(s))."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length > MAX_PREFIX_LENGTH:
        raise ResourceLimitError(
            f"prefix length {length} exceeds cap {MAX_PREFIX_LENGTH}")
    s = "0"
    while len(s) < length:
        s += s.translate(_COMPLEMENT)
    return s[:length]


class PatternClass(Enum):
    TM_AS_A = "TM_AS_A"
    TM_AS_B = "TM_AS_B"
    AB = "AB"
    BA = "BA"
    ABBA = "ABBA"
    BAAB = "BAAB"
    INSUFFICIENT = "INSUFFICIENT"


# Complementing the factor swaps the roles of A and B.
COMPLEMENT_CLASS = {
    PatternClass.TM_AS_A: PatternClass.TM_AS_B,
    PatternClass.TM_AS_B: PatternClass.TM_AS_A,
    PatternClass.AB: PatternClass.BA,
    PatternClass.BA: PatternClass.AB,
    PatternClass.ABBA: PatternClass.BAAB,
    PatternClass.BAAB: PatternClass.ABBA,
    PatternClass.INSUFFICIENT: PatternClass.INSUFFICIENT,
}

PERIODIC_PATTERNS = ("AB", "BA", "ABBA", "BAAB")


def scan_occurrences(word: str, start: int,
                     length: int) -> tuple[tuple[int, str], ...]:
    """Every occurrence of the factor word[start:start+length] (label A)
    and of its complement (label B), overlaps included, as position-sorted
    (position, label) pairs."""
    if start < 0 or length < 1:
        raise ValueError("factor needs start >= 0 and length >= 1")
    if start + length > len(word):
        raise ValueError(
            f"factor [{start}, {start + length}) out of range for prefix "
            f"of length {len(word)}"
        )
    x = word[start : start + length]
    entries = []
    for target, label in ((x, "A"), (x.translate(_COMPLEMENT), "B")):
        p = word.find(target)
        while p != -1:
            entries.append((p, label))
            p = word.find(target, p + 1)
    return tuple(sorted(entries))


def classify_labels(labels: str, factor_length: int) -> PatternClass:
    """Classify an observed label word against the six admissible patterns;
    a length-1 factor's labels are read at every position 0, 1, 2, ..."""
    if len(labels) < DEFAULT_MIN_OCCURRENCES:
        return PatternClass.INSUFFICIENT
    if factor_length == 1:
        word = generate_prefix(len(labels))
        if labels == word.translate(_TO_LABELS):
            return PatternClass.TM_AS_A
        if labels == word.translate(_COMPLEMENT).translate(_TO_LABELS):
            return PatternClass.TM_AS_B
        raise ClassificationError(
            "length-1 factor labels match neither Thue-Morse coding"
        )
    matches = [
        pat for pat in PERIODIC_PATTERNS
        if labels == (pat * (len(labels) // len(pat) + 1))[: len(labels)]
    ]
    if len(matches) > 1:
        raise ClassificationError(f"AMBIGUOUS: labels fit {matches}")
    if not matches:
        raise ClassificationError(
            f"label word {labels[:16]}... fits no admissible pattern"
        )
    return PatternClass[matches[0]]


def classify_pattern(entries, length: int) -> PatternClass:
    """Class of a length-``length`` factor from its ``scan_occurrences``."""
    return classify_labels("".join(lab for _, lab in entries), length)


def classify_lengths(n_max: int, window: int = DEFAULT_WINDOW,
                     ) -> Iterator[dict[str, PatternClass]]:
    """Classes of every distinct factor in the window, length by length.

    Yields, for n = 1..n_max in turn, the dict from each length-n factor
    to its class.  Every window position starts one member of a
    complementary pair; the pass files it under the pair's member that
    starts with 0.  That member occurs exactly where the word reads 0, so
    the pair's label word is the word itself at the pair's positions, and
    classifying a factor classifies its complement for free.  Argument
    errors raise at the call, classification errors at the length that
    has them.
    """
    if n_max < 1:
        raise ValueError("factor length must be >= 1")
    word = generate_prefix(window)
    if n_max > window:
        raise ValueError("factor longer than window")
    return _refine(word, n_max)


def _refine(word: str, n_max: int):
    """One refinement pass behind ``classify_lengths``.

    A group is [key, positions, labels, class]: the pair's 0-led member,
    its sorted positions and its label word.  From length n to n + 1 the
    last position, window - n, can no longer start a factor and drops
    out; then each group splits by its positions' next relative bit,
    word[p+n] != word[p].  A group that does not split keeps its
    positions, labels and class; only changed groups are classified
    again.  That is exact: for n >= 2 a class is a function of the label
    word alone, and the one length-1 group loses the last position.
    """
    window = len(word)
    groups = [["0", list(range(window)), word.translate(_TO_LABELS), None]]
    for n in range(1, n_max + 1):
        if n > 1:
            width = window - n + 1  # positions that start a length-n factor
            for g in groups:
                if g[1][-1] == width:
                    g[1].pop()
                    g[2], g[3] = g[2][:-1], None
                    if not g[1]:
                        groups.remove(g)
                    break
            bits = format(int(word[n - 1:], 2) ^ int(word[:width], 2),
                          f"0{width}b").encode().translate(_BIT_VALUES)
            groups = _split(groups, bits)
        out: dict[str, PatternClass] = {}
        for g in groups:
            key, pos, labels, cls = g
            if cls is None:
                cls = g[3] = classify_labels(labels, n)
            if "A" in labels:
                out[key] = cls
            if "B" in labels:
                out[key.translate(_COMPLEMENT)] = COMPLEMENT_CLASS[cls]
        yield out


def _split(groups, bits: bytes):
    """Each group's children under one more relative bit (0 or 1 per
    position in ``bits``); a new group's class is None."""
    out = []
    for key, pos, labels, cls in groups:
        if len(pos) == 1:
            out.append([key + "01"[bits[pos[0]]], pos, labels, cls])
            continue
        sel = itemgetter(*pos)(bits)
        ones = sum(sel)
        if ones == 0 or ones == len(pos):
            out.append([key + ("1" if ones else "0"), pos, labels, cls])
            continue
        zeros = [not b for b in sel]
        out.append([key + "0", list(compress(pos, zeros)),
                    "".join(compress(labels, zeros)), None])
        out.append([key + "1", list(compress(pos, sel)),
                    "".join(compress(labels, sel)), None])
    return out


@functools.lru_cache(maxsize=None)
def a006165(n: int) -> int:
    """OEIS A006165 via its bisection recurrences, base a(1) = 1."""
    if n < 1:
        raise ValueError("a006165 is defined for n >= 1")
    if n == 1:
        return 1
    if n % 2 == 0:
        m = n // 2
        return 2 * a006165(m) - (1 if m == 1 else 0)
    m = (n - 1) // 2
    return a006165(m + 1) + a006165(m) - (1 if m == 0 else 0)


@functools.lru_cache(maxsize=None)
def a060973(n: int) -> int:
    """OEIS A060973 via its bisection recurrences, bases a(0) = a(1) = 0."""
    if n < 0:
        raise ValueError("a060973 is defined for n >= 0")
    if n <= 1:
        return 0
    if n % 2 == 0:
        m = n // 2
        return 2 * a060973(m) + (1 if m == 1 else 0)
    m = (n - 1) // 2
    return a060973(m + 1) + a060973(m)


def _one_branch(name: str, n: int, values) -> int:
    """The value of the one closed-form branch that applies to ``n``; none,
    or two that disagree, is a fault of the closed form."""
    values = list(values)
    if len(set(values)) != 1:
        raise InternalError(
            f"{name}: branch selection failed for n={n}: {values}")
    return values[0]


def _f_branches(n: int):
    for k in range(1, n.bit_length() + 2):
        if 3 * (1 << k) < 4 * n and n <= (1 << k) + 1:
            yield 1 << k
        if (1 << k) + 1 < n and 2 * n <= 3 * (1 << k):
            yield 2 * n - (1 << k) - 2


def f_closed(n: int) -> int:
    """Closed form for the alternating-class factor count, n >= 2.

    Unique k with 3*2^(k-2) < n <= 2^k + 1 gives 2^k; unique k with
    2^k + 1 < n <= 3*2^(k-1) gives 2n - 2^k - 2.  Exactly one (k, branch)
    pair applies for every valid n; anything else is an internal error.
    """
    if n < 2:
        raise ValueError("f_closed is defined for n >= 2")
    return _one_branch("f_closed", n, _f_branches(n))


def _g_branches(n: int):
    for k in range(1, n.bit_length() + 2):
        if (1 << k) + 1 < n and 2 * n <= 3 * (1 << k) + 2:
            yield 1 << (k - 1)
        if 3 * (1 << k) + 4 < 4 * n and n <= (1 << k) + 1:
            yield n - (1 << (k - 1)) - 1


def g_closed(n: int) -> int:
    """Closed form for the ABBA-class factor count, n >= 3.

    Unique k with 2^k + 1 < n <= 3*2^(k-1) + 1 gives 2^(k-1); unique k with
    3*2^(k-2) + 1 < n <= 2^k + 1 gives n - 2^(k-1) - 1.  The two half-open
    interval families tile n >= 3 disjointly.
    """
    if n < 3:
        raise ValueError("g_closed is defined for n >= 3")
    return _one_branch("g_closed", n, _g_branches(n))
