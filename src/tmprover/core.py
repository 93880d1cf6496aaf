"""Ground-truth layer for the Thue-Morse word.

Everything in this module is computed by direct scanning of explicit
prefixes, with no automata involved: it is the independent oracle that the
compiled decision procedure is checked against.  The module also carries
the two OEIS-style integer sequences and the closed forms used by the
factor-count cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

MAX_PREFIX_LENGTH = 1 << 26

DEFAULT_WINDOW = 1 << 17
DEFAULT_MIN_OCCURRENCES = 8

_COMPLEMENT = str.maketrans("01", "10")
_TO_LABELS = str.maketrans("01", "AB")


class ClassificationError(Exception):
    """Observed label word matches no admissible intertwining pattern.

    Raised both for genuine ambiguity (possible only below 4 observations)
    and for a no-match; the admissible patterns are exhaustive, so a
    no-match is a hard failure, never coerced to a class silently.
    """


class ResourceLimitError(Exception):
    """A configured size cap was exceeded."""


def tm_bit(k: int) -> int:
    """k-th symbol of the Thue-Morse word: parity of popcount(k)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return bin(k).count("1") & 1


@dataclass(frozen=True)
class TmPrefix:
    """Explicit prefix of the Thue-Morse word, stored as a 0/1 string."""

    bits: str

    def factor(self, start: int, length: int) -> str:
        if start < 0 or length < 1 or start + length > len(self.bits):
            raise ValueError(
                f"factor [{start}, {start + length}) out of range for prefix "
                f"of length {len(self.bits)}"
            )
        return self.bits[start : start + length]


def generate_prefix(length: int, max_length: int = MAX_PREFIX_LENGTH) -> TmPrefix:
    """Thue-Morse prefix by repeated doubling (s -> s + complement(s))."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length > max_length:
        raise ResourceLimitError(f"prefix length {length} exceeds cap {max_length}")
    s = "0"
    while len(s) < length:
        s += s.translate(_COMPLEMENT)
    return TmPrefix(s[:length])


@functools.lru_cache(maxsize=4)
def _cached_prefix(length: int) -> TmPrefix:
    return generate_prefix(length)


@dataclass(frozen=True)
class FactorRef:
    """A factor of the Thue-Morse word given by one of its occurrences."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError("factor needs start >= 0 and length >= 1")


@dataclass(frozen=True)
class OccurrenceList:
    """Merged occurrences of a factor (label A) and its complement (label B).

    ``entries`` is position-sorted.  Overlapping occurrences are all present.
    """

    entries: tuple[tuple[int, str], ...]
    factor: FactorRef

    def labels(self) -> str:
        return "".join(lab for _, lab in self.entries)

    def positions(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.entries)


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


def scan_occurrences(prefix: TmPrefix, factor: FactorRef) -> OccurrenceList:
    """All occurrences of the factor (A) and its complement (B) in the prefix."""
    word = prefix.bits
    x = prefix.factor(factor.start, factor.length)
    xbar = x.translate(_COMPLEMENT)
    entries = []
    for target, label in ((x, "A"), (xbar, "B")):
        p = word.find(target)
        while p != -1:
            entries.append((p, label))
            p = word.find(target, p + 1)
    if x == xbar:  # impossible over a binary alphabet, kept as a guard
        raise ClassificationError("factor equals its own complement")
    entries.sort()
    return OccurrenceList(tuple(entries), factor)


def _tm_coded_labels(positions, zero_label: str) -> str:
    one_label = "B" if zero_label == "A" else "A"
    return "".join(zero_label if tm_bit(p) == 0 else one_label for p in positions)


def classify_labels(labels: str, positions, factor_length: int,
                    min_occurrences: int) -> PatternClass:
    """Classify an observed label word against the six admissible patterns."""
    if min_occurrences < 4:
        raise ValueError("min_occurrences must be at least 4")
    if len(labels) < min_occurrences:
        return PatternClass.INSUFFICIENT
    if factor_length == 1:
        if labels == _tm_coded_labels(positions, "A"):
            return PatternClass.TM_AS_A
        if labels == _tm_coded_labels(positions, "B"):
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


def classify_pattern(occ: OccurrenceList,
                     min_occurrences: int = DEFAULT_MIN_OCCURRENCES) -> PatternClass:
    return classify_labels(occ.labels(), occ.positions(), occ.factor.length,
                           min_occurrences)


def classify_factor(start: int, length: int, window: int = DEFAULT_WINDOW,
                    min_occurrences: int = DEFAULT_MIN_OCCURRENCES) -> PatternClass:
    """Brute-force intertwining class of the factor t[start .. start+length-1]."""
    prefix = _cached_prefix(window)
    occ = scan_occurrences(prefix, FactorRef(start, length))
    return classify_pattern(occ, min_occurrences)


def classify_all_factors(length: int, window: int = DEFAULT_WINDOW,
                         min_occurrences: int = DEFAULT_MIN_OCCURRENCES,
                         ) -> dict[str, PatternClass]:
    """Classes of every distinct length-n factor occurring in the window.

    Single batch pass: every window position starts one member of a
    complementary pair; the sweep files it under the pair's member that
    starts with 0.  That member occurs exactly where the word reads 0, so
    the pair's label word is the word itself at the pair's positions.
    Classifying a factor classifies its complement for free.
    """
    if length < 1:
        raise ValueError("factor length must be >= 1")
    word = _cached_prefix(window).bits
    if length > window:
        raise ValueError("factor longer than window")
    mask = (1 << length) - 1
    top = length - 1
    pairs: dict[int, list[int]] = {}
    cur = int("0" + word[:top], 2)
    for p in range(window - top):
        cur = ((cur << 1) | (word[p + top] == "1")) & mask
        pairs.setdefault(cur ^ mask if cur >> top else cur, []).append(p)
    out: dict[str, PatternClass] = {}
    for key, pos in pairs.items():
        labels = "".join([word[p] for p in pos]).translate(_TO_LABELS)
        got = classify_labels(labels, pos, length, min_occurrences)
        x = format(key, f"0{length}b")
        if "A" in labels:
            out[x] = got
        if "B" in labels:
            out[x.translate(_COMPLEMENT)] = COMPLEMENT_CLASS[got]
    return out


def count_by_class(length: int, window: int = DEFAULT_WINDOW,
                   min_occurrences: int = DEFAULT_MIN_OCCURRENCES,
                   ) -> dict[PatternClass, int]:
    """Number of distinct length-n factors per intertwining class."""
    counts: dict[PatternClass, int] = {}
    for cls in classify_all_factors(length, window, min_occurrences).values():
        counts[cls] = counts.get(cls, 0) + 1
    return counts


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


def f_closed(n: int) -> int:
    """Closed form for the alternating-class factor count, n >= 2.

    Unique k with 3*2^(k-2) < n <= 2^k + 1 gives 2^k; unique k with
    2^k + 1 < n <= 3*2^(k-1) gives 2n - 2^k - 2.  Exactly one (k, branch)
    pair applies for every valid n; anything else is an internal error.
    """
    if n < 2:
        raise ValueError("f_closed is defined for n >= 2")
    candidates = []
    for k in range(1, n.bit_length() + 2):
        if 3 * (1 << k) < 4 * n and n <= (1 << k) + 1:
            candidates.append(1 << k)
        if (1 << k) + 1 < n and 2 * n <= 3 * (1 << k):
            candidates.append(2 * n - (1 << k) - 2)
    if len(set(candidates)) != 1:
        raise AssertionError(f"branch selection failed for n={n}: {candidates}")
    return candidates[0]


def g_closed(n: int) -> int:
    """Closed form for the ABBA-class factor count, n >= 3.

    Unique k with 2^k + 1 < n <= 3*2^(k-1) + 1 gives 2^(k-1); unique k with
    3*2^(k-2) + 1 < n <= 2^k + 1 gives n - 2^(k-1) - 1.  The two half-open
    interval families tile n >= 3 disjointly.
    """
    if n < 3:
        raise ValueError("g_closed is defined for n >= 3")
    candidates = []
    for k in range(1, n.bit_length() + 2):
        if (1 << k) + 1 < n and 2 * n <= 3 * (1 << k) + 2:
            candidates.append(1 << (k - 1))
        if 3 * (1 << k) + 4 < 4 * n and n <= (1 << k) + 1:
            candidates.append(n - (1 << (k - 1)) - 1)
    if len(set(candidates)) != 1:
        raise AssertionError(f"branch selection failed for n={n}: {candidates}")
    return candidates[0]
