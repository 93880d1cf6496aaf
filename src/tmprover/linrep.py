"""Counting layer: linear representations over exact rationals.

A linear representation (v, gamma, w) values a digit word d1..dl as
v . gamma(d1) ... gamma(dl) . w.  Counting representations extracted from a
two-track automaton value the digit word of the parameter n with the number
of accepted partner values i.  All arithmetic is exact (ints/Fractions);
rank decisions tolerate no rounding.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from fractions import Fraction

from tmprover.automata import (
    MultiTrackAutomaton, _saturate, is_zero_closed, minimize,
)


class NoncountableError(Exception):
    """Some parameter value admits infinitely many counted values."""


@dataclass(frozen=True)
class LinearRepresentation:
    """Row vector, two square digit matrices, column vector.

    ``msd_first`` records which end of the digit expansion is fed first
    when valuing an integer.  Integral entries are held as ``int`` (equal,
    with equal hashes, to the ``Fraction`` they replace); ``rows`` holds,
    per digit, each matrix row's nonzero ``(column, coefficient)`` pairs.
    """

    v: tuple
    gamma: tuple  # (matrix for digit 0, matrix for digit 1)
    w: tuple
    msd_first: bool = False
    rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gamma = tuple(tuple(tuple(_exact(x) for x in row) for row in mat)
                      for mat in self.gamma)
        object.__setattr__(self, "v", tuple(_exact(x) for x in self.v))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "w", tuple(_exact(x) for x in self.w))
        object.__setattr__(self, "rows", tuple(
            tuple(tuple((j, c) for j, c in enumerate(row) if c)
                  for row in mat) for mat in gamma))

    @property
    def dim(self) -> int:
        return len(self.v)

    def word_value(self, digits):
        x = self.v
        for d in digits:
            x = _mat_row(x, self.rows[d])
        return sum(xi * wi for xi, wi in zip(x, self.w))


def _exact(x):
    """An integral ``Fraction`` as ``int``; any other entry unchanged."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _mat_row(x, rows):
    """Row vector times matrix, the matrix given by its sparse ``rows``."""
    out = [0] * len(x)
    for xi, row in zip(x, rows):
        if xi:
            for j, c in row:
                out[j] += xi * c
    return out


def digits_of(n: int, msd_first: bool) -> list[int]:
    """Canonical binary digits of n (no redundant zeros; empty for 0)."""
    if n < 0:
        raise ValueError("representation arguments are nonnegative")
    out = []
    while n:
        out.append(n & 1)
        n >>= 1
    if msd_first:
        out.reverse()
    return out


def evaluate(rep: LinearRepresentation, n: int):
    """Value at the integer n, digits fed per the representation's order."""
    return rep.word_value(digits_of(n, rep.msd_first))


@dataclass(frozen=True)
class CountingQuery:
    automaton: MultiTrackAutomaton
    counted: str
    parameter: str


def counting_query(machine: MultiTrackAutomaton, counted: str,
                   parameter: str) -> CountingQuery:
    if machine.arity != 2:
        raise ValueError("counting needs a two-track automaton")
    if {counted, parameter} != set(machine.tracks):
        raise ValueError(
            f"tracks {machine.tracks} do not match ({counted}, {parameter})")
    if not is_zero_closed(machine):
        # The gamma(0) limit in extract_counting counts values, not
        # encodings, only when padding zeros keep acceptance.
        raise ValueError("counting needs a zero-closed automaton")
    machine = minimize(machine)  # so every state is reachable
    return CountingQuery(machine, counted, parameter)


def _live_states(a: MultiTrackAutomaton):
    """Sorted states that can reach acceptance (all are reachable)."""
    return sorted(_saturate(a.accepting, a.transitions))


def extract_counting(query: CountingQuery) -> LinearRepresentation:
    """Counting representation of a two-track automaton, LSD convention.

    gamma(d) sums the transition matrices over the counted track's digit;
    v marks the initial state; w starts as the accepting indicator and is
    then replaced by its gamma(0) limit, which exists exactly when every
    parameter admits finitely many counted values; NoncountableError
    otherwise.  With that limit absorbed, valuing the canonical LSD digits
    of n yields the exact count.
    """
    a = query.automaton
    ci, pi = a.track_index(query.counted), a.track_index(query.parameter)
    live = _live_states(a)
    if not live or a.initial not in live:
        return LinearRepresentation((), ((), ()), (), msd_first=False)
    index = {q: i for i, q in enumerate(live)}
    dim = len(live)
    gamma = []
    for d in (0, 1):
        mat = [[0] * dim for _ in range(dim)]
        for q in live:
            for b in (0, 1):
                t = a.transitions[q][(b << ci) | (d << pi)]
                if t in index:
                    mat[index[q]][index[t]] += 1
        gamma.append(tuple(tuple(row) for row in mat))
    v = tuple(1 if q == a.initial else 0 for q in live)
    w = [1 if q in a.accepting else 0 for q in live]
    limit = 2 * dim + 8
    for _ in range(limit):
        nxt = [sum(gamma[0][i][j] * w[j] for j in range(dim))
               for i in range(dim)]
        if nxt == w:
            break
        w = nxt
    else:
        raise NoncountableError("gamma(0) limit of w failed to stabilize")
    return LinearRepresentation(v, tuple(gamma), tuple(w), msd_first=False)


# ---------------------------------------------------------------------------
# Algebra


def scale(rep: LinearRepresentation, factor) -> LinearRepresentation:
    factor = Fraction(factor)
    return LinearRepresentation(tuple(factor * x for x in rep.v), rep.gamma,
                                rep.w, rep.msd_first)


def subtract(a: LinearRepresentation,
             b: LinearRepresentation) -> LinearRepresentation:
    """Direct sum with the second output vector negated; computes a - b."""
    if a.msd_first != b.msd_first:
        raise ValueError("operands must share a digit-order convention")
    da, db = a.dim, b.dim
    gamma = []
    for d in (0, 1):
        mat = [[0] * (da + db) for _ in range(da + db)]
        for i in range(da):
            for j in range(da):
                mat[i][j] = a.gamma[d][i][j]
        for i in range(db):
            for j in range(db):
                mat[da + i][da + j] = b.gamma[d][i][j]
        gamma.append(tuple(tuple(row) for row in mat))
    return LinearRepresentation(a.v + b.v, tuple(gamma),
                                a.w + tuple(-x for x in b.w), a.msd_first)


def reverse_rep(rep: LinearRepresentation) -> LinearRepresentation:
    """Representation of the reversed words: swap v/w, transpose gammas."""
    dim = rep.dim
    gamma = tuple(tuple(tuple(rep.gamma[d][j][i] for j in range(dim))
                        for i in range(dim)) for d in (0, 1))
    return LinearRepresentation(rep.w, gamma, rep.v,
                                msd_first=not rep.msd_first)


def _reduce_row(echelon, row):
    """Reduce ``row`` against reduced rows [(pivot, vector)]; exact."""
    row = list(row)
    for pivot, vec in echelon:
        if row[pivot]:
            c = row[pivot]
            for j in range(len(row)):
                row[j] -= c * vec[j]
    return row


def _insert_row(echelon, row):
    pivot = next((j for j, x in enumerate(row) if x), None)
    if pivot is None:
        return False
    inv = Fraction(1, 1) / row[pivot]
    vec = [x * inv for x in row]
    for p, other in echelon:
        if other[pivot]:
            c = other[pivot]
            for j in range(len(other)):
                other[j] -= c * vec[j]
    echelon.append((pivot, vec))
    return True


def _forward_reduce(rep: LinearRepresentation) -> LinearRepresentation:
    """Restrict to the row space spanned by v.gamma(word); value-preserving."""
    dim = rep.dim
    if dim == 0:
        return rep
    echelon = []
    queue = [rep.v]
    while queue:
        x = queue.pop()
        if _insert_row(echelon, _reduce_row(echelon, x)):
            queue.append(_mat_row(x, rep.rows[0]))
            queue.append(_mat_row(x, rep.rows[1]))
    if not echelon:
        return LinearRepresentation((), ((), ()), (), rep.msd_first)
    # The echelon rows span the same space and stay fully reduced with unit
    # pivots, so a vector's coordinates are its entries at the pivots.
    basis = [vec for _, vec in echelon]

    def coords(target):
        if any(_reduce_row(echelon, target)):
            raise AssertionError("closure failure: vector outside span")
        return tuple(target[p] for p, _ in echelon)

    new_gamma = []
    for d in (0, 1):
        new_gamma.append(tuple(coords(_mat_row(b, rep.rows[d]))
                               for b in basis))
    new_v = coords(rep.v)
    new_w = tuple(sum(b[i] * rep.w[i] for i in range(dim)) for b in basis)
    return LinearRepresentation(new_v, tuple(new_gamma), new_w,
                                rep.msd_first)


def minimize_rep(rep: LinearRepresentation) -> LinearRepresentation:
    """Unique minimal dimension via forward then backward reduction."""
    forward = _forward_reduce(rep)
    backward = reverse_rep(_forward_reduce(reverse_rep(forward)))
    return backward


def equal_reps(a: LinearRepresentation, b: LinearRepresentation) -> bool:
    """Equality as digit-word series (hence as integer functions).

    Mixed conventions are aligned by exact reversal first; equality is then
    the rank-0 test on the difference, which matches value comparison on
    all words up to length dim(a) + dim(b).
    """
    if a.msd_first != b.msd_first:
        b = reverse_rep(b)
    return minimize_rep(subtract(a, b)).dim == 0


# ---------------------------------------------------------------------------
# Fixture files


def dump_representation(rep: LinearRepresentation) -> str:
    lines = [f"order {'msd' if rep.msd_first else 'lsd'}", f"dim {rep.dim}"]

    def fmt(xs):
        return " ".join(map(str, xs))

    lines.append(fmt(rep.v))
    for d in (0, 1):
        for row in rep.gamma[d]:
            lines.append(fmt(row))
    lines.append(fmt(rep.w))
    return "\n".join(lines) + "\n"


def load_representation(text: str) -> LinearRepresentation:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "order" or tokens[2] != "dim":
        raise ValueError("expected 'order <msd|lsd>' then 'dim <n>'")
    if tokens[1] not in ("msd", "lsd"):
        raise ValueError(f"order must be 'msd' or 'lsd', got {tokens[1]!r}")
    msd = tokens[1] == "msd"
    dim = int(tokens[3])
    if dim < 0:
        raise ValueError(f"dim must be nonnegative, got {dim}")
    try:
        numbers = [Fraction(t) for t in tokens[4:]]
    except ZeroDivisionError as exc:
        raise ValueError(f"entry with a zero denominator: {exc}") from None
    need = dim + 2 * dim * dim + dim
    if len(numbers) != need:
        raise ValueError(f"expected {need} entries, found {len(numbers)}")
    v = tuple(numbers[:dim])
    pos = dim
    gamma = []
    for _ in (0, 1):
        mat = tuple(tuple(numbers[pos + r * dim + c] for c in range(dim))
                    for r in range(dim))
        gamma.append(mat)
        pos += dim * dim
    w = tuple(numbers[pos:pos + dim])
    return LinearRepresentation(v, tuple(gamma), w, msd_first=msd)


def _load_fixture(name: str) -> LinearRepresentation:
    text = (importlib.resources.files("tmprover") / "fixtures" / name
            ).read_text()
    return load_representation(text)


def from_recurrence_a006165() -> LinearRepresentation:
    """4-dimensional representation of A006165 from its bisection recurrences."""
    return _load_fixture("seq_a006165.lr")


def from_recurrence_a060973() -> LinearRepresentation:
    """4-dimensional representation of A060973 from its bisection recurrences."""
    return _load_fixture("seq_a060973.lr")


def reference_count_ab() -> LinearRepresentation:
    """Published counting representation for the AB-class factor counts."""
    return _load_fixture("count_ab.lr")


def reference_count_abba() -> LinearRepresentation:
    """Published counting representation for the ABBA-class factor counts."""
    return _load_fixture("count_abba.lr")
