"""Counting layer: linear representations over exact rationals.

A linear representation (v, gamma, w) values a digit word d1..dl as
v . gamma(d1) ... gamma(dl) . w.  Counting representations extracted from a
two-track automaton read the digits of the parameter n in the automaton's
order, most significant first, and value them with the number of accepted
partner values i.  All arithmetic is exact (ints/Fractions); rank decisions
tolerate no rounding.

Words are fed CHUNK digits at a time through a table on each
representation: v . gamma(chunk) for the first chunk, the sparse rows of
gamma(chunk) for later ones, keyed by (digits as an int, length) and each
built from the entry one digit shorter.  Each kind holds at most
2**(CHUNK + 1) entries; no value keyed by n is cached.  Spans are reduced
fraction-free, over primitive integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from tmprover import automata as au
from tmprover import core

CHUNK = 8  # digits per table entry


class NoncountableError(Exception):
    """Some parameter value admits infinitely many counted values."""


@dataclass(frozen=True)
class LinearRepresentation:
    """Row vector, two square digit matrices, column vector.

    ``msd_first`` records which end of the digit expansion is fed first
    when valuing an integer: the most significant, as automata read,
    unless ``reverse_rep`` made the representation.  Integral entries are
    held as ``int`` (equal, with equal hashes, to the ``Fraction`` they
    replace); ``rows`` holds, per digit, each matrix row's nonzero
    ``(column, coefficient)`` pairs.
    ``chunks`` is the chunk table, (first-chunk vectors, later-chunk rows),
    filled as words are valued; it takes no part in equality or ``repr``.
    """

    v: tuple
    gamma: tuple  # (matrix for digit 0, matrix for digit 1)
    w: tuple
    msd_first: bool = True
    rows: tuple = field(init=False, compare=False, repr=False)
    chunks: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gamma = tuple(tuple(tuple(_exact(x) for x in row) for row in mat)
                      for mat in self.gamma)
        object.__setattr__(self, "v", tuple(_exact(x) for x in self.v))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "w", tuple(_exact(x) for x in self.w))
        object.__setattr__(self, "rows", tuple(
            tuple(_sparse(row) for row in mat) for mat in gamma))
        object.__setattr__(self, "chunks", ({}, {}))

    @property
    def dim(self) -> int:
        return len(self.v)

    def _chunk(self, kind, bits, length):
        """The table entry of a chunk: v . gamma(chunk) for kind 0, the
        sparse rows of gamma(chunk) for kind 1.  It is built from the entry
        of the chunk without its last digit, by one product."""
        table = self.chunks[kind]
        entry = table.get((bits, length))
        if entry is None:
            if not length:  # the empty chunk: v, or the identity's rows
                entry = (tuple(((i, 1),) for i in range(self.dim)) if kind
                         else self.v)
            else:
                shorter = self._chunk(kind, bits >> 1, length - 1)
                d = bits & 1
                if kind:
                    entry = tuple(_sparse(_mat_row(_dense(row, self.dim),
                                                   self.rows[d]))
                                  for row in shorter)
                else:
                    entry = _mat_row(shorter, self.rows[d])
            table[bits, length] = entry
        return entry


def _exact(x):
    """An integral ``Fraction`` as ``int``; any other entry unchanged."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _sparse(x):
    """A row's nonzero ``(column, coefficient)`` pairs."""
    return tuple((j, c) for j, c in enumerate(x) if c)


def _dense(pairs, dim):
    """The row of length ``dim`` with the given nonzero entries."""
    x = [0] * dim
    for j, c in pairs:
        x[j] = c
    return x


def _mat_row(x, rows):
    """Row vector times matrix, the matrix given by its sparse ``rows``."""
    out = [0] * len(x)
    for xi, row in zip(x, rows):
        if xi:
            for j, c in row:
                out[j] += xi * c
    return out


def evaluate(rep: LinearRepresentation, n: int):
    """Value at the integer n: its canonical binary digits (none for 0),
    fed most significant first, CHUNK-digit groups at a time."""
    if n < 0:
        raise ValueError("representation arguments are nonnegative")
    if not rep.msd_first:
        return evaluate(reverse_rep(rep), n)
    chunks = []
    mask = (1 << CHUNK) - 1
    while n > mask:
        chunks.append((n & mask, CHUNK))
        n >>= CHUNK
    chunks.append((n, n.bit_length()))
    chunks.reverse()
    # The first chunk fed is read as a row vector, each later one as a matrix.
    x = rep._chunk(0, *chunks[0])
    for bits, length in chunks[1:]:
        x = _mat_row(x, rep._chunk(1, bits, length))
    return sum(xi * wi for xi, wi in zip(x, rep.w))


@dataclass(frozen=True)
class CountingQuery:
    automaton: au.MultiTrackAutomaton
    counted: str
    parameter: str


def counting_query(machine: au.MultiTrackAutomaton, counted: str,
                   parameter: str) -> CountingQuery:
    """The query counting ``counted`` per value of ``parameter``: the
    machine's tracks must be exactly these two variables."""
    if parameter not in machine.tracks:
        raise ValueError(f"counting variable {parameter!r} is not free in the "
                         f"formula (free: {machine.tracks})")
    if machine.arity != 2:
        raise ValueError("counting needs exactly two free variables, got "
                         f"{machine.tracks}")
    if {counted, parameter} != set(machine.tracks):
        raise ValueError(f"counted variable {counted!r} is not the other free "
                         f"variable (free: {machine.tracks})")
    machine = au.minimize(machine)  # so every state is reachable
    if not au.is_zero_closed(machine):
        # The gamma(0) limit in extract_counting counts values, not
        # encodings, only when leading zeros keep acceptance.
        raise ValueError("counting needs a zero-closed automaton")
    return CountingQuery(machine, counted, parameter)


def _live_states(a: au.MultiTrackAutomaton):
    """Sorted states that can reach acceptance (all are reachable): a
    worklist over the reversed edges, which reads each edge once."""
    sources = [[] for _ in range(a.num_states)]
    for q, row in enumerate(a.transitions):
        for t in set(row):
            sources[t].append(q)
    live = set(a.accepting)
    stack = list(live)
    while stack:
        for q in sources[stack.pop()]:
            if q not in live:
                live.add(q)
                stack.append(q)
    return sorted(live)


def extract_counting(query: CountingQuery) -> LinearRepresentation:
    """Counting representation of a two-track automaton, read MSD first.

    gamma(d)[q][t] counts the counted digits on which q moves to t while
    the parameter reads d, v marks the initial state and w the accepting
    states.  v is then replaced by its gamma(0) limit, which adds the
    counted values longer than the parameter (read over its leading zeros)
    and exists exactly when every parameter admits finitely many counted
    values; NoncountableError otherwise.  With that limit absorbed, valuing
    the canonical digits of n yields the exact count.
    """
    a = query.automaton
    ci, pi = a.track_index(query.counted), a.track_index(query.parameter)
    live = _live_states(a)
    if a.initial not in live:
        return LinearRepresentation((), ((), ()), ())
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
    v = [1 if q == a.initial else 0 for q in live]
    w = tuple(1 if q in a.accepting else 0 for q in live)
    zero_rows = [_sparse(row) for row in gamma[0]]
    for _ in range(2 * dim + 8):
        nxt = _mat_row(v, zero_rows)
        if nxt == v:
            break
        v = nxt
    else:
        raise NoncountableError(
            f"infinitely many {query.counted!r} for some {query.parameter!r}: "
            "the gamma(0) limit of v does not settle")
    return LinearRepresentation(tuple(v), tuple(gamma), w)


# ---------------------------------------------------------------------------
# Algebra


def scale(rep: LinearRepresentation, factor) -> LinearRepresentation:
    factor = Fraction(factor)
    return LinearRepresentation(tuple(factor * x for x in rep.v), rep.gamma,
                                rep.w, rep.msd_first)


def subtract(a: LinearRepresentation,
             b: LinearRepresentation) -> LinearRepresentation:
    """Direct sum with the second output vector negated; computes a - b in
    the digit order of ``a``, reversing ``b`` exactly if it reads the other
    way."""
    if a.msd_first != b.msd_first:
        b = reverse_rep(b)
    pad_a, pad_b = (0,) * a.dim, (0,) * b.dim
    gamma = tuple(tuple(row + pad_b for row in a.gamma[d])
                  + tuple(pad_a + row for row in b.gamma[d]) for d in (0, 1))
    return LinearRepresentation(a.v + b.v, gamma,
                                a.w + tuple(-x for x in b.w), a.msd_first)


def reverse_rep(rep: LinearRepresentation) -> LinearRepresentation:
    """Representation of the reversed words: swap v/w, transpose gammas."""
    dim = rep.dim
    gamma = tuple(tuple(tuple(rep.gamma[d][j][i] for j in range(dim))
                        for i in range(dim)) for d in (0, 1))
    return LinearRepresentation(rep.w, gamma, rep.v,
                                msd_first=not rep.msd_first)


def _primitive(row):
    """The integer row with coprime entries that is a positive multiple of
    ``row``; the zero row stays zero."""
    den = math.lcm(*(x.denominator for x in row))
    row = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce_row(echelon, row):
    """Reduce the integer ``row`` against the fully reduced integer rows
    [(pivot, vector)] without division; the result is primitive."""
    for pivot, vec in echelon:
        c = row[pivot]
        if c:
            p = vec[pivot]
            row = [p * x - c * y for x, y in zip(row, vec)]
    return _primitive(row)


def _span(rep: LinearRepresentation):
    """Fully reduced integer rows [(pivot, vector)] spanning the vectors
    v.gamma(word), each row's pivot positive and its entries coprime."""
    echelon = []
    queue = [rep.v]
    while queue:
        x = _primitive(queue.pop())
        row = _reduce_row(echelon, x)
        pivot = next((j for j, c in enumerate(row) if c), None)
        if pivot is not None:
            if row[pivot] < 0:
                row = [-c for c in row]
            echelon = [(q, _reduce_row([(pivot, row)], other))
                       for q, other in echelon] + [(pivot, row)]
            queue += (_mat_row(x, rep.rows[0]), _mat_row(x, rep.rows[1]))
    return echelon


def _forward_reduce(rep: LinearRepresentation) -> LinearRepresentation:
    """Restrict to the row space spanned by v.gamma(word); value-preserving."""
    echelon = _span(rep)

    def coords(target):
        # Every other basis row is zero at a row's pivot, so a vector of
        # the span has coordinate target[p] / vec[p] along the row (p, vec).
        if any(_reduce_row(echelon, _primitive(target))):
            raise core.InternalError("closure failure: vector outside span")
        return tuple(Fraction(target[p], vec[p]) for p, vec in echelon)

    gamma = tuple(tuple(coords(_mat_row(vec, rep.rows[d]))
                        for _, vec in echelon) for d in (0, 1))
    w = tuple(sum(x * y for x, y in zip(vec, rep.w)) for _, vec in echelon)
    return LinearRepresentation(coords(rep.v), gamma, w, rep.msd_first)


def minimize_rep(rep: LinearRepresentation) -> LinearRepresentation:
    """Unique minimal dimension via forward then backward reduction."""
    return reverse_rep(_forward_reduce(reverse_rep(_forward_reduce(rep))))


def equal_reps(a: LinearRepresentation, b: LinearRepresentation) -> bool:
    """Equality as digit-word series (hence as integer functions).

    The difference, its orders aligned by ``subtract``, is the zero series
    iff every vector v.gamma(word) is orthogonal to its w, that is iff
    each row of a basis of their span is.
    """
    diff = subtract(a, b)
    return not any(sum(x * y for x, y in zip(vec, diff.w))
                   for _, vec in _span(diff))


# ---------------------------------------------------------------------------
# Fixture files


def load_representation(text: str) -> LinearRepresentation:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "order" or tokens[2] != "dim":
        raise ValueError("expected 'order msd' then 'dim <n>'")
    if tokens[1] != "msd":
        raise ValueError(f"order must be 'msd', got {tokens[1]!r}")
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
    return LinearRepresentation(v, tuple(gamma), w)


def _load_fixture(name: str) -> LinearRepresentation:
    return load_representation(core.fixture_text(name))


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
