"""Multi-track binary automata and the boolean/quantifier algebra over them.

An automaton reads tuples of binary digits, one digit per track per step,
most-significant digit first.  A track corresponds to a free variable; a
word over the tuple alphabet encodes a tuple of natural numbers, and every
canonical automaton here is *zero-closed*: acceptance depends only on the
encoded values, never on how many leading all-zero tuples pad the word, so
the all-zero symbol loops on the initial state.

Symbols are packed into integers: bit ``i`` of a symbol is the digit on
track ``i`` (tracks are kept sorted by name).  Given canonical machines
(deterministic, complete, minimal, zero-closed, BFS-numbered), every public
operation returns one, so equal languages over equal tracks yield identical
automata and no caller canonicalizes again: ``complement`` just flips the
accepting set, a ``rename_tracks`` that keeps the track order keeps the
rows, and one that only permutes tracks renumbers BFS.  ``project``
reaches the minimal machine by Brzozowski's double reversal, and every
other construction quotients its own breadth-first walk by Moore
refinement (``_quotient``).  ``product`` reads the sorted union of its
operands' tracks, and a name that occurs twice reads one digit on every
track that has it: a ``rename_tracks`` that maps two tracks to one name
merges them (and quotients, since a merged machine need not be minimal),
and the base machines accept a repeated track name.
"""

from __future__ import annotations

from operator import or_

from tmprover.core import InternalError

DEFAULT_STATE_CAP = 1 << 20


class StateLimitError(Exception):
    """Construction would exceed the configured state cap."""


class TrackMismatchError(Exception):
    """Operands disagree on track names where agreement is required."""


class MultiTrackAutomaton:
    """Deterministic complete acceptor over tuples of binary digits."""

    __slots__ = ("tracks", "transitions", "initial", "accepting")

    def __init__(self, tracks, transitions, initial, accepting):
        self.tracks = tuple(tracks)
        self.transitions = tuple(tuple(row) for row in transitions)
        self.initial = initial
        self.accepting = frozenset(accepting)
        if list(self.tracks) != sorted(self.tracks):
            raise TrackMismatchError(f"tracks must be sorted: {self.tracks}")

    @property
    def arity(self) -> int:
        return len(self.tracks)

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def num_symbols(self) -> int:
        return 1 << len(self.tracks)

    def track_index(self, name: str) -> int:
        try:
            return self.tracks.index(name)
        except ValueError:
            raise TrackMismatchError(f"no track named {name!r} in {self.tracks}")

    def __repr__(self):
        return (f"MultiTrackAutomaton(tracks={self.tracks}, "
                f"states={self.num_states}, accepting={len(self.accepting)})")


def _explore(tracks, start, successors, accept, state_cap=float("inf")):
    """The machine reachable from ``start``, states numbered breadth first.

    ``successors(key)`` yields one successor key per symbol, in increasing
    symbol order, and ``accept(key)`` tells whether a key is accepting.
    States are numbered in discovery order, so isomorphic inputs give
    identical machines.  Discovering more than ``state_cap`` states raises
    StateLimitError; a walk of an existing machine passes no cap.
    """
    ids = {start: 0}
    keys = [start]
    trans = []
    accepting = set()
    for key in keys:  # keys grows as states are found: a FIFO worklist
        row = []
        for nxt in successors(key):
            t = ids.get(nxt)
            if t is None:
                if len(keys) >= state_cap:
                    raise StateLimitError(
                        f"automaton construction exceeds cap {state_cap}")
                t = ids[nxt] = len(keys)
                keys.append(nxt)
            row.append(t)
        if accept(key):
            accepting.add(len(trans))
        trans.append(row)
    return MultiTrackAutomaton(tracks, trans, 0, accepting)


def _quotient(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Moore partition refinement of a machine numbered breadth first from
    state 0 with every state reachable, as ``_explore`` returns it.

    Classes are numbered in the order of their first state.  States of one
    class have equal class rows, so on such an input that order is the
    breadth-first order of the quotient, and the result is canonical with
    no second walk.
    """
    n = a.num_states
    trans = a.transitions
    block = [1 if q in a.accepting else 0 for q in range(n)]
    n_blocks = 2 if a.accepting and len(a.accepting) < n else 1
    while True:
        sig_ids: dict[tuple, int] = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q], *map(block.__getitem__, trans[q]))
            new_block[q] = sig_ids.setdefault(sig, len(sig_ids))
        stable = len(sig_ids) == n_blocks
        block = new_block
        n_blocks = len(sig_ids)
        if stable:
            break
    rows = []
    for q, b in enumerate(block):
        if b == len(rows):  # q is the first state of its class
            rows.append([block[t] for t in trans[q]])
    return MultiTrackAutomaton(a.tracks, rows, 0,
                               {block[q] for q in a.accepting})


def minimize(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Canonical minimal DFA: the quotient of the machine's breadth-first
    walk, which drops unreachable states.  Equal languages over equal
    tracks therefore give identical machines."""
    return _quotient(_explore(a.tracks, a.initial, a.transitions.__getitem__,
                              a.accepting.__contains__))


def is_zero_closed(a: MultiTrackAutomaton) -> bool:
    """Acceptance is invariant under leading all-zero symbols: the all-zero
    symbol loops on the initial state.  The loop is sufficient on any
    machine, and necessary on a minimal one."""
    return a.transitions[a.initial][0] == a.initial


def _reread(a: MultiTrackAutomaton, names, schema) -> tuple:
    """Transition rows of ``a`` over the symbols of ``schema``, a tuple of
    track names in any order whose track j is bit j of a symbol, where
    track i of ``a`` reads schema track ``names[i]``.  A name that occurs
    twice reads one digit on every track that has it; schema tracks no
    name maps to are unconstrained."""
    if tuple(names) == schema:
        return a.transitions
    positions = [schema.index(name) for name in names]
    reads = []
    for sym in range(1 << len(schema)):
        old = 0
        for i, p in enumerate(positions):
            if sym >> p & 1:
                old |= 1 << i
        reads.append(old)
    return tuple([row[old] for old in reads] for row in a.transitions)


_COMBINE = {
    "and": lambda x, y: x and y,
    "or": lambda x, y: x or y,
    "xor": lambda x, y: x != y,
    "iff": lambda x, y: x == y,
    "implies": lambda x, y: (not x) or y,
}


def product(a: MultiTrackAutomaton, b: MultiTrackAutomaton,
            op: str, state_cap: int = DEFAULT_STATE_CAP) -> MultiTrackAutomaton:
    """Pointwise boolean combination of two automata, on the sorted union
    of their tracks; a track only one operand has is unconstrained in the
    other."""
    if op not in _COMBINE:
        raise ValueError(f"unknown boolean operator {op!r}")
    combine = _COMBINE[op]
    schema = tuple(sorted(set(a.tracks) | set(b.tracks)))
    rows_a = _reread(a, a.tracks, schema)
    rows_b = _reread(b, b.tracks, schema)
    return _quotient(_explore(
        schema, (a.initial, b.initial),
        lambda key: zip(rows_a[key[0]], rows_b[key[1]]),
        lambda key: combine(key[0] in a.accepting, key[1] in b.accepting),
        state_cap))


def complement(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Language complement: flipping the accepting set keeps a canonical
    machine minimal, BFS-numbered and zero-closed."""
    result = MultiTrackAutomaton(
        a.tracks, a.transitions, a.initial,
        frozenset(range(a.num_states)) - a.accepting)
    if not is_zero_closed(result):
        raise InternalError("complement of a machine that is not zero-closed")
    return result


def _back(rows, mask):
    """Successors in the subset construction of the reversed machine
    ``rows``, a set of its states being an int bitmask: on symbol ``s`` a
    set goes to the states with an edge into it on a symbol ``sym`` with
    ``sym & mask == s``.  A ``mask`` below the top bits folds the symbols
    of erased top tracks onto those of the others."""
    into = [[0] * (mask + 1) for _ in rows]
    for p, row in enumerate(rows):
        for sym, q in enumerate(row):
            into[q][sym & mask] |= 1 << p

    def successors(subset):
        out = [0] * (mask + 1)
        while subset:
            low = subset & -subset
            out = list(map(or_, out, into[low.bit_length() - 1]))
            subset ^= low
        return out

    return successors


def project(a: MultiTrackAutomaton, track: str,
            state_cap: int = DEFAULT_STATE_CAP) -> MultiTrackAutomaton:
    """Existential quantification of one track.

    The track's digit component is erased (yielding a nondeterministic
    machine), and its initial set is closed forward along the symbols
    whose remaining digits are all zero (the witness may need more digits
    than the other tracks: its leading ones).  Brzozowski's double
    reversal then gives the canonical minimal machine: a subset
    construction of the reversed machine from its accepting set, whose
    subsets that meet the initial set accept, and a subset construction
    of the reverse of that, whose breadth-first numbering is already
    canonical.  Either construction raises StateLimitError past
    ``state_cap`` states.
    """
    pos = a.track_index(track)
    rest = a.tracks[:pos] + a.tracks[pos + 1:]
    # With the track on the top bit, symbol s of the result reads the
    # track's digit 0 as s and its digit 1 as s | half.
    half = 1 << len(rest)
    rows = _reread(a, a.tracks, rest + (track,))
    initial = 1 << a.initial
    stack = [a.initial]
    while stack:
        row = rows[stack.pop()]
        for t in (row[0], row[half]):
            if not initial >> t & 1:
                initial |= 1 << t
                stack.append(t)
    reverse = _explore(rest, sum(1 << q for q in a.accepting),
                       _back(rows, half - 1), initial.__and__, state_cap)
    # A set of the second construction accepts when it holds state 0, the
    # initial state of the first.
    result = _explore(rest, sum(1 << q for q in reverse.accepting),
                      _back(reverse.transitions, half - 1), (1).__and__,
                      state_cap)
    if not is_zero_closed(result):
        raise InternalError(f"projection of {track!r} is not zero-closed")
    return result


def rename_tracks(a: MultiTrackAutomaton, mapping: dict) -> MultiTrackAutomaton:
    """Rename tracks; tracks renamed alike merge into one, which reads the
    same digit on each.  A rename that keeps the track order keeps every
    symbol, so the rows stay as they are; permuted symbols keep a machine
    minimal, so it is only renumbered breadth first; a merge may not, so
    it is quotiented."""
    names = [mapping.get(t, t) for t in a.tracks]
    schema = tuple(sorted(set(names)))
    if tuple(names) == schema:
        return MultiTrackAutomaton(schema, a.transitions, a.initial,
                                   a.accepting)
    walked = _explore(schema, a.initial, _reread(a, names, schema).__getitem__,
                      a.accepting.__contains__)
    return _quotient(walked) if len(schema) < len(names) else walked


def is_empty(a: MultiTrackAutomaton) -> bool:
    """No accepting state is reachable from the initial state."""
    return not _explore(a.tracks, a.initial, a.transitions.__getitem__,
                        a.accepting.__contains__).accepting


def equivalent(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> bool:
    return is_empty(product(a, b, "xor"))


def accepts(a: MultiTrackAutomaton, values) -> bool:
    """Membership of a value tuple (one natural per track), read MSD
    first for as many digits as the longest value has."""
    values = list(values)
    if len(values) != a.arity:
        raise TrackMismatchError(
            f"need {a.arity} values for tracks {a.tracks}, got {len(values)}")
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    q = a.initial
    for k in reversed(range(max([v.bit_length() for v in values] + [0]))):
        q = a.transitions[q][sum((v >> k & 1) << i
                                 for i, v in enumerate(values))]
    return q in a.accepting


# ---------------------------------------------------------------------------
# Base relation machines


def _build(tracks: dict, initial, accepting, step):
    """Small-machine helper: the machine reachable from ``initial`` by
    ``step(state, digits_by_role) -> state``, quotiented to minimal.

    ``tracks`` maps role name -> track name; the resulting machine has its
    tracks sorted by name as required; roles on the same track read its
    one digit.
    """
    names = sorted(set(tracks.values()))
    positions = {role: names.index(track) for role, track in tracks.items()}
    digits = [{role: sym >> pos & 1 for role, pos in positions.items()}
              for sym in range(1 << len(names))]
    return _quotient(_explore(names, initial,
                              lambda q: [step(q, d) for d in digits],
                              accepting.__contains__, DEFAULT_STATE_CAP))


_CMP_ACCEPT = {
    "=": {0}, "!=": {1, 2}, "<": {1}, "<=": {0, 1}, ">": {2}, ">=": {0, 2},
}


def comparison(left: str, right: str, op: str) -> MultiTrackAutomaton:
    """x op y over tracks (left, right); MSD-first status machine.

    State 0: equal so far, 1: left < right, 2: left > right.  The first
    (most significant) differing digit decides, and the status then stays.
    """
    if op not in _CMP_ACCEPT:
        raise ValueError(f"unknown comparison {op!r}")

    def step(q, d):
        if q or d["l"] == d["r"]:
            return q
        return 1 if d["l"] < d["r"] else 2

    return _build({"l": left, "r": right}, 0, _CMP_ACCEPT[op], step)


def adder(x: str, y: str, z: str) -> MultiTrackAutomaton:
    """x + y = z; an MSD-first carry machine of two states plus the sink.

    The state is the carry the lower digits must supply: a position whose
    carry out is c needs carry in z + 2c - x - y, which must be 0 or 1.
    No carry leaves the most significant digit, none enters the least.
    """

    def step(q, d):
        if q == 2:
            return 2
        carry = d["z"] + 2 * q - d["x"] - d["y"]
        return carry if carry in (0, 1) else 2

    return _build({"x": x, "y": y, "z": z}, 0, {0}, step)


def constant(value: int, track: str) -> MultiTrackAutomaton:
    """Single-track machine accepting exactly the encodings of ``value``:
    leading zeros loop on the initial state, then the digits of ``value``
    follow, most significant first."""
    if value < 0:
        raise ValueError("constants are nonnegative")
    digits = [int(c) for c in format(value, "b")] if value else []
    n = len(digits)
    dead = n + 1

    def step(q, d):
        if q < n and d["v"] == digits[q]:
            return q + 1
        return 0 if q == 0 and d["v"] == 0 else dead

    return _build({"v": track}, 0, {n}, step)


# ---------------------------------------------------------------------------
# The Thue-Morse sequence


def seq_const(u: str, bit: int) -> MultiTrackAutomaton:
    """Machine for  T[u] = bit: the two-state parity machine on track
    ``u``, whose state is the parity of the 1 digits read so far.  Parity
    does not depend on digit order, and a leading 0 leaves it unchanged,
    so the machine is zero-closed.  Every sequence comparison is built
    from it, ``T[u] = T[v]`` as the ``iff`` product of ``T[u] = 1`` and
    ``T[v] = 1``."""
    if bit not in (0, 1):
        raise ValueError("sequence values are binary")
    return _build({"u": u}, 0, {bit}, lambda q, d: q ^ d["u"])


# ---------------------------------------------------------------------------
# Export


def export_dot(a: MultiTrackAutomaton) -> str:
    """GraphViz rendering of ``a`` as it reads, most-significant digit
    first."""
    lines = ["digraph {", "  rankdir=LR;",
             f"  // tracks: {', '.join(a.tracks) if a.tracks else '(none)'}"
             " (msd first)",
             "  init [shape=point];", f"  init -> s{a.initial};"]
    for q in range(a.num_states):
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f"  s{q} [shape={shape}, label=\"{q}\"];")
    for q, row in enumerate(a.transitions):
        by_target: dict[int, list[str]] = {}
        for sym, t in enumerate(row):
            digits = ",".join(str((sym >> i) & 1) for i in range(a.arity))
            by_target.setdefault(t, []).append(f"[{digits}]")
        for t in sorted(by_target):
            lines.append(
                f"  s{q} -> s{t} [label=\"{' '.join(by_target[t])}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_compact_text(a: MultiTrackAutomaton) -> str:
    """Line-oriented snapshot format with deterministic ordering."""
    lines = [f"tracks {' '.join(a.tracks)}".rstrip(),
             f"states {a.num_states}",
             f"initial {a.initial}",
             "accepting " + " ".join(str(q) for q in sorted(a.accepting))]
    for q, row in enumerate(a.transitions):
        for sym, t in enumerate(row):
            digits = "".join(str((sym >> i) & 1) for i in range(a.arity))
            lines.append(f"{q} {digits or '-'} {t}")
    return "\n".join(lines) + "\n"
