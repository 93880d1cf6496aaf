"""Multi-track binary automata and the boolean/quantifier algebra over them.

An automaton reads tuples of binary digits, one digit per track per step,
least-significant digit first.  A track corresponds to a free variable; a
word over the tuple alphabet encodes a tuple of natural numbers, and every
canonical automaton here is *zero-closed*: acceptance depends only on the
encoded values, never on how many trailing all-zero tuples pad the word.

Symbols are packed into integers: bit ``i`` of a symbol is the digit on
track ``i`` (tracks are kept sorted by name).  Given canonical machines
(deterministic, complete, minimal, zero-closed, BFS-numbered), every public
operation returns one, so equal languages over equal tracks yield identical
automata and no caller canonicalizes again: ``complement`` just flips the
accepting set, and a ``rename_tracks`` that only permutes tracks renumbers
BFS.  ``product`` reads the sorted union of its operands' tracks, and a
name that occurs twice reads one digit on every track that has it: a
``rename_tracks`` that maps two tracks to one name merges them (and
minimizes, since a merged machine need not be minimal), and the base
machines accept a repeated track name.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _explore(tracks, start, successors, accept, state_cap):
    """The machine reachable from ``start``, states numbered breadth first.

    ``successors(key)`` yields one successor key per symbol, in increasing
    symbol order, and ``accept(key)`` tells whether a key is accepting.
    States are numbered in discovery order, so isomorphic inputs give
    identical machines.  Discovering more than ``state_cap`` states raises
    StateLimitError.
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


def minimize(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Canonical minimal DFA via Moore partition refinement.

    Refinement runs over every state, reachable or not: unreachable states
    cannot change the classes of reachable ones, and the final breadth-first
    renumbering from the initial class keeps only the reachable classes.
    Equal languages over equal tracks therefore give identical machines.
    """
    n = a.num_states
    trans = a.transitions
    block = [1 if q in a.accepting else 0 for q in range(n)]
    n_blocks = 2 if a.accepting and len(a.accepting) < n else 1
    while True:
        sig_ids: dict[tuple, int] = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q],) + tuple(block[t] for t in trans[q])
            new_block[q] = sig_ids.setdefault(sig, len(sig_ids))
        stable = len(sig_ids) == n_blocks
        block = new_block
        n_blocks = len(sig_ids)
        if stable:
            break
    rep_trans = [None] * n_blocks
    for q in range(n):
        b = block[q]
        if rep_trans[b] is None:
            rep_trans[b] = tuple(block[t] for t in trans[q])
    accepting = {block[q] for q in a.accepting}
    # There are only n_blocks classes, so this cap is never reached.
    return _explore(a.tracks, block[a.initial], rep_trans.__getitem__,
                    accepting.__contains__, n_blocks)


def is_zero_closed(a: MultiTrackAutomaton) -> bool:
    """Structural check: acceptance is invariant under the all-zero symbol."""
    return all((q in a.accepting) == (row[0] in a.accepting)
               for q, row in enumerate(a.transitions))


def _saturate(accepting, successors) -> set:
    """States from which the moves in ``successors`` can reach
    ``accepting``; ``successors[q]`` lists the states q moves to (only on
    the zero symbol, for zero-closure)."""
    saturated = set(accepting)
    changed = True
    while changed:
        changed = False
        for q, targets in enumerate(successors):
            if q not in saturated and any(t in saturated for t in targets):
                saturated.add(q)
                changed = True
    return saturated


def zero_close(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Closure of the language under the value semantics.

    Accepts a word iff some encoding of the same value tuple was accepted.
    Pairs the running state with the state reached after the last nonzero
    symbol; acceptance asks whether that anchor state can reach acceptance
    by all-zero symbols alone.  More than DEFAULT_STATE_CAP pairs raise
    StateLimitError.
    """
    saturated = _saturate(a.accepting, [(row[0],) for row in a.transitions])

    def successors(key):
        cur, anchor = key
        row = a.transitions[cur]
        return [(row[0], anchor)] + [(t, t) for t in row[1:]]

    result = minimize(_explore(a.tracks, (a.initial, a.initial), successors,
                               lambda key: key[1] in saturated,
                               DEFAULT_STATE_CAP))
    assert is_zero_closed(result)
    return result


def _reread(a: MultiTrackAutomaton, names, schema) -> tuple:
    """Transition rows of ``a`` over the symbols of the sorted ``schema``,
    where track i of ``a`` reads schema track ``names[i]``.  A name that
    occurs twice reads one digit on every track that has it; schema tracks
    no name maps to are unconstrained."""
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
    return minimize(_explore(
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
    assert is_zero_closed(result)
    return result


def _determinize(tracks, nfa_trans, initial_set, accepting,
                 state_cap) -> MultiTrackAutomaton:
    """Subset construction, minimized; the empty set acts as the sink."""
    symbols = range(1 << len(tracks))

    def successors(cur):
        return [frozenset(t for q in cur for t in nfa_trans[q][sym])
                for sym in symbols]

    return minimize(_explore(tracks, frozenset(initial_set), successors,
                             lambda cur: not accepting.isdisjoint(cur),
                             state_cap))


def project(a: MultiTrackAutomaton, track: str,
            state_cap: int = DEFAULT_STATE_CAP) -> MultiTrackAutomaton:
    """Existential quantification of one track.

    The track's digit component is erased (yielding a nondeterministic
    machine), acceptance is saturated backward along symbols whose remaining
    digits are all zero (the witness may need more digits than the other
    tracks), and the subset construction yields the canonical minimal
    result.  More than ``state_cap`` subsets raise StateLimitError.
    """
    pos = a.track_index(track)
    rest = tuple(t for t in a.tracks if t != track)
    low_mask = (1 << pos) - 1
    n_sym_new = 1 << len(rest)
    nfa_trans = []
    for row in a.transitions:
        new_row = []
        for sym in range(n_sym_new):
            expanded = ((sym & low_mask) | ((sym & ~low_mask) << 1))
            new_row.append((row[expanded], row[expanded | (1 << pos)]))
        nfa_trans.append(new_row)
    saturated = _saturate(a.accepting, [row[0] for row in nfa_trans])
    result = _determinize(rest, nfa_trans, {a.initial}, saturated, state_cap)
    assert is_zero_closed(result)
    return result


def rename_tracks(a: MultiTrackAutomaton, mapping: dict) -> MultiTrackAutomaton:
    """Rename tracks; tracks renamed alike merge into one, which reads the
    same digit on each.  Permuted symbols keep a machine minimal, so it is
    only renumbered breadth first; a merge may not, so it is minimized."""
    names = [mapping.get(t, t) for t in a.tracks]
    schema = tuple(sorted(set(names)))
    rows = _reread(a, names, schema)
    if len(schema) < len(names):
        return minimize(MultiTrackAutomaton(schema, rows, a.initial,
                                            a.accepting))
    # A walk finds at most num_states states, so this cap is never reached.
    return _explore(schema, a.initial, rows.__getitem__,
                    a.accepting.__contains__, a.num_states)


def is_empty(a: MultiTrackAutomaton) -> bool:
    """No accepting state is reachable from the initial state."""
    # A walk finds at most num_states states, so this cap is never reached.
    return not _explore(a.tracks, a.initial, a.transitions.__getitem__,
                        a.accepting.__contains__, a.num_states).accepting


def equivalent(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> bool:
    return is_empty(product(a, b, "xor"))


def accepts(a: MultiTrackAutomaton, values) -> bool:
    """Membership of a value tuple (one natural per track), read LSD
    first for as many digits as the longest value has."""
    values = list(values)
    if len(values) != a.arity:
        raise TrackMismatchError(
            f"need {a.arity} values for tracks {a.tracks}, got {len(values)}")
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    q = a.initial
    for k in range(max([v.bit_length() for v in values] + [0])):
        q = a.transitions[q][sum((v >> k & 1) << i
                                 for i, v in enumerate(values))]
    return q in a.accepting


def run_reversed(a: MultiTrackAutomaton,
                 state_cap: int = DEFAULT_STATE_CAP) -> MultiTrackAutomaton:
    """Machine for the reversed language (MSD-first reading), canonical."""
    n = a.num_states
    nfa_trans = [[[] for _ in range(a.num_symbols)] for _ in range(n)]
    for q, row in enumerate(a.transitions):
        for sym, t in enumerate(row):
            nfa_trans[t][sym].append(q)
    return _determinize(a.tracks, nfa_trans, a.accepting, {a.initial},
                        state_cap)


# ---------------------------------------------------------------------------
# Base relation machines


def _build(tracks: dict, n_states: int, initial: int, accepting, step):
    """Small-machine helper: ``step(state, digits_by_role) -> state``.

    ``tracks`` maps role name -> track name; the resulting machine has its
    tracks sorted by name as required; roles on the same track read its
    one digit.
    """
    names = sorted(set(tracks.values()))
    positions = {role: names.index(track) for role, track in tracks.items()}
    n_sym = 1 << len(names)
    trans = []
    for q in range(n_states):
        row = []
        for sym in range(n_sym):
            digits = {role: (sym >> pos) & 1 for role, pos in positions.items()}
            row.append(step(q, digits))
        trans.append(row)
    return minimize(MultiTrackAutomaton(names, trans, initial, accepting))


_CMP_ACCEPT = {
    "=": {0}, "!=": {1, 2}, "<": {1}, "<=": {0, 1}, ">": {2}, ">=": {0, 2},
}


def comparison(left: str, right: str, op: str) -> MultiTrackAutomaton:
    """x op y over tracks (left, right); LSD-first status machine.

    State 0: equal so far, 1: left < right, 2: left > right; later (more
    significant) digits override, so the status at end of word is decided by
    the most significant differing digit, as required.
    """
    if op not in _CMP_ACCEPT:
        raise ValueError(f"unknown comparison {op!r}")

    def step(q, d):
        if d["l"] == d["r"]:
            return q
        return 1 if d["l"] < d["r"] else 2

    return _build({"l": left, "r": right}, 3, 0, _CMP_ACCEPT[op], step)


def adder(x: str, y: str, z: str) -> MultiTrackAutomaton:
    """x + y = z; the classic 2-state LSD carry machine (plus sink)."""

    def step(q, d):
        if q == 2:
            return 2
        total = d["x"] + d["y"] + q
        return total // 2 if total % 2 == d["z"] else 2

    return _build({"x": x, "y": y, "z": z}, 3, 0, {0}, step)


def constant(value: int, track: str) -> MultiTrackAutomaton:
    """Single-track machine accepting exactly the encodings of ``value``."""
    if value < 0:
        raise ValueError("constants are nonnegative")
    digits = [(value >> k) & 1 for k in range(value.bit_length())]
    n = len(digits)
    dead = n + 1

    def step(q, d):
        if q == dead:
            return dead
        if q < n:
            return q + 1 if d["v"] == digits[q] else dead
        return n if d["v"] == 0 else dead

    return _build({"v": track}, n + 2, 0, {n}, step)


def empty(tracks=()) -> MultiTrackAutomaton:
    names = tuple(sorted(tracks))
    n_sym = 1 << len(names)
    return MultiTrackAutomaton(names, [tuple([0] * n_sym)], 0, set())


# ---------------------------------------------------------------------------
# DFAO: automaton with output, used for sequence indexing


@dataclass(frozen=True)
class Dfao:
    """Single-track automaton with a binary output on every state."""

    transitions: tuple[tuple[int, int], ...]
    initial: int
    output: tuple[int, ...]

    def value(self, k: int) -> int:
        """Output after reading the LSD-first digits of k."""
        q = self.initial
        while k:
            q = self.transitions[q][k & 1]
            k >>= 1
        return self.output[q]


def tm_dfao() -> Dfao:
    """Two-state parity machine computing the Thue-Morse sequence.

    Popcount parity is digit-order invariant, so the same machine serves
    both reading conventions.
    """
    return Dfao(((0, 1), (1, 0)), 0, (0, 1))


def seq_const(dfao: Dfao, u: str, bit: int) -> MultiTrackAutomaton:
    """Machine for  seq[u] = bit: the DFAO read on track ``u``.  Every
    sequence comparison is built from it, ``seq[u] = seq[v]`` as the
    ``iff`` product of ``seq[u] = 1`` and ``seq[v] = 1``."""
    if bit not in (0, 1):
        raise ValueError("sequence values are binary")
    accepting = {q for q, o in enumerate(dfao.output) if o == bit}
    return minimize(MultiTrackAutomaton((u,), dfao.transitions, dfao.initial,
                                        accepting))


# ---------------------------------------------------------------------------
# Export


def export_dot(a: MultiTrackAutomaton, digit_order: str = "lsd") -> str:
    """GraphViz rendering; ``msd`` reverses the machine first so the picture
    reads most-significant digit first."""
    if digit_order == "msd":
        a = run_reversed(a)
    elif digit_order != "lsd":
        raise ValueError("digit_order must be 'msd' or 'lsd'")
    lines = ["digraph {", "  rankdir=LR;",
             f"  // tracks: {', '.join(a.tracks) if a.tracks else '(none)'}"
             f" ({digit_order} first)",
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
