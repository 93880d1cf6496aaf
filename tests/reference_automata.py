"""A second route to the canonical machines of ``product``, ``project`` and
``minimize``, for the tests to compare bytes against.

``project`` here is the forward subset construction over frozensets,
followed by ``minimize``; ``minimize`` is Moore refinement over every
state, reachable or not, followed by a breadth-first walk of the quotient.
Both share only the breadth-first explorer and the symbol re-reading with
``tmprover.automata``, so a fault in the engine's double reversal or in
its numbering of Moore's classes shows as a byte difference.
"""

from tmprover import automata as au


def minimize(a: au.MultiTrackAutomaton) -> au.MultiTrackAutomaton:
    n = a.num_states
    trans = a.transitions
    block = [1 if q in a.accepting else 0 for q in range(n)]
    n_blocks = 2 if a.accepting and len(a.accepting) < n else 1
    while True:
        sig_ids = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q], *map(block.__getitem__, trans[q]))
            new_block[q] = sig_ids.setdefault(sig, len(sig_ids))
        stable = len(sig_ids) == n_blocks
        block = new_block
        n_blocks = len(sig_ids)
        if stable:
            break
    rep_trans = [None] * n_blocks
    for q in range(n):
        if rep_trans[block[q]] is None:
            rep_trans[block[q]] = tuple(block[t] for t in trans[q])
    accepting = {block[q] for q in a.accepting}
    return au._explore(a.tracks, block[a.initial], rep_trans.__getitem__,
                       accepting.__contains__)


def product(a, b, op):
    combine = au._COMBINE[op]
    schema = tuple(sorted(set(a.tracks) | set(b.tracks)))
    rows_a = au._reread(a, a.tracks, schema)
    rows_b = au._reread(b, b.tracks, schema)
    return minimize(au._explore(
        schema, (a.initial, b.initial),
        lambda key: zip(rows_a[key[0]], rows_b[key[1]]),
        lambda key: combine(key[0] in a.accepting, key[1] in b.accepting)))


def project(a, track):
    pos = a.track_index(track)
    rest = a.tracks[:pos] + a.tracks[pos + 1:]
    half = 1 << len(rest)
    nfa_trans = [list(zip(row[:half], row[half:]))
                 for row in au._reread(a, a.tracks, rest + (track,))]
    initial = {a.initial}
    stack = [a.initial]
    while stack:
        for t in nfa_trans[stack.pop()][0]:
            if t not in initial:
                initial.add(t)
                stack.append(t)

    def successors(cur):
        return [frozenset(t for q in cur for t in nfa_trans[q][sym])
                for sym in range(half)]

    return minimize(au._explore(rest, frozenset(initial), successors,
                                lambda cur: not a.accepting.isdisjoint(cur)))
